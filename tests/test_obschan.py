from types import SimpleNamespace

import numpy as np
import pytest

import qincompat as q
from qincompat import obschan
from qincompat.linalg import partial_trace
from qincompat.config import Tolerances
from qincompat.sdpcore import Verdict


def noisy(obs, lam):
    return q.mix_with_trivial(obs, lam)


# --- joint realizability -----------------------------------------------------

def test_sharp_with_identity_fails(sharp_z):
    res = q.check_obs_channel(sharp_z, q.identity_channel(2))
    assert res.solve.verdict is Verdict.INFEASIBLE_CERTIFIED


def test_trivial_with_identity(sharp_z):
    triv = q.trivial_observable([0.3, 0.7], 2)
    res = q.check_obs_channel(triv, q.identity_channel(2))
    assert res.feasible


def test_anything_with_constant(rng):
    obs = q.random_povm(2, 3, rng)
    sink = q.constant_channel(q.State(np.eye(2) / 2), 2)
    res = q.check_obs_channel(obs, sink)
    assert res.feasible
    inst = res.joint
    assert inst is not None
    induced = inst.induced_observable()
    assert np.abs(induced.effects - obs.effects).max() < 1e-6
    total = inst.total_channel()
    assert np.abs(total.choi() - sink.choi()).max() < 1e-6


def test_obs_with_own_least_disturbing(rng):
    for _ in range(3):
        obs = q.random_povm(2, 2, rng)
        chan = q.least_disturbing_channel(obs)
        assert q.check_obs_channel(obs, chan).feasible


def test_dim_mismatch(sharp_z):
    with pytest.raises(ValueError):
        q.check_obs_channel(sharp_z, q.identity_channel(3))


# --- canonical instruments ---------------------------------------------------

def test_luders_instrument(sharp_x, rng):
    for obs in [sharp_x, q.random_povm(2, 3, rng)]:
        inst = q.luders_instrument(obs)
        induced = inst.induced_observable()
        assert np.abs(induced.effects - obs.effects).max() < 1e-10
        chan = inst.total_channel()
        choi = chan.choi()
        tr_out = partial_trace(choi, [2, 2], keep=[0])
        assert np.abs(tr_out - np.eye(2)).max() < 1e-10


def test_least_disturbing_dims(rng):
    obs = q.random_povm(2, 3, rng)
    chan = q.least_disturbing_channel(obs)
    assert chan.in_dim == 2
    assert chan.out_dim == 2 * 3


def test_division_equivalence(rng):
    # realizability with C is exactly division of C through the least
    # disturbing channel of the observable
    for _ in range(6):
        obs = noisy(q.random_povm(2, 2, rng), rng.uniform(0.4, 1.0))
        lam = q.least_disturbing_channel(obs)
        if rng.uniform() < 0.5:
            chan = q.random_channel(2, 2, rng)
        else:
            chan = q.luders_instrument(noisy(q.random_povm(2, 2, rng),
                                             rng.uniform(0.4, 1.0))).total_channel()
        direct = q.check_obs_channel(obs, chan).feasible
        divided = q.channel_division(chan, lam).below
        assert direct == divided


# --- sequential recovery -----------------------------------------------------

def test_sequential_sharp_then_sharp_fails(sharp_x, sharp_z):
    res = q.sequential_recover(sharp_x, sharp_z)
    assert not res.feasible


def test_sequential_recover_compatible(sharp_x, sharp_z):
    first = noisy(sharp_x, 0.5)
    second = noisy(sharp_z, 0.5)
    res = q.sequential_recover(first, second)
    assert res.feasible
    rec = res.factor
    assert rec is not None
    # the recovered observable acts after the first measurement branch
    assert rec.dim == q.least_disturbing_channel(first).out_dim


def test_sequential_matches_joint_measurability(rng):
    for _ in range(6):
        a = noisy(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0))
        b = noisy(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0))
        seq = q.sequential_recover(a, b).feasible
        jm = q.check_joint([a, b]).feasible
        assert seq == jm


# --- structure of rank-one measurement channels ------------------------------

def test_rank1_channel_form(sharp_z, rng):
    chan = q.luders_instrument(sharp_z).total_channel()
    assert q.rank1_channel_form_check(sharp_z, chan)
    assert not q.rank1_channel_form_check(sharp_z, q.identity_channel(2))
    # a zero effect is skipped: it prepares no state, so it needs no unit trace
    with_zero = q.Observable(np.concatenate([sharp_z.effects, np.zeros((1, 2, 2))]))
    assert q.rank1_channel_form_check(with_zero, chan)
    fat = noisy(sharp_z, 0.5)
    with pytest.raises(ValueError):
        q.rank1_channel_form_check(fat, chan)


# --- order transfer ----------------------------------------------------------

def test_nddr_consistency(sharp_z, rng):
    st = q.StochasticMatrix(np.array([[0.8, 0.1], [0.2, 0.9]]))
    coarse = q.post_process(sharp_z, st)
    rep = q.nddr_test(coarse, sharp_z, rng=rng, samples=3)
    assert rep.order.below
    assert rep.division.below
    assert all(rep.transfer)
    assert rep.consistent


def test_nddr_undecided_transfer_is_not_consistent(sharp_z, rng, monkeypatch):
    # a transfer solve cut short is no evidence that the transfer fails
    monkeypatch.setattr(obschan, "check_obs_channel",
                        lambda *args: SimpleNamespace(verdict=Verdict.UNDECIDED, feasible=False))
    coarse = q.post_process(sharp_z, q.StochasticMatrix(np.array([[0.8, 0.1], [0.2, 0.9]])))
    rep = q.nddr_test(coarse, sharp_z, rng=rng, samples=2)
    assert rep.order.verdict is Verdict.FEASIBLE and rep.division.verdict is Verdict.FEASIBLE
    assert rep.transfer == (None, None) and rep.consistent is None


def test_nddr_unrelated_pair(sharp_x, sharp_z, rng):
    rep = q.nddr_test(sharp_x, sharp_z, rng=rng, samples=2)
    assert not rep.order.below
    assert rep.consistent


def test_nddr_undecided_order_is_not_consistent(rng):
    # an order solve cut short decides nothing, so neither does the report
    fine = q.random_povm(2, 3, rng)
    coarse = q.binarize(fine, [0, 1])
    rep = q.nddr_test(coarse, fine, rng=rng, samples=2, tols=Tolerances(feas=1e-18, max_iter=20))
    assert rep.order.verdict is Verdict.UNDECIDED
    assert rep.consistent is None


def test_measure_and_prepare_order_matches_the_rank1_form(rng):
    # a channel after a rank-one observable is a component of it exactly when it
    # measures it and prepares one state per outcome
    for i in range(20):
        obs = q.sharp_observable(q.random_unitary(2, rng))
        if i % 2 == 0:
            states = [q.random_state(3, rng) for _ in range(2)]
            choi = sum(np.kron(e.T, s.matrix) for e, s in zip(obs.effects, states))
            chan = q.Channel.from_choi(choi, 2, 3)
        else:
            chan = q.random_channel(2, 3, rng)
        rep = q.postprocessing_order(chan, obs)
        assert rep.verdict is not Verdict.UNDECIDED
        assert rep.below == q.rank1_channel_form_check(obs, chan) == (i % 2 == 0)
