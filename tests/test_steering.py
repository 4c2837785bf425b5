import itertools

import numpy as np
import pytest

import qincompat as q
import qincompat.linalg as la


def noisy(obs, lam):
    return q.mix_with_trivial(obs, lam)


@pytest.fixture
def sharp_y():
    sy = np.array([[0, -1j], [1j, 0]])
    return q.Observable(np.stack([(np.eye(2) + s * sy) / 2 for s in (1, -1)]))


# --- assemblage construction -------------------------------------------------

def test_assemblage_from_state(sharp_x, sharp_z):
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    state = q.State(np.outer(vec, vec))
    asm = q.assemblage_from(state, [sharp_x, sharp_z])
    assert asm.n_settings == 2
    assert asm.n_outcomes == 2
    assert asm.dim == 2
    # totals all equal Bob's reduced state
    assert np.abs(asm.total() - np.eye(2) / 2).max() < 1e-10
    # steering with Z projects Bob onto the same basis state
    z_blocks = asm.blocks[1]
    assert np.abs(z_blocks[0] - np.diag([0.5, 0.0])).max() < 1e-10


@pytest.mark.parametrize("da,db", [(2, 3), (3, 2)])
def test_assemblage_from_conditions_each_effect(rng, da, db):
    # one stacked call gives the per-setting, per-outcome loop, bit for bit
    omega = q.random_state(da * db, rng).matrix
    observables = [q.random_povm(da, 3, rng) for _ in range(2)]
    want = [[la.partial_trace(la.kron(e, np.eye(db)) @ omega, [da, db], keep=[1])
             for e in obs.effects] for obs in observables]
    got = q.assemblage_from(omega, observables).blocks
    assert np.array_equal(got, q.Assemblage(np.array(want)).blocks)


def test_max_entangled_assemblage(sharp_x, sharp_z):
    asm = q.max_entangled_assemblage([sharp_x, sharp_z])
    assert np.abs(asm.total() - np.eye(2) / 2).max() < 1e-10
    # blocks are transposed effects over the dimension
    want = sharp_x.effects[0].T / 2
    assert np.abs(asm.blocks[0, 0] - want).max() < 1e-10


def test_assemblage_validators():
    good = np.zeros((1, 2, 2, 2), dtype=complex)
    good[0, 0] = np.diag([0.5, 0.0])
    good[0, 1] = np.diag([0.0, 0.5])
    q.Assemblage(good)
    bad = good.copy()
    bad[0, 0] = np.array([[0.5, 0.4], [0.1, 0.0]])  # not hermitian
    with pytest.raises(ValueError):
        q.Assemblage(bad)
    neg = good.copy()
    neg[0, 0] = np.diag([0.6, -0.1])
    with pytest.raises(ValueError):
        q.Assemblage(neg)
    uneven = np.zeros((2, 2, 2, 2), dtype=complex)
    uneven[0] = good[0]
    uneven[1, 0] = np.diag([0.25, 0.25])
    uneven[1, 1] = np.diag([0.25, 0.15])  # totals disagree across settings
    with pytest.raises(ValueError):
        q.Assemblage(uneven)


# --- local hidden state models -----------------------------------------------

def test_deterministic_strategies():
    strat = q.deterministic_strategies(2, 3)
    assert strat.shape == (9, 2)
    assert len({tuple(r) for r in strat}) == 9
    assert strat.min() == 0 and strat.max() == 2
    # the rows are the product tuples, in order: the points of the outcome grid
    for settings, outcomes in [(1, 4), (3, 2), (6, 3)]:
        want = list(itertools.product(range(outcomes), repeat=settings))
        assert q.deterministic_strategies(settings, outcomes).tolist() == [list(t) for t in want]


def test_unsteerable_assemblage(sharp_x, sharp_z):
    asm = q.max_entangled_assemblage([noisy(sharp_x, 0.6), noisy(sharp_z, 0.6)])
    res = q.check_lhs(asm)
    assert res.feasible
    model = res.joint
    assert model is not None
    assert model.reproduces(asm)


def loop_deviation(model, asm):
    # the per-(setting, outcome) selection the one-hot sum replaced, as a reference
    return max(np.abs(model.states[model.strategies[:, j] == x].sum(axis=0) - asm.blocks[j, x]).max()
               for j in range(asm.n_settings) for x in range(asm.n_outcomes))


def test_reproduces_equals_selection_loop(sharp_x, sharp_y, sharp_z, rng):
    asm = q.max_entangled_assemblage([noisy(o, 0.5) for o in (sharp_x, sharp_y, sharp_z)])
    model = q.check_lhs(asm).joint
    # any strategy order; and every state bumped so that each selected sum is
    # off by half or twice atol = 1e-7
    order = rng.permutation(len(model.strategies))
    shuffled = q.LhsModel(model.states[order], model.strategies[order])
    assert shuffled.reproduces(asm) and loop_deviation(shuffled, asm) <= 1e-7
    per_fibre = len(order) // asm.n_outcomes
    for scale, want in ((0.5, True), (2.0, False)):
        bumped = q.LhsModel(model.states + scale * 1e-7 / per_fibre * np.eye(2), model.strategies)
        assert bumped.reproduces(asm) == want == (loop_deviation(bumped, asm) <= 1e-7)


def test_lhs_states_are_projected_witness_blocks(sharp_x, sharp_y, sharp_z):
    # one stacked projection gives each strategy's state as projected alone
    res = q.check_lhs(q.max_entangled_assemblage([noisy(o, 0.5) for o in (sharp_x, sharp_y, sharp_z)]))
    assert res.feasible
    grid = res.solve.witness["g"]  # strategy k is the kth point of the (2, 2, 2) outcome grid
    assert grid.shape == (2, 2, 2, 2, 2)
    want = np.stack([la.psd_project(block) for block in grid.reshape(-1, 2, 2)])
    assert len(want) == len(res.joint.strategies)
    assert np.abs(res.joint.states - want).max() < 1e-12


def test_steerable_assemblage(sharp_x, sharp_z):
    asm = q.max_entangled_assemblage([noisy(sharp_x, 0.8), noisy(sharp_z, 0.8)])
    res = q.check_lhs(asm)
    assert not res.feasible


def test_three_setting_threshold(sharp_x, sharp_y, sharp_z):
    trip = [sharp_x, sharp_y, sharp_z]
    below = [noisy(o, 0.55) for o in trip]
    above = [noisy(o, 0.62) for o in trip]
    assert q.check_lhs(q.max_entangled_assemblage(below)).feasible
    assert not q.check_lhs(q.max_entangled_assemblage(above)).feasible


def test_strategy_cap():
    blocks = np.zeros((13, 2, 2, 2), dtype=complex)
    blocks[:, 0] = np.eye(2) / 4
    blocks[:, 1] = np.eye(2) / 4
    asm = q.Assemblage(blocks)
    with pytest.raises(ValueError):
        q.check_lhs(asm)


# --- connection to joint measurability ---------------------------------------

def test_crosscheck_agrees(sharp_x, sharp_z, rng):
    for lam in (0.5, 0.9):
        rep = q.steering_jm_crosscheck([noisy(sharp_x, lam), noisy(sharp_z, lam)])
        assert rep.agree
        assert rep.lhs.feasible == rep.joint.feasible
    for _ in range(3):
        pair = [noisy(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0))
                for _ in range(2)]
        assert q.steering_jm_crosscheck(pair).agree
