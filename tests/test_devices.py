import re

import numpy as np
import pytest

import qincompat as q
import qincompat.linalg as la
from conftest import rand_herm


# --- validators --------------------------------------------------------------

def test_state_validators():
    with pytest.raises(ValueError):
        q.State(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        q.State(np.diag([0.7, 0.7]))
    s = q.State(np.diag([0.25, 0.75]))
    assert s.dim == 2


def test_observable_validators():
    with pytest.raises(ValueError):
        q.Observable(np.stack([np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])]))
    with pytest.raises(ValueError):  # effects do not sum to identity
        q.Observable(np.stack([np.eye(2) * 0.4, np.eye(2) * 0.4]))
    obs = q.Observable(np.stack([np.eye(2) * 0.4, np.eye(2) * 0.6]), outcomes=("a", "b"))
    assert obs.outcomes == ("a", "b")
    assert obs.n_outcomes == 2


def _effects_negative_at_two():
    effects = np.stack([np.diag([0.5, 0.3]), np.diag([0.3, 0.3]), np.diag([-0.1, 0.2]),
                        np.diag([0.3, 0.2])])
    lo = la.eig_hermitian(effects[2]).values[0]
    return effects, f"(min eig {lo:.3e})"


def test_observable_names_first_non_positive_effect():
    effects, min_eig = _effects_negative_at_two()
    with pytest.raises(ValueError, match=re.escape(f"effect 2 not positive {min_eig}")):
        q.Observable(effects)


def test_instrument_names_first_non_positive_operation():
    # maps to a one-dimensional output: the Choi blocks are the effects
    effects, min_eig = _effects_negative_at_two()
    with pytest.raises(ValueError, match=re.escape(f"operation 2 is not completely positive {min_eig}")):
        q.Instrument(effects, in_dim=2, out_dim=1)


def test_channel_validators(rng):
    with pytest.raises(ValueError):  # not trace preserving
        q.Channel(np.stack([np.eye(2) * 0.5]))
    c = q.random_channel(2, 3, rng)
    assert (c.in_dim, c.out_dim) == (2, 3)
    rho = q.random_state(2, rng).matrix
    out = c.apply(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


def test_stochastic_matrix():
    with pytest.raises(ValueError):
        q.StochasticMatrix(np.array([[0.5, 0.2], [0.4, 0.8]]))
    st = q.StochasticMatrix(np.array([[0.6, 0.2], [0.4, 0.8]]))
    assert st.n_in == 2


# --- observable constructions ------------------------------------------------

def test_sharp_observable_projective():
    obs = q.sharp_observable(np.eye(3))
    for e in obs.effects:
        assert np.abs(e @ e - e).max() < 1e-12
    with pytest.raises(ValueError):
        q.sharp_observable(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_mub_qubit_unbiased(mub3):
    for i in range(3):
        for j in range(i + 1, 3):
            for a in mub3[i].effects:
                for b in mub3[j].effects:
                    assert np.trace(a @ b).real == pytest.approx(0.5, abs=1e-12)


def test_fourier_pair_unbiased():
    for d in (2, 3, 5):
        qd, pd = q.fourier_pair(d)
        for a in qd.effects:
            for b in pd.effects:
                assert np.trace(a @ b).real == pytest.approx(1.0 / d, abs=1e-12)


def test_trivial_observable():
    t = q.trivial_observable([0.25, 0.75], 3)
    assert q.is_trivial(t)
    assert np.abs(t.effects[0] - 0.25 * np.eye(3)).max() < 1e-12
    assert not q.is_trivial(q.sharp_observable(np.eye(2)))


def test_mix_with_trivial(sharp_z):
    noisy = q.mix_with_trivial(sharp_z, 0.6)
    want = 0.6 * sharp_z.effects[0] + 0.4 * 0.5 * np.eye(2)
    assert np.abs(noisy.effects[0] - want).max() < 1e-12
    biased = q.mix_with_trivial(sharp_z, 0.6, probs=[1.0, 0.0])
    assert np.trace(biased.effects[0]).real == pytest.approx(0.6 + 0.8)


def test_post_process_relabel_binarize(rng):
    obs = q.random_povm(2, 3, rng)
    st = q.StochasticMatrix(np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]))
    coarse = q.post_process(obs, st)
    want = obs.effects[0] + 0.5 * obs.effects[1]
    assert np.abs(coarse.effects[0] - want).max() < 1e-12

    rel = q.relabel(obs, [2, 0, 1])
    assert np.abs(rel.effects[0] - obs.effects[2]).max() == 0.0

    b = q.binarize(obs, [0, 2])
    assert b.outcomes == ("yes", "no")
    assert np.abs(b.effects[0] - obs.effects[0] - obs.effects[2]).max() < 1e-12


def test_transpose_observable_involution(rng):
    obs = q.random_povm(3, 4, rng)
    t = q.transpose_observable(obs)
    assert np.abs(t.effects[1] - obs.effects[1].T).max() < 1e-12
    assert np.abs(q.transpose_observable(t).effects - obs.effects).max() < 1e-12


def test_naimark_dilate(rng):
    obs = q.random_povm(2, 3, rng)
    dil = q.naimark_dilate(obs)
    v = dil.isometry
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-9
    assert np.abs(dil.reproduce_effects() - obs.effects).max() < 1e-9


# --- channels ----------------------------------------------------------------

def test_kraus_choi_round_trip(rng):
    c = q.random_channel(3, 2, rng)
    j = c.choi()
    # trace over the output factor gives the input identity
    marg = la.partial_trace(j, [3, 2], keep=[0])
    assert np.abs(marg - np.eye(3)).max() < 1e-10
    back = q.Channel.from_choi(j, 3, 2)
    assert np.abs(back.choi() - j).max() < 1e-9


def test_apply_channel_matches_choi(rng):
    c = q.random_channel(2, 4, rng)
    rho = q.random_state(2, rng).matrix
    direct = sum(k @ rho @ k.conj().T for k in c.kraus)
    assert np.abs(c.apply(rho) - direct).max() < 1e-12
    assert np.abs(q.apply_channel(c, rho) - direct).max() < 1e-12


def test_choi_compose(rng):
    c1 = q.random_channel(2, 3, rng)
    c2 = q.random_channel(3, 2, rng)
    j = q.choi_compose(c1.choi(), c2.choi(), 2, 3, 2)
    rho = q.random_state(2, rng).matrix
    want = c2.apply(c1.apply(rho))
    got = q.apply_channel(j, rho, 2, 2)
    assert np.abs(got - want).max() < 1e-10


def test_tensor_channel(rng):
    a = q.random_channel(2, 2, rng)
    b = q.random_channel(2, 3, rng)
    t = q.tensor_channel(a, b)
    ra, rb = q.random_state(2, rng).matrix, q.random_state(2, rng).matrix
    got = t.apply(np.kron(ra, rb))
    want = np.kron(a.apply(ra), b.apply(rb))
    assert np.abs(got - want).max() < 1e-10


def test_named_channels(rng):
    rho = q.random_state(2, rng).matrix
    assert np.abs(q.identity_channel(2).apply(rho) - rho).max() < 1e-12

    xi = q.random_state(2, rng)
    const = q.constant_channel(xi, 2)
    assert np.abs(const.apply(rho) - xi.matrix).max() < 1e-12

    dep = q.depolarizing_channel(2)
    assert np.abs(dep.apply(rho) - np.eye(2) / 2).max() < 1e-10

    dz = q.diag_channel(dim=2)
    assert np.abs(dz.apply(rho) - np.diag(np.diag(rho))).max() < 1e-10

    u = q.random_unitary(2, rng)
    uc = q.unitary_channel(u)
    assert np.abs(uc.apply(rho) - u @ rho @ u.conj().T).max() < 1e-12


def test_conjugate_channel_dims(rng):
    c = q.random_channel(2, 3, rng, kraus_rank=4)
    cc = q.conjugate_channel(c)
    assert (cc.in_dim, cc.out_dim) == (2, 4)
    # the conjugate output diagonal holds the Kraus weights
    rho = q.random_state(2, rng).matrix
    out = cc.apply(rho)
    for i, k in enumerate(c.kraus):
        assert out[i, i].real == pytest.approx(np.trace(k @ rho @ k.conj().T).real, abs=1e-10)


def test_selfconjugate_construction():
    pair = q.ctrl_unitary_selfconjugate(2)
    dev = np.abs(pair.channel_a.choi() - pair.channel_b.choi()).max()
    assert dev < 1e-10


def test_werner_cloner_tp(rng):
    cl = q.werner_cloner(2, 2)
    rho = q.random_state(2, rng).matrix
    out = cl.apply(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)
    # both clone marginals coincide by symmetry
    m0 = la.partial_trace(out, [2, 2], keep=[0])
    m1 = la.partial_trace(out, [2, 2], keep=[1])
    assert np.abs(m0 - m1).max() < 1e-9


def _root(e):
    vals, vecs = la.eig_hermitian(e)
    return (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T


def test_instrument(rng):
    obs = q.random_povm(2, 3, rng)
    families = [_root(e)[None] for e in obs.effects]
    inst = q.Instrument.from_kraus_ops(families)
    ind = inst.induced_observable()
    assert np.abs(ind.effects - obs.effects).max() < 1e-9
    total = inst.total_channel()
    rho = q.random_state(2, rng).matrix
    assert np.trace(total.apply(rho)).real == pytest.approx(1.0, abs=1e-9)


def test_instrument_refuses_mismatched_outcome_labels(rng):
    # as Observable does: two operations with one label raise at construction
    blocks = q.Instrument.from_kraus_ops([_root(e)[None] for e in q.random_povm(2, 2, rng).effects]).choi_blocks
    with pytest.raises(ValueError, match="outcome labels"):
        q.Instrument(blocks, 2, 2, outcomes=("a",))
    assert q.Instrument(blocks, 2, 2, outcomes=("a", "b")).outcomes == ("a", "b")


def test_induced_observable_traces_each_block(rng):
    # one stacked partial trace gives the per-block loop's effects, bit for bit
    weights = (0.25, 0.75)
    inst = q.Instrument.from_kraus_ops(
        [q.random_channel(3, 2, rng).kraus * np.sqrt(w) for w in weights])
    want = np.stack([la.partial_trace(b, [3, 2], keep=[0]).T for b in inst.choi_blocks])
    assert np.array_equal(inst.induced_observable().effects, q.Observable(want).effects)


def test_random_generators(rng):
    obs = q.random_povm(3, 5, rng)
    assert np.abs(obs.effects.sum(axis=0) - np.eye(3)).max() < 1e-10
    u = q.random_unitary(4, rng)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10
    s = q.random_state(3, rng, rank=1)
    vals = la.eig_hermitian(s.matrix)[0]
    assert vals[-2] < 1e-10
