import numpy as np
import pytest

import qincompat as q
from conftest import pair_problem
from qincompat import sdpcore
from qincompat import linalg as la
from qincompat.config import DEFAULT_TOLS, Tolerances
from qincompat.sdpcore import Verdict


def partial_depolarizing(lam, dim=2):
    ident = q.identity_channel(dim)
    depol = q.depolarizing_channel(dim)
    choi = lam * ident.choi() + (1 - lam) * depol.choi()
    return q.Channel.from_choi(choi, dim, dim)


def choi_marginal(joint, dims, drop):
    keep = [0] + [k for k in (1, 2) if k != drop]
    return la.partial_trace(joint.choi(), dims, keep=keep)


@pytest.fixture
def ident():
    return q.identity_channel(2)


# --- pair compatibility ------------------------------------------------------

def test_identity_not_selfcompatible(ident):
    res = q.check_channel_pair(ident, ident)
    assert res.solve.verdict is Verdict.INFEASIBLE_CERTIFIED


def test_identity_with_constant(ident):
    depol = q.depolarizing_channel(2)
    res = q.check_channel_pair(ident, depol)
    assert res.feasible
    joint = res.joint
    assert joint is not None
    dims = (2, 2, 2)
    assert np.abs(choi_marginal(joint, dims, drop=2) - ident.choi()).max() < 1e-6
    assert np.abs(choi_marginal(joint, dims, drop=1) - depol.choi()).max() < 1e-6


def test_two_diag_channels():
    dz = q.diag_channel(dim=2)
    dx = q.diag_channel(basis=np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert q.check_channel_pair(dz, dz).feasible
    assert not q.check_channel_pair(dz, dx).feasible


def test_classical_broadcast(ident):
    # classical states survive copying even though identity self-pairing fails
    dz = q.diag_channel(dim=2)
    joint = q.check_channel_pair(dz, dz).joint
    for vec in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        state = np.outer(vec, vec)
        out = joint.apply(state)
        for keep in ([0], [1]):
            red = la.partial_trace(out, [2, 2], keep=keep)
            assert np.abs(red - state).max() < 1e-6


def test_broadcastable_states():
    z0 = np.diag([1.0, 0.0])
    z1 = np.diag([0.0, 1.0])
    plus = np.full((2, 2), 0.5)
    assert q.broadcastable_states([q.State(z0), q.State(z1)])
    assert not q.broadcastable_states([q.State(z0), q.State(plus)])


# --- division ----------------------------------------------------------------

def test_channel_division_positive():
    depol = partial_depolarizing(0.5)
    post = partial_depolarizing(0.6)
    composed = q.Channel.from_choi(
        q.choi_compose(depol.choi(), post.choi(), 2, 2, 2), 2, 2)
    rep = q.channel_division(composed, depol)
    assert rep.below
    assert rep.factor is not None
    redone = q.choi_compose(depol.choi(), rep.factor.choi(), 2, 2, 2)
    assert np.abs(redone - composed.choi()).max() < 1e-6


def test_channel_division_negative(ident):
    rep = q.channel_division(ident, partial_depolarizing(0.5))
    assert not rep.below
    assert rep.factor is None


def test_channel_division_reports_undecided_solve():
    # a pair that divides under the default tolerances, with the solve cut
    # short: the report says undecided instead of a bare "not below"
    depol = partial_depolarizing(0.5)
    composed = q.Channel.from_choi(
        q.choi_compose(depol.choi(), partial_depolarizing(0.6).choi(), 2, 2, 2), 2, 2)
    assert q.channel_division(composed, depol).verdict is Verdict.FEASIBLE
    rep = q.channel_division(composed, depol, Tolerances(feas=1e-18, max_iter=20))
    assert rep.verdict is Verdict.UNDECIDED
    assert not rep.below
    assert rep.factor is None
    assert rep.solve.iterations == 20
    # the conjugate check still answers with a plain bool
    assert q.conjugate_compat_check(depol, depol) is True


def test_division_reflexive(rng):
    chan = q.random_channel(2, 2, rng)
    assert q.channel_division(chan, chan).below


def test_division_reflexive_nearly_depolarizing():
    # identity weight 3e-8: nine Pauli-product directions of the constraint
    # matrix have singular values of that order, which the affine set must keep
    chan = partial_depolarizing(3e-8)
    rep = q.channel_division(chan, chan)
    assert rep.below
    assert rep.residual < 1e-6


# --- conjugates --------------------------------------------------------------

def test_conjugate_pair_compatible(rng):
    for chan in [q.identity_channel(2), partial_depolarizing(0.5),
                 q.diag_channel(dim=2), q.random_channel(2, 2, rng),
                 q.random_channel(3, 2, rng)]:
        conj = q.conjugate_channel(chan)
        assert q.check_channel_pair(chan, conj).feasible
        assert q.conjugate_compat_check(chan, conj)


def test_conjugate_dims(rng):
    chan = q.random_channel(3, 2, rng)
    conj = q.conjugate_channel(chan)
    assert conj.in_dim == 3
    assert conj.out_dim == chan.kraus.shape[0]


def test_selfconjugate_control_unitary():
    for d in (2, 3):
        pair = q.ctrl_unitary_selfconjugate(d)
        assert np.abs(pair.channel_a.choi() - pair.channel_b.choi()).max() < 1e-10
        assert q.check_channel_pair(pair.channel_a, pair.channel_b).feasible


# --- robustness --------------------------------------------------------------

def _robustness_search(device_a, device_b, mode, tols=None):
    return sdpcore.threshold_search(lambda lam: pair_problem(device_a, device_b, mode, lam), tols)


def test_robustness_mode_ordering(ident):
    # each class's certified-feasible value lies below the certified upper
    # end of the next larger class
    tols = q.Tolerances(bisect_tol=5e-3)
    trivial, compatible, arbitrary = (
        _robustness_search(ident, ident, mode, tols)
        for mode in (q.NoiseClass.TRIVIAL_NOISE, q.NoiseClass.COMPATIBLE_NOISE, q.NoiseClass.ARBITRARY_NOISE))
    assert trivial.value <= compatible.upper.at
    assert compatible.value <= arbitrary.upper.at
    assert compatible.value == q.robustness(ident, ident, q.NoiseClass.COMPATIBLE_NOISE, tols=tols)


def test_robustness_identity_pair(ident):
    val = q.robustness(ident, ident, q.NoiseClass.ARBITRARY_NOISE)
    assert val == pytest.approx(0.75, abs=1e-2)


def test_robustness_search_is_warm_started(monkeypatch, ident):
    # a cold start spends about 21,000 iterations on a probe at 0.8535;
    # starting each probe from the last feasible iterate cuts the whole search
    counts = {"solves": 0, "iterations": 0}
    solve = sdpcore.solve_feasibility

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        counts["solves"] += 1
        counts["iterations"] += res.iterations
        return res

    monkeypatch.setattr(sdpcore, "solve_feasibility", counted)
    val = q.robustness(q.diag_channel(dim=2), ident, q.NoiseClass.ARBITRARY_NOISE)
    assert abs(val - 0.853515625) <= DEFAULT_TOLS.bisect_tol
    assert counts["solves"] > 0
    assert counts["iterations"] < 2000
    search = _robustness_search(q.diag_channel(dim=2), ident, q.NoiseClass.ARBITRARY_NOISE)
    assert search.value == val and 0.853515625 <= search.upper.at


def test_channel_pair_maps_skip_partial_trace_probes(monkeypatch):
    # no-cloning at d=4: the two (256 x 4096) margin maps are index sums, not
    # probes of la.partial_trace on 2 x 4096 basis matrices
    calls = {"n": 0}
    ptrace = la.partial_trace

    def counted(*args, **kwargs):
        calls["n"] += 1
        return ptrace(*args, **kwargs)

    monkeypatch.setattr(la, "partial_trace", counted)
    ident4 = q.identity_channel(4)
    res = q.check_channel_pair(ident4, ident4)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert calls["n"] < 100


@pytest.mark.parametrize("din,dmid,dout", [(2, 2, 2), (2, 4, 2), (3, 3, 3), (3, 2, 3), (2, 3, 4)])
def test_compose_map_equals_probed_map(rng, din, dmid, dout):
    # the map built from its adjoint equals the probed forward map of
    # choi_compose, up to the summation order
    j = q.random_channel(din, dmid, rng).choi()
    got = sdpcore._compose_map(j, din, dmid, dout)
    want = sdpcore.real_linear_map(lambda h: q.choi_compose(j, h, din, dmid, dout), dmid * dout, din * dout)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-13


def test_channel_pair_maps_are_cached_by_shape(monkeypatch, ident):
    # a second pair of the same dimensions probes no map either: its margins are index sums
    q.check_channel_pair(ident, ident)
    calls = {"n": 0}
    probe = sdpcore.real_linear_map

    def counted(*args, **kwargs):
        calls["n"] += 1
        return probe(*args, **kwargs)

    monkeypatch.setattr(sdpcore, "real_linear_map", counted)
    q.check_channel_pair(q.diag_channel(dim=2), ident)
    assert calls["n"] == 0


def test_robustness_compatible_pair_is_one():
    dz = q.diag_channel(dim=2)
    val = q.robustness(dz, dz, q.NoiseClass.ARBITRARY_NOISE)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("mode, value", [
    (q.NoiseClass.TRIVIAL_NOISE, 0.66650390625),
    (q.NoiseClass.COMPATIBLE_NOISE, 0.828125),
    (q.NoiseClass.ARBITRARY_NOISE, 0.853515625),
], ids=["TRIVIAL_NOISE", "COMPATIBLE_NOISE", "ARBITRARY_NOISE"])
def test_robustness_obs_channel(sharp_z, mode, value):
    # ``value`` is the certified-feasible dyadic point of plain bisection
    got = q.robustness(sharp_z, q.identity_channel(2), mode)
    assert abs(got - value) <= DEFAULT_TOLS.bisect_tol
    search = _robustness_search(sharp_z, q.identity_channel(2), mode)
    assert search.value == got and value <= search.upper.at


def test_robustness_dim_mismatch(ident):
    with pytest.raises(ValueError):
        q.robustness(ident, q.identity_channel(3))
    with pytest.raises(TypeError):
        q.robustness(ident, q.State(np.eye(2) / 2))
    with pytest.raises(ValueError):
        q.robustness(ident, ident, None)


# --- marginal problem for states ---------------------------------------------

def test_state_marginal_monogamy():
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    ent = np.outer(vec, vec)
    rep = q.state_marginal_feasible(ent, ent, (2, 2, 2))
    assert not rep.feasible


def test_state_marginal_product():
    half = np.eye(2) / 2
    prod = np.kron(half, half)
    rep = q.state_marginal_feasible(prod, prod, (2, 2, 2))
    assert rep.feasible
    omega = rep.joint
    assert omega is not None
    red_ab = la.partial_trace(omega.matrix, [2, 2, 2], keep=[0, 1])
    assert np.abs(red_ab - prod).max() < 1e-6


@pytest.mark.parametrize("rho_ab,rho_bc,dims,message", [
    (np.eye(4) / 4, np.eye(2) / 2, (2, 2, 2), r"rho_bc has shape \(2, 2\), expected \(4, 4\)"),
    (np.eye(2) / 2, np.eye(4) / 4, (2, 2, 2), r"rho_ab has shape \(2, 2\), expected \(4, 4\)"),
    (np.eye(6) / 6, np.eye(4) / 4, (2, 3, 2), r"rho_bc has shape \(4, 4\), expected \(6, 6\)"),
    (np.eye(4) / 4, np.full(4, 0.25), (2, 2, 2), r"rho_bc has shape \(4,\), expected \(4, 4\)"),
])
def test_state_marginal_shapes_are_checked(rho_ab, rho_bc, dims, message):
    with pytest.raises(ValueError, match=message):
        q.state_marginal_feasible(rho_ab, rho_bc, dims)


def test_state_marginal_shared_mismatch():
    # B marginals disagree, so infeasibility is certified without iterating
    z0 = np.diag([1.0, 0.0])
    rho_ab = np.kron(np.eye(2) / 2, z0)
    rho_bc = np.eye(4) / 4
    rep = q.state_marginal_feasible(rho_ab, rho_bc, (2, 2, 2))
    assert rep.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert rep.solve.iterations == 0
