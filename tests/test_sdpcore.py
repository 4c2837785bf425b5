import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qincompat.linalg as la
from conftest import rand_herm
from qincompat.config import DEFAULT_TOLS
from qincompat.devices import mix_with_trivial, random_povm
from qincompat.obscompat import _joint_problem, check_joint
from qincompat.sdpcore import (SdpProblem, Verdict, _Projector, bisect_threshold,
                               real_linear_map, solve_feasibility, vec_of,
                               verify_witness)


def rand_psd(rng, d, trace=None):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    p = a @ a.conj().T
    if trace is not None:
        p *= trace / np.trace(p).real
    return p


# --- problem assembly --------------------------------------------------------

def test_real_linear_map(rng):
    # the coefficient matrix reproduces the map on arbitrary Hermitian input
    m = real_linear_map(lambda h: la.partial_trace(h, [2, 3], keep=[0]), 6, 2)
    h = rand_herm(rng, 6)
    got = m @ la.hermitian_to_real_vec(h)
    want = la.hermitian_to_real_vec(la.partial_trace(h, [2, 3], keep=[0]))
    assert np.abs(got - want).max() < 1e-12


def test_cone_cap_projection_matches_sorted_reference(rng):
    # the trace-cap projection of the spectrum, written with an explicit sort
    def ref_cone(vec, dim, cap):
        vals, vecs = np.linalg.eigh(la.real_vec_to_hermitian(vec, dim))
        w = np.clip(vals, 0.0, None)
        if w.sum() > cap:
            srt = np.sort(vals)[::-1]
            theta_j = (np.cumsum(srt) - cap) / np.arange(1, dim + 1)
            theta = theta_j[np.sum(srt > theta_j) - 1]
            w = np.clip(vals - theta, 0.0, None)
        return la.hermitian_to_real_vec((vecs * w) @ vecs.conj().T)

    prob = SdpProblem()
    blocks = [("a", 3, 1.0), ("b", 3, 50.0), ("c", 3, 0.5), ("d", 2, 1.0), ("e", 4, 2.0)]
    for name, dim, cap in blocks:
        prob.add_psd_block(name, dim, trace_cap=cap)
    mats = {
        "a": 3.0 * rand_psd(rng, 3),
        "b": rand_herm(rng, 3),                 # under the cap
        "c": np.diag([2.0, 2.0, -1.0]),         # tied eigenvalues over the cap
        "d": 4.0 * rand_psd(rng, 2) - np.eye(2),
        "e": 5.0 * rand_herm(rng, 4),
    }
    x = np.concatenate([la.hermitian_to_real_vec(mats[name]) for name, _, _ in blocks])
    z = _Projector(prob).cone(x)
    for name, dim, cap in blocks:
        blk = prob.block(name)
        got = z[blk.offset : blk.offset + blk.length]
        assert np.abs(got - ref_cone(x[blk.offset : blk.offset + blk.length], dim, cap)).max() < 1e-12
        herm = la.real_vec_to_hermitian(got, dim)
        assert np.trace(herm).real <= cap + 1e-12
        assert np.linalg.eigvalsh(herm)[0] >= -1e-12


def test_assemble_split(rng):
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_scalar_block("p", 2, cap=1.0)
    prob.add_matrix_equality({"x": 1.0}, np.eye(3) / 3)
    a, b = prob.assemble()
    assert a.shape[1] == prob.n_vars == 9 + 2
    parts = prob.split(np.arange(prob.n_vars, dtype=float))
    assert parts["x"].shape == (3, 3)
    assert parts["p"].shape == (2,)
    with pytest.raises(ValueError):
        prob.add_psd_block("x", 2, 1.0)  # duplicate name


# --- basic verdicts ----------------------------------------------------------

def test_feasible_pinned_block(rng):
    target = rand_psd(rng, 3, trace=1.5)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_matrix_equality({"x": 1.0}, target)
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.FEASIBLE
    assert np.abs(res.witness["x"] - target).max() < 1e-6


def test_infeasible_inconsistent_rows():
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    row = vec_of(np.eye(2))[None, :]
    prob.add_equality({"x": row}, np.array([1.0]))
    prob.add_equality({"x": row.copy()}, np.array([1.5]))
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert res.iterations == 0  # caught before iterating


def test_infeasible_cone_separated(rng):
    # affine set is a single non positive matrix; certificate must validate
    m = rand_herm(rng, 3)
    m -= (la.min_eig(m) + 0.4) * np.eye(3)
    assert la.min_eig(m) == pytest.approx(-0.4, abs=1e-12)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=10.0)
    prob.add_matrix_equality({"x": 1.0}, m)
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert res.certificate is not None
    # separation: the affine value sits strictly below the cone infimum
    assert res.certificate.gap < 0
    assert res.certificate.gap == pytest.approx(-0.4, abs=1e-6)


def test_scalar_cap_infeasible():
    prob = SdpProblem()
    prob.add_scalar_block("p", 2, cap=1.0)
    row = np.ones((1, 2))
    prob.add_equality({"p": row}, np.array([3.0]))
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED


def test_mixed_blocks_feasible(rng):
    # psd block coupled to scalars through one affine row
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=1.0)
    prob.add_scalar_block("p", 2, cap=1.0)
    prob.add_equality({"p": np.ones((1, 2))}, np.array([1.0]))
    row = vec_of(np.eye(2))[None, :]
    prob.add_equality({"x": row, "p": -np.ones((1, 2))}, np.array([0.0]))
    res = solve_feasibility(prob)
    assert res.feasible
    assert res.witness["p"].sum() == pytest.approx(1.0, abs=1e-6)
    assert np.trace(res.witness["x"]).real == pytest.approx(1.0, abs=1e-6)


# --- randomized battery ------------------------------------------------------

def test_random_feasible_instances():
    rng = np.random.default_rng(77)
    for trial in range(25):
        d = int(rng.integers(2, 5))
        x_star = rand_psd(rng, d, trace=float(rng.uniform(0.5, 2.0)))
        prob = SdpProblem()
        prob.add_psd_block("x", d, trace_cap=3.0)
        rows = rng.normal(size=(3, d * d))
        prob.add_equality({"x": rows}, rows @ la.hermitian_to_real_vec(x_star))
        res = solve_feasibility(prob)
        assert res.feasible, f"trial {trial}: {res.verdict} {res.message}"
        ok, report = verify_witness(prob, res.witness, DEFAULT_TOLS)
        assert ok, report


def test_random_infeasible_instances():
    rng = np.random.default_rng(88)
    for trial in range(25):
        d = int(rng.integers(2, 5))
        m = rand_herm(rng, d)
        m -= (la.min_eig(m) + rng.uniform(0.2, 1.0)) * np.eye(d)
        prob = SdpProblem()
        prob.add_psd_block("x", d, trace_cap=float(d))
        prob.add_matrix_equality({"x": 1.0}, m)
        res = solve_feasibility(prob)
        assert res.verdict is Verdict.INFEASIBLE_CERTIFIED, f"trial {trial}: {res.verdict}"


def test_verify_witness_rejects_corruption(rng):
    target = rand_psd(rng, 3, trace=1.0)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_matrix_equality({"x": 1.0}, target)
    res = solve_feasibility(prob)
    bad = dict(res.witness)
    bad["x"] = bad["x"] + 0.1 * np.eye(3)
    ok, _ = verify_witness(prob, bad, DEFAULT_TOLS)
    assert not ok


# --- certificate schedule ----------------------------------------------------

def test_incompatible_pair_certified_early(sharp_x, sharp_z):
    res = check_joint([sharp_x, sharp_z])
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert res.solve.iterations < DEFAULT_TOLS.plateau_window
    # re-check the certificate from the problem data alone, no solver state
    prob, _, _ = _joint_problem([sharp_x, sharp_z], 2)
    a, b = prob.assemble()
    h = np.zeros(prob.n_vars)
    caps = 0.0
    cone_inf = 0.0
    for name, mat in res.solve.certificate.functional.items():
        blk = prob.block(name)
        h[blk.offset : blk.offset + blk.length] = la.hermitian_to_real_vec(mat)
        cone_inf += float(blk.cap) * min(float(np.linalg.eigvalsh(mat)[0]), 0.0)
        caps += float(blk.cap)
    # h = a^T y + h_null; on the affine set h @ x = y @ b + h_null @ x, and
    # |h_null @ x| <= |h_null| * caps on the capped PSD blocks
    y = np.linalg.lstsq(a.T, h, rcond=None)[0]
    h_null = float(np.linalg.norm(h - a.T @ y))
    assert h_null < 1e-9
    value = float(h @ np.linalg.lstsq(a, b, rcond=None)[0])
    assert value == pytest.approx(float(y @ b), abs=1e-9)
    assert cone_inf - value - h_null * caps > DEFAULT_TOLS.feas


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
       outcomes=st.integers(2, 3), frac=st.floats(0.0, 1.0))
def test_toss_compatible_families_never_certified(seed, n, outcomes, frac):
    # lam <= 1/n makes the family compatible through the coin-toss joint, so
    # an early certificate attempt must never validate; random noise
    # distributions keep most solves past iteration 1, where attempts start
    rng = np.random.default_rng(seed)
    lam = frac / n
    family = [mix_with_trivial(random_povm(2, outcomes, rng), lam,
                               probs=rng.dirichlet(np.ones(outcomes)))
              for _ in range(n)]
    prob, _, _ = _joint_problem(family, 2)
    res = solve_feasibility(prob)
    assert res.verdict is not Verdict.INFEASIBLE_CERTIFIED
    if res.verdict is Verdict.FEASIBLE:
        ok, report = verify_witness(prob, res.witness)
        assert ok, report


# --- bisection ---------------------------------------------------------------

def test_bisect_threshold_monotone():
    res = bisect_threshold(lambda lam: lam <= 0.63, tol=1e-4)
    assert res.value == pytest.approx(0.63, abs=1e-4)
    assert res.value <= 0.63  # feasible-side underestimate


def test_bisect_threshold_endpoints():
    res = bisect_threshold(lambda lam: True, tol=1e-4)
    assert res.value == 1.0
    assert len(res.history) == 1
    with pytest.raises(ValueError):  # infeasible at the lower bracket
        bisect_threshold(lambda lam: 0.4 < lam < 0.6, tol=1e-4)
    with pytest.raises(ValueError):
        bisect_threshold(lambda lam: True, tol=1e-4, lo=1.0, hi=0.0)
