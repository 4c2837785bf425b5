import numpy as np
import pytest

import qincompat.linalg as la
from conftest import rand_herm
from qincompat.config import DEFAULT_TOLS
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
