import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qincompat as q
import qincompat.linalg as la
from conftest import (count_row_spaces, near_parallel_povm, pair_problem, rand_herm, recheck_functional,
                      joint_tester_problem)
from qincompat import chancompat, obschan, obscompat, process, sdpcore, steering
from qincompat.config import DEFAULT_TOLS
from qincompat.devices import mix_with_trivial, random_povm, random_state, sharp_observable
from qincompat.obscompat import check_joint
from qincompat.process import check_tester_pair, prepare_measure_tester
from qincompat.sdpcore import (Certificate, LowerEnd, SdpProblem, SolveResult, UpperEnd, Verdict, _components,
                               _Projector, bisect_threshold, joint_problem, joint_witness,
                               partial_trace_map, real_linear_map, solve_feasibility,
                               threshold_search, verify_witness)
from qincompat.steering import check_lhs, max_entangled_assemblage


# uniform noise has no outcomes to spread over on a channel's margin
CHANNEL_NOISE = (None, *(c for c in q.NoiseClass if c is not q.NoiseClass.UNIFORM_NOISE))


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
    assert m.T.flags.c_contiguous  # written as rows of the transpose


def basis_loop(fn, in_dim, out_dim):
    """The map's matrix from one call of ``fn`` per basis matrix: the reference."""
    n = in_dim * in_dim
    cols = np.empty((out_dim * out_dim, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols[:, i] = la.hermitian_to_real_vec(fn(la.real_vec_to_hermitian(e, in_dim)))
    return cols


def captured_map(monkeypatch, module, build):
    """``(fn, in_dim, out_dim)`` of the first map ``build()`` makes through ``module``."""
    seen = []

    def record(fn, in_dim, out_dim):
        seen.append((fn, in_dim, out_dim))
        return real_linear_map(fn, in_dim, out_dim)

    with monkeypatch.context() as patch:
        patch.setattr(module, "real_linear_map", record)
        build()
    return seen[0]


def compose_case(din, dmid, dout):
    def case(rng, monkeypatch):
        j = q.random_channel(din, dmid, rng).choi()
        return lambda h: q.choi_compose(j, h, din, dmid, dout), dmid * dout, din * dout
    return case


def heisenberg_case(rng, monkeypatch):
    x, _, z = q.mub_qubit()
    return captured_map(monkeypatch, sdpcore, lambda: obschan.sequential_recover(x, z))


def kron_case(rng, monkeypatch):
    et = q.random_povm(2, 2, rng).effects[0].T
    return lambda s: np.kron(et, s), 3, 6


@pytest.mark.parametrize("case", [
    compose_case(2, 2, 2), compose_case(2, 4, 2), compose_case(3, 3, 3), compose_case(3, 2, 3),
    heisenberg_case, kron_case,
], ids=["compose-2-2-2", "compose-2-4-2", "compose-3-3-3", "compose-3-2-3",
        "heisenberg", "kron"])
def test_real_linear_map_equals_basis_loop(rng, monkeypatch, case):
    # in_dim calls on stacks of in_dim basis matrices give the per-basis-matrix
    # loop's matrix, bit for bit
    fn, in_dim, out_dim = case(rng, monkeypatch)
    shapes = []

    def counted(h):
        shapes.append(h.shape)
        return fn(h)

    got = real_linear_map(counted, in_dim, out_dim)
    assert np.array_equal(got, basis_loop(fn, in_dim, out_dim))
    assert shapes == [(in_dim, in_dim, in_dim)] * in_dim


@pytest.mark.parametrize("dims,keep", [
    ((2, 3), (0,)), ((2, 3), (1,)), ((3, 2, 2), (1,)), ((2, 2, 3), (0, 2)),
    ((4, 4, 4), (0, 1)), ((4, 4, 4), (0, 2)), ((4, 4, 4), (1, 2)), ((4, 4, 4), (0,)),
    ((2, 3, 2), (2, 0, 0)), ((2, 3, 2), (0, 1, 2)), ((3,), ()), ((2, 3), ()),
])
def test_partial_trace_map_equals_probed_map(dims, keep):
    # the index-sum triplets, densified, are the probed partial trace, bit for bit
    total = int(np.prod(dims))
    kept = int(np.prod([dims[k] for k in set(keep)]))
    want = real_linear_map(lambda h: la.partial_trace(h, dims, keep), total, kept)
    r, c, v = partial_trace_map(dims, keep)
    got = np.zeros(want.shape)
    got[r, c] = v
    assert np.array_equal(got, want) and np.all(v == 1.0)
    assert np.unique(r * want.shape[1] + c).size == r.size  # no two entries at one place


@pytest.mark.parametrize("keep", [(2,), (-1,), (0, 3)])
def test_partial_trace_map_rejects_bad_keep(keep):
    with pytest.raises(ValueError):
        la.partial_trace(np.eye(6), (2, 3), keep)
    with pytest.raises(ValueError):
        partial_trace_map((2, 3), keep)


def test_partial_trace_map_equal_keys_give_equal_triplets():
    # equal keys, however written, give equal triplets
    want = partial_trace_map((2, 3, 2), (1, 0, 0))
    for got in (partial_trace_map([2, 3, 2], [0, 1]), partial_trace_map(np.array([2, 3, 2]), (np.int64(0), 1))):
        assert all(map(np.array_equal, got, want))


@pytest.mark.parametrize("dims,keep", [((2, 3), (1,)), ((2, 2, 3), (0, 2)), ((4, 4, 4), (0, 1))])
def test_partial_trace_map_is_row_major(dims, keep):
    # the triplets come sorted by row, and within a row by column
    r, c, _ = partial_trace_map(dims, keep)
    assert np.all(np.diff(r) >= 0) and np.all((np.diff(r) > 0) | (np.diff(c) > 0))


def ref_cone(vec, dim, cap):
    """The trace-cap projection of the spectrum, written with an explicit sort."""
    vals, vecs = np.linalg.eigh(la.real_vec_to_hermitian(vec, dim))
    w = np.clip(vals, 0.0, None)
    if w.sum() > cap:
        srt = np.sort(vals)[::-1]
        theta_j = (np.cumsum(srt) - cap) / np.arange(1, dim + 1)
        theta = theta_j[np.sum(srt > theta_j) - 1]
        w = np.clip(vals - theta, 0.0, None)
    return la.hermitian_to_real_vec((vecs * w) @ vecs.conj().T)


def test_cone_cap_projection_matches_sorted_reference(rng):
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


# The eigenvalue rounding a certificate's bound allows per block of side d is
# 4 d eps |h| (see _Projector.rounding).  The 2 x 2 closed form meets 2.5 eps |h|
# (la.spectrum2), and LAPACK is taken to meet 4 d eps |h|, so the two paths lie
# within twice the allowance of each other.
EPS = np.finfo(float).eps
BLOCK2_TOL = 2 * 4 * 2 * EPS


def _blocks2(rng, n=40):
    """2 x 2 Hermitian blocks of each kind the closed form treats apart, and trace caps
    from a tenth to twice their norm, so that many are over their cap."""
    kinds = [
        [rand_herm(rng, 2) for _ in range(n)],
        [c * np.eye(2) for c in rng.normal(size=n)],  # r = 0
        [np.zeros((2, 2))] * 3,
        [np.outer(p, p.conj()) for p in rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))],  # rank one
        [-rand_psd(rng, 2) for _ in range(n)],  # negative definite
        [1e8 * rand_herm(rng, 2) for _ in range(n)],
        [1e-8 * rand_herm(rng, 2) for _ in range(n)],
    ]
    mats = np.array([m for kind in kinds for m in kind])
    norms = np.linalg.norm(mats, axis=(1, 2))
    return mats, rng.uniform(0.1, 2.0, len(mats)) * np.where(norms > 0, norms, 1.0)


def test_closed_form_2x2_kernels_match_eigh(rng):
    mats, caps = _blocks2(rng)
    vecs = la.hermitian_to_real_vec(mats)
    norms = np.linalg.norm(vecs, axis=1)
    tol = BLOCK2_TOL * norms
    vals = np.linalg.eigvalsh(mats)
    assert np.all(np.abs(la.min_eig(mats) - vals[:, 0]) <= tol)
    assert np.all(np.abs(la.hermitian_to_real_vec(la.psd_project(mats)) - [ref_cone(v, 2, np.inf) for v in vecs])
                  <= tol[:, None])
    prob = SdpProblem()
    for i, cap in enumerate(caps):
        prob.add_psd_block(f"b{i}", 2, trace_cap=cap)
    proj = _Projector(prob)
    assert sum(np.clip(vals, 0.0, None).sum(axis=1) > caps) > len(caps) // 4  # the cap is often active
    got = proj.cone(vecs.ravel()).reshape(-1, 4)
    assert np.all(np.abs(got - [ref_cone(v, 2, c) for v, c in zip(vecs, caps)]) <= tol[:, None])
    # the infimum adds one term per block, each within cap * tol, as the
    # certificate's (len(caps) + 4 d) eps bound has it
    want = float(np.sum(caps * np.minimum(vals[:, 0], 0.0)))
    assert abs(proj.cone_infimum(vecs.ravel()) - want) <= (len(caps) + 2 * 4 * 2) * EPS * np.sum(caps * norms)


@pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                    reason="needs a long double wider than a double")
def test_closed_form_2x2_error_bound(rng):
    # against the same formulas in long double: within 2.5 eps |v| of the exact
    # eigenvalues and projection, as la.spectrum2 states
    mats, caps = _blocks2(rng)
    vecs = la.hermitian_to_real_vec(mats)
    v, c = vecs.astype(np.longdouble), caps.astype(np.longdouble)
    m, h = (v[:, 0] + v[:, 1]) / 2, (v[:, 0] - v[:, 1]) / 2
    r = np.sqrt(h * h + (v[:, 2] ** 2 + v[:, 3] ** 2) / 2)
    lo, hi = np.maximum(m - r, 0), np.maximum(m + r, 0)
    over = lo + hi > c
    s = np.where(over, c / 2, (lo + hi) / 2)
    t = np.where(over, np.minimum(r, c / 2), (hi - lo) / 2)
    scale = np.where(r > 0, t / np.where(r > 0, r, 1), 0)
    exact = v * scale[:, None]
    exact[:, 0], exact[:, 1] = s + h * scale, s - h * scale
    bound = 2.5 * EPS * np.linalg.norm(vecs, axis=1)
    mid, rad = la.spectrum2(vecs)
    assert np.all(np.abs((mid - rad).astype(np.longdouble) - (m - r)) <= bound)
    assert np.all(np.abs(la.project2(vecs, caps).astype(np.longdouble) - exact) <= bound[:, None])


def test_assemble_split(rng):
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_scalar_block("p", 2, cap=1.0)
    prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(np.eye(3) / 3))
    a, b = prob.assemble()
    assert a.shape[1] == prob.n_vars == 9 + 2
    x = np.arange(prob.n_vars, dtype=float)
    parts = prob.split(x)
    assert parts["x"].shape == (3, 3)
    assert parts["p"].shape == (2,)
    parts["p"][:] = -1.0  # a copy, not a view of x
    assert np.array_equal(x, np.arange(prob.n_vars))
    with pytest.raises(ValueError):
        prob.add_psd_block("x", 2, 1.0)  # duplicate name


@pytest.mark.parametrize("coeffs", [(1.0,), (-0.37,), (2.5, -1.25),
                                    (0.0, -0.0, 2, np.float64(-1.5), np.int64(3))])
def test_scalar_term_assembles_to_dense_identity(rng, coeffs):
    # a scalar c, of any real scalar type, means c * I: the same rows as the
    # dense block, bit for bit, also next to a dense term and below earlier rows
    mix = rng.normal(size=(9, 3))
    rhs = rng.normal(size=9)

    def build(dense):
        prob = SdpProblem()
        prob.add_scalar_block("p", 3, cap=1.0)
        for i in range(len(coeffs)):
            prob.add_psd_block(f"x{i}", 3, trace_cap=2.0)
        prob.add_equality({"p": np.ones((1, 3))}, np.array([1.0]))
        terms = {f"x{i}": c * np.eye(9) if dense else c for i, c in enumerate(coeffs)}
        terms["p"] = mix
        prob.add_equality(terms, rhs)
        prob.add_equality({"x0": -2.0 * np.eye(9) if dense else -2.0}, rhs)
        return prob.assemble()

    a_dense, b_dense = build(dense=True)
    a, b = build(dense=False)
    assert np.array_equal(a, a_dense) and np.array_equal(np.signbit(a), np.signbit(a_dense))
    assert np.array_equal(b, b_dense)


def test_scalar_term_needs_matching_block_length():
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=1.0)
    prob.add_scalar_block("p", 3)
    prob.add_equality({"x": 1.0, "p": np.zeros((4, 3))}, np.zeros(4))
    with pytest.raises(ValueError):
        prob.add_equality({"x": 1.0}, np.zeros(9))
    with pytest.raises(ValueError):
        prob.add_equality({"p": -1.0}, np.zeros(2))
    for c in (2, np.float64(0.5), np.int64(-1), -0.0):
        with pytest.raises(ValueError, match=r"scalar coefficient needs block 'x' of length 3, not 4"):
            prob.add_equality({"x": c}, np.zeros(3))
    with pytest.raises(ValueError, match=r"coefficient block for 'p' has shape \(2, 2\), expected \(2, 3\)"):
        prob.add_equality({"p": np.zeros((2, 2))}, np.zeros(2))
    with pytest.raises(ValueError, match=r"has shape \(1, 4\), expected \(1, 3\)"):
        prob.add_equality({"p": np.zeros(4)}, np.zeros(1))
    # triplets must lie in the rows and on the block's coordinates
    one = np.ones(1)
    for r, c in ((4, 0), (-1, 0), (0, 3), (0, -1)):
        with pytest.raises(ValueError, match=r"coefficient triplets for 'p' must lie in 4 rows and 3 columns"):
            prob.add_equality({"p": (np.array([r]), np.array([c]), one)}, np.zeros(4))
    with pytest.raises(ValueError, match="coefficient triplets"):
        prob.add_equality({"p": (np.array([0, 1]), np.array([0]), one)}, np.zeros(4))
    assert prob.assemble()[0].shape == (4, 7)  # only the first equality was added


def test_block_groups_must_index_the_stack_and_divide_the_rows():
    prob = SdpProblem()
    prob.add_psd_block("s", 2, trace_cap=1.0, lead=(3,))
    prob.add_equality({"s": (1.0, np.arange(3)[:, None])}, np.zeros(12))
    bad = [([[3]], 4), ([[-1]], 4), ([[0.0]], 4),  # outside the stack, or not indices
           ([[0, 2, 0]], 4), ([[1, 2], [1, 1]], 8),  # a block twice in one group
           (np.arange(3)[:, None], 8),  # three groups do not divide 8 rows
           (np.arange(3), 4), (np.zeros((1, 1, 1), dtype=int), 4), (np.zeros((0, 1), dtype=int), 4)]  # not 2-d
    for groups, k in bad:
        with pytest.raises(ValueError, match=r"block groups for 's' must be a \(G, J\) array of indices below 3, "
                                             rf"distinct in each row, G dividing {k} rows; not \w+ of shape"):
            prob.add_equality({"s": (1.0, groups)}, np.zeros(k))
    prob.add_equality({"s": (1.0, [[2, 0], [0, 2]])}, np.zeros(8))  # a block in several groups
    # the per-block term is checked on one block's coordinates
    with pytest.raises(ValueError, match=r"coefficient block for 's' has shape \(4, 3\), expected \(4, 4\)"):
        prob.add_equality({"s": (np.zeros((4, 3)), [[0]])}, np.zeros(4))
    assert prob.assemble()[0].shape == (20, 12)  # only the valid equalities were added


@pytest.mark.parametrize("lead", [(-1,), (0,), (2, 0), (1.5,), ("2",), (np.float64(2.0),)])
def test_stack_shape_needs_positive_integers(lead):
    # refused before anything is recorded
    prob = SdpProblem()
    with pytest.raises(ValueError, match=r"stack shape .* of 'x' must hold positive integers"):
        prob.add_psd_block("x", 2, 1.0, lead)
    with pytest.raises(ValueError, match="must hold positive integers"):
        prob._add("psd", "x", 2, 1.0, lead)
    assert prob.n_vars == 0 and not prob._blocks
    prob.add_psd_block("x", 2, 1.0, (np.int64(2), 3))
    assert prob.block("x").lead == (2, 3) and prob.n_vars == 24


def block_at(prob, key):
    """``(offset, length)`` of the coordinates of ``key``: a record's name, or
    ``(name, t)`` for the block at index t of the record's stack, in C order."""
    name, t = key if isinstance(key, tuple) else (key, None)
    blk = prob.block(name)
    if t is None:
        return blk.offset, blk.length
    return blk.offset + blk.shape[-1] * int(np.ravel_multi_index(t, blk.lead)), blk.shape[-1]


def assemble_by_term(prob, equalities):
    """(A, b) written one term at a time from the inputs of
    :meth:`SdpProblem.add_equality`, a c I term as a strided slice of the flat
    matrix: the reference for :meth:`SdpProblem.assemble`.  A term's key is a
    record's name or a block of its stack (:func:`block_at`); a pair
    ``(term, groups)`` writes ``term`` on each block ``groups[g, j]`` of the
    record's stack, in the gth group of the rows."""
    rhss = [np.atleast_1d(np.asarray(rhs, dtype=float)) for _, rhs in equalities]
    rows, n = sum(rhs.size for rhs in rhss), prob.n_vars
    a = np.zeros((rows, n))
    flat = a.reshape(-1)
    b = np.zeros(rows)

    def write(t, at, k, offset, length):
        if np.isscalar(t):
            start = at * n + offset
            flat[start : start + k * (n + 1) : n + 1] += float(t)
        elif isinstance(t, tuple):
            r, c, v = t
            a[at + r, offset + c] += v
        else:
            a[at : at + k, offset : offset + length] += np.reshape(t, (k, length))

    at = 0
    for (terms, _), rhs in zip(equalities, rhss):
        k = rhs.size
        for key, t in terms.items():
            if isinstance(t, tuple) and len(t) == 2:
                term, groups = t
                per = k // len(groups)
                for g, blocks in enumerate(groups):
                    for j in blocks:
                        t_j = np.unravel_index(j, prob.block(key).lead)
                        write(term, at + g * per, per, *block_at(prob, (key, t_j)))
            else:
                write(t, at, k, *block_at(prob, key))
        b[at : at + k] = rhs
        at += k
    return a, b


def recorded(build):
    """The problem ``build()`` makes, and the ``(terms, rhs)`` of every
    :meth:`SdpProblem.add_equality` call on it, in order."""
    calls, add = [], SdpProblem.add_equality

    def spy(self, terms, rhs):
        calls.append((self, terms, rhs))
        return add(self, terms, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SdpProblem, "add_equality", spy)
        prob = build()
    return prob, [(terms, rhs) for owner, terms, rhs in calls if owner is prob]


def joint_by_definition(margins, weights=None):
    """:func:`joint_problem` and its ``(terms, rhs)`` from the definition: per
    (k, x), the blocks g[t] of the tuples t with t[k] = x, less the noise block
    n{k}[x] lifted by (x) I when weighted, equal w_k M_k(x); per weighted k,
    the noise blocks' traces sum to 1 - w_k.  Terms are keyed by block
    (:func:`block_at`)."""
    lift = la.hermitian_to_real_vec(np.eye(margins[0].shape[-1]))[:, None]
    combos = list(itertools.product(*(range(len(m)) for m in margins)))
    equalities = []
    for k, m in enumerate(margins):
        w = 1.0 if weights is None else weights[k]
        for x in range(len(m)):
            terms = {("g", t): 1.0 for t in combos if t[k] == x}
            if weights is not None:
                terms[(f"n{k}", (x,))] = -lift
            equalities.append((terms, w * la.hermitian_to_real_vec(m[x])))
        if weights is not None:
            equalities.append(({(f"n{k}", (x,)): np.ones((1, 1)) for x in range(len(m))}, (1 - w) * np.array([1.0])))
    return joint_problem(margins, weights), equalities


def order_by_definition(target, source):
    """The problem of ``postprocessing_order(target, source)`` and its ``(terms, rhs)``
    from the definition: per target outcome y, the blocks F[y, x] composed after
    source_x by ``q.choi_compose``, the map probed on the basis (:func:`basis_loop`),
    summed over x equal target_y; per source outcome x, the blocks F[y, x] traced over
    the target's output (:func:`trace_map`) sum to I.  The devices' blocks are their
    margins of ``q.margins_of((target, source))``; terms are keyed by block."""
    prob = built_problem(obscompat, lambda: q.postprocessing_order(target, source))
    (tgt, *_), (src, *_) = q.margins_of((target, source))[0]
    din = target.dim if isinstance(target, q.Observable) else target.in_dim
    dt, ds = (d.out_dim if isinstance(d, q.Channel) else 1 for d in (target, source))
    tgt, src = tgt.reshape(-1, din * dt, din * dt), src.reshape(-1, din * ds, din * ds)
    maps = [basis_loop(lambda f, s=s: q.choi_compose(s, f, din, ds, dt), ds * dt, din * dt) for s in src]
    equalities = [({("factor", (y, x)): maps[x] for x in range(len(src))}, la.hermitian_to_real_vec(tgt[y]))
                  for y in range(len(tgt))]
    equalities += [({("factor", (y, x)): trace_map((ds, dt), (0,)) for y in range(len(tgt))},
                    la.hermitian_to_real_vec(np.eye(ds))) for x in range(len(src))]
    return prob, equalities


_TRACE_MAPS = {}


def trace_map(dims, keep):
    """Dense matrix of X -> ``la.partial_trace(X, dims, keep)`` in real vectorized
    coordinates: column i is the image of the ith basis matrix."""
    key = (tuple(dims), tuple(keep))
    if key not in _TRACE_MAPS:
        n = math.prod(dims)
        cols = [la.hermitian_to_real_vec(la.partial_trace(la.real_vec_to_hermitian(np.eye(n * n)[i : i + n], n),
                                                          dims, keep))
                for i in range(0, n * n, n)]
        _TRACE_MAPS[key] = np.concatenate(cols).T
    return _TRACE_MAPS[key]


def joint_by_partial_trace(margins, factors, weights=None, noise=q.NoiseClass.TRIVIAL_NOISE):
    """:func:`joint_problem` on quantum ``factors`` and its ``(terms, rhs)`` from the
    definition: per margin ``(device, axes, keep, on)`` and outcome tuple x on its axes,
    the blocks g[t] with t on ``axes`` equal to x, traced onto ``keep``, less the noise,
    equal w D(x), plus (1 - w) times D's total over its outcomes spread evenly (uniform).
    The noise is n{k}[x] on ``on`` lifted by (x) I (trivial), n{k}[x]
    itself (arbitrary), or the blocks of ``ng`` traced like g's (compatible), and its
    normalization is total trace 1 - w (trivial) or 1 - w times the identity on the first
    factor.  Every map is :func:`trace_map` or its transpose; terms are keyed by block."""
    prob = joint_problem(margins, weights, factors=factors, noise=noise)
    counts = prob.block("g").lead
    combos = list(itertools.product(*(range(n) for n in counts)))
    trivial, compatible = noise is q.NoiseClass.TRIVIAL_NOISE, noise is q.NoiseClass.COMPATIBLE_NOISE
    uniform = noise is q.NoiseClass.UNIFORM_NOISE
    equalities = []
    for k, (device, axes, keep, on) in enumerate(margins):
        w = 1.0 if weights is None else weights[k]
        dims, own = [factors[f] for f in keep], on if trivial else keep
        trace, outcomes = trace_map(factors, keep), list(itertools.product(*(range(counts[a]) for a in axes)))
        for x in outcomes:
            fibre = [t for t in combos if tuple(t[a] for a in axes) == x]
            terms = {("g", t): trace for t in fibre}
            if weights is not None and compatible:
                terms.update({("ng", t): -trace for t in fibre})
            elif weights is not None and not uniform:
                terms[(f"n{k}", x)] = -trace_map(dims, [keep.index(f) for f in own]).T
            rhs = w * la.hermitian_to_real_vec(device[x])
            if uniform:
                total = device.reshape((-1,) + device.shape[-2:]).sum(axis=0)
                rhs = rhs + (1 - w) * la.hermitian_to_real_vec(total / len(outcomes))
            equalities.append((terms, rhs))
        if weights is not None and not (compatible or uniform):
            own_dims, to = [factors[f] for f in own], () if trivial else (0,)
            eye = la.hermitian_to_real_vec(np.eye(math.prod(own_dims[i] for i in to)))
            equalities.append(({(f"n{k}", x): trace_map(own_dims, to) for x in outcomes}, (1 - w) * eye))
    if weights is not None and compatible:
        equalities.append(({("ng", t): trace_map(factors, (0,)) for t in combos},
                           (1 - weights[0]) * la.hermitian_to_real_vec(np.eye(factors[0]))))
    return prob, equalities


def _coefficient_problem():
    """c I terms with c = 0.0, -0.0, an int and numpy scalars, next to dense
    terms, in equalities of three row counts."""
    rng = np.random.default_rng(5)
    prob = SdpProblem()
    for name in "abcde":
        prob.add_psd_block(name, 2, trace_cap=2.0)
    prob.add_scalar_block("p", 4)
    prob.add_scalar_block("s", 3)
    prob.add_psd_block("u", 1, trace_cap=1.0)
    prob.add_equality({"a": 0.0, "b": -0.0, "c": 2, "d": np.float64(-1.5), "p": np.int64(3),
                       "e": rng.normal(size=(4, 4))}, rng.normal(size=4))
    prob.add_equality({"s": -0.25, "a": rng.normal(size=(3, 4))}, rng.normal(size=3))
    prob.add_equality({"u": 1, "c": rng.normal(size=4)}, rng.normal(size=1))
    prob.add_equality({"e": -0.0, "b": 7.0}, rng.normal(size=4))
    return prob


def _assembly_cases():
    rng = np.random.default_rng(11)
    x, _, z = q.mub_qubit()
    povms = [mix_with_trivial(random_povm(2, 3, rng), 0.7) for _ in range(3)]
    testers = [prepare_measure_tester(random_state(2, rng), random_povm(2, 2, rng)) for _ in range(2)]
    obs, chan = random_povm(2, 3, rng), q.random_channel(2, 3, rng)
    obs4, first3, second3 = random_povm(2, 4, rng), random_povm(2, 3, rng), random_povm(2, 3, rng)
    cases = {
        "joint": lambda: joint_by_definition([p.effects for p in povms]),
        # weight 1 mixes in its noise with coefficient -0.0
        "joint_weighted": lambda: joint_by_definition([p.effects for p in povms], (0.6, 1.0, 0.8)),
        "joint_uniform": lambda: joint_by_partial_trace([(p.effects, (k,), (0,), ()) for k, p in enumerate(povms)],
                                                        (2,), (0.6, 1.0, 0.8), q.NoiseClass.UNIFORM_NOISE),
        # the margins of check_lhs and check_tester_pair
        "lhs": lambda: joint_by_definition(max_entangled_assemblage([x, z]).blocks),
        "tester": lambda: joint_by_partial_trace(*process._margins(*testers)),
        "tester_weighted": lambda: joint_by_partial_trace(*process._margins(*testers), (0.6, 1.0)),
        "division": lambda: order_by_definition(chan, q.conjugate_channel(chan)),
        "sequential": lambda: order_by_definition(z, q.least_disturbing_channel(x)),
        # groups of three blocks and of one, on a stack of three
        "sequential_3": lambda: order_by_definition(second3, q.least_disturbing_channel(first3)),
        # the other two pairs, on grids of 3 x 4 and 1 x 3 blocks
        "order": lambda: order_by_definition(first3, obs4),
        "measure_prepare": lambda: order_by_definition(chan, obs),
        "coefficients": lambda: recorded(_coefficient_problem),
    }
    for mode in CHANNEL_NOISE:
        tag = mode.value if mode else "plain"
        for lam in (0.7, 1.0):
            weights = None if mode is None else (lam, lam)
            for d in (2, 3, 4):
                pair = q.margins_of((q.identity_channel(d), q.depolarizing_channel(d)))
                cases[f"channel_pair_d{d}_{tag}_{lam}"] = lambda pair=pair, weights=weights, mode=mode: (
                    joint_by_partial_trace(*pair, weights, mode or q.NoiseClass.TRIVIAL_NOISE))
            for name, o in ((f"obs_channel_{tag}_{lam}", obs),
                            (f"obs_channel_4_outcomes_{tag}" + ("" if lam == 0.7 else f"_{lam}"), obs4)):
                cases[name] = lambda pair=q.margins_of((chan, o)), weights=weights, mode=mode: (
                    joint_by_partial_trace(*pair, weights, mode or q.NoiseClass.TRIVIAL_NOISE))
    # a state on A x B x C with its AB and BC marginals
    rho = rand_psd(rng, 12, trace=1.0)
    marginals = [(la.partial_trace(rho, (2, 3, 2), keep), (), keep, ()) for keep in ((0, 1), (1, 2))]
    cases["state_marginal"] = lambda: joint_by_partial_trace(marginals, (2, 3, 2))
    return cases


ASSEMBLY_CASES = _assembly_cases()
PROBED_ORDER_CASES = ("division", "sequential", "sequential_3", "order", "measure_prepare")


@pytest.mark.parametrize("name", ASSEMBLY_CASES)
def test_assemble_equals_per_term_writer(name):
    # the triplet store gives the (A, b) that the terms passed in write one
    # at a time, bit for bit, signed zeros included; an order problem's
    # composition maps, written from their adjoint, equal the maps probed
    # from choi_compose up to the rounding of either
    prob, equalities = ASSEMBLY_CASES[name]()
    a, b = prob.assemble()
    ref_a, ref_b = assemble_by_term(prob, equalities)
    if name in PROBED_ORDER_CASES:
        assert np.all(np.abs(a - ref_a) <= 4 * np.finfo(float).eps * np.abs(ref_a).max())
    else:
        assert np.array_equal(a, ref_a) and np.array_equal(np.signbit(a), np.signbit(ref_a))
    assert np.array_equal(b, ref_b) and np.array_equal(np.signbit(b), np.signbit(ref_b))


def test_block_groups_are_rebuilt_when_a_block_is_added():
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    prob.add_scalar_block("p", 2)
    prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(np.eye(2) / 2))
    prob.add_equality({"p": 1.0}, np.array([0.25, 0.5]))
    assert solve_feasibility(prob).feasible
    # a block of an existing group's size, added after a split and a solve
    prob.split(np.zeros(prob.n_vars))
    prob.add_psd_block("y", 2, trace_cap=1.0)
    target = np.array([[0.5, 0.25j], [-0.25j, 0.25]])
    prob.add_equality({"y": 1.0}, la.hermitian_to_real_vec(target))
    parts = prob.split(np.arange(prob.n_vars, dtype=float))
    blk = prob.block("y")
    assert np.array_equal(parts["y"], la.real_vec_to_hermitian(
        np.arange(blk.offset, blk.offset + blk.length, dtype=float), 2))
    res = solve_feasibility(prob)
    assert res.feasible
    assert set(res.witness) == {"x", "p", "y"}
    assert np.abs(res.witness["y"] - target).max() < 1e-6


def test_joint_problem_fibres(rng):
    shape = (2, 3, 2)
    margins = [np.stack([rand_psd(rng, 2) for _ in range(size)]) for size in shape]
    prob = joint_problem(margins)
    combos = list(itertools.product(*(range(size) for size in shape)))
    # one record g on the grid; block i is the ith product tuple, laid out in that order
    assert list(prob._blocks) == ["g"] and prob.block("g").lead == shape
    grid = prob.split(np.arange(prob.n_vars, dtype=float))["g"]
    for i, t in enumerate(combos):
        assert np.array_equal(grid[t], la.real_vec_to_hermitian(np.arange(4 * i, 4 * i + 4, dtype=float), 2))
    assert prob.n_vars == 4 * len(combos)
    # one row group per (k, x): the blocks of fibre (k, x) sum to M_k(x)
    a, b = prob.assemble()
    rows = [(k, x) for k, size in enumerate(shape) for x in range(size)]
    assert a.shape[0] == 4 * len(rows)
    for r, (k, x) in enumerate(rows):
        for i, t in enumerate(combos):
            want = np.eye(4) if t[k] == x else np.zeros((4, 4))
            assert np.array_equal(a[4 * r : 4 * r + 4, 4 * i : 4 * i + 4], want)
        assert np.array_equal(b[4 * r : 4 * r + 4], la.hermitian_to_real_vec(margins[k][x]))


@pytest.mark.parametrize("weights", [None, (0.6,) * 10], ids=["plain", "weighted"])
def test_joint_problem_records_one_stack_per_device(sharp_x, sharp_z, weights):
    # the 1,024-block joint is one record g, plus one record n{k} per margin
    # when weighted; split reshapes the flat coordinates to the grid, as a copy
    prob = joint_problem([o.effects for o in (sharp_x, sharp_z) * 5], weights)
    noise = [] if weights is None else [f"n{k}" for k in range(10)]
    assert list(prob._blocks) == ["g", *noise]
    g = prob.block("g")
    assert (g.offset, g.lead, g.length) == (0, (2,) * 10, 4 * 1024)
    x = np.arange(prob.n_vars, dtype=float)
    parts = prob.split(x)
    assert list(parts) == ["g", *noise]
    assert np.array_equal(parts["g"], la.real_vec_to_hermitian(x[: g.length].reshape((2,) * 10 + (4,)), 2))
    for name in noise:
        blk = prob.block(name)
        assert blk.lead == (2,) and np.array_equal(parts[name], x[blk.offset : blk.offset + 2].reshape(2, 1, 1))
    for part in parts.values():
        part[...] = -1.0
    assert np.array_equal(x, np.arange(prob.n_vars))
    assert np.allclose(prob.join(prob.split(x)), x, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_join_rejects_a_stack_of_another_shape(sharp_x, sharp_z):
    # a PSD record is written whole: one block, or a grid of another shape,
    # does not fill a stack; the entries of a scalar block still broadcast
    prob = joint_problem([sharp_x.effects, sharp_z.effects], (0.5, 0.5))
    grid = np.broadcast_to(np.eye(2) / 4, (2, 2, 2, 2))
    assert np.array_equal(prob.split(prob.join({"g": grid}))["g"], grid)
    for bad in (np.eye(2) / 4, grid[:1], grid.reshape(4, 2, 2), np.eye(3)):
        with pytest.raises(ValueError):
            prob.join({"g": bad})
        with pytest.raises(ValueError):
            verify_witness(prob, {"g": bad})
    with pytest.raises(ValueError):
        prob.join({"n0": np.ones((1, 1))})
    scalar = SdpProblem()
    scalar.add_scalar_block("p", 3, cap=1.0)
    assert np.array_equal(scalar.join({"p": 0.25}), np.full(3, 0.25))


def _solved_lhs(sharp_x, sharp_z):
    asm = max_entangled_assemblage([mix_with_trivial(o, 0.6) for o in (sharp_x, sharp_z)])
    return joint_problem(asm.blocks), (2, 2)


def _solved_tester_pair(sharp_x, sharp_z):
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, mix_with_trivial(o, 0.6)) for o in (sharp_x, sharp_z))
    return joint_problem([tx.effects, tz.effects]), (2, 2)


def _solved_noisy_testers(sharp_x, sharp_z):
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, o) for o in (sharp_x, sharp_z))
    return joint_tester_problem(tx, tz, (0.6, 0.6)), (2, 2)


def _solved_noisy_family(sharp_x, sharp_z):
    family = [sharp_x, sharp_z, q.trivial_observable([0.2, 0.3, 0.5], 2)]
    return joint_problem([o.effects for o in family], (0.5, 0.5, 0.5)), (2, 2, 3)


@pytest.mark.parametrize("case", [_solved_lhs, _solved_tester_pair, _solved_noisy_testers,
                                  _solved_noisy_family],
                         ids=["lhs", "tester", "noisy-tester", "noisy-family"])
def test_joint_witness_reads_the_blocks_on_the_grid(sharp_x, sharp_z, case):
    # the grid is the record g, its blocks in product order, the noise the
    # records n{k}, one stack per margin
    prob, counts = case(sharp_x, sharp_z)
    res = solve_feasibility(prob)
    assert res.feasible
    grid, noise = joint_witness(res.witness)
    assert grid is res.witness["g"] and grid.shape[:-2] == counts
    weighted = "n0" in res.witness
    assert set(res.witness) == {"g", *(f"n{k}" for k in range(len(counts)) if weighted)}
    if not weighted:
        assert noise is None
    else:
        assert len(noise) == len(counts)
        for k, stack in enumerate(noise):
            assert stack is res.witness[f"n{k}"] and len(stack) == counts[k]
    # on a known iterate: grid[t] holds the coordinates of the tth block in product
    # order, noise[k][x] those of the xth block of n{k}
    x = np.arange(prob.n_vars, dtype=float)
    grid, noise = joint_witness(prob.split(x))
    side = grid.shape[-1]
    for i, t in enumerate(itertools.product(*map(range, counts))):
        assert np.array_equal(grid[t], la.real_vec_to_hermitian(x[side * side * i : side * side * (i + 1)], side))
    for k, stack in enumerate(noise or ()):
        s, at = stack.shape[-1], prob.block(f"n{k}").offset
        for j, block in enumerate(stack):
            assert np.array_equal(block, la.real_vec_to_hermitian(x[at + s * s * j : at + s * s * (j + 1)], s))


def test_checks_read_their_devices_from_the_grid(sharp_x, sharp_z):
    # the public witnesses are the projected g blocks, in product order
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, mix_with_trivial(o, 0.6)) for o in (sharp_x, sharp_z))
    pair = check_tester_pair(tx, tz)
    blocks = pair.solve.witness["g"].reshape(4, 4, 4)
    assert np.array_equal(pair.joint, la.psd_project(blocks).reshape(2, 2, 4, 4))
    lhs = check_lhs(max_entangled_assemblage([mix_with_trivial(o, 0.6) for o in (sharp_x, sharp_z)]))
    blocks = lhs.solve.witness["g"].reshape(4, 2, 2)
    assert np.array_equal(lhs.joint.states, la.psd_project(blocks))


def test_joint_problem_derives_trace_cap(sharp_x, sharp_z):
    # the cap of every g block is the trace of the joint device's total, up
    # to the rounding of that trace
    def cap(prob):
        g = prob.block("g")
        _, idx, caps, _ = next(group for group in sdpcore._Data(prob).psd_groups if group[0] == g.dim)
        assert idx[0, 0] == g.offset and len(idx) == math.prod(g.lead) and len(set(caps.tolist())) == 1
        return float(caps[0])

    assert cap(joint_problem([sharp_x.effects, sharp_z.effects])) == pytest.approx(2.0, abs=1e-14)
    asm = max_entangled_assemblage([sharp_x, sharp_z])
    assert cap(joint_problem(asm.blocks)) == pytest.approx(1.0, abs=1e-14)
    # a tester on input 2, output 3: the cap is d_out, not d_in * d_out
    tester = prepare_measure_tester(np.eye(2) / 2, sharp_observable(np.eye(3)))
    assert cap(joint_tester_problem(tester, tester)) == pytest.approx(3.0, abs=1e-14)
    noisy = joint_tester_problem(tester, tester, (0.5, 0.5))
    assert cap(noisy) == pytest.approx(3.0, abs=1e-14)
    assert [(noisy.block(f"n{k}").lead, float(noisy.block(f"n{k}").cap)) for k in range(2)] == [((3,), 1.0)] * 2


def test_unit_psd_block_is_a_scalar_interval(rng):
    # a 1x1 PSD block projects, verifies and certifies like a scalar block
    # with the same cap; split still returns it as a 1x1 matrix
    def build(as_psd):
        prob = SdpProblem()
        prob.add_psd_block("x", 2, trace_cap=2.0)
        for i, cap in enumerate((1.0, 0.5, 3.0)):
            if as_psd:
                prob.add_psd_block(f"n{i}", 1, trace_cap=cap)
            else:
                prob.add_scalar_block(f"n{i}", 1, cap=cap)
        prob.add_equality({"x": la.hermitian_to_real_vec(np.eye(2))[None, :], "n0": np.ones((1, 1))},
                          np.array([1.0]))
        return prob

    psd, scalar = build(True), build(False)
    x = np.concatenate([la.hermitian_to_real_vec(rand_herm(rng, 2)), [-0.3, 0.7, 1.2]])
    assert np.array_equal(_Projector(psd).cone(x), _Projector(scalar).cone(x))
    assert _Projector(psd).cone_infimum(x) == _Projector(scalar).cone_infimum(x)
    parts = psd.split(x)
    assert parts["n1"].shape == (1, 1) and parts["n1"][0, 0] == 0.7
    for value in (0.25, -0.25):
        w_psd = {"x": np.eye(2) / 4, "n0": np.array([[value]]), "n1": np.zeros((1, 1)),
                 "n2": np.zeros((1, 1))}
        w_scalar = {"x": np.eye(2) / 4, "n0": np.array([value]), "n1": np.zeros(1),
                    "n2": np.zeros(1)}
        assert verify_witness(psd, w_psd) == verify_witness(scalar, w_scalar)


# --- affine projector ---------------------------------------------------------

class _Built(Exception):
    pass


def built_problem(module, call) -> SdpProblem:
    """The problem that ``call`` hands to ``module.solve_feasibility``, unsolved."""
    def capture(prob, *args, **kwargs):
        raise _Built(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_feasibility", capture)
        with pytest.raises(_Built) as info:
            call()
    return info.value.args[0]


def svd_reference(a, b):
    """Row-space basis, particular solution and condition number of the kept part
    from a dense SVD, rank cut on s."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    vr = vt[:r].T
    return vr, vr @ ((u[:, :r].T @ b) / s[:r]), s[0] / s[r - 1]


def densified(stacks, shape):
    """``(vr, mult)``: the basis of :func:`sdpcore._row_space`'s stacks on every column of
    a matrix of ``shape``, one column per kept vector (zero columns, below the cut,
    dropped), and its multipliers on every row, in the stacks' order."""
    vr, mult = [np.zeros((shape[1], 0))], [np.zeros((shape[0], 0))]
    for rows, cols, vs, ws in stacks:
        vs, ws = (np.broadcast_to(m, (len(cols),) + m.shape[-2:]) for m in (vs, ws))
        i, j = np.nonzero(np.any(vs != 0, axis=1))
        for m, at, size, out in ((vs, cols, shape[1], vr), (ws, rows, shape[0], mult)):
            dense = np.zeros((size, i.size))
            dense[at[i], np.arange(i.size)[:, None]] = m[i, :, j]
            out.append(dense)
    return np.hstack(vr), np.hstack(mult)


def projector_basis(proj):
    """:func:`densified` of a projector's stacks."""
    return densified(proj.stacks, (proj.b.size, proj.problem.n_vars))


def _nearly_constant_pair(g, rng):
    """A qubit-to-qutrit channel with weight g on an isometry, the rest constant,
    and that channel followed by a random qutrit-to-qubit channel."""
    iso = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))[0]
    const = q.constant_channel(random_state(3, rng), 2)
    through = q.Channel.from_choi(g * q.kraus_to_choi(iso[None]) + (1 - g) * const.choi(), 2, 3)
    post = q.random_channel(3, 2, rng)
    return q.Channel.from_choi(q.choi_compose(through.choi(), post.choi(), 2, 3, 2), 2, 2), through


def _projector_cases():
    rng = np.random.default_rng(2024)
    x, z = q.mub_qubit()[:2]
    povms = [mix_with_trivial(random_povm(2, 3, rng), 0.7) for _ in range(3)]
    testers = [prepare_measure_tester(random_state(2, rng), random_povm(2, 2, rng)) for _ in range(2)]
    chan, chan3 = q.random_channel(2, 2, rng), q.random_channel(2, 3, rng)
    fine = random_povm(2, 3, rng)
    prod = np.eye(4) / 4
    cases = {
        "joint": lambda: built_problem(obscompat, lambda: check_joint(povms)),
        "lhs": lambda: built_problem(obscompat, lambda: steering.check_lhs(
            steering.max_entangled_assemblage([x, z]))),
        "tester": lambda: built_problem(obscompat, lambda: check_tester_pair(*testers)),
        "channel_pair_d2": lambda: pair_problem(chan, chan3),
        "channel_pair_d3": lambda: pair_problem(
            q.identity_channel(3), q.identity_channel(3)),
        "division": lambda: built_problem(obscompat, lambda: chancompat.channel_division(
            chan, q.conjugate_channel(chan3))),
        "state_marginal": lambda: built_problem(obscompat, lambda: chancompat.state_marginal_feasible(
            prod, prod, (2, 2, 2))),
        "order": lambda: built_problem(obscompat, lambda: obscompat.postprocessing_order(
            q.binarize(fine, [0, 1]), fine)),
        "sequential": lambda: built_problem(obscompat, lambda: obschan.sequential_recover(x, z)),
    }
    for mode in CHANNEL_NOISE:
        name = "obs_channel_" + (mode.value if mode else "plain")
        cases[name] = lambda mode=mode: pair_problem(fine, chan3, mode, 0.7)
    # ill-conditioned: singular values down to about 1e-8 of the largest, which
    # an SVD keeps and a single Gram pass cannot resolve; the division problem
    # is wide with dependent rows, the order problem tall
    near = near_parallel_povm(3e-8)
    cases["order_near_dependent"] = lambda: built_problem(obscompat, lambda: obscompat.postprocessing_order(
        near, near))
    for g in (1e-4, 3e-8):
        pair = _nearly_constant_pair(g, rng)
        cases[f"division_nearly_constant_{g:g}"] = lambda pair=pair: built_problem(
            obscompat, lambda: chancompat.channel_division(*pair))
    povm16 = random_povm(16, 2, rng)
    cases["order_tall"] = lambda: built_problem(obscompat, lambda: obscompat.postprocessing_order(
        povm16, povm16))
    # the shapes at the size caps: 400 components of the d=4 pair, and ten
    # noisy qubit POVMs on 1,024 joint blocks
    cases["channel_pair_d4"] = lambda: pair_problem(
        q.identity_channel(4), q.identity_channel(4))
    povms10 = [mix_with_trivial(random_povm(2, 2, rng), 0.07) for _ in range(10)]
    cases["joint_10"] = lambda: built_problem(obscompat, lambda: check_joint(povms10))
    return cases


PROJECTOR_CASES = _projector_cases()


@pytest.mark.parametrize("name", PROJECTOR_CASES)
def test_gram_projector_matches_svd(name):
    prob = PROJECTOR_CASES[name]()
    proj = _Projector(prob)
    a, b = prob.assemble()
    vr, x_part, kappa = svd_reference(a, b)
    # the projector keeps its basis in stacks on the touched columns; densified,
    # it is compared on every coordinate
    full_vr, mult = projector_basis(proj)
    full_x_part = proj.x_part
    assert full_vr.shape == vr.shape  # equal rank
    r = vr.shape[1]
    assert np.abs(full_vr.T @ full_vr - np.eye(r)).max() < 1e-12
    # the basis's multipliers, up to rounding relative to their size
    assert np.abs(a.T @ mult - full_vr).max() < 1e-13 * (1 + np.abs(mult).max())
    # the row space and the least-norm solution are fixed by the data only to
    # about eps * kappa, for the SVD as for the Gram factorization
    tol = 1e-12 + 1e-15 * kappa
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(prob.n_vars, 4))
    xs /= np.linalg.norm(xs, axis=0)
    assert np.abs(full_vr @ (full_vr.T @ xs) - vr @ (vr.T @ xs)).max() < tol
    assert np.abs(full_x_part - x_part).max() < tol
    assert abs(np.abs(proj.residual).max() - np.abs(a @ x_part - b).max()) < 1e-12 * (1 + np.abs(b).max())
    untouched = np.flatnonzero(~np.any(a != 0, axis=0))
    for col in xs.T:
        once = proj.affine(col)
        assert np.array_equal(once[untouched], col[untouched])
        assert np.abs(proj.affine(once) - once).max() < 1e-12


@pytest.mark.parametrize("name", PROJECTOR_CASES)
def test_projector_products_equal_the_dense_matrix(name):
    # A x, A^T y and |A|_F from the triplets, against the assembled A; the
    # stacks' columns are distinct nonzero columns of the dense matrix
    prob = PROJECTOR_CASES[name]()
    proj = _Projector(prob)
    a, b = prob.assemble()
    cols = np.concatenate([c.ravel() for _, c, _, _ in proj.stacks])
    assert np.unique(cols).size == cols.size and np.all(np.any(a[:, cols] != 0, axis=0))
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=prob.n_vars), rng.normal(size=b.size)
    r, c, v = proj.coo
    ax, aty = sdpcore._apply(proj.coo, x, b.size), sdpcore._apply((c, r, v), y, prob.n_vars)
    assert ax.shape == b.shape and aty.shape == x.shape
    assert np.all(np.abs(ax - a @ x) <= 1e-13 * (np.abs(a) @ np.abs(x)))
    assert np.all(np.abs(aty - a.T @ y) <= 1e-13 * (np.abs(a).T @ np.abs(y)))
    assert abs(proj.norm_a - np.linalg.norm(a)) <= 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("name", PROJECTOR_CASES)
def test_solve_path_never_assembles(name, monkeypatch):
    # solving and searching read A's triplets; the dense A is only the
    # reference of verify_witness(problem, witness)
    prob = PROJECTOR_CASES[name]()

    def refuse(self):
        raise AssertionError("the solve path assembled a dense A")

    monkeypatch.setattr(SdpProblem, "assemble", refuse)
    tols = q.Tolerances(max_iter=50)
    if solve_feasibility(prob, tols).feasible:
        assert threshold_search(lambda lam: prob, tols).value == 1.0
    else:  # a constant family is infeasible at both ends
        with pytest.raises(ValueError, match="feasible lower bracket"):
            threshold_search(lambda lam: prob, tols)


@pytest.mark.parametrize("name", PROJECTOR_CASES)
def test_unreduced_solve_path_never_assembles(name, monkeypatch):
    # with no face step, as for a threshold family's member, the solve reads A's triplets too
    without_faces(monkeypatch)
    test_solve_path_never_assembles(name, monkeypatch)


def _partial_trace_builds():
    """Builds whose only maps are partial traces and their lifts, by name."""
    rng = np.random.default_rng(8)
    chan_a, chan_b = q.random_channel(2, 3, rng), q.random_channel(2, 2, rng)
    obs, chan = random_povm(2, 3, rng), q.random_channel(2, 3, rng)
    testers = [prepare_measure_tester(random_state(2, rng), random_povm(2, 2, rng)) for _ in range(2)]
    prod = np.eye(4) / 4
    builds = {
        "state_marginal": lambda: built_problem(obscompat, lambda: chancompat.state_marginal_feasible(
            prod, prod, (2, 2, 2))),
        "tester_weighted": lambda: joint_tester_problem(*testers, (0.6, 0.8)),
    }
    for mode in CHANNEL_NOISE:
        tag = mode.value if mode else "plain"
        builds[f"channel_pair_{tag}"] = lambda mode=mode: pair_problem(chan_a, chan_b, mode, 0.7)
        builds[f"obs_channel_{tag}"] = lambda mode=mode: pair_problem(obs, chan, mode, 0.7)
    return builds


PARTIAL_TRACE_BUILDS = _partial_trace_builds()


@pytest.mark.parametrize("name", PARTIAL_TRACE_BUILDS)
def test_partial_trace_builds_probe_no_map(name, monkeypatch):
    # partial traces and their lifts are index sums, so these builds never
    # probe a map through real_linear_map, in any module that binds it
    def refuse(*args, **kwargs):
        raise AssertionError("the build probed a map through real_linear_map")

    patched = set()
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qincompat" and hasattr(module, "real_linear_map"):
            monkeypatch.setattr(module, "real_linear_map", refuse)
            patched.add(module)
    assert {sdpcore, obschan} <= patched
    prob = PARTIAL_TRACE_BUILDS[name]()
    assert prob._m > 0


@pytest.mark.parametrize("case,message", [
    ("joint", "joint grid of 4225 outcome tuples exceeds the cap 4096"),
    ("channel_pair", "joint block side 72 exceeds the cap 64"),
    ("obs_channel", "block side 4, 65 outcomes"),
    ("sequential", "block side 66, 2 outcomes"),
    ("postprocessing_order", "block side 1, 65 outcomes"),
    ("channel_division", "factor block side 72 exceeds the cap 64"),
    ("lhs", "joint grid of 8192 outcome tuples exceeds the cap 4096"),
    ("steering_degree", "joint grid of 8192 outcome tuples exceeds the cap 4096"),
    ("tester_pair", "joint grid of 4160 outcome tuples exceeds the cap 4096"),
    ("tester_degree", "joint grid of 4160 outcome tuples exceeds the cap 4096"),
    ("joint_problem", "joint grid of 4097 outcome tuples exceeds the cap 4096"),
])
def test_size_caps_raise_before_building(case, message, monkeypatch):
    # each cap is reached once, and its ValueError comes before any problem is built
    # (and, for an LHS model, before its strategies are listed)
    rng = np.random.default_rng(3)
    sx = sharp_observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    testers = [q.trivial_tester(np.full(m, 1 / m), 2, 2) for m in (65, 64)]
    calls = {
        "joint": lambda: check_joint(q.fourier_pair(65)),
        "channel_pair": lambda: q.check_channel_pair(q.random_channel(2, 6, rng), q.random_channel(2, 6, rng)),
        "obs_channel": lambda: q.check_obs_channel(random_povm(2, 65, rng), q.identity_channel(2)),
        "sequential": lambda: q.sequential_recover(random_povm(2, 33, rng), random_povm(2, 2, rng)),
        "postprocessing_order": lambda: q.postprocessing_order(random_povm(2, 65, rng), random_povm(2, 2, rng)),
        "channel_division": lambda: q.channel_division(q.random_channel(2, 9, rng), q.random_channel(2, 8, rng)),
        "lhs": lambda: check_lhs(max_entangled_assemblage([sx] * 13)),
        "steering_degree": lambda: q.steering_degree([sx] * 13),
        "tester_pair": lambda: check_tester_pair(*testers),
        "tester_degree": lambda: q.tester_degree(*testers),
        "joint_problem": lambda: sdpcore.joint_problem([np.zeros((17, 2, 2)), np.zeros((241, 2, 2))]),
    }

    def refuse(*args):
        raise AssertionError("a problem was built before its size was checked")

    monkeypatch.setattr(SdpProblem, "__init__", refuse)
    monkeypatch.setattr(steering, "deterministic_strategies", refuse)
    with pytest.raises(ValueError, match=message):
        calls[case]()


@pytest.mark.parametrize("name", PROJECTOR_CASES)
def test_dense_and_stacked_bases_agree(name, monkeypatch):
    # either side of the _DENSE_BASIS crossover gives the same affine step and
    # the same multipliers; a layout is factorized once, so each side builds its own
    def fresh():
        sdpcore._joint_layout.cache_clear()
        return PROJECTOR_CASES[name]()

    monkeypatch.setattr(sdpcore, "_DENSE_BASIS", np.inf)
    dense = _Projector(fresh())
    monkeypatch.setattr(sdpcore, "_DENSE_BASIS", -1)
    prob = fresh()
    stacked = _Projector(prob)
    assert len(dense.stacks) == 1 and dense.stacks[0][2].ndim == 2
    assert np.array_equal(projector_basis(dense)[0] != 0, projector_basis(stacked)[0] != 0)
    rng = np.random.default_rng(5)
    for x in rng.normal(size=(3, prob.n_vars)):
        want, got = dense.affine(x), stacked.affine(x)
        assert np.abs(got - want).max() <= 1e-13 * (1 + np.abs(want).max())
        want, got = dense.multipliers(x), stacked.multipliers(x)
        assert np.abs(got - want).max() <= 1e-13 * (1 + np.abs(want).max())


# --- layout memo ---------------------------------------------------------------

def _memo_cases():
    """Every ASSEMBLY_CASES and PROJECTOR_CASES build, as a problem."""
    cases = {f"assembly_{name}": (lambda build=build: build()[0]) for name, build in ASSEMBLY_CASES.items()}
    cases.update({f"projector_{name}": build for name, build in PROJECTOR_CASES.items()})
    return cases


MEMO_CASES = _memo_cases()


def records_equal(one: SdpProblem, two: SdpProblem) -> bool:
    """The same records, caps bitwise equal."""
    return list(one._blocks) == list(two._blocks) and all(
        a._replace(cap=None) == b._replace(cap=None) and np.array_equal(a.cap, b.cap)
        and a.cap.dtype == b.cap.dtype for a, b in zip(one._blocks.values(), two._blocks.values()))


@pytest.mark.parametrize("name", MEMO_CASES)
def test_a_memo_hit_is_the_same_problem(name):
    # a joint problem built again shares its layout, factorized by the first solve; built
    # after the memo is cleared, it is made afresh.  Both have the same triplets, b,
    # caps and records, bit for bit, and solve alike.  A hand-built problem owns its layout
    build, tols = MEMO_CASES[name], q.Tolerances(max_iter=50)
    first = build()
    solve_feasibility(first, tols)
    misses = sdpcore._joint_layout.cache_info().misses
    hit = build()
    assert sdpcore._joint_layout.cache_info().misses == misses
    assert (hit._frozen() is first._frozen()) == (misses > 0)
    sdpcore._joint_layout.cache_clear()
    fresh = build()
    assert fresh._frozen() is not hit._frozen()
    (coo, b), (ref_coo, ref_b) = hit._triplets(), fresh._triplets()
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(coo, ref_coo))
    assert np.array_equal(b, ref_b) and np.array_equal(np.signbit(b), np.signbit(ref_b))
    assert records_equal(hit, fresh) and hit._frozen().row_groups == fresh._frozen().row_groups
    got, want = solve_feasibility(hit, tols), solve_feasibility(fresh, tols)
    assert (got.verdict, got.iterations, got.message) == (want.verdict, want.iterations, want.message)
    assert (got.witness is None) == (want.witness is None)
    if got.witness is not None:
        assert list(got.witness) == list(want.witness)
        assert all(np.array_equal(got.witness[k], want.witness[k]) for k in got.witness)
    assert (got.certificate is None) == (want.certificate is None)
    if got.certificate is not None:
        assert np.array_equal(got.certificate.multipliers, want.certificate.multipliers)


def test_every_key_element_builds_a_new_layout(rng):
    # the layout is keyed on the factors, each margin's (axes, keep, on, device shape)
    # and the noise class; the devices, weights and caps change only the caps and b
    rho = rand_psd(rng, 4, trace=1.0)
    obs2, obs3 = random_povm(2, 2, rng).effects, random_povm(2, 3, rng).effects
    questions = {
        "base": lambda: joint_problem([(rho, (), (0, 1), ())], factors=(2, 2, 2)),
        "factors": lambda: joint_problem([(rho, (), (0, 1), ())], factors=(2, 2, 3)),
        "keep": lambda: joint_problem([(rho, (), (1, 2), ())], factors=(2, 2, 2)),
        "on": lambda: joint_problem([(rho, (), (0, 1), (1,))], factors=(2, 2, 2)),
        "axes": lambda: joint_problem([(obs2, (0,), (0,), ()), (obs3, (1,), (0,), ())], factors=(2,)),
        "swapped_axes": lambda: joint_problem([(obs2, (1,), (0,), ()), (obs3, (0,), (0,), ())], factors=(2,)),
        "shape": lambda: joint_problem([obs2, obs2]),
        **{f"noise_{c.value}": lambda c=c: joint_problem([obs2, obs2], (0.5, 0.5), noise=c) for c in q.NoiseClass},
    }
    layouts = {name: build()._frozen() for name, build in questions.items()}
    assert len({id(layout) for layout in layouts.values()}) == len(questions)
    assert sdpcore._joint_layout.cache_info().misses == len(questions)
    # other devices, weights and caps on one key share its layout
    assert joint_problem([(2 * rho, (), (0, 1), ())], factors=[2, 2, 2])._frozen() is layouts["base"]
    other = random_povm(2, 2, rng).effects
    assert joint_problem([other, obs2], (0.7, 0.2), noise=q.NoiseClass.ARBITRARY_NOISE)._frozen() is (
        layouts["noise_arbitrary"])


def test_shared_layout_arrays_are_read_only(sharp_x, sharp_z):
    prob = joint_problem([sharp_x.effects, sharp_z.effects], (0.6, 0.6))
    proj = _Projector(prob)
    layout = prob._frozen()
    psd, (interval_idx, _) = layout.cones
    shared = [*layout.coo, interval_idx, *(a for _, idx, _, counts in psd for a in (idx, counts)),
              *(a for stacks in layout.factorization for stack in stacks for a in stack)]
    assert proj.coo is layout.coo and len(shared) > 10
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_the_layout_memo_evicts_the_least_recently_used():
    bound = sdpcore._JOINT_LAYOUTS
    povms = [random_povm(2, m, np.random.default_rng(m)).effects for m in range(2, bound + 3)]
    first = joint_problem(povms[:1])._frozen()
    for effects in povms[1:]:
        joint_problem([effects])
    info = sdpcore._joint_layout.cache_info()
    assert (info.currsize, info.misses) == (bound, bound + 1)
    assert joint_problem(povms[:1])._frozen() is not first  # evicted, built again
    assert joint_problem(povms[-1:])._frozen() is joint_problem(povms[-1:])._frozen()


def test_one_layout_is_factorized_once(rng, monkeypatch):
    # two families of noisy POVMs of one shape: full-rank effects expose no face, so
    # both checks solve the joint problem itself, on the first check's factorization
    counts = count_row_spaces(monkeypatch)
    first, second = ([mix_with_trivial(random_povm(2, 3, rng), 0.7) for _ in range(2)] for _ in range(2))
    results = [check_joint(first), check_joint(second)]
    assert counts == {"face": 0, "problem": 1}
    assert all(r.verdict in (Verdict.FEASIBLE, Verdict.INFEASIBLE_CERTIFIED) for r in results)


def array_bytes(proj) -> int:
    """Bytes of the distinct arrays a projector holds, its problem's aside (from nbytes)."""
    total, seen, todo = 0, set(), [v for k, v in vars(proj).items() if k != "problem"]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray) and id(item) not in seen:
            seen.add(id(item))
            total += item.nbytes
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return total


def test_projector_memory_is_blockwise():
    # no touched x rank basis: with one, these projectors held 8.9 MiB (the
    # d=4 channel pair) and 175 MiB (the Fourier d=10 joint)
    pair = pair_problem(q.identity_channel(4), q.identity_channel(4))
    assert array_bytes(_Projector(pair)) < 2**20
    fourier = joint_problem([o.effects for o in q.fourier_pair(10)], (0.6, 0.6))
    assert array_bytes(_Projector(fourier)) < 16 * 2**20


@pytest.mark.parametrize("d", [3, 4])
def test_gram_rank_of_dependent_channel_rows(d):
    # both margins fix the trace of J over both outputs, so d**2 of their
    # 2 d**4 rows are dependent; the rank must come out exact
    prob = pair_problem(q.identity_channel(d), q.identity_channel(d))
    proj = _Projector(prob)
    assert prob.assemble()[0].shape[0] == 2 * d**4
    assert projector_basis(proj)[0].shape[1] == 2 * d**4 - d**2
    assert np.abs(proj.residual).max() < 1e-12


def test_duplicate_triplets_add_up():
    # two entries at one place mean their sum, in A x, in the dense A and in the
    # factorization alike: 2 s_0 = 1 is decided, and both point checks agree
    prob = SdpProblem()
    prob.add_scalar_block("s", 2)
    prob.add_equality({"s": (np.array([0, 0]), np.array([0, 0]), np.array([1.0, 1.0]))}, np.array([1.0]))
    a, b = prob.assemble()
    assert a.tolist() == [[2.0, 0.0]]
    res = solve_feasibility(prob)
    assert res.feasible and abs(res.witness["s"][0] - 0.5) < 1e-6
    coo = prob._triplets()[0]
    for point, ok in (([0.5, 0.0], True), ([1.0, 0.0], False)):
        x = np.array(point)
        assert verify_witness(prob, {"s": x})[0] is ok
        assert sdpcore._check_point(sdpcore._Data(prob), x, sdpcore._apply(coo, x, 1) - b, DEFAULT_TOLS)[0] is ok


def _block_structured(rng, blocks):
    """The matrix with the given diagonal blocks, rows and columns permuted at
    random, and the components the blocks make: ``(rows, cols)`` sets, with
    every row and column of an all-zero block its own component."""
    m, n = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    a = np.zeros((m, n))
    rperm, cperm = rng.permutation(m), rng.permutation(n)
    want = set()
    r0 = c0 = 0
    for b in blocks:
        rows, cols = range(r0, r0 + b.shape[0]), range(c0, c0 + b.shape[1])
        a[np.ix_(rows, cols)] = b
        rs, cs = frozenset(rperm[rows].tolist()), frozenset(cperm[cols].tolist())
        if b.any():
            want.add((rs, cs))
        else:
            want |= {(frozenset([r]), frozenset()) for r in rs} | {(frozenset(), frozenset([c])) for c in cs}
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    out = np.empty_like(a)
    out[np.ix_(rperm, cperm)] = a
    return out, want


def _triplets_of(a):
    """The triplets (rows, columns, values) of a dense matrix's nonzero entries."""
    r, c = np.nonzero(a)
    return r, c, a[r, c]


def _path_block(rng, rows):
    # bidiagonal: one component, although most of its entries are exact zeros
    return np.diag(rng.uniform(3.0, 4.0, rows)) + np.diag(rng.uniform(0.5, 1.0, rows - 1), 1)


@pytest.mark.parametrize("case", ["one_block", "singletons", "equal_blocks", "mixed", "zeros_inside",
                                  "below_the_cut"])
def test_components_match_dense_svd(rng, case, monkeypatch):
    blocks = {
        "one_block": lambda: [rng.normal(size=(9, 11))],
        "singletons": lambda: [rng.normal(size=(1, 1)) for _ in range(6)] + [np.zeros((1, 1))],
        "equal_blocks": lambda: [rng.normal(size=(3, 5)) for _ in range(5)],
        "mixed": lambda: [rng.normal(size=s) for s in ((1, 3), (4, 2), (2, 2), (4, 2), (1, 3), (2, 6), (8, 8))],
        "zeros_inside": lambda: [_path_block(rng, 6), _path_block(rng, 6), rng.normal(size=(2, 3))],
        # the cut is relative to the largest singular value of all components
        "below_the_cut": lambda: [rng.normal(size=(3, 4)), 1e-16 * rng.normal(size=(2, 2))],
    }[case]()
    a, want = _block_structured(rng, blocks)
    found = _components(*_triplets_of(a)[:2], a.shape)
    # every row and column in exactly one component, and the components are the blocks
    assert np.array_equal(np.sort(np.concatenate([r.ravel() for r, _ in found])), np.arange(a.shape[0]))
    assert np.array_equal(np.sort(np.concatenate([c.ravel() for _, c in found])), np.arange(a.shape[1]))
    got = {(frozenset(r.tolist()), frozenset(c.tolist())) for rows, cols in found for r, c in zip(rows, cols)}
    assert got == want
    for rows, cols in found:
        assert np.all(np.diff(rows, axis=1) > 0) and np.all(np.diff(cols, axis=1) > 0)
    # one SVD per shape with rows and columns, and together they hold the dense SVD's singular values
    spectra = []
    svd = np.linalg.svd

    def spy(mat, *args, **kwargs):
        out = svd(mat, *args, **kwargs)
        spectra.append(out[1].ravel())
        return out

    monkeypatch.setattr(np.linalg, "svd", spy)
    stacks, _ = sdpcore._row_space(_triplets_of(a), a.shape, max(a.shape) * np.finfo(float).eps)
    vr, mult = densified(stacks, a.shape)
    assert len(found) == len({(r.shape[1], c.shape[1]) for r, c in found})
    assert len(spectra) == len({(r.shape[1], c.shape[1]) for r, c in found if r.size and c.size})
    dense = svd(a, compute_uv=False)
    spectrum = np.sort(np.concatenate(spectra))[::-1]
    assert spectrum.size <= dense.size
    assert np.abs(np.pad(spectrum, (0, dense.size - spectrum.size)) - dense).max() < 1e-12 * dense[0]
    assert vr.shape[1] == np.sum(dense > max(a.shape) * np.finfo(float).eps * dense[0])
    assert np.abs(a.T @ mult - vr).max() < 1e-12


def test_equal_components_are_factorized_once(rng, monkeypatch):
    # one stack of six 3 x 5 components, three of them equal and one differing
    # from those in a single entry: the SVD sees each distinct matrix once, and
    # the basis is still the dense SVD's
    one, two = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
    near = one.copy()
    near[1, 2] = np.nextafter(near[1, 2], np.inf)
    blocks = [one, two, one, near, one, two]
    a = np.zeros((18, 30))
    for k, blk in enumerate(blocks):
        a[3 * k : 3 * k + 3, 5 * k : 5 * k + 5] = blk
    shapes, svd = [], np.linalg.svd

    def spy(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    stacks, _ = sdpcore._row_space(_triplets_of(a), a.shape, 30 * np.finfo(float).eps)
    assert shapes == [(3, 5, 3)]  # wide, so factorized transposed
    vr, mult = densified(stacks, a.shape)
    want = svd_reference(a, np.zeros(18))[0]
    assert vr.shape == want.shape
    assert np.abs(vr @ vr.T - want @ want.T).max() < 1e-12
    assert np.abs(a.T @ mult - vr).max() < 1e-12


@pytest.mark.parametrize("shape", [(0, 3), (2, 3), (0, 0)])
def test_row_space_of_zero_matrices_is_empty(shape):
    stacks, parts = sdpcore._row_space(_triplets_of(np.zeros(shape)), shape, 1e-12)
    sol = sdpcore._least_norm(parts, np.ones((shape[0], 2)), shape[1])
    vr, mult = densified(stacks, shape)
    assert vr.shape == (shape[1], 0) and mult.shape == (shape[0], 0)
    assert sol.shape == (shape[1], 2) and not sol.any()


@pytest.mark.parametrize("rhs,verdict", [(1.0, Verdict.INFEASIBLE_CERTIFIED), (0.0, Verdict.FEASIBLE)])
def test_zero_row_is_decided_by_its_right_hand_side(rhs, verdict):
    # a row with no nonzero entry gives no basis vector, and its right-hand
    # side shows in the residual: 0 = 1 is an empty affine set
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    prob.add_equality({"x": la.hermitian_to_real_vec(np.eye(2))}, np.array([1.0]))
    prob.add_equality({"x": np.zeros((1, 4))}, np.array([rhs]))
    proj = _Projector(prob)
    assert projector_basis(proj)[0].shape[1] == 1
    assert np.abs(proj.residual - [0.0, -rhs]).max() < 1e-15
    res = solve_feasibility(prob)
    assert res.verdict is verdict
    assert res.iterations == (0 if rhs else 1)


def test_channel_pair_factorization_is_blockwise(monkeypatch):
    # the d=4 channel pair splits into 400 components of 8 x 16 or 1 x 4, so
    # the factorization never decomposes a matrix of more than 8 rows; both
    # shapes are wide, so their stacks are factorized transposed, and each
    # holds one distinct matrix, factorized once.  The channels have full-rank
    # Choi matrices, so the data expose no face and the whole pair is factorized
    sdpcore._joint_layout.cache_clear()  # a layout kept from an earlier build is factorized already
    shapes, inside = [], []
    svd, row_space = np.linalg.svd, sdpcore._row_space

    def spy_svd(mat, *args, **kwargs):
        if inside:
            shapes.append(mat.shape)
        return svd(mat, *args, **kwargs)

    def spy_row_space(*args):
        inside.append(True)
        try:
            return row_space(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(sdpcore, "_row_space", spy_row_space)
    chan = _nearly_depolarizing(0.99, 4)
    res = q.check_channel_pair(chan, chan)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert "face" not in res.solve.message
    assert sorted(shapes) == [(1, 4, 1), (1, 16, 8)]


@pytest.mark.parametrize("name", ["order_tall", "channel_pair_d3", "division_nearly_constant_3e-08"])
def test_gram_matrix_takes_the_smaller_side(name, monkeypatch):
    # no Gram matrix and no QR: the projector factorizes with the SVD alone
    prob = PROJECTOR_CASES[name]()

    def refuse(*args, **kwargs):
        raise AssertionError("the projector factorizes with np.linalg.svd only")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert projector_basis(_Projector(prob))[0].shape[1] > 0


@pytest.mark.parametrize("eps,verdict", [
    (0.5, Verdict.INFEASIBLE_CERTIFIED), (0.4, Verdict.INFEASIBLE_CERTIFIED), (1e-6, Verdict.INFEASIBLE_CERTIFIED),
    (1e-8, Verdict.FEASIBLE), (5e-9, Verdict.FEASIBLE), (1e-10, Verdict.FEASIBLE),
])
def test_marginal_mismatch_sweep(eps, verdict):
    # B marginals diag(1/2 + eps, 1/2 - eps) and I/2: the empty affine set is
    # certified before iterating, by the least-squares residual as
    # multipliers, while its gap -|r| is below -feas; a smaller mismatch is
    # within feas, and the solve finds a witness at once, within its slack.
    # At eps = 1/2 the marginal diag(1, 0) has a kernel: the check runs on its face
    rho_ab = np.kron(np.eye(2) / 2, np.diag([0.5 + eps, 0.5 - eps]))
    solve = lambda: chancompat.state_marginal_feasible(rho_ab, np.eye(4) / 4, (2, 2, 2))
    res = solve()
    assert res.verdict is verdict
    assert res.solve.iterations == (0 if verdict is Verdict.INFEASIBLE_CERTIFIED else 1)
    prob = built_problem(obscompat, solve)
    if res.feasible:
        assert verify_witness(prob, res.solve.witness)[0]
    else:
        assert _certificate_margin(prob, res.solve.certificate) > DEFAULT_TOLS.feas


# --- basic verdicts ----------------------------------------------------------

def test_feasible_pinned_block(rng):
    target = rand_psd(rng, 3, trace=1.5)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(target))
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.FEASIBLE
    assert np.abs(res.witness["x"] - target).max() < 1e-6


def test_infeasible_inconsistent_rows():
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    row = la.hermitian_to_real_vec(np.eye(2))[None, :]
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
    prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(m))
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
    row = la.hermitian_to_real_vec(np.eye(2))[None, :]
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
        prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(m))
        res = solve_feasibility(prob)
        assert res.verdict is Verdict.INFEASIBLE_CERTIFIED, f"trial {trial}: {res.verdict}"


def test_verify_witness_rejects_corruption(rng):
    target = rand_psd(rng, 3, trace=1.0)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(target))
    res = solve_feasibility(prob)
    bad = dict(res.witness)
    bad["x"] = bad["x"] + 0.1 * np.eye(3)
    ok, _ = verify_witness(prob, bad, DEFAULT_TOLS)
    assert not ok


def test_verify_witness_stacked_matches_block_loop(rng):
    # 1024 blocks, one of them just below the eigenvalue slack: the stacked
    # check finds it, with the value a block-by-block loop gives
    n_blocks, bad = 1024, 611
    prob = SdpProblem()
    witness = {}
    for i in range(n_blocks):
        witness[prob.add_psd_block(f"g{i}", 2, trace_cap=4.0)] = rand_psd(rng, 2, trace=1.0)
    slack = DEFAULT_TOLS.witness_atol
    lo = np.linalg.eigvalsh(witness[f"g{bad}"])[0]
    witness[f"g{bad}"] = witness[f"g{bad}"] - (lo + 1.5 * slack) * np.eye(2)
    total = sum(witness.values())
    prob.add_equality(dict.fromkeys(witness, 1.0), la.hermitian_to_real_vec(total))
    ok, report = verify_witness(prob, witness)
    want = min(la.min_eig(w) for w in witness.values())
    assert not ok
    assert report["min_eigenvalue"] == want
    # the closed form of 2 x 2 blocks, against LAPACK (the blocks have |w| <= 1)
    assert abs(want - min(np.linalg.eigvalsh(w)[0] for w in witness.values())) < 16 * np.finfo(float).eps
    assert want == pytest.approx(-1.5 * slack, rel=1e-6)
    assert report["constraint_residual"] < 1e-12

# --- certificate schedule ----------------------------------------------------

# the pairs at weight 0.9, above the X/Z threshold 1/sqrt(2): their margins have full
# rank, so the data expose no face and the iteration finds the certificate

def _joint_xz(sharp_x, sharp_z):
    x, z = (mix_with_trivial(obs, 0.9) for obs in (sharp_x, sharp_z))
    return check_joint([x, z]), joint_problem([x.effects, z.effects])


def _tester_xz(sharp_x, sharp_z):
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, mix_with_trivial(obs, 0.9)) for obs in (sharp_x, sharp_z))
    return check_tester_pair(tx, tz), joint_problem([tx.effects, tz.effects])


def _lhs_xz(sharp_x, sharp_z):
    asm = max_entangled_assemblage([mix_with_trivial(obs, 0.9) for obs in (sharp_x, sharp_z)])
    return check_lhs(asm), joint_problem(asm.blocks)


def _certificate_margin(prob, certificate, feas=DEFAULT_TOLS.feas):
    """How far a certificate separates, re-checked from the assembled problem
    alone, no solver state: its multipliers y give the functional A^T y and
    the affine value y.b, and its gap plus its rounding bound is below -feas.
    Returns the functional's cone infimum minus y.b, positive when valid."""
    b, infimum = recheck_functional(prob, certificate)
    y = certificate.multipliers
    assert abs(y @ b - certificate.affine_value) <= 4 * len(b) * np.finfo(float).eps * (np.abs(y) @ np.abs(b))
    assert certificate.gap + certificate.bound < -feas
    return infimum - float(y @ b)


@pytest.mark.parametrize("case", [_joint_xz, _tester_xz, _lhs_xz], ids=["joint", "tester", "lhs"])
def test_incompatible_pair_certified_early(sharp_x, sharp_z, case):
    res, prob = case(sharp_x, sharp_z)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert 0 < res.solve.iterations < sdpcore._ATTEMPT_SPACING and "face" not in res.solve.message
    assert _certificate_margin(prob, res.solve.certificate) > DEFAULT_TOLS.feas


@pytest.mark.parametrize("offset", [1e-5, 1e-6])
def test_small_gap_is_certified_without_a_residual_gate(sharp_x, sharp_z, offset):
    # just above the X/Z threshold 1/sqrt(2) the gap distance is below 1e-5;
    # the certificate is tried whatever the residual, and validates at once
    mixed = [mix_with_trivial(obs, 2 ** -0.5 + offset) for obs in (sharp_x, sharp_z)]
    res = check_joint(mixed, q.Tolerances(max_iter=400))
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert res.solve.iterations <= 4
    assert res.solve.residual < 1e-5
    prob = joint_problem([obs.effects for obs in mixed])
    assert _certificate_margin(prob, res.solve.certificate) > 0.0


def test_just_below_the_threshold_stays_feasible(sharp_x, sharp_z):
    mixed = [mix_with_trivial(obs, 2 ** -0.5 - 1e-6) for obs in (sharp_x, sharp_z)]
    assert check_joint(mixed, q.Tolerances(max_iter=400)).verdict is Verdict.FEASIBLE


def test_three_verdicts_and_the_old_name_is_an_alias():
    assert list(Verdict) == [Verdict.FEASIBLE, Verdict.INFEASIBLE_CERTIFIED, Verdict.UNDECIDED]
    assert Verdict.INFEASIBLE_HEURISTIC is Verdict.UNDECIDED


def test_certificate_attempt_at_the_cap_runs_once(monkeypatch, sharp_x, sharp_z):
    # attempts at iterations 1, 2 and 4; the last is the cap, tried only once,
    # and a cap without a witness or a certificate is undecided.  The noisy
    # margins have full rank, so the data expose no face
    calls = []

    def failing(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(sdpcore, "_certificate", failing)
    prob = joint_problem([mix_with_trivial(obs, 0.9).effects for obs in (sharp_x, sharp_z)])
    res = solve_feasibility(prob, q.Tolerances(max_iter=4))
    assert res.verdict is Verdict.UNDECIDED
    assert res.message == "iteration cap without a witness or a validated certificate"
    assert res.iterations == 4
    assert len(calls) == 3


def _certificate_without_short_cut(data, y, tols):
    """``sdpcore._certificate`` as it was before it rejected on y.b + bound alone."""
    r, c, v = data.coo
    g = sdpcore._apply((c, r, v), y, data.problem.n_vars)
    affine_value = float(y @ data.b)
    cone_inf = data.cone_infimum(g)
    bound = float(data.rounding[0] * math.sqrt(y @ y) + data.rounding[1] * math.sqrt(g @ g))
    if not affine_value - cone_inf + bound < -tols.feas:
        return None
    return Certificate(data.problem.split(g), affine_value, cone_inf, y, bound)


def _seeded_attempts():
    """Seeded checks of random qubit and qutrit devices, and threshold searches."""
    rng = np.random.default_rng(7)
    for _ in range(6):
        yield lambda pair=[random_povm(2, 2, rng) for _ in range(2)]: check_joint(pair).verdict
        yield lambda pair=[random_povm(3, 3, rng) for _ in range(2)]: check_joint(pair).verdict
        yield lambda pair=[q.random_channel(2, 2, rng) for _ in range(2)]: q.check_channel_pair(*pair).verdict
    yield lambda: q.degree_of_compatibility(list(q.fourier_pair(3)))
    yield lambda: q.robustness(q.diag_channel(dim=2), q.identity_channel(2), q.NoiseClass.ARBITRARY_NOISE)


def test_certificate_short_cut_changes_no_answer(monkeypatch):
    # the cone infimum is never positive, so y.b + bound >= -feas rejects y before any
    # eigenvalue; on every attempt of seeded checks and searches both checks agree,
    # and the solves reach the same verdicts in the same iterations
    runs, agree, short = {}, [], []
    for check in (sdpcore._certificate, _certificate_without_short_cut):
        solves = []

        def solve(*args, _solve=sdpcore.solve_feasibility, **kwargs):
            res = _solve(*args, **kwargs)
            solves.append((res.verdict, res.iterations))
            return res

        def spied(data, y, tols, check=check):
            got, full = check(data, y, tols), _certificate_without_short_cut(data, y, tols)
            agree.append((got is None) == (full is None))
            r, c, v = data.coo
            g = sdpcore._apply((c, r, v), y, data.problem.n_vars)
            bound = data.rounding[0] * math.sqrt(y @ y) + data.rounding[1] * math.sqrt(g @ g)
            short.append(not float(y @ data.b) + bound < -tols.feas)
            return got

        with monkeypatch.context() as mp:
            mp.setattr(sdpcore, "_certificate", spied)
            for module in (obscompat, chancompat, sdpcore):
                mp.setattr(module, "solve_feasibility", solve, raising=False)
            results = [attempt() for attempt in _seeded_attempts()]
        runs[check] = results, solves
    (got, got_solves), (want, want_solves) = runs.values()
    assert got == want and got_solves == want_solves
    assert all(agree) and len(agree) > 100
    assert 0 < sum(short) < len(short)


# --- faces the data expose ------------------------------------------------------

def without_faces(monkeypatch):
    """Solve every problem unreduced, as with no face step."""
    monkeypatch.setattr(sdpcore._Face, "of", staticmethod(lambda problem: None))


def _checked_evidence(prob, res):
    """A verdict's evidence, re-checked on the unreduced problem."""
    if res.verdict is Verdict.FEASIBLE:
        assert verify_witness(prob, res.witness)[0]
    elif res.verdict is Verdict.INFEASIBLE_CERTIFIED:
        assert sdpcore._certificate(sdpcore._Data(prob), res.certificate.multipliers, DEFAULT_TOLS) is not None
        assert _certificate_margin(prob, res.certificate) > 0.0


def _no_flip(a, b):
    return {a.verdict, b.verdict} != {Verdict.FEASIBLE, Verdict.INFEASIBLE_CERTIFIED}


@pytest.mark.parametrize("case", ["id/id d=2", "id/id d=4", "sharp X/Z", "sharp tester", "sharp LHS"])
def test_no_cloning_is_certified_on_its_face_at_iteration_0(case, sharp_x, sharp_z):
    # the identity's Choi matrix has rank 1 and a sharp effect is a projector:
    # every joint device lies on a face with no room, an empty face, and the
    # data certify the impossibility before any iteration
    if case == "sharp X/Z":
        prob = joint_problem([sharp_x.effects, sharp_z.effects])
    elif case == "sharp tester":
        tx, tz = (prepare_measure_tester(np.eye(2) / 2, obs) for obs in (sharp_x, sharp_z))
        prob = joint_problem([tx.effects, tz.effects])
    elif case == "sharp LHS":
        prob = joint_problem(max_entangled_assemblage([sharp_x, sharp_z]).blocks)
    else:
        ident = q.identity_channel(2 if case == "id/id d=2" else 4)
        prob = pair_problem(ident, ident)
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED and res.iterations == 0
    assert res.message.endswith(f"on a face: {prob.n_vars} -> 0 coordinates")
    _checked_evidence(prob, res)


def test_identity_and_depolarizing_meet_on_a_face_of_side_4():
    # the joint channel lies in range(J_id) (x) C^4, a 4-dimensional face of the side-64 block
    ident, depol = q.identity_channel(4), q.depolarizing_channel(4)
    res = q.check_channel_pair(ident, depol)
    assert res.feasible and res.solve.message == "witness on a face: 4096 -> 16 coordinates"
    prob = pair_problem(ident, depol)
    _checked_evidence(prob, res.solve)
    # the iterate is in the original coordinates, where a start is solved unreduced
    again = solve_feasibility(prob, start=res.solve.iterate)
    assert again.feasible and "face" not in again.message and again.iterate.shape == (4096,)


def test_a_face_block_past_the_budget_stays_whole(monkeypatch):
    # a congruence T_b above _FACE_BLOCK entries is not built: its block stays whole (a
    # relaxation of the face), and with no block left reduced the solve is unreduced; an
    # empty face builds no T_b
    ident, depol = q.identity_channel(2), q.depolarizing_channel(2)
    prob = pair_problem(ident, depol)
    assert solve_feasibility(prob).message == "witness on a face: 64 -> 4 coordinates"
    monkeypatch.setattr(sdpcore, "_FACE_BLOCK", 63)  # T_b is 4^2 x 2^2 = 64 entries
    res = solve_feasibility(prob)
    assert res.feasible and "face" not in res.message
    res = solve_feasibility(pair_problem(ident, ident))
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED and res.message.endswith("on a face: 64 -> 0 coordinates")


def test_a_fallback_counts_the_face_iterations_in_its_budget(monkeypatch):
    # evidence that fails on the original sends the solve unreduced, with what the
    # face's iterations left of max_iter, and the result counts both runs
    prob = pair_problem(q.identity_channel(2), q.depolarizing_channel(2))
    on_face = solve_feasibility(prob)
    assert on_face.message == "witness on a face: 64 -> 4 coordinates" and on_face.iterations == 1
    without = pytest.MonkeyPatch()
    without_faces(without)
    unreduced = solve_feasibility(prob)
    without.undo()
    monkeypatch.setattr(sdpcore._Face, "lifted", lambda face, res, tols: None)
    res = solve_feasibility(prob)
    assert res.feasible and "face" not in res.message
    assert res.iterations == on_face.iterations + unreduced.iterations
    res = solve_feasibility(prob, q.Tolerances(max_iter=on_face.iterations))  # none left
    assert res.verdict is Verdict.UNDECIDED and res.iterations == on_face.iterations


def _criterion_10(count):
    """Problems of acceptance criterion 10's generator: realizability and division."""
    rng = np.random.default_rng(10)
    for i in range(count):
        m = mix_with_trivial(random_povm(2, 2, rng), rng.uniform(0.4, 1.0))
        if i % 2 == 0:
            chan = q.random_channel(2, 2, rng)
        else:
            other = mix_with_trivial(random_povm(2, 2, rng), rng.uniform(0.4, 1.0))
            chan = q.luders_instrument(other).total_channel()
        yield pair_problem(m, chan)
        yield built_problem(obscompat, lambda: q.channel_division(chan, q.least_disturbing_channel(m)))


def test_criterion_10_evidence_holds_unreduced(monkeypatch):
    # every reduced witness and certificate re-checks on the unreduced problem,
    # and no verdict flips against the same solves with the face step off
    probs = list(_criterion_10(40))
    on = [solve_feasibility(prob) for prob in probs]
    assert sum("on a face" in res.message for res in on) == len(probs)
    without_faces(monkeypatch)
    off = [solve_feasibility(prob, q.Tolerances(max_iter=2000)) for prob in probs]
    for prob, a, b in zip(probs, on, off):
        assert a.verdict is not Verdict.UNDECIDED and _no_flip(a, b)
        _checked_evidence(prob, a)


def test_an_over_restricted_face_falls_back(monkeypatch):
    # a rank cut this wide drops directions that feasible points use: evidence
    # found on such a face fails on the original, and the unreduced solve decides
    probs = [*_criterion_10(6), pair_problem(q.identity_channel(2), q.depolarizing_channel(2))]
    tols = q.Tolerances(max_iter=2000)
    without = pytest.MonkeyPatch()
    without_faces(without)
    unreduced = [solve_feasibility(prob, tols) for prob in probs]
    without.undo()
    fallbacks, lifted = [], sdpcore._Face.lifted

    def spy(face, res, tols):
        out = lifted(face, res, tols)
        fallbacks.append(out is None)
        return out

    monkeypatch.setattr(sdpcore._Face, "lifted", spy)
    monkeypatch.setattr(sdpcore, "_FACE_CUT", 0.3)
    for prob, before in zip(probs, unreduced):
        res = solve_feasibility(prob, tols)
        assert _no_flip(res, before)
        _checked_evidence(prob, res)
    assert sum(fallbacks) >= 3


# two observable/channel inputs of the seed-7 random-checks stream (rounds 10 and 68) that the
# unreduced solve leaves undecided at 50,000 iterations: effects and Kraus operators, as floats
UNDECIDED_ROUNDS = {
    10: ([0.6997235625065199, 0.0, 0.09663882317265238, -0.01912378008529468, 0.09663882317265238,
          0.01912378008529468, 0.6979382943684522, 0.0, 0.3002764374934799, 0.0, -0.09663882317265231,
          0.019123780085294542, -0.09663882317265231, -0.019123780085294542, 0.30206170563154816, 0.0],
         [-0.04110732993340371, -0.05009569395615918, -0.30813825050125293, -0.448783218291442,
          -0.4131711926175329, -0.47553688458800836, 0.1450119178995702, 0.09387101965209016,
          0.705565285528415, 0.008733807364330395, 0.009430646064454401, -0.36475471021969463,
          0.2653384065496468, -0.17507633859536015, 0.5616411124256945, 0.47458249231840655]),
    68: ([0.3870009554251991, 0.0, 0.15047784376994902, 0.02930121032848303, 0.15047784376994902,
          -0.02930121032848303, 0.627298585924044, 0.0, 0.6129990445748013, 0.0, -0.1504778437699491,
          -0.02930121032848281, -0.1504778437699491, 0.02930121032848281, 0.3727014140759567, 0.0],
         [-0.35462719198636594, -0.6108518220664747, 0.11886571563613661, -0.38059165594345634,
          0.01224114895434375, -0.43219000255668694, -0.14576125021817873, 0.015529906788923091,
          -0.036862864536691305, -0.17851394987185631, -0.30323607450374207, 0.841678565600524,
          -0.43950213068862864, 0.29626565474876576, 0.12976446242036374, 0.04816297980240275]),
}


@pytest.mark.parametrize("round_", UNDECIDED_ROUNDS)
def test_random_checks_tails_are_certified_on_their_face(round_):
    effects, kraus = (np.array(v).view(complex).reshape(2, 2, 2) for v in UNDECIDED_ROUNDS[round_])
    obs, chan = q.Observable(effects), q.Channel(kraus)
    res = q.check_obs_channel(obs, chan)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED and res.solve.iterations <= 1
    assert "on a face: 32 -> 8 coordinates" in res.solve.message
    _checked_evidence(pair_problem(obs, chan), res.solve)


# --- certificates checked from the data -----------------------------------------

def _nearly_depolarizing(weight, d=2):
    """Channel on dimension d with identity weight ``weight`` on top of full depolarization."""
    choi = weight * q.identity_channel(d).choi() + (1 - weight) * q.depolarizing_channel(d).choi()
    return q.Channel.from_choi(choi, d, d)


REFLEXIVE = {
    **{f"division {w:g}": lambda tols, c=_nearly_depolarizing(w): q.channel_division(c, c, tols)
       for w in (1e-9, 1e-10)},
    **{f"order {t:g}": lambda tols, o=near_parallel_povm(t): q.postprocessing_order(o, o, tols)
       for t in (1e-10, 1e-11, 1e-12)},
}


@pytest.mark.parametrize("name", REFLEXIVE)
def test_reflexive_checks_on_nearly_singular_data_are_never_certified(name):
    # every channel divides itself and every POVM post-processes itself, by
    # the identity on the cone's boundary; the data fix that factor only to
    # about eps over the weight, so a functional tested at a computed point
    # of the affine set separates by rounding alone.  Checked from its
    # multipliers, with the rounding bound, no certificate validates, and
    # undecided is an honest answer
    assert REFLEXIVE[name](q.Tolerances(max_iter=2000)).verdict is not Verdict.INFEASIBLE_CERTIFIED


def test_coarse_graining_is_never_certified_at_a_tiny_feas():
    # binarize(P) post-processes P; at feas = 1e-18 a functional whose gap is
    # at the level of rounding (-1e-16 to -2e-14) must not validate
    tols = q.Tolerances(feas=1e-18, max_iter=20)
    certified = []
    for seed in range(200):
        povm = random_povm(2, 3, np.random.default_rng(seed))
        if q.postprocessing_order(q.binarize(povm, [0, 1]), povm, tols).verdict is Verdict.INFEASIBLE_CERTIFIED:
            certified.append(seed)
    assert certified == []


def _planted(seed, feasible):
    """A capped PSD block and two scalars in [0, 1] under rows A = U diag(s) W^T
    with b = A x0.  Feasible: x0 lies in the cones, rank-deficient in its PSD
    block, and A has fewer rows than coordinates and s from 1 down to 1e-12.
    Infeasible: x0's PSD block has a negative eigenvalue of at least 0.01 and
    A is square with s down to 1e-3, so every x with A x = b to within the
    witness slack has one too."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    if feasible:
        rank = int(rng.integers(1, d))
        v = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        x0 = v @ v.conj().T
        x0 *= rng.uniform(0.2, 1.0) / np.trace(x0).real
        p0 = rng.uniform(0, 1, size=2) * (rng.random(2) < 0.5)
    else:
        x0 = rand_herm(rng, d)
        x0 -= (la.min_eig(x0) + rng.uniform(0.01, 0.5)) * np.eye(d)
        p0 = rng.uniform(0, 1, size=2)
    point = np.concatenate([la.hermitian_to_real_vec(x0), p0])
    n = point.size
    m = int(rng.integers(2, n)) if feasible else n
    u, w = np.linalg.qr(rng.normal(size=(m, m)))[0], np.linalg.qr(rng.normal(size=(n, m)))[0]
    a = (u * np.logspace(0, -12 if feasible else -3, m)) @ w.T
    prob = SdpProblem()
    prob.add_psd_block("x", d, trace_cap=1.0 if feasible else d + float(np.abs(x0).sum()))
    prob.add_scalar_block("p", 2, cap=1.0)
    prob.add_equality({"x": a[:, : d * d], "p": a[:, d * d :]}, a @ point)
    return prob


def test_planted_feasible_problems_are_never_certified():
    # a deterministic sweep: the failures it guards against (functionals that
    # separate by the rounding of large multipliers) come at a rate of a few
    # in 300, which a Hypothesis property at a dozen examples would miss
    tols = q.Tolerances(max_iter=200)
    certified = [seed for seed in range(300)
                 if solve_feasibility(_planted(seed, True), tols).verdict is Verdict.INFEASIBLE_CERTIFIED]
    assert certified == []


def test_planted_infeasible_problems_are_never_feasible():
    tols = q.Tolerances(max_iter=200)
    for seed in range(300):
        prob = _planted(seed, False)
        res = solve_feasibility(prob, tols)
        assert res.verdict is not Verdict.FEASIBLE, seed
        if res.verdict is Verdict.INFEASIBLE_CERTIFIED:
            assert _certificate_margin(prob, res.certificate) > 0.0


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
       outcomes=st.integers(2, 3), frac=st.floats(0.0, 1.0),
       start_scale=st.floats(0.0, 3.0))
def test_toss_compatible_families_never_certified(seed, n, outcomes, frac, start_scale):
    # lam <= 1/n makes the family compatible through the coin-toss joint, so
    # an early certificate attempt must never validate, from any start;
    # random noise distributions keep most solves past iteration 1, where
    # attempts start
    rng = np.random.default_rng(seed)
    lam = frac / n
    family = [mix_with_trivial(random_povm(2, outcomes, rng), lam,
                               probs=rng.dirichlet(np.ones(outcomes)))
              for _ in range(n)]
    prob = joint_problem([obs.effects for obs in family])
    res = solve_feasibility(prob, start=start_scale * rng.normal(size=prob.n_vars))
    assert res.verdict is not Verdict.INFEASIBLE_CERTIFIED
    if res.verdict is Verdict.FEASIBLE:
        ok, report = verify_witness(prob, res.witness)
        assert ok, report


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3),
       outcomes=st.integers(2, 3), frac=st.floats(0.0, 1.0))
def test_toss_compatible_assemblages_never_certified_steerable(seed, n, outcomes, frac):
    # the max-entangled assemblage of a family has an LHS model exactly when
    # the transposed family is jointly measurable, as it is at lam <= 1/n
    rng = np.random.default_rng(seed)
    lam = frac / n
    family = [mix_with_trivial(random_povm(2, outcomes, rng), lam,
                               probs=rng.dirichlet(np.ones(outcomes)))
              for _ in range(n)]
    asm = max_entangled_assemblage(family)
    res = check_lhs(asm)
    assert res.verdict is not Verdict.INFEASIBLE_CERTIFIED
    if res.verdict is Verdict.FEASIBLE:
        ok, report = verify_witness(joint_problem(asm.blocks), res.solve.witness)
        assert ok, report


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), outcomes=st.integers(2, 3),
       same_probe=st.booleans(), frac=st.floats(0.0, 1.0))
def test_testers_at_degree_floor_never_certified(seed, outcomes, same_probe, frac):
    # every tester pair is compatible at q <= 1/2: toss a fair coin between
    # the testers and fake the other outcome
    rng = np.random.default_rng(seed)
    probe = random_state(2, rng)
    t1 = prepare_measure_tester(probe, random_povm(2, outcomes, rng))
    t2 = prepare_measure_tester(probe if same_probe else random_state(2, rng),
                                random_povm(2, outcomes, rng))
    q = frac / 2
    prob = joint_tester_problem(t1, t2, (q, q))
    res = solve_feasibility(prob)
    assert res.verdict is not Verdict.INFEASIBLE_CERTIFIED
    if res.verdict is Verdict.FEASIBLE:
        ok, report = verify_witness(prob, res.witness)
        assert ok, report


# --- warm starts -------------------------------------------------------------

def test_start_is_validated(rng):
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    prob.add_equality({"x": 1.0}, la.hermitian_to_real_vec(np.eye(2) / 2))
    for bad in (np.zeros(3), np.zeros((1, 4)), np.array([0.0, np.nan, 0.0, 0.0]),
                np.array([np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError):
            solve_feasibility(prob, start=bad)
    res = solve_feasibility(prob, start=rng.normal(size=prob.n_vars))
    assert res.feasible
    assert res.iterate.shape == (prob.n_vars,)
    # the final iterate is a fixed point up to tolerance: restarting there
    # decides the same problem at once
    again = solve_feasibility(prob, start=res.iterate)
    assert again.feasible and again.iterations == 1


def test_problem_without_rows_is_feasible_from_any_start():
    # with no equality rows the affine set is the whole space, so a start
    # outside the cone must not yield a separating certificate
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=1.0)
    res = solve_feasibility(prob, start=np.array([-1.0, 0.0, 0.0, 0.0]))
    assert res.verdict is Verdict.FEASIBLE


def _weight_family(lam):
    # one scalar x in [0, 1] with x = lam: the right-hand side is the weight
    prob = SdpProblem()
    prob.add_scalar_block("x", 1, cap=1.0)
    prob.add_equality({"x": np.ones((1, 1))}, np.array([lam]))
    return prob


def test_search_starts_from_last_feasible_probe(monkeypatch):
    # probes infeasible without a certificate: today's midpoints, each
    # started at the final iterate of the last feasible probe
    starts = []

    def solve_at(problem, tols=None, start=None):
        lam = float(problem.assemble()[1][0])
        starts.append((lam, start))
        verdict = Verdict.FEASIBLE if lam <= 0.3 else Verdict.UNDECIDED
        return SolveResult(verdict, None, 1, 0.0, iterate=np.array([lam]))

    monkeypatch.setattr(sdpcore, "solve_feasibility", solve_at)
    res = threshold_search(_weight_family, q.Tolerances(bisect_tol=1e-2))
    assert res.value == pytest.approx(0.3, abs=1e-2)
    assert [lam for lam, _ in starts] == [lam for lam, _ in res.history]
    assert [lam for lam, _ in res.history] == [1.0, 0.0, 0.5, 0.25, 0.375, 0.3125, 0.28125,
                                               0.296875, 0.3046875]
    assert starts[0][1] is None and starts[1][1] is None  # hi, then lo: both cold
    last_feasible = None
    for (lam, start), (_, ok) in zip(starts, res.history):
        if last_feasible is None:
            assert start is None
        else:
            assert start[0] == last_feasible
        if ok:
            last_feasible = lam
    assert res.upper is None


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


def test_bisect_threshold_keeps_its_midpoints_for_bool_probes():
    res = bisect_threshold(lambda lam: lam <= 0.63, tol=1e-4)
    assert [lam for lam, _ in res.history] == [
        1.0, 0.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.640625, 0.6328125, 0.62890625,
        0.630859375, 0.6298828125, 0.63037109375, 0.630126953125, 0.6300048828125,
        0.62994384765625]
    assert res.value == 0.62994384765625 and res.upper is None


_NO_FUNCTIONAL = Certificate({}, float("nan"), float("nan"), np.zeros(0), float("nan"))


def _certified_probes(threshold, slack):
    """Probes of a family with the given threshold whose infeasible answers
    carry an upper end ``slack`` above the threshold (capped at the probe)."""
    def probe(lam):
        if lam <= threshold:
            return True
        return UpperEnd(min(lam, threshold + slack), _NO_FUNCTIONAL)
    return probe


def test_bisect_threshold_approaches_a_certified_end_from_below():
    tol = 1e-3
    res = bisect_threshold(_certified_probes(0.4, 0.05), tol=tol)
    lams = [lam for lam, _ in res.history]
    assert lams[:2] == [1.0, 0.0]
    lo, hi = 0.0, 0.45  # the first probe's end
    for lam, ok in res.history[2:]:
        assert lam == hi - max(tol / 2, (hi - lo) / 6)
        if ok:
            lo = lam
        else:
            hi = min(lam, 0.45)
    assert res.value == lo and hi - lo <= tol
    assert res.value <= 0.4 <= res.upper.at
    assert res.upper.certificate is _NO_FUNCTIONAL


def test_bisect_threshold_takes_midpoints_below_an_uncertified_probe():
    # a certified end, then an infeasible probe without one: back to midpoints
    def probe(lam):
        if lam <= 0.3:
            return True
        return UpperEnd(0.5, _NO_FUNCTIONAL) if lam == 1.0 else False

    res = bisect_threshold(probe, tol=1e-2)
    lams = [lam for lam, _ in res.history]
    assert lams[:4] == [1.0, 0.0, 0.5 - 0.5 / 6, (0.5 - 0.5 / 6) / 2]  # 0.5 - 0.5 / 6, then the midpoint
    assert res.upper.at == 0.5
    assert res.value <= 0.3 < res.value + 1e-2


def _lower_end(at):
    return LowerEnd(at, {})


def test_bisect_threshold_raises_its_bottom_to_a_lower_end():
    # a lower end below its probe moves only the bottom: the probe's own weight is
    # neither feasible nor infeasible, and the top stays the certified end
    def probe(lam):
        return UpperEnd(min(lam, 0.45), _NO_FUNCTIONAL) if lam > 0.4 else _lower_end(max(lam - 1e-3, 0.0))

    res = bisect_threshold(probe, tol=1e-2)
    third = 0.45 - 0.45 / 6
    assert [lam for lam, _ in res.history][:4] == [1.0, 0.0, third, 0.45 - (0.45 - (third - 1e-3)) / 6]
    assert res.history[2] == (third, False)
    assert res.value == res.lower.at and res.upper.at - res.value <= 1e-2


def test_bisect_threshold_stops_when_a_probe_moves_neither_end():
    # a lower end at or below the bottom would repeat the same probe for ever
    res = bisect_threshold(lambda lam: UpperEnd(0.5, _NO_FUNCTIONAL) if lam == 1.0 else _lower_end(0.0), tol=1e-2)
    assert [lam for lam, _ in res.history] == [1.0, 0.0, 0.5 - 0.5 / 6]
    assert res.value == res.lower.at == 0.0


def test_bisect_threshold_takes_a_lower_end_above_its_probe():
    # the probe at 0 may carry a lower end above it: the search ends once it is within tol of the top
    res = bisect_threshold(lambda lam: UpperEnd(0.5, _NO_FUNCTIONAL) if lam else _lower_end(0.495), tol=1e-2)
    assert res.history == ((1.0, False), (0.0, True))
    assert res.value == res.lower.at == 0.495 and res.upper.at == 0.5


@pytest.mark.parametrize("above", ["certified end", "infeasible probe"])
def test_bisect_threshold_rejects_a_lower_end_above_an_infeasible_weight(above):
    # infeasible at 1 (certified down to 0.4, or not at all) and at 0.5, then a lower end at 0.6
    first = UpperEnd(0.4, _NO_FUNCTIONAL) if above == "certified end" else False

    def probe(lam):
        return first if lam == 1.0 else False if lam >= 0.45 else _lower_end(0.6 if lam else 0.0)

    with pytest.raises(ValueError, match="feasible at 0.6 but infeasible at 0.4"
                                         if first else "feasible at 0.6 but infeasible at 0.5"):
        bisect_threshold(probe, tol=1e-2)


def test_bisect_threshold_without_lower_ends_has_none():
    res = bisect_threshold(lambda lam: lam <= 0.63, tol=1e-4)
    assert res.lower is None


def test_bisect_threshold_rejects_an_end_above_its_probe():
    with pytest.raises(ValueError, match="upper end 1.25 lies above its probe 1.0"):
        bisect_threshold(lambda lam: lam <= 0.3 or UpperEnd(lam + 0.25, _NO_FUNCTIONAL), tol=1e-2)


def test_bisect_threshold_rejects_an_end_below_a_feasible_probe():
    with pytest.raises(ValueError, match="non-monotone"):
        # 1 and 0.5 infeasible, 0.25 feasible, then an end below 0.25 at 0.375
        bisect_threshold(lambda lam: lam <= 0.3 or (UpperEnd(0.1, _NO_FUNCTIONAL) if lam == 0.375 else False),
                         tol=1e-2)


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_bisect_threshold_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        bisect_threshold(lambda lam: lam <= 0.3, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        q.degree_of_compatibility(list(q.fourier_pair(2)), tols=q.Tolerances(bisect_tol=tol))


@pytest.mark.parametrize("field,value", [
    ("feas", float("inf")), ("feas", float("nan")), ("feas", 0.0), ("feas", -1e-7),
    ("bisect_tol", float("inf")), ("bisect_tol", 0.0),
    ("max_iter", 0), ("max_iter", -5), ("max_iter", 2.5), ("max_iter", True),
])
def test_tolerances_reject_bad_values(field, value):
    # an infinite feas would pass any witness (its slack is 10 feas), a NaN
    # one would end every solve undecided, a cap below 1 runs no iteration, and
    # one that is not an integer fails in the solve's loop or reports a bool
    with pytest.raises(ValueError):
        q.Tolerances(**{field: value})


def test_tolerances_keep_tiny_positive_values():
    assert q.Tolerances(feas=1e-18, max_iter=1, bisect_tol=1e-20).max_iter == 1
    assert q.Tolerances(max_iter=np.int64(3)).max_iter == 3


def test_bisect_threshold_stops_at_the_float_spacing():
    # a tolerance below the spacing of floats near the threshold: the search
    # ends once the next probe rounds to an end of the bracket
    res = bisect_threshold(lambda lam: lam <= 0.3, tol=1e-20)
    assert res.value <= 0.3 < np.nextafter(res.value, 1.0) + 1e-16
    assert len(res.history) < 70
    res = bisect_threshold(_certified_probes(0.3, 0.0), tol=1e-20)
    assert res.value <= 0.3 <= res.upper.at
    assert res.upper.at - res.value <= 2 * np.spacing(0.3)
    assert len(res.history) < 200
