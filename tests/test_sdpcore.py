import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qincompat as q
import qincompat.linalg as la
from conftest import near_parallel_povm, rand_herm
from qincompat import chancompat, obschan, obscompat, process, sdpcore, steering
from qincompat.config import DEFAULT_TOLS
from qincompat.devices import mix_with_trivial, random_povm, random_state, sharp_observable
from qincompat.obscompat import check_joint
from qincompat.process import check_tester_pair, prepare_measure_tester
from qincompat.sdpcore import (Certificate, SdpProblem, SolveResult, UpperEnd, Verdict, _block_eigh,
                               _Projector, bisect_threshold, joint_problem, joint_witness,
                               partial_trace_map, real_linear_map, solve_feasibility,
                               threshold_search, vec_of, verify_witness)
from qincompat.steering import check_lhs, max_entangled_assemblage


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


def lift_case(rng, monkeypatch):
    return captured_map(monkeypatch, sdpcore,
                        lambda: sdpcore._partial_trace_map.__wrapped__((2, 3, 2), (0, 2)))


def heisenberg_case(rng, monkeypatch):
    x, _, z = q.mub_qubit()
    return captured_map(monkeypatch, obschan, lambda: obschan.sequential_recover(x, z))


def kron_case(rng, monkeypatch):
    et = q.random_povm(2, 2, rng).effects[0].T
    return lambda s: np.kron(et, s), 3, 6


@pytest.mark.parametrize("case", [
    compose_case(2, 2, 2), compose_case(2, 4, 2), compose_case(3, 3, 3), compose_case(3, 2, 3),
    lift_case, heisenberg_case, kron_case,
], ids=["compose-2-2-2", "compose-2-4-2", "compose-3-3-3", "compose-3-2-3",
        "lift", "heisenberg", "kron"])
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
    ((2, 3, 2), (2, 0, 0)), ((2, 3, 2), (0, 1, 2)),
])
def test_partial_trace_map_equals_probed_map(dims, keep):
    # the adjoint-built matrix is the probed partial trace, bit for bit
    total = int(np.prod(dims))
    kept = int(np.prod([dims[k] for k in set(keep)]))
    want = real_linear_map(lambda h: la.partial_trace(h, dims, keep), total, kept)
    assert np.array_equal(partial_trace_map(dims, keep), want)


@pytest.mark.parametrize("keep", [(2,), (-1,), (0, 3)])
def test_partial_trace_map_rejects_bad_keep(keep):
    with pytest.raises(ValueError):
        la.partial_trace(np.eye(6), (2, 3), keep)
    with pytest.raises(ValueError):
        partial_trace_map((2, 3), keep)


def test_partial_trace_map_is_cached_read_only():
    # equal keys, however written, share one read-only matrix
    m = partial_trace_map((2, 3, 2), (1, 0, 0))
    assert partial_trace_map([2, 3, 2], [0, 1]) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


@pytest.mark.parametrize("dims,keep", [((2, 3), (1,)), ((2, 2, 3), (0, 2)), ((4, 4, 4), (0, 1))])
def test_partial_trace_map_is_row_major(dims, keep):
    # the cached map is the row-major transpose of the lift's matrix, no copy
    m = partial_trace_map(dims, keep)
    assert m.flags.c_contiguous and not m.flags.writeable


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
    prob.add_equality({"x": 1.0}, vec_of(np.eye(3) / 3))
    a, b = prob.assemble()
    assert a.shape[1] == prob.n_vars == 9 + 2
    parts = prob.split(np.arange(prob.n_vars, dtype=float))
    assert parts["x"].shape == (3, 3)
    assert parts["p"].shape == (2,)
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
    assert prob.assemble()[0].shape == (4, 7)  # only the first equality was added


def assemble_by_term(prob):
    """(A, b) written one term at a time, a c I term as a strided slice of the
    flat matrix: the reference for :meth:`SdpProblem.assemble`."""
    rows = sum(rhs.size for _, rhs in prob._rows)
    n = prob.n_vars
    a = np.zeros((rows, n))
    flat = a.reshape(-1)
    b = np.zeros(rows)
    at = 0
    for terms, rhs in prob._rows:
        k = rhs.size
        for name, t in terms.items():
            blk = prob.block(name)
            if isinstance(t, float):
                start = at * n + blk.offset
                flat[start : start + k * (n + 1) : n + 1] += t
            else:
                a[at : at + k, blk.offset : blk.offset + blk.length] += t
        b[at : at + k] = rhs
        at += k
    return a, b


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
    cases = {
        "joint": lambda: joint_problem([p.effects for p in povms]),
        # weight 1 mixes in its noise with coefficient -0.0
        "joint_weighted": lambda: joint_problem([p.effects for p in povms], (0.6, 1.0, 0.8)),
        "lhs": lambda: built_problem(steering, lambda: check_lhs(max_entangled_assemblage([x, z]))),
        "tester": lambda: built_problem(process, lambda: check_tester_pair(*testers)),
        "division": lambda: built_problem(chancompat, lambda: chancompat.channel_division(
            chan, q.conjugate_channel(chan))),
        "sequential": lambda: built_problem(obschan, lambda: obschan.sequential_recover(x, z)),
        "coefficients": _coefficient_problem,
    }
    for mode in (None, *chancompat.NoiseClass):
        tag = mode.value if mode else "plain"
        for lam in (0.7, 1.0):
            for d in (2, 3, 4):
                cases[f"channel_pair_d{d}_{tag}_{lam}"] = lambda d=d, mode=mode, lam=lam: (
                    chancompat._channel_pair_problem(q.identity_channel(d), q.depolarizing_channel(d),
                                                     mode, lam))
            cases[f"obs_channel_{tag}_{lam}"] = lambda mode=mode, lam=lam: (
                chancompat._obs_channel_problem(obs, chan, mode, lam))
    return cases


ASSEMBLY_CASES = _assembly_cases()


@pytest.mark.parametrize("name", ASSEMBLY_CASES)
def test_assemble_equals_per_term_writer(name):
    # batched c I writes give the per-term loop's (A, b), bit for bit, signed
    # zeros included
    prob = ASSEMBLY_CASES[name]()
    a, b = prob.assemble()
    ref_a, ref_b = assemble_by_term(prob)
    assert np.array_equal(a, ref_a) and np.array_equal(np.signbit(a), np.signbit(ref_a))
    assert np.array_equal(b, ref_b) and np.array_equal(np.signbit(b), np.signbit(ref_b))


def test_block_groups_are_rebuilt_when_a_block_is_added():
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    prob.add_scalar_block("p", 2)
    prob.add_equality({"x": 1.0}, vec_of(np.eye(2) / 2))
    prob.add_equality({"p": 1.0}, np.array([0.25, 0.5]))
    assert solve_feasibility(prob).feasible
    groups = prob._stacks()
    assert prob._stacks() is groups  # shared by the split, the projector and the check
    for _, idx in groups:
        with pytest.raises(ValueError):
            idx[0, 0] = 0
    # a block of an existing group's size, added after a split and a solve
    prob.split(np.zeros(prob.n_vars))
    prob.add_psd_block("y", 2, trace_cap=1.0)
    target = np.array([[0.5, 0.25j], [-0.25j, 0.25]])
    prob.add_equality({"y": 1.0}, vec_of(target))
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
    names = [f"g{i}" for i in range(len(combos))]
    # block i is the ith product tuple, laid out in that order
    assert [prob.block(name).offset for name in names] == list(range(0, 4 * len(names), 4))
    assert prob.n_vars == 4 * len(names)
    # one row group per (k, x): the blocks of fibre (k, x) sum to M_k(x)
    a, b = prob.assemble()
    rows = [(k, x) for k, size in enumerate(shape) for x in range(size)]
    assert a.shape[0] == 4 * len(rows)
    for r, (k, x) in enumerate(rows):
        for i, t in enumerate(combos):
            want = np.eye(4) if t[k] == x else np.zeros((4, 4))
            assert np.array_equal(a[4 * r : 4 * r + 4, 4 * i : 4 * i + 4], want)
        assert np.array_equal(b[4 * r : 4 * r + 4], vec_of(margins[k][x]))


def _solved_lhs(sharp_x, sharp_z):
    asm = max_entangled_assemblage([mix_with_trivial(o, 0.6) for o in (sharp_x, sharp_z)])
    return joint_problem(asm.blocks), (2, 2)


def _solved_tester_pair(sharp_x, sharp_z):
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, mix_with_trivial(o, 0.6)) for o in (sharp_x, sharp_z))
    return joint_problem([tx.effects, tz.effects]), (2, 2)


def _solved_noisy_testers(sharp_x, sharp_z):
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, o) for o in (sharp_x, sharp_z))
    return joint_problem([tx.effects, tz.effects], (0.6, 0.6), 2), (2, 2)


def _solved_noisy_family(sharp_x, sharp_z):
    family = [sharp_x, sharp_z, q.trivial_observable([0.2, 0.3, 0.5], 2)]
    return joint_problem([o.effects for o in family], (0.5, 0.5, 0.5)), (2, 2, 3)


@pytest.mark.parametrize("case", [_solved_lhs, _solved_tester_pair, _solved_noisy_testers,
                                  _solved_noisy_family],
                         ids=["lhs", "tester", "noisy-tester", "noisy-family"])
def test_joint_witness_reads_the_blocks_on_the_grid(sharp_x, sharp_z, case):
    # the grid is the g blocks stacked in product order, the noise the n
    # blocks stacked per margin
    prob, counts = case(sharp_x, sharp_z)
    res = solve_feasibility(prob)
    assert res.feasible
    grid, noise = joint_witness(res.witness, counts)
    assert grid.shape[:-2] == counts
    for i, t in enumerate(itertools.product(*map(range, counts))):
        assert np.array_equal(grid[t], res.witness[f"g{i}"])
    if "n0_0" not in res.witness:
        assert noise is None
    else:
        assert len(noise) == len(counts)
        for k, stack in enumerate(noise):
            assert np.array_equal(stack, np.stack([res.witness[f"n{k}_{x}"] for x in range(counts[k])]))


def test_checks_read_their_devices_from_the_grid(sharp_x, sharp_z):
    # the public witnesses are the projected g blocks, in product order
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, mix_with_trivial(o, 0.6)) for o in (sharp_x, sharp_z))
    pair = check_tester_pair(tx, tz)
    blocks = np.stack([pair.solve.witness[f"g{i}"] for i in range(4)])
    assert np.array_equal(pair.joint, la.psd_project(blocks).reshape(2, 2, 4, 4))
    lhs = check_lhs(max_entangled_assemblage([mix_with_trivial(o, 0.6) for o in (sharp_x, sharp_z)]))
    blocks = np.stack([lhs.solve.witness[f"g{i}"] for i in range(4)])
    assert np.array_equal(lhs.model.states, la.psd_project(blocks))


def test_joint_problem_derives_trace_cap(sharp_x, sharp_z):
    # the cap of every g block is the trace of the joint device's total, up
    # to the rounding of that trace
    def cap(prob):
        caps = {float(blk.cap) for name, blk in prob._blocks.items() if name.startswith("g")}
        assert len(caps) == 1
        return caps.pop()

    assert cap(joint_problem([sharp_x.effects, sharp_z.effects])) == pytest.approx(2.0, abs=1e-14)
    asm = max_entangled_assemblage([sharp_x, sharp_z])
    assert cap(joint_problem(asm.blocks)) == pytest.approx(1.0, abs=1e-14)
    # a tester on input 2, output 3: the cap is d_out, not d_in * d_out
    tester = prepare_measure_tester(np.eye(2) / 2, sharp_observable(np.eye(3)))
    assert cap(joint_problem([tester.effects, tester.effects])) == pytest.approx(3.0, abs=1e-14)
    noisy = joint_problem([tester.effects, tester.effects], (0.5, 0.5), 2)
    assert cap(noisy) == pytest.approx(3.0, abs=1e-14)
    assert {float(noisy.block(f"n{k}_{x}").cap) for k in range(2) for x in range(3)} == {1.0}


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
        prob.add_equality({"x": vec_of(np.eye(2))[None, :], "n0": np.ones((1, 1))},
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
        "lhs": lambda: built_problem(steering, lambda: steering.check_lhs(
            steering.max_entangled_assemblage([x, z]))),
        "tester": lambda: built_problem(process, lambda: check_tester_pair(*testers)),
        "channel_pair_d2": lambda: chancompat._channel_pair_problem(chan, chan3),
        "channel_pair_d3": lambda: chancompat._channel_pair_problem(
            q.identity_channel(3), q.identity_channel(3)),
        "division": lambda: built_problem(chancompat, lambda: chancompat.channel_division(
            chan, q.conjugate_channel(chan3))),
        "state_marginal": lambda: built_problem(chancompat, lambda: chancompat.state_marginal_feasible(
            prod, prod, (2, 2, 2))),
        "order": lambda: built_problem(obscompat, lambda: obscompat.postprocessing_order(
            q.binarize(fine, [0, 1]), fine)),
        "sequential": lambda: built_problem(obschan, lambda: obschan.sequential_recover(x, z)),
    }
    for mode in (None, *chancompat.NoiseClass):
        name = "obs_channel_" + (mode.value if mode else "plain")
        cases[name] = lambda mode=mode: chancompat._obs_channel_problem(fine, chan3, mode, 0.7)
    # ill-conditioned: singular values down to about 1e-8 of the largest, which
    # an SVD keeps and a single Gram pass cannot resolve; the division problem
    # is wide with dependent rows, the order problem tall
    near = near_parallel_povm(3e-8)
    cases["order_near_dependent"] = lambda: built_problem(obscompat, lambda: obscompat.postprocessing_order(
        near, near))
    for g in (1e-4, 3e-8):
        pair = _nearly_constant_pair(g, rng)
        cases[f"division_nearly_constant_{g:g}"] = lambda pair=pair: built_problem(
            chancompat, lambda: chancompat.channel_division(*pair))
    povm16 = random_povm(16, 2, rng)
    cases["order_tall"] = lambda: built_problem(obscompat, lambda: obscompat.postprocessing_order(
        povm16, povm16))
    return cases


PROJECTOR_CASES = _projector_cases()


@pytest.mark.parametrize("name", PROJECTOR_CASES)
def test_gram_projector_matches_svd(name):
    prob = PROJECTOR_CASES[name]()
    proj = _Projector(prob)
    a, b = prob.assemble()
    vr, x_part, kappa = svd_reference(a, b)
    # the projector keeps its basis and solution on the touched columns only;
    # scattered back, they are compared on every coordinate
    full_vr = np.zeros((prob.n_vars, proj.vr.shape[1]))
    full_vr[proj.cols] = proj.vr
    full_x_part = np.zeros(prob.n_vars)
    full_x_part[proj.cols] = proj.x_part
    assert full_vr.shape == vr.shape  # equal rank
    r = vr.shape[1]
    assert np.abs(proj.vr.T @ proj.vr - np.eye(r)).max() < 1e-12
    # the row space and the least-norm solution are fixed by the data only to
    # about eps * kappa, for the SVD as for the Gram factorization
    tol = 1e-12 + 1e-15 * kappa
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(prob.n_vars, 4))
    xs /= np.linalg.norm(xs, axis=0)
    assert np.abs(full_vr @ (full_vr.T @ xs) - vr @ (vr.T @ xs)).max() < tol
    assert np.abs(full_x_part - x_part).max() < tol
    assert abs(proj.inconsistency - np.abs(a @ x_part - b).max()) < 1e-12 * (1 + np.abs(b).max())
    untouched = np.setdiff1d(np.arange(prob.n_vars), proj.cols)
    for col in xs.T:
        once = proj.affine(col)
        assert np.array_equal(once[untouched], col[untouched])
        assert np.abs(proj.affine(once) - once).max() < 1e-12


@pytest.mark.parametrize("d", [3, 4])
def test_gram_rank_of_dependent_channel_rows(d):
    # both margins fix the trace of J over both outputs, so d**2 of their
    # 2 d**4 rows are dependent; the rank must come out exact
    prob = chancompat._channel_pair_problem(q.identity_channel(d), q.identity_channel(d))
    proj = _Projector(prob)
    assert prob.assemble()[0].shape[0] == 2 * d**4
    assert proj.vr.shape[1] == 2 * d**4 - d**2
    assert proj.inconsistency < 1e-12


def _block_diagonal(rng, blocks):
    """Symmetric PSD matrix with the given diagonal blocks, rows permuted at random."""
    n = sum(len(b) for b in blocks)
    g = np.zeros((n, n))
    at = 0
    for b in blocks:
        g[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    perm = rng.permutation(n)
    return g[np.ix_(perm, perm)]


def _gram_block(rng, size):
    m = rng.normal(size=(size, size + 2))
    return m @ m.T


def _path_block(rng, size):
    # tridiagonal: one block although most of its entries are exact zeros
    off = rng.uniform(0.5, 1.0, size - 1)
    return np.diag(rng.uniform(3.0, 4.0, size)) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("case", ["one_block", "singletons", "equal_blocks", "mixed", "zeros_inside"])
def test_block_eigh_matches_dense_eigh(rng, case):
    blocks = {
        "one_block": lambda: [_gram_block(rng, 9)],
        "singletons": lambda: [_gram_block(rng, 1) for _ in range(6)] + [np.zeros((1, 1))],
        "equal_blocks": lambda: [_gram_block(rng, 3) for _ in range(5)],
        "mixed": lambda: [_gram_block(rng, s) for s in (1, 4, 2, 4, 1, 2, 8)],
        "zeros_inside": lambda: [_path_block(rng, 6), _path_block(rng, 6), _gram_block(rng, 2)],
    }[case]()
    g = _block_diagonal(rng, blocks)
    scale = np.linalg.norm(g)
    found = _block_eigh(g)
    # every row in exactly one block, and the blocks are the components
    rows = np.concatenate([idx.ravel() for idx, _, _ in found])
    assert np.array_equal(np.sort(rows), np.arange(len(g)))
    assert sorted(s for idx, _, _ in found for s in [idx.shape[1]] * idx.shape[0]) == sorted(
        len(b) for b in blocks)
    assert len({idx.shape[1] for idx, _, _ in found}) == len(found)  # one eigh per size
    spectrum = np.sort(np.concatenate([w.ravel() for _, w, _ in found]))
    assert np.abs(spectrum - np.linalg.eigh(g)[0]).max() < 1e-12 * scale
    rebuilt = np.zeros_like(g)
    for idx, w, u in found:
        assert np.all(np.diff(idx, axis=1) > 0)
        assert np.abs(np.swapaxes(u, 1, 2) @ u - np.eye(idx.shape[1])).max() < 1e-12
        rebuilt[idx[:, :, None], idx[:, None, :]] = (u * w[:, None, :]) @ np.swapaxes(u, 1, 2)
    assert np.abs(rebuilt - g).max() < 1e-12 * scale


def test_channel_pair_factorization_is_blockwise(monkeypatch):
    # the d=4 channel-pair Gram matrix splits into blocks of at most 8 rows,
    # so the factorization never decomposes a larger matrix
    sizes, inside = [], []
    eigh, row_space = np.linalg.eigh, sdpcore._row_space

    def spy_eigh(mat, *args, **kwargs):
        if inside:
            sizes.append(mat.shape[-1])
        return eigh(mat, *args, **kwargs)

    def spy_row_space(*args):
        inside.append(True)
        try:
            return row_space(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(sdpcore, "_row_space", spy_row_space)
    res = q.check_channel_pair(q.identity_channel(4), q.identity_channel(4))
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert sizes and max(sizes) <= 8


@pytest.mark.parametrize("name", ["order_tall", "channel_pair_d3", "division_nearly_constant_3e-08"])
def test_gram_matrix_takes_the_smaller_side(name, monkeypatch):
    prob = PROJECTOR_CASES[name]()
    a, _ = prob.assemble()
    sizes = []
    eigh = np.linalg.eigh

    def spy(mat, *args, **kwargs):
        sizes.append(mat.shape[-1])
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    _Projector(prob)
    assert sizes and max(sizes) <= min(a.shape)


@pytest.mark.parametrize("eps,verdict", [
    (0.5, Verdict.INFEASIBLE_CERTIFIED), (1e-6, Verdict.INFEASIBLE_CERTIFIED),
    (1e-8, Verdict.INFEASIBLE_CERTIFIED), (5e-9, Verdict.FEASIBLE), (1e-10, Verdict.FEASIBLE),
])
def test_marginal_mismatch_sweep(eps, verdict):
    # B marginals diag(1/2 + eps, 1/2 - eps) and I/2: the empty affine set is
    # certified before iterating down to eps = 1e-8, and below the
    # inconsistency tolerance the solve finds a witness at once
    rho_ab = np.kron(np.eye(2) / 2, np.diag([0.5 + eps, 0.5 - eps]))
    res = chancompat.state_marginal_feasible(rho_ab, np.eye(4) / 4, (2, 2, 2))
    assert res.verdict is verdict
    assert res.solve.iterations == (0 if verdict is Verdict.INFEASIBLE_CERTIFIED else 1)


# --- basic verdicts ----------------------------------------------------------

def test_feasible_pinned_block(rng):
    target = rand_psd(rng, 3, trace=1.5)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_equality({"x": 1.0}, vec_of(target))
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
    prob.add_equality({"x": 1.0}, vec_of(m))
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
        prob.add_equality({"x": 1.0}, vec_of(m))
        res = solve_feasibility(prob)
        assert res.verdict is Verdict.INFEASIBLE_CERTIFIED, f"trial {trial}: {res.verdict}"


def test_verify_witness_rejects_corruption(rng):
    target = rand_psd(rng, 3, trace=1.0)
    prob = SdpProblem()
    prob.add_psd_block("x", 3, trace_cap=2.0)
    prob.add_equality({"x": 1.0}, vec_of(target))
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
    prob.add_equality(dict.fromkeys(witness, 1.0), vec_of(total))
    ok, report = verify_witness(prob, witness)
    want = min(np.linalg.eigvalsh(la.real_vec_to_hermitian(la.hermitian_to_real_vec(w), 2))[0]
               for w in witness.values())
    assert not ok
    assert report["min_eigenvalue"] == want
    assert want == pytest.approx(-1.5 * slack, rel=1e-6)
    assert report["constraint_residual"] < 1e-12

# --- certificate schedule ----------------------------------------------------

def _joint_xz(sharp_x, sharp_z):
    return check_joint([sharp_x, sharp_z]), joint_problem([sharp_x.effects, sharp_z.effects])


def _tester_xz(sharp_x, sharp_z):
    tx, tz = (prepare_measure_tester(np.eye(2) / 2, obs) for obs in (sharp_x, sharp_z))
    return check_tester_pair(tx, tz), joint_problem([tx.effects, tz.effects])


def _lhs_xz(sharp_x, sharp_z):
    asm = max_entangled_assemblage([sharp_x, sharp_z])
    return check_lhs(asm), joint_problem(asm.blocks)


def _certificate_margin(prob, certificate):
    """How far a certificate separates, re-checked from the problem data alone,
    no solver state: positive when it is valid."""
    a, b = prob.assemble()
    h = np.zeros(prob.n_vars)
    caps = 0.0
    cone_inf = 0.0
    for name, mat in certificate.functional.items():
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
    return cone_inf - value - h_null * caps


@pytest.mark.parametrize("case", [_joint_xz, _tester_xz, _lhs_xz], ids=["joint", "tester", "lhs"])
def test_incompatible_pair_certified_early(sharp_x, sharp_z, case):
    res, prob = case(sharp_x, sharp_z)
    assert res.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert res.solve.iterations < sdpcore._ATTEMPT_SPACING
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
    # and a cap without a witness or a certificate is undecided
    calls = []

    def failing(*args):
        calls.append(args)
        return None

    monkeypatch.setattr(sdpcore, "_certificate", failing)
    prob = joint_problem([sharp_x.effects, sharp_z.effects])
    res = solve_feasibility(prob, q.Tolerances(max_iter=4))
    assert res.verdict is Verdict.UNDECIDED
    assert res.message == "iteration cap without a witness or a validated certificate"
    assert res.iterations == 4
    assert len(calls) == 3


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
    prob = joint_problem([t1.effects, t2.effects], (q, q), t1.in_dim)
    res = solve_feasibility(prob)
    assert res.verdict is not Verdict.INFEASIBLE_CERTIFIED
    if res.verdict is Verdict.FEASIBLE:
        ok, report = verify_witness(prob, res.witness)
        assert ok, report


# --- warm starts -------------------------------------------------------------

def test_start_is_validated(rng):
    prob = SdpProblem()
    prob.add_psd_block("x", 2, trace_cap=2.0)
    prob.add_equality({"x": 1.0}, vec_of(np.eye(2) / 2))
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
    with pytest.raises(ValueError):
        bisect_threshold(lambda lam: True, tol=1e-4, lo=1.0, hi=0.0)


def test_bisect_threshold_keeps_its_midpoints_for_bool_probes():
    res = bisect_threshold(lambda lam: lam <= 0.63, tol=1e-4)
    assert [lam for lam, _ in res.history] == [
        1.0, 0.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.640625, 0.6328125, 0.62890625,
        0.630859375, 0.6298828125, 0.63037109375, 0.630126953125, 0.6300048828125,
        0.62994384765625]
    assert res.value == 0.62994384765625 and res.upper is None


_NO_FUNCTIONAL = Certificate({}, float("nan"), float("nan"))


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
        assert lam == hi - max(tol / 2, (hi - lo) / 4)
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
    assert lams[:4] == [1.0, 0.0, 0.375, 0.1875]  # 0.5 - 0.5 / 4, then the midpoint
    assert res.upper.at == 0.5
    assert res.value <= 0.3 < res.value + 1e-2


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
