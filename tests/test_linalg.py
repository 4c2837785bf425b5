import numpy as np
import pytest

import qincompat.linalg as la
from conftest import rand_herm


def test_real_vec_round_trip(rng):
    for d in (1, 2, 3, 5):
        h = rand_herm(rng, d)
        v = la.hermitian_to_real_vec(h)
        assert v.shape == (d * d,)
        assert v.dtype == np.float64
        back = la.real_vec_to_hermitian(v, d)
        assert np.abs(back - h).max() < 1e-13


def test_real_vec_is_isometric(rng):
    # the real coordinates preserve the Frobenius inner product
    a = rand_herm(rng, 4)
    b = rand_herm(rng, 4)
    va, vb = la.hermitian_to_real_vec(a), la.hermitian_to_real_vec(b)
    assert np.vdot(va, vb) == pytest.approx(np.trace(a @ b).real, abs=1e-12)
    assert np.linalg.norm(va) == pytest.approx(np.linalg.norm(a), abs=1e-12)


def test_real_vec_batched(rng):
    hs = np.stack([[rand_herm(rng, 3) for _ in range(4)] for _ in range(2)])
    vs = la.hermitian_to_real_vec(hs)
    assert vs.shape == (2, 4, 9)
    back = la.real_vec_to_hermitian(vs, 3)
    assert np.abs(back - hs).max() < 1e-13


# reference layout: the index-based formulas the gather/scatter tables encode

def _ref_to_vec(a):
    m = np.asarray(a, dtype=complex)
    d = m.shape[-1]
    iu, ju = np.triu_indices(d, k=1)
    diag = np.arange(d)
    upper = m[..., iu, ju]
    parts = [np.real(m[..., diag, diag]), np.sqrt(2.0) * np.real(upper), np.sqrt(2.0) * np.imag(upper)]
    return np.concatenate(parts, axis=-1)


def _ref_to_herm(v, d):
    v = np.asarray(v, dtype=float)
    iu, ju = np.triu_indices(d, k=1)
    diag = np.arange(d)
    k = iu.size
    out = np.zeros(v.shape[:-1] + (d, d), dtype=complex)
    out[..., diag, diag] = v[..., :d]
    upper = (v[..., d : d + k] + 1j * v[..., d + k :]) / np.sqrt(2.0)
    out[..., iu, ju] = upper
    out[..., ju, iu] = np.conj(upper)
    return out


def _check_against_reference(h, v):
    d = h.shape[-1]
    assert np.array_equal(la.hermitian_to_real_vec(h), _ref_to_vec(h))
    # complex / real division in the reference may differ from a real division by 1 ulp
    got, want = la.real_vec_to_hermitian(v, d), _ref_to_herm(v, d)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_max_ulp(got.view(float), want.view(float), maxulp=1)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 64])
def test_real_vec_matches_reference(rng, d):
    h = rand_herm(rng, d)
    _check_against_reference(h, rng.normal(size=d * d))
    # batched, and a transposed (non-contiguous) view
    hs = np.stack([rand_herm(rng, d) for _ in range(3)])
    _check_against_reference(hs, rng.normal(size=(3, d * d)))
    _check_against_reference(hs[1].T, rng.normal(size=(2, 2, d * d)))
    # a column-strided view whose rows still merge into one strided axis
    wide = np.zeros((d, 2 * d), dtype=complex)
    wide[:, ::2] = hs[2]
    _check_against_reference(wide[:, ::2], rng.normal(size=d * d))
    # real-dtype input
    s = rng.normal(size=(d, d))
    _check_against_reference(s + s.T, rng.normal(size=d * d))


def test_real_vec_layout_read_only():
    arrays = la.real_vec_basis_indices(3) + la._gather_layout(3) + la._scatter_layout(3)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 7
    h = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(la.hermitian_to_real_vec(h), _ref_to_vec(h))


def test_partial_trace_product(rng):
    a = rand_herm(rng, 2)
    b = rand_herm(rng, 3)
    ab = np.kron(a, b)
    assert np.abs(la.partial_trace(ab, [2, 3], keep=[0]) - np.trace(b) * a).max() < 1e-12
    assert np.abs(la.partial_trace(ab, [2, 3], keep=[1]) - np.trace(a) * b).max() < 1e-12


def test_partial_trace_three_factors(rng):
    mats = [rand_herm(rng, d) for d in (2, 2, 3)]
    full = np.kron(np.kron(mats[0], mats[1]), mats[2])
    got = la.partial_trace(full, [2, 2, 3], keep=[0, 2])
    want = np.trace(mats[1]) * np.kron(mats[0], mats[2])
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("dims,keep", [
    ((2, 3), [0]), ((2, 3), [1]), ((2, 2, 3), [0, 2]), ((3, 2, 2), [1]), ((2, 3, 2), []),
])
def test_partial_trace_of_a_stack(rng, dims, keep):
    # one call on a (3, 2, D, D) stack is the per-matrix loop, bit for bit
    side = int(np.prod(dims))
    stack = rng.normal(size=(3, 2, side, side)) + 1j * rng.normal(size=(3, 2, side, side))
    want = np.array([[la.partial_trace(m, dims, keep) for m in row] for row in stack])
    got = la.partial_trace(stack, dims, keep)
    assert got.shape == (3, 2) + want.shape[2:]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(3, 6, 5), (3, 4, 4), (6,)])
def test_partial_trace_rejects_mismatched_trailing_shape(shape):
    with pytest.raises(ValueError):
        la.partial_trace(np.zeros(shape), (2, 3), [0])


def test_partial_trace_preserves_trace(rng):
    h = rand_herm(rng, 6)
    reduced = la.partial_trace(h, [2, 3], keep=[1])
    assert np.trace(reduced) == pytest.approx(np.trace(h), abs=1e-12)


def test_psd_project(rng):
    h = rand_herm(rng, 4)
    p = la.psd_project(h)
    assert la.min_eig(p) >= -1e-12
    assert np.abs(la.psd_project(p) - p).max() < 1e-12
    # projection onto the cone keeps the positive part exactly
    vals, vecs = la.eig_hermitian(h)
    want = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
    assert np.abs(p - want).max() < 1e-12


def test_min_eig_and_op_norm():
    m = np.diag([3.0, -2.0, 0.5])
    assert la.min_eig(m) == pytest.approx(-2.0)
    assert la.op_norm(m) == pytest.approx(3.0)


def test_eig_hermitian_ascending(rng):
    vals, vecs = la.eig_hermitian(rand_herm(rng, 5))
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(vecs @ vecs.conj().T - np.eye(5)).max() < 1e-12


def test_require_hermitian():
    with pytest.raises(ValueError):
        la.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-10)
    sym = la.require_hermitian(np.array([[1.0, 1e-14], [0.0, 2.0]]), 1e-10)
    assert np.abs(sym - sym.conj().T).max() == 0.0


def test_hermitian_part(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = la.hermitian_part(a)
    assert np.abs(h - h.conj().T).max() < 1e-15
    assert np.abs(h - (a + a.conj().T) / 2).max() < 1e-15


def test_kron_matches_numpy(rng):
    a, b = rng.normal(size=(2, 2)), rng.normal(size=(3, 3))
    assert np.abs(la.kron(a, b) - np.kron(a, b)).max() == 0.0
