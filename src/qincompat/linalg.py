"""Dense Hermitian linear algebra used by every other module.

Matrices are plain complex ``numpy`` arrays.  Hermitian inputs are accepted up
to a small max-norm slack and symmetrized on entry, so downstream code can rely
on exact Hermiticity.  The real vectorization maps a d x d Hermitian matrix to
d^2 real coordinates (diagonal first, then sqrt(2)-scaled real and imaginary
parts of the strict upper triangle); it is an isometry for the Hilbert-Schmidt
inner product, which is what the feasibility solver builds on.  Stacks of
2 x 2 matrices are decomposed in closed form on these coordinates
(:func:`spectrum2`, :func:`project2`), with no LAPACK call.  Its index
layout is computed once per dimension and cached; the cached index arrays,
including those returned by ``real_vec_basis_indices``, are read-only.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .config import DEVICE_ATOL, HERM_ATOL

__all__ = [
    "EigenDecomposition",
    "as_matrix",
    "dagger",
    "hermitian_part",
    "require_hermitian",
    "require_positive",
    "eig_hermitian",
    "psd_project",
    "psd_sqrt",
    "min_eig",
    "spectrum2",
    "project2",
    "partial_trace",
    "kron",
    "op_norm",
    "hermitian_to_real_vec",
    "real_vec_to_hermitian",
    "real_vec_basis_indices",
]


def as_matrix(a, *, square: bool = True) -> np.ndarray:
    """Coerce to a finite complex matrix, or a stack of them on the last two axes."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + dagger(a))


def require_hermitian(a, atol: float | None = None) -> np.ndarray:
    """Validate Hermiticity to ``atol`` (max-norm) and return the symmetrized copy.

    A stack of matrices is checked as a whole, against its largest deviation.
    """
    if atol is None:
        atol = HERM_ATOL
    m = as_matrix(a)
    dev = np.abs(m - dagger(m)).max() if m.size else 0.0
    if dev > atol:
        raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e} > {atol:.1e})")
    return hermitian_part(m)


def require_positive(a, atol: float | None, label: str) -> tuple[np.ndarray, float]:
    """Validate a device's operators: Hermitian, and positive to ``atol``.

    ``atol`` defaults to ``DEVICE_ATOL``; Hermiticity is checked to the
    larger of it and ``HERM_ATOL``.  The first operator (in C order of the
    stack's leading axes) whose smallest eigenvalue is below -atol raises
    ``ValueError`` with ``label.format(*index)`` and that eigenvalue.
    Returns the symmetrized operators and the slack used.
    """
    atol = DEVICE_ATOL if atol is None else atol
    m = require_hermitian(a, max(atol, HERM_ATOL))
    lo = np.atleast_1d(_lowest(m))
    bad = np.argwhere(lo < -atol)
    if bad.size:
        index = tuple(bad[0])
        raise ValueError(f"{label.format(*index)} (min eig {lo[index]:.3e})")
    return m, atol


class EigenDecomposition(NamedTuple):
    """Eigenvalues ascending; ``vectors[..., :, k]`` is the k-th eigenvector."""

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(a, atol: float | None = None) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix (or a stack), eigenvalues ascending."""
    m = require_hermitian(a, atol)
    vals, vecs = np.linalg.eigh(m)
    return EigenDecomposition(vals, vecs)


def psd_project(a, atol: float | None = None) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix, of each matrix in a
    stack: clip negative eigenvalues (2 x 2 in closed form, :func:`project2`)."""
    m = require_hermitian(a, atol)
    if m.shape[-1] == 2:
        return real_vec_to_hermitian(project2(hermitian_to_real_vec(m)), 2)
    vals, vecs = np.linalg.eigh(m)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped[..., None, :]) @ dagger(vecs)


def psd_sqrt(a) -> np.ndarray:
    """Square root of the positive part of a Hermitian matrix, of each matrix in a
    stack: negative eigenvalues clipped to zero."""
    vals, vecs = eig_hermitian(a)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ dagger(vecs)


def _lowest(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a stack; 2 x 2 in closed form."""
    if m.shape[-1] == 2:
        mid, r = spectrum2(hermitian_to_real_vec(m))
        return mid - r
    return np.linalg.eigvalsh(m)[..., 0]


def min_eig(a, atol: float | None = None) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix; an array of them for a stack."""
    lo = _lowest(require_hermitian(a, atol))
    return float(lo) if lo.ndim == 0 else lo


def spectrum2(v) -> tuple[np.ndarray, np.ndarray]:
    """``(m, r)`` with m - r <= m + r the eigenvalues of each 2 x 2 Hermitian matrix
    of a stack of real vectorizations ``v`` (..., 4), (a, d, sqrt(2) Re b, sqrt(2) Im b).

    m is the half trace and r = |H - m I|_2 = hypot((a - d) / 2, |b|).  Each
    eigenvalue is within about 5 u (|m| + r) <= 2.5 eps |v|_2 of the exact one
    (u = eps / 2: one rounding in m, at most four in r, one in m - r), inside
    the 4 d eps per block that a certificate's bound allows for eigenvalues.
    """
    v = np.asarray(v, dtype=float)
    m = 0.5 * (v[..., 0] + v[..., 1])
    r = np.hypot(0.5 * (v[..., 0] - v[..., 1]), np.hypot(v[..., 2], v[..., 3]) * _SQRT_HALF)
    return m, r


def project2(v, cap=np.inf) -> np.ndarray:
    """Real vectorization of the projection of each 2 x 2 Hermitian matrix of a stack
    of real vectorizations ``v`` (..., 4) onto {X >= 0, tr X <= cap}, in closed form.

    With eigenvalues m -+ r (:func:`spectrum2`) the projection keeps the
    eigenvectors and maps the eigenvalues to s -+ t: s -+ t are the clipped
    values max(m -+ r, 0) when their sum 2 s is at most ``cap``, and otherwise
    the spectrum is shifted down until its clipped sum is ``cap``, which
    gives s = cap / 2 and t = min(r, cap / 2).  The result is
    s I + (t / r) (H - m I), and s I for r = 0.
    """
    v = np.asarray(v, dtype=float)
    m, r = spectrum2(v)
    positive, half_top = m - r > 0, 0.5 * np.maximum(m + r, 0.0)
    s, t = np.where(positive, m, half_top), np.where(positive, r, half_top)
    half_cap = 0.5 * np.asarray(cap, dtype=float)
    over = s > half_cap
    s, t = np.where(over, half_cap, s), np.where(over, np.minimum(r, half_cap), t)
    scale = np.divide(t, r, out=np.zeros_like(r), where=r > 0)
    out = v * scale[..., None]
    shift = 0.5 * (v[..., 0] - v[..., 1]) * scale
    out[..., 0] = s + shift
    out[..., 1] = s - shift
    return out


def partial_trace(a, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Parameters
    ----------
    a : array, shape (..., D, D) with D = prod(dims); leading axes index a stack
    dims : dimensions of the tensor factors, in order
    keep : indices (into ``dims``) of the factors to retain, in their original order
    """
    dims = [int(d) for d in dims]
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} factors")
    total = int(np.prod(dims))
    m = np.asarray(a, dtype=complex)
    batch = m.shape[:-2]
    if m.shape[-2:] != (total, total):
        raise ValueError(f"shape {m.shape} does not match dims {dims}")
    t = m.reshape(batch + tuple(dims + dims))
    # row subscript i, column subscript i+n; traced factors share a subscript
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    kept = int(np.prod([dims[k] for k in keep])) if keep else 1
    return np.einsum(t, [...] + row + col, [...] + out).reshape(batch + (kept, kept))


def kron(*ops) -> np.ndarray:
    """Kronecker product of one or more matrices."""
    if not ops:
        raise ValueError("kron needs at least one matrix")
    return reduce(np.kron, [np.asarray(o, dtype=complex) for o in ops])


def op_norm(a) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


# === real vectorization ======================================================

_SQRT2 = np.sqrt(2.0)
_SQRT_HALF = np.sqrt(0.5)


def _readonly(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def real_vec_basis_indices(dim: int):
    """Index arrays defining the vectorization layout for dimension ``dim``.

    Returns ``(diag, iu, ju)``: the diagonal indices and the row/column indices
    of the strict upper triangle in row-major order.  The arrays are cached
    and shared, hence read-only.
    """
    iu, ju = np.triu_indices(dim, k=1)
    return _readonly(np.arange(dim), iu, ju)


@lru_cache(maxsize=None)
def _gather_layout(dim: int):
    """``(src, scale)`` with ``vec = flat[src] * scale``, where ``flat`` is the
    float view of the row-major complex matrix (real, imag interleaved)."""
    diag, iu, ju = real_vec_basis_indices(dim)
    upper = 2 * (iu * dim + ju)
    src = np.concatenate([2 * (diag * dim + diag), upper, upper + 1])
    scale = np.concatenate([np.ones(dim), np.full(2 * iu.size, _SQRT2)])
    return _readonly(src, scale)


@lru_cache(maxsize=None)
def _scatter_layout(dim: int):
    """``(dst, src, div)`` with ``flat[dst] = vec[src] / div`` on a zeroed
    float view; the lower triangle gets the conjugate of the upper one."""
    diag, iu, ju = real_vec_basis_indices(dim)
    k = iu.size
    re_pos = np.arange(dim, dim + k)
    upper, lower = 2 * (iu * dim + ju), 2 * (ju * dim + iu)
    dst = np.concatenate([2 * (diag * dim + diag), upper, lower, upper + 1, lower + 1])
    src = np.concatenate([diag, re_pos, re_pos, re_pos + k, re_pos + k])
    div = np.concatenate([np.ones(dim), np.full(3 * k, _SQRT2), np.full(k, -_SQRT2)])
    return _readonly(dst, src, div)


def hermitian_to_real_vec(a) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Layout: the d diagonal entries, then sqrt(2)*Re of the strict upper
    triangle (row-major), then sqrt(2)*Im of the same entries.  The Euclidean
    inner product of two vectorizations equals the Hilbert-Schmidt inner
    product tr(A B) of the matrices.
    """
    m = np.ascontiguousarray(a, dtype=complex)
    d = m.shape[-1]
    if m.shape[-2:] != (d, d):
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    src, scale = _gather_layout(d)
    flat = m.reshape(m.shape[:-2] + (d * d,)).view(float)
    return flat[..., src] * scale


def real_vec_to_hermitian(v, dim: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_real_vec`."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != dim * dim:
        raise ValueError(f"vector length {v.shape[-1]} does not match dim {dim}")
    dst, src, div = _scatter_layout(dim)
    out = np.zeros(v.shape[:-1] + (dim, dim), dtype=complex)
    out.reshape(v.shape[:-1] + (dim * dim,)).view(float)[..., dst] = v[..., src] / div
    return out
