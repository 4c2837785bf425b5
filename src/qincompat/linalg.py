"""Dense Hermitian linear algebra used by every other module.

Matrices are plain complex ``numpy`` arrays.  Hermitian inputs are accepted up
to a small max-norm slack and symmetrized on entry, so downstream code can rely
on exact Hermiticity.  The real vectorization maps a d x d Hermitian matrix to
d^2 real coordinates (diagonal first, then sqrt(2)-scaled real and imaginary
parts of the strict upper triangle); it is an isometry for the Hilbert-Schmidt
inner product, which is what the feasibility solver builds on.  Its index
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
    "min_eig",
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
    lo = np.atleast_1d(np.linalg.eigvalsh(m)[..., 0])
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
    stack: clip negative eigenvalues."""
    vals, vecs = eig_hermitian(a, atol)
    clipped = np.clip(vals, 0.0, None)
    return (vecs * clipped[..., None, :]) @ dagger(vecs)


def min_eig(a, atol: float | None = None) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix; an array of them for a stack."""
    lo = np.linalg.eigvalsh(require_hermitian(a, atol))[..., 0]
    return float(lo) if lo.ndim == 0 else lo


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
