"""Feasibility core: alternating projections onto an affine subspace and a
product of cones.

A problem is a list of variable blocks (positive semidefinite matrices with a
trace cap, or vectors of nonnegative scalars with entry caps) plus affine
equality constraints expressed on the real vectorization of the blocks.  The
solver alternates exact projections:

* onto the affine set, via eigendecompositions of Gram matrices R R^T of the
  constraint rows, in passes: each pass keeps the eigenvalues within
  ``_PASS_RANGE`` of its largest and hands the remaining rows to the next,
  until the singular values left fall below max(A.shape) * eps times the
  largest (the rank a dense SVD reveals, so redundant or dependent rows are
  harmless); a tall A is first reduced to the triangle of its QR factorization;
* onto the cone product, block by block (eigenvalue clipping, scalar clamping,
  trace rescaling when a cap is exceeded).

The one-off work of a solve runs block by block.  The factorization sees only
the touched columns of A, those some row uses (the d=4 channel pair touches
1,792 of its 4,096), and decomposes each Gram matrix by its diagonal blocks,
the connected components of its nonzero pattern, with one stacked ``eigh``
per block size.  The row-space basis and the particular solution are kept on
the touched columns only, and the affine step gathers those coordinates,
projects them and scatters them back: every other coordinate is left as it
is.  A problem is assembled once per solve, its c I terms written with one
index add per row count; the touched-column matrix also gives the
inconsistency test and the residual of every witness check.  The blocks are
grouped by kind and size once per problem, and unpacking an iterate, checking
a witness's blocks and the cone step each make one stacked call per group.

The caps make the cone product compact, so on infeasible instances the iterates
approach the minimum-distance gap pair and the residual tends to the gap
distance.  While the best residual is above ``infeas``, a separating-functional
certificate built from the gap direction is tried at iterations 1, 2, 4, ...,
doubling until the spacing reaches ``plateau_window``, then every
``plateau_window`` iterations, and at the iteration cap.  Each certificate is
validated exactly from problem data (the functional's value on the affine set
vs its infimum over the capped cones), never trusted from solver state alone,
so early attempts are as safe as late ones.

A solve starts from the affine particular solution unless it is given a
``start`` iterate; the iteration converges from any start.  Threshold
searches use this through :func:`warm_bisect`: each probe starts at the final
iterate of the search's last feasible probe, because neighbouring weights
have nearby solutions.  Infeasible probes never seed a start, since their
iterates drift along the gap direction.

Joint measurability, local hidden state models and joint testers are one
question, built once by :func:`joint_problem`: PSD blocks on a product index
set whose fibre sums equal the given devices' outcome operators, optionally
mixed with noise.  The trace cap of every joint block is derived from the
margins, the trace of the joint device's total.  Every margin row in the
package, the channel problems' included, is written by
:meth:`SdpProblem.add_margins`.  A 1x1 PSD block is the scalar interval
[0, cap]: it is clipped with the scalar blocks and checked as a scalar, and
``split`` still returns it as a 1x1 matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from . import linalg as la

__all__ = [
    "Verdict",
    "SdpProblem",
    "joint_problem",
    "joint_witness",
    "SolveResult",
    "Decision",
    "Certificate",
    "ThresholdResult",
    "real_linear_map",
    "partial_trace_map",
    "vec_of",
    "solve_feasibility",
    "verify_witness",
    "bisect_threshold",
    "warm_bisect",
]


class Verdict(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_CERTIFIED = "infeasible_certified"
    INFEASIBLE_HEURISTIC = "infeasible_heuristic"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class _Block:
    name: str
    kind: str          # "psd" | "scalar"
    dim: int           # matrix side (psd) or vector length (scalar)
    length: int        # real coordinates occupied
    offset: int
    cap: np.ndarray    # trace cap (psd, scalar shape ()) or entry caps (scalar, shape (dim,))

    @property
    def interval(self) -> bool:
        """Scalar blocks and 1x1 PSD blocks: each coordinate lies in [0, cap]."""
        return self.kind == "scalar" or self.dim == 1


def vec_of(matrix) -> np.ndarray:
    """Real vectorization of a Hermitian matrix (row vector for constraints)."""
    return la.hermitian_to_real_vec(np.asarray(matrix, dtype=complex))


def real_linear_map(fn: Callable[[np.ndarray], np.ndarray], in_dim: int, out_dim: int) -> np.ndarray:
    """Matrix of a Hermitian-to-Hermitian real-linear map in vectorized coordinates.

    ``fn`` takes a stack of Hermitian in_dim x in_dim matrices (leading axis)
    to the stack of their Hermitian out_dim x out_dim images, linearly over
    the reals.  It is applied to the basis of the real vectorization in
    in_dim slices of in_dim basis matrices, so it is called in_dim times and
    a slice holds in_dim**3 entries instead of in_dim**4.  The real
    vectorization is orthonormal, so the matrix of the adjoint map is the
    transpose: when the output side is smaller and the adjoint is known,
    build the adjoint and transpose (as :func:`partial_trace_map` does).

    The images are written as contiguous rows of the transposed matrix, and
    the result is the transposed view of those rows (column-major), so the
    transpose of a result is row-major and needs no copy.
    """
    n = in_dim * in_dim
    rows = np.empty((n, out_dim * out_dim))
    for k in range(0, n, in_dim):
        basis = la.real_vec_to_hermitian(np.eye(in_dim, n, k), in_dim)
        rows[k : k + in_dim] = la.hermitian_to_real_vec(fn(basis))
    return rows.T


PARTIAL_TRACE_MAPS_CACHED = 32


def partial_trace_map(dims, keep) -> np.ndarray:
    """Matrix of ``la.partial_trace(., dims, keep)`` in real vectorized coordinates.

    Built as the transpose of its adjoint, the lift X -> X (x) I on the traced
    factors permuted back into factor order, which :func:`real_linear_map`
    applies to kept slices of kept basis matrices instead of total slices of
    total.  The transpose of the result is the matrix of that lift.  ``keep``
    is read as ``la.partial_trace`` reads it (sorted, repeats dropped); an
    index out of range raises ``ValueError``.
    The result is row-major (C-contiguous), the rows the lift's matrix is
    written in, so equality rows copy it with contiguous reads.  The maps
    depend only on the shape, so the last ``PARTIAL_TRACE_MAPS_CACHED`` of
    them are cached and shared, hence read-only.
    """
    dims = tuple(int(d) for d in dims)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {list(keep)} out of range for {len(dims)} factors")
    return _partial_trace_map(dims, keep)


@lru_cache(maxsize=PARTIAL_TRACE_MAPS_CACHED)
def _partial_trace_map(dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    n = len(dims)
    traced = tuple(i for i in range(n) if i not in keep)
    order = keep + traced
    kept = math.prod(dims[k] for k in keep)
    total = math.prod(dims)
    eye = np.eye(total // kept)
    shape = [dims[i] for i in order] * 2
    inverse = np.argsort(order)
    axes = [0] + [1 + i for i in inverse] + [1 + n + i for i in inverse]

    def lift(x):
        t = np.kron(x, eye).reshape([-1] + shape).transpose(axes)
        return t.reshape(x.shape[:-2] + (total, total))

    m = real_linear_map(lift, kept, total).T
    m.setflags(write=False)
    return m


class SdpProblem:
    """Block-structured feasibility problem over PSD and nonnegative variables."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        self._rows: list[tuple[dict[str, float | np.ndarray], np.ndarray]] = []
        self._n = 0
        self._groups: tuple[tuple[list[_Block], np.ndarray], ...] | None = None

    # --- variables ---------------------------------------------------------

    def add_psd_block(self, name: str, dim: int, trace_cap: float) -> str:
        if name in self._blocks:
            raise ValueError(f"duplicate block name {name!r}")
        if dim < 1:
            raise ValueError("block dimension must be positive")
        if not (trace_cap > 0 and math.isfinite(trace_cap)):
            raise ValueError(f"trace cap for {name!r} must be finite and positive")
        blk = _Block(name, "psd", dim, dim * dim, self._n, np.asarray(float(trace_cap)))
        self._blocks[name] = blk
        self._n += blk.length
        self._groups = None
        return name

    def add_scalar_block(self, name: str, length: int, cap: float | np.ndarray = 1.0) -> str:
        if name in self._blocks:
            raise ValueError(f"duplicate block name {name!r}")
        caps = np.broadcast_to(np.asarray(cap, dtype=float), (length,)).copy()
        if not np.all((caps > 0) & np.isfinite(caps)):
            raise ValueError(f"caps for {name!r} must be finite and positive")
        blk = _Block(name, "scalar", length, length, self._n, caps)
        self._blocks[name] = blk
        self._n += length
        self._groups = None
        return name

    def block(self, name: str) -> _Block:
        return self._blocks[name]

    @property
    def n_vars(self) -> int:
        return self._n

    # --- constraints -------------------------------------------------------

    def add_equality(self, terms: dict[str, float | np.ndarray], rhs: np.ndarray) -> None:
        """Rows sum_b T_b vec(X_b) = rhs, with T_b of shape (k, len(b)).

        A scalar T_b = c means c times the identity, for a block of length k.
        """
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        checked = {}
        for name, t in terms.items():
            blk = self._blocks[name]
            if isinstance(t, (int, float)) or np.isscalar(t):
                if blk.length != rhs.size:
                    raise ValueError(
                        f"scalar coefficient needs block {name!r} of length {rhs.size}, not {blk.length}"
                    )
                checked[name] = float(t)
            else:
                t = np.asarray(t, dtype=float)
                if t.ndim == 1:
                    t = t[None, :]
                if t.shape != (rhs.size, blk.length):
                    raise ValueError(
                        f"coefficient block for {name!r} has shape {t.shape}, expected {(rhs.size, blk.length)}"
                    )
                checked[name] = t
        self._rows.append((checked, rhs))

    def add_margins(self, rows, lam: float) -> None:
        """One row ``terms - (1 - lam) noise = lam device`` per (terms, noise, device)."""
        for terms, noise, device in rows:
            noisy = {name: -(1 - lam) * t for name, t in noise.items()}
            self.add_equality({**terms, **noisy}, lam * device)

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        rows = sum(r.size for _, r in self._rows)
        n = self._n
        a = np.zeros((rows, n))
        b = np.zeros(rows)
        # c I terms by row count k: (flat index of the block's corner, c)
        diagonals: dict[int, tuple[list[int], list[float]]] = {}
        at = 0
        for terms, rhs in self._rows:
            k = rhs.size
            for name, t in terms.items():
                blk = self._blocks[name]
                if isinstance(t, float):
                    starts, coefs = diagonals.setdefault(k, ([], []))
                    starts.append(at * n + blk.offset)
                    coefs.append(t)
                else:
                    a[at : at + k, blk.offset : blk.offset + blk.length] += t
            b[at : at + k] = rhs
            at += k
        # c on the diagonal of each (k x k) block, one index add per k: the
        # terms of an equality hold distinct blocks, so no entry is hit twice
        flat = a.reshape(-1)
        for k, (starts, coefs) in diagonals.items():
            flat[np.array(starts)[:, None] + np.arange(k) * (n + 1)] += np.array(coefs)[:, None]
        return a, b

    # --- views -------------------------------------------------------------

    def _stacks(self) -> tuple[tuple[list[_Block], np.ndarray], ...]:
        """Blocks grouped by kind and size, for one stacked call per group.

        Each group is ``(blocks, idx)`` with ``idx[i]`` the coordinates of
        ``blocks[i]``; groups come in the order of their first block.  The
        groups are built once and shared until a block is added, so ``idx``
        is read-only.
        """
        if self._groups is None:
            groups: dict[tuple[str, int], list[_Block]] = {}
            for blk in self._blocks.values():
                groups.setdefault((blk.kind, blk.dim), []).append(blk)
            self._groups = tuple(
                (blks, np.array([b.offset for b in blks])[:, None] + np.arange(blks[0].length))
                for blks in groups.values())
            for _, idx in self._groups:
                idx.setflags(write=False)
        return self._groups

    def split(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Unpack a flat iterate into named Hermitian matrices / scalar vectors."""
        parts = {}
        for blks, idx in self._stacks():
            vals = x[idx]
            if blks[0].kind == "psd":
                vals = la.real_vec_to_hermitian(vals, blks[0].dim)
            parts.update(zip((b.name for b in blks), vals))
        return {name: parts[name] for name in self._blocks}


def joint_problem(margins, weights=None, noise_side: int = 1) -> SdpProblem:
    """Joint device with the given margins: the one compatibility question.

    ``margins[k]`` stacks the kth device's outcome operators M_k(x), all of
    one side.  The joint device lies on the outcome grid of shape
    ``counts = (len(M_0), len(M_1), ...)`` in C order: block ``g{i}`` is the
    ith tuple of ``itertools.product``, and for every (k, x) the blocks whose
    kth index is x sum to M_k(x).  Every g block has the trace cap
    tr sum_x M_0(x), the trace of the joint device's total.

    With ``weights`` the kth margin is w_k M_k(x) + (1 - w_k) N_k(x) (x) I
    instead, for noise blocks ``n{k}_{x}`` >= 0 of side ``noise_side`` with
    sum_x tr N_k(x) = 1.  Side 1 is trivial noise p_k(x) I; the input side of
    a tester is channel-blind noise.
    """
    side = margins[0].shape[-1]
    cap = float(np.trace(margins[0].sum(axis=0)).real)
    counts = tuple(len(m) for m in margins)
    prob = SdpProblem()
    grid = np.array([prob.add_psd_block(f"g{i}", side, cap) for i in range(math.prod(counts))]).reshape(counts)
    # fibre (k, x): the grid's slice at index x of axis k, in block order
    fibres = [[dict.fromkeys(np.take(grid, x, axis=k).ravel().tolist(), 1.0) for x in range(c)]
              for k, c in enumerate(counts)]
    if weights is None:
        for fibre, m in zip(fibres, margins):
            prob.add_margins(zip(fibre, [{}] * len(m), vec_of(m)), 1.0)
        return prob
    lift = partial_trace_map((noise_side, side // noise_side), (0,)).T
    tr_row = vec_of(np.eye(noise_side))[None, :]
    for k, (fibre, m) in enumerate(zip(fibres, margins)):
        noise = [prob.add_psd_block(f"n{k}_{x}", noise_side, 1.0) for x in range(len(m))]
        prob.add_margins(zip(fibre, [{n: lift} for n in noise], vec_of(m)), weights[k])
        prob.add_equality(dict.fromkeys(noise, tr_row), np.array([1.0]))
    return prob


def joint_witness(witness: dict[str, np.ndarray], counts) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """``(grid, noise)`` of a solved :func:`joint_problem`: ``grid[t]``, of shape
    ``(*counts, side, side)``, is the block of outcome tuple t, and ``noise``
    holds one ``(counts[k], s, s)`` stack per margin, or is ``None``."""
    blocks = np.stack([witness[f"g{i}"] for i in range(math.prod(counts))])
    grid = blocks.reshape(tuple(counts) + blocks.shape[1:])
    if "n0_0" not in witness:
        return grid, None
    return grid, tuple(np.stack([witness[f"n{k}_{x}"] for x in range(c)]) for k, c in enumerate(counts))


@dataclass(frozen=True)
class Certificate:
    """Separating functional: constant on the affine set, below it on the cones."""

    functional: dict[str, np.ndarray]
    affine_value: float
    cone_infimum: float

    @property
    def gap(self) -> float:
        return self.affine_value - self.cone_infimum


@dataclass(frozen=True)
class SolveResult:
    verdict: Verdict
    witness: dict[str, np.ndarray] | None
    iterations: int
    residual: float
    certificate: Certificate | None = None
    message: str = ""
    iterate: np.ndarray | None = None  # final fixed-point variable x; a later solve's start

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.FEASIBLE


@dataclass(frozen=True)
class Decision:
    """A check's answer: the deciding solve; subclasses add the typed witness."""

    solve: SolveResult

    def __post_init__(self):
        if not isinstance(self.solve, SolveResult):
            raise TypeError(f"{type(self).__name__} takes the deciding SolveResult first, "
                            f"not {type(self.solve).__name__}")

    @property
    def verdict(self) -> Verdict:
        return self.solve.verdict

    @property
    def feasible(self) -> bool:
        return self.solve.feasible


def _block_eigh(gram: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``eigh`` of a symmetric matrix by the diagonal blocks of its nonzero pattern.

    The blocks are the connected components of the pattern: every row takes
    the smallest row index it reaches along nonzero entries.  Returns one
    ``(idx, w, u)`` per block size, from one stacked ``eigh``: ``idx[k]``
    lists the rows of the kth block of that size in ascending order, and
    ``w[k]``, ``u[k]`` are the eigenvalues and eigenvectors of
    ``gram[idx[k]][:, idx[k]]``.  A matrix that is one block takes a single
    ``eigh`` of the whole.
    """
    n = len(gram)
    linked = gram != 0
    label = np.arange(n)
    while True:
        low = np.minimum(label, np.where(linked, label, n).min(axis=1))
        low = low[low]  # the label of a label is in the same block and no larger
        if np.array_equal(low, label):
            break
        label = low
    size = np.bincount(label, minlength=n)[label]
    order = np.lexsort((label, size))  # by block size, then block; rows stay ascending
    out = []
    for rows in np.split(order, np.flatnonzero(np.diff(size[order])) + 1):
        idx = rows.reshape(-1, size[rows[0]])
        w, u = np.linalg.eigh(gram[idx[:, :, None], idx[:, None, :]])
        out.append((idx, w, u))
    return out


# One pass of the affine factorization keeps the Gram eigenvalues within this
# factor of its largest: their singular vectors come out orthonormal to about
# eps / _PASS_RANGE, and the remaining rows go to the next pass.
_PASS_RANGE = 1e-3


def _row_space(a: np.ndarray, b: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the row space of ``a`` and the least-norm solution of a x = b.

    The rank is the one a dense SVD reveals with the cut ``cut``: singular
    values above ``cut`` times the largest.  Each pass factorizes the Gram
    matrix R R^T = U W U^T of the rows R not yet resolved, block by block
    (:func:`_block_eigh`), and rotates R into the rows U^T R, whose squared
    norms are W.  Rows with W within ``_PASS_RANGE`` of the largest,
    scaled by W^-1/2, are basis vectors; the other rows hold the remaining
    directions, and the next pass resolves those relative to their own size.
    A tall ``a`` is first replaced by the triangle of its QR factorization,
    so no Gram matrix exceeds min(a.shape)^2.
    """
    rows, rhs = a, b
    if a.shape[0] > a.shape[1]:
        q, rows = np.linalg.qr(a)
        rhs = q.T @ b
    vr = np.zeros((a.shape[1], 0))
    coef = np.zeros(0)
    floor = None  # eigenvalue of the SVD rank cut, set by the first pass
    while rows.shape[0]:
        gram = rows @ rows.T
        if floor is not None and np.trace(gram) <= floor:
            break
        # U^T R and U^T rhs, one stacked eigh and product per block size: a
        # block's eigenvectors combine only its own rows
        w = np.empty(len(rows))
        turned = np.empty_like(rows)
        turned_rhs = np.empty_like(rhs)
        at = 0
        for idx, wb, u in _block_eigh(gram):
            span = slice(at, at + idx.size)
            w[span] = wb.ravel()
            np.matmul(np.swapaxes(u, 1, 2), rows[idx], out=turned[span].reshape(idx.shape + (-1,)))
            turned_rhs[span] = np.einsum("kij,ki->kj", u, rhs[idx]).ravel()
            at += idx.size
        if floor is None:
            floor = cut**2 * w.max()
        keep = w > max(_PASS_RANGE * w.max(), floor)
        if not keep.any():
            break
        s = np.sqrt(w[keep])
        found = turned[keep]
        found /= s[:, None]
        vr = np.hstack([vr, found.T]) if vr.size else found.T
        coef = np.concatenate([coef, turned_rhs[keep] / s])
        # the other rotated rows are orthogonal to vr, exactly so without
        # rounding.  Writing x = vr coef + y with y orthogonal to vr, they give
        # rows' y = rhs - (rows vr) coef, where rows' has vr projected out;
        # that keeps the next pass's vectors orthogonal to vr, and the
        # right-hand side carries the rounding of the rotation
        rows, rhs = turned[~keep], turned_rhs[~keep]
        cross = rows @ vr
        rows = rows - cross @ vr.T
        rhs = rhs - cross @ coef
    return vr, vr @ coef


class _Projector:
    """Precomputed projections for one problem.

    Only the touched columns of the constraint matrix A, those some row
    uses, enter the factorization: ``a`` holds them and ``cols`` their
    indices, and A x = a x[cols] for every x.  ``vr`` and ``x_part`` hold the
    row-space basis and the least-norm solution on those columns only; on
    every other coordinate the basis is zero, so the affine step leaves
    those coordinates as they are.
    """

    def __init__(self, problem: SdpProblem):
        self.problem = problem
        a, self.b = problem.assemble()
        self.cols = np.flatnonzero(np.any(a != 0, axis=0))
        cut = max(a.shape) * np.finfo(float).eps
        self.a = a = np.take(a, self.cols, axis=1)  # the only copy kept, row-major
        self.vr, self.x_part = _row_space(a, self.b, cut)
        self.inconsistency = float(np.abs(a @ self.x_part - self.b).max(initial=0.0))
        # psd blocks of one side share a batched eigendecomposition; 1x1
        # blocks are clipped with the scalars, with no eigh group of their own
        self.psd_groups = []
        scalar_idx, scalar_caps = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for blks, idx in problem._stacks():
            if blks[0].interval:
                scalar_idx.append(idx.ravel())
                scalar_caps += [np.broadcast_to(b.cap, (b.length,)) for b in blks]
            else:
                dim = blks[0].dim
                caps = np.array([float(b.cap) for b in blks])
                self.psd_groups.append((dim, idx, caps, np.arange(1, dim + 1)))
        # interval coordinates in layout order
        order = np.argsort(np.concatenate(scalar_idx))
        self.scalar_idx = np.concatenate(scalar_idx)[order]
        self.scalar_caps = np.concatenate(scalar_caps)[order]

    def affine(self, x: np.ndarray) -> np.ndarray:
        y = x.copy()
        xc = y[self.cols]
        xc -= self.vr @ (self.vr.T @ xc)
        xc += self.x_part
        y[self.cols] = xc
        return y

    def cone(self, x: np.ndarray) -> np.ndarray:
        z = x.copy()
        for dim, idx, caps, counts in self.psd_groups:
            mats = la.real_vec_to_hermitian(z[idx], dim)
            vals, vecs = np.linalg.eigh(mats)
            w = np.clip(vals, 0.0, None)
            over = w.sum(axis=1) > caps
            if np.any(over):
                # exact projection of the spectrum onto {w >= 0, sum w <= cap}:
                # uniform shift, not rescaling; eigh returns ascending values,
                # so reversing them sorts descending
                lam = vals[over]
                c = caps[over]
                srt = lam[:, ::-1]
                csum = np.cumsum(srt, axis=1)
                theta_j = (csum - c[:, None]) / counts
                jstar = np.sum(srt > theta_j, axis=1)
                theta = theta_j[np.arange(len(c)), jstar - 1]
                w[over] = np.clip(lam - theta[:, None], 0.0, None)
            mats = (vecs * w[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2))
            z[idx] = la.hermitian_to_real_vec(mats)
        if self.scalar_idx.size:
            z[self.scalar_idx] = np.clip(z[self.scalar_idx], 0.0, self.scalar_caps)
        return z

    def cone_infimum(self, h: np.ndarray) -> float:
        """Exact infimum of <h, x> over the capped cone product."""
        total = 0.0
        for dim, idx, caps, _ in self.psd_groups:
            mats = la.real_vec_to_hermitian(h[idx], dim)
            vals = np.linalg.eigvalsh(mats)
            total += float(np.sum(caps * np.minimum(vals[:, 0], 0.0)))
        if self.scalar_idx.size:
            total += float(np.sum(self.scalar_caps * np.minimum(h[self.scalar_idx], 0.0)))
        return total


def _certificate(proj: _Projector, z: np.ndarray, a_pt: np.ndarray, tols: Tolerances):
    """Validate a separating functional from the gap direction z - P_affine(z)."""
    # in the row space of A, h = A^T y, so <h, x> = y.b at every affine point;
    # h is zero off the touched columns
    gap = (z - a_pt)[proj.cols]
    h = np.zeros_like(z)
    h[proj.cols] = proj.vr @ (proj.vr.T @ gap)
    nh = float(np.linalg.norm(h))
    if nh < 1e-15:
        return None
    h = h / nh
    affine_value = float(h @ a_pt)
    cone_inf = proj.cone_infimum(h)
    if not affine_value - cone_inf < -tols.feas:  # a NaN gap never validates
        return None
    return Certificate(proj.problem.split(h), affine_value, cone_inf)


def verify_witness(problem: SdpProblem, witness: dict[str, np.ndarray], tols: Tolerances | None = None,
                   constraints: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
    """Independent witness check: constraint residuals and cone memberships.

    Returns (ok, report) with the worst residuals; thresholds are
    ``witness_factor * feas`` per the solver contract.  The witness is
    vectorized and its blocks checked with one stacked call per block size.
    ``constraints`` is ``(a, cols, b)``, the assembled constraints with A
    restricted to the columns ``cols`` that some row uses, when the caller
    already holds them (the solver passes its projector's); otherwise the
    problem is assembled here.
    """
    tols = tols or DEFAULT_TOLS
    slack = tols.witness_atol
    for name in witness:
        problem.block(name)  # an unknown name raises KeyError
    x = np.zeros(problem.n_vars)
    worst_eig = 0.0
    worst_scalar = 0.0
    for blks, idx in problem._stacks():
        given = [i for i, b in enumerate(blks) if b.name in witness]
        if not given:
            continue
        vals = [witness[blks[i].name] for i in given]
        head = blks[0]
        if head.kind == "psd":
            x[idx[given]] = la.hermitian_to_real_vec(np.asarray(vals, dtype=complex))
        else:
            x[idx[given]] = np.asarray(vals, dtype=float)
        if head.interval:
            worst_scalar = min(worst_scalar, float(x[idx].min(initial=0.0)))
        else:
            lo = np.linalg.eigvalsh(la.real_vec_to_hermitian(x[idx], head.dim))[:, 0]
            worst_eig = min(worst_eig, float(lo.min()))
    if constraints is None:
        a, b = problem.assemble()
        cols = slice(None)
    else:
        a, cols, b = constraints
    constraint_residual = float(np.abs(a @ x[cols] - b).max()) if a.shape[0] else 0.0
    ok = constraint_residual < slack and worst_eig > -slack and worst_scalar > -slack
    report = {
        "constraint_residual": constraint_residual,
        "min_eigenvalue": worst_eig,
        "min_scalar": worst_scalar,
        "slack": slack,
    }
    return ok, report


def solve_feasibility(problem: SdpProblem, tols: Tolerances | None = None,
                      start: np.ndarray | None = None) -> SolveResult:
    """Decide feasibility of the block problem by alternating projections.

    The iteration is the reflected (averaged) form of alternating projections:
    x <- x + P_cone(2 P_aff(x) - x) - P_aff(x).  It uses exactly the two
    projections of the plain scheme but converges geometrically on many
    instances where the feasible set touches the cone boundary tangentially,
    which is the generic situation for compatibility questions whose unique
    joint device is an extreme point.  The tracked residual is the distance
    between the two projected points; it tends to zero exactly on feasible
    problems and to the gap distance on infeasible ones.

    ``start`` is the initial x, a flat vector of length ``problem.n_vars``
    (for instance ``iterate`` of an earlier result); ``None`` starts at the
    affine particular solution.  A start changes only the path, never how a
    verdict is checked.
    """
    tols = tols or DEFAULT_TOLS
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (problem.n_vars,):
            raise ValueError(f"start has shape {start.shape}, expected ({problem.n_vars},)")
        if not np.all(np.isfinite(start)):
            raise ValueError("start has non-finite entries")
    proj = _Projector(problem)
    if proj.inconsistency > 1e-9 * (1.0 + float(np.abs(proj.b).max(initial=0.0))):
        cert = Certificate({}, float("nan"), float("nan"))
        return SolveResult(
            Verdict.INFEASIBLE_CERTIFIED,
            None,
            0,
            proj.inconsistency,
            cert,
            "affine constraints are inconsistent (empty affine set)",
        )
    if start is None:
        x = np.zeros(problem.n_vars)
        x[proj.cols] = proj.x_part
    else:
        x = start.copy()
    best = float("inf")
    res = float("inf")
    pl = pk = x
    next_attempt = 1
    for it in range(1, tols.max_iter + 1):
        pl = proj.affine(x)
        pk = proj.cone(2.0 * pl - x)
        x = x + pk - pl
        res = float(np.linalg.norm(pk - pl))
        if res < tols.feas:
            a_pt = proj.affine(pk)
            witness = problem.split(a_pt)
            ok, _ = verify_witness(problem, witness, tols, (proj.a, proj.cols, proj.b))
            if ok:
                return SolveResult(Verdict.FEASIBLE, witness, it, res, iterate=x)
        best = min(best, res)
        # certificates are validated exactly, so an early attempt is safe: try
        # at iterations 1, 2, 4, ... and then every plateau_window iterations,
        # and at the cap; a failed attempt never ends the run
        if it == next_attempt or it == tols.max_iter:
            next_attempt += min(it, tols.plateau_window)
            if best > tols.infeas:
                cert = _certificate(proj, pk, pl, tols)
                if cert is not None:
                    return SolveResult(
                        Verdict.INFEASIBLE_CERTIFIED, None, it, res, cert,
                        "validated separating functional", x,
                    )
    if best > tols.infeas:
        return SolveResult(
            Verdict.INFEASIBLE_HEURISTIC, None, tols.max_iter, res, None,
            "iteration cap with residual above the infeasibility tolerance", x,
        )
    return SolveResult(
        Verdict.UNDECIDED, None, tols.max_iter, res, None,
        "iteration cap with residual between tolerances", x,
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Largest certified-feasible parameter of a monotone family."""

    value: float
    history: tuple[tuple[float, bool], ...] = field(default=())


def bisect_threshold(
    feasible_at: Callable[[float], bool],
    tol: float | None = None,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ThresholdResult:
    """Bisection for the supremum of {lam : feasible_at(lam)} on [lo, hi].

    ``feasible_at`` must be monotone (feasible below, infeasible above).  The
    returned value brackets the true threshold from the feasible side, so it is
    a certified-feasible underestimate within ``tol``.  The monotonicity
    precondition is checked on the observed evaluations; a feasible evaluation
    above an infeasible one raises ``ValueError``.
    """
    tol = DEFAULT_TOLS.bisect_tol if tol is None else tol
    if not (hi > lo):
        raise ValueError("need hi > lo")
    history: list[tuple[float, bool]] = []

    def probe(lam: float) -> bool:
        ok = bool(feasible_at(lam))
        history.append((lam, ok))
        feas = [l for l, v in history if v]
        infeas = [l for l, v in history if not v]
        if feas and infeas and max(feas) > min(infeas):
            raise ValueError(
                f"non-monotone feasibility: feasible at {max(feas):.6g} "
                f"but infeasible at {min(infeas):.6g}"
            )
        return ok

    if probe(hi):
        return ThresholdResult(hi, tuple(history))
    if not probe(lo):
        raise ValueError(f"feasible_at({lo}) is false; bisection needs a feasible lower bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(lo, tuple(history))


def warm_bisect(
    solve_at: Callable[[float, np.ndarray | None], SolveResult],
    tol: float | None = None,
) -> ThresholdResult:
    """:func:`bisect_threshold` over solves that reuse the last feasible iterate.

    ``solve_at(lam, start)`` decides the problem at ``lam``, starting the
    solver at ``start`` (``None`` for a cold start), and returns the deciding
    result; a probe is feasible exactly when that result is.  Each probe
    starts at the final iterate of the last feasible probe.  Infeasible
    probes are never used as starts: their iterates run off along the gap
    direction.
    """
    start = None

    def feasible_at(lam: float) -> bool:
        nonlocal start
        res = solve_at(lam, start)
        if res.feasible:
            start = res.iterate
        return res.feasible

    return bisect_threshold(feasible_at, tol)
