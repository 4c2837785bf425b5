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
distance.  A separating-functional certificate built from the gap direction
is tried at iterations 1, 2, 4, ..., doubling until the spacing reaches
``_ATTEMPT_SPACING``, then every ``_ATTEMPT_SPACING`` iterations, and at the
iteration cap, whatever the residual: infeasibility shows in the iterates at
any residual.  Each certificate is validated exactly from problem data (the
functional's value on the affine set vs its infimum over the capped cones),
never trusted from solver state alone, so early attempts are as safe as late
ones.  A solve that reaches the cap with neither a witness nor a certificate
is ``UNDECIDED``.

A solve starts from the affine particular solution unless it is given a
``start`` iterate; the iteration converges from any start.

A threshold search (:func:`threshold_search`) decides a family of problems
whose weight lam enters only the right-hand side, affinely: the margin rows
of :meth:`SdpProblem.add_margins` carry the noise as (1 - lam) N, so their
coefficients do not depend on lam.  The search factorizes the family once,
with the two right-hand sides b(0) and b(1) - b(0), and each probe solves
its member from that factorization, warm-started at the final iterate of
the last feasible probe (neighbouring weights have nearby solutions;
infeasible iterates drift along the gap direction and never seed a start).
A certified probe's functional h lies in the row space of the fixed A, so
its gap <h, x_part(lam)> - inf_cones <h, .> is affine in lam: it excludes
every weight above the root of gap = -feas, and :func:`bisect_threshold`
drops the bracket's top to that root and approaches it from below.

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

import copy
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
    "UpperEnd",
    "bisect_threshold",
    "threshold_search",
]


class Verdict(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_CERTIFIED = "infeasible_certified"
    UNDECIDED = "undecided"
    # an alias of UNDECIDED, kept because the benchmark reads the old name;
    # it goes with the benchmark change that retires that read
    INFEASIBLE_HEURISTIC = "undecided"


_ATTEMPT_SPACING = 200  # largest spacing of certificate attempts (1, 2, 4, ... up to it)


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
        # set only on a threshold search's members (see _Projector.at), which
        # no one adds to: their family's projector at their weight
        self._projector: _Projector | None = None

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

    def add_margins(self, rows, lam: float, norms=()) -> None:
        """Margins of devices mixed at weight ``lam`` with noise.

        One row ``terms - noise = lam device`` per (terms, noise, device), and
        one row ``terms = (1 - lam) rhs`` per (terms, rhs) in ``norms``, the
        noise's normalization.  The noise blocks hold (1 - lam) times the
        noise, so no coefficient depends on ``lam`` and the right-hand side
        depends on it affinely: a threshold search factorizes once.  Their
        trace caps still bound them, as 1 - lam <= 1.
        """
        for terms, noise, device in rows:
            self.add_equality({**terms, **{name: -t for name, t in noise.items()}}, lam * device)
        for terms, rhs in norms:
            self.add_equality(terms, (1 - lam) * rhs)

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

    def join(self, parts: dict[str, np.ndarray]) -> np.ndarray:
        """Flat vector of named blocks, the inverse of :meth:`split`.

        Blocks not in ``parts`` are zero; an unknown name raises ``KeyError``.
        """
        for name in parts:
            self.block(name)  # an unknown name raises KeyError
        x = np.zeros(self._n)
        for blks, idx in self._stacks():
            given = [i for i, b in enumerate(blks) if b.name in parts]
            if not given:
                continue
            vals = [parts[blks[i].name] for i in given]
            if blks[0].kind == "psd":
                x[idx[given]] = la.hermitian_to_real_vec(np.asarray(vals, dtype=complex))
            else:
                x[idx[given]] = np.asarray(vals, dtype=float)
        return x


def joint_problem(margins, weights=None, noise_side: int = 1) -> SdpProblem:
    """Joint device with the given margins: the one compatibility question.

    ``margins[k]`` stacks the kth device's outcome operators M_k(x), all of
    one side.  The joint device lies on the outcome grid of shape
    ``counts = (len(M_0), len(M_1), ...)`` in C order: block ``g{i}`` is the
    ith tuple of ``itertools.product``, and for every (k, x) the blocks whose
    kth index is x sum to M_k(x).  Every g block has the trace cap
    tr sum_x M_0(x), the trace of the joint device's total.

    With ``weights`` the kth margin is w_k M_k(x) + (1 - w_k) N_k(x) (x) I
    instead, for noise N_k(x) >= 0 of side ``noise_side`` with
    sum_x tr N_k(x) = 1; block ``n{k}_{x}`` holds (1 - w_k) N_k(x) (see
    :meth:`SdpProblem.add_margins`).  Side 1 is trivial noise p_k(x) I; the
    input side of a tester is channel-blind noise.
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
        prob.add_margins(zip(fibre, [{n: lift} for n in noise], vec_of(m)), weights[k],
                         [(dict.fromkeys(noise, tr_row), np.array([1.0]))])
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
    """Orthonormal basis of the row space of ``a`` and the least-norm solutions of a x = b.

    ``b`` holds one right-hand side per column, and column j of the second
    result solves for column j of ``b``.

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
    coef = np.zeros((0, b.shape[1]))
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
            turned_rhs[span] = np.einsum("kij,kil->kjl", u, rhs[idx]).reshape(-1, rhs.shape[1])
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
        coef = np.concatenate([coef, turned_rhs[keep] / s[:, None]])
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


def _same_cones(p: SdpProblem, q: SdpProblem) -> bool:
    """Same blocks, with caps equal up to the rounding of caps derived from data."""
    pairs = list(zip(p._blocks.values(), q._blocks.values()))
    return len(p._blocks) == len(q._blocks) and all(
        (b.name, b.kind, b.dim) == (c.name, c.kind, c.dim) and np.allclose(b.cap, c.cap, rtol=1e-12, atol=0.0)
        for b, c in pairs)


class _Projector:
    """Precomputed projections for one problem, or for an affine family.

    Only the touched columns of the constraint matrix A, those some row
    uses, enter the factorization: ``a`` holds them and ``cols`` their
    indices, and A x = a x[cols] for every x.  ``vr`` and ``x_part`` hold the
    row-space basis and the least-norm solution on those columns only; on
    every other coordinate the basis is zero, so the affine step leaves
    those coordinates as they are.

    With ``at_one`` the projector factorizes the family lam -> problem(lam)
    whose members at 0 and 1 are ``problem`` and ``at_one``.  Their A must
    be equal and their cones too, up to caps that differ by rounding
    (members take those of ``problem``), else ``ValueError``; then
    b(lam) = b + lam db and x_part(lam) = x_part + lam dx, from one
    factorization with the columns b and db.  :meth:`at` gives a member and :meth:`upper_end` the crossing
    of a member's certificate.
    """

    def __init__(self, problem: SdpProblem, at_one: SdpProblem | None = None):
        a, b = problem.assemble()
        rhs = b[:, None]
        self.at_one = at_one
        if at_one is not None:
            a1, b1 = at_one.assemble()
            if not (np.array_equal(a, a1) and _same_cones(problem, at_one)):
                raise ValueError("the family's constraint matrix or cones depend on its weight")
            self.db = b1 - b
            rhs = np.column_stack([b, self.db])
        self.cols = np.flatnonzero(np.any(a != 0, axis=0))
        cut = max(a.shape) * np.finfo(float).eps
        self.a = a = np.take(a, self.cols, axis=1)  # the only copy kept, row-major
        self.vr, x_parts = _row_space(a, rhs, cut)
        if at_one is not None:
            self.dx = x_parts[:, 1]
        self._place(problem, b, x_parts[:, 0])
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

    def _place(self, problem: SdpProblem, b: np.ndarray, x_part: np.ndarray) -> None:
        self.problem, self.b, self.x_part = problem, b, x_part
        self.inconsistency = float(np.abs(self.a @ x_part - b).max(initial=0.0))

    def at(self, lam: float) -> SdpProblem:
        """The family's problem at ``lam``, carrying its projector (no new factorization)."""
        base = self.problem
        member = copy.copy(base)
        member._rows = [(terms, r0 + lam * (r1 - r0))
                        for (terms, r0), (_, r1) in zip(base._rows, self.at_one._rows)]
        proj = copy.copy(self)
        proj.at_one = None
        proj._place(member, self.b + lam * self.db, self.x_part + lam * self.dx)
        member._projector = proj
        return member

    def upper_end(self, lam: float, cert: Certificate, feas: float) -> float | None:
        """Weight above which ``cert``, certified at ``lam``, excludes every member.

        The functional h is constant on each member's affine set, so its gap
        g(mu) = <h, x_part(mu)> - inf_cones <h, .> is affine in mu, and every
        mu with g(mu) < -feas is certified infeasible.  Returns the root of
        g = -feas, with 2**-10 feas to spare for rounding, capped at ``lam``;
        ``None`` when the gap does not fall with the weight.
        """
        h = self.problem.join(cert.functional)[self.cols]
        slope = float(h @ self.dx)
        gap0 = float(h @ self.x_part) - cert.cone_infimum
        if not (slope < 0 and gap0 + lam * slope < -feas):  # a NaN gap never validates
            return None
        return min(lam, (-(1 + 2**-10) * feas - gap0) / slope)

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
    x = problem.join(witness)
    worst_eig = 0.0
    worst_scalar = 0.0
    for blks, idx in problem._stacks():
        if not any(b.name in witness for b in blks):
            continue
        head = blks[0]
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
    proj = problem._projector if problem._projector is not None else _Projector(problem)
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
        # certificates are validated exactly, so an early attempt is safe: try
        # at iterations 1, 2, 4, ... and then every _ATTEMPT_SPACING
        # iterations, and at the cap; a failed attempt never ends the run
        if it == next_attempt or it == tols.max_iter:
            next_attempt += min(it, _ATTEMPT_SPACING)
            cert = _certificate(proj, pk, pl, tols)
            if cert is not None:
                return SolveResult(
                    Verdict.INFEASIBLE_CERTIFIED, None, it, res, cert,
                    "validated separating functional", x,
                )
    return SolveResult(
        Verdict.UNDECIDED, None, tols.max_iter, res, None,
        "iteration cap without a witness or a validated certificate", x,
    )


@dataclass(frozen=True)
class UpperEnd:
    """An infeasible probe's certified upper end, at most the probe's weight:
    ``certificate`` excludes every weight above ``at``."""

    at: float
    certificate: Certificate


@dataclass(frozen=True)
class ThresholdResult:
    """Largest certified-feasible parameter of a monotone family.

    ``upper`` is the smallest certified upper end the search found, or
    ``None`` when no probe returned one.
    """

    value: float
    history: tuple[tuple[float, bool], ...] = field(default=())
    upper: UpperEnd | None = None


def bisect_threshold(
    feasible_at: Callable[[float], bool | UpperEnd],
    tol: float | None = None,
    lo: float = 0.0,
    hi: float = 1.0,
) -> ThresholdResult:
    """Bisection for the supremum of {lam : feasible_at(lam)} on [lo, hi].

    ``feasible_at`` must be monotone (feasible below, infeasible above).  It
    returns a bool, or an :class:`UpperEnd` for an infeasible probe whose
    certificate excludes every weight above ``UpperEnd.at``; the bracket's
    top then drops to that end.  While the top is a certified end, the next
    probe is top - max(tol / 2, (top - bottom) / 4), so the search nears the
    threshold from below, where warm starts converge fast, and a feasible
    probe tol / 2 under the end finishes it; otherwise it is the midpoint.
    The returned value brackets the true threshold from the feasible side,
    so it is a certified-feasible underestimate within ``tol``, which must be
    finite and positive.  The search also stops when the next probe would
    round to an end of the bracket.  The monotonicity precondition is
    checked on the observed evaluations; a feasible evaluation above an
    infeasible one or above a certified end raises ``ValueError``.
    """
    tol = DEFAULT_TOLS.bisect_tol if tol is None else tol
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"bisection tolerance {tol} must be finite and positive")
    if not (hi > lo):
        raise ValueError("need hi > lo")
    history: list[tuple[float, bool]] = []
    upper: UpperEnd | None = None

    def probe(lam: float) -> bool | UpperEnd:
        nonlocal upper
        got = feasible_at(lam)
        if isinstance(got, UpperEnd):
            if not got.at <= lam:
                raise ValueError(f"upper end {got.at} lies above its probe {lam}")
            history.append((lam, False))
            upper = got  # at most lam < hi, so below every earlier end
        else:
            got = bool(got)
            history.append((lam, got))
        feas = [l for l, v in history if v]
        infeas = [l for l, v in history if not v] + ([upper.at] if upper else [])
        if feas and infeas and max(feas) > min(infeas):
            raise ValueError(
                f"non-monotone feasibility: feasible at {max(feas):.6g} "
                f"but infeasible at {min(infeas):.6g}"
            )
        return got

    got = probe(hi)
    if got is True:
        return ThresholdResult(hi, tuple(history))
    certified = isinstance(got, UpperEnd)  # the top of the bracket is a certified end
    if certified:
        hi = got.at
    if probe(lo) is not True:
        raise ValueError(f"feasible_at({lo}) is false; bisection needs a feasible lower bracket")
    while hi - lo > tol:
        lam = hi - max(tol / 2, (hi - lo) / 4) if certified else 0.5 * (lo + hi)
        if not lo < lam < hi:  # the bracket is below the float spacing
            break
        got = probe(lam)
        if got is True:
            lo = lam
        else:
            certified = isinstance(got, UpperEnd)
            hi = got.at if certified else lam
    return ThresholdResult(lo, tuple(history), upper)


def threshold_search(
    build: Callable[[float], SdpProblem],
    tols: Tolerances | None = None,
    recheck: Callable[[float, SolveResult], SolveResult] | None = None,
) -> ThresholdResult:
    """Largest weight in [0, 1] at which the problem ``build(weight)`` is feasible.

    ``build`` gives a monotone family whose weight enters only the
    right-hand side, affinely (as :meth:`SdpProblem.add_margins` writes
    it); a family whose constraint matrix or cones differ at weights 0 and
    1 raises ``ValueError``.  The family is built at 0 and 1 and factorized
    once; the factorization lives as long as the search.  Each probe is one
    :func:`solve_feasibility` of its member, started at the final iterate
    of the last feasible probe; a certified probe hands
    :func:`bisect_threshold` its functional's crossing as an upper end.
    ``recheck(weight, result)``, when given, rechecks a probe's result and
    may replace it, for instance to downgrade a FEASIBLE witness a caller
    cannot accept.
    """
    tols = tols or DEFAULT_TOLS
    family = _Projector(build(0.0), build(1.0))
    start = None

    def probe(lam: float) -> bool | UpperEnd:
        nonlocal start
        res = solve_feasibility(family.at(lam), tols, start)
        if recheck is not None:
            res = recheck(lam, res)
        if res.feasible:
            start = res.iterate
            return True
        if res.verdict is Verdict.INFEASIBLE_CERTIFIED:
            at = family.upper_end(lam, res.certificate, tols.feas)
            if at is not None:
                return UpperEnd(at, res.certificate)
        return False

    return bisect_threshold(probe, tols.bisect_tol)
