"""Feasibility core: alternating projections onto an affine subspace and a
product of cones.

A problem is a list of named records of variable blocks (positive
semidefinite matrices with a trace cap, or vectors of nonnegative scalars with
entry caps), each one block or a stack of equal blocks, plus affine equality
constraints expressed on the real vectorization of the blocks.  The solver
alternates exact projections:

* onto the affine set, via the SVD of the constraint matrix A, cut at
  max(A.shape) * eps times the largest singular value (so redundant or
  dependent rows are harmless);
* onto the cone product, block by block (eigenvalue clipping, scalar clamping,
  trace rescaling when a cap is exceeded); blocks of side 2 in closed form.

The one-off work of a solve costs what the data costs.  A problem keeps A as
the triplets (row, column, value) of its nonzero entries, each term converted
once as it is added (entries at one place added up), and the solve path never
makes A dense: A x, A^T y and |A|_F are sums over the triplets.  The
factorization sees only the touched
columns of A, those some row uses (the d=4 channel pair touches 1,792 of its
4,096), split into the connected components of their pattern (the d=4 pair
has 400, of 8 x 16 or 1 x 4), scattered into one stack per component shape
and factorized on the stack's tall side by one SVD of its distinct matrices
(each of the d=4 pair's two stacks holds a single one).  The row-space basis
stays in those stacks, so the affine step and the certificate attempt make a
few products per component shape and never read a touched x rank matrix;
below a crossover (``_DENSE_BASIS``) the basis is one dense matrix instead,
for which one product is faster than the loop over shapes.  Coordinates
outside the basis pass the affine step unchanged.  The blocks are grouped by
side once per layout (see below) and their caps once per solve (``_Data``), and
checking a witness's blocks and the cone
step each make one stacked call per side, with no LAPACK call for blocks of
side 2 (``la.project2``, ``la.spectrum2``); unpacking an iterate makes one
per record.

A problem's layout (:class:`_Layout`: its records without caps, A's triplets
and its row groups, every array read-only) holds the factorization, made at
the first unreduced solve on it.  :func:`joint_problem` keeps the layouts it
builds in a least-recently-used memo of ``_JOINT_LAYOUTS`` (16; the
benchmark's workloads ask 3 to 9), keyed on ``factors``, each margin's
``(axes, keep, on, device shape)`` and the noise class (``None`` without
weights).  Its gate runs first on every call; a question of a known shape
then builds only its caps and b, with no triplet copied and no SVD.
Hand-built problems, the order questions' and the faces', own their layouts.

A single solve first iterates on the face of the cones that its own data
expose (Borwein & Wolkowicz 1981; Permenter & Parrilo 2018): right-hand side
pieces that are PSD matrices D with a kernel give row multipliers
z = vec(P_ker D), and when g = A^T z lies in the dual cone every feasible
block is X = V Y V^H, V a basis of the kernel of g's block.  Nothing rests on
the rank cut: a witness on the face is lifted and checked on the original
problem, a certificate's multipliers y become y + t z for the certificate test
on the original data, and when neither holds the unreduced problem is solved
with what the face's iterations left of the cap.  The identity's Choi matrix
has rank 1, so no-cloning is certified at once.

The caps make the cone product compact, so on infeasible instances the iterates
approach the minimum-distance gap pair and the residual tends to the gap
distance.  A certificate is row multipliers y, checked by one function from
the problem data alone: g = A^T y has the value y.b on the whole affine
set, and y is accepted when that lies below g's infimum over the capped
cones by more than feas plus a bound on the rounding.  The gap direction's
row-space part gives y, tried at iterations 1, 2, 4, ..., doubling until the
spacing reaches ``_ATTEMPT_SPACING``, then every ``_ATTEMPT_SPACING``
iterations, and at the cap, whatever the residual: no solver state enters
the check.  Before iterating, a residual A x_part - b above its rounding is
tried too (an empty affine set).  A solve that reaches the cap with neither
a witness nor a certificate is ``UNDECIDED``.

A solve starts from the affine particular solution unless it is given a
``start`` iterate; the iteration converges from any start.

A threshold search (:func:`threshold_search`) decides a family of problems
whose weight lam enters only the right-hand side, affinely: the weighted margin
rows of :func:`joint_problem` carry the noise as (1 - lam) N, so their
coefficients do not depend on lam.  The search factorizes the family once,
with the two right-hand sides b(0) and b(1) - b(0), and each probe solves
its member from that factorization, warm-started at the final iterate of
the last feasible probe (neighbouring weights have nearby solutions;
infeasible iterates drift along the gap direction and never seed a start).
A certified probe's multipliers y hold for every member, as A is fixed, so
its bounded gap y.b(lam) - inf_cones <A^T y, .> + bound is affine in lam: it
excludes every weight above the root of gap = -feas, :func:`bisect_threshold`
drops the bracket's top to that root and approaches it from below.

Every compatibility question asks whether one device has the given devices
as its parts, and :func:`joint_problem` writes it once.  The joint device is
the record ``g``: a stack of PSD blocks on a classical outcome grid, each
block on a product of quantum factors.  Each margin keeps some axes of the
grid and some factors, sums over the other axes and traces out the other
factors, and equals its device, optionally mixed with noise of a
:class:`NoiseClass` (uniform noise on the right-hand side alone, a record
``n{k}`` per margin, or ``ng``, a second joint record).  Which axes and
factors each device kind keeps is written once, in
:func:`obscompat.margins_of`.  A solve's witness and a certificate's
functional hold those stacks.  The trace cap of every joint block is
derived from the margins, the trace of the joint device's total.  A
margin's rows are the pair ``(term, groups)`` of
:meth:`SdpProblem.add_equality`, the partial trace onto the kept factors
(:func:`partial_trace_map`) on each fibre of the grid, in one row group per
margin whose pieces are the devices' blocks: the face step reads their
kernels there.  :func:`order_problem` writes the other question once, on
the same margins: is one device a component of another, target = F o source
for a device F?  These two builders write every problem but the faces'.
A 1x1 PSD block is the scalar interval [0, cap]: it is clipped with the
scalar blocks and checked as a scalar, and ``split`` still returns it as a
1x1 matrix.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from . import linalg as la

__all__ = [
    "Verdict",
    "SdpProblem",
    "joint_problem",
    "joint_witness",
    "order_problem",
    "order_factor",
    "SolveResult",
    "Decision",
    "Certificate",
    "ThresholdResult",
    "real_linear_map",
    "partial_trace_map",
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


class NoiseClass(Enum):
    """The noise a weighted :func:`joint_problem` mixes into its margins, from the least
    to the most admitted (Designolle, Farkas & Kaniewski, NJP 2019)."""

    UNIFORM_NOISE = "uniform"
    TRIVIAL_NOISE = "trivial"
    COMPATIBLE_NOISE = "compatible"
    ARBITRARY_NOISE = "arbitrary"
    # an alias of UNIFORM_NOISE, kept because the benchmark reads the old name;
    # it goes with the benchmark change that retires that read
    UNIFORM_TRIVIAL = "uniform"


MAX_BLOCK_SIDE = 64  # the largest joint block side, and the most outcomes on one axis of its grid
MAX_GRID_POINTS = 4096  # the most outcome tuples on a joint device's grid
_ATTEMPT_SPACING = 200  # largest spacing of certificate attempts (1, 2, 4, ... up to it)


class _Block(NamedTuple):
    """One record: a stack of equal blocks on the grid ``lead`` (``()`` for a single
    block), laid out in C order from ``offset``."""

    name: str
    kind: str          # "psd" | "scalar"
    dim: int           # matrix side (psd) or vector length (scalar) of each block
    offset: int
    cap: np.ndarray | None  # each block's trace cap (psd, shape ()) or entry caps (scalar, shape
                            # (dim,)); None in a layout, whose problems each have their own
    lead: tuple[int, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        """The record's real coordinates: ``lead`` and then one block's."""
        return self.lead + (self.dim if self.kind == "scalar" else self.dim * self.dim,)

    @property
    def length(self) -> int:
        return math.prod(self.shape)

    @property
    def interval(self) -> bool:
        """Scalar blocks and 1x1 PSD blocks: each coordinate lies in [0, cap]."""
        return self.kind == "scalar" or self.dim == 1


def _read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that problems share as read-only: writing to one raises ``ValueError``."""
    for a in arrays:
        a.flags.writeable = False


_NO_ENTRIES = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))
_read_only(*_NO_ENTRIES)


def _cap(kind: str, name: str, dim: int, cap) -> np.ndarray:
    """A record's caps, checked: a PSD block's trace cap, or the entry caps of a scalar
    block of length ``dim``, each finite and positive."""
    if kind == "scalar":
        cap = np.broadcast_to(np.asarray(cap, dtype=float), (dim,)).copy()
        if not np.all((cap > 0) & np.isfinite(cap)):
            raise ValueError(f"caps for {name!r} must be finite and positive")
        return cap
    if dim < 1:
        raise ValueError("block dimension must be positive")
    if not (cap > 0 and math.isfinite(cap)):
        raise ValueError(f"trace cap for {name!r} must be finite and positive")
    return np.asarray(float(cap))


def _per_block(coo, offsets, k: int):
    """Triplets (rows, columns, values) of the per-block term ``coo``, of k rows, on each
    block at ``offsets[g, j]``, summed into rows g k to (g + 1) k; in the order g, j, entry."""
    (r, c, v), offsets = coo, np.asarray(offsets)
    rows = np.repeat(k * np.arange(len(offsets))[:, None] + r, offsets.shape[1], axis=0)  # faster than broadcasting
    return rows.ravel(), (offsets[:, :, None] + c).ravel(), np.repeat(v[None], offsets.size, axis=0).ravel()


def _entries(name: str, t, k: int, shape: tuple[int, ...]):
    """Triplets (rows, columns, values) of the term ``t`` of record ``name`` in k rows on
    the record's coordinates, of ``shape`` (its ``lead`` and one block's length): c I for
    a scalar c, the nonzero entries of a (k, length) matrix, the given triplets, checked to
    lie in those bounds, or a pair ``(term, groups)``, the per-block term on the blocks
    ``groups[g]`` (a (G, J) array, distinct flat indices on ``lead``) summed into row group g."""
    length = math.prod(shape)
    if isinstance(t, tuple) and len(t) == 2:
        term, groups, count = t[0], np.asarray(t[1]), math.prod(shape[:-1])
        if not (groups.ndim == 2 and len(groups) and k % len(groups) == 0 and groups.dtype.kind in "iu"
                and np.all((0 <= groups) & (groups < count)) and np.all(np.diff(np.sort(groups), axis=1))):
            raise ValueError(f"block groups for {name!r} must be a (G, J) array of indices below {count}, "
                             f"distinct in each row, G dividing {k} rows; not {groups.dtype} of shape {groups.shape}")
        rows = k // len(groups)
        return _per_block(_entries(name, term, rows, shape[-1:]), shape[-1] * groups, rows)
    if isinstance(t, tuple):
        r, c, v = t
        if not (r.shape == c.shape == v.shape and np.all((0 <= r) & (r < k)) and np.all((0 <= c) & (c < length))):
            raise ValueError(f"coefficient triplets for {name!r} must lie in {k} rows and {length} columns")
        key = r * length + c  # entries at one place mean their sum, as in A x: summed here
        if np.any(np.diff(np.sort(key)) == 0):
            order = np.argsort(key, kind="stable")
            first = np.flatnonzero(np.diff(key[order], prepend=-1))
            r, c, v = r[order][first], c[order][first], np.add.reduceat(v[order], first)
        return r, c, v
    if isinstance(t, (int, float)) or np.isscalar(t):
        if length != k:
            raise ValueError(f"scalar coefficient needs block {name!r} of length {k}, not {length}")
        i = np.arange(k if t else 0)
        return i, i, np.full(i.size, float(t))
    t = np.atleast_2d(np.asarray(t, dtype=float))
    if t.shape != (k, length):
        raise ValueError(f"coefficient block for {name!r} has shape {t.shape}, expected {(k, length)}")
    r, c = divmod((t != 0).ravel().nonzero()[0], length)  # faster than a 2-d nonzero
    return r, c, t[r, c]


def _apply(coo, x: np.ndarray, size: int) -> np.ndarray:
    """A x, for A of ``size`` rows with the triplets ``coo``; A^T y is ``_apply`` of (columns, rows, values)."""
    r, c, v = coo
    return np.bincount(r, weights=v * x[c], minlength=size)


def real_linear_map(fn: Callable[[np.ndarray], np.ndarray], in_dim: int, out_dim: int) -> np.ndarray:
    """Matrix of a Hermitian-to-Hermitian real-linear map in vectorized coordinates.

    ``fn`` takes a stack of Hermitian in_dim x in_dim matrices (leading axis)
    to the stack of their Hermitian out_dim x out_dim images, linearly over
    the reals.  It is applied to the basis of the real vectorization in
    in_dim slices of in_dim basis matrices, so it is called in_dim times and
    a slice holds in_dim**3 entries instead of in_dim**4.  The real
    vectorization is orthonormal, so the matrix of the adjoint map is the
    transpose: when the output side is smaller and the adjoint is known,
    build the adjoint and transpose.

    The images are written as rows, and the result is their transposed view.
    """
    n = in_dim * in_dim
    rows = np.empty((n, out_dim * out_dim))
    for k in range(0, n, in_dim):
        basis = la.real_vec_to_hermitian(np.eye(in_dim, n, k), in_dim)
        rows[k : k + in_dim] = la.hermitian_to_real_vec(fn(basis))
    return rows.T


def partial_trace_map(dims, keep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets (rows, columns, values) of ``la.partial_trace(., dims, keep)`` in real
    vectorized coordinates, in row-major order.

    The map is an index sum: kept entry (a, a') collects the total entries
    (a t, a' t) over the traced indices t, and as a t < a' t whenever a < a',
    each kept coordinate (diagonal, real or imaginary part) is the sum of the
    total coordinates of its kind at those entries, each with coefficient 1.0.
    The same triplets with rows and columns swapped are the adjoint, the lift
    X -> X (x) I on the traced factors.  ``keep`` is read as
    ``la.partial_trace`` reads it (sorted, repeats dropped); an index out of
    range raises ``ValueError``.
    """
    dims = [int(d) for d in dims]
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    total = math.prod(dims)
    # at[a, t]: the total index of kept index a and traced index t, ascending in t
    at = np.arange(total).reshape(dims).transpose(keep + [i for i in range(len(dims)) if i not in keep])
    at = at.reshape(math.prod(dims[k] for k in keep), -1)
    iu, ju = la.real_vec_basis_indices(len(at))[1:]
    i, j = at[iu], at[ju]
    re = total + i * total - i * (i + 1) // 2 + j - i - 1  # the real part of total entry (i, j), i < j
    cols = np.concatenate([at, re, re + total * (total - 1) // 2]).ravel()
    return np.repeat(np.arange(len(at) ** 2), at.shape[1]), cols, np.ones(cols.size)


def _compose_map(j_first: np.ndarray, din: int, dmid: int, dout: int) -> np.ndarray:
    """Row-major matrix of Choi(E) -> Choi(E o first), built as the transpose of
    its adjoint Y -> sum_ij J[j, n, i, m] Y[i, o, j, p], J = Choi(first) on
    (din, dmid, din, dmid): one BLAS product per slice of basis matrices."""
    a = j_first.reshape(din, dmid, din, dmid)

    def adjoint(y):
        y = y.reshape(-1, din, dout, din, dout)
        out = np.tensordot(y, a, axes=([1, 3], [2, 0]))  # (., o, p, n, m)
        return out.transpose(0, 4, 1, 3, 2).reshape(-1, dmid * dout, dmid * dout)

    return real_linear_map(adjoint, din * dout, dmid * dout).T


class _Layout:
    """A problem's shape, which the problems on it share and never write: the records
    without caps, A's triplets (read-only), and each row group's first row, size and
    pieces (see ``SdpProblem._add_rows``).  On first use it also holds the cone
    coordinates (:attr:`cones`) and the row-space factorization of A's touched columns
    (:attr:`factorization`), so that every problem on one layout differs only in its
    caps and b and is factorized once."""

    def __init__(self, records: tuple[_Block, ...], coo, sizes: list[int], pieces: list[int], n: int):
        _read_only(*coo)
        self.records, self.coo, self.n, self.m = records, coo, n, sum(sizes)
        self.row_groups = tuple(zip(accumulate(sizes[:-1], initial=0), sizes, pieces))

    @cached_property
    def cones(self):
        """``(psd, intervals)``: per side d of PSD blocks, in the order of their first
        records, ``(d, idx, members, 1..d)``, row i of ``idx`` the ith block's coordinates
        in layout order and ``members`` the pairs (record number, blocks); and ``(idx,
        members)`` of the interval coordinates (scalars and 1x1 blocks), in order."""
        sides, intervals = {}, [(np.zeros(0, dtype=np.intp), None)]
        for i, rec in enumerate(self.records):
            idx = np.arange(rec.offset, rec.offset + rec.length).reshape(-1, rec.shape[-1])
            if rec.interval:
                intervals.append((idx.ravel(), (i, len(idx))))
            else:
                sides.setdefault(rec.dim, []).append((idx, (i, len(idx))))
        psd = []
        for d, blocks in sides.items():
            idx, members = zip(*blocks)
            psd.append((d, np.concatenate(idx), members, np.arange(1, d + 1)))
        idx, members = zip(*intervals)
        intervals = (np.concatenate(idx), members[1:])
        _read_only(*(a for _, idx, _, counts in psd for a in (idx, counts)), intervals[0])
        return tuple(psd), intervals

    @cached_property
    def norm_a(self) -> float:
        v = self.coo[2]
        return math.sqrt(v @ v)

    @cached_property
    def factorization(self):
        """``(stacks, parts)`` of :func:`_row_space` on A's touched columns (those some
        row uses), in the problem's coordinates: the basis that the affine step and the
        certificate attempt read, and the components that give least-norm solutions."""
        (r, c, v), n = self.coo, self.n
        touched = np.bincount(c, minlength=n) > 0
        cols = np.flatnonzero(touched)
        local = (np.cumsum(touched) - 1)[c]  # each entry's column among the touched ones
        stacks, parts = _row_space((r, local, v), (self.m, cols.size), max(self.m, n) * np.finfo(float).eps)
        stacks, parts = (tuple((rows, cols[at], vs, ws) for rows, at, vs, ws in got) for got in (stacks, parts))
        _read_only(*(a for got in (stacks, parts) for stack in got for a in stack))
        return stacks, parts


class SdpProblem:
    """Block-structured feasibility problem over PSD and nonnegative variables."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        # A as triplets (rows, columns, values), one chunk per term, and b in
        # row groups, each with the number of equal pieces its rows split into
        # (its G, see add_equality); empty ones first, so that they always concatenate
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [_NO_ENTRIES]
        self._rhs: list[np.ndarray] = [_NO_ENTRIES[2]]
        self._pieces: list[int] = [1]
        self._m = 0
        self._n = 0
        # the problem's shape as written so far (see _frozen), or None after a write
        self._layout: _Layout | None = None
        # set only on a threshold search's members (see _Projector.at), which
        # no one adds to: their family's projector at their weight
        self._projector: _Projector | None = None

    @classmethod
    def _on(cls, layout: _Layout, caps: dict[str, np.ndarray], rhs: list[np.ndarray]) -> SdpProblem:
        """The problem on a shared ``layout`` with the checked caps ``caps`` of its
        records, by name, and b in ``rhs``, one array per row group after the first."""
        prob = cls()
        prob._blocks = {rec.name: rec._replace(cap=caps[rec.name]) for rec in layout.records}
        prob._chunks, prob._rhs = [layout.coo], [_NO_ENTRIES[2], *rhs]
        prob._pieces = [pieces for _, _, pieces in layout.row_groups]
        prob._m, prob._n, prob._layout = layout.m, layout.n, layout
        return prob

    def _frozen(self) -> _Layout:
        """The problem's layout, made from the records and rows written so far."""
        if self._layout is None:
            coo = tuple(np.concatenate(part) for part in zip(*self._chunks))
            self._chunks = [coo]
            self._layout = _Layout(tuple(rec._replace(cap=None) for rec in self._blocks.values()), coo,
                                   [rhs.size for rhs in self._rhs], list(self._pieces), self._n)
        return self._layout

    # --- variables ---------------------------------------------------------

    def add_psd_block(self, name: str, dim: int, trace_cap: float, lead: tuple[int, ...] = ()) -> str:
        self._add("psd", name, dim, trace_cap, lead)
        return name

    def add_scalar_block(self, name: str, length: int, cap: float | np.ndarray = 1.0) -> str:
        self._add("scalar", name, length, cap)
        return name

    def _add(self, kind: str, name: str, dim: int, cap, lead: tuple[int, ...] = ()) -> np.ndarray:
        """Record ``name``: blocks of one kind, size and cap on the grid ``lead`` (positive
        integers), laid out in C order; returns their offsets, of shape ``lead``."""
        if name in self._blocks:
            raise ValueError(f"duplicate block name {name!r}")
        lead = tuple(lead)
        if not all(isinstance(n, (int, np.integer)) and n > 0 for n in lead):
            raise ValueError(f"stack shape {lead} of {name!r} must hold positive integers")
        rec = self._blocks[name] = _Block(name, kind, dim, self._n, _cap(kind, name, dim, cap), lead)
        self._n += rec.length
        self._layout = None
        return np.arange(rec.offset, self._n, rec.shape[-1]).reshape(rec.lead)

    def block(self, name: str) -> _Block:
        return self._blocks[name]

    @property
    def n_vars(self) -> int:
        return self._n

    # --- constraints -------------------------------------------------------

    def add_equality(self, terms: dict[str, float | np.ndarray | tuple], rhs: np.ndarray) -> None:
        """Rows sum_b T_b vec(X_b) = rhs, with T_b of shape (k, len(b)).

        A scalar T_b = c means c times the identity, for a block of length k,
        and a tuple ``(rows, columns, values)`` the triplets of T_b's entries,
        those at one place adding up.  A pair ``(term, groups)`` puts the
        per-block ``term`` (of any form) on the blocks ``groups[g]`` of a stack,
        distinct flat indices on its ``lead``, summed into the gth of G row
        groups.  Each term is kept as the triplets of its nonzero entries, no
        two at one place.
        """
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        chunks, pieces = [], 1
        for name, t in terms.items():
            blk = self._blocks[name]
            r, c, v = _entries(name, t, rhs.size, blk.shape)
            chunks.append((r, blk.offset + c, v))
            if isinstance(t, tuple) and len(t) == 2:
                pieces = max(pieces, len(t[1]))
        self._add_rows(chunks, rhs, pieces)

    def _add_rows(self, chunks, rhs: np.ndarray, pieces: int = 1) -> None:
        """Rows = ``rhs`` with the entries ``chunks``, triplets counting rows from the first new
        one, in ``pieces`` equal parts (a stack of matrices, when each is a square's length);
        the terms of a row group hold distinct blocks, so no two entries are at one place."""
        self._chunks += [(r + self._m, c, v) for r, c, v in chunks]
        self._rhs.append(rhs)
        self._pieces.append(pieces)
        self._m += rhs.size
        self._layout = None

    def _triplets(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """``((rows, columns, values), b)``: the nonzero entries of A, no two at one place
        (the layout's, read-only), and b."""
        return self._frozen().coo, np.concatenate(self._rhs)

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense ``(A, b)``, the reference for checks and tests; solving reads the triplets."""
        (r, c, v), b = self._triplets()
        a = np.zeros((b.size, self._n))
        a[r, c] = v
        return a, b

    # --- views -------------------------------------------------------------

    def split(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Unpack a flat iterate into its named records, each one array of shape
        ``lead`` + (d, d) (Hermitian) or ``lead`` + (d,) (scalars); copies, never
        views of ``x``."""
        parts = {}
        for rec in self._blocks.values():
            vals = x[rec.offset : rec.offset + rec.length].reshape(rec.shape)
            parts[rec.name] = la.real_vec_to_hermitian(vals, rec.dim) if rec.kind == "psd" else vals.copy()
        return parts

    def join(self, parts: dict[str, np.ndarray]) -> np.ndarray:
        """Flat vector of named records, the inverse of :meth:`split`.

        Records not in ``parts`` are zero; an unknown name raises ``KeyError`` and a
        PSD record of another shape than :meth:`split` gives ``ValueError``.
        """
        x = np.zeros(self._n)
        for name, vals in parts.items():
            rec = self.block(name)
            if rec.kind == "psd" and np.shape(vals) != rec.lead + (rec.dim, rec.dim):
                raise ValueError(f"{name!r} needs shape {rec.lead + (rec.dim, rec.dim)}, not {np.shape(vals)}")
            vals = la.hermitian_to_real_vec(vals) if rec.kind == "psd" else np.asarray(vals, dtype=float)
            x[rec.offset : rec.offset + rec.length] = np.broadcast_to(vals, rec.shape).ravel()
        return x


def _refuse_sizes(record: str, side: int, counts) -> None:
    """The gate's size check, the same for every question: ``ValueError`` when the
    blocks of ``record`` have a side, or its grid ``counts`` an axis, above ``MAX_BLOCK_SIDE``."""
    most = max(counts, default=1)
    if side > MAX_BLOCK_SIDE or most > MAX_BLOCK_SIDE:
        over = f"{record} block side {side}" if side > MAX_BLOCK_SIDE else f"an axis of {most} outcomes"
        raise ValueError(f"problem too large: block side {side}, {most} outcomes; {over} exceeds the cap "
                         f"{MAX_BLOCK_SIDE}")


def joint_problem(margins, weights=None, factors=None, noise: NoiseClass = NoiseClass.TRIVIAL_NOISE) -> SdpProblem:
    """Joint device with the given margins: the one compatibility question.

    The joint device is the record ``g``, a stack of PSD blocks on a grid of
    outcome tuples, laid out in C order, each block on the product of
    quantum ``factors`` (their dimensions).  ``margins[k]`` is
    ``(device, axes, keep, on)``: the kth device stacks its blocks on the
    grid axes ``axes`` (its leading shape, which gives the grid) and acts on
    the factors ``keep``, both ascending, and for each of its outcome tuples
    the g blocks that agree with it on ``axes``, traced over the factors not
    in ``keep``, sum to its block.  Every g block has the trace cap of the
    joint device's total, the trace of margin 0's total.  Without
    ``factors``, ``margins[k]`` is a stack M_k of outcome operators on an
    axis of its own, as for observables and assemblages: the margin
    ``(M_k, (k,), (0,), ())`` on the one factor ``(side,)``.

    With ``weights`` the kth margin is w_k D_k + (1 - w_k) N_k instead, for
    noise N_k of the class ``noise``, held as (1 - w_k) N_k so that no
    coefficient depends on the weights and the right-hand side depends on
    them affinely: a threshold search factorizes the family once.

    * Uniform: no record; N_k is the margin's total over its axes spread
      evenly over its outcome tuples (I / m for an observable), so only the
      right-hand side changes.  A margin without an axis raises ``ValueError``.
    * Trivial: the record ``n{k}``, a stack on the margin's axes of PSD
      blocks on its factors ``on``, lifted by (x) I on its other factors,
      whose traces sum to 1: p_k(x) I for ``on = ()``, a constant channel
      I_in (x) xi on a channel's output, channel-blind noise on a tester's
      input.  Its blocks have trace cap 1.
    * Arbitrary: the record ``n{k}`` of the margin's own shape, a device:
      summed over its axes and traced onto its first factor (the input) it
      is the identity.
    * Compatible: the record ``ng``, a second joint device like ``g`` whose
      margins are the noise, normalized as arbitrary noise on the first of
      ``factors``; every weight must be equal (else ``ValueError``).

    This is the one gate of every joint question: before anything is built,
    ``ValueError`` refuses no margin, weights that are not one per margin in
    [0, 1], a grid of more than ``MAX_GRID_POINTS`` outcome tuples, a block
    side or a grid axis above ``MAX_BLOCK_SIDE``, a device of another shape,
    and a device not normalized as its noise is (to within 1e-6).  With T
    the device's total over its axes, trivial noise needs tr T to be the
    product of the dimensions of ``keep`` not in ``on``; arbitrary and
    compatible noise need the margin on factor 0 (the input) and T traced
    onto it to be I.  So observables take every class, channel pairs all but
    uniform, testers uniform and trivial noise (compatible and arbitrary only
    when out xi = I), and assemblages, of total trace 1, uniform noise only.
    After the gate, only the caps and b are built: the rest of the problem is
    the layout of its shape (:func:`_joint_layout`), shared with every
    problem of that shape and factorized once.
    """
    noise = NoiseClass(noise)
    if len(margins) == 0:
        raise ValueError("a joint question needs at least one margin")
    if weights is not None and (len(weights) != len(margins) or not all(0.0 <= w <= 1.0 for w in weights)):
        raise ValueError(f"need one weight in [0, 1] per margin, not {tuple(weights)} for {len(margins)} margins")
    if factors is None:  # each stack M_k on an axis of its own, on one factor
        factors, margins = margins[0].shape[-1:], [(m, (k,), (0,), ()) for k, m in enumerate(margins)]
    margins = [(np.asarray(device), tuple(axes), tuple(keep), tuple(on)) for device, axes, keep, on in margins]
    grid = {a: n for device, axes, _, _ in margins for a, n in zip(axes, device.shape)}
    counts, side = tuple(grid[a] for a in range(len(grid))), math.prod(factors)
    if math.prod(counts) > MAX_GRID_POINTS:
        raise ValueError(f"joint grid of {math.prod(counts)} outcome tuples exceeds the cap {MAX_GRID_POINTS}")
    _refuse_sizes("joint", side, counts)
    uniform = weights is not None and noise is NoiseClass.UNIFORM_NOISE
    compatible = weights is not None and noise is NoiseClass.COMPATIBLE_NOISE
    if compatible and len(set(weights)) > 1:
        raise ValueError(f"compatible noise mixes every margin at one weight, not {tuple(weights)}")
    trivial, own_record = noise is NoiseClass.TRIVIAL_NOISE, weights is not None and not (uniform or compatible)
    for k, (device, axes, keep, on) in enumerate(margins):
        shape = tuple(counts[a] for a in axes) + (math.prod(factors[f] for f in keep),) * 2
        if device.shape != shape:
            raise ValueError(f"a device on axes {axes} and factors {keep} of {factors} needs shape {shape}, "
                             f"not {device.shape}")
        if uniform and not axes:
            raise ValueError("uniform noise spreads a margin over its outcomes; a margin without an axis has none")
        if own_record or compatible:  # the noise is normalized as a device is, so the device must be
            t = device.reshape((-1,) + shape[-2:]).sum(axis=0)
            if trivial:
                want = math.prod(factors[f] for f in keep if f not in on)
                off, rule = abs(np.trace(t).real - want), f"its total's trace must be {want}"
            elif keep[:1] != (0,):
                raise ValueError(f"{noise.value} noise sums to the identity on factor 0, which margin {k} "
                                 f"does not act on")
            else:
                t = np.trace(t.reshape(factors[0], -1, factors[0], len(t) // factors[0]), axis1=1, axis2=3)
                off, rule = np.abs(t - np.eye(factors[0])).max(), "its total traced onto factor 0 must be I"
            if off > 1e-6:
                raise ValueError(f"margin {k} is not normalized as {noise.value} noise is ({rule}; off by {off:.3g})")
    total = margins[0][0].reshape((-1,) + margins[0][0].shape[-2:]).sum(axis=0)
    cap = float(np.trace(total).real)
    caps = {"g": _cap("psd", "g", side, cap)}
    if compatible:
        caps["ng"] = _cap("psd", "ng", side, cap)
    rhs = []  # b by row group, in the layout's order
    for k, (device, axes, keep, on) in enumerate(margins):
        pieces = math.prod(device.shape[:-2])
        b = (1.0 if weights is None else weights[k]) * la.hermitian_to_real_vec(device).ravel()
        if uniform:
            spread = la.hermitian_to_real_vec(device.reshape((pieces,) + device.shape[-2:]).sum(axis=0) / pieces)
            b = b + (1 - weights[k]) * np.tile(spread, pieces)
        rhs.append(b)
        if own_record:  # total trace 1 - w, or (1 - w) I on the input
            caps[f"n{k}"] = _cap("psd", f"n{k}", math.prod(factors[f] for f in (on if trivial else keep)),
                                 1.0 if trivial else cap)
            rhs.append((1 - weights[k]) * la.hermitian_to_real_vec(np.eye(1 if trivial else factors[0])))
    if compatible:
        rhs.append((1 - weights[0]) * la.hermitian_to_real_vec(np.eye(factors[0])))
    shapes = tuple((axes, keep, on, device.shape) for device, axes, keep, on in margins)
    layout = _joint_layout(tuple(map(int, factors)), shapes, None if weights is None else noise)
    return SdpProblem._on(layout, caps, rhs)


# The most joint layouts kept.  The benchmark's workloads ask 3 (scale), 5 (random-checks)
# and 9 (threshold-search) distinct ones in a pass.
_JOINT_LAYOUTS = 16


@lru_cache(maxsize=_JOINT_LAYOUTS)
def _joint_layout(factors: tuple[int, ...], margins: tuple, noise: NoiseClass | None) -> _Layout:
    """The layout of :func:`joint_problem`'s question: its records, A and row groups,
    which depend only on ``factors``, each margin's ``(axes, keep, on, device shape)``
    and the class of the noise (``None`` without weights), not on the devices,
    weights or caps.  Built once per question shape and shared, with its
    factorization, by every problem of that shape; ``_joint_layout.cache_clear()``
    forgets them."""
    grid = {a: n for axes, _, _, shape in margins for a, n in zip(axes, shape)}
    counts, side = tuple(grid[a] for a in range(len(grid))), math.prod(factors)
    uniform, compatible = noise is NoiseClass.UNIFORM_NOISE, noise is NoiseClass.COMPATIBLE_NOISE
    trivial, own_record = noise is NoiseClass.TRIVIAL_NOISE, noise is not None and not (uniform or compatible)
    prob = SdpProblem()  # its caps and b are placeholders: each problem on the layout has its own
    g = prob._add("psd", "g", side, 1.0, counts)
    if compatible:
        ng = prob._add("psd", "ng", side, 1.0, counts)

    def normalize(rec, dims, to):
        """Rows: the blocks of ``rec``, on factors ``dims``, summed and traced onto ``to`` are (1 - w) I."""
        size = math.prod(dims[i] for i in to) ** 2
        prob._add_rows([_per_block(partial_trace_map(dims, to), rec.reshape(1, -1), size)], np.zeros(size))

    for k, (axes, keep, on, shape) in enumerate(margins):
        dims, pieces = [factors[f] for f in keep], math.prod(shape[:-2])
        rows, (r, c, v) = math.prod(dims) ** 2, partial_trace_map(factors, keep)

        def fibres(rec):
            """The blocks of the stack ``rec`` on g's grid, one row per outcome tuple of the margin."""
            return np.moveaxis(rec, axes, range(len(axes))).reshape(pieces, -1)

        chunks = [_per_block((r, c, v), fibres(g), rows)]  # one row group per margin: fibre - noise = w device
        if compatible:
            chunks.append(_per_block((r, c, -v), fibres(ng), rows))
        elif own_record:
            own = on if trivial else keep
            n = prob._add("psd", f"n{k}", math.prod(factors[f] for f in own), 1.0, shape[:-2])
            lc, lr, lv = partial_trace_map(dims, [keep.index(f) for f in own])
            chunks.append(_per_block((lr, lc, -lv), n.reshape(-1, 1), rows))  # the lift: rows and columns swapped
        prob._add_rows(chunks, np.zeros(rows * pieces), pieces)
        if own_record:
            normalize(n, [factors[f] for f in own], () if trivial else (0,))
    if compatible:
        normalize(ng, factors, (0,))
    return prob._frozen()


def joint_witness(witness: dict[str, np.ndarray]) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """``(grid, noise)`` of a solved :func:`joint_problem`: ``grid``, of shape
    ``(*counts, side, side)``, is the record ``g``, and ``noise`` holds the
    records ``n{k}``, one stack per margin, or is ``None`` (no weights, or
    compatible noise)."""
    return witness["g"], tuple(witness[f"n{k}"] for k in range(len(witness)) if f"n{k}" in witness) or None


def order_problem(margins, factors) -> SdpProblem:
    """Is the target a component of the source: target = F o source for a device F?

    ``margins`` and ``factors`` are those :func:`obscompat.margins_of` writes for
    ``(target, source)``: stacks of Choi blocks on the input, factor 0, and the
    outputs each device keeps (an observable has none).  F is the record
    ``factor``, PSD blocks on source output x target output on the grid (target
    outcome y, source outcome x), each with the trace cap of the source's output
    dimension.  Rows: per y, sum_x Choi(F[y, x] o source_x) = target_y (the maps of
    :func:`_compose_map` side by side); then per x, sum_y tr_out F[y, x] = I.
    Before anything is built, ``ValueError`` refuses a block side or an outcome
    axis above ``MAX_BLOCK_SIDE``, in the gate's words, and devices on two inputs.
    """
    (target, _, t_keep, _), (source, _, s_keep, _) = margins
    din = factors[0]
    dt, ds = (math.prod(factors[f] for f in keep[1:]) for keep in (t_keep, s_keep))
    tgt, src = (np.asarray(m).reshape((-1,) + np.shape(m)[-2:]) for m in (target, source))
    _refuse_sizes("factor", ds * dt, (len(tgt), len(src)))
    for blocks, d in ((tgt, dt), (src, ds)):
        if blocks.shape[-1] != din * d:
            raise ValueError(f"the target and the source must share one input: blocks of side {din * d} "
                             f"expected, not {blocks.shape[-1]}")
    prob = SdpProblem()
    at = prob._add("psd", "factor", ds * dt, float(ds), (len(tgt), len(src)))  # the blocks' offsets
    comp, k = np.hstack([_compose_map(s, din, ds, dt) for s in src]), (din * dt) ** 2
    prob._add_rows([_per_block(_entries("factor", comp, k, comp.shape[1:]), at[:, :1], k)],
                   la.hermitian_to_real_vec(tgt).ravel(), len(tgt))
    prob._add_rows([_per_block(partial_trace_map((ds, dt), (0,)), at.T, ds * ds)],
                   np.tile(la.hermitian_to_real_vec(np.eye(ds)), len(src)), len(src))
    return prob


def order_factor(witness: dict[str, np.ndarray]) -> np.ndarray:
    """The factor F of a solved :func:`order_problem`: the record ``factor``, of shape
    ``(target outcomes, source outcomes, side, side)``."""
    return witness["factor"]


@dataclass(frozen=True)
class Certificate:
    """Row multipliers y: g = A^T y (record by record in ``functional``) takes the value
    y.b (``affine_value``) on the affine set, below its infimum over the capped cones
    by more than feas plus ``bound``, which bounds the rounding of both."""

    functional: dict[str, np.ndarray]
    affine_value: float
    cone_infimum: float
    multipliers: np.ndarray
    bound: float

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


def _components(r: np.ndarray, c: np.ndarray, shape: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected components of a nonzero pattern, grouped by shape.

    The matrix has ``shape`` and its nonzero entries at (r[i], c[i]).  Two
    rows are linked when they share a column; every row takes the smallest
    row index it reaches, by min-propagation through the columns with pointer
    jumping, and every column the label of its rows.  Returns one
    ``(rows, cols)`` per shape (p, q), in ascending order of shape:
    ``rows[k]`` and ``cols[k]`` list the rows and columns of the kth
    component of that shape in ascending order.  A row with no nonzero entry
    is a component of shape (1, 0), and a column with none one of shape (0, 1).
    """
    m, n = shape
    label = np.arange(m)
    while True:
        col = np.full(n, m)
        np.minimum.at(col, c, label[r])
        low = label.copy()
        np.minimum.at(low, r, col[c])
        low = low[low]  # the label of a label is in the same component and no larger
        if np.array_equal(low, label):
            break
        label = low
    # rows and columns as nodes 0..m+n-1, each in the component of its label;
    # an untouched column is its own component
    node = np.concatenate([label, np.where(col < m, col, m + np.arange(n))])
    rows_of = np.bincount(label, minlength=m + n)[node]
    cols_of = np.bincount(node[m:], minlength=m + n)[node]
    # by shape, then component; within one, its rows and then its columns ascending
    order = np.lexsort((node, cols_of, rows_of))
    key = rows_of[order] * (n + 1) + cols_of[order]
    out = []
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        k = rows_of[order[lo]]
        idx = order[lo:hi].reshape(-1, k + cols_of[order[lo]])
        out.append((idx[:, :k], idx[:, k:] - m))
    return out


# Up to this many touched x rank entries (256 KiB) the basis is one dense matrix.  Below it
# an affine step with one matrix product took 9-16 us against 9-34 us for the loop over
# shape stacks, and at 405 x 153 (the d=3 channel pair) 37 us against 22 us.  The largest
# basis of the benchmark's small problems (80 x 53) lies below it and the smallest at the
# size caps (2,916 x 52, the 729-strategy LHS) above it.
_DENSE_BASIS = 2**15


def _rmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x_k m_k for each row x_k of x (k, p): one product with m (p, q) shared by every
    k, or with each matrix m_k of a stack m (k, p, q)."""
    return x @ m if m.ndim == 2 else np.matmul(x[:, None, :], m)[:, 0]


def _row_space(coo, shape: tuple[int, int], cut: float) -> tuple[list, list]:
    """Row-space basis of the matrix a of ``shape`` with the triplets ``coo``, as stacks:
    ``(stacks, parts)``, ``parts`` the stacks of its components, from which
    :func:`_least_norm` solves, and ``stacks`` the basis that projections read,
    ``parts`` itself or one dense matrix.

    ``a`` is block diagonal up to permutations, with one block per connected
    component of its nonzero pattern (:func:`_components`), so its SVD is
    theirs, one stacked ``np.linalg.svd`` per component shape, on the stack's
    tall side.  Equal components (the 1,024-block joint has four equal ones of
    20 x 1,024) are factorized once: the distinct matrices of a stack, keyed by
    their bytes, go to the SVD, and their factors are indexed back, so equal
    inputs have equal factors.  The rank is the one a dense SVD reveals with
    the cut ``cut``: singular values above ``cut`` times the largest of all
    components.  A kept triple (u, s, v) gives the basis vector v and its
    multipliers u / s, as a^T u = s v.  A row with no nonzero entry gives no
    basis vector, and no SVD; a nonzero right-hand side there shows in the
    residual a x - b.  Nothing here reads a right-hand side, so a layout is
    factorized once for every b.

    Each stack is ``(rows, cols, v, w)``: component k has the rows ``rows[k]``
    and the columns ``cols[k]`` of a, its basis vectors are the columns of v_k
    on those columns and their multipliers the columns of w_k on those rows,
    with ``v_k = a[rows[k]][:, cols[k]].T @ w_k``.  v and w are the stacks
    (k, q, r) and (k, p, r), or one (q, r) and (p, r) matrix that every
    component shares when all are equal; singular vectors below the cut are
    zero columns.  Up to ``_DENSE_BASIS`` touched x rank entries the basis is
    one stack of one component, a dense matrix on every row and column, with
    no zero column.
    """
    r, c, v = coo
    groups = [(rows, cols) for rows, cols in _components(r, c, shape) if rows.shape[1] and cols.shape[1]]
    # every stack (k, p, q) in one buffer: an entry's place is its row's start plus its column
    row_at, col_at, ends = np.zeros(shape[0], dtype=np.intp), np.zeros(shape[1], dtype=np.intp), [0]
    for rows, cols in groups:
        row_at[rows] = ends[-1] + cols.shape[1] * np.arange(rows.size).reshape(rows.shape)
        col_at[cols] = np.arange(cols.shape[1])
        ends.append(ends[-1] + rows.size * cols.shape[1])
    buf = np.zeros(ends[-1])
    buf[row_at[r] + col_at[c]] = v
    parts = []
    for (rows, cols), at in zip(groups, ends):
        stack = buf[at : at + rows.size * cols.shape[1]].reshape(rows.shape + cols.shape[1:])
        distinct, seen = [0], [0]
        if len(stack) > 1:  # a lone component is not copied: the d = 24 optimized-noise joint's is 128 MB
            first = {}  # the first component of each distinct matrix, by its bytes
            seen = [first.setdefault(mat.tobytes(), k) for k, mat in enumerate(stack)]
            distinct = list(first.values())
        if rows.shape[1] >= cols.shape[1]:
            u, s, vt = np.linalg.svd(stack[distinct], full_matrices=False)
        else:  # a wide stack is factorized transposed, on its tall side: a = vt^T s u^T
            vt, s, u = np.linalg.svd(stack[distinct].swapaxes(1, 2), full_matrices=False)
            u, vt = u.swapaxes(1, 2), vt.swapaxes(1, 2)
        parts.append((rows, cols, np.searchsorted(distinct, seen), u, s, vt))
    floor = cut * max((s.max(initial=0.0) for *_, s, _ in parts), default=0.0)
    stacks, kept_in = [], []
    for rows, cols, of, u, s, vt in parts:
        kept = s > floor
        if not kept.any():
            continue
        # below the cut, v is zeroed and u / s is u / inf = 0
        vs, ws = vt.swapaxes(1, 2) * kept[:, None], u / np.where(kept, s, np.inf)[:, None]
        vs, ws = (vs[0], ws[0]) if len(vs) == 1 else (vs[of], ws[of])
        stacks.append((rows, cols, vs, ws))
        kept_in.append(kept[of])
    rank = sum(int(kept.sum()) for kept in kept_in)
    if shape[1] * rank > _DENSE_BASIS:
        return stacks, stacks
    vr, mult, at = np.zeros((shape[1], rank)), np.zeros((shape[0], rank)), 0
    for (rows, cols, vs, ws), kept in zip(stacks, kept_in):
        i, j = np.nonzero(kept)
        basis = np.arange(at, at + i.size)[:, None]
        vr[cols[i], basis] = vs[:, j].T if vs.ndim == 2 else vs[i, :, j]
        mult[rows[i], basis] = ws[:, j].T if ws.ndim == 2 else ws[i, :, j]
        at += i.size
    return [(np.arange(shape[0])[None], np.arange(shape[1])[None], vr, mult)], stacks


def _least_norm(parts, b: np.ndarray, size: int) -> np.ndarray:
    """Least-norm solutions of a x = b on the row space, for the columns of ``b``, from
    the component stacks ``parts`` of :func:`_row_space`: ``(size, b.shape[1])``, zero
    off their columns."""
    sol = np.zeros((size, b.shape[1]))
    for rows, cols, vs, ws in parts:
        sol[cols] = np.matmul(vs, np.matmul(ws.swapaxes(-1, -2), b[rows]))
    return sol


class _Data:
    """A problem's data as the evidence checks read them; the only reader of a
    problem's layout outside :class:`SdpProblem`, whose factorization
    (:meth:`factorization`) it hands on.  The layout's arrays are shared, so
    it builds only the caps and b.

    ``coo`` holds A's triplets; A x and A^T y are :func:`_apply` of them.
    ``psd_groups`` holds ``(d, idx, caps, 1..d)`` per side d of PSD blocks, in the
    order of their first records: row i of ``idx`` holds the ith block's coordinates
    and ``caps[i]`` its trace cap, in layout order.  1x1 blocks are intervals with the
    scalars, whose coordinates and caps are ``scalar_idx`` and ``scalar_caps``, in order.
    ``row_groups`` holds each row group's first row, size and pieces (see ``_add_rows``).
    ``rounding`` scales a certificate's bound, with k eps for Higham's gamma_k and
    the caps' sum for |x| on the cones.  With ``at_one`` the data are the family's
    whose members at 0 and 1 are ``problem`` and ``at_one``, b(lam) = b + lam db;
    their triplets and cones must be equal, up to caps that differ by rounding
    (members take those of ``problem``), else ``ValueError``.
    """

    def __init__(self, problem: SdpProblem, at_one: SdpProblem | None = None):
        self.problem, self._layout = problem, problem._frozen()
        self.coo, self.b, self.row_groups = self._layout.coo, np.concatenate(problem._rhs), self._layout.row_groups
        recs, (psd, (self.scalar_idx, intervals)) = list(problem._blocks.values()), self._layout.cones

        def caps(members):
            return [np.repeat(recs[i].cap[None], count, axis=0) for i, count in members]

        self.psd_groups = [(d, idx, np.concatenate(caps(members)), counts) for d, idx, members, counts in psd]
        self.scalar_caps = np.concatenate([np.zeros(0)] + [c.ravel() for c in caps(intervals)])
        one = self if at_one is None else _Data(at_one)
        if one is not self and not self.same_matrix_and_cones(one):
            raise ValueError("the family's constraint matrix or cones depend on its weight")
        self.db = one.b - self.b
        self.caps = sum(float(c.sum()) for _, _, c, _ in self.psd_groups) + float(self.scalar_caps.sum())
        terms = sum(len(c) + 4 * d for d, _, c, _ in self.psd_groups) + self.scalar_caps.size
        eps, self.norm_a = np.finfo(float).eps, self._layout.norm_a
        self.rounding = ((len(self.b) + 2) * eps * (self.norm_a * self.caps + np.linalg.norm(self.b)
                                                   + np.linalg.norm(self.db)), terms * eps * self.caps)

    def factorization(self):
        """The layout's :attr:`_Layout.factorization`, made on the first call for it."""
        return self._layout.factorization

    def same_matrix_and_cones(self, other: _Data) -> bool:
        """The same triplets of A, and the same cones on the same coordinates, with caps
        equal up to the rounding of caps derived from data; on one layout, only the
        caps are compared."""
        ours, theirs = ([g[:3] for g in data.psd_groups] + [(1, data.scalar_idx, data.scalar_caps)]
                        for data in (self, other))
        if self._layout is other._layout:
            return all(np.allclose(c, k, rtol=1e-12, atol=0.0) for (_, _, c), (_, _, k) in zip(ours, theirs))
        return all(map(np.array_equal, self.coo, other.coo)) and len(ours) == len(theirs) and all(
            d == e and np.array_equal(i, j) and np.allclose(c, k, rtol=1e-12, atol=0.0)
            for (d, i, c), (e, j, k) in zip(ours, theirs))

    def cone_infimum(self, h: np.ndarray) -> float:
        """Exact infimum of <h, x> over the capped cone product."""
        total = 0.0
        for dim, idx, caps, _ in self.psd_groups:
            total += float(np.sum(caps * np.minimum(_min_eigs(h[idx], dim), 0.0)))
        if self.scalar_idx.size:
            total += float(np.sum(self.scalar_caps * np.minimum(h[self.scalar_idx], 0.0)))
        return total


class _Projector(_Data):
    """Precomputed projections for one problem, or for an affine family (see :class:`_Data`).

    Only the touched columns of A, those some row uses, enter the
    factorization, and ``stacks`` holds the row-space basis as
    :func:`_row_space` gives it, on the problem's coordinates: per component
    shape, the rows, the columns, the kept right singular vectors and their
    multipliers (the left ones over their singular values), or one dense
    matrix of each for a small problem.  ``x_part`` is the least-norm
    solution, zero off the touched columns.  The affine step, the
    certificate attempt and the least-norm solution act stack by stack, so
    no touched x rank or rows x rank matrix exists above ``_DENSE_BASIS``,
    and every coordinate outside the stacks passes the affine step unchanged.
    The factorization is the layout's (:meth:`_Data.factorization`), made by
    the first projector on it; each projector solves only its x_part and dx.
    Given a :class:`_Data`, it projects those data, not read again.

    A family is factorized once, with the columns b and db, so
    x_part(lam) = x_part + lam dx; :meth:`at` gives a member and
    :meth:`upper_end` the crossing of a member's certificate.  A basis
    vector v of a component has multipliers w with v = A^T w, so a
    functional sum v c is A^T (sum w c).  PSD blocks of side 2 are projected
    and their eigenvalues found in closed form (``la.project2``,
    ``la.spectrum2``).
    """

    def __init__(self, problem: SdpProblem | _Data, at_one: SdpProblem | None = None):
        if isinstance(problem, _Data):
            vars(self).update(vars(problem))
        else:
            super().__init__(problem, at_one)
        self.stacks, parts = self.factorization()
        sol = _least_norm(parts, np.column_stack([self.b, self.db]), self.problem.n_vars)
        x_part, self.dx = np.ascontiguousarray(sol.T)
        self._place(self.problem, self.b, x_part)

    def _place(self, problem: SdpProblem, b: np.ndarray, x_part: np.ndarray) -> None:
        self.problem, self.b, self.x_part = problem, b, x_part
        self.x_parts = [x_part[cols] for _, cols, _, _ in self.stacks]  # x_part on each stack's columns
        self.residual = _apply(self.coo, x_part, b.size) - b

    def at(self, lam: float) -> SdpProblem:
        """The family's problem at ``lam``, carrying its projector (no new factorization)."""
        member, b = copy.copy(self.problem), self.b + lam * self.db
        member._rhs = [b]
        proj = copy.copy(self)
        proj._place(member, b, self.x_part + lam * self.dx)
        member._projector = proj
        return member

    def upper_end(self, lam: float, cert: Certificate, feas: float) -> float | None:
        """Weight above which ``cert``, certified at ``lam``, excludes every member.

        The members share A, so y holds for each, and the bounded gap
        gap(mu) = y.b(0) + mu y.db - inf_cones + bound is affine in mu (the bound
        covers every mu in [0, 1]); every mu with gap(mu) < -feas is certified
        infeasible.  Returns the root of gap = -feas, with 2**-10 feas to spare
        for rounding, capped at ``lam``; ``None`` when the gap does not fall.
        """
        slope = float(cert.multipliers @ self.db)
        gap0 = float(cert.multipliers @ self.b) - cert.cone_infimum + cert.bound
        if not (slope < 0 and gap0 + lam * slope < -feas):  # a NaN gap never validates
            return None
        return min(lam, (-(1 + 2**-10) * feas - gap0) / slope)

    def affine(self, x: np.ndarray) -> np.ndarray:
        y = x.copy()
        for (_, cols, vs, _), part in zip(self.stacks, self.x_parts):
            xs = x[cols]
            y[cols] = xs - _rmul(_rmul(xs, vs), vs.swapaxes(-1, -2)) + part
        return y

    def multipliers(self, d: np.ndarray) -> np.ndarray | None:
        """Row multipliers y of the row-space part of ``d``, scaled so that A^T y is that
        part over its norm; ``None`` when it is zero."""
        coefs = [_rmul(d[cols], vs) for _, cols, vs, _ in self.stacks]
        norm = math.sqrt(sum(float(np.vdot(c, c)) for c in coefs))
        if not norm > 0:
            return None
        y = np.zeros(self.b.size)
        for (rows, _, _, ws), c in zip(self.stacks, coefs):
            y[rows] = _rmul(c / norm, ws.swapaxes(-1, -2))
        return y

    def cone(self, x: np.ndarray) -> np.ndarray:
        z = x.copy()
        for dim, idx, caps, counts in self.psd_groups:
            if dim == 2:
                z[idx] = la.project2(z[idx], caps)
                continue
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


def _min_eigs(vecs: np.ndarray, dim: int) -> np.ndarray:
    """Smallest eigenvalue of each matrix of side ``dim`` with real vectorization ``vecs[i]``."""
    if dim == 2:
        m, r = la.spectrum2(vecs)
        return m - r
    return np.linalg.eigvalsh(la.real_vec_to_hermitian(vecs, dim))[:, 0]


def _certificate(data: _Data, y: np.ndarray, tols: Tolerances) -> Certificate | None:
    """The one certificate check: row multipliers y, validated from the problem data.

    Every x with A x = b has <g, x> = y.b for g = A^T y, so y.b below the infimum of
    <g, .> over the capped cones excludes every x in them.  y is accepted only when
    y.b - inf + bound < -feas, with g and y.b recomputed from A's triplets and b, the
    bound covering their rounding (in any summation order) and the eigenvalues'.
    The caller normalizes y.
    """
    r, c, v = data.coo
    g = _apply((c, r, v), y, data.problem.n_vars)  # zero off the touched columns
    affine_value = float(y @ data.b)
    cone_inf = data.cone_infimum(g)
    bound = float(data.rounding[0] * math.sqrt(y @ y) + data.rounding[1] * math.sqrt(g @ g))
    if not affine_value - cone_inf + bound < -tols.feas:  # a NaN gap never validates
        return None
    return Certificate(data.problem.split(g), affine_value, cone_inf, y, bound)


def verify_witness(problem: SdpProblem, witness: dict[str, np.ndarray], tols: Tolerances | None = None):
    """Independent witness check: constraint residuals and cone memberships.

    Returns (ok, report) with the worst residuals; thresholds are
    ``witness_factor * feas`` per the solver contract.  The witness is
    vectorized (records missing from ``witness`` are zero), its residual taken
    against the assembled problem, the dense reference, and its blocks checked
    with one stacked call per block side (:func:`_check_point`).
    """
    x = problem.join(witness)
    a, b = problem.assemble()
    return _check_point(_Data(problem), x, a @ x - b, tols or DEFAULT_TOLS)


def _check_point(data: _Data, x: np.ndarray, residual: np.ndarray, tols: Tolerances):
    """:func:`verify_witness`'s check of the flat point ``x`` of ``data`` with A x - b = ``residual``."""
    slack = tols.witness_atol
    worst_eig = min([0.0] + [float(_min_eigs(x[idx], dim).min()) for dim, idx, _, _ in data.psd_groups])
    worst_scalar = float(x[data.scalar_idx].min(initial=0.0))
    constraint_residual = float(np.abs(residual).max()) if residual.size else 0.0
    ok = constraint_residual < slack and worst_eig > -slack and worst_scalar > -slack
    report = {
        "constraint_residual": constraint_residual,
        "min_eigenvalue": worst_eig,
        "min_scalar": worst_scalar,
        "slack": slack,
    }
    return ok, report


# Eigenvalues up to this fraction of their scale (a right-hand side matrix's largest, an
# exposing functional's norm) count as zero where the data expose a face.  A cut too wide
# costs only the unreduced solve, as evidence found on a face counts once validated.
_FACE_CUT = 1e-10
# A face's blocks whose congruence T_b would hold more entries than this (2 MiB) stay whole,
# which is sound, as they are a relaxation: a d = 4 channel pair of Kraus rank 15 would
# otherwise build T_b of 4,096 x 3,136 and peak above 500 MiB.
_FACE_BLOCK = 2**18


def _kernel_multipliers(data: _Data) -> np.ndarray | None:
    """Row multipliers z: vec(P_ker D) on the rows of each right-hand side piece (see
    ``_add_rows``) that is a PSD matrix D with a kernel, zero elsewhere, or ``None`` when
    no piece has one; one eigendecomposition per side, of the pieces whose eigenvalues (in
    closed form at side 2) or determinant allow a kernel."""
    pieces = {}  # per side, the first row of each piece
    for at, size, count in data.row_groups:
        side = math.isqrt(size // count)
        if size and side * side * count == size:
            pieces.setdefault(side, []).extend(at + i * side * side for i in range(count))
    b, z = data.b, np.zeros(data.b.size)
    for side, starts in pieces.items():
        vecs = b[np.array(starts)[:, None] + np.arange(side * side)]
        if side == 2:
            mid, rad = la.spectrum2(vecs)
            some = np.flatnonzero(np.abs(mid - rad) <= _FACE_CUT * (mid + rad))
        else:  # a PSD matrix with a kernel has det <= cut lambda_max^side <= cut tr^side
            det = np.linalg.det(la.real_vec_to_hermitian(vecs, side))
            some = np.flatnonzero(np.abs(det) <= _FACE_CUT * np.abs(vecs[:, :side].sum(axis=1)) ** side)
        if not some.size:
            continue
        w, u = np.linalg.eigh(la.real_vec_to_hermitian(vecs[some], side))
        cut = _FACE_CUT * w[:, -1:]  # the kernel of a PSD matrix; none for an indefinite one
        ker = (w <= cut) & (w[:, :1] >= -cut)
        for i, p in zip(some, la.hermitian_to_real_vec((u * ker[:, None, :]) @ la.dagger(u))):
            z[starts[i] : starts[i] + p.size] = p
    return z if z.any() else None


def _dual_spectra(data: _Data, z: np.ndarray):
    """``(g, cut, parts)`` when g = A^T z lies in the dual cone, else ``None``; ``parts``
    holds per ``data.psd_groups`` group the blocks where g passes the cut, with their
    eigendecompositions: ``(blocks, w, u)``."""
    r, c, v = data.coo
    g = _apply((c, r, v), z, data.problem.n_vars)
    cut = _FACE_CUT * math.sqrt(g @ g)
    if np.any(g[data.scalar_idx] < -cut):
        return None
    parts = []
    for dim, idx, _, _ in data.psd_groups:
        blocks = np.flatnonzero(np.abs(g[idx]).max(axis=1) > cut)
        w, u = np.linalg.eigh(la.real_vec_to_hermitian(g[idx[blocks]], dim))
        if w.size and w[:, 0].min() < -cut:
            return None
        parts.append((blocks, w, u))
    return g, cut, parts


class _Face:
    """The face of the cones that row multipliers z expose, and the problem on it.

    g = A^T z lies in the dual cone and z.b is about 0, so every feasible x
    has <g, x> about 0: X_b = V_b Y_b V_b^H, V_b an orthonormal basis of the
    kernel of g's block, and an interval coordinate where g > 0 is 0.
    ``proj`` factorizes the problem on the face, with one record of the
    blocks of each side d, face dimension r and cap c, ``d/r/c`` (r = 0
    drops a block), and one of the interval coordinates on the face.  Its
    columns are A's triplets times T_b, the real matrix of Y -> V_b Y V_b^H,
    whose columns are orthonormal, so T_b^T compresses; its rows are the
    original's ``rows``, those left with an entry or a nonzero b.  ``proj``
    is ``None`` when no block leaves a direction.
    """

    def __init__(self, data: _Data, z: np.ndarray, g: np.ndarray, cut: float, parts):
        self.data, self.z, self.g = data, z, g
        n, red = data.problem.n_vars, SdpProblem()
        (keep, at), self.maps, self.off = ([np.zeros(0, dtype=np.intp)] for _ in range(2)), [], []
        for (d, idx, caps, _), (blocks, w, u) in zip(data.psd_groups, parts):
            rank, where = np.full(len(idx), d), np.zeros(len(idx), dtype=np.intp)
            rank[blocks], where[blocks] = (w <= cut).sum(axis=1), np.arange(len(blocks))
            for face, cap in sorted(set(zip(rank.tolist(), caps.tolist())), reverse=True):
                sel, r = np.flatnonzero((rank == face) & (caps == cap)), face
                if 0 < r < d:  # V_b on the rows its kernel uses; T_b within _FACE_BLOCK, or whole
                    v = u[where[sel], :, :r]
                    rows = np.flatnonzero(np.abs(v).max(axis=(0, 2)) > d * np.finfo(float).eps)
                    r = d if len(sel) * (len(rows) * r) ** 2 > _FACE_BLOCK else r
                if r < d:  # with mu, g's least eigenvalue off the face
                    self.off.append((idx[sel], w[where[sel], r]))
                if r == 0:
                    continue
                red_idx = red._add("psd", f"{d}/{face}/{cap!r}", r, cap, (len(sel),))[:, None] + np.arange(r * r)
                if r == d:
                    keep.append(idx[sel].ravel())
                    at.append(red_idx.ravel())
                    continue
                # the block's coordinates of the submatrix on those rows
                i, j = (rows[k] for k in la.real_vec_basis_indices(len(rows))[1:])
                pair = d + i * d - i * (i + 1) // 2 + j - i - 1
                v = v[:, rows]
                basis = la.real_vec_to_hermitian(np.eye(r * r), r)  # T_b's columns: vec(V E_k V^H)
                t = la.hermitian_to_real_vec(v[:, None] @ basis @ la.dagger(v)[:, None])
                self.maps.append((idx[sel][:, np.concatenate([rows, pair, pair + d * (d - 1) // 2])], red_idx,
                                  np.ascontiguousarray(t.swapaxes(1, 2))))
        on = g[data.scalar_idx] <= cut  # interval coordinates on the face; the others are zeroed
        self.zeroed = data.scalar_idx[~on]
        if on.any():
            keep.append(data.scalar_idx[on])
            at.append(red._add("scalar", "intervals", int(on.sum()), data.scalar_caps[on]) + np.arange(on.sum()))
        self.keep, self.at = np.concatenate(keep), np.concatenate(at)
        if not (self.off or self.zeroed.size):  # no block leaves any direction
            self.proj = None
            return
        # the columns: A's entries on kept coordinates as they are; on a block, each row's
        # entries times T_b summed, where a sum below the rounding of its p terms is zero
        r, c, v = data.coo
        col, owner = np.full(n, -1), np.full(n, -1)
        block, pos = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
        col[self.keep] = self.at
        on = col[c] >= 0
        chunks = [(r[on], col[c[on]], v[on])]
        for k, (orig, _, _) in enumerate(self.maps):
            owner[orig], block[orig], pos[orig] = k, np.arange(len(orig))[:, None], np.arange(orig.shape[1])
        mine = owner[c]
        for k, (orig, red_idx, t) in enumerate(self.maps):
            e = np.flatnonzero(mine == k)
            key = r[e] * len(orig) + block[c[e]]
            order = np.argsort(key, kind="stable")
            e, first = e[order], np.flatnonzero(np.diff(key[order], prepend=-1))
            vals = np.add.reduceat(v[e, None] * t[block[c[e]], pos[c[e]]], first, axis=0).ravel()
            on = np.abs(vals) > orig.shape[1] * np.finfo(float).eps * np.abs(v[e]).max(initial=0.0)
            chunks.append((np.repeat(r[e[first]], t.shape[2])[on], red_idx[block[c[e[first]]]].ravel()[on], vals[on]))
        r, c, v = (np.concatenate(part) for part in zip(*chunks))
        on = (np.bincount(r, minlength=data.b.size) > 0) | (data.b != 0)  # a row 0 = 0 says nothing
        self.rows = np.flatnonzero(on)
        red._add_rows([((np.cumsum(on) - 1)[r], c, v)], data.b[self.rows])
        self.proj = _Projector(red)

    @classmethod
    def of(cls, data: _Data) -> _Face | None:
        """The face that the multipliers of :func:`_kernel_multipliers` expose, or ``None``."""
        z = _kernel_multipliers(data)
        got = None if z is None else _dual_spectra(data, z)
        face = None if got is None else cls(data, z, *got)
        return None if face is None or face.proj is None else face

    def lift(self, y: np.ndarray) -> np.ndarray:
        x = np.zeros(self.data.problem.n_vars)
        x[self.keep] = y[self.at]
        for orig, red_idx, t in self.maps:
            x[orig] = np.matmul(t, y[red_idx][:, :, None])[:, :, 0]
        return x

    def lifted(self, res: SolveResult, tols: Tolerances) -> SolveResult | None:
        """The face's result in the original's coordinates and records: an undecided one
        as it is, a witness when it passes :func:`_check_point` there, multipliers y
        when :func:`_certificate` accepts them lifted to y + t z; else ``None``.

        y separates on the face with room m = -(feas + gap + bound).  On a
        block, with B the face's part of h = A^T y and mu g's least eigenvalue
        off it, a Schur complement gives lambda_min(h + t g) >= lambda_min(B)
        - delta once t mu >= 2 |h| + delta + |h|^2 / delta; an interval
        coordinate off the face needs h + t g >= 0.  With delta = m / (4 caps)
        the infimum falls by at most m / 4.  This leaves out the terms t cut caps
        (g's face eigenvalues are only within the cut of 0) and t z.b (only about
        0), and t can far exceed 1 / cut: the bound proposes t, and
        :func:`_certificate` on the original data decides.
        """
        d, witness, cert = self.data, None, None
        if res.verdict is Verdict.FEASIBLE:
            x = self.lift(self.proj.problem.join(res.witness))
            if _check_point(d, x, _apply(d.coo, x, d.b.size) - d.b, tols)[0]:
                witness = d.problem.split(x)
            else:
                return None
        elif res.verdict is Verdict.INFEASIBLE_CERTIFIED:
            y, (r, c, v) = np.zeros(d.b.size), d.coo
            y[self.rows] = res.certificate.multipliers
            h = _apply((c, r, v), y, d.problem.n_vars)
            delta = -(tols.feas + res.certificate.gap + res.certificate.bound) / (4 * d.caps)
            t = float((-h[self.zeroed] / self.g[self.zeroed]).max(initial=0.0))
            for idx, mu in self.off:
                norm = np.linalg.norm(h[idx], axis=1)
                t = max(t, float(((2 * norm + delta + norm**2 / delta) / mu).max()))
            cert = _certificate(d, y + t * self.z, tols)
            if cert is None:
                return None
        face = f" on a face: {d.problem.n_vars} -> {self.proj.problem.n_vars} coordinates"
        return SolveResult(res.verdict, witness, res.iterations, res.residual, cert,
                           (res.message or "witness") + face, None if res.iterate is None else self.lift(res.iterate))


def _run(proj: _Projector, tols: Tolerances, start: np.ndarray | None, spent: int = 0) -> SolveResult:
    """The iteration of :func:`solve_feasibility` on ``proj``'s problem from ``start``, with
    what ``spent`` earlier iterations leave of the budget; its count includes them."""
    # an empty affine set: r = A x_part - b has A^T r = 0 and r.b = -|r|^2, so r / |r|,
    # of gap -|r|, is tried as multipliers once |r| exceeds its rounding
    r, eps = math.sqrt(proj.residual @ proj.residual), np.finfo(float).eps
    if r > len(proj.b) * eps * (proj.norm_a * math.sqrt(proj.x_part @ proj.x_part) + math.sqrt(proj.b @ proj.b)):
        cert = _certificate(proj, proj.residual / r, tols)
        if cert is not None:
            return SolveResult(Verdict.INFEASIBLE_CERTIFIED, None, spent, r, cert,
                               "affine constraints are inconsistent (empty affine set)")
    x = (proj.x_part if start is None else start).copy()
    res = float("inf")
    pl = pk = x
    next_attempt, cap = 1, tols.max_iter - spent
    for it in range(1, cap + 1):
        pl = proj.affine(x)
        pk = proj.cone(2.0 * pl - x)
        x = x + pk - pl
        res = float(np.linalg.norm(pk - pl))
        if res < tols.feas:
            a_pt = proj.affine(pk)
            ok, _ = _check_point(proj, a_pt, _apply(proj.coo, a_pt, proj.b.size) - proj.b, tols)
            if ok:
                return SolveResult(Verdict.FEASIBLE, proj.problem.split(a_pt), spent + it, res, iterate=x)
        # certificates are validated from the data, so an early attempt is safe: try at
        # iterations 1, 2, 4, ... and then every _ATTEMPT_SPACING iterations, and at the
        # cap, with the multipliers of the gap's row-space part scaled to a unit functional
        if it == next_attempt or it == cap:
            next_attempt += min(it, _ATTEMPT_SPACING)
            y = proj.multipliers(pk - pl)
            cert = None if y is None else _certificate(proj, y, tols)
            if cert is not None:
                return SolveResult(Verdict.INFEASIBLE_CERTIFIED, None, spent + it, res, cert,
                                   "validated separating functional", x)
    return SolveResult(Verdict.UNDECIDED, None, tols.max_iter, res, None,
                       "iteration cap without a witness or a validated certificate", x)


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

    With no start, it runs first on the face of the cones that the data
    expose, if any (:class:`_Face`); a threshold family's member is solved
    unreduced.  When the face's evidence fails on the original problem, the
    unreduced solve gets what the face's iterations left of ``max_iter``, and
    the result counts both.

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
    if problem._projector is not None:  # a face would depend on the member's weight
        return _run(problem._projector, tols, start)
    data, spent = _Data(problem), 0
    face = None if start is not None else _Face.of(data)  # a start is in the original coordinates
    if face is not None:
        res = _run(face.proj, tols, None)
        lifted = face.lifted(res, tols)
        if lifted is not None:
            return lifted
        spent = res.iterations
    return _run(_Projector(data), tols, start, spent)


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


def bisect_threshold(feasible_at: Callable[[float], bool | UpperEnd], tol: float | None = None) -> ThresholdResult:
    """Bisection for the supremum of {lam : feasible_at(lam)} on [0, 1].

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
    lo, hi = 0.0, 1.0
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


def threshold_search(build: Callable[[float], SdpProblem], tols: Tolerances | None = None) -> ThresholdResult:
    """Largest weight in [0, 1] at which the problem ``build(weight)`` is feasible.

    ``build`` gives a monotone family whose weight enters only the
    right-hand side, affinely (as :func:`joint_problem` writes it at
    ``weights`` (w, w, ...)).  The family is built at 0 and 1 and factorized
    once; the factorization lives as long as its layout.  Its member at 1/2
    is built too (a :func:`joint_problem` family builds only b and the caps
    at 1/2 and 1, on the layout of 0), and a family whose constraint matrix
    or cones differ at 0, 1/2 and 1, or whose b(1/2) lies off b(0) + db / 2
    by more than rounding, raises ``ValueError``: a family affine only in its
    matrix and cones would certify the threshold of another one.  Each probe is one
    :func:`solve_feasibility` of its member, started at the final iterate
    of the last feasible probe; a certified probe hands
    :func:`bisect_threshold` its functional's crossing as an upper end.
    """
    tols = tols or DEFAULT_TOLS
    family, half = _Projector(build(0.0), build(1.0)), _Data(build(0.5))
    drift = np.abs(half.b - (family.b + 0.5 * family.db)).max(initial=0.0)
    if not (family.same_matrix_and_cones(half)
            and drift <= 8 * np.finfo(float).eps * max(1.0, np.abs(half.b).max(initial=0.0))):
        raise ValueError("the family is not affine in its weight: its member at 1/2 is off the line")
    start = None

    def probe(lam: float) -> bool | UpperEnd:
        nonlocal start
        res = solve_feasibility(family.at(lam), tols, start)
        if res.feasible:
            start = res.iterate
            return True
        if res.verdict is Verdict.INFEASIBLE_CERTIFIED:
            at = family.upper_end(lam, res.certificate, tols.feas)
            if at is not None:
                return UpperEnd(at, res.certificate)
        return False

    return bisect_threshold(probe, tols.bisect_tol)
