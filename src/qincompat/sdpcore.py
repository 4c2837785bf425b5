"""Feasibility core: alternating projections onto an affine subspace and a
product of cones.

A problem is a list of variable blocks (positive semidefinite matrices with a
trace cap, or vectors of nonnegative scalars with entry caps) plus affine
equality constraints expressed on the real vectorization of the blocks.  The
solver alternates exact projections:

* onto the affine set, via a pinned SVD factorization of the constraint matrix
  (rank revealing, so redundant or dependent rows are harmless);
* onto the cone product, block by block (eigenvalue clipping, scalar clamping,
  trace rescaling when a cap is exceeded).

The caps make the cone product compact, so on infeasible instances the iterates
approach the minimum-distance gap pair and the residual tends to the gap
distance.  While the best residual is above ``infeas``, a separating-functional
certificate built from the gap direction is tried at iterations 1, 2, 4, ...,
doubling until the spacing reaches ``plateau_window``, and then every
``plateau_window`` iterations.  Each certificate is validated exactly from
problem data (the functional's value on the affine set vs its infimum over the
capped cones), never trusted from solver state alone, so early attempts are
as safe as late ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from . import linalg as la

__all__ = [
    "Verdict",
    "SdpProblem",
    "SolveResult",
    "Certificate",
    "ThresholdResult",
    "real_linear_map",
    "vec_of",
    "solve_feasibility",
    "verify_witness",
    "bisect_threshold",
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


def vec_of(matrix) -> np.ndarray:
    """Real vectorization of a Hermitian matrix (row vector for constraints)."""
    return la.hermitian_to_real_vec(np.asarray(matrix, dtype=complex))


def real_linear_map(fn: Callable[[np.ndarray], np.ndarray], in_dim: int, out_dim: int) -> np.ndarray:
    """Matrix of a Hermitian-to-Hermitian real-linear map in vectorized coordinates.

    ``fn`` must map Hermitian in_dim x in_dim matrices to Hermitian
    out_dim x out_dim matrices linearly over the reals.
    """
    n = in_dim * in_dim
    cols = np.empty((out_dim * out_dim, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        h = la.real_vec_to_hermitian(e, in_dim)
        e[i] = 0.0
        cols[:, i] = la.hermitian_to_real_vec(fn(h))
    return cols


class SdpProblem:
    """Block-structured feasibility problem over PSD and nonnegative variables."""

    def __init__(self):
        self._blocks: dict[str, _Block] = {}
        self._rows: list[tuple[dict[str, np.ndarray], np.ndarray]] = []
        self._n = 0

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
        return name

    def block(self, name: str) -> _Block:
        return self._blocks[name]

    @property
    def n_vars(self) -> int:
        return self._n

    # --- constraints -------------------------------------------------------

    def add_equality(self, terms: dict[str, np.ndarray], rhs: np.ndarray) -> None:
        """Rows sum_b T_b vec(X_b) = rhs, with T_b of shape (k, len(b))."""
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        checked = {}
        for name, t in terms.items():
            blk = self._blocks[name]
            t = np.asarray(t, dtype=float)
            if t.ndim == 1:
                t = t[None, :]
            if t.shape != (rhs.size, blk.length):
                raise ValueError(
                    f"coefficient block for {name!r} has shape {t.shape}, expected {(rhs.size, blk.length)}"
                )
            checked[name] = t
        self._rows.append((checked, rhs))

    def add_matrix_equality(self, terms: dict[str, float | np.ndarray], rhs) -> None:
        """Equality of Hermitian matrices; scalar coefficients mean c * X_b."""
        rhs_vec = vec_of(rhs)
        k = rhs_vec.size
        built = {}
        for name, coeff in terms.items():
            blk = self._blocks[name]
            if np.isscalar(coeff):
                if blk.length != k:
                    raise ValueError(
                        f"scalar coefficient needs block {name!r} to match the rhs dimension"
                    )
                built[name] = float(coeff) * np.eye(k)
            else:
                built[name] = np.asarray(coeff, dtype=float)
        self.add_equality(built, rhs_vec)

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        rows = sum(r.size for _, r in self._rows)
        a = np.zeros((rows, self._n))
        b = np.zeros(rows)
        at = 0
        for terms, rhs in self._rows:
            k = rhs.size
            for name, t in terms.items():
                blk = self._blocks[name]
                a[at : at + k, blk.offset : blk.offset + blk.length] += t
            b[at : at + k] = rhs
            at += k
        return a, b

    # --- views -------------------------------------------------------------

    def split(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Unpack a flat iterate into named Hermitian matrices / scalar vectors."""
        out = {}
        for blk in self._blocks.values():
            seg = x[blk.offset : blk.offset + blk.length]
            if blk.kind == "psd":
                out[blk.name] = la.real_vec_to_hermitian(seg, blk.dim)
            else:
                out[blk.name] = seg.copy()
        return out


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

    @property
    def feasible(self) -> bool:
        return self.verdict is Verdict.FEASIBLE


class _Projector:
    """Precomputed projections for one problem."""

    def __init__(self, problem: SdpProblem):
        self.problem = problem
        a, b = problem.assemble()
        self.n = problem.n_vars
        if a.shape[0]:
            u, s, vt = np.linalg.svd(a, full_matrices=False)
            tol = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
            r = int(np.sum(s > tol))
            self.vr = vt[:r].T
            self.x_part = self.vr @ ((u[:, :r].T @ b) / s[:r])
            self.inconsistency = float(np.abs(a @ self.x_part - b).max()) if r else float(np.abs(b).max())
        else:
            self.vr = np.zeros((self.n, 0))
            self.x_part = np.zeros(self.n)
            self.inconsistency = 0.0
        self.a, self.b = a, b
        # group psd blocks by dimension for batched eigendecompositions
        groups: dict[int, list[_Block]] = {}
        scalars: list[_Block] = []
        for blk in problem._blocks.values():
            (groups.setdefault(blk.dim, []).append(blk) if blk.kind == "psd" else scalars.append(blk))
        self.psd_groups = []
        for dim, blks in groups.items():
            idx = np.stack([np.arange(b_.offset, b_.offset + b_.length) for b_ in blks])
            caps = np.array([float(b_.cap) for b_ in blks])
            self.psd_groups.append((dim, idx, caps, np.arange(1, dim + 1)))
        if scalars:
            self.scalar_idx = np.concatenate([np.arange(b_.offset, b_.offset + b_.length) for b_ in scalars])
            self.scalar_caps = np.concatenate([b_.cap for b_ in scalars])
        else:
            self.scalar_idx = np.zeros(0, dtype=int)
            self.scalar_caps = np.zeros(0)

    def affine(self, x: np.ndarray) -> np.ndarray:
        if self.vr.shape[1] == 0:
            return x if self.a.shape[0] == 0 else self.x_part.copy()
        return x - self.vr @ (self.vr.T @ x) + self.x_part

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
    h = z - a_pt
    if proj.vr.shape[1]:
        h = proj.vr @ (proj.vr.T @ h)  # exactness hygiene: constant on the affine set
    nh = float(np.linalg.norm(h))
    if nh < 1e-15:
        return None
    h = h / nh
    affine_value = float(h @ a_pt)
    cone_inf = proj.cone_infimum(h)
    cert = Certificate(proj.problem.split(h), affine_value, cone_inf)
    return cert if cert.gap < -tols.feas else None


def verify_witness(problem: SdpProblem, witness: dict[str, np.ndarray], tols: Tolerances | None = None):
    """Independent witness check: constraint residuals and cone memberships.

    Returns (ok, report) with the worst residuals; thresholds are
    ``witness_factor * feas`` per the solver contract.
    """
    tols = tols or DEFAULT_TOLS
    slack = tols.witness_atol
    x = np.zeros(problem.n_vars)
    for name, val in witness.items():
        blk = problem.block(name)
        if blk.kind == "psd":
            x[blk.offset : blk.offset + blk.length] = la.hermitian_to_real_vec(np.asarray(val, dtype=complex))
        else:
            x[blk.offset : blk.offset + blk.length] = np.asarray(val, dtype=float)
    a, b = problem.assemble()
    constraint_residual = float(np.abs(a @ x - b).max()) if a.shape[0] else 0.0
    worst_eig = 0.0
    worst_scalar = 0.0
    for blk in problem._blocks.values():
        seg = x[blk.offset : blk.offset + blk.length]
        if blk.kind == "psd":
            lo = float(np.linalg.eigvalsh(la.real_vec_to_hermitian(seg, blk.dim))[0])
            worst_eig = min(worst_eig, lo)
        else:
            worst_scalar = min(worst_scalar, float(seg.min(initial=0.0)))
    ok = constraint_residual < slack and worst_eig > -slack and worst_scalar > -slack
    report = {
        "constraint_residual": constraint_residual,
        "min_eigenvalue": worst_eig,
        "min_scalar": worst_scalar,
        "slack": slack,
    }
    return ok, report


def solve_feasibility(problem: SdpProblem, tols: Tolerances | None = None) -> SolveResult:
    """Decide feasibility of the block problem by alternating projections.

    The iteration is the reflected (averaged) form of alternating projections:
    x <- x + P_cone(2 P_aff(x) - x) - P_aff(x).  It uses exactly the two
    projections of the plain scheme but converges geometrically on many
    instances where the feasible set touches the cone boundary tangentially,
    which is the generic situation for compatibility questions whose unique
    joint device is an extreme point.  The tracked residual is the distance
    between the two projected points; it tends to zero exactly on feasible
    problems and to the gap distance on infeasible ones.
    """
    tols = tols or DEFAULT_TOLS
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
    x = proj.x_part.copy()
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
            ok, _ = verify_witness(problem, witness, tols)
            if ok:
                return SolveResult(Verdict.FEASIBLE, witness, it, res)
        best = min(best, res)
        # certificates are validated exactly, so an early attempt is safe: try
        # at iterations 1, 2, 4, ... and then every plateau_window iterations;
        # a failed attempt never ends the run
        if it == next_attempt:
            next_attempt += min(it, tols.plateau_window)
            if best > tols.infeas:
                cert = _certificate(proj, pk, pl, tols)
                if cert is not None:
                    return SolveResult(
                        Verdict.INFEASIBLE_CERTIFIED, None, it, res, cert,
                        "separating functional validated before the iteration cap",
                    )
    if best > tols.infeas:
        cert = _certificate(proj, pk, pl, tols)
        if cert is not None:
            return SolveResult(
                Verdict.INFEASIBLE_CERTIFIED, None, tols.max_iter, res, cert,
                "iteration cap with validated separating functional",
            )
        return SolveResult(
            Verdict.INFEASIBLE_HEURISTIC, None, tols.max_iter, res, None,
            "iteration cap with residual above the infeasibility tolerance",
        )
    return SolveResult(
        Verdict.UNDECIDED, None, tols.max_iter, res, None,
        "iteration cap with residual between tolerances",
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
