"""Testers: measurements whose input is a channel rather than a state.

A tester feeds one half of a (possibly entangled) probe state through
the channel under test and measures the joint output.  Its effects live
on input (x) output, sum to xi (x) I for a unit-trace normalization state
xi, and give outcome probabilities tr[Choi(C) F_j].  Compatibility of two
testers asks for one joint tester with both as margins; because each
tester carries its own normalization, pairs can be incompatible even
when every pair of effects commutes, so commutation is checked side by
side with the feasibility verdict.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import linalg as la
from .config import Tolerances
from .devices import Channel, Observable, State
from .obscompat import Compatibility, _decide, _search
from .sdpcore import ThresholdResult

__all__ = [
    "Tester",
    "CommutationCompatReport",
    "trivial_tester",
    "prepare_measure_tester",
    "tester_probability",
    "check_tester_pair",
    "tester_degree",
    "commutation_vs_compat_report",
]


@dataclass(frozen=True)
class Tester:
    """Outcome effects for a single use of an unknown channel.

    Effects act on input (x) output (input factor first, matching the
    Choi convention).  They must be positive and sum to xi (x) I with
    tr xi = 1; the normalization state ``xi`` is recovered from the sum.
    """

    effects: np.ndarray  # (m, in*out, in*out)
    in_dim: int
    out_dim: int
    outcomes: tuple | None = None
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        eff = np.asarray(self.effects, dtype=complex)
        dio = self.in_dim * self.out_dim
        if eff.ndim != 3 or eff.shape[1:] != (dio, dio):
            raise ValueError(f"effects must have shape (m, {dio}, {dio}), got {eff.shape}")
        eff, atol = la.require_positive(eff, atol, "effect {} is not positive")
        total = eff.sum(axis=0)
        xi = la.partial_trace(total, [self.in_dim, self.out_dim], keep=[0]) / self.out_dim
        dev = np.abs(total - la.kron(xi, np.eye(self.out_dim))).max()
        if dev > max(atol, 1e-8):
            raise ValueError(f"effect total is not of product form (deviation {dev:.3e})")
        tr = np.trace(xi).real
        if abs(tr - 1.0) > max(atol, 1e-8):
            raise ValueError(f"normalization state has trace {tr:.6f}, expected 1")
        outcomes = self.outcomes if self.outcomes is not None else tuple(range(eff.shape[0]))
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "outcomes", tuple(outcomes))

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def xi(self) -> np.ndarray:
        """Normalization state on the input factor."""
        total = self.effects.sum(axis=0)
        return la.partial_trace(total, [self.in_dim, self.out_dim], keep=[0]) / self.out_dim


def trivial_tester(probs, in_dim: int, out_dim: int, xi: np.ndarray | None = None) -> Tester:
    """Tester whose statistics ignore the channel entirely.

    Effects p_j * (xi (x) I) toss a coin with distribution ``probs`` no
    matter what is plugged in.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("probs must be a probability distribution")
    base = np.eye(in_dim, dtype=complex) / in_dim if xi is None else np.asarray(xi, dtype=complex)
    block = la.kron(base, np.eye(out_dim))
    return Tester(np.stack([w * block for w in p]), in_dim, out_dim)


def prepare_measure_tester(probe: State | np.ndarray, obs: Observable,
                           in_dim: int | None = None) -> Tester:
    """Tester that feeds ``probe`` through the channel and measures ``obs``.

    Effects probe^T (x) E_j; the transpose implements state preparation
    in the Choi pairing.
    """
    sigma = probe.matrix if isinstance(probe, State) else np.asarray(probe, dtype=complex)
    din = sigma.shape[0] if in_dim is None else in_dim
    eff = np.stack([la.kron(sigma.T.copy(), e) for e in obs.effects])
    return Tester(eff, din, obs.dim, outcomes=obs.outcomes)


def tester_probability(tester: Tester, chan: Channel) -> np.ndarray:
    """Outcome distribution of ``tester`` on ``chan``."""
    if (chan.in_dim, chan.out_dim) != (tester.in_dim, tester.out_dim):
        raise ValueError("tester and channel dimensions disagree")
    j = chan.choi()
    p = np.array([np.trace(j @ f).real for f in tester.effects])
    if abs(p.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {p.sum():.6f}; device mismatch")
    return p


def _require_pair(t1: Tester, t2: Tester) -> None:
    # a 2 x 4 and a 4 x 2 tester have one shape, so the builder's shape check misses this
    if (t1.in_dim, t1.out_dim) != (t2.in_dim, t2.out_dim):
        raise ValueError("testers must share input and output dimensions")


def _margins(t1: Tester, t2: Tester):
    """``(margins, factors)`` of :func:`sdpcore.joint_problem` for a tester pair: blocks on
    input x output, each tester on an axis of its own; trivial noise is channel-blind,
    A_j (x) I with A_j on the input."""
    return [(t.effects, (k,), (0, 1), (0,)) for k, t in enumerate((t1, t2))], (t1.in_dim, t1.out_dim)


def check_tester_pair(t1: Tester, t2: Tester,
                      tols: Tolerances | None = None) -> Compatibility:
    """Can one joint tester produce both testers as margins?

    Searches for positive blocks G_jl with sum_l G_jl = F1_j and
    sum_j G_jl = F2_l.  Summing both margins forces the normalization
    states to coincide, so testers with different probe states are
    incompatible regardless of their effects.  :func:`sdpcore.joint_problem`
    admits up to 64 outcomes per tester and 4,096 joint outcomes.  On success
    ``joint`` is the joint tester's grid of blocks, of shape (m, n, side, side).
    """
    _require_pair(t1, t2)
    return _decide(*_margins(t1, t2), lambda grid, atol: la.psd_project(grid), tols)


def tester_degree(t1: Tester, t2: Tester,
                  tols: Tolerances | None = None) -> ThresholdResult:
    """Largest q at which the q-dampened testers are compatible.

    Each margin may be mixed with an arbitrary channel-blind tester:
    sum_l G_jl = q F1_j + (1-q) A_j (x) I with A_j >= 0, sum_j tr A_j = 1,
    and likewise on the other side.  Always at least 1/2: tossing a fair
    coin between the two testers and faking the other outcome realizes
    q = 1/2 for any pair.  That is trivial noise, which every tester admits;
    compatible and arbitrary noise need out xi = I.  The family is
    factorized once and searched by
    :func:`sdpcore.threshold_search`: ``value`` is certified feasible, and
    ``upper`` holds the smallest certified upper end the search found.
    """
    _require_pair(t1, t2)
    return _search(*_margins(t1, t2), tols=tols)


@dataclass(frozen=True)
class CommutationCompatReport:
    """Commutation of tester effects next to their joint feasibility."""

    max_commutator: float
    pair: Compatibility
    degree: ThresholdResult

    @property
    def commuting_but_incompatible(self) -> bool:
        return self.max_commutator < 1e-12 and not self.pair.feasible


def commutation_vs_compat_report(t1: Tester, t2: Tester,
                                 tols: Tolerances | None = None) -> CommutationCompatReport:
    """Contrast effect commutation with joint realizability.

    For observables, pairwise commutation implies compatibility.  For
    testers it does not: the report carries the largest commutator norm
    across all effect pairs, the joint feasibility verdict, and the
    compatibility degree, so commuting-but-incompatible pairs stand out.
    """
    _require_pair(t1, t2)
    comm = max(la.op_norm(f1 @ f2 - f2 @ f1)
               for f1 in t1.effects for f2 in t2.effects)
    pair = check_tester_pair(t1, t2, tols)
    degree = tester_degree(t1, t2, tols)
    return CommutationCompatReport(comm, pair, degree)
