"""Steering assemblages and local hidden state models.

One side of a bipartite state is measured with a choice of observables;
the unnormalized conditional states left on the other side form an
assemblage.  The assemblage admits a local hidden state model when a
fixed ensemble, indexed by deterministic outcome assignments, reproduces
every conditional state by classical selection.  Existence of such a
model is again a cone feasibility problem, and for the maximally
entangled input it coincides with joint measurability of the transposed
observables.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import linalg as la
from .config import DEFAULT_TOLS, Tolerances
from .devices import State, transpose_observable
from .obscompat import JointResult, check_joint
from .sdpcore import (Decision, NoiseClass, ThresholdResult, joint_problem, joint_witness,
                      solve_feasibility, threshold_search)

__all__ = [
    "Assemblage",
    "LhsModel",
    "LhsResult",
    "CrosscheckReport",
    "deterministic_strategies",
    "assemblage_from",
    "max_entangled_assemblage",
    "check_lhs",
    "steering_degree",
    "steering_jm_crosscheck",
]

MAX_STRATEGIES = 4096


@dataclass(frozen=True)
class Assemblage:
    """Conditional states sigma_{x|j} on the unmeasured side.

    ``blocks[j, x]`` is the unnormalized state for outcome x of setting
    j.  Blocks must be positive, the per-setting totals must agree (no
    signalling between the settings) and the common total must have unit
    trace.
    """

    blocks: np.ndarray  # (n_settings, n_outcomes, d, d)
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[2] != blocks.shape[3]:
            raise ValueError(f"blocks must have shape (settings, outcomes, d, d), got {blocks.shape}")
        blocks, atol = la.require_positive(blocks, atol, "block ({1}|{0}) is not positive")
        totals = blocks.sum(axis=1)
        spread = np.abs(totals - totals[0]).max() if len(totals) > 1 else 0.0
        if spread > max(atol, 1e-8):
            raise ValueError(f"setting totals disagree (max deviation {spread:.3e})")
        tr = np.trace(totals[0]).real
        if abs(tr - 1.0) > max(atol, 1e-8):
            raise ValueError(f"total trace is {tr:.6f}, expected 1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_settings(self) -> int:
        return self.blocks.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.blocks.shape[1]

    @property
    def dim(self) -> int:
        return self.blocks.shape[2]

    def total(self) -> np.ndarray:
        """Reduced state seen without conditioning, averaged over settings."""
        return self.blocks.sum(axis=1).mean(axis=0)


def deterministic_strategies(n_settings: int, n_outcomes: int) -> np.ndarray:
    """All outcome assignments, one row per function settings -> outcomes."""
    grid = np.indices((n_outcomes,) * n_settings, dtype=np.intp)
    return grid.reshape(n_settings, n_outcomes ** n_settings).T


@dataclass(frozen=True)
class LhsModel:
    """Ensemble of hidden states indexed by deterministic strategies."""

    states: np.ndarray      # (n_strategies, d, d), unnormalized
    strategies: np.ndarray  # (n_strategies, n_settings)

    def reproduces(self, assemblage: Assemblage, atol: float = 1e-7) -> bool:
        """Do the selected sums match every conditional state?"""
        # picks[j, x, s]: strategy s answers x at setting j
        picks = self.strategies.T[:, None, :] == np.arange(assemblage.n_outcomes)[:, None]
        selected = (picks @ self.states.reshape(len(self.states), -1)).reshape(assemblage.blocks.shape)
        return np.abs(selected - assemblage.blocks).max() <= atol


@dataclass(frozen=True)
class LhsResult(Decision):
    """Outcome of a local hidden state search."""

    model: LhsModel | None = None

    @property
    def unsteerable(self) -> bool:
        return self.solve.feasible


def assemblage_from(state: State | np.ndarray, observables) -> Assemblage:
    """Conditional states from measuring the first factor of ``state``.

    ``state`` lives on dim_A * dim_B with the measured factor first;
    sigma_{x|j} = tr_A[(A_j(x) (x) I) omega].
    """
    omega = state.matrix if isinstance(state, State) else np.asarray(state, dtype=complex)
    observables = tuple(observables)
    da = observables[0].dim
    side = omega.shape[0]
    if side % da != 0:
        raise ValueError(f"state dimension {side} does not factor through {da}")
    db = side // da
    outs = {o.n_outcomes for o in observables}
    if len(outs) != 1:
        raise ValueError("observables must share one outcome count")
    if any(o.dim != da for o in observables):
        raise ValueError("observables must share one dimension")
    effects = np.stack([o.effects for o in observables])
    return Assemblage(la.partial_trace(la.kron(effects, np.eye(db)) @ omega, [da, db], keep=[1]))


def max_entangled_assemblage(observables) -> Assemblage:
    """Assemblage from the maximally entangled state: sigma_{x|j} = A_j(x)^T / d."""
    observables = tuple(observables)
    d = observables[0].dim
    phi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return assemblage_from(np.outer(phi, phi.conj()), observables)


def _require_strategies(assemblage: Assemblage) -> None:
    count = assemblage.n_outcomes ** assemblage.n_settings
    if count > MAX_STRATEGIES:
        raise ValueError(f"{count} strategies exceed the supported {MAX_STRATEGIES}")


def check_lhs(assemblage: Assemblage, tols: Tolerances | None = None) -> LhsResult:
    """Search for a local hidden state model of ``assemblage``.

    One positive block per deterministic strategy; for every setting and
    outcome the blocks whose strategy picks that outcome must sum to the
    conditional state.
    """
    tols = tols or DEFAULT_TOLS
    _require_strategies(assemblage)
    strategies = deterministic_strategies(assemblage.n_settings, assemblage.n_outcomes)

    # strategy k is the kth outcome assignment in product order, the kth
    # point of the joint device's outcome grid
    result = solve_feasibility(joint_problem(assemblage.blocks), tols)
    model = None
    if result.feasible:
        grid, _ = joint_witness(result.witness)
        model = LhsModel(la.psd_project(grid.reshape((-1,) + grid.shape[-2:])), strategies)
    return LhsResult(result, model)


def steering_degree(observables, tols: Tolerances | None = None) -> ThresholdResult:
    """Largest weight lam at which the maximally entangled assemblage of the
    family lam A_j + (1 - lam) I / m admits a local hidden state model.

    That assemblage is lam sigma_{x|j} + (1 - lam) sigma / m, the
    assemblage's own mixed with uniform noise, so the :func:`check_lhs`
    problems at every weight are one :func:`sdpcore.joint_problem` family
    with a fixed constraint matrix.  It is factorized once and searched by
    :func:`sdpcore.threshold_search`: ``value`` is certified feasible, and
    ``upper`` holds the smallest certified upper end the search found.
    More than ``MAX_STRATEGIES`` strategies raise ``ValueError``, as in
    :func:`check_lhs`.
    """
    tols = tols or DEFAULT_TOLS
    assemblage = max_entangled_assemblage(observables)
    _require_strategies(assemblage)
    blocks, n = assemblage.blocks, assemblage.n_settings
    return threshold_search(lambda lam: joint_problem(blocks, (lam,) * n, noise=NoiseClass.UNIFORM_NOISE), tols)


@dataclass(frozen=True)
class CrosscheckReport:
    """Steering of the maximally entangled assemblage vs joint measurability."""

    lhs: LhsResult
    joint: JointResult
    agree: bool


def steering_jm_crosscheck(observables, tols: Tolerances | None = None) -> CrosscheckReport:
    """Compare the two faces of one feasibility fact.

    The maximally entangled assemblage of a family of observables admits
    a local hidden state model exactly when the transposed observables
    are jointly measurable.  Both checks run independently and the report
    records whether the verdicts agree.
    """
    tols = tols or DEFAULT_TOLS
    observables = tuple(observables)
    lhs = check_lhs(max_entangled_assemblage(observables), tols)
    joint = check_joint(tuple(transpose_observable(o) for o in observables), tols)
    return CrosscheckReport(lhs, joint, lhs.solve.feasible == joint.solve.feasible)
