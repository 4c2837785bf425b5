"""Central numerical configuration.

Every tolerance used across the package lives in one frozen record so that a
caller can tighten or loosen the whole stack coherently.  Functions take an
optional ``tols`` argument defaulting to :data:`DEFAULT_TOLS`.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # construction-time validation
    herm_atol: float = 1e-12      # max-norm Hermiticity slack accepted at input
    device_atol: float = 1e-10    # device invariants (normalization, PSD slack)

    # feasibility solver
    feas: float = 1e-7            # residual below which a problem is FEASIBLE
    infeas: float = 1e-5          # best residual above which certificates are tried
    plateau_window: int = 200     # largest spacing of certificate attempts (1, 2, 4, ... up to it)
    max_iter: int = 50_000
    witness_factor: float = 10.0  # witness re-verification slack, in units of feas

    # threshold search
    bisect_tol: float = 5e-4

    # domain checks
    marginal_atol: float = 1e-8   # joint-observable marginal reproduction

    @property
    def witness_atol(self) -> float:
        """Slack within which a solver witness must satisfy its constraints."""
        return self.witness_factor * self.feas


DEFAULT_TOLS = Tolerances()
