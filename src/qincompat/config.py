"""Central numerical configuration.

The solver's settable values live in one frozen record: the residual below
which a problem is feasible, the iteration cap and the bisection tolerance.
Functions that solve take an optional ``tols`` argument defaulting to
:data:`DEFAULT_TOLS`.  Device validation has fixed slacks, the module
constants below; a device's own ``atol`` argument overrides them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

HERM_ATOL = 1e-12    # max-norm Hermiticity slack accepted at input
DEVICE_ATOL = 1e-10  # device invariants (normalization, PSD slack)


@dataclass(frozen=True)
class Tolerances:
    feas: float = 1e-7            # residual below which a problem is FEASIBLE
    max_iter: int = 50_000
    bisect_tol: float = 5e-4      # threshold-search bracket width

    witness_factor: ClassVar[float] = 10.0  # witness re-verification slack, in units of feas

    @property
    def witness_atol(self) -> float:
        """Slack within which a solver witness must satisfy its constraints."""
        return self.witness_factor * self.feas


DEFAULT_TOLS = Tolerances()
