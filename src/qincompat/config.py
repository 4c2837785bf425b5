"""Central numerical configuration.

The solver's settable values live in one frozen record: the residual below
which a problem is feasible, the iteration cap and the bisection tolerance.
Both tolerances must be finite and positive and the cap an integer (not a
bool) of at least 1, else construction raises ``ValueError``.  Functions
that solve take an optional ``tols`` argument defaulting to
:data:`DEFAULT_TOLS`.  Device validation has fixed slacks, the module
constants below; a device's own ``atol`` argument overrides them.
"""
from __future__ import annotations

import math
import numbers
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

    def __post_init__(self):
        for label, value in (("feasibility", self.feas), ("bisection", self.bisect_tol)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{label} tolerance {value} must be finite and positive")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"iteration cap {self.max_iter!r} must be an integer of at least 1")

    @property
    def witness_atol(self) -> float:
        """Slack within which a solver witness must satisfy its constraints."""
        return self.witness_factor * self.feas


DEFAULT_TOLS = Tolerances()
