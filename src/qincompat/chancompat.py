"""Channel-side compatibility: joint channels, broadcastability, the
division preorder, conjugate-channel cross checks, noise robustness, and the
tripartite state marginal problem.

Two channels with a common input are compatible when a single channel into
the tensor product of their output spaces returns both as partial-trace
marginals.  In Choi coordinates the marginal maps are linear, so every
question here is again an affine-plus-PSD feasibility problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .config import DEFAULT_TOLS, Tolerances
from .devices import (
    Channel,
    Observable,
    State,
    choi_compose,
    conjugate_channel,
)
from .obscompat import Compatibility, _decide, _search, check, margins_of
from .sdpcore import (
    MAX_BLOCK_SIDE,
    Decision,
    NoiseClass,
    SdpProblem,
    partial_trace_map,
    real_linear_map,
    solve_feasibility,
    vec_of,
)

__all__ = [
    "check_channel_pair",
    "broadcastable_states",
    "DivisionReport",
    "channel_division",
    "conjugate_compat_check",
    "NoiseClass",
    "robustness",
    "state_marginal_feasible",
]


# === channel pairs ===========================================================

def check_channel_pair(chan_a: Channel, chan_b: Channel,
                       tols: Tolerances | None = None) -> Compatibility:
    """Decide whether two channels with a common input are compatible.

    Feasibility of a PSD matrix J on in x outA x outB whose partial traces
    over either output reproduce the two Choi matrices; a feasible J is the
    Choi matrix of the joint channel, which is returned.
    """
    return check((chan_a, chan_b), tols=tols)


def broadcastable_states(states, atol: float = 1e-10) -> bool:
    """True when the states pairwise commute (share an eigenbasis)."""
    mats = [s.matrix if isinstance(s, State) else np.asarray(s, dtype=complex) for s in states]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if la.op_norm(mats[i] @ mats[j] - mats[j] @ mats[i]) > atol:
                return False
    return True


# === division preorder =======================================================

@dataclass(frozen=True)
class DivisionReport(Decision):
    """Outcome of a channel division: the deciding solve, and the factor when below."""

    factor: Channel | None = None
    residual: float = 0.0

    @property
    def below(self) -> bool:
        """True exactly when the deciding solve found a factor."""
        return self.feasible


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


def channel_division(chan: Channel, through: Channel,
                     tols: Tolerances | None = None) -> DivisionReport:
    """Is ``chan`` a post-processing of ``through``?

    Feasibility of a channel E with chan = E o through; the report carries
    the deciding solve, and the factor E when it exists.  Composition against
    a fixed first channel is linear in the Choi matrix of E.
    """
    tols = tols or DEFAULT_TOLS
    if chan.in_dim != through.in_dim:
        raise ValueError("channels must share the input dimension")
    din = chan.in_dim
    dmid = through.out_dim
    dout = chan.out_dim
    side = dmid * dout
    if side > MAX_BLOCK_SIDE:
        raise ValueError(f"joint block side {side} exceeds the cap {MAX_BLOCK_SIDE}")
    j_through = through.choi()
    prob = SdpProblem()
    prob.add_psd_block("factor", side, trace_cap=float(dmid))
    prob.add_equality({"factor": _compose_map(j_through, din, dmid, dout)}, vec_of(chan.choi()))
    prob.add_equality(
        {"factor": partial_trace_map((dmid, dout), (0,))}, vec_of(np.eye(dmid))
    )
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return DivisionReport(res)
    factor = Channel.from_choi(res.witness["factor"], dmid, dout, atol=tols.witness_atol)
    recon = choi_compose(j_through, factor.choi(), din, dmid, dout)
    residual = float(np.abs(recon - chan.choi()).max())
    return DivisionReport(res, factor, residual)


def conjugate_compat_check(chan_a: Channel, chan_b: Channel,
                           tols: Tolerances | None = None) -> bool:
    """Compatibility via the conjugate order: chan_b below the conjugate of chan_a."""
    return channel_division(chan_b, conjugate_channel(chan_a), tols).below


# === robustness ==============================================================

def robustness(device_a, device_b, mode: NoiseClass = NoiseClass.ARBITRARY_NOISE,
               tols: Tolerances | None = None) -> float:
    """Largest mixing weight at which admissible noise restores compatibility.

    Accepts a channel pair or an observable and a channel, in either order,
    each written by :func:`obscompat.margins_of`.  The weight
    multiplies both devices; (1 - weight) multiplies a noise pair of the
    selected class, itself part of the feasibility search.  The family is
    factorized once and searched by :func:`sdpcore.threshold_search`; the
    returned weight is certified feasible and within the bisection tolerance
    below the threshold.  These devices admit trivial, compatible and
    arbitrary noise; uniform noise raises ``ValueError``, as a channel's
    margin has no outcomes to spread it over.
    """
    # the channel's margin first, as check_obs_channel writes the pair
    devices = sorted((device_a, device_b), key=lambda d: isinstance(d, Observable))
    return _search(*margins_of(devices), mode, tols).value


# === state marginal problem ==================================================

def state_marginal_feasible(rho_ab, rho_bc, dims, pure_required: bool = False,
                            tols: Tolerances | None = None) -> Compatibility:
    """Does a tripartite state have the two given overlapping marginals?

    ``dims`` = (dA, dB, dC).  Shared B marginals that disagree make the
    constraints inconsistent, which the solver certifies before iterating
    when the disagreement exceeds ``feas``; a smaller one is solved as usual.
    Restricting to pure global states is a nonconvex constraint and is
    rejected.
    """
    if pure_required:
        raise ValueError("pure-state marginal problems are nonconvex and unsupported")
    da, db, dc = dims
    rho_ab = np.asarray(rho_ab, dtype=complex)
    rho_bc = np.asarray(rho_bc, dtype=complex)
    for label, rho, d in (("rho_ab", rho_ab, da * db), ("rho_bc", rho_bc, db * dc)):
        if rho.shape != (d, d):
            raise ValueError(f"{label} has shape {rho.shape}, expected {(d, d)}")
    if abs(np.trace(rho_ab) - 1.0) > 1e-8 or abs(np.trace(rho_bc) - 1.0) > 1e-8:
        raise ValueError("marginals must have unit trace")
    margins = [(rho_ab, (), (0, 1), ()), (rho_bc, (), (1, 2), ())]
    return _decide(margins, tuple(dims), lambda grid, atol: State(la.psd_project(grid), atol=atol), tols)
