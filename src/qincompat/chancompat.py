"""Channel-side compatibility: joint channels, broadcastability, the
division preorder, conjugate-channel cross checks, noise robustness, and the
tripartite state marginal problem.

Two channels with a common input are compatible when a single channel into
the tensor product of their output spaces returns both as partial-trace
marginals.  In Choi coordinates the marginal maps are linear, so every
question here is again an affine-plus-PSD feasibility problem.
"""
from __future__ import annotations

import numpy as np

from . import linalg as la
from .config import Tolerances
from .devices import Channel, Observable, State, conjugate_channel
from .obscompat import Compatibility, OrderReport, _decide, _search, check, margins_of, postprocessing_order
from .sdpcore import NoiseClass

__all__ = [
    "check_channel_pair",
    "broadcastable_states",
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

def channel_division(chan: Channel, through: Channel,
                     tols: Tolerances | None = None) -> OrderReport:
    """Is ``chan`` a post-processing of ``through``: chan = E o through for a channel E?

    :func:`obscompat.postprocessing_order` of the pair; its ``factor`` is E.
    """
    return postprocessing_order(chan, through, tols)


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

def state_marginal_feasible(rho_ab, rho_bc, dims, tols: Tolerances | None = None) -> Compatibility:
    """Does a tripartite state have the two given overlapping marginals?

    ``dims`` = (dA, dB, dC).  Shared B marginals that disagree make the
    constraints inconsistent, which the solver certifies before iterating
    when the disagreement exceeds ``feas``; a smaller one is solved as usual.
    Restricting to pure global states is a nonconvex constraint, which this
    convex problem does not ask.
    """
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
