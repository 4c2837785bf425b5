"""Joint realizability of an observable and a channel on one input.

An observable ``M`` and a channel ``C`` with the same input system can be
implemented in a single device exactly when some instrument has induced
observable ``M`` and total channel ``C``.  The search for that instrument
is linear in its Choi blocks, so it is another cone feasibility problem.
Also provides the canonical instruments attached to an observable (the
square-root form and the least disturbing form) and order tests relating
post-processing of observables to division of their channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .chancompat import channel_division
from .config import Tolerances
from .devices import Channel, Instrument, Observable, naimark_dilate, random_unitary
from .obscompat import Compatibility, OrderReport, check, postprocessing_order
from .sdpcore import Verdict, real_linear_map

__all__ = [
    "NddrReport",
    "check_obs_channel",
    "luders_instrument",
    "least_disturbing_channel",
    "sequential_recover",
    "rank1_channel_form_check",
    "nddr_test",
]


def check_obs_channel(obs: Observable, chan: Channel,
                      tols: Tolerances | None = None) -> Compatibility:
    """Can ``obs`` and ``chan`` act jointly on the same input?

    Searches for Choi blocks J_x >= 0 with sum_x J_x equal to the Choi
    matrix of ``chan`` and tr_out J_x = obs(x)^T.  A feasible witness is
    returned as an instrument whose induced observable is ``obs`` and
    whose total channel is ``chan``.
    """
    return check((chan, obs), tols=tols)


def luders_instrument(obs: Observable) -> Instrument:
    """Square-root instrument of an observable.

    Each operation acts as rho -> sqrt(M(x)) rho sqrt(M(x)); the induced
    observable is ``obs`` itself.  A sharp effect leaves its eigenspace
    intact, so sharp observables suffer full decoherence and nothing more.
    """
    families = [root[None] for root in la.psd_sqrt(obs.effects)]
    return Instrument.from_kraus_ops(families)


def least_disturbing_channel(obs: Observable) -> Channel:
    """Total channel of the maximally informative instrument of ``obs``.

    Built from the dilation isometry: the input is rotated into dim * m
    dimensions and the pointer factor is decohered outcome by outcome.
    Every channel that can coexist with ``obs`` factors through this one,
    which is what makes it the least disturbing choice.
    """
    dil = naimark_dilate(obs)
    kraus = np.stack([p @ dil.isometry for p in dil.projections])
    return Channel(kraus)


def sequential_recover(first: Observable, second: Observable,
                       tols: Tolerances | None = None) -> OrderReport:
    """Find a follow-up observable reproducing ``second`` after ``first``.

    :func:`obscompat.postprocessing_order` of ``second`` after the least
    disturbing channel of ``first``: its ``factor`` is an observable B on
    that channel's output with tr[Lambda(rho) B(y)] = tr[rho second(y)] for
    all states.  Feasible exactly when the two observables are jointly
    measurable, which is the operational content of the least disturbing
    property.
    """
    return postprocessing_order(second, least_disturbing_channel(first), tols)


def rank1_channel_form_check(obs: Observable, chan: Channel,
                             atol: float = 1e-7) -> bool:
    """Does ``chan`` measure ``obs`` and prepare one state per outcome?

    For an observable whose nonzero effects are rank one, any compatible
    channel must take the form Choi(C) = sum_x obs(x)^T (x) xi_x with
    states xi_x: the measured outcome pins the input down completely, so
    only preparation freedom remains.  Solves for the xi_x by least
    squares and checks residual, positivity and unit trace.  Effects of
    rank two or more are rejected outright.
    """
    if obs.dim != chan.in_dim:
        raise ValueError("observable and channel must share the input dimension")
    din, dout = chan.in_dim, chan.out_dim
    active = []
    for x, e in enumerate(obs.effects):
        vals = la.eig_hermitian(e)[0]
        top = vals[-1]
        if top <= 1e-12:
            continue
        if vals[-2] > 1e-8 * top:
            raise ValueError(f"effect {x} is not rank one")
        active.append(x)
    if not active:
        raise ValueError("observable has no nonzero effects")

    side = din * dout
    cols = []
    for x in active:
        et = obs.effects[x].T.copy()
        cols.append(real_linear_map(lambda s, et=et: np.kron(et, s), dout, side))
    a = np.hstack(cols)
    b = la.hermitian_to_real_vec(chan.choi())
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    if np.linalg.norm(a @ sol - b) > atol * max(1.0, np.linalg.norm(b)):
        return False
    k = dout * dout
    for i, _ in enumerate(active):
        xi = la.real_vec_to_hermitian(sol[i * k:(i + 1) * k], dout)
        if la.min_eig(xi) < -atol or abs(np.trace(xi).real - 1.0) > max(atol, 1e-6):
            return False
    return True


@dataclass(frozen=True)
class NddrReport:
    """Order consistency between observables and their channels.

    ``order`` compares the observables by classical post-processing;
    ``division`` compares their least disturbing channels by channel
    division; ``transfer`` records, for sampled channels compatible with
    the finer observable, whether each is also compatible with the
    coarser one, ``None`` where its solve is undecided.
    """

    order: OrderReport
    division: OrderReport
    transfer: tuple[bool | None, ...]

    @property
    def consistent(self) -> bool | None:
        """Whether the evidence agrees with the order; ``None`` when it is not decided.

        A certified "not below" order is consistent with anything.  Below
        it, the division must be below and every transfer hold.  An
        undecided order or division solve decides nothing; an undecided
        transfer leaves it open unless the division or another transfer fails.
        """
        if self.order.verdict is Verdict.INFEASIBLE_CERTIFIED:
            return True
        decided = (Verdict.FEASIBLE, Verdict.INFEASIBLE_CERTIFIED)
        if not self.order.below or self.division.verdict not in decided:
            return None
        if not self.division.below or False in self.transfer:
            return False
        return None if None in self.transfer else True


def nddr_test(coarse: Observable, fine: Observable, rng=None, samples: int = 5,
              tols: Tolerances | None = None) -> NddrReport:
    """Check that coarser observables disturb less.

    If ``coarse`` is a post-processing of ``fine``, then every channel
    compatible with ``fine`` is compatible with ``coarse``, and the least
    disturbing channel of ``fine`` divides through that of ``coarse``.
    The sampled transfers draw random instruments of ``fine`` and check
    their total channels against ``coarse``.
    """
    rng = np.random.default_rng(rng)
    order = postprocessing_order(coarse, fine, tols)
    division = channel_division(least_disturbing_channel(fine),
                                least_disturbing_channel(coarse), tols)
    d = fine.dim
    transfer, roots = [], la.psd_sqrt(fine.effects)
    for _ in range(samples):
        kraus = [random_unitary(d, rng) @ root for root in roots]
        total = Channel(np.stack(kraus))
        res = check_obs_channel(coarse, total, tols)
        transfer.append(None if res.verdict is Verdict.UNDECIDED else res.feasible)
    return NddrReport(order, division, tuple(transfer))
