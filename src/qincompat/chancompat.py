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
from enum import Enum

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
from .sdpcore import (
    Decision,
    SdpProblem,
    partial_trace_map,
    real_linear_map,
    solve_feasibility,
    threshold_search,
    vec_of,
)

__all__ = [
    "MAX_BLOCK_SIDE",
    "ChannelPairResult",
    "check_channel_pair",
    "broadcastable_states",
    "DivisionReport",
    "channel_division",
    "conjugate_compat_check",
    "NoiseClass",
    "robustness",
    "MarginalResult",
    "state_marginal_feasible",
]

MAX_BLOCK_SIDE = 64


def _require_side(side: int):
    if side > MAX_BLOCK_SIDE:
        raise ValueError(f"joint block side {side} exceeds the cap {MAX_BLOCK_SIDE}")


# === channel pairs ===========================================================

@dataclass(frozen=True)
class ChannelPairResult(Decision):
    joint: Channel | None = None


def check_channel_pair(chan_a: Channel, chan_b: Channel,
                       tols: Tolerances | None = None) -> ChannelPairResult:
    """Decide whether two channels with a common input are compatible.

    Feasibility of a PSD matrix J on in x outA x outB whose partial traces
    over either output reproduce the two Choi matrices; a feasible J is the
    Choi matrix of the joint channel, which is returned.
    """
    tols = tols or DEFAULT_TOLS
    if chan_a.in_dim != chan_b.in_dim:
        raise ValueError("channels must share the input dimension")
    res = solve_feasibility(_channel_pair_problem(chan_a, chan_b), tols)
    if not res.feasible:
        return ChannelPairResult(res)
    joint = Channel.from_choi(res.witness["joint"], chan_a.in_dim,
                              chan_a.out_dim * chan_b.out_dim, atol=tols.witness_atol)
    return ChannelPairResult(res, joint)


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
    _require_side(side)
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

class NoiseClass(Enum):
    TRIVIAL_NOISE = "trivial"
    COMPATIBLE_NOISE = "compatible"
    ARBITRARY_NOISE = "arbitrary"


def _channel_pair_problem(chan_a: Channel, chan_b: Channel,
                          mode: NoiseClass | None = None, lam: float = 1.0) -> SdpProblem:
    """Joint channel for lam-mixtures of two channels with a noise pair of class ``mode``.

    The noise blocks hold (1 - lam) times the noise (see
    :meth:`SdpProblem.add_margins`).  With ``mode=None`` there is no noise:
    the plain compatibility problem.
    """
    din, da, db = chan_a.in_dim, chan_a.out_dim, chan_b.out_dim
    side = din * da * db
    _require_side(side)
    dims = (din, da, db)
    tr_b = partial_trace_map(dims, (0, 1))
    tr_a = partial_trace_map(dims, (0, 2))
    eye_in = vec_of(np.eye(din))
    prob = SdpProblem()
    prob.add_psd_block("joint", side, trace_cap=float(din))
    noise_a, noise_b, norms = {}, {}, []
    if mode is NoiseClass.TRIVIAL_NOISE:
        # constant-channel noise: Choi = I_in (x) xi
        for noise, name, d in ((noise_a, "xi_a", da), (noise_b, "xi_b", db)):
            prob.add_psd_block(name, d, trace_cap=1.0)
            cols, rows, ones = partial_trace_map((din, d), (1,))
            noise[name] = (rows, cols, ones)  # the lift, the partial trace's adjoint
            norms.append(({name: vec_of(np.eye(d))[None, :]}, np.array([1.0])))
    elif mode is NoiseClass.ARBITRARY_NOISE:
        for noise, name, d in ((noise_a, "noise_a", da), (noise_b, "noise_b", db)):
            prob.add_psd_block(name, din * d, trace_cap=float(din))
            noise[name] = 1.0
            norms.append(({name: partial_trace_map((din, d), (0,))}, eye_in))
    elif mode is NoiseClass.COMPATIBLE_NOISE:
        # noise pair given as marginals of one joint noise channel
        prob.add_psd_block("noise_joint", side, trace_cap=float(din))
        noise_a["noise_joint"] = tr_b
        noise_b["noise_joint"] = tr_a
        norms.append(({"noise_joint": partial_trace_map(dims, (0,))}, eye_in))
    prob.add_margins([({"joint": tr_b}, noise_a, vec_of(chan_a.choi())),
                      ({"joint": tr_a}, noise_b, vec_of(chan_b.choi()))], lam, norms)
    return prob


def _obs_channel_problem(obs: Observable, chan: Channel,
                         mode: NoiseClass | None = None, lam: float = 1.0) -> SdpProblem:
    """Instrument for lam-mixtures of an observable and a channel with noise of class ``mode``.

    The record ``op``, a stack of m blocks, holds the instrument's Choi
    blocks: their sum is the channel and ``tr_out op[x]`` is effect x
    transposed.  The noise records (the stacks ``eff`` and ``nop``, one
    block per outcome, or ``p`` and ``xi``) hold (1 - lam) times the noise.
    With ``mode=None`` there is no noise: the plain realizability problem.
    """
    din, dout, m = chan.in_dim, chan.out_dim, obs.n_outcomes
    side = din * dout
    if side > MAX_BLOCK_SIDE or m > MAX_BLOCK_SIDE:
        raise ValueError(f"problem too large: block side {side}, {m} outcomes")
    tr_out = partial_trace_map((din, dout), (0,))
    eye_in = vec_of(np.eye(din))
    every, each = np.arange(m)[None], np.arange(m)[:, None]  # all blocks in one row group, one in each
    prob = SdpProblem()
    prob.add_psd_block("op", side, trace_cap=float(din), lead=(m,))
    chan_noise, eff_noise, norms = {}, {}, []  # the noise in the channel rows and in the effect rows
    if mode is NoiseClass.TRIVIAL_NOISE:
        # p(x) I in the rows of effect x, and xi lifted by the partial trace's adjoint
        eff_noise[prob.add_scalar_block("p", m, cap=1.0)] = np.kron(np.eye(m), eye_in[:, None])
        cols, rows, ones = partial_trace_map((din, dout), (1,))
        chan_noise[prob.add_psd_block("xi", dout, trace_cap=1.0)] = (rows, cols, ones)
        norms.append(({"p": np.ones((1, m))}, np.array([1.0])))
    elif mode is NoiseClass.ARBITRARY_NOISE:
        eff_noise[prob.add_psd_block("eff", din, trace_cap=float(din), lead=(m,))] = 1.0
        chan_noise[prob.add_psd_block("noise_chan", side, trace_cap=float(din))] = 1.0
        norms.append(({"eff": (1.0, every)}, eye_in))
        norms.append(({"noise_chan": tr_out}, eye_in))
    elif mode is NoiseClass.COMPATIBLE_NOISE:
        # noise devices are the marginals of one noise instrument
        prob.add_psd_block("nop", side, trace_cap=float(din), lead=(m,))
        chan_noise["nop"], eff_noise["nop"] = (1.0, every), (tr_out, each)
        norms.append(({"nop": (tr_out, every)}, eye_in))
    prob.add_margins([({"op": (1.0, every)}, chan_noise, vec_of(chan.choi())),
                      ({"op": (tr_out, each)}, eff_noise, vec_of(obs.effects.swapaxes(1, 2)).ravel())],
                     lam, norms)
    return prob


def robustness(device_a, device_b, mode: NoiseClass = NoiseClass.ARBITRARY_NOISE,
               tols: Tolerances | None = None) -> float:
    """Largest mixing weight at which admissible noise restores compatibility.

    Accepts a channel pair or an observable paired with a channel.  The weight
    multiplies both devices; (1 - weight) multiplies a noise pair of the
    selected class, itself part of the feasibility search.  The family is
    factorized once and searched by :func:`sdpcore.threshold_search`; the
    returned weight is certified feasible and within the bisection tolerance
    below the threshold.
    """
    tols = tols or DEFAULT_TOLS
    if isinstance(device_a, Channel) and isinstance(device_b, Channel):
        if device_a.in_dim != device_b.in_dim:
            raise ValueError("channels must share the input dimension")
        build = _channel_pair_problem
    elif isinstance(device_a, Observable) and isinstance(device_b, Channel):
        if device_a.dim != device_b.in_dim:
            raise ValueError("observable and channel must share the input dimension")
        build = _obs_channel_problem
    else:
        raise TypeError("expected (Channel, Channel) or (Observable, Channel)")
    if not isinstance(mode, NoiseClass):
        raise ValueError(f"unknown noise class {mode}")

    return threshold_search(lambda lam: build(device_a, device_b, mode, lam), tols).value


# === state marginal problem ==================================================

@dataclass(frozen=True)
class MarginalResult(Decision):
    omega: State | None = None


def state_marginal_feasible(rho_ab, rho_bc, dims, pure_required: bool = False,
                            tols: Tolerances | None = None) -> MarginalResult:
    """Does a tripartite state have the two given overlapping marginals?

    ``dims`` = (dA, dB, dC).  Shared B marginals that disagree make the
    constraints inconsistent, which the solver certifies before iterating
    when the disagreement exceeds ``feas``; a smaller one is solved as usual.
    Restricting to pure global states is a nonconvex constraint and is
    rejected.
    """
    tols = tols or DEFAULT_TOLS
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
    side = da * db * dc
    _require_side(side)
    prob = SdpProblem()
    prob.add_psd_block("omega", side, trace_cap=1.0)
    prob.add_equality({"omega": partial_trace_map(dims, (0, 1))}, vec_of(rho_ab))
    prob.add_equality({"omega": partial_trace_map(dims, (1, 2))}, vec_of(rho_bc))
    prob.add_equality({"omega": vec_of(np.eye(side))[None, :]}, np.array([1.0]))
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return MarginalResult(res)
    omega = State(la.psd_project(res.witness["omega"]), atol=tols.witness_atol)
    return MarginalResult(res, omega)
