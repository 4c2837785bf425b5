"""Channel-side compatibility: joint channels, broadcastability, the
division preorder, conjugate-channel cross checks, noise robustness, and the
tripartite state marginal problem.

Two channels with a common input are compatible when a single channel into
the tensor product of their output spaces returns both as partial-trace
marginals.  In Choi coordinates the marginal maps are linear, so every
question here is again an affine-plus-PSD feasibility problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg as la
from .config import DEFAULT_TOLS, Tolerances
from .devices import (
    Channel,
    Observable,
    State,
    conjugate_channel,
)
from .sdpcore import (
    SdpProblem,
    SolveResult,
    Verdict,
    bisect_threshold,
    real_linear_map,
    solve_feasibility,
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


def _ptrace_map(dims, keep):
    """Coefficient matrix of a partial trace in real vectorized coordinates."""
    total = math.prod(dims)
    kept = math.prod(dims[k] for k in keep)
    return real_linear_map(lambda h: la.partial_trace(h, dims, keep), total, kept)


def _require_side(side: int):
    if side > MAX_BLOCK_SIDE:
        raise ValueError(f"joint block side {side} exceeds the cap {MAX_BLOCK_SIDE}")


# === channel pairs ===========================================================

@dataclass(frozen=True)
class ChannelPairResult:
    solve: SolveResult
    joint: Channel | None = None

    @property
    def verdict(self) -> Verdict:
        return self.solve.verdict

    @property
    def feasible(self) -> bool:
        return self.solve.feasible


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
    din, da, db = chan_a.in_dim, chan_a.out_dim, chan_b.out_dim
    side = din * da * db
    _require_side(side)
    prob = SdpProblem()
    prob.add_psd_block("joint", side, trace_cap=float(din))
    dims = (din, da, db)
    prob.add_equality({"joint": _ptrace_map(dims, (0, 1))}, vec_of(chan_a.choi()))
    prob.add_equality({"joint": _ptrace_map(dims, (0, 2))}, vec_of(chan_b.choi()))
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return ChannelPairResult(res)
    joint = Channel.from_choi(res.witness["joint"], din, da * db, atol=tols.witness_atol)
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
class DivisionReport:
    below: bool
    factor: Channel | None = None
    residual: float = 0.0


def channel_division(chan: Channel, through: Channel,
                     tols: Tolerances | None = None) -> DivisionReport:
    """Is ``chan`` a post-processing of ``through``?

    Feasibility of a channel E with chan = E o through; the factor E is
    returned when it exists.  Composition against a fixed first channel is
    linear in the Choi matrix of E.
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
    from .devices import choi_compose

    compose_map = real_linear_map(
        lambda h: choi_compose(j_through, h, din, dmid, dout), side, din * dout
    )
    prob = SdpProblem()
    prob.add_psd_block("factor", side, trace_cap=float(dmid))
    prob.add_equality({"factor": compose_map}, vec_of(chan.choi()))
    prob.add_equality(
        {"factor": _ptrace_map((dmid, dout), (0,))}, vec_of(np.eye(dmid))
    )
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return DivisionReport(False)
    factor = Channel.from_choi(res.witness["factor"], dmid, dout, atol=tols.witness_atol)
    recon = choi_compose(j_through, factor.choi(), din, dmid, dout)
    residual = float(np.abs(recon - chan.choi()).max())
    return DivisionReport(True, factor, residual)


def conjugate_compat_check(chan_a: Channel, chan_b: Channel,
                           tols: Tolerances | None = None) -> bool:
    """Compatibility via the conjugate order: chan_b below the conjugate of chan_a."""
    return channel_division(chan_b, conjugate_channel(chan_a), tols).below


# === robustness ==============================================================

class NoiseClass(Enum):
    TRIVIAL_NOISE = "trivial"
    COMPATIBLE_NOISE = "compatible"
    ARBITRARY_NOISE = "arbitrary"


def _channel_pair_noisy_problem(chan_a, chan_b, lam, mode):
    """Feasibility of joint measurement of lam-mixtures with a noise pair."""
    din, da, db = chan_a.in_dim, chan_a.out_dim, chan_b.out_dim
    side = din * da * db
    _require_side(side)
    dims = (din, da, db)
    prob = SdpProblem()
    prob.add_psd_block("joint", side, trace_cap=float(din))
    tr_b = _ptrace_map(dims, (0, 1))
    tr_a = _ptrace_map(dims, (0, 2))
    ja = vec_of(chan_a.choi())
    jb = vec_of(chan_b.choi())
    eye_in = np.eye(din, dtype=complex)

    if mode is NoiseClass.TRIVIAL_NOISE:
        # constant-channel noise: Choi = I_in (x) xi
        prob.add_psd_block("xi_a", da, trace_cap=1.0)
        prob.add_psd_block("xi_b", db, trace_cap=1.0)
        lift_a = real_linear_map(lambda s: np.kron(eye_in, s), da, din * da)
        lift_b = real_linear_map(lambda s: np.kron(eye_in, s), db, din * db)
        prob.add_equality({"joint": tr_b, "xi_a": -(1 - lam) * lift_a}, lam * ja)
        prob.add_equality({"joint": tr_a, "xi_b": -(1 - lam) * lift_b}, lam * jb)
        prob.add_equality({"xi_a": vec_of(np.eye(da))[None, :]}, np.array([1.0]))
        prob.add_equality({"xi_b": vec_of(np.eye(db))[None, :]}, np.array([1.0]))
    elif mode is NoiseClass.ARBITRARY_NOISE:
        prob.add_psd_block("noise_a", din * da, trace_cap=float(din))
        prob.add_psd_block("noise_b", din * db, trace_cap=float(din))
        prob.add_equality(
            {"joint": tr_b, "noise_a": -(1 - lam) * np.eye((din * da) ** 2)}, lam * ja
        )
        prob.add_equality(
            {"joint": tr_a, "noise_b": -(1 - lam) * np.eye((din * db) ** 2)}, lam * jb
        )
        prob.add_equality({"noise_a": _ptrace_map((din, da), (0,))}, vec_of(eye_in))
        prob.add_equality({"noise_b": _ptrace_map((din, db), (0,))}, vec_of(eye_in))
    elif mode is NoiseClass.COMPATIBLE_NOISE:
        # noise pair given as marginals of one joint noise channel
        prob.add_psd_block("noise_joint", side, trace_cap=float(din))
        prob.add_equality({"joint": tr_b, "noise_joint": -(1 - lam) * tr_b}, lam * ja)
        prob.add_equality({"joint": tr_a, "noise_joint": -(1 - lam) * tr_a}, lam * jb)
        prob.add_equality(
            {"noise_joint": _ptrace_map(dims, (0,))}, vec_of(eye_in)
        )
    else:
        raise ValueError(f"unknown noise class {mode}")
    return prob


def _obs_channel_noisy_problem(obs, chan, lam, mode):
    """Instrument feasibility for lam-mixtures of an observable and a channel."""
    din, dout = chan.in_dim, chan.out_dim
    m = obs.n_outcomes
    side = din * dout
    _require_side(side)
    prob = SdpProblem()
    for x in range(m):
        prob.add_psd_block(f"op{x}", side, trace_cap=float(din))
    tr_out = _ptrace_map((din, dout), (0,))
    jc = vec_of(chan.choi())
    eye_vec = vec_of(np.eye(din))
    total = {f"op{x}": np.eye(side * side) for x in range(m)}

    if mode is NoiseClass.TRIVIAL_NOISE:
        prob.add_scalar_block("p", m, cap=1.0)
        prob.add_psd_block("xi", dout, trace_cap=1.0)
        lift = real_linear_map(lambda s: np.kron(np.eye(din, dtype=complex), s), dout, side)
        for x in range(m):
            coeff = np.zeros((din * din, m))
            coeff[:, x] = -(1 - lam) * eye_vec
            prob.add_equality(
                {f"op{x}": tr_out, "p": coeff},
                lam * vec_of(obs.effects[x].T),
            )
        prob.add_equality({"p": np.ones((1, m))}, np.array([1.0]))
        terms = dict(total)
        terms["xi"] = -(1 - lam) * lift
        prob.add_equality(terms, lam * jc)
    elif mode is NoiseClass.ARBITRARY_NOISE:
        for x in range(m):
            prob.add_psd_block(f"eff{x}", din, trace_cap=float(din))
            prob.add_equality(
                {f"op{x}": tr_out, f"eff{x}": -(1 - lam) * np.eye(din * din)},
                lam * vec_of(obs.effects[x].T),
            )
        prob.add_equality(
            {f"eff{x}": np.eye(din * din) for x in range(m)}, vec_of(np.eye(din))
        )
        prob.add_psd_block("noise_chan", side, trace_cap=float(din))
        terms = dict(total)
        terms["noise_chan"] = -(1 - lam) * np.eye(side * side)
        prob.add_equality(terms, lam * jc)
        prob.add_equality({"noise_chan": tr_out}, eye_vec)
    elif mode is NoiseClass.COMPATIBLE_NOISE:
        # noise devices are the marginals of one noise instrument
        for x in range(m):
            prob.add_psd_block(f"nop{x}", side, trace_cap=float(din))
            prob.add_equality(
                {f"op{x}": tr_out, f"nop{x}": -(1 - lam) * tr_out},
                lam * vec_of(obs.effects[x].T),
            )
        terms = dict(total)
        for x in range(m):
            terms[f"nop{x}"] = -(1 - lam) * np.eye(side * side)
        prob.add_equality(terms, lam * jc)
        prob.add_equality(
            {f"nop{x}": tr_out for x in range(m)}, eye_vec
        )
    else:
        raise ValueError(f"unknown noise class {mode}")
    return prob


def robustness(device_a, device_b, mode: NoiseClass = NoiseClass.ARBITRARY_NOISE,
               tols: Tolerances | None = None) -> float:
    """Largest mixing weight at which admissible noise restores compatibility.

    Accepts a channel pair or an observable paired with a channel.  The weight
    multiplies both devices; (1 - weight) multiplies a noise pair of the
    selected class, itself part of the feasibility search.  Bisection returns
    the certified-feasible supremum.
    """
    tols = tols or DEFAULT_TOLS
    if isinstance(device_a, Channel) and isinstance(device_b, Channel):
        if device_a.in_dim != device_b.in_dim:
            raise ValueError("channels must share the input dimension")

        def feasible_at(lam):
            prob = _channel_pair_noisy_problem(device_a, device_b, lam, mode)
            return solve_feasibility(prob, tols).feasible

    elif isinstance(device_a, Observable) and isinstance(device_b, Channel):
        if device_a.dim != device_b.in_dim:
            raise ValueError("observable and channel must share the input dimension")

        def feasible_at(lam):
            prob = _obs_channel_noisy_problem(device_a, device_b, lam, mode)
            return solve_feasibility(prob, tols).feasible

    else:
        raise TypeError("expected (Channel, Channel) or (Observable, Channel)")
    return bisect_threshold(feasible_at, tols.bisect_tol).value


# === state marginal problem ==================================================

@dataclass(frozen=True)
class MarginalResult:
    solve: SolveResult
    omega: State | None = None

    @property
    def verdict(self) -> Verdict:
        return self.solve.verdict

    @property
    def feasible(self) -> bool:
        return self.solve.feasible


def state_marginal_feasible(rho_ab, rho_bc, dims, pure_required: bool = False,
                            tols: Tolerances | None = None) -> MarginalResult:
    """Does a tripartite state have the two given overlapping marginals?

    ``dims`` = (dA, dB, dC).  The shared B marginals must agree up front;
    a mismatch is an immediate certified infeasibility.  Restricting to pure
    global states is a nonconvex constraint and is rejected.
    """
    tols = tols or DEFAULT_TOLS
    if pure_required:
        raise ValueError("pure-state marginal problems are nonconvex and unsupported")
    da, db, dc = dims
    rho_ab = np.asarray(rho_ab, dtype=complex)
    rho_bc = np.asarray(rho_bc, dtype=complex)
    if abs(np.trace(rho_ab) - 1.0) > 1e-8 or abs(np.trace(rho_bc) - 1.0) > 1e-8:
        raise ValueError("marginals must have unit trace")
    overlap_ab = la.partial_trace(rho_ab, (da, db), (1,))
    overlap_bc = la.partial_trace(rho_bc, (db, dc), (0,))
    mismatch = float(np.abs(overlap_ab - overlap_bc).max())
    if mismatch > 1e-8:
        res = SolveResult(
            Verdict.INFEASIBLE_CERTIFIED, None, 0, mismatch, None,
            f"shared-system marginals disagree by {mismatch:.2e}",
        )
        return MarginalResult(res)
    side = da * db * dc
    _require_side(side)
    prob = SdpProblem()
    prob.add_psd_block("omega", side, trace_cap=1.0)
    tdims = (da, db, dc)
    prob.add_equality({"omega": _ptrace_map(tdims, (0, 1))}, vec_of(rho_ab))
    prob.add_equality({"omega": _ptrace_map(tdims, (1, 2))}, vec_of(rho_bc))
    prob.add_equality({"omega": vec_of(np.eye(side))[None, :]}, np.array([1.0]))
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return MarginalResult(res)
    omega = State(la.psd_project(res.witness["omega"]), atol=tols.witness_atol)
    return MarginalResult(res, omega)
