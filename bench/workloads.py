"""The benchmark's workloads: seeded inputs, fixed call lists, reference checks.

A workload is a list of passes; a pass is a list of groups; a group is a few
top-level calls into the public API plus a check of their results against a
reference.  The runner times each call and each pass, and runs the checks
after the pass, outside the timed region.

* ``random-checks``: a seeded stream of small, cold, independent qubit
  decisions.  One pass is one round of four groups, each drawn fresh.
* ``threshold-search``: ten bisection searches with known threshold values.
  One pass is the whole list, in a seeded order.
* ``scale``: single problems at the size caps.  One pass is the whole list.

See README.md for why each workload exists and which layers it loads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("random-checks", "threshold-search", "scale")

# Every run does a fixed amount of work, sized from --seconds by the time a
# pass takes on a 2-CPU Xeon host with one BLAS thread: a random-checks round
# about 0.25 s, a threshold-search pass about 15 s, a scale pass about 6 s.
# The traced run does a quarter of the rounds, twice (untraced, then traced).
ROUNDS_PER_SECOND = 4
THRESHOLD_PASS_SECONDS = 15
SCALE_PASS_SECONDS = 6


@dataclass
class Failure:
    call: int      # index of the failed call within its group
    reason: str
    wrong: bool    # an answer backed by a witness or certificate contradicts a reference


@dataclass
class Group:
    kind: str
    calls: list            # [(label, thunk)]
    check: Callable        # results -> list[Failure]


@dataclass
class Plan:
    passes: list           # list[list[Group]], the untraced run's fixed list
    trace_passes: int      # the traced run's fixed list is passes[:trace_passes]


class _Checks:
    """Reference checks written against the public API only."""

    def __init__(self, q):
        self.V = q.Verdict
        self.atol = q.DEFAULT_TOLS.witness_factor * q.DEFAULT_TOLS.feas

    def decided(self, solve, call, label, out):
        if solve.verdict in (self.V.UNDECIDED, self.V.INFEASIBLE_HEURISTIC):
            out.append(Failure(call, f"{label} ended {solve.verdict.name}", False))

    def contradiction(self, a, b) -> bool:
        """Both sides carry evidence (a verified witness, a checked certificate)."""
        return {a.verdict, b.verdict} == {self.V.FEASIBLE, self.V.INFEASIBLE_CERTIFIED}

    def mismatch(self, calls, reason, wrong, out):
        out.extend(Failure(c, reason, wrong) for c in calls)

    def joint_witness(self, result, observables, call, out):
        dev = max(float(np.abs(result.joint.marginal(k).effects - obs.effects).max())
                  for k, obs in enumerate(observables))
        if dev > self.atol:
            out.append(Failure(call, f"joint marginal deviation {dev:.2e}", True))

    def lhs_witness(self, result, assemblage, call, out):
        if not result.model.reproduces(assemblage, atol=self.atol):
            out.append(Failure(call, "LHS model does not reproduce the assemblage", True))

    def channel_pair_witness(self, result, a, b, call, out):
        din, da, db = a.in_dim, a.out_dim, b.out_dim
        j = result.joint.choi().reshape(din, da, db, din, da, db)
        marg_a = np.einsum("iakjbk->iajb", j).reshape(din * da, din * da)
        marg_b = np.einsum("ikajkb->iajb", j).reshape(din * db, din * db)
        dev = max(float(np.abs(marg_a - a.choi()).max()), float(np.abs(marg_b - b.choi()).max()))
        if dev > self.atol:
            out.append(Failure(call, f"joint channel marginal deviation {dev:.2e}", True))

    def instrument_witness(self, result, obs, chan, call, out):
        inst = result.instrument
        dev = max(float(np.abs(inst.induced_observable().effects - obs.effects).max()),
                  float(np.abs(inst.total_choi() - chan.choi()).max()))
        if dev > self.atol:
            out.append(Failure(call, f"instrument deviation {dev:.2e}", True))

    def tester_witness(self, result, t1, t2, call, out):
        g = result.joint
        dev = max(float(np.abs(g.sum(axis=1) - t1.effects).max()),
                  float(np.abs(g.sum(axis=0) - t2.effects).max()))
        if dev > self.atol:
            out.append(Failure(call, f"joint tester margin deviation {dev:.2e}", True))


# === random-checks ===========================================================

def _round(q, ck: _Checks, rng, r: int) -> list[Group]:
    """One round: joint/LHS, observable/channel, channel pair, tester pair."""
    noisy = q.mix_with_trivial
    fam = [noisy(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0))
           for _ in range(int(rng.integers(2, 4)))]
    # the generator of acceptance criterion 10
    m = noisy(q.random_povm(2, 2, rng), rng.uniform(0.4, 1.0))
    if r % 2 == 0:
        chan = q.random_channel(2, 2, rng)
    else:
        chan = q.luders_instrument(noisy(q.random_povm(2, 2, rng), rng.uniform(0.4, 1.0))).total_channel()
    ca, cb = q.random_channel(2, 2, rng), q.random_channel(2, 2, rng)
    pa, pb = q.random_povm(2, 2, rng), q.random_povm(2, 2, rng)
    probe = q.random_state(2, rng)
    same_probe = (r // 2) % 2 == 0
    ta = q.prepare_measure_tester(probe, pa)
    tb = q.prepare_measure_tester(probe if same_probe else q.random_state(2, rng), pb)

    def check_joint_group(res):
        jr, cc = res
        out = []
        ck.decided(jr.solve, 0, "check_joint", out)
        ck.decided(cc.lhs.solve, 1, "check_lhs", out)
        ck.decided(cc.joint.solve, 1, "check_joint(transposed)", out)
        if jr.feasible:
            ck.joint_witness(jr, fam, 0, out)
        if cc.lhs.unsteerable:
            ck.lhs_witness(cc.lhs, q.max_entangled_assemblage(fam), 1, out)
        if cc.joint.feasible:
            ck.joint_witness(cc.joint, [q.transpose_observable(o) for o in fam], 1, out)
        if not cc.agree:
            ck.mismatch([1], "LHS and transposed joint verdicts differ", ck.contradiction(
                cc.lhs.solve, cc.joint.solve), out)
        if jr.feasible != cc.lhs.unsteerable:
            ck.mismatch([0, 1], "joint measurability and LHS verdicts differ",
                        ck.contradiction(jr.solve, cc.lhs.solve), out)
        return out

    def check_obs_group(res):
        oc, div = res
        out = []
        ck.decided(oc.solve, 0, "check_obs_channel", out)
        if oc.feasible:
            ck.instrument_witness(oc, m, chan, 0, out)
        if div.below and (div.factor is None or div.residual > ck.atol):
            out.append(Failure(1, f"division factor residual {div.residual:.2e}", True))
        if oc.feasible != div.below:
            # a division that is not below carries no evidence
            ck.mismatch([0, 1], "realizability and division differ",
                        div.below and oc.solve.verdict is ck.V.INFEASIBLE_CERTIFIED, out)
        return out

    def check_pair_group(res):
        cp, conj = res
        out = []
        ck.decided(cp.solve, 0, "check_channel_pair", out)
        if cp.feasible:
            ck.channel_pair_witness(cp, ca, cb, 0, out)
        if cp.feasible != conj:
            ck.mismatch([0, 1], "channel pair and conjugate division differ",
                        conj and cp.verdict is ck.V.INFEASIBLE_CERTIFIED, out)
        return out

    def check_tester_group(res):
        tp = res[0]
        out = []
        ck.decided(tp.solve, 0, "check_tester_pair", out)
        if tp.feasible:
            ck.tester_witness(tp, ta, tb, 0, out)
        if not same_probe:
            if tp.feasible:
                out.append(Failure(0, "testers with different probes found compatible", True))
            return out
        jr = res[1]
        ck.decided(jr.solve, 1, "check_joint", out)
        if jr.feasible:
            ck.joint_witness(jr, [pa, pb], 1, out)
        if tp.feasible != jr.feasible:
            ck.mismatch([0, 1], "tester pair and its POVM pair differ",
                        ck.contradiction(tp.solve, jr.solve), out)
        return out

    tester_calls = [("check_tester_pair", lambda: q.check_tester_pair(ta, tb))]
    if same_probe:
        tester_calls.append(("check_joint", lambda: q.check_joint([pa, pb])))
    return [
        Group("joint", [("check_joint", lambda: q.check_joint(fam)),
                        ("steering_jm_crosscheck", lambda: q.steering_jm_crosscheck(fam))],
              check_joint_group),
        Group("obs-channel", [("check_obs_channel", lambda: q.check_obs_channel(m, chan)),
                              ("channel_division", lambda: q.channel_division(
                                  chan, q.least_disturbing_channel(m)))],
              check_obs_group),
        Group("channel-pair", [("check_channel_pair", lambda: q.check_channel_pair(ca, cb)),
                               ("conjugate_compat_check", lambda: q.conjugate_compat_check(ca, cb))],
              check_pair_group),
        Group("tester-pair", tester_calls, check_tester_group),
    ]


def _random_checks(q, rng, seconds, tiny) -> Plan:
    ck = _Checks(q)
    rounds = 3 if tiny else ROUNDS_PER_SECOND * seconds
    return Plan([_round(q, ck, rng, r) for r in range(rounds)], max(1, rounds // 4))


# === threshold-search ========================================================

def _bracket(q, ref: float):
    """A threshold must sit on the certified-feasible side, within the bisection tolerance."""
    tol = q.DEFAULT_TOLS.bisect_tol

    def check(res):
        value = res[0]
        if not (ref - tol <= value <= ref + 1e-9):
            return [Failure(0, f"threshold {value:.6f} outside [{ref - tol:.6f}, {ref:.6f}]", True)]
        return []

    return check


def _threshold_search(q, rng, seconds, tiny) -> Plan:
    sx = q.sharp_observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    sz = q.sharp_observable(np.eye(2))
    ident = q.identity_channel(2)
    deph = q.diag_channel(dim=2)
    t0 = q.prepare_measure_tester(np.diag([1.0, 0.0]).astype(complex), sz)
    t1 = q.prepare_measure_tester(np.diag([0.0, 1.0]).astype(complex), sz)
    uniform = q.NoiseMode.UNIFORM_TRIVIAL
    noise = q.NoiseClass

    def steering_at(lam):
        return q.check_lhs(q.max_entangled_assemblage(
            [q.mix_with_trivial(o, lam) for o in (sx, sz)])).unsteerable

    searches = [
        ("degree fourier d=2", 1 / math.sqrt(2),
         lambda: q.degree_of_compatibility(list(q.fourier_pair(2)))),
        ("steering X/Z", 1 / math.sqrt(2),
         lambda: q.bisect_threshold(steering_at, q.DEFAULT_TOLS.bisect_tol).value),
        ("degree fourier d=3", (1 + math.sqrt(3)) / 4,
         lambda: q.degree_of_compatibility(list(q.fourier_pair(3)))),
        ("degree X/Z uniform", 1 / math.sqrt(2),
         lambda: q.degree_of_compatibility([sx, sz], uniform)),
        ("degree unbiased triple", 1 / math.sqrt(3),
         lambda: q.degree_of_compatibility(list(q.mub_qubit()), uniform)),
        ("tester degree", 0.5, lambda: q.tester_degree(t0, t1).value),
        ("robustness id/id arbitrary", 0.75,
         lambda: q.robustness(ident, ident, noise.ARBITRARY_NOISE)),
        ("robustness id/id compatible", 0.75,
         lambda: q.robustness(ident, ident, noise.COMPATIBLE_NOISE)),
        ("robustness id/id trivial", 2 / 3,
         lambda: q.robustness(ident, ident, noise.TRIVIAL_NOISE)),
        ("robustness dephasing/id arbitrary", (2 + math.sqrt(2)) / 4,
         lambda: q.robustness(deph, ident, noise.ARBITRARY_NOISE)),
    ]
    if tiny:
        searches = searches[:2]
    order = rng.permutation(len(searches))
    groups = [Group(searches[i][0], [(searches[i][0], searches[i][2])], _bracket(q, searches[i][1]))
              for i in order]
    return Plan([groups] * max(1, seconds // THRESHOLD_PASS_SECONDS), 1)


# === scale ===================================================================

def _scale(q, rng, seconds, tiny) -> Plan:
    ck = _Checks(q)
    d = 2 if tiny else 4
    n_povms = 4 if tiny else 10               # 2**10 = 1024 joint blocks
    settings = 3 if tiny else 6               # 3**6 = 729 strategies
    ident, depol = q.identity_channel(d), q.depolarizing_channel(d)
    # noise weight at most 1/n: the coin-toss joint makes these families compatible
    fam = [q.mix_with_trivial(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0) / n_povms)
           for _ in range(n_povms)]
    steer_fam = [q.mix_with_trivial(q.random_povm(2, 3, rng), rng.uniform(0.5, 1.0) / settings)
                 for _ in range(settings)]
    assemblage = q.max_entangled_assemblage(steer_fam)

    def expect(result, verdict, call, label, out):
        got = result.solve.verdict
        if got is not verdict:
            ck.decided(result.solve, call, label, out)
            if got in (ck.V.FEASIBLE, ck.V.INFEASIBLE_CERTIFIED):
                out.append(Failure(call, f"{label} ended {got.name}, expected {verdict.name}", True))

    def pair_incompatible(res):
        out = []
        expect(res[0], ck.V.INFEASIBLE_CERTIFIED, 0, "identity pair", out)
        return out

    def pair_compatible(res):
        out = []
        expect(res[0], ck.V.FEASIBLE, 0, "identity/depolarizing pair", out)
        if res[0].feasible:
            ck.channel_pair_witness(res[0], ident, depol, 0, out)
        return out

    def joint_compatible(res):
        out = []
        expect(res[0], ck.V.FEASIBLE, 0, "joint family", out)
        if res[0].feasible:
            ck.joint_witness(res[0], fam, 0, out)
        return out

    def lhs_exists(res):
        out = []
        expect(res[0], ck.V.FEASIBLE, 0, "LHS search", out)
        if res[0].unsteerable:
            ck.lhs_witness(res[0], assemblage, 0, out)
        return out

    groups = [
        Group(f"channel pair d={d} id/id", [("check_channel_pair",
                                             lambda: q.check_channel_pair(ident, ident))],
              pair_incompatible),
        Group(f"channel pair d={d} id/depolarizing", [("check_channel_pair",
                                                       lambda: q.check_channel_pair(ident, depol))],
              pair_compatible),
        Group(f"joint of {n_povms} POVMs", [("check_joint", lambda: q.check_joint(fam))],
              joint_compatible),
        Group(f"LHS with {3 ** settings} strategies", [("check_lhs", lambda: q.check_lhs(assemblage))],
              lhs_exists),
    ]
    return Plan([groups] * max(1, seconds // SCALE_PASS_SECONDS), 1)


_PLANS = {
    "random-checks": _random_checks,
    "threshold-search": _threshold_search,
    "scale": _scale,
}


def build(name: str, q, seed: int, seconds: int, tiny: bool) -> Plan:
    """Generate the workload's inputs from ``seed``; the same seed gives the same inputs."""
    return _PLANS[name](q, np.random.default_rng(seed), seconds, tiny)
