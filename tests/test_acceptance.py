"""End-to-end acceptance checks.

Each test covers one headline capability, prints a single pass/fail line
with the measured quantities, and fails loudly if the target is missed.
"""
import time

import numpy as np
import pytest

import qincompat as q
from qincompat import linalg as la
from qincompat.sdpcore import Verdict, bisect_threshold


def announce(capsys, num, label, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d} [{status}] {label}{tail}"
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, line + " :: " + "; ".join(failures)


def noisy(obs, lam):
    return q.mix_with_trivial(obs, lam)


def partial_depolarizing(lam, dim=2):
    choi = lam * q.identity_channel(dim).choi() + (1 - lam) * q.depolarizing_channel(dim).choi()
    return q.Channel.from_choi(choi, dim, dim)


def random_compatible_pair(rng):
    """Margins of a random 4-outcome qubit measurement, compatible by design."""
    g = q.random_povm(2, 4, rng).effects
    a = q.Observable(np.stack([g[0] + g[1], g[2] + g[3]]))
    b = q.Observable(np.stack([g[0] + g[2], g[1] + g[3]]))
    return a, b


def test_01_fourier_qubit_degree(capsys):
    t0 = time.time()
    val = q.degree_of_compatibility(list(q.fourier_pair(2)))
    elapsed = time.time() - t0
    failures = []
    if abs(val - 0.70711) > 5e-3:
        failures.append(f"degree {val:.5f} not within 5e-3 of 0.70711")
    if elapsed > 60:
        failures.append(f"took {elapsed:.0f}s > 60s")
    announce(capsys, 1, "qubit conjugate-pair degree", failures,
             f"value {val:.5f} in {elapsed:.1f}s")


def test_02_fourier_qutrit_degree(capsys):
    t0 = time.time()
    val = q.degree_of_compatibility(list(q.fourier_pair(3)))
    elapsed = time.time() - t0
    failures = []
    if abs(val - 0.68301) > 5e-3:
        failures.append(f"degree {val:.5f} not within 5e-3 of 0.68301")
    if elapsed > 300:
        failures.append(f"took {elapsed:.0f}s > 300s")
    announce(capsys, 2, "qutrit conjugate-pair degree", failures,
             f"value {val:.5f} in {elapsed:.1f}s")


def test_03_region_grid_matches_formula(capsys):
    failures = []
    checked = 0
    for d in (2, 3):
        pair = list(q.fourier_pair(d))
        for l1 in np.linspace(0, 1, 5):
            for l2 in np.linspace(0, 1, 5):
                lo = q.fourier_region_formula(d, max(l1 - 1e-2, 0), max(l2 - 1e-2, 0))
                hi = q.fourier_region_formula(d, min(l1 + 1e-2, 1), min(l2 + 1e-2, 1))
                if lo != hi:
                    continue  # too close to the boundary to compare robustly
                checked += 1
                got = q.region_membership(pair, (l1, l2), q.NoiseClass.UNIFORM_NOISE).feasible
                if got != lo:
                    failures.append(f"d={d} ({l1:.2f},{l2:.2f}) solver {got} formula {lo}")
    announce(capsys, 3, "noise-region grid vs closed form", failures,
             f"{checked} clear grid points, 0 disagreements" if not failures else "")


def test_04_mub_pair_criteria(capsys, sharp_x, sharp_z):
    failures = []
    val = q.degree_of_compatibility([sharp_x, sharp_z], q.NoiseMode.UNIFORM_TRIVIAL)
    if abs(val - 0.7071) > 5e-3:
        failures.append(f"uniform degree {val:.5f} off 0.7071")
    bound = 1 / np.sqrt(2)
    jordan = q.jordan_criterion([noisy(sharp_x, bound), noisy(sharp_z, bound)])
    if not jordan.certified or jordan.min_eigenvalue < -1e-10:
        failures.append(f"jordan at the boundary not certified (min eig {jordan.min_eigenvalue:.2e})")
    if not q.squared_weight_criterion((0.7072, 0.7072)):
        failures.append("squared-weight misses (0.7072, 0.7072)")
    if q.squared_weight_criterion((0.7070, 0.7070)):
        failures.append("squared-weight overreaches at (0.7070, 0.7070)")
    announce(capsys, 4, "complementary qubit pair threshold", failures,
             f"degree {val:.5f}, boundary certified both ways")


def test_05_mub_triple_degree(capsys):
    val = q.degree_of_compatibility(list(q.mub_qubit()), q.NoiseMode.UNIFORM_TRIVIAL)
    failures = []
    if abs(val - 0.5774) > 5e-3:
        failures.append(f"triple degree {val:.5f} off 0.5774")
    if not val > 5 / 9:
        failures.append(f"triple degree {val:.5f} does not exceed 5/9")
    announce(capsys, 5, "unbiased qubit triple degree", failures, f"value {val:.5f}")


def test_06_cloning_coefficients(capsys):
    failures = []
    targets = {(2, 2): 2 / 3, (3, 2): 5 / 8, (2, 3): 5 / 9}
    vals = {}
    for (d, n), want in targets.items():
        c = q.cloner_marginal_coefficient(q.werner_cloner(d, n), d, n)
        vals[(d, n)] = c
        if abs(c - want) > 1e-9:
            failures.append(f"d={d} n={n}: {c:.12f} != {want:.12f}")
    # the 1->2 qubit cloner realizes the shrink-2/3 channel jointly with itself
    cloner = q.werner_cloner(2, 2)
    marg_choi = la.partial_trace(cloner.choi(), [2, 2, 2], keep=[0, 1])
    marg = q.Channel.from_choi(marg_choi, 2, 2)
    want = partial_depolarizing(2 / 3)
    if np.abs(marg.choi() - want.choi()).max() > 1e-8:
        failures.append("cloner marginal is not the shrink-2/3 channel")
    if not q.check_channel_pair(marg, marg).feasible:
        failures.append("shrink-2/3 channel not self-compatible")
    if q.check_channel_pair(partial_depolarizing(0.70), partial_depolarizing(0.70)).feasible:
        failures.append("shrink-0.70 channel self-compatible, violating the cloning bound")
    announce(capsys, 6, "optimal cloning coefficients", failures,
             "c(2,2)={:.9f} c(3,2)={:.9f} c(2,3)={:.9f}".format(
                 vals[(2, 2)], vals[(3, 2)], vals[(2, 3)]))


def test_07_channel_pair_verdicts(capsys):
    ident = q.identity_channel(2)
    depol = q.depolarizing_channel(2)
    dz = q.diag_channel(dim=2)
    dx = q.diag_channel(basis=np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    cases = [
        ("identity/identity", ident, ident, False),
        ("identity/constant", ident, depol, True),
        ("two conjugate dephasings", dz, dx, False),
        ("same dephasing twice", dz, dz, True),
    ]
    failures = []
    for label, a, b, want in cases:
        got = q.check_channel_pair(a, b).feasible
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")
    announce(capsys, 7, "channel pair verdicts", failures, "4/4 as expected")


def test_08_selfconjugate_channels(capsys):
    failures = []
    diffs = []
    for d in (2, 3):
        pair = q.ctrl_unitary_selfconjugate(d)
        diff = float(np.abs(pair.channel_a.choi() - pair.channel_b.choi()).max())
        diffs.append(diff)
        if diff > 1e-10:
            failures.append(f"d={d}: operand/conjugate differ by {diff:.2e}")
        if not q.check_channel_pair(pair.channel_a, pair.channel_b).feasible:
            failures.append(f"d={d}: self-conjugate pair not compatible")
    announce(capsys, 8, "self-conjugate control unitaries", failures,
             "max deviation {:.1e}".format(max(diffs)))


def test_09_obs_channel_verdicts(capsys, sharp_z, rng):
    failures = []
    ident = q.identity_channel(2)
    if q.check_obs_channel(sharp_z, ident).feasible:
        failures.append("sharp observable coexists with the identity channel")
    if not q.check_obs_channel(q.trivial_observable([0.4, 0.6], 2), ident).feasible:
        failures.append("trivial observable fails with the identity channel")
    sink = q.constant_channel(q.State(np.eye(2) / 2), 2)
    if not q.check_obs_channel(q.random_povm(2, 3, rng), sink).feasible:
        failures.append("random observable fails with a constant channel")
    bad = 0
    for _ in range(20):
        m = noisy(q.random_povm(2, int(rng.integers(2, 4)), rng), rng.uniform(0.3, 1.0))
        if not q.check_obs_channel(m, q.least_disturbing_channel(m)).feasible:
            bad += 1
    if bad:
        failures.append(f"{bad}/20 observables rejected their own least disturbing channel")
    if not q.rank1_channel_form_check(sharp_z, q.luders_instrument(sharp_z).total_channel()):
        failures.append("rank-one form not recognized on the sharp measurement channel")
    announce(capsys, 9, "observable/channel realizability", failures,
             "fixed verdicts plus 20/20 self-realizations")


def test_10_division_equivalence(capsys, rng):
    failures = []
    agreements = 0
    for i in range(20):
        m = noisy(q.random_povm(2, 2, rng), rng.uniform(0.4, 1.0))
        if i % 2 == 0:
            chan = q.random_channel(2, 2, rng)
        else:
            other = noisy(q.random_povm(2, 2, rng), rng.uniform(0.4, 1.0))
            chan = q.luders_instrument(other).total_channel()
        direct = q.check_obs_channel(m, chan).feasible
        divided = q.channel_division(chan, q.least_disturbing_channel(m)).below
        if direct == divided:
            agreements += 1
        else:
            failures.append(f"instance {i}: realizability {direct}, division {divided}")
    announce(capsys, 10, "realizability equals channel division", failures,
             f"{agreements}/20 instances agree")


def test_11_steering_thresholds(capsys, sharp_x, sharp_z, rng):
    failures = []
    pair = [sharp_x, sharp_z]

    def lhs_at(lam):
        asm = q.max_entangled_assemblage([noisy(o, lam) for o in pair])
        return q.check_lhs(asm).feasible

    steer = bisect_threshold(lhs_at, 5e-4).value
    if abs(steer - 0.7071) > 1e-2:
        failures.append(f"steering threshold {steer:.4f} off 0.7071")
    jm = q.degree_of_compatibility(pair, q.NoiseMode.UNIFORM_TRIVIAL)
    if abs(steer - jm) > 2e-3:
        failures.append(f"steering {steer:.4f} and measurability {jm:.4f} disagree")
    disagree = 0
    for _ in range(20):
        fam = [noisy(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0))
               for _ in range(int(rng.integers(2, 4)))]
        if not q.steering_jm_crosscheck(fam).agree:
            disagree += 1
    if disagree:
        failures.append(f"{disagree}/20 random families break the correspondence")
    announce(capsys, 11, "steering equals joint measurability", failures,
             f"thresholds {steer:.4f} vs {jm:.4f}, 20/20 agree")


def test_12_tester_pair(capsys, sharp_z, rng):
    t0 = q.prepare_measure_tester(np.diag([1.0, 0.0]).astype(complex), sharp_z)
    t1 = q.prepare_measure_tester(np.diag([0.0, 1.0]).astype(complex), sharp_z)
    rep = q.commutation_vs_compat_report(t0, t1)
    failures = []
    if rep.max_commutator >= 1e-14:
        failures.append(f"effects do not commute ({rep.max_commutator:.1e})")
    if rep.pair.solve.verdict is not Verdict.INFEASIBLE_CERTIFIED:
        failures.append(f"pair verdict {rep.pair.solve.verdict.name}")
    if abs(rep.degree.value - 0.5) > 5e-3:
        failures.append(f"degree {rep.degree.value:.4f} off 0.5")
    low = 1.0
    for _ in range(5):
        ta = q.prepare_measure_tester(q.random_state(2, rng), q.random_povm(2, 2, rng))
        tb = q.prepare_measure_tester(q.random_state(2, rng), q.random_povm(2, 2, rng))
        low = min(low, q.tester_degree(ta, tb).value)
    if low < 0.5 - 5e-3:
        failures.append(f"a random tester pair dipped to degree {low:.4f}")
    announce(capsys, 12, "commuting yet incompatible testers", failures,
             f"commutator {rep.max_commutator:.1e}, degree {rep.degree.value:.4f}, floor {low:.4f}")


def test_13_uncertainty_relation(capsys, sharp_x, sharp_z, rng):
    failures = []
    worst = np.inf
    for i in range(100):
        a, b = random_compatible_pair(rng)
        rep = q.mur_test(sharp_x, sharp_z, a, b)
        worst = min(worst, rep.lhs - rep.rhs)
        if rep.lhs < rep.rhs - 1e-9:
            failures.append(f"pair {i} violates the relation by {rep.rhs - rep.lhs:.2e}")
    if abs(q.mur_test(sharp_x, sharp_z, sharp_x, sharp_z).rhs - 0.5) > 1e-12:
        failures.append("commutator bound for the sharp pair is not 1/2")
    announce(capsys, 13, "error tradeoff for compatible approximations", failures,
             f"100 compatible pairs, worst slack {worst:.4f}")


def test_14_channel_robustness(capsys):
    failures = []
    ident = q.identity_channel(2)
    v1 = q.robustness(ident, ident, q.NoiseClass.ARBITRARY_NOISE)
    if abs(v1 - 0.75) > 1e-2:
        failures.append(f"identity pair robustness {v1:.4f} off 0.75")
    v2 = q.robustness(q.diag_channel(dim=2), ident, q.NoiseClass.ARBITRARY_NOISE)
    if abs(v2 - 0.8536) > 1e-2:
        failures.append(f"dephasing/identity robustness {v2:.4f} off 0.8536")
    announce(capsys, 14, "noise robustness of channel pairs", failures,
             f"values {v1:.4f} and {v2:.4f}")


def test_15_structural_properties(capsys, sharp_x, sharp_z, rng):
    failures = []
    # coarse-graining can never break compatibility
    for i in range(50):
        a, b = random_compatible_pair(rng)
        cols = rng.uniform(size=2)
        st = q.StochasticMatrix(np.array([cols, 1 - cols]))
        if not q.check_joint([q.post_process(a, st), b]).feasible:
            failures.append(f"monotonicity broken at instance {i}")
            break
    # the coin-toss joint has the promised marginals for any family size
    for n in (2, 3):
        fam = [q.random_povm(2, 2, rng) for _ in range(n)]
        joint = q.build_toss_joint(fam)
        for k, o in enumerate(fam):
            want = q.mix_with_trivial(o, 1.0 / n)
            if np.abs(joint.marginal(k).effects - want.effects).max() > 1e-9:
                failures.append(f"toss joint marginal {k} of {n} is off")
    # analytic criteria never contradict the solver
    for i in range(50):
        a = noisy(q.random_povm(2, 2, rng), rng.uniform(0.3, 1.0))
        b = noisy(q.random_povm(2, 2, rng), rng.uniform(0.3, 1.0))
        feas = q.check_joint([a, b]).feasible
        if q.jordan_criterion([a, b]).certified and not feas:
            failures.append(f"jordan contradicts the solver at instance {i}")
        if q.commutator_criterion(a, b).certified and feas:
            failures.append(f"commutator test contradicts the solver at instance {i}")
        if q.mur_test(sharp_x, sharp_z, a, b).certified and feas:
            failures.append(f"error tradeoff contradicts the solver at instance {i}")
    # squared-weight boundary agrees with the solver away from the margin
    pair = [sharp_x, sharp_z]
    for i in range(20):
        l1, l2 = rng.uniform(size=2)
        if abs(l1 * l1 + l2 * l2 - 1.0) < 2e-2:
            continue
        certified = q.squared_weight_criterion((l1, l2))
        feasible = q.region_membership(pair, (l1, l2), q.NoiseClass.UNIFORM_NOISE).feasible
        if certified == feasible:
            failures.append(f"weights ({l1:.3f},{l2:.3f}) criterion {certified} solver {feasible}")
    # overlapping shares of a maximally entangled state are monogamous
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    ent = np.outer(vec, vec)
    rep = q.state_marginal_feasible(ent, ent, (2, 2, 2))
    if rep.feasible:
        failures.append("entangled marginals admitted a joint extension")
    announce(capsys, 15, "structural consistency suite", failures,
             "monotonicity, coin-toss, criteria, monogamy all consistent")
