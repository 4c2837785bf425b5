"""Threshold searches over affine families: the noise rescaling that keeps the
constraint matrix fixed, the certified upper ends, and the probe budget."""
import itertools
import math

import numpy as np
import pytest

import qincompat as q
import qincompat.linalg as la
from conftest import joint_tester_problem, pair_problem, recheck_functional
from qincompat import chancompat, obscompat, process, sdpcore, steering
from qincompat.config import DEFAULT_TOLS
from qincompat.sdpcore import SdpProblem, Verdict, joint_problem, solve_feasibility, verify_witness

SX = q.sharp_observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
SZ = q.sharp_observable(np.eye(2))
IDENT = q.identity_channel(2)
DEPH = q.diag_channel(dim=2)
T0, T1 = (q.prepare_measure_tester(np.diag(p).astype(complex), SZ) for p in ([1.0, 0.0], [0.0, 1.0]))
NOISE = q.NoiseClass


def _optimized(observables):
    effects = [o.effects for o in observables]
    return lambda lam: joint_problem(effects, (lam,) * len(effects))


def _uniform(observables):
    effects = [o.effects for o in observables]
    return lambda lam: joint_problem(effects, (lam,) * len(effects), noise=NOISE.UNIFORM_NOISE)


def _steering(observables):
    blocks = q.max_entangled_assemblage(observables).blocks
    return lambda lam: joint_problem(blocks, (lam,) * len(blocks), noise=NOISE.UNIFORM_NOISE)


def _pair(a, b, mode):
    return lambda lam: pair_problem(a, b, mode, lam)


def _obs_channel(obs, chan, mode):
    return lambda lam: pair_problem(obs, chan, mode, lam)


# (name, reference threshold, public search, its family)
SEARCHES = [
    ("degree fourier d=2", 1 / math.sqrt(2),
     lambda: q.degree_of_compatibility(list(q.fourier_pair(2))), _optimized(q.fourier_pair(2))),
    ("degree fourier d=3", (1 + math.sqrt(3)) / 4,
     lambda: q.degree_of_compatibility(list(q.fourier_pair(3))), _optimized(q.fourier_pair(3))),
    ("degree X/Z uniform", 1 / math.sqrt(2),
     lambda: q.degree_of_compatibility([SX, SZ], q.NoiseMode.UNIFORM_TRIVIAL), _uniform([SX, SZ])),
    ("degree unbiased triple", 1 / math.sqrt(3),
     lambda: q.degree_of_compatibility(list(q.mub_qubit()), q.NoiseMode.UNIFORM_TRIVIAL),
     _uniform(q.mub_qubit())),
    ("steering X/Z", 1 / math.sqrt(2), lambda: q.steering_degree([SX, SZ]).value, _steering([SX, SZ])),
    ("steering unbiased triple", 1 / math.sqrt(3),
     lambda: q.steering_degree(q.mub_qubit()).value, _steering(q.mub_qubit())),
    ("tester degree", 0.5, lambda: q.tester_degree(T0, T1).value,
     lambda lam: joint_tester_problem(T0, T1, (lam, lam))),
    ("robustness id/id arbitrary", 0.75,
     lambda: q.robustness(IDENT, IDENT, NOISE.ARBITRARY_NOISE), _pair(IDENT, IDENT, NOISE.ARBITRARY_NOISE)),
    ("robustness id/id compatible", 0.75,
     lambda: q.robustness(IDENT, IDENT, NOISE.COMPATIBLE_NOISE), _pair(IDENT, IDENT, NOISE.COMPATIBLE_NOISE)),
    ("robustness id/id trivial", 2 / 3,
     lambda: q.robustness(IDENT, IDENT, NOISE.TRIVIAL_NOISE), _pair(IDENT, IDENT, NOISE.TRIVIAL_NOISE)),
    ("robustness dephasing/id arbitrary", (2 + math.sqrt(2)) / 4,
     lambda: q.robustness(DEPH, IDENT, NOISE.ARBITRARY_NOISE), _pair(DEPH, IDENT, NOISE.ARBITRARY_NOISE)),
]
NAMES = [s[0] for s in SEARCHES]
REF = {s[0]: s[1] for s in SEARCHES}
FAMILY = {s[0]: s[3] for s in SEARCHES}

# every problem constructor and noise class, for the fixed-matrix check
CONSTRUCTORS = {
    **FAMILY,
    "robustness dephasing/id compatible": _pair(DEPH, IDENT, NOISE.COMPATIBLE_NOISE),
    "robustness dephasing/id trivial": _pair(DEPH, IDENT, NOISE.TRIVIAL_NOISE),
    "robustness Z/id arbitrary": _obs_channel(SZ, IDENT, NOISE.ARBITRARY_NOISE),
    "robustness Z/id compatible": _obs_channel(SZ, IDENT, NOISE.COMPATIBLE_NOISE),
    "robustness Z/id trivial": _obs_channel(SZ, IDENT, NOISE.TRIVIAL_NOISE),
    "region X/Z/trivial": _optimized([SX, SZ, q.trivial_observable([0.2, 0.3, 0.5], 2)]),
}


@pytest.fixture(scope="module")
def searches():
    """Each public search run once: its value, the search's result and family,
    and the probes and iterations counted at ``sdpcore.solve_feasibility``."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        count = {"probes": 0, "iterations": 0}
        solve, search = sdpcore.solve_feasibility, sdpcore.threshold_search

        def counted(*args, **kwargs):
            res = solve(*args, **kwargs)
            count["probes"] += 1
            count["iterations"] += res.iterations
            return res

        def recorded(build, *args, **kwargs):
            run["result"] = search(build, *args, **kwargs)
            run["build"] = build
            return run["result"]

        mp.setattr(sdpcore, "solve_feasibility", counted)
        mp.setattr(obscompat, "threshold_search", recorded)  # the one search path of every module
        for name, _, call, _ in SEARCHES:
            count.update(probes=0, iterations=0)
            run = {}
            run["value"] = call()
            runs[name] = {**run, **count}
    return runs


# --- the fixed constraint matrix ---------------------------------------------

@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_family_matrix_is_fixed_and_rhs_affine(name):
    build = CONSTRUCTORS[name]
    (a0, b0), (a, b), (a1, b1) = (build(lam).assemble() for lam in (0.0, 0.37, 1.0))
    assert np.array_equal(a0, a) and np.array_equal(a0, a1)
    assert np.abs(b - (b0 + 0.37 * (b1 - b0))).max() <= 1e-15


def test_family_with_weight_in_the_matrix_is_rejected():
    def build(lam):
        prob = SdpProblem()
        prob.add_psd_block("x", 2, trace_cap=1.0)
        prob.add_equality({"x": (1 + lam) * la.hermitian_to_real_vec(np.eye(2))}, np.array([1.0]))
        return prob

    def capped(lam):  # the cones, too, must not depend on the weight
        prob = SdpProblem()
        prob.add_psd_block("x", 2, trace_cap=1.0 + lam)
        prob.add_equality({"x": la.hermitian_to_real_vec(np.eye(2))}, np.array([1.0]))
        return prob

    for family in (build, capped):
        with pytest.raises(ValueError, match="weight"):
            sdpcore.threshold_search(family)


def test_family_whose_rhs_bends_is_rejected():
    # x = 2 lam^2 in [0, 1] has its threshold at 1/sqrt(2); read as the line through its
    # members at 0 and 1, x = 2 lam, it would certify 1/2.  The member at 1/2 is off that line
    def bent(lam):
        prob = SdpProblem()
        prob.add_psd_block("x", 1, trace_cap=1.0)
        prob.add_equality({"x": 1.0}, np.array([2 * lam * lam]))
        return prob

    with pytest.raises(ValueError, match="not affine"):
        sdpcore.threshold_search(bent)


def _parent_form(prob: SdpProblem, lam: float) -> tuple[SdpProblem, set[str]]:
    """``prob`` with the noise unscaled: noise terms -(1 - lam) T instead of
    -T, and normalization rows (those on noise blocks only) with right-hand
    side rhs instead of (1 - lam) rhs; rebuilt from the assembled rows, one
    dense term per record."""
    noise = {name for name in prob._blocks if not name.startswith(("g", "joint", "op"))}
    a, b = prob.assemble()
    on_noise = np.zeros(prob.n_vars, dtype=bool)
    for name in noise:
        blk = prob.block(name)
        on_noise[blk.offset : blk.offset + blk.length] = True
    norm_rows = ~np.any(a[:, ~on_noise] != 0, axis=1)
    a[np.ix_(~norm_rows, on_noise)] *= 1 - lam
    b[norm_rows] /= 1 - lam
    parent = SdpProblem()
    for name, blk in prob._blocks.items():
        parent._add(blk.kind, name, blk.dim, blk.cap, blk.lead)
    parent.add_equality({name: a[:, blk.offset : blk.offset + blk.length] for name, blk in prob._blocks.items()}, b)
    return parent, noise


@pytest.mark.parametrize("name", NAMES)
def test_rescaled_problems_decide_as_before(name):
    # feasible 0.01 below the threshold, with a witness that is one of the
    # unscaled problem once its noise is divided by (1 - lam); certified
    # infeasible 0.01 above
    lam = REF[name] - 0.01
    prob = FAMILY[name](lam)
    res = solve_feasibility(prob)
    assert res.verdict is Verdict.FEASIBLE
    parent, noise = _parent_form(prob, lam)
    witness = {n: x / (1 - lam) if n in noise else x for n, x in res.witness.items()}
    ok, report = verify_witness(parent, witness)
    assert ok, report
    assert solve_feasibility(FAMILY[name](REF[name] + 0.01)).verdict is Verdict.INFEASIBLE_CERTIFIED


# --- certified upper ends ----------------------------------------------------

def _gap(build, certificate, lam):
    """The certificate's gap at ``lam`` from the assembled problem alone: its
    multipliers y reproduce its functional A^T y, whose value on the affine
    set is y.b, less the functional's infimum over the capped cones."""
    b, infimum = recheck_functional(build(lam), certificate)
    return float(certificate.multipliers @ b) - infimum


@pytest.mark.parametrize("name", NAMES)
def test_search_brackets_its_threshold_between_value_and_upper_end(searches, name):
    run, ref, tol = searches[name], REF[name], DEFAULT_TOLS.bisect_tol
    result = run["result"]
    assert run["value"] == result.value
    assert result.value <= ref <= result.upper.at <= result.value + tol


@pytest.mark.parametrize("name", NAMES)
def test_upper_end_revalidates_from_problem_data(searches, name):
    run, tol = searches[name], DEFAULT_TOLS.bisect_tol
    end = run["result"].upper
    cert = end.certificate
    for lam in (end.at, 1.0):
        assert _gap(run["build"], cert, lam) + cert.bound < -DEFAULT_TOLS.feas
    # its affine value is y.b at the probe that found it
    values = [cert.multipliers @ run["build"](lam).assemble()[1] for lam, ok in run["result"].history if not ok]
    assert min(abs(v - cert.affine_value) for v in values) <= 1e-12
    assert solve_feasibility(run["build"](end.at + tol / 4)).verdict is Verdict.INFEASIBLE_CERTIFIED


def test_probe_budget(searches):
    # certified ends cut the probes; more than 10 in one search, or 600
    # iterations in all eleven, means a search fell back to bisection
    probes = {name: run["probes"] for name, run in searches.items()}
    assert max(probes.values()) <= 10, probes
    assert sum(run["iterations"] for run in searches.values()) <= 600
    for run in searches.values():
        assert len(run["result"].history) == run["probes"]


def test_steering_search_takes_fewer_probes_than_bisection(searches):
    # a bool bisection to the default tolerance takes 13 probes; each
    # certified upper end lets the search approach its threshold from below
    for name in ("steering X/Z", "steering unbiased triple"):
        run = searches[name]
        assert run["probes"] <= 8, (name, run["probes"])
        assert run["result"].value <= REF[name] <= run["result"].upper.at


def test_steering_degree_rejects_too_many_strategies():
    with pytest.raises(ValueError, match="joint grid of 8192 outcome tuples"):
        q.steering_degree([SX] * 13)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_no_cloning_bound_of_depolarizing_copies(d, n):
    # n copies of lam id + (1 - lam) I/d, as the margins of one channel into n outputs,
    # are compatible exactly up to Werner's optimal cloning bound (n + d) / (n (d + 1))
    ident, depol = q.identity_channel(d).choi(), q.depolarizing_channel(d).choi()
    bound = (n + d) / (n * (d + 1))
    res = sdpcore.threshold_search(lambda lam: joint_problem(
        [(lam * ident + (1 - lam) * depol, (), (0, k), ()) for k in range(1, n + 1)], factors=(d,) * (n + 1)))
    assert bound - DEFAULT_TOLS.bisect_tol <= res.value <= bound
    assert res.upper is not None and res.upper.at > bound


def _class_search(observables, noise, factors=None):
    effects = [o.effects for o in observables]
    margins = effects if factors is None else [(e, (k,), (0,), ()) for k, e in enumerate(effects)]
    return sdpcore.threshold_search(lambda lam: joint_problem(margins, (lam,) * len(effects), factors, noise))


@pytest.mark.parametrize("noise", list(NOISE))
def test_stack_form_takes_every_noise_class(noise):
    # the stack form is the factor form on the one factor (side,): the same brackets
    stack, factor = _class_search((SX, SZ), noise), _class_search((SX, SZ), noise, (2,))
    assert (stack.value, stack.upper.at) == (factor.value, factor.upper.at)


def test_uniform_noise_needs_an_outcome_axis():
    # uniform noise spreads a margin's total over its outcomes; a channel has none
    with pytest.raises(ValueError, match="uniform noise"):
        q.robustness(IDENT, IDENT, NOISE.UNIFORM_NOISE)
    with pytest.raises(ValueError, match="uniform noise"):
        q.robustness(SZ, IDENT, NOISE.UNIFORM_NOISE)


def test_xz_noise_classes_through_the_factor_form():
    # X and Z resist trivial, compatible and arbitrary noise up to 1/sqrt(2), 2 (sqrt(2) - 1)
    # and (2 + sqrt(2)) / 4 (Designolle, Farkas & Kaniewski, NJP 2019), in that order
    margins = [(o.effects, (k,), (0,), ()) for k, o in enumerate((SX, SZ))]
    values = []
    for noise, formula in ((NOISE.TRIVIAL_NOISE, 1 / math.sqrt(2)), (NOISE.COMPATIBLE_NOISE, 2 * (math.sqrt(2) - 1)),
                           (NOISE.ARBITRARY_NOISE, (2 + math.sqrt(2)) / 4)):
        res = sdpcore.threshold_search(lambda lam: joint_problem(margins, (lam, lam), factors=(2,), noise=noise))
        assert res.value <= formula <= res.upper.at
        values.append(res.value)
    assert values[0] < values[1] < values[2]


# the X/Z pair and the unbiased qubit triple under each class; the closed forms pinned
# are those cited above and the uniform references of SEARCHES
CLASS_FAMILIES = {"X/Z": (SX, SZ), "unbiased triple": tuple(q.mub_qubit())}
CLASS_FORMS = {
    ("X/Z", NOISE.UNIFORM_NOISE): 1 / math.sqrt(2), ("X/Z", NOISE.TRIVIAL_NOISE): 1 / math.sqrt(2),
    ("X/Z", NOISE.COMPATIBLE_NOISE): 2 * (math.sqrt(2) - 1), ("X/Z", NOISE.ARBITRARY_NOISE): (2 + math.sqrt(2)) / 4,
    ("unbiased triple", NOISE.UNIFORM_NOISE): 1 / math.sqrt(3),
}


@pytest.fixture(scope="module")
def class_searches():
    return {(name, noise): _class_search(family, noise) for name, family in CLASS_FAMILIES.items() for noise in NOISE}


@pytest.mark.parametrize("noise", list(NOISE))
@pytest.mark.parametrize("name", list(CLASS_FAMILIES))
def test_noise_class_brackets(class_searches, name, noise):
    res, tol = class_searches[name, noise], DEFAULT_TOLS.bisect_tol
    assert res.value <= CLASS_FORMS.get((name, noise), res.value) <= res.upper.at <= res.value + tol
    assert q.degree_of_compatibility(list(CLASS_FAMILIES[name]), noise) == res.value


@pytest.mark.parametrize("name", list(CLASS_FAMILIES))
def test_noise_classes_order_bracket_by_bracket(class_searches, name):
    # more admitted noise restores compatibility no later: uniform <= trivial <= compatible
    # <= arbitrary.  Values alone may invert within the bisection tolerance, so each lower
    # class's value is compared with each higher class's certified upper end
    for lower, higher in itertools.combinations(NOISE, 2):
        assert class_searches[name, lower].value <= class_searches[name, higher].upper.at, (lower, higher)


# --- the gate: what joint_problem refuses before it builds --------------------

def test_gate_refuses_no_margin():
    # no margin 0 to read the factor and the trace cap from
    for margins, factors in (([], None), (np.zeros((0, 2, 2, 2)), None), ([], (2,))):
        with pytest.raises(ValueError, match="at least one margin"):
            joint_problem(margins, factors=factors)


@pytest.mark.parametrize("weights", [(0.5,), (0.5, 0.5, 0.5), (1.5, 1.5), (-0.2, -0.2)])
def test_gate_refuses_weights_not_one_per_margin_in_the_unit_interval(weights):
    # a third weight would be dropped and a lone one read past its end; outside [0, 1]
    # a weight makes no mixture, yet (-0.2, -0.2) would solve FEASIBLE
    for noise in NOISE:
        with pytest.raises(ValueError, match=r"one weight in \[0, 1\] per margin"):
            joint_problem([SX.effects, SZ.effects], weights, noise=noise)
    with pytest.raises(ValueError, match="one weight in"):
        q.region_membership([SX, SZ], weights)


@pytest.mark.parametrize("noise", [NOISE.TRIVIAL_NOISE, NOISE.COMPATIBLE_NOISE, NOISE.ARBITRARY_NOISE])
def test_gate_refuses_an_assemblage_under_noise_normalized_as_an_observable(noise):
    # an assemblage's total is a state, of trace 1, not I: noise normalized as an observable's
    # would read 0.8282 / 0.9059 / 0.9208 here under trivial / compatible / arbitrary noise,
    # against 0.7069 / 0.8281 / 0.8534 for X and Z themselves
    blocks = q.max_entangled_assemblage([SX, SZ]).blocks
    with pytest.raises(ValueError, match=f"not normalized as {noise.value} noise"):
        sdpcore.threshold_search(lambda lam: joint_problem(blocks, (lam, lam), noise=noise))


@pytest.mark.parametrize("noise", [NOISE.COMPATIBLE_NOISE, NOISE.ARBITRARY_NOISE])
def test_gate_refuses_testers_whose_output_times_probe_is_not_the_identity(noise):
    # probes |0> and |1>: out xi is 2 |0><0| or 2 |1><1|, not I, and such noise would read 0.0
    # with a certified upper end at 0.0, below trivial noise's 0.4995
    margins, factors = process._margins(T0, T1)
    with pytest.raises(ValueError, match=f"not normalized as {noise.value} noise"):
        sdpcore.threshold_search(lambda lam: joint_problem(margins, (lam, lam), factors=factors, noise=noise))


TESTER_BRACKETS = {NOISE.UNIFORM_NOISE: (0.706857, 0.707107), NOISE.TRIVIAL_NOISE: (0.706857, 0.707107),
                   NOISE.COMPATIBLE_NOISE: (0.828080, 0.828562), NOISE.ARBITRARY_NOISE: (0.853397, 0.853647)}


@pytest.mark.parametrize("noise", list(NOISE))
def test_maximally_mixed_probe_testers_take_every_class(class_searches, noise):
    # with probe I/2, out xi = I: the X/Z testers take all four classes and reach the
    # brackets of the observables X and Z
    half = np.eye(2, dtype=complex) / 2
    margins, factors = process._margins(*(q.prepare_measure_tester(half, o) for o in (SX, SZ)))
    res = sdpcore.threshold_search(lambda lam: joint_problem(margins, (lam, lam), factors=factors, noise=noise))
    for got in (res, class_searches["X/Z", noise]):
        assert np.abs(np.array([got.value, got.upper.at]) - TESTER_BRACKETS[noise]).max() < 1e-6
