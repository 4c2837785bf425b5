import dataclasses
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import qincompat as q
from conftest import near_parallel_povm
from qincompat import obscompat, sdpcore
from qincompat.sdpcore import Verdict


def noisy(obs, lam):
    return q.mix_with_trivial(obs, lam)


# --- joint measurability -----------------------------------------------------

def test_sharp_pair_incompatible(sharp_x, sharp_z):
    res = q.check_joint([sharp_x, sharp_z])
    assert res.solve.verdict is Verdict.INFEASIBLE_CERTIFIED


def test_noisy_pair_compatible(sharp_x, sharp_z):
    res = q.check_joint([noisy(sharp_x, 0.5), noisy(sharp_z, 0.5)])
    assert res.solve.feasible
    joint = res.joint
    assert joint is not None
    for k, obs in enumerate([noisy(sharp_x, 0.5), noisy(sharp_z, 0.5)]):
        marg = joint.marginal(k)
        assert np.abs(marg.effects - obs.effects).max() < 1e-6


def test_single_and_trivial(sharp_z, rng):
    assert q.check_joint([sharp_z]).solve.feasible
    triv = q.trivial_observable([0.2, 0.8], 2)
    assert q.check_joint([sharp_z, triv]).solve.feasible
    three = [q.random_povm(2, 2, rng) for _ in range(2)] + [triv]
    assert q.check_joint(three).solve.feasible == q.check_joint(three[:2]).solve.feasible


def test_commuting_family_compatible(rng):
    d1 = q.Observable(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    d2 = q.Observable(np.stack([np.diag([0.3, 0.6]), np.diag([0.7, 0.4])]))
    assert q.check_joint([d1, d2]).solve.feasible


def test_transpose_invariance(rng):
    for _ in range(5):
        pair = [noisy(q.random_povm(2, 2, rng), rng.uniform(0.5, 1.0)) for _ in range(2)]
        direct = q.check_joint(pair).solve.feasible
        transposed = q.check_joint([q.transpose_observable(o) for o in pair]).solve.feasible
        assert direct == transposed


# --- one check over any family of devices -----------------------------------

@pytest.mark.parametrize("gamma,value,upper", [
    (0.3, 0.9054054667096472, 0.9058946358106361),
    (0.5, 0.7067951445419276, 0.7071115200181822),
    (0.6, 0.5289119770771391, 0.5291619770771391),
])
def test_mixed_family_threshold(sharp_x, sharp_z, gamma, value, upper):
    # Z and X mixed at gamma with an identity channel whose trivial noise weight
    # is searched: the values of the margins written by hand, channel last
    margins, factors = q.margins_of([noisy(sharp_z, gamma), noisy(sharp_x, gamma), q.identity_channel(2)])
    res = q.threshold_search(lambda mu: sdpcore.joint_problem(margins, (1.0, 1.0, mu), factors))
    assert abs(res.value - value) <= 1e-9 and abs(res.upper.at - upper) <= 1e-9


def test_werner_one_to_three_bound():
    # three identity channels mixed with trivial noise: the optimal 1 -> 3
    # qubit cloner's shrinking factor 5/9 lies between value and upper end
    margins, factors = q.margins_of([q.identity_channel(2)] * 3)
    assert factors == (2, 2, 2, 2)
    res = q.threshold_search(lambda mu: sdpcore.joint_problem(margins, (mu,) * 3, factors))
    assert res.value <= 5 / 9 < res.upper.at


@pytest.mark.parametrize("channel,verdict", [
    (q.depolarizing_channel(2), Verdict.FEASIBLE),
    (q.identity_channel(2), Verdict.INFEASIBLE_CERTIFIED),
])
def test_check_takes_an_observable_and_a_channel_in_either_order(sharp_z, channel, verdict):
    obs = noisy(sharp_z, 0.5)
    first, second = q.check([obs, channel]), q.check([channel, obs])
    assert first.verdict is second.verdict is verdict
    if first.feasible:
        for res in (first, second):
            assert isinstance(res.joint, q.Instrument) and res.joint.outcomes == obs.outcomes
            assert np.abs(res.joint.induced_observable().effects - obs.effects).max() < 1e-6
            assert np.abs(res.joint.total_choi() - channel.choi()).max() < 1e-6


def test_check_builds_the_joint_device_of_each_family(sharp_x, sharp_z):
    x, z, depol = noisy(sharp_x, 0.5), noisy(sharp_z, 0.5), q.depolarizing_channel(2)
    assert isinstance(q.check([x, z]).joint, q.JointObservable)
    assert isinstance(q.check([depol, depol]).joint, q.Channel)
    joint = q.check([z, x, depol]).joint
    assert isinstance(joint, q.Instrument) and joint.outcomes == tuple(itertools.product(z.outcomes, x.outcomes))
    assert joint.out_dim == 2 and joint.choi_blocks.shape == (4, 4, 4)
    inst = q.check([q.luders_instrument(z), depol])
    assert inst.feasible and inst.joint.out_dim == 4
    with pytest.raises(TypeError, match="not State"):
        q.check([z, q.State(np.eye(2) / 2)])


def test_compatibility_keeps_the_older_names(sharp_x, sharp_z):
    # instrument, model and unsteerable are aliases of joint and feasible
    res = q.check_lhs(q.max_entangled_assemblage([noisy(sharp_x, 0.6), noisy(sharp_z, 0.6)]))
    assert res.model is res.instrument is res.joint is not None
    assert res.unsteerable is res.feasible is True


# --- explicit joints ---------------------------------------------------------

def test_build_toss_joint(rng):
    obs = [q.random_povm(2, 2, rng), q.random_povm(2, 3, rng)]
    joint = q.build_toss_joint(obs)
    n = len(obs)
    for k, o in enumerate(obs):
        want = q.mix_with_trivial(o, 1.0 / n)
        assert np.abs(joint.marginal(k).effects - want.effects).max() < 1e-10
    biased = [q.TrivialObservable((0.9, 0.1), 2), q.TrivialObservable((0.2, 0.3, 0.5), 2)]
    joint2 = q.build_toss_joint(obs, trivials=biased)
    want0 = q.mix_with_trivial(obs[0], 1.0 / n, probs=[0.9, 0.1])
    assert np.abs(joint2.marginal(0).effects - want0.effects).max() < 1e-10


def test_build_postprocess_joint(rng):
    obs = q.random_povm(2, 3, rng)
    st1 = q.StochasticMatrix(np.array([[1.0, 0.2, 0.0], [0.0, 0.8, 1.0]]))
    st2 = q.StochasticMatrix(np.array([[0.5, 0.0, 1.0], [0.5, 1.0, 0.0]]))
    joint = q.build_postprocess_joint(obs, [st1, st2])
    for k, st in enumerate([st1, st2]):
        want = q.post_process(obs, st)
        assert np.abs(joint.marginal(k).effects - want.effects).max() < 1e-10


# --- the outcome grid against per-tuple loops --------------------------------
# The loops below are the per-tuple constructions the grid versions replaced,
# kept as references: one block per product tuple, found by outcome label.

def loop_toss_blocks(observables, dists):
    n = len(observables)
    blocks = []
    for combo in itertools.product(*(obs.outcomes for obs in observables)):
        idx = [obs.outcomes.index(x) for obs, x in zip(observables, combo)]
        g = np.zeros((observables[0].dim,) * 2, dtype=complex)
        for k in range(n):
            coeff = 1.0
            for j in range(n):
                if j != k:
                    coeff *= dists[j][idx[j]]
            g += coeff * observables[k].effects[idx[k]]
        blocks.append(g / n)
    return np.stack(blocks)


def loop_postprocess_blocks(obs, mats):
    blocks = []
    for combo in itertools.product(*(range(p.shape[0]) for p in mats)):
        g = np.zeros((obs.dim, obs.dim), dtype=complex)
        for xi in range(obs.n_outcomes):
            coeff = 1.0
            for p, y in zip(mats, combo):
                coeff *= p[y, xi]
            g += coeff * obs.effects[xi]
        blocks.append(g)
    return np.stack(blocks)


def loop_jordan_blocks(observables):
    n, dim = len(observables), observables[0].dim
    blocks = []
    for combo in itertools.product(*(obs.outcomes for obs in observables)):
        effs = [obs.effects[obs.outcomes.index(x)] for obs, x in zip(observables, combo)]
        acc = np.zeros((dim, dim), dtype=complex)
        for perm in itertools.permutations(range(n)):
            term = np.eye(dim, dtype=complex)
            for i in perm:
                term = term @ effs[i]
            acc += term
        blocks.append(q.linalg.hermitian_part(acc / math.factorial(n)))
    return np.stack(blocks)


def loop_marginal(joint, k):
    outs = joint.factor_outcomes[k]
    effects = np.zeros((len(outs), joint.observable.dim, joint.observable.dim), dtype=complex)
    index = {x: i for i, x in enumerate(outs)}
    np.add.at(effects, [index[combo[k]] for combo in joint.observable.outcomes],
              joint.observable.effects)
    return effects


def labelled_family(rng, counts, dim=2):
    # outcome labels are strings on the second factor, so lookups by label matter
    family = [q.random_povm(dim, m, rng) for m in counts]
    if len(family) > 1:
        family[1] = q.Observable(family[1].effects, outcomes=[f"y{x}" for x in range(counts[1])])
    return family


FAMILIES = {"mixed": (2, 3, 2, 4), "one": (3,), "pair": (2, 3)}


def close(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-14


@pytest.mark.parametrize("counts", FAMILIES.values(), ids=FAMILIES.keys())
def test_toss_joint_equals_tuple_loop(rng, counts):
    family = labelled_family(rng, counts)
    joint = q.build_toss_joint(family)
    uniform = [np.full(m, 1.0 / m) for m in counts]
    assert joint.observable.outcomes == tuple(itertools.product(*(o.outcomes for o in family)))
    assert close(joint.observable.effects, loop_toss_blocks(family, uniform))
    trivials = [q.TrivialObservable(tuple(rng.dirichlet(np.ones(m))), 2) for m in counts]
    biased = q.build_toss_joint(family, trivials)
    assert close(biased.observable.effects, loop_toss_blocks(family, [np.asarray(t.probs) for t in trivials]))
    for k in range(len(counts)):
        assert close(joint.marginal(k).effects, loop_marginal(joint, k))
        assert close(biased.marginal(k).effects, loop_marginal(biased, k))
        assert joint.marginal(k).outcomes == family[k].outcomes


@pytest.mark.parametrize("outs", [(2, 3, 2), (3,)], ids=["three", "one"])
def test_postprocess_joint_equals_tuple_loop(rng, outs):
    parent = q.random_povm(2, 4, rng)
    mats = [rng.dirichlet(np.ones(m), size=4).T for m in outs]
    joint = q.build_postprocess_joint(parent, [q.StochasticMatrix(p) for p in mats])
    assert close(joint.observable.effects, loop_postprocess_blocks(parent, mats))
    for k, p in enumerate(mats):
        assert close(joint.marginal(k).effects, loop_marginal(joint, k))
        assert close(joint.marginal(k).effects, q.post_process(parent, q.StochasticMatrix(p)).effects)


@pytest.mark.parametrize("counts", FAMILIES.values(), ids=FAMILIES.keys())
def test_jordan_blocks_equal_tuple_loop(rng, counts):
    # noised to weight 1/4, the symmetrized products are positive, so the
    # report carries the blocks; the sharp family's are not, only the minimum
    family = [q.mix_with_trivial(o, 0.25) for o in labelled_family(rng, counts)]
    want = loop_jordan_blocks(family)
    report = q.jordan_criterion(family)
    assert report.certified
    assert close(report.joint.observable.effects, want)
    assert abs(report.min_eigenvalue - np.linalg.eigvalsh(want)[:, 0].min()) <= 1e-14
    sharp = [q.sharp_observable(np.linalg.qr(rng.normal(size=(2, 2)))[0]) for _ in counts]
    worst = np.linalg.eigvalsh(loop_jordan_blocks(sharp))[:, 0].min()
    assert abs(q.jordan_criterion(sharp).min_eigenvalue - worst) <= 1e-14


def test_joint_observable_needs_product_order(rng):
    joint = q.build_toss_joint(labelled_family(rng, (2, 3)))
    obs = joint.observable
    order = np.roll(np.arange(obs.n_outcomes), 1)
    permuted = q.Observable(obs.effects[order], outcomes=[obs.outcomes[i] for i in order])
    with pytest.raises(ValueError, match="product of the factor outcomes"):
        q.JointObservable(permuted, joint.factor_outcomes)
    assert q.JointObservable(obs, joint.factor_outcomes).marginal(1).outcomes == ("y0", "y1", "y2")


# --- noise models ------------------------------------------------------------

def test_region_membership_modes(sharp_x, sharp_z):
    pair = [sharp_x, sharp_z]
    uni = q.region_membership(pair, (0.6, 0.6), q.NoiseClass.UNIFORM_NOISE)
    assert uni.solve.feasible
    uni_out = q.region_membership(pair, (0.9, 0.9), q.NoiseClass.UNIFORM_NOISE)
    assert not uni_out.solve.feasible
    # optimized noise can only enlarge the region
    opt = q.region_membership(pair, (0.6, 0.6))
    assert opt.solve.feasible
    # and beyond it the sharp pair stays incompatible: a certificate, no joint and no noise
    opt_out = q.region_membership(pair, (0.9, 0.9))
    assert opt_out.verdict is q.Verdict.INFEASIBLE_CERTIFIED
    assert opt_out.joint is None and opt_out.noise_distributions is None
    # fixed noise is a mixture of the devices, decided by check_joint: at the uniform
    # distributions it decides as uniform noise
    for lam in (0.6, 0.9):
        fixed = q.check_joint([q.mix_with_trivial(o, lam, probs=[0.5, 0.5]) for o in pair])
        assert fixed.verdict is q.region_membership(pair, (lam, lam), q.NoiseClass.UNIFORM_NOISE).verdict
    # at 0.8 only noise past the trivial kind restores compatibility; it is no distribution
    for mode, feasible in zip(q.NoiseClass, (False, False, True, True)):
        res = q.region_membership(pair, (0.8, 0.8), mode)
        assert res.verdict is (q.Verdict.FEASIBLE if feasible else q.Verdict.INFEASIBLE_CERTIFIED), mode
        assert (res.joint is not None) is feasible and res.noise_distributions is None
    # compatible noise is one joint device, mixed in at one weight
    with pytest.raises(ValueError, match="one weight"):
        q.region_membership(pair, (0.8, 0.7), q.NoiseClass.COMPATIBLE_NOISE)


def test_region_optimized_noise_is_a_distribution(sharp_x, sharp_z, mub3):
    # the returned distributions are probability vectors, and the family mixed
    # with them has the returned joint as its joint
    for family, weights in (([sharp_x, sharp_z], (0.6, 0.65)), (list(mub3), (0.55, 0.5, 0.55))):
        res = q.region_membership(family, weights)
        assert res.feasible
        assert len(res.noise_distributions) == len(family)
        for k, (obs, w, p) in enumerate(zip(family, weights, res.noise_distributions)):
            assert p.shape == (obs.n_outcomes,)
            assert p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
            mixed = q.mix_with_trivial(obs, w, probs=p)
            dev = np.abs(res.joint.marginal(k).effects - mixed.effects).max()
            assert dev < q.DEFAULT_TOLS.witness_atol


def test_region_optimized_noise_at_weight_one_is_uniform(sharp_x, sharp_z):
    # at weight 1 the noise block holds no noise, so every distribution is
    # valid and the uniform one is returned (not 0/0); the other factor's
    # distribution is still read back from its block
    res = q.region_membership([sharp_x, sharp_z], (1.0, 0.0))
    assert res.feasible
    first, second = res.noise_distributions
    assert np.array_equal(first, np.full(2, 0.5))
    assert second.min() >= 0.0 and second.sum() == pytest.approx(1.0, abs=1e-12)
    for k, (obs, w) in enumerate(zip([sharp_x, sharp_z], (1.0, 0.0))):
        mixed = q.mix_with_trivial(obs, w, probs=res.noise_distributions[k])
        assert np.abs(res.joint.marginal(k).effects - mixed.effects).max() < q.DEFAULT_TOLS.witness_atol


def test_region_optimized_noise_without_mass_is_uniform(sharp_z):
    # a weight within rounding of 1 leaves a noise block no mass once clipped:
    # that distribution is the uniform one, not 0/0
    w = 1 - 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = q.region_membership([sharp_z, sharp_z], (w, w))
    assert res.feasible
    for k, p in enumerate(res.noise_distributions):
        assert np.all(np.isfinite(p)) and p.min() >= 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        mixed = q.mix_with_trivial(sharp_z, w, probs=p)
        assert np.abs(res.joint.marginal(k).effects - mixed.effects).max() < q.DEFAULT_TOLS.witness_atol
        assert np.array_equal(p, np.full(2, 0.5))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_region_noise_of_rounding_mass_is_uniform_whatever_its_signs(sharp_z, monkeypatch, sign):
    # at weight 1 - 1e-15 the noise blocks hold rounding of about 1e-15, of either
    # sign; read back as solved or with the signs flipped, both are massless
    solve = obscompat.solve_feasibility

    def signed(prob, tols=None, start=None):
        res = solve(prob, tols, start)
        return dataclasses.replace(res, witness={name: sign * v if name.startswith("n") else v
                                                 for name, v in res.witness.items()})

    monkeypatch.setattr(obscompat, "solve_feasibility", signed)
    w = 1 - 1e-15
    res = q.region_membership([sharp_z, sharp_z], (w, w))
    assert res.feasible
    for p in res.noise_distributions:
        assert np.array_equal(p, np.full(2, 0.5))


def test_region_optimized_contains_uniform(rng):
    pair = [q.random_povm(2, 2, rng) for _ in range(2)]
    for lam in (0.3, 0.7, 0.95):
        if q.region_membership(pair, (lam, lam), q.NoiseClass.UNIFORM_NOISE).solve.feasible:
            assert q.region_membership(pair, (lam, lam)).solve.feasible


def test_degree_single_is_one(sharp_z):
    assert q.degree_of_compatibility([sharp_z]) == 1.0


def test_degree_mub_pair(sharp_x, sharp_z):
    val = q.degree_of_compatibility([sharp_x, sharp_z])
    assert val == pytest.approx(1 / np.sqrt(2), abs=5e-3)


def test_fourier_degree_at_d10_meets_the_closed_form():
    # the uniform-noise Fourier threshold (d - 2 + sqrt d) / (2 (d - 1)), at a
    # size where the basis is blockwise (a dense one held 175 MiB)
    d = 10
    value = q.degree_of_compatibility(list(q.fourier_pair(d)))
    threshold = (d - 2 + np.sqrt(d)) / (2 * (d - 1))
    assert threshold - q.DEFAULT_TOLS.bisect_tol <= value <= threshold


def test_fourier_region_formula():
    for d in (2, 3, 5):
        lam = (d - 2 + np.sqrt(d)) / (2 * (d - 1))
        assert q.fourier_region_formula(d, lam - 5e-3, lam - 5e-3)
        assert not q.fourier_region_formula(d, lam + 5e-3, lam + 5e-3)
    with pytest.raises(ValueError):
        q.fourier_region_formula(1, 0.5, 0.5)


# --- analytic criteria -------------------------------------------------------

def test_jordan_criterion(sharp_x, sharp_z):
    boundary = 1 / np.sqrt(2)
    ok = q.jordan_criterion([noisy(sharp_x, boundary), noisy(sharp_z, boundary)])
    assert ok.certified
    assert ok.min_eigenvalue >= -1e-10
    bad = q.jordan_criterion([noisy(sharp_x, 0.75), noisy(sharp_z, 0.75)])
    assert not bad.certified
    d1 = q.Observable(np.stack([np.diag([0.3, 0.6]), np.diag([0.7, 0.4])]))
    d2 = q.Observable(np.stack([np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]))
    assert q.jordan_criterion([d1, d2]).certified


def test_commutator_criterion(sharp_x, sharp_z):
    rep = q.commutator_criterion(noisy(sharp_x, 0.9), noisy(sharp_z, 0.9))
    assert rep.certified
    assert rep.lhs > rep.rhs
    calm = q.commutator_criterion(noisy(sharp_x, 0.3), noisy(sharp_z, 0.3))
    assert not calm.certified


def test_unsharpness_and_discrepancy(sharp_z):
    assert q.unsharpness(sharp_z) == pytest.approx(0.0, abs=1e-12)
    assert q.unsharpness(noisy(sharp_z, 0.5)) > 0.1
    assert q.discrepancy(sharp_z, sharp_z) == pytest.approx(0.0, abs=1e-12)
    assert q.discrepancy(sharp_z, noisy(sharp_z, 0.5)) > 0.1


def test_mur_certifies_sharp_mubs(sharp_x, sharp_z):
    rep = q.mur_test(sharp_x, sharp_z, sharp_x, sharp_z)
    assert rep.certified  # zero error, zero unsharpness, nonzero commutator
    assert rep.rhs == pytest.approx(0.5, abs=1e-12)
    soft = q.mur_test(sharp_x, sharp_z, noisy(sharp_x, 0.2), noisy(sharp_z, 0.2))
    assert not soft.certified


def test_squared_weight_criterion():
    assert q.squared_weight_criterion((0.8, 0.8))
    assert not q.squared_weight_criterion((0.7, 0.7))
    assert q.squared_weight_criterion((0.6, 0.6, 0.6))
    with pytest.raises(ValueError):
        q.squared_weight_criterion((1.2, 0.0))


# --- structure tests ---------------------------------------------------------

def test_informational_completeness(rng, sharp_z):
    assert not q.is_informationally_complete(sharp_z)
    assert q.is_informationally_complete(q.random_povm(2, 4, rng))


def test_projection_in_range(sharp_z):
    assert q.has_projection_in_range(sharp_z)
    assert not q.has_projection_in_range(noisy(sharp_z, 0.5))


def test_coexistence(sharp_x, sharp_z, rng):
    assert not q.check_coexistent([sharp_x, sharp_z]).solve.feasible
    assert q.check_coexistent([noisy(sharp_x, 0.5), noisy(sharp_z, 0.5)]).solve.feasible
    tri = q.random_povm(2, 3, rng)
    assert q.check_coexistent([tri]).solve.feasible  # binarizations of one observable


def test_weak_coexistence(sharp_x, sharp_z):
    rep = q.check_weakly_coexistent([sharp_x, sharp_z])
    assert not rep.feasible
    assert rep.failing_choice is not None
    rep = q.check_weakly_coexistent([noisy(sharp_x, 0.5), noisy(sharp_z, 0.5)])
    assert rep.feasible
    assert rep.n_checked > 0


def test_weak_coexistence_undecided_choices_decide_nothing(monkeypatch):
    # a choice whose solve is cut short is no evidence of incompatibility: with
    # every choice undecided the report is undecided, after all 36 choices
    monkeypatch.setattr(obscompat, "check_joint",
                        lambda *args: SimpleNamespace(verdict=Verdict.UNDECIDED, feasible=False))
    rng = np.random.default_rng(0)
    family = [noisy(q.random_povm(2, 3, rng), 0.5) for _ in range(2)]
    rep = q.check_weakly_coexistent(family)
    assert rep.feasible is None and rep.verdict is Verdict.UNDECIDED
    assert rep.n_checked == 36 and rep.failing_choice == ((0,), (0,))


def test_weak_coexistence_certified_choice_decides_past_undecided_ones(sharp_x, sharp_z, monkeypatch):
    # the first choice undecided, the second certified incompatible: not weakly coexistent
    check = obscompat.check_joint
    calls = []

    def first_undecided(*args):
        calls.append(args)
        if len(calls) == 1:
            return SimpleNamespace(verdict=Verdict.UNDECIDED, feasible=False)
        return check(*args)

    monkeypatch.setattr(obscompat, "check_joint", first_undecided)
    rep = q.check_weakly_coexistent([sharp_x, sharp_z])
    assert rep.feasible is False and rep.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert rep.n_checked == 2 and rep.failing_choice == ((0,), (1,))


# --- post-processing order ---------------------------------------------------

def test_postprocessing_order(sharp_z):
    rep = q.postprocessing_order(noisy(sharp_z, 0.5), sharp_z)
    assert rep.below
    want = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert np.abs(rep.factor.matrix - want).max() < 1e-6
    assert not q.postprocessing_order(sharp_z, noisy(sharp_z, 0.5)).below


def test_order_reflexive_transitive(rng):
    obs = q.random_povm(2, 3, rng)
    assert q.postprocessing_order(obs, obs).below
    st = q.StochasticMatrix(np.array([[1.0, 0.4, 0.0], [0.0, 0.6, 1.0]]))
    mid = q.post_process(obs, st)
    st2 = q.StochasticMatrix(np.array([[0.8, 0.1], [0.2, 0.9]]))
    low = q.post_process(mid, st2)
    assert q.postprocessing_order(mid, obs).below
    assert q.postprocessing_order(low, obs).below


@pytest.mark.parametrize("theta", [3e-8, 1e-9])
def test_order_reflexive_with_nearly_parallel_effects(theta):
    # the constraint matrix holds a singular value of order theta times the
    # largest, which the affine set must keep, exactly enough that the identity
    # post-processing on the boundary of the cone stays on it
    obs = near_parallel_povm(theta)
    rep = q.postprocessing_order(obs, obs)
    assert rep.solve.verdict is Verdict.FEASIBLE
    assert rep.residual < 1e-6


def test_order_report_takes_its_solve_first():
    with pytest.raises(TypeError):
        q.OrderReport(True)


def _order_pairs():
    x = q.sharp_observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    z = q.sharp_observable(np.eye(2))
    deph, ident = q.diag_channel(dim=2), q.identity_channel(2)
    return {
        # a channel after an observable measures and prepares: one state per outcome
        "dephasing after Z": (deph, z, Verdict.FEASIBLE, tuple),
        # no information without disturbance: the identity keeps what Z destroys
        "identity after Z": (ident, z, Verdict.INFEASIBLE_CERTIFIED, type(None)),
        "Z after dephasing": (z, deph, Verdict.FEASIBLE, q.Observable),
        "X after dephasing": (x, deph, Verdict.INFEASIBLE_CERTIFIED, type(None)),
        "X after identity": (x, ident, Verdict.FEASIBLE, q.Observable),
        "coin after Z": (q.trivial_observable([0.3, 0.7], 2), z, Verdict.FEASIBLE, q.StochasticMatrix),
        "depolarizing after X": (q.depolarizing_channel(2), x, Verdict.FEASIBLE, tuple),
        "dephasing after identity": (deph, ident, Verdict.FEASIBLE, q.Channel),
    }


ORDER_PAIRS = _order_pairs()


@pytest.mark.parametrize("name", ORDER_PAIRS)
def test_order_pairs(name):
    # observables and channels on either side: one order question, its factor typed by
    # the pair, and its residual that of the returned factor
    target, source, verdict, kind = ORDER_PAIRS[name]
    rep = q.postprocessing_order(target, source)
    assert rep.verdict is verdict and isinstance(rep.factor, kind)
    if verdict is Verdict.INFEASIBLE_CERTIFIED:
        assert rep.solve.iterations == 0
        return
    assert rep.residual < q.DEFAULT_TOLS.witness_atol
    if isinstance(rep.factor, tuple):  # one state per outcome of the source
        assert len(rep.factor) == source.n_outcomes and all(isinstance(s, q.State) for s in rep.factor)
        choi = sum(np.kron(e.T, s.matrix) for e, s in zip(source.effects, rep.factor))
        assert np.abs(choi - target.choi()).max() < q.DEFAULT_TOLS.witness_atol
    elif isinstance(rep.factor, q.Observable):  # the observable after the channel: its Heisenberg image
        heisenberg = np.einsum("kai,yab,kbj->yij", source.kraus.conj(), rep.factor.effects, source.kraus)
        assert rep.factor.dim == source.out_dim
        assert np.abs(heisenberg - target.effects).max() < q.DEFAULT_TOLS.witness_atol


def test_order_refuses_other_devices(sharp_z):
    inst = q.luders_instrument(sharp_z)
    tester = q.prepare_measure_tester(np.eye(2) / 2, sharp_z)
    for target, source in ((inst, sharp_z), (sharp_z, inst), (tester, sharp_z)):
        with pytest.raises(TypeError):
            q.postprocessing_order(target, source)
    with pytest.raises(ValueError, match="share one input"):
        q.postprocessing_order(sharp_z, q.identity_channel(3))
