"""Observable-side compatibility: joint measurability, noise thresholds,
analytic criteria, coexistence and the post-processing order.

A family of observables is compatible (jointly measurable) when a single
observable on the product outcome set returns each family member as a
marginal.  Every quantitative question in this module reduces to that
feasibility statement for a suitably noised family, solved by the projection
engine in sdpcore.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg as la
from .config import DEFAULT_TOLS, Tolerances
from .devices import (
    Observable,
    StochasticMatrix,
    TrivialObservable,
    binarize,
    mix_with_trivial,
)
from .sdpcore import (
    SdpProblem,
    SolveResult,
    Verdict,
    bisect_threshold,
    solve_feasibility,
    vec_of,
)

__all__ = [
    "MAX_PRODUCT_OUTCOMES",
    "NoiseMode",
    "NoiseSpec",
    "JointObservable",
    "JointResult",
    "check_joint",
    "build_toss_joint",
    "build_postprocess_joint",
    "region_membership",
    "degree_of_compatibility",
    "fourier_region_formula",
    "jordan_criterion",
    "JordanReport",
    "commutator_criterion",
    "CommutatorReport",
    "unsharpness",
    "discrepancy",
    "commutator_bound",
    "mur_test",
    "MurReport",
    "squared_weight_criterion",
    "is_informationally_complete",
    "has_projection_in_range",
    "check_coexistent",
    "check_weakly_coexistent",
    "WeakCoexistenceReport",
    "postprocessing_order",
    "OrderReport",
]

MAX_PRODUCT_OUTCOMES = 4096


# === noise specification =====================================================

class NoiseMode(Enum):
    UNIFORM_TRIVIAL = "uniform_trivial"
    OPTIMIZED_TRIVIAL = "optimized_trivial"
    FIXED_TRIVIAL = "fixed_trivial"


@dataclass(frozen=True)
class NoiseSpec:
    """Mixing weights and the class of trivial noise allowed per factor."""

    weights: tuple[float, ...]
    mode: NoiseMode = NoiseMode.OPTIMIZED_TRIVIAL
    distributions: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        for w in ws:
            if not (0.0 <= w <= 1.0):
                raise ValueError(f"noise weight {w} outside [0, 1]")
        if self.mode is NoiseMode.FIXED_TRIVIAL:
            if self.distributions is None:
                raise ValueError("fixed-noise mode needs explicit distributions")
            dists = tuple(np.asarray(p, dtype=float) for p in self.distributions)
            if len(dists) != len(ws):
                raise ValueError("one distribution per weight required")
            for p in dists:
                if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-10:
                    raise ValueError("distributions must be probability vectors")
            object.__setattr__(self, "distributions", dists)

    @staticmethod
    def uniform(weights) -> "NoiseSpec":
        return NoiseSpec(tuple(weights), NoiseMode.UNIFORM_TRIVIAL)

    @staticmethod
    def optimized(weights) -> "NoiseSpec":
        return NoiseSpec(tuple(weights), NoiseMode.OPTIMIZED_TRIVIAL)


# === joint observables =======================================================

@dataclass(frozen=True)
class JointObservable:
    """Observable on a product outcome set together with its factor structure.

    ``observable.outcomes`` are tuples (x_1, ..., x_n); ``marginal(k)`` sums
    out all factors but the kth.
    """

    observable: Observable
    factor_outcomes: tuple[tuple, ...]
    atol: float = 1e-10

    @property
    def n_factors(self) -> int:
        return len(self.factor_outcomes)

    def marginal(self, k: int) -> Observable:
        outs = self.factor_outcomes[k]
        d = self.observable.dim
        effects = np.zeros((len(outs), d, d), dtype=complex)
        index = {x: i for i, x in enumerate(outs)}
        for combo, eff in zip(self.observable.outcomes, self.observable.effects):
            effects[index[combo[k]]] += eff
        return Observable(effects, outcomes=outs, atol=max(self.atol, 1e-10))


def _product_combos(factor_outcomes):
    return list(itertools.product(*factor_outcomes))


def _joint_from_blocks(blocks, factor_outcomes, dim, atol) -> JointObservable:
    combos = _product_combos(factor_outcomes)
    effects = np.stack([np.asarray(blocks[t]) for t in combos])
    obs = Observable(effects, outcomes=combos, atol=atol)
    return JointObservable(obs, tuple(tuple(o) for o in factor_outcomes), atol)


@dataclass(frozen=True)
class JointResult:
    """Feasibility verdict for a joint-observable question, with witnesses."""

    solve: SolveResult
    joint: JointObservable | None = None
    noise_distributions: tuple[np.ndarray, ...] | None = None

    @property
    def verdict(self) -> Verdict:
        return self.solve.verdict

    @property
    def feasible(self) -> bool:
        return self.solve.feasible


def _check_family_dim(observables) -> int:
    if not observables:
        raise ValueError("need at least one observable")
    dim = observables[0].dim
    for obs in observables[1:]:
        if obs.dim != dim:
            raise ValueError("observables must share one Hilbert space dimension")
    return dim


def _require_size(observables):
    total = 1
    for obs in observables:
        total *= obs.n_outcomes
    if total > MAX_PRODUCT_OUTCOMES:
        raise ValueError(
            f"product outcome count {total} exceeds the cap {MAX_PRODUCT_OUTCOMES}"
        )
    return total


def _joint_problem(observables, dim):
    """Blocks G_t per product outcome; marginal and total-sum constraints."""
    factor_outcomes = [obs.outcomes for obs in observables]
    combos = _product_combos(factor_outcomes)
    prob = SdpProblem()
    names = {}
    for i, t in enumerate(combos):
        names[t] = prob.add_psd_block(f"g{i}", dim, trace_cap=float(dim))
    for k, obs in enumerate(observables):
        for xi, x in enumerate(obs.outcomes):
            terms = {names[t]: 1.0 for t in combos if t[k] == x}
            prob.add_matrix_equality(terms, obs.effects[xi])
    prob.add_matrix_equality({name: 1.0 for name in names.values()}, np.eye(dim))
    return prob, names, factor_outcomes


def check_joint(observables, tols: Tolerances | None = None) -> JointResult:
    """Decide joint measurability; on success return the joint observable."""
    tols = tols or DEFAULT_TOLS
    dim = _check_family_dim(observables)
    _require_size(observables)
    prob, names, factor_outcomes = _joint_problem(observables, dim)
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return JointResult(res)
    blocks = {t: res.witness[name] for t, name in names.items()}
    joint = _joint_from_blocks(blocks, factor_outcomes, dim, tols.witness_atol)
    worst = _marginal_deviation(joint, observables)
    if worst > tols.marginal_atol:
        res = SolveResult(
            Verdict.UNDECIDED, res.witness, res.iterations, res.residual, None,
            f"joint witness marginal deviation {worst:.2e} above tolerance",
        )
        return JointResult(res)
    return JointResult(res, joint)


def _marginal_deviation(joint: JointObservable, observables) -> float:
    worst = 0.0
    for k, obs in enumerate(observables):
        marg = joint.marginal(k)
        worst = max(worst, float(np.abs(marg.effects - obs.effects).max()))
    return worst


# === explicit joint constructions ============================================

def build_toss_joint(observables, trivials=None) -> JointObservable:
    """Mixture joint measuring a random factor and tossing coins for the rest.

    The kth marginal is (1/n) M_k + (1 - 1/n) p_k(.) I, so the construction
    certifies that symmetric noise weight 1/n always suffices.
    """
    dim = _check_family_dim(observables)
    n = len(observables)
    if trivials is None:
        dists = [np.full(obs.n_outcomes, 1.0 / obs.n_outcomes) for obs in observables]
    else:
        if len(trivials) != n:
            raise ValueError("one trivial observable per factor required")
        dists = []
        for obs, t in zip(observables, trivials):
            if len(t.probs) != obs.n_outcomes:
                raise ValueError("trivial outcome count must match the observable")
            dists.append(np.asarray(t.probs, dtype=float))
    factor_outcomes = [obs.outcomes for obs in observables]
    blocks = {}
    for combo in _product_combos(factor_outcomes):
        idx = [obs.outcomes.index(x) for obs, x in zip(observables, combo)]
        g = np.zeros((dim, dim), dtype=complex)
        for k in range(n):
            coeff = 1.0
            for j in range(n):
                if j != k:
                    coeff *= dists[j][idx[j]]
            g += coeff * observables[k].effects[idx[k]]
        blocks[combo] = g / n
    return _joint_from_blocks(blocks, factor_outcomes, dim, 1e-10)


def build_postprocess_joint(obs: Observable, processings) -> JointObservable:
    """Joint observable for several classical post-processings of one parent."""
    mats = [p.matrix if isinstance(p, StochasticMatrix) else np.asarray(p, dtype=float)
            for p in processings]
    for p in mats:
        if p.shape[1] != obs.n_outcomes:
            raise ValueError("processing input size must match the parent outcomes")
    factor_outcomes = [tuple(range(p.shape[0])) for p in mats]
    dim = obs.dim
    blocks = {}
    for combo in _product_combos(factor_outcomes):
        g = np.zeros((dim, dim), dtype=complex)
        for xi in range(obs.n_outcomes):
            coeff = 1.0
            for p, y in zip(mats, combo):
                coeff *= p[y, xi]
            g += coeff * obs.effects[xi]
        blocks[combo] = g
    return _joint_from_blocks(blocks, factor_outcomes, dim, 1e-10)


# === compatibility region and degree =========================================

def _resolve_distributions(observables, noise: NoiseSpec):
    if noise.mode is NoiseMode.UNIFORM_TRIVIAL:
        return [np.full(o.n_outcomes, 1.0 / o.n_outcomes) for o in observables]
    dists = noise.distributions
    for obs, p in zip(observables, dists):
        if len(p) != obs.n_outcomes:
            raise ValueError("noise distribution length must match the outcomes")
    return list(dists)


def region_membership(observables, noise: NoiseSpec, tols: Tolerances | None = None) -> JointResult:
    """Joint measurability of the noisy family lam_k M_k + (1-lam_k) p_k(.) I.

    With optimized noise the distributions p_k are solver variables, so the
    answer quantifies over every choice of trivial noise at the given weights.
    """
    tols = tols or DEFAULT_TOLS
    dim = _check_family_dim(observables)
    if len(noise.weights) != len(observables):
        raise ValueError("one noise weight per observable required")
    _require_size(observables)
    if noise.mode is not NoiseMode.OPTIMIZED_TRIVIAL:
        dists = _resolve_distributions(observables, noise)
        mixed = [
            mix_with_trivial(obs, w, probs=p)
            for obs, w, p in zip(observables, noise.weights, dists)
        ]
        res = check_joint(mixed, tols)
        return JointResult(res.solve, res.joint, tuple(dists))

    factor_outcomes = [obs.outcomes for obs in observables]
    combos = _product_combos(factor_outcomes)
    prob = SdpProblem()
    names = {}
    for i, t in enumerate(combos):
        names[t] = prob.add_psd_block(f"g{i}", dim, trace_cap=float(dim))
    eye_vec = vec_of(np.eye(dim))
    for k, obs in enumerate(observables):
        m = obs.n_outcomes
        prob.add_scalar_block(f"p{k}", m, cap=1.0)
        for xi, x in enumerate(obs.outcomes):
            terms = {names[t]: 1.0 for t in combos if t[k] == x}
            coeff = np.zeros((dim * dim, m))
            coeff[:, xi] = -(1.0 - noise.weights[k]) * eye_vec
            terms[f"p{k}"] = coeff
            prob.add_matrix_equality(terms, noise.weights[k] * obs.effects[xi])
        prob.add_equality({f"p{k}": np.ones((1, m))}, np.array([1.0]))
    prob.add_matrix_equality({name: 1.0 for name in names.values()}, np.eye(dim))
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return JointResult(res)
    blocks = {t: res.witness[name] for t, name in names.items()}
    joint = _joint_from_blocks(blocks, factor_outcomes, dim, tols.witness_atol)
    dists = tuple(np.clip(res.witness[f"p{k}"], 0.0, None) for k in range(len(observables)))
    dists = tuple(p / p.sum() for p in dists)
    return JointResult(res, joint, dists)


def degree_of_compatibility(
    observables,
    noise_mode: NoiseMode = NoiseMode.OPTIMIZED_TRIVIAL,
    tols: Tolerances | None = None,
) -> float:
    """Largest symmetric weight at which trivial noise restores compatibility.

    Bisection from the feasible side; the returned value is certified feasible
    within the bisection tolerance.  A single observable has degree 1.
    """
    tols = tols or DEFAULT_TOLS
    _check_family_dim(observables)
    if len(observables) == 1:
        return 1.0
    n = len(observables)

    def feasible_at(lam: float) -> bool:
        spec = NoiseSpec((lam,) * n, noise_mode)
        return region_membership(observables, spec, tols).feasible

    return bisect_threshold(feasible_at, tols.bisect_tol).value


def fourier_region_formula(d: int, lam1: float, lam2: float) -> bool:
    """Closed-form compatibility region test for a Fourier-connected sharp pair."""
    if d < 2:
        raise ValueError("need d >= 2")
    gap = d - (d - 1) * (lam1 - lam2) ** 2
    return (d - 1) * (lam1 + lam2) - math.sqrt(max(gap, 0.0)) <= d - 2 + 1e-12


# === analytic criteria =======================================================

@dataclass(frozen=True)
class JordanReport:
    certified: bool
    min_eigenvalue: float
    joint: JointObservable | None = None


def jordan_criterion(observables, atol: float = 1e-10) -> JordanReport:
    """Sufficient compatibility test via symmetrized operator products.

    Builds candidate joint blocks by averaging products of one effect per
    factor over all orderings; positivity of every block certifies
    compatibility with the average family as an explicit joint.
    """
    dim = _check_family_dim(observables)
    n = len(observables)
    if n > 4:
        raise ValueError("symmetrized products limited to at most 4 factors")
    _require_size(observables)
    factor_outcomes = [obs.outcomes for obs in observables]
    blocks = {}
    worst = np.inf
    for combo in _product_combos(factor_outcomes):
        effs = [obs.effects[obs.outcomes.index(x)] for obs, x in zip(observables, combo)]
        acc = np.zeros((dim, dim), dtype=complex)
        for perm in itertools.permutations(range(n)):
            term = np.eye(dim, dtype=complex)
            for i in perm:
                term = term @ effs[i]
            acc += term
        block = la.hermitian_part(acc / math.factorial(n))
        blocks[combo] = block
        worst = min(worst, la.min_eig(block))
    if worst < -atol:
        return JordanReport(False, float(worst))
    joint = _joint_from_blocks(blocks, factor_outcomes, dim, max(atol * 10, 1e-9))
    return JordanReport(True, float(worst), joint)


@dataclass(frozen=True)
class CommutatorReport:
    certified: bool
    pair: tuple | None
    lhs: float
    rhs: float


def commutator_criterion(obs1: Observable, obs2: Observable) -> CommutatorReport:
    """Necessary compatibility test comparing commutators with unsharpness.

    Certifies incompatibility when some effect pair (E, F) has
    ||[E, F]||^2 > 4 ||E - E^2|| ||F - F^2||; sharp noncommuting pairs are the
    extreme case.
    """
    if obs1.dim != obs2.dim:
        raise ValueError("observables must share one dimension")
    best = None
    for x, e in zip(obs1.outcomes, obs1.effects):
        for y, f in zip(obs2.outcomes, obs2.effects):
            lhs = la.op_norm(e @ f - f @ e) ** 2
            rhs = 4.0 * la.op_norm(e - e @ e) * la.op_norm(f - f @ f)
            if best is None or lhs - rhs > best[2] - best[3]:
                best = (x, y, lhs, rhs)
    x, y, lhs, rhs = best
    if lhs > rhs + 1e-12:
        return CommutatorReport(True, (x, y), lhs, rhs)
    return CommutatorReport(False, None, lhs, rhs)


def unsharpness(obs: Observable) -> float:
    """Largest deviation of an effect from being idempotent (operator norm)."""
    return max(float(la.op_norm(e - e @ e)) for e in obs.effects)


def discrepancy(obs1: Observable, obs2: Observable) -> float:
    """Largest operator-norm distance between outcome-matched effects."""
    if obs1.n_outcomes != obs2.n_outcomes or obs1.dim != obs2.dim:
        raise ValueError("observables must match in dimension and outcome count")
    return max(float(la.op_norm(e - f)) for e, f in zip(obs1.effects, obs2.effects))


def commutator_bound(obs1: Observable, obs2: Observable) -> float:
    """Largest commutator norm over effect pairs; the incompatibility scale."""
    return max(
        float(la.op_norm(e @ f - f @ e))
        for e in obs1.effects
        for f in obs2.effects
    )


@dataclass(frozen=True)
class MurReport:
    lhs: float
    rhs: float
    certified: bool


def mur_test(target1: Observable, target2: Observable,
             approx1: Observable, approx2: Observable) -> MurReport:
    """Measurement uncertainty relation test for a pair of approximations.

    Every compatible pair (approx1, approx2) obeys
    2 d1 d2 + d1 + d2 + 2 sqrt(2 d1 + nu(target1)) sqrt(2 d2 + nu(target2))
    >= max commutator norm of the targets, with d_k the approximation errors.
    A strict violation certifies that the approximating pair is incompatible.
    """
    d1 = discrepancy(target1, approx1)
    d2 = discrepancy(target2, approx2)
    n1 = unsharpness(target1)
    n2 = unsharpness(target2)
    lhs = 2 * d1 * d2 + d1 + d2 + 2 * math.sqrt(2 * d1 + n1) * math.sqrt(2 * d2 + n2)
    rhs = commutator_bound(target1, target2)
    return MurReport(float(lhs), float(rhs), lhs < rhs - 1e-12)


def squared_weight_criterion(weights) -> bool:
    """Incompatibility of uniformly noised complementary sharp observables.

    For von Neumann observables in mutually unbiased bases mixed with uniform
    noise at weights lam_j, the family is incompatible when sum lam_j^2 > 1.
    Returns True when incompatibility is certified.
    """
    ws = np.asarray(weights, dtype=float)
    if np.any((ws < 0) | (ws > 1)):
        raise ValueError("weights must lie in [0, 1]")
    return bool(np.sum(ws * ws) > 1.0)


# === informational completeness ==============================================

def is_informationally_complete(obs: Observable, rank_atol: float = 1e-8) -> bool:
    """True when the effects span the full d^2-dimensional operator space."""
    vecs = la.hermitian_to_real_vec(obs.effects)
    s = np.linalg.svd(vecs, compute_uv=False)
    rank = int(np.sum(s > rank_atol * s[0]))
    return rank == obs.dim * obs.dim


def has_projection_in_range(obs: Observable, atol: float = 1e-8) -> bool:
    """Scan proper nonempty outcome subsets for a sum that is a projection.

    The empty and full subsets (0 and I) are excluded as trivially projective.
    A zero effect makes the scan trivially succeed.
    """
    m = obs.n_outcomes
    if m > 12:
        raise ValueError(f"subset scan capped at 12 outcomes, got {m}")
    for r in range(1, m):
        for subset in itertools.combinations(range(m), r):
            p = obs.effects[list(subset)].sum(axis=0)
            if la.op_norm(p @ p - p) <= atol:
                return True
    return False


# === coexistence =============================================================

def _proper_subsets(m: int):
    for r in range(1, m):
        yield from itertools.combinations(range(m), r)


def check_coexistent(observables, tols: Tolerances | None = None) -> JointResult:
    """Joint measurability of all two-outcome coarse-grainings at once."""
    _check_family_dim(observables)
    count = sum(2 ** obs.n_outcomes - 2 for obs in observables)
    if count > 8:
        raise ValueError(
            f"coexistence check needs {count} binarizations, cap is 8"
        )
    bins = []
    for obs in observables:
        for subset in _proper_subsets(obs.n_outcomes):
            bins.append(binarize(obs, subset))
    return check_joint(bins, tols)


@dataclass(frozen=True)
class WeakCoexistenceReport:
    feasible: bool
    n_checked: int
    failing_choice: tuple | None = None
    verdict: Verdict = Verdict.FEASIBLE


def check_weakly_coexistent(observables, tols: Tolerances | None = None) -> WeakCoexistenceReport:
    """Joint measurability of one binarization per observable, for all choices."""
    _check_family_dim(observables)
    for obs in observables:
        if obs.n_outcomes > 5:
            raise ValueError("weak coexistence capped at 5 outcomes per observable")
    choices = itertools.product(*(list(_proper_subsets(o.n_outcomes)) for o in observables))
    n = 0
    for choice in choices:
        n += 1
        bins = [binarize(obs, subset) for obs, subset in zip(observables, choice)]
        res = check_joint(bins, tols)
        if not res.feasible:
            return WeakCoexistenceReport(False, n, choice, res.verdict)
    return WeakCoexistenceReport(True, n)


# === post-processing order ===================================================

@dataclass(frozen=True)
class OrderReport:
    below: bool
    witness: StochasticMatrix | None = None
    residual: float = 0.0


def postprocessing_order(obs1: Observable, obs2: Observable,
                         tols: Tolerances | None = None) -> OrderReport:
    """Is obs1 a classical post-processing of obs2?

    Feasibility of p(y|x) >= 0 with unit column sums and
    obs1(y) = sum_x p(y|x) obs2(x); the witness matrix is returned.
    """
    tols = tols or DEFAULT_TOLS
    if obs1.dim != obs2.dim:
        raise ValueError("observables must share one dimension")
    m_out = obs1.n_outcomes
    m_in = obs2.n_outcomes
    d = obs1.dim
    prob = SdpProblem()
    prob.add_scalar_block("p", m_out * m_in, cap=1.0)
    n_vecs = la.hermitian_to_real_vec(obs2.effects)  # (m_in, d^2)
    for yi in range(m_out):
        coeff = np.zeros((d * d, m_out * m_in))
        for xi in range(m_in):
            coeff[:, yi * m_in + xi] = n_vecs[xi]
        prob.add_equality({"p": coeff}, vec_of(obs1.effects[yi]))
    for xi in range(m_in):
        row = np.zeros((1, m_out * m_in))
        row[0, xi::m_in] = 1.0
        prob.add_equality({"p": row}, np.array([1.0]))
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return OrderReport(False)
    mat = np.clip(res.witness["p"].reshape(m_out, m_in), 0.0, None)
    mat /= mat.sum(axis=0, keepdims=True)
    recon = np.einsum("yx,xab->yab", mat, obs2.effects)
    residual = float(np.abs(recon - obs1.effects).max())
    return OrderReport(True, StochasticMatrix(mat), residual)
