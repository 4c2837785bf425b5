"""Observable-side compatibility: joint measurability, noise thresholds,
analytic criteria, coexistence and the post-processing order.

A family of observables is compatible (jointly measurable) when a single
observable on the product outcome set returns each family member as a
marginal.  Every quantitative question in this module reduces to that
feasibility statement for a suitably noised family, solved by the projection
engine in sdpcore.

A joint observable is an array of effects on the product outcome grid, of
shape ``(*counts, d, d)`` in C order (the order of ``itertools.product``,
which is also the layout of :func:`sdpcore.joint_problem`): a marginal is a
sum over every other axis, and the explicit joints are built by broadcasting
each factor's effects along its own axis.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .config import DEFAULT_TOLS, Tolerances
from .devices import Observable, StochasticMatrix, binarize
from .sdpcore import (
    Decision,
    NoiseClass,
    SdpProblem,
    Verdict,
    joint_problem,
    joint_witness,
    solve_feasibility,
    threshold_search,
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

NoiseMode = NoiseClass  # the older name, read by the benchmark; it goes with the benchmark change


@dataclass(frozen=True)
class NoiseSpec:
    """Mixing weights, one per observable, and the :class:`NoiseClass` of the noise they
    admit (trivial noise p_k(.) I with p_k optimized by default; compatible noise at equal weights)."""

    weights: tuple[float, ...]
    mode: NoiseClass = NoiseClass.TRIVIAL_NOISE

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "mode", NoiseClass(self.mode))
        for w in ws:
            if not (0.0 <= w <= 1.0):
                raise ValueError(f"noise weight {w} outside [0, 1]")

    @staticmethod
    def uniform(weights) -> "NoiseSpec":
        return NoiseSpec(tuple(weights), NoiseClass.UNIFORM_NOISE)

    @staticmethod
    def optimized(weights) -> "NoiseSpec":
        return NoiseSpec(tuple(weights), NoiseClass.TRIVIAL_NOISE)


# === joint observables =======================================================

@dataclass(frozen=True)
class JointObservable:
    """Observable on a product outcome set together with its factor structure.

    ``observable.outcomes`` are the tuples (x_1, ..., x_n) of
    ``itertools.product(*factor_outcomes)``, in that order (else
    ``ValueError``), so the effects reshape to the outcome grid
    ``(*counts, d, d)``; ``marginal(k)`` sums out all axes but the kth.
    """

    observable: Observable
    factor_outcomes: tuple[tuple, ...]
    atol: float = 1e-10

    def __post_init__(self):
        if self.observable.outcomes != tuple(itertools.product(*self.factor_outcomes)):
            raise ValueError("joint outcomes must be the product of the factor outcomes, in order")

    @property
    def n_factors(self) -> int:
        return len(self.factor_outcomes)

    def marginal(self, k: int) -> Observable:
        d = self.observable.dim
        grid = self.observable.effects.reshape(tuple(map(len, self.factor_outcomes)) + (d, d))
        others = tuple(j for j in range(self.n_factors) if j != k)
        return Observable(grid.sum(axis=others), outcomes=self.factor_outcomes[k],
                          atol=max(self.atol, 1e-10))


def _joint_from_grid(grid, factor_outcomes, atol) -> JointObservable:
    """Joint observable from its effects on the outcome grid."""
    d = grid.shape[-1]
    obs = Observable(grid.reshape(-1, d, d), outcomes=itertools.product(*factor_outcomes), atol=atol)
    return JointObservable(obs, tuple(tuple(o) for o in factor_outcomes), atol)


def _on_axis(stack, k: int, n: int) -> np.ndarray:
    """``stack``'s leading axis moved to axis k of an n-axis outcome grid, the
    other grid axes of length one (the trailing axes are kept)."""
    return stack.reshape((1,) * k + stack.shape[:1] + (1,) * (n - k - 1) + stack.shape[1:])


@dataclass(frozen=True)
class JointResult(Decision):
    """Feasibility verdict for a joint-observable question, with witnesses."""

    joint: JointObservable | None = None
    noise_distributions: tuple[np.ndarray, ...] | None = None


def _check_family_dim(observables) -> int:
    if not observables:
        raise ValueError("need at least one observable")
    dim = observables[0].dim
    for obs in observables[1:]:
        if obs.dim != dim:
            raise ValueError("observables must share one Hilbert space dimension")
    return dim


def _require_size(observables):
    total = math.prod(obs.n_outcomes for obs in observables)
    if total > MAX_PRODUCT_OUTCOMES:
        raise ValueError(
            f"product outcome count {total} exceeds the cap {MAX_PRODUCT_OUTCOMES}"
        )


def check_joint(observables, tols: Tolerances | None = None) -> JointResult:
    """Decide joint measurability; on success return the joint observable."""
    tols = tols or DEFAULT_TOLS
    _check_family_dim(observables)
    _require_size(observables)
    res = solve_feasibility(joint_problem([obs.effects for obs in observables]), tols)
    if not res.feasible:
        return JointResult(res)
    grid, _ = joint_witness(res.witness)
    return JointResult(res, _joint_from_grid(grid, [obs.outcomes for obs in observables], tols.witness_atol))


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
        dists = [np.asarray(t.probs, dtype=float) for t in trivials]
        if any(len(p) != obs.n_outcomes for obs, p in zip(observables, dists)):
            raise ValueError("trivial outcome count must match the observable")
    counts = tuple(obs.n_outcomes for obs in observables)
    grid = np.zeros(counts + (dim, dim), dtype=complex)
    for k in range(n):
        coeff = 1.0
        for j in range(n):
            if j != k:
                coeff = coeff * _on_axis(dists[j][:, None, None], j, n)
        grid += coeff * _on_axis(observables[k].effects, k, n)
    return _joint_from_grid(grid / n, [obs.outcomes for obs in observables], 1e-10)


def build_postprocess_joint(obs: Observable, processings) -> JointObservable:
    """Joint observable for several classical post-processings of one parent."""
    mats = [p.matrix if isinstance(p, StochasticMatrix) else np.asarray(p, dtype=float)
            for p in processings]
    for p in mats:
        if p.shape[1] != obs.n_outcomes:
            raise ValueError("processing input size must match the parent outcomes")
    n = len(mats)
    # coeff[y_1, ..., y_n, x] = prod_k p_k(y_k | x)
    coeff = np.ones(obs.n_outcomes)
    for k, p in enumerate(mats):
        coeff = coeff * _on_axis(p, k, n)
    grid = np.zeros(coeff.shape[:-1] + (obs.dim, obs.dim), dtype=complex)
    for x, effect in enumerate(obs.effects):
        grid += coeff[..., x, None, None] * effect
    return _joint_from_grid(grid, [tuple(range(p.shape[0])) for p in mats], 1e-10)


# === compatibility region and degree =========================================

def region_membership(observables, noise: NoiseSpec, tols: Tolerances | None = None) -> JointResult:
    """Joint measurability of the noisy family lam_k M_k + (1-lam_k) N_k, for noise
    N_k of the class ``noise.mode``: one :func:`sdpcore.joint_problem`.

    Except for uniform noise the noise is a solver variable, so the answer
    quantifies over all noise of its class at the given weights.  On success
    ``noise_distributions`` holds the p_k of uniform and of trivial noise, and
    is ``None`` for the other classes.  Trivial noise is read back from its
    blocks, which hold (1 - lam_k) p_k, by normalizing; at weight 1 the noise
    is absent and every distribution is valid, and the uniform one is
    returned, as it is where the blocks' clipped mass lies below ``feas``: the
    witness fixes such a mass only to within its rounding, and any
    distribution at that mass moves the margins by less than ``feas``.
    """
    tols = tols or DEFAULT_TOLS
    _check_family_dim(observables)
    if len(noise.weights) != len(observables):
        raise ValueError("one noise weight per observable required")
    _require_size(observables)
    prob = joint_problem([obs.effects for obs in observables], noise.weights, noise=noise.mode)
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return JointResult(res)
    grid, blocks = joint_witness(res.witness)
    joint = _joint_from_grid(grid, [obs.outcomes for obs in observables], tols.witness_atol)
    if noise.mode is NoiseClass.UNIFORM_NOISE:
        return JointResult(res, joint, tuple(np.full(o.n_outcomes, 1.0 / o.n_outcomes) for o in observables))
    if noise.mode is not NoiseClass.TRIVIAL_NOISE:
        return JointResult(res, joint)
    dists = []
    for w, nk in zip(noise.weights, blocks):
        p = np.clip(nk[:, 0, 0].real, 0.0, None)
        dists.append(p / p.sum() if w != 1.0 and p.sum() > tols.feas else np.full(len(p), 1.0 / len(p)))
    return JointResult(res, joint, tuple(dists))


def degree_of_compatibility(observables, noise_mode: NoiseClass = NoiseClass.TRIVIAL_NOISE,
                            tols: Tolerances | None = None) -> float:
    """Largest symmetric weight at which noise of the class ``noise_mode``
    restores compatibility.

    The family of :func:`region_membership` problems at equal weights is
    factorized once and searched by :func:`sdpcore.threshold_search`; the
    returned value is certified feasible and within the bisection tolerance
    below the threshold.  A single observable has degree 1.
    """
    tols = tols or DEFAULT_TOLS
    _check_family_dim(observables)
    if len(observables) == 1:
        return 1.0
    _require_size(observables)
    effects, n = [obs.effects for obs in observables], len(observables)
    return threshold_search(lambda lam: joint_problem(effects, (lam,) * n, noise=noise_mode), tols).value


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
    _check_family_dim(observables)
    n = len(observables)
    if n > 4:
        raise ValueError("symmetrized products limited to at most 4 factors")
    _require_size(observables)
    grids = [_on_axis(obs.effects, k, n) for k, obs in enumerate(observables)]
    acc = 0.0
    for perm in itertools.permutations(range(n)):
        term = grids[perm[0]]
        for i in perm[1:]:
            term = np.matmul(term, grids[i])
        acc = acc + term
    blocks = la.hermitian_part(acc / math.factorial(n))
    worst = float(np.min(la.min_eig(blocks)))
    if worst < -atol:
        return JordanReport(False, worst)
    joint = _joint_from_grid(blocks, [obs.outcomes for obs in observables], max(atol * 10, 1e-9))
    return JordanReport(True, worst, joint)


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
    """``feasible`` is False for a certified incompatible choice (``failing_choice``),
    ``None`` when none is certified but some is undecided (the first such), else True."""

    feasible: bool | None
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
    n, undecided = 0, None
    for n, choice in enumerate(choices, 1):
        res = check_joint([binarize(obs, subset) for obs, subset in zip(observables, choice)], tols)
        if res.verdict is Verdict.INFEASIBLE_CERTIFIED:
            return WeakCoexistenceReport(False, n, choice, res.verdict)
        if not res.feasible and undecided is None:
            undecided = choice
    if undecided is not None:  # an undecided choice decides nothing, either way
        return WeakCoexistenceReport(None, n, undecided, Verdict.UNDECIDED)
    return WeakCoexistenceReport(True, n)


# === post-processing order ===================================================

@dataclass(frozen=True)
class OrderReport(Decision):
    witness: StochasticMatrix | None = None
    residual: float = 0.0

    @property
    def below(self) -> bool:
        """True exactly when the deciding solve found a witness."""
        return self.feasible


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
    prob = SdpProblem()
    prob.add_scalar_block("p", m_out * m_in, cap=1.0)  # p[y * m_in + x] = p(y|x)
    # row block y: sum_x p(y|x) vec obs2(x) = vec obs1(y); then one row per column sum
    prob.add_equality({"p": np.kron(np.eye(m_out), vec_of(obs2.effects).T)}, vec_of(obs1.effects).ravel())
    prob.add_equality({"p": np.kron(np.ones(m_out), np.eye(m_in))}, np.ones(m_in))
    res = solve_feasibility(prob, tols)
    if not res.feasible:
        return OrderReport(res)
    mat = np.clip(res.witness["p"].reshape(m_out, m_in), 0.0, None)
    mat /= mat.sum(axis=0, keepdims=True)
    recon = np.einsum("yx,xab->yab", mat, obs2.effects)
    residual = float(np.abs(recon - obs1.effects).max())
    return OrderReport(res, StochasticMatrix(mat), residual)
