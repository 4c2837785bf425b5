"""Observable-side compatibility: joint measurability, noise thresholds,
analytic criteria, coexistence and the post-processing order.

A family of observables is compatible (jointly measurable) when a single
observable on the product outcome set returns each family member as a
marginal.  Every quantitative question in this module reduces to that
feasibility statement for a suitably noised family, solved by the projection
engine in sdpcore.  :func:`check` asks the same question of any family of
observables, channels and instruments on one input, whose margins
:func:`margins_of` writes; the joint questions of every check module run
through its solve path and one search path.  :func:`postprocessing_order`
asks the other question, whether an observable or a channel is a component of
another one, for every check module, through :func:`sdpcore.order_problem`.

A joint observable is an array of effects on the product outcome grid, of
shape ``(*counts, d, d)`` in C order (the order of ``itertools.product``,
which is also the layout of :func:`sdpcore.joint_problem`): a marginal is a
sum over every other axis, and the explicit joints are built by broadcasting
each factor's effects along its own axis.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg as la
from .config import DEFAULT_TOLS, Tolerances
from .devices import Channel, Instrument, Observable, State, StochasticMatrix, binarize, choi_compose
from .sdpcore import (
    MAX_GRID_POINTS,
    Decision,
    NoiseClass,
    ThresholdResult,
    Verdict,
    joint_problem,
    joint_witness,
    order_factor,
    order_problem,
    solve_feasibility,
    threshold_search,
)

__all__ = [
    "NoiseMode",
    "JointObservable",
    "Compatibility",
    "margins_of",
    "check",
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

NoiseMode = NoiseClass  # the older name, read by the benchmark; it goes with the benchmark change


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


def _check_family_dim(observables) -> int:
    if not observables:
        raise ValueError("need at least one observable")
    dim = observables[0].dim
    for obs in observables[1:]:
        if obs.dim != dim:
            raise ValueError("observables must share one Hilbert space dimension")
    return dim


# === one check over any family ===============================================

@dataclass(frozen=True)
class Compatibility(Decision):
    """The answer to one joint question: the deciding solve and, when feasible, the
    ``joint`` device with the given devices as its parts (a :class:`JointObservable`,
    :class:`Channel` or :class:`Instrument` from :func:`check`, a tester pair's
    grid, an ``LhsModel`` or a ``State``); ``region_membership`` sets ``noise_distributions``."""

    joint: object | None = None
    noise_distributions: tuple[np.ndarray, ...] | None = None

    # the older names, read by the benchmark; they go with the benchmark change (ROADMAP item 1)
    instrument = property(lambda self: self.joint)
    model = property(lambda self: self.joint)
    unsteerable = property(lambda self: self.feasible)


def margins_of(devices):
    """``(margins, factors)`` of :func:`sdpcore.joint_problem` for observables,
    channels and instruments on one input.

    Factor 0 is the input.  Each channel or instrument gets an output factor
    of its own and each observable or instrument a grid axis of its own, in
    order; margin k is device k.  A channel keeps no axis and the factors
    (in, out_k), its trivial noise a constant channel I_in (x) xi; an
    instrument, a stack of Choi blocks, keeps its axis and (in, out_k), its
    trivial noise p(x) I_in (x) xi_x.  Next to a channel or an instrument
    the joint device is a stack of Choi blocks, whose blocks traced over the
    outputs are effects transposed, so an observable keeps its axis and the
    input with its effects transposed; observables alone are the stack form
    of :func:`sdpcore.joint_problem`, one axis each on the one factor.  An
    observable's trivial noise is p(x) I.  The other layouts are written
    where their devices live: assemblages are the stack form too, testers
    keep one axis each and both factors, input x output, and a state
    marginal problem keeps (A, B) and (B, C) of a state on A x B x C.  Any
    other device raises ``TypeError``.
    """
    devices = tuple(devices)
    quantum = not all(isinstance(d, Observable) for d in devices)
    factors, margins, axis = [], [], 0
    for dev in devices:
        if not isinstance(dev, (Observable, Channel, Instrument)):
            raise TypeError(f"margins_of takes observables, channels and instruments, not {type(dev).__name__}")
        if not factors:  # factor 0, the input
            factors.append(dev.dim if isinstance(dev, Observable) else dev.in_dim)
        if isinstance(dev, Observable):
            margins.append((dev.effects.swapaxes(1, 2) if quantum else dev.effects, (axis,), (0,), ()))
        else:
            factors.append(dev.out_dim)
            keep = (0, len(factors) - 1)
            margins.append((dev.choi() if isinstance(dev, Channel) else dev.choi_blocks,
                            () if isinstance(dev, Channel) else (axis,), keep, keep[1:]))
        axis += not isinstance(dev, Channel)
    return margins, tuple(factors)


def _decide(margins, factors, joint_of, tols: Tolerances | None = None, weights=None,
            noise: NoiseClass = NoiseClass.TRIVIAL_NOISE) -> Compatibility:
    """The shared solve path: one :func:`sdpcore.joint_problem`, one solve, and on
    success ``joint_of(grid, atol)`` of the joint device's grid and the witness slack."""
    tols = tols or DEFAULT_TOLS
    res = solve_feasibility(joint_problem(margins, weights, factors, noise), tols)
    if not res.feasible:
        return Compatibility(res)
    return Compatibility(res, joint_of(joint_witness(res.witness)[0], tols.witness_atol))


def _search(margins, factors=None, noise: NoiseClass = NoiseClass.TRIVIAL_NOISE,
            tols: Tolerances | None = None) -> ThresholdResult:
    """The shared search path: the largest weight at which every margin, mixed at
    that weight with noise of the class ``noise``, is compatible, one family
    factorized once by :func:`sdpcore.threshold_search`."""
    n = len(margins)
    return threshold_search(lambda lam: joint_problem(margins, (lam,) * n, factors, noise), tols)


def check(devices, weights=None, noise: NoiseClass = NoiseClass.TRIVIAL_NOISE,
          tols: Tolerances | None = None) -> Compatibility:
    """Is there one device that has all of ``devices``, observables, channels and
    instruments on one input, as its parts?

    One :func:`sdpcore.joint_problem` on :func:`margins_of` the family, at the
    ``weights`` with noise of the class ``noise`` when given, and one solve.
    On success ``joint`` is built and validated: a :class:`JointObservable`
    when the family has no channel or instrument, a :class:`Channel` into the
    product of the outputs when it has no observable or instrument, and
    otherwise an :class:`Instrument` into that product, whose outcomes are
    those of the one device on a grid axis, or their product tuples.
    """
    devices = tuple(devices)
    margins, factors = margins_of(devices)

    def joint_of(grid, atol):
        outcomes = [d.outcomes for d in devices if not isinstance(d, Channel)]
        if len(factors) == 1:
            return _joint_from_grid(grid, outcomes, atol)
        din, dout = factors[0], math.prod(factors[1:])
        if not outcomes:
            return Channel.from_choi(grid, din, dout, atol=atol)
        outcomes = outcomes[0] if len(outcomes) == 1 else itertools.product(*outcomes)
        return Instrument(grid.reshape((-1,) + grid.shape[-2:]), din, dout, outcomes=outcomes, atol=atol)

    return _decide(margins, factors, joint_of, tols, weights, noise)


def check_joint(observables, tols: Tolerances | None = None) -> Compatibility:
    """Decide joint measurability; on success return the joint observable.  The
    family is refused as :func:`sdpcore.joint_problem` refuses its margins."""
    return check(observables, tols=tols)


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

def region_membership(observables, weights, noise: NoiseClass = NoiseClass.TRIVIAL_NOISE,
                      tols: Tolerances | None = None) -> Compatibility:
    """Joint measurability of the noisy family lam_k M_k + (1-lam_k) N_k, for the
    ``weights`` lam_k and noise N_k of the class ``noise``: one
    :func:`sdpcore.joint_problem`, which refuses weights that are not one per
    observable in [0, 1].

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
    tols, noise = tols or DEFAULT_TOLS, NoiseClass(noise)
    res = check(observables, weights, noise, tols)
    if not res.feasible or noise in (NoiseClass.COMPATIBLE_NOISE, NoiseClass.ARBITRARY_NOISE):
        return res
    if noise is NoiseClass.UNIFORM_NOISE:
        return replace(res, noise_distributions=tuple(np.full(o.n_outcomes, 1.0 / o.n_outcomes)
                                                      for o in observables))
    dists = []
    for w, nk in zip(weights, joint_witness(res.solve.witness)[1]):
        p = np.clip(nk[:, 0, 0].real, 0.0, None)
        dists.append(p / p.sum() if w != 1.0 and p.sum() > tols.feas else np.full(len(p), 1.0 / len(p)))
    return replace(res, noise_distributions=tuple(dists))


def degree_of_compatibility(observables, noise_mode: NoiseClass = NoiseClass.TRIVIAL_NOISE,
                            tols: Tolerances | None = None) -> float:
    """Largest symmetric weight at which noise of the class ``noise_mode``
    restores compatibility.

    The family of :func:`region_membership` problems at equal weights is
    factorized once and searched by :func:`sdpcore.threshold_search`; the
    returned value is certified feasible and within the bisection tolerance
    below the threshold.  A single observable has degree 1.
    """
    if len(observables) == 1:
        return 1.0
    return _search(*margins_of(observables), noise_mode, tols).value


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
    total = math.prod(obs.n_outcomes for obs in observables)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"product outcome count {total} exceeds the cap {MAX_GRID_POINTS}")
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


def check_coexistent(observables, tols: Tolerances | None = None) -> Compatibility:
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
    """The answer to one order question: the deciding solve and, when below, the
    ``factor`` F with target = F o source, typed by the pair (see
    :func:`postprocessing_order`), and the ``residual`` of that factor."""

    factor: StochasticMatrix | Channel | Observable | tuple[State, ...] | None = None
    residual: float = 0.0

    @property
    def below(self) -> bool:
        """True exactly when the deciding solve found a factor."""
        return self.feasible


def postprocessing_order(target, source, tols: Tolerances | None = None) -> OrderReport:
    """Is ``target`` a component (a post-processing) of ``source``: target = F o source
    for some device F?

    Both are observables or channels on one input (else ``TypeError``), laid out
    by :func:`margins_of` and asked by one :func:`sdpcore.order_problem`.  When
    below, ``factor`` is F: for two observables p(y|x) as a
    :class:`StochasticMatrix`, clipped and column-normalized; for two channels a
    :class:`Channel`; for an observable after a channel an :class:`Observable`
    B on the channel's output, B(y) = F(y)^T; and for a channel after an
    observable (measure and prepare) one :class:`State` per source outcome.
    ``residual`` is the largest entry of sum_x Choi(F o source_x) - target.
    """
    tols = tols or DEFAULT_TOLS
    if not all(isinstance(d, (Observable, Channel)) for d in (target, source)):
        raise TypeError(f"an order question takes observables and channels, not "
                        f"{type(target).__name__} and {type(source).__name__}")
    margins, factors = margins_of((target, source))
    res = solve_feasibility(order_problem(margins, factors), tols)
    if not res.feasible:
        return OrderReport(res)
    f, atol = order_factor(res.witness), tols.witness_atol
    dt, ds = (d.out_dim if isinstance(d, Channel) else 1 for d in (target, source))
    if isinstance(target, Observable) and isinstance(source, Observable):
        mat = np.clip(f[..., 0, 0].real, 0.0, None)
        factor = StochasticMatrix(mat / mat.sum(axis=0, keepdims=True))
        blocks = factor.matrix[..., None, None]
    elif isinstance(source, Observable):
        factor = tuple(State(m, atol=atol) for m in f[0])
        blocks = np.stack([s.matrix for s in factor])[None]
    elif isinstance(target, Observable):
        factor = Observable(f[:, 0].swapaxes(1, 2), target.outcomes, atol=atol)
        blocks = factor.effects.swapaxes(1, 2)[:, None]
    else:
        factor = Channel.from_choi(f[0, 0], ds, dt, atol=atol)
        blocks = factor.choi()[None, None]
    (tgt, *_), (src, *_) = margins
    src = src.reshape((-1,) + src.shape[-2:])
    recon = sum(choi_compose(s, blocks[:, x], factors[0], ds, dt) for x, s in enumerate(src))
    return OrderReport(res, factor, float(np.abs(recon - tgt.reshape(recon.shape)).max()))
