"""Quantum device model: states, observables, channels, instruments.

Conventions used throughout the package:

* A channel is stored by a Kraus family ``kraus[k]`` of shape (out_dim, in_dim).
* The (unnormalized) Choi matrix of a map ``F`` is
  ``J(F) = sum_ij |i><j| (x) F(|i><j|)`` with the *input* factor first, so
  ``tr_out J = I_in`` for trace-preserving maps and
  ``F(rho) = tr_in[J (rho^T (x) I_out)]``.
* Observables are effect stacks ``effects[x]`` of shape (d, d), positive and
  summing to the identity.
"""
from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from typing import Hashable, Sequence

import numpy as np

from .config import DEVICE_ATOL
from . import linalg as la

__all__ = [
    "State",
    "Observable",
    "TrivialObservable",
    "StochasticMatrix",
    "Channel",
    "Instrument",
    "NaimarkDilation",
    "SelfConjugatePair",
    "sharp_observable",
    "trivial_observable",
    "is_trivial",
    "mub_qubit",
    "fourier_pair",
    "mix_with_trivial",
    "post_process",
    "relabel",
    "binarize",
    "transpose_observable",
    "naimark_dilate",
    "kraus_to_choi",
    "choi_to_kraus",
    "apply_channel",
    "apply_choi",
    "choi_compose",
    "identity_channel",
    "unitary_channel",
    "constant_channel",
    "depolarizing_channel",
    "diag_channel",
    "conjugate_channel",
    "ctrl_unitary_selfconjugate",
    "werner_cloner",
    "cloner_marginal_coefficient",
    "random_state",
    "random_unitary",
    "random_povm",
    "random_channel",
]


# === basic device types ======================================================


@dataclass(frozen=True, eq=False)
class State:
    """Density matrix: positive semidefinite, unit trace."""

    matrix: np.ndarray
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        m, atol = la.require_positive(self.matrix, atol, "state is not positive semidefinite")
        if abs(np.trace(m).real - 1.0) > atol:
            raise ValueError(f"state trace {np.trace(m).real} != 1")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """Finite-outcome measurement: effects positive, summing to the identity."""

    effects: np.ndarray
    outcomes: tuple[Hashable, ...] | None = None
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        eff = np.asarray(self.effects, dtype=complex)
        if eff.ndim != 3 or eff.shape[1] != eff.shape[2]:
            raise ValueError(f"effects must have shape (m, d, d), got {eff.shape}")
        eff, atol = la.require_positive(eff, atol, "effect {} not positive")
        total = eff.sum(axis=0)
        dev = np.abs(total - np.eye(eff.shape[1])).max()
        if dev > atol:
            raise ValueError(f"effects do not sum to identity (max deviation {dev:.3e})")
        outcomes = self.outcomes
        if outcomes is None:
            outcomes = tuple(range(eff.shape[0]))
        outcomes = tuple(outcomes)
        if len(outcomes) != eff.shape[0]:
            raise ValueError("outcome labels do not match the number of effects")
        object.__setattr__(self, "effects", eff)
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    def probabilities(self, state: State | np.ndarray) -> np.ndarray:
        rho = state.matrix if isinstance(state, State) else np.asarray(state, dtype=complex)
        return np.real(np.einsum("xab,ba->x", self.effects, rho))


@dataclass(frozen=True)
class TrivialObservable:
    """Coin toss: effects p(x) * I, carrying no information about the state."""

    probs: tuple[float, ...]
    dim: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty vector")
        if p.min() < -DEVICE_ATOL or abs(p.sum() - 1.0) > DEVICE_ATOL:
            raise ValueError("probs must be nonnegative and sum to one")
        object.__setattr__(self, "probs", tuple(float(v) for v in p))

    def to_observable(self) -> Observable:
        eye = np.eye(self.dim, dtype=complex)
        return Observable(np.stack([p * eye for p in self.probs]))


def trivial_observable(probs: Sequence[float], dim: int) -> Observable:
    return TrivialObservable(tuple(float(p) for p in probs), dim).to_observable()


def is_trivial(obs: Observable, atol: float | None = None) -> bool:
    """True when every effect is proportional to the identity."""
    atol = DEVICE_ATOL if atol is None else atol
    eye = np.eye(obs.dim)
    return all(
        np.abs(e - (np.trace(e).real / obs.dim) * eye).max() <= atol for e in obs.effects
    )


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Column-stochastic matrix p(y|x): ``matrix[y, x] >= 0``, columns sum to one."""

    matrix: np.ndarray
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        atol = DEVICE_ATOL if atol is None else atol
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("stochastic matrix must be 2-d")
        if m.min() < -atol:
            raise ValueError(f"negative transition probability {m.min():.3e}")
        cols = m.sum(axis=0)
        if np.abs(cols - 1.0).max() > atol:
            raise ValueError(f"columns must sum to one (max deviation {np.abs(cols - 1.0).max():.3e})")
        object.__setattr__(self, "matrix", np.clip(m, 0.0, None))

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map in Kraus form."""

    kraus: np.ndarray  # (r, out_dim, in_dim)
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        atol = DEVICE_ATOL if atol is None else atol
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3 or k.shape[0] == 0:
            raise ValueError(f"kraus must have shape (r, out, in), got {k.shape}")
        total = np.einsum("kai,kaj->ij", k.conj(), k)
        dev = np.abs(total - np.eye(k.shape[2])).max()
        if dev > atol:
            raise ValueError(f"channel is not trace preserving (max deviation {dev:.3e})")
        object.__setattr__(self, "kraus", k)

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[1]

    def choi(self) -> np.ndarray:
        return kraus_to_choi(self.kraus)

    def apply(self, state: State | np.ndarray) -> np.ndarray:
        rho = state.matrix if isinstance(state, State) else np.asarray(state, dtype=complex)
        return np.einsum("kai,ij,kbj->ab", self.kraus, rho, self.kraus.conj())

    @classmethod
    def from_choi(cls, choi, in_dim: int, out_dim: int, atol: float | None = None) -> "Channel":
        psd_atol = 1e-8 if atol is None else max(atol, 1e-8)
        return cls(choi_to_kraus(choi, in_dim, out_dim, psd_atol=psd_atol), atol=atol)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Outcome-indexed family of CP maps whose total is a channel.

    Stored by the Choi blocks of the individual operations.  The induced
    observable has effects ``tr_out(J_x)^T``; the total channel has Choi
    ``sum_x J_x``.
    """

    choi_blocks: np.ndarray  # (m, in*out, in*out)
    in_dim: int
    out_dim: int
    outcomes: tuple[Hashable, ...] | None = None
    atol: InitVar[float | None] = None

    def __post_init__(self, atol):
        blocks = np.asarray(self.choi_blocks, dtype=complex)
        dio = self.in_dim * self.out_dim
        if blocks.ndim != 3 or blocks.shape[1:] != (dio, dio):
            raise ValueError(f"choi blocks must have shape (m, {dio}, {dio}), got {blocks.shape}")
        blocks, atol = la.require_positive(blocks, atol, "operation {} is not completely positive")
        marg = la.partial_trace(blocks.sum(axis=0), [self.in_dim, self.out_dim], keep=[0])
        dev = np.abs(marg - np.eye(self.in_dim)).max()
        if dev > atol:
            raise ValueError(f"total operation is not trace preserving (max deviation {dev:.3e})")
        outcomes = self.outcomes if self.outcomes is not None else tuple(range(blocks.shape[0]))
        object.__setattr__(self, "choi_blocks", blocks)
        object.__setattr__(self, "outcomes", tuple(outcomes))

    @classmethod
    def from_kraus_ops(cls, families: Sequence[np.ndarray], atol: float | None = None) -> "Instrument":
        """Build from one Kraus family per outcome."""
        blocks = np.stack([kraus_to_choi(np.asarray(f, dtype=complex)) for f in families])
        out_dim, in_dim = np.asarray(families[0]).shape[1:]
        return cls(blocks, in_dim, out_dim, atol=atol)

    def induced_observable(self, atol: float | None = None) -> Observable:
        effects = la.partial_trace(self.choi_blocks, [self.in_dim, self.out_dim], keep=[0])
        effects = np.swapaxes(effects, -1, -2)
        return Observable(effects, self.outcomes, atol=atol)

    def total_choi(self) -> np.ndarray:
        return self.choi_blocks.sum(axis=0)

    def total_channel(self, atol: float | None = None) -> Channel:
        return Channel.from_choi(self.total_choi(), self.in_dim, self.out_dim, atol=atol)

    def apply(self, x: int, state: State | np.ndarray) -> np.ndarray:
        """Unnormalized post-measurement output for outcome index ``x``."""
        rho = state.matrix if isinstance(state, State) else np.asarray(state, dtype=complex)
        return apply_choi(self.choi_blocks[x], rho, self.in_dim, self.out_dim)


# === observable constructions ===============================================


def sharp_observable(basis: np.ndarray, outcomes=None, atol: float | None = None) -> Observable:
    """Rank-one projective observable from the columns of a unitary ``basis``."""
    b = la.as_matrix(basis)
    d = b.shape[0]
    if np.abs(b.conj().T @ b - np.eye(d)).max() > 1e-10:
        raise ValueError("basis columns are not orthonormal")
    effects = np.stack([np.outer(b[:, k], b[:, k].conj()) for k in range(d)])
    return Observable(effects, outcomes, atol=atol)


def mub_qubit() -> tuple[Observable, Observable, Observable]:
    """The three mutually unbiased qubit observables (x, y, z eigenbases)."""
    s = 1.0 / np.sqrt(2.0)
    bx = np.array([[s, s], [s, -s]], dtype=complex)
    by = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
    bz = np.eye(2, dtype=complex)
    return sharp_observable(bx), sharp_observable(by), sharp_observable(bz)


def fourier_pair(dim: int) -> tuple[Observable, Observable]:
    """Computational-basis observable and its Fourier conjugate."""
    if dim < 2:
        raise ValueError("dim must be at least 2")
    comp = sharp_observable(np.eye(dim, dtype=complex))
    om = np.exp(2j * np.pi / dim)
    f = np.array([[om ** (j * k) for k in range(dim)] for j in range(dim)]) / np.sqrt(dim)
    return comp, sharp_observable(f)


def mix_with_trivial(obs: Observable, lam: float, probs: Sequence[float] | None = None) -> Observable:
    """Convex mixture ``lam*M(x) + (1-lam)*p(x)*I``; uniform p by default."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight {lam} outside [0, 1]")
    m = obs.n_outcomes
    p = np.full(m, 1.0 / m) if probs is None else np.asarray(probs, dtype=float)
    if p.shape != (m,):
        raise ValueError("probs must have one entry per outcome")
    TrivialObservable(tuple(p), obs.dim)  # validates p
    eye = np.eye(obs.dim)
    effects = lam * obs.effects + (1.0 - lam) * p[:, None, None] * eye
    return Observable(effects, obs.outcomes)


def post_process(obs: Observable, stoch: StochasticMatrix) -> Observable:
    """Classical post-processing ``N(y) = sum_x p(y|x) M(x)``."""
    if stoch.n_in != obs.n_outcomes:
        raise ValueError(f"stochastic matrix expects {stoch.n_in} inputs, observable has {obs.n_outcomes}")
    effects = np.einsum("yx,xab->yab", stoch.matrix, obs.effects)
    return Observable(effects)


def relabel(obs: Observable, perm: Sequence[int]) -> Observable:
    """Outcome relabeling: new effect ``y`` is the old effect ``perm[y]``."""
    perm = list(perm)
    if sorted(perm) != list(range(obs.n_outcomes)):
        raise ValueError("perm must be a permutation of the outcome indices")
    return Observable(obs.effects[perm], tuple(obs.outcomes[i] for i in perm))


def binarize(obs: Observable, subset: Sequence[int]) -> Observable:
    """Two-outcome coarse-graining onto an outcome subset and its complement."""
    idx = sorted(set(int(i) for i in subset))
    if not idx or any(i < 0 or i >= obs.n_outcomes for i in idx):
        raise ValueError(f"subset {subset} invalid for {obs.n_outcomes} outcomes")
    if len(idx) == obs.n_outcomes:
        raise ValueError("subset must be a proper subset of the outcomes")
    yes = obs.effects[idx].sum(axis=0)
    return Observable(np.stack([yes, np.eye(obs.dim) - yes]), ("yes", "no"))


def transpose_observable(obs: Observable) -> Observable:
    """Entrywise transpose of every effect (complex conjugate observable)."""
    return Observable(obs.effects.transpose(0, 2, 1).copy(), obs.outcomes)


# === Naimark dilation ========================================================


@dataclass(frozen=True, eq=False)
class NaimarkDilation:
    """Isometry V psi = sum_x (sqrt(M(x)) psi) (x) |x> with projections I (x) |x><x|."""

    isometry: np.ndarray     # (d*m, d)
    projections: np.ndarray  # (m, d*m, d*m)
    dim: int
    n_outcomes: int

    def reproduce_effects(self) -> np.ndarray:
        v = self.isometry
        return np.stack([v.conj().T @ p @ v for p in self.projections])


def naimark_dilate(obs: Observable) -> NaimarkDilation:
    d, m = obs.dim, obs.n_outcomes
    # row i of sqrt(M(x)) is row i * m + x
    v = la.psd_sqrt(obs.effects).transpose(1, 0, 2).reshape(d * m, d)
    projs = np.stack([la.kron(np.eye(d), np.outer(np.eye(m)[x], np.eye(m)[x])) for x in range(m)])
    if np.abs(v.conj().T @ v - np.eye(d)).max() > 1e-9:
        raise ValueError("dilation is not isometric; effects may be invalid")
    return NaimarkDilation(v, projs, d, m)


# === channel constructions ===================================================


def kraus_to_choi(kraus: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrix, input factor first."""
    k = np.asarray(kraus, dtype=complex)
    if k.ndim == 2:
        k = k[None]
    vs = k.transpose(0, 2, 1).reshape(k.shape[0], -1)  # v[(i,o)] = K[o,i]
    return np.einsum("ka,kb->ab", vs, vs.conj())


def choi_to_kraus(choi, in_dim: int, out_dim: int, atol: float = 1e-10,
                  psd_atol: float = 1e-8) -> np.ndarray:
    """Kraus family from an (unnormalized) Choi matrix.

    ``atol`` decides the retained rank; ``psd_atol`` bounds how negative the
    spectrum may be before the matrix is rejected (solver witnesses carry
    slightly larger negative dust than exact constructions).
    """
    j = la.require_hermitian(choi, max(psd_atol, 1e-8))
    if j.shape[0] != in_dim * out_dim:
        raise ValueError(f"Choi side {j.shape[0]} != in_dim*out_dim = {in_dim * out_dim}")
    vals, vecs = la.eig_hermitian(j)
    cutoff = atol * max(1.0, float(vals.max(initial=0.0)))
    if vals[0] < -psd_atol * max(1.0, float(np.abs(vals).max())):
        raise ValueError(f"Choi matrix is not positive (min eig {vals[0]:.3e})")
    ops = []
    for val, vec in zip(vals, vecs.T):
        if val > cutoff:
            ops.append(np.sqrt(val) * vec.reshape(in_dim, out_dim).T)
    if not ops:
        raise ValueError("Choi matrix is numerically zero")
    return np.stack(ops)


def apply_choi(choi, rho, in_dim: int, out_dim: int) -> np.ndarray:
    j4 = np.asarray(choi, dtype=complex).reshape(in_dim, out_dim, in_dim, out_dim)
    return np.einsum("iojp,ij->op", j4, np.asarray(rho, dtype=complex))


def apply_channel(channel: Channel | np.ndarray, rho, in_dim: int | None = None, out_dim: int | None = None) -> np.ndarray:
    """Apply a channel (Kraus) or a raw Choi matrix to a state."""
    if isinstance(channel, Channel):
        return channel.apply(rho)
    if in_dim is None or out_dim is None:
        raise ValueError("raw Choi input needs explicit in_dim and out_dim")
    return apply_choi(channel, rho, in_dim, out_dim)


def choi_compose(j_first, j_second, in_dim: int, mid_dim: int, out_dim: int) -> np.ndarray:
    """Choi matrix of ``second o first`` from the factors' Choi matrices.

    ``j_second`` may be a stack of Choi matrices (leading axes); the result
    is then the stack of compositions.
    """
    a = np.asarray(j_first, dtype=complex).reshape(in_dim, mid_dim, in_dim, mid_dim)
    b = np.asarray(j_second, dtype=complex)
    batch = b.shape[:-2]
    b = b.reshape(batch + (mid_dim, out_dim, mid_dim, out_dim))
    out = np.einsum("imjn,...monp->...iojp", a, b)
    return out.reshape(batch + (in_dim * out_dim, in_dim * out_dim))


def tensor_channel(first: Channel, second: Channel) -> Channel:
    """Tensor product channel acting factorwise on a composite input."""
    ops = np.stack([
        np.kron(k1, k2) for k1 in first.kraus for k2 in second.kraus
    ])
    return Channel(ops)


def identity_channel(dim: int) -> Channel:
    return Channel(np.eye(dim, dtype=complex)[None])


def unitary_channel(u: np.ndarray) -> Channel:
    u = la.as_matrix(u)
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-10:
        raise ValueError("matrix is not unitary")
    return Channel(u[None])


def constant_channel(output: State | np.ndarray, in_dim: int) -> Channel:
    """The channel rho -> xi that discards its input."""
    xi = output if isinstance(output, State) else State(np.asarray(output, dtype=complex))
    vals, vecs = la.eig_hermitian(xi.matrix)
    ops = []
    for val, vec in zip(vals, vecs.T):
        if val > 1e-14:
            for j in range(in_dim):
                ops.append(np.sqrt(val) * np.outer(vec, np.eye(in_dim)[j]))
    return Channel(np.stack(ops))


def depolarizing_channel(dim: int) -> Channel:
    """Complete depolarization rho -> I/dim."""
    return constant_channel(State(np.eye(dim, dtype=complex) / dim), dim)


def diag_channel(basis: np.ndarray | None = None, dim: int | None = None) -> Channel:
    """Dephasing onto a basis: rho -> sum_k <b_k|rho|b_k> |b_k><b_k|."""
    if basis is None:
        if dim is None:
            raise ValueError("need a basis matrix or a dimension")
        basis = np.eye(dim, dtype=complex)
    b = la.as_matrix(basis)
    if np.abs(b.conj().T @ b - np.eye(b.shape[0])).max() > 1e-10:
        raise ValueError("basis columns are not orthonormal")
    ops = np.stack([np.outer(b[:, k], b[:, k].conj()) for k in range(b.shape[0])])
    return Channel(ops)


def conjugate_channel(channel: Channel) -> Channel:
    """Conjugate (complementary) channel to the environment.

    With Stinespring isometry ``V psi = sum_k (K_k psi) (x) |k>``, this is the
    marginal on the environment: ``C^c(rho) = sum_ij tr[K_i rho K_j^+] |i><j|``.
    Output dimension equals the number of Kraus operators.
    """
    return Channel(channel.kraus.transpose(1, 0, 2).copy())


@dataclass(frozen=True, eq=False)
class SelfConjugatePair:
    """Controlled-unitary construction whose two marginals coincide."""

    joint: Channel           # d -> d*d, first output factor is the target system
    channel_a: Channel
    channel_b: Channel
    eigenbasis: np.ndarray | None  # common eigenbasis of the control unitaries


def ctrl_unitary_selfconjugate(
    dim: int = 2,
    unitaries: Sequence[np.ndarray] | None = None,
    phi: np.ndarray | None = None,
) -> SelfConjugatePair:
    """Controlled-unitary channel equal to its own conjugate.

    Uses commuting unitaries ``U_j`` with ``tr[U_j^+ U_k] = d delta_jk`` whose
    orbit of the seed vector is an orthonormal basis.  Each unitary is paired
    with the orbit vector of its *inverse*: the control basis is
    ``chi_j = U_j^+ |phi>`` and the joint isometry sends
    ``psi -> d^(-1/2) sum_j (U_j psi) (x) chi_j``.  Both marginals then equal
    the dephasing in the common eigenbasis of the ``U_j``.  (Pairing ``U_j``
    with ``U_j|phi>`` instead reproduces the same target marginal but relabels
    the control output by ``j -> -j``, so the two marginals would differ for
    d > 2; the inverse-orbit pairing realizes exact self-conjugacy, and the
    two pairings coincide at d = 2.)  Defaults: powers of the clock matrix
    with the uniform superposition seed (common eigenbasis = computational).
    """
    default = unitaries is None
    if default:
        om = np.exp(2j * np.pi / dim)
        clock = np.diag(om ** np.arange(dim))
        unitaries = [np.linalg.matrix_power(clock, j) for j in range(dim)]
    us = [la.as_matrix(u) for u in unitaries]
    d = us[0].shape[0]
    if len(us) != d:
        raise ValueError("need exactly d unitaries for a d-dimensional control")
    if phi is None:
        phi = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    phi = np.asarray(phi, dtype=complex).reshape(d)
    for u in us:
        if np.abs(u.conj().T @ u - np.eye(d)).max() > 1e-10:
            raise ValueError("control operators must be unitary")
    for u, w in itertools.combinations(us, 2):
        if np.abs(u @ w - w @ u).max() > 1e-10:
            raise ValueError("control unitaries must commute")
    basis_vecs = np.stack([u.conj().T @ phi for u in us], axis=1)  # columns chi_j
    if np.abs(basis_vecs.conj().T @ basis_vecs - np.eye(d)).max() > 1e-9:
        raise ValueError("the orbit of |phi> is not an orthonormal basis")
    # isometry psi -> (1/sqrt d) sum_j U_j psi (x) chi_j
    v = sum(np.kron(us[j], basis_vecs[:, j : j + 1]) for j in range(d)) / np.sqrt(d)
    joint = Channel(v[None])
    choi = joint.choi()
    choi_a = la.partial_trace(choi, [d, d, d], keep=[0, 1])
    choi_b = la.partial_trace(choi, [d, d, d], keep=[0, 2])
    return SelfConjugatePair(
        joint=joint,
        channel_a=Channel.from_choi(choi_a, d, d),
        channel_b=Channel.from_choi(choi_b, d, d),
        eigenbasis=np.eye(d, dtype=complex) if default else None,
    )


# === symmetric cloning =======================================================


def _symmetrizer(dim: int, n: int) -> np.ndarray:
    """Orthogonal projection onto the symmetric subspace of n factors."""
    size = dim**n
    s = np.zeros((size, size))
    n_perms = 0
    for perm in itertools.permutations(range(n)):
        n_perms += 1
        for idx in itertools.product(range(dim), repeat=n):
            src = int(np.ravel_multi_index(idx, (dim,) * n))
            dst = int(np.ravel_multi_index(tuple(idx[perm[k]] for k in range(n)), (dim,) * n))
            s[dst, src] += 1.0
    return s / n_perms


def werner_cloner(dim: int, n: int) -> Channel:
    """Optimal symmetric cloner: rho -> s * S (rho (x) I^(n-1)) S.

    The scale ``s`` is fixed numerically by trace preservation (it is input
    independent).  Supported range: n in {2, 3} with d*n <= 64.
    """
    if n not in (2, 3):
        raise ValueError("only n = 2 or 3 clones are supported")
    if dim * n > 64 or dim**n * dim > 1024:
        raise ValueError(f"cloner size (d={dim}, n={n}) beyond the supported range")
    s = _symmetrizer(dim, n)
    eye_rest = np.eye(dim ** (n - 1))
    # tr[S (rho (x) I^(n-1)) S] is state independent; evaluate it at rho = I/d
    scale = 1.0 / (np.trace(s @ np.kron(np.eye(dim), eye_rest)).real / dim)
    basis = np.eye(dim)
    size = dim**n
    choi = np.zeros((dim * size, dim * size), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            x = np.outer(basis[i], basis[j])
            out = scale * (s @ np.kron(x, eye_rest) @ s)
            choi += np.kron(np.outer(basis[i], basis[j]), out)
    return Channel.from_choi(choi, dim, size)


def cloner_marginal_coefficient(cloner: Channel, dim: int, n: int, rng=None) -> float:
    """Shrinking factor c with marginal(C(rho)) = c*rho + (1-c)*I/d."""
    rng = np.random.default_rng(7) if rng is None else rng
    rho = random_state(dim, rng).matrix
    out = cloner.apply(rho)
    marg = la.partial_trace(out, [dim] * n, keep=[0])
    dev_rho = rho - np.eye(dim) / dim
    dev_marg = marg - np.eye(dim) / dim
    return float(np.real(np.trace(dev_marg @ dev_rho) / np.trace(dev_rho @ dev_rho)))


# === randomized generators (for tests and sampling) =========================


def random_state(dim: int, rng, rank: int | None = None) -> State:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return State(m / np.trace(m).real)


def random_unitary(dim: int, rng) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_povm(dim: int, n_outcomes: int, rng) -> Observable:
    """Random full-rank POVM: normalize random positive operators by S^(-1/2)."""
    gs = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n_outcomes)]
    pos = [g @ g.conj().T for g in gs]
    total = sum(pos)
    vals, vecs = la.eig_hermitian(total)
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return Observable(np.stack([inv_root @ p @ inv_root for p in pos]))


def random_channel(in_dim: int, out_dim: int, rng, kraus_rank: int | None = None) -> Channel:
    """Random channel from a Haar-ish random Stinespring isometry."""
    r = in_dim if kraus_rank is None else kraus_rank
    g = rng.normal(size=(out_dim * r, in_dim)) + 1j * rng.normal(size=(out_dim * r, in_dim))
    q, _ = np.linalg.qr(g)
    v = q[:, :in_dim].reshape(out_dim, r, in_dim)
    return Channel(v.transpose(1, 0, 2).copy())
