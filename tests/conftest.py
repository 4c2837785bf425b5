import numpy as np
import pytest

from qincompat import Observable, margins_of, mub_qubit, process, sharp_observable
from qincompat.sdpcore import joint_problem


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def sharp_x():
    return sharp_observable(np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.fixture
def sharp_z():
    return sharp_observable(np.eye(2))


@pytest.fixture
def mub3():
    return mub_qubit()


def rand_herm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def recheck_functional(prob, certificate):
    """Assemble ``prob`` and check that A^T y, for the certificate's multipliers
    y, reproduces its functional up to the rounding of both products.  Returns
    b and the functional's infimum over the capped cones, block by block of
    each record's stack."""
    a, b = prob.assemble()
    y, eps = certificate.multipliers, np.finfo(float).eps
    g = prob.join(certificate.functional)
    assert np.all(np.abs(a.T @ y - g) <= 4 * len(b) * eps * (np.abs(a).T @ np.abs(y) + np.abs(g)))
    infimum = 0.0
    for name, blk in prob._blocks.items():
        psd = blk.kind == "psd"
        for part in certificate.functional[name].reshape((-1,) + (blk.dim,) * (1 + psd)):
            if psd:
                infimum += float(blk.cap) * min(float(np.linalg.eigvalsh(part)[0]), 0.0)
            else:
                infimum += float(np.sum(blk.cap * np.minimum(part, 0.0)))
    return b, infimum


def near_parallel_povm(theta):
    """Qubit POVM whose first two effects are halves of pure states theta apart,
    so that their vectorizations are nearly parallel."""
    kets = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
    halves = 0.5 * np.einsum("ki,kj->kij", kets, kets)
    return Observable(np.concatenate([halves, [np.eye(2) - halves.sum(axis=0)]]))


def pair_problem(device_a, device_b, mode=None, lam=1.0):
    """The joint problem of a channel pair, or of an observable with a channel, as
    ``check_channel_pair`` and ``check_obs_channel`` build it (``mode=None``) or as
    ``robustness`` builds its member at weight ``lam`` with noise of class ``mode``: the
    channel's margin first."""
    margins, factors = margins_of(sorted((device_a, device_b), key=lambda d: isinstance(d, Observable)))
    if mode is None:
        return joint_problem(margins, factors=factors)
    return joint_problem(margins, (lam, lam), factors=factors, noise=mode)


def joint_tester_problem(t1, t2, weights=None):
    """The joint problem of a tester pair as ``check_tester_pair`` builds it, or as
    ``tester_degree`` builds its member at ``weights``."""
    margins, factors = process._margins(t1, t2)
    return joint_problem(margins, weights, factors=factors)
