import numpy as np
import pytest

from qincompat import Observable, mub_qubit, sharp_observable


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
