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


def near_parallel_povm(theta):
    """Qubit POVM whose first two effects are halves of pure states theta apart,
    so that their vectorizations are nearly parallel."""
    kets = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
    halves = 0.5 * np.einsum("ki,kj->kij", kets, kets)
    return Observable(np.concatenate([halves, [np.eye(2) - halves.sum(axis=0)]]))
