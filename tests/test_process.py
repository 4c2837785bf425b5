import numpy as np
import pytest

import qincompat as q
from qincompat.sdpcore import Verdict


@pytest.fixture
def prep0_z(sharp_z):
    return q.prepare_measure_tester(np.diag([1.0, 0.0]).astype(complex), sharp_z)


@pytest.fixture
def prep1_z(sharp_z):
    return q.prepare_measure_tester(np.diag([0.0, 1.0]).astype(complex), sharp_z)


# --- tester structure --------------------------------------------------------

def test_tester_validators(prep0_z):
    t = prep0_z
    assert t.in_dim == 2 and t.out_dim == 2
    assert np.abs(np.trace(t.xi) - 1.0) < 1e-10
    total = t.effects.sum(axis=0)
    assert np.abs(total - np.kron(t.xi, np.eye(2))).max() < 1e-10
    bad = t.effects.copy()
    bad[0] = bad[0] + np.diag([0.3, 0.0, 0.0, 0.0])  # total no longer product
    with pytest.raises(ValueError):
        q.Tester(bad, 2, 2)
    neg = t.effects.copy()
    neg[0] = neg[0] - np.eye(4) * 0.1
    with pytest.raises(ValueError):
        q.Tester(neg, 2, 2)


def test_trivial_tester():
    t = q.trivial_tester([0.2, 0.8], 2, 3)
    assert np.abs(t.xi - np.eye(2) / 2).max() < 1e-10
    assert np.abs(t.effects[0] - 0.2 * np.kron(t.xi, np.eye(3))).max() < 1e-12
    with pytest.raises(ValueError):
        q.trivial_tester([0.5, 0.6], 2, 2)


def test_prepare_measure_probabilities(prep0_z, sharp_z):
    p = q.tester_probability(prep0_z, q.identity_channel(2))
    assert np.abs(p - np.array([1.0, 0.0])).max() < 1e-10
    flip = q.unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))
    p = q.tester_probability(prep0_z, flip)
    assert np.abs(p - np.array([0.0, 1.0])).max() < 1e-10
    sink = q.constant_channel(q.State(np.eye(2) / 2), 2)
    p = q.tester_probability(prep0_z, sink)
    assert np.abs(p - np.array([0.5, 0.5])).max() < 1e-10


# --- pair compatibility ------------------------------------------------------

def test_same_tester_compatible(prep0_z):
    res = q.check_tester_pair(prep0_z, prep0_z)
    assert res.solve.feasible
    joint = res.joint
    assert joint is not None
    assert np.abs(joint.sum(axis=1) - prep0_z.effects).max() < 1e-6
    assert np.abs(joint.sum(axis=0) - prep0_z.effects).max() < 1e-6


def test_commuting_but_incompatible(prep0_z, prep1_z):
    # same measured observable, orthogonal probe states: every pair of
    # effects commutes yet no joint tester exists
    rep = q.commutation_vs_compat_report(prep0_z, prep1_z)
    assert rep.max_commutator < 1e-14
    assert rep.pair.solve.verdict is Verdict.INFEASIBLE_CERTIFIED
    assert rep.degree.value == pytest.approx(0.5, abs=5e-3)
    assert rep.commuting_but_incompatible


def test_mismatched_xi_instantly_infeasible(prep0_z):
    other = q.trivial_tester([0.3, 0.7], 2, 2)
    res = q.check_tester_pair(prep0_z, other)
    assert res.solve.verdict is Verdict.INFEASIBLE_CERTIFIED
    matching = q.trivial_tester([0.3, 0.7], 2, 2, xi=np.diag([1.0, 0.0]))
    assert q.check_tester_pair(prep0_z, matching).solve.feasible


def test_degree_floor(rng, prep0_z):
    assert q.tester_degree(prep0_z, prep0_z).value == pytest.approx(1.0, abs=1e-9)
    for _ in range(3):
        ta = q.prepare_measure_tester(q.random_state(2, rng), q.random_povm(2, 2, rng))
        tb = q.prepare_measure_tester(q.random_state(2, rng), q.random_povm(2, 2, rng))
        assert q.tester_degree(ta, tb).value >= 0.5 - 5e-3


def test_outcome_cap():
    # a tester pair is refused by the joint builder's grid cap: 64 x 65 = 4,160 joint
    # outcomes, past the 4,096 every joint device may have; 17 x 17 = 289 is admitted
    t64, t65 = (q.trivial_tester(np.full(m, 1 / m), 2, 2) for m in (64, 65))
    with pytest.raises(ValueError, match="joint grid of 4160 outcome tuples exceeds the cap 4096"):
        q.check_tester_pair(t64, t65)
    t17 = q.trivial_tester(np.full(17, 1 / 17), 2, 2)
    assert q.check_tester_pair(t17, t17).feasible
