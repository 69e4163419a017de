import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.sampling import JointBehaviorSpace
from example_checks import (
    check_absence_equal,
    check_absence_prefers_cruise,
    check_absence_singleton,
    check_confidence_concentrated_limit,
    check_confidence_reward_values,
    check_confidence_sorted_gap,
    check_confidence_uniform,
    check_courtesy_concentrated,
    check_courtesy_half_to_eight_two,
    check_courtesy_identical,
    check_cumulative_reward_dot,
    check_cumulative_reward_single_feature,
    check_cumulative_reward_zero,
    check_egoism_constant_rows,
    check_egoism_expectation,
    check_egoism_singleton,
    check_features_colocated_safety,
    check_features_perfect_cruise,
    check_features_stopped,
    check_response_shift_invariance,
    check_response_symmetric,
    check_response_two_to_one,
    check_social_degenerate_argmaxes,
)


def test_spec_examples():
    for fn in (
        check_features_perfect_cruise,
        check_features_stopped,
        check_features_colocated_safety,
        check_cumulative_reward_zero,
        check_cumulative_reward_single_feature,
        check_cumulative_reward_dot,
        check_response_symmetric,
        check_response_two_to_one,
        check_response_shift_invariance,
        check_absence_singleton,
        check_absence_equal,
        check_absence_prefers_cruise,
        check_egoism_expectation,
        check_egoism_constant_rows,
        check_egoism_singleton,
        check_courtesy_identical,
        check_courtesy_half_to_eight_two,
        check_courtesy_concentrated,
        check_confidence_sorted_gap,
        check_confidence_uniform,
        check_confidence_concentrated_limit,
        check_confidence_reward_values,
        check_social_degenerate_argmaxes,
    ):
        fn()


def brute_force(reward_ego, reward_other, absence, label, beta=1.0):
    """Scalar reimplementation of the response/egoism/courtesy/confidence math."""
    row = [beta * r for r in reward_other[label]]
    z = sum(math.exp(r - max(row)) for r in row)
    presence = [math.exp(r - max(row)) / z for r in row]
    egoism = sum(p * r for p, r in zip(presence, reward_ego[label]))
    ab = [beta * a for a in absence]
    za = sum(math.exp(a - max(ab)) for a in ab)
    q = [math.exp(a - max(ab)) / za for a in ab]
    kl = sum(qi * math.log(qi / pi) for qi, pi in zip(q, presence))
    courtesy = math.exp(-max(kl, 0.0))
    top = sorted(presence, reverse=True)
    conf = top[0] - top[1] if len(top) > 1 else 1.0
    return presence, egoism, courtesy, conf, math.exp(conf)


def test_brute_force_oracle_3x3():
    rng = np.random.default_rng(42)
    for _ in range(100):
        reward_ego = rng.normal(scale=5.0, size=(3, 3))
        reward_other = rng.normal(scale=5.0, size=(3, 3))
        absence = rng.normal(scale=5.0, size=3)
        space = JointBehaviorSpace.from_matrices(reward_ego, reward_other, absence)
        for label in range(3):
            presence, egoism, courtesy, conf, conf_r = brute_force(
                reward_ego.tolist(), reward_other.tolist(), absence.tolist(), label
            )
            assert np.allclose(sp.response_distribution(space, label).probs, presence, atol=1e-9)
            assert abs(sp.egoism_reward(space, label) - egoism) < 1e-9
            assert abs(sp.courtesy_reward(space, label) - courtesy) < 1e-9
            assert abs(sp.confidence(space, label) - conf) < 1e-9
            assert abs(sp.confidence_reward(space, label) - conf_r) < 1e-9


def test_distribution_invariants_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        ne, no = rng.integers(1, 7), rng.integers(1, 7)
        scale = 10 ** rng.uniform(-1, 2.0)  # up to reward magnitudes of hundreds
        space = JointBehaviorSpace.from_matrices(
            rng.normal(scale=scale, size=(ne, no)),
            rng.normal(scale=scale, size=(ne, no)),
            rng.normal(scale=scale, size=no),
        )
        for label in range(ne):
            dist = sp.response_distribution(space, label)
            assert abs(dist.probs.sum() - 1.0) < 1e-9
            assert np.all(dist.probs > 0.0)
            court = sp.courtesy_reward(space, label)
            assert 0.0 < court <= 1.0
            conf = sp.confidence(space, label)
            assert 0.0 <= conf <= 1.0
            assert 1.0 <= sp.confidence_reward(space, label) <= math.e
            row = space.reward_ego[label]
            ego = sp.egoism_reward(space, label)
            assert row.min() - 1e-9 <= ego <= row.max() + 1e-9


def test_social_reward_value():
    space = JointBehaviorSpace.from_matrices(
        [[3.0, 1.0], [0.0, 2.0]], [[1.0, 0.0], [0.5, 0.5]], [0.2, 0.1]
    )
    lam = sp.RewardWeights.of(0.5, 0.3, 0.2)
    comps = space.components()
    expected = (
        0.5 * comps.egoism_norm[1] + 0.3 * comps.courtesy[1] + 0.2 * comps.confidence_reward[1]
    )
    assert abs(sp.social_reward(space, 1, lam) - expected) < 1e-12


def test_unknown_candidate_errors():
    space = JointBehaviorSpace.from_matrices([[1.0]], [[1.0]])
    for fn in (
        sp.response_distribution,
        sp.egoism_reward,
        sp.courtesy_reward,
        sp.confidence,
        sp.confidence_reward,
    ):
        with pytest.raises(sp.UnknownCandidateError):
            fn(space, 3)
    with pytest.raises(sp.UnknownCandidateError):
        sp.social_reward(space, -2, sp.RewardWeights.egoism())


def test_reward_weights_validation():
    with pytest.raises(ValueError):
        sp.RewardWeights.of(0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        sp.RewardWeights.of(1.2, -0.2, 0.0)
    lam = sp.RewardWeights.of(0.2, 0.3, 0.5)
    assert np.allclose(lam.values, [0.2, 0.3, 0.5], atol=0)


def test_feature_vector_validation():
    with pytest.raises(ValueError):
        sp.FeatureVector(efficiency=0.5, comfort=0.0, safety=0.0)
    with pytest.raises(ValueError):
        sp.FeatureVector(efficiency=float("nan"), comfort=0.0, safety=0.0)


def test_response_distribution_validation():
    with pytest.raises(ValueError):
        sp.ResponseDistribution(probs=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        sp.ResponseDistribution(probs=np.array([1.2, -0.2]))


def test_egoism_normalization_constant_rows():
    space = JointBehaviorSpace.from_matrices(
        np.full((3, 2), 7.0), np.zeros((3, 2)), np.zeros(2)
    )
    comps = space.components()
    assert np.allclose(comps.egoism_norm, 0.0, atol=0)


@st.composite
def _spaces(draw):
    ne, no = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    # magnitudes up to 100: inside the log-domain softmax envelope
    value = st.floats(-100.0, 100.0, allow_nan=False)
    return JointBehaviorSpace.from_matrices(
        np.reshape(draw(st.lists(value, min_size=ne * no, max_size=ne * no)), (ne, no)),
        np.reshape(draw(st.lists(value, min_size=ne * no, max_size=ne * no)), (ne, no)),
        draw(st.lists(value, min_size=no, max_size=no)),
    )


@settings(max_examples=200, deadline=None)
@given(space=_spaces())
def test_courtesy_and_confidence_reward_ranges_property(space):
    comps = space.components()
    assert np.all((comps.courtesy > 0.0) & (comps.courtesy <= 1.0))
    assert np.all((comps.confidence_reward >= 1.0) & (comps.confidence_reward <= math.e))
    for label in range(len(space.ego_candidates)):
        assert 0.0 < sp.courtesy_reward(space, label) <= 1.0
        assert 1.0 <= sp.confidence_reward(space, label) <= math.e
