import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.rewards import component_arrays
from socialplan.inference import update_posterior
from reference_builder import social_reward_vector
from reference_scalar import FeatureVector, brute_force, space_from_matrices, window_likelihood
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
    decide_on,
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


def test_brute_force_oracle_3x3():
    rng = np.random.default_rng(42)
    for _ in range(100):
        reward_ego = rng.normal(scale=5.0, size=(3, 3))
        reward_other = rng.normal(scale=5.0, size=(3, 3))
        absence = rng.normal(scale=5.0, size=3)
        comps = space_from_matrices(reward_ego, reward_other, absence).components()
        for label in range(3):
            presence, _, egoism, courtesy, conf, conf_r = brute_force(
                reward_ego.tolist(), reward_other.tolist(), absence.tolist(), label
            )
            assert np.allclose(np.exp(comps.presence_logp[label]), presence, atol=1e-9)
            assert abs(comps.egoism_raw[label] - egoism) < 1e-9
            assert abs(comps.courtesy[label] - courtesy) < 1e-9
            assert abs(comps.confidence[label] - conf) < 1e-9
            assert abs(comps.confidence_reward[label] - conf_r) < 1e-9


def test_distribution_invariants_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(300):
        ne, no = rng.integers(1, 7), rng.integers(1, 7)
        scale = 10 ** rng.uniform(-1, 2.0)  # up to reward magnitudes of hundreds
        space = space_from_matrices(
            rng.normal(scale=scale, size=(ne, no)),
            rng.normal(scale=scale, size=(ne, no)),
            rng.normal(scale=scale, size=no),
        )
        comps = space.components()
        probs = np.exp(comps.presence_logp)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(probs > 0.0)
        assert np.all((comps.courtesy > 0.0) & (comps.courtesy <= 1.0))
        assert np.all((comps.confidence >= 0.0) & (comps.confidence <= 1.0))
        assert np.all((comps.confidence_reward >= 1.0) & (comps.confidence_reward <= math.e))
        rows = space.reward_ego
        assert np.all((rows.min(axis=1) - 1e-9 <= comps.egoism_raw) & (comps.egoism_raw <= rows.max(axis=1) + 1e-9))
        for label in range(ne):
            presence, _, egoism, courtesy, conf, _ = brute_force(
                rows.tolist(), space.reward_other.tolist(), space.absence_other.tolist(), label
            )
            assert np.allclose(probs[label], presence, atol=1e-9)
            assert abs(comps.egoism_raw[label] - egoism) < 1e-9 * max(1.0, abs(egoism))
            assert abs(comps.courtesy[label] - courtesy) < 1e-9
            assert abs(comps.confidence[label] - conf) < 1e-9


def test_social_reward_value():
    space = space_from_matrices([[3.0, 1.0], [0.0, 2.0]], [[1.0, 0.0], [0.5, 0.5]], [0.2, 0.1])
    lam = sp.RewardWeights.of(0.5, 0.3, 0.2)
    comps = space.components()
    expected = 0.5 * comps.egoism_norm + 0.3 * comps.courtesy + 0.2 * comps.confidence_reward
    assert np.allclose(social_reward_vector(space, lam), expected, rtol=0, atol=1e-12)
    assert abs(expected[0] - expected[1]) > 1e-3  # the leader's choice is clear-cut
    assert decide_on(space, lam)[0] == int(np.argmax(expected))


def test_unknown_candidate_errors():
    space = space_from_matrices([[1.0]], [[1.0]])
    cfg = sp.InferenceConfig(n_particles=3)
    pset = sp.ParticleSet(lambdas=np.eye(3), weights=np.full(3, 1 / 3))
    for label in (3, -2):
        for call in (
            lambda: update_posterior(pset, label, space, cfg),
            lambda: window_likelihood(label, sp.RewardWeights.egoism(), space),
        ):
            with pytest.raises(sp.UnknownCandidateError):
                call()


def test_reward_weights_validation():
    with pytest.raises(ValueError):
        sp.RewardWeights.of(0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        sp.RewardWeights.of(1.2, -0.2, 0.0)
    lam = sp.RewardWeights.of(0.2, 0.3, 0.5)
    assert np.allclose(lam.values, [0.2, 0.3, 0.5], atol=0)


def test_feature_vector_validation():
    with pytest.raises(ValueError):
        FeatureVector(efficiency=0.5, comfort=0.0, safety=0.0)
    with pytest.raises(ValueError):
        FeatureVector(efficiency=float("nan"), comfort=0.0, safety=0.0)


def test_egoism_normalization_constant_rows():
    space = space_from_matrices(np.full((3, 2), 7.0), np.zeros((3, 2)), np.zeros(2))
    comps = space.components()
    assert np.allclose(comps.egoism_norm, 0.0, atol=0)


@st.composite
def _spaces(draw):
    ne, no = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    # magnitudes up to 100: inside the log-domain softmax envelope
    value = st.floats(-100.0, 100.0, allow_nan=False)
    return space_from_matrices(
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


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("ne,no", [(1, 1), (3, 1), (2, 5)])
def test_no_field_of_component_arrays_can_change_the_terms(lead, ne, no):
    """terms is read-only, and so is every field that shares its memory, so no caller changes a decision's terms."""
    rng = np.random.default_rng(10 * ne + no)
    reward_ego, reward_other = rng.normal(0.0, 5.0, (2,) + lead + (ne, no))
    comps = component_arrays(reward_ego, reward_other, rng.normal(0.0, 5.0, lead + (no,)), 1.0)
    assert comps.terms.shape == lead + (3, ne)
    assert not comps.terms.flags.writeable
    for k, name in enumerate(("egoism_norm", "courtesy", "confidence_reward")):
        assert np.array_equal(getattr(comps, name), comps.terms[..., k, :]), name
    for name, value in vars(comps).items():
        if np.shares_memory(value, comps.terms):
            assert not value.flags.writeable, name
