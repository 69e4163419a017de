import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.inference import _sample_simplex, infer_agent
from socialplan.scenarios import fixture_scenario
from example_checks import (
    FakeSpace,
    check_estimate_midpoint,
    check_estimate_single,
    check_init_deterministic,
    check_init_dop_mass,
    check_init_uniform_weights,
    check_likelihood_e_ratio,
    check_likelihood_tail_bound,
    check_likelihood_uniform,
    check_match_exact,
    check_match_offset_stable,
    check_match_tie_prefers_low_label,
    check_update_composition,
    check_update_flat_identity,
    check_update_proportional,
    _fake_space_with_probs,
)


def test_spec_examples():
    for fn in (
        check_init_uniform_weights,
        check_init_dop_mass,
        check_init_deterministic,
        check_match_exact,
        check_match_tie_prefers_low_label,
        check_match_offset_stable,
        check_likelihood_uniform,
        check_likelihood_tail_bound,
        check_likelihood_e_ratio,
        check_update_proportional,
        check_update_flat_identity,
        check_update_composition,
        check_estimate_single,
        check_estimate_midpoint,
    ):
        fn()


def test_simplex_sampling_uniform_and_on_simplex():
    rng = np.random.default_rng(0)
    for scheme in ("stratified", "iid"):
        pts = _sample_simplex(100, scheme, rng)
        assert pts.shape == (100, 3)
        assert np.all(pts >= 0)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)


def test_stratified_covers_corners():
    # every corner cell of the 10x10 subdivision holds one sample
    for seed in range(20):
        pset = sp.init_particles(sp.InferenceConfig(n_particles=100), seed=seed)
        for axis in range(3):
            assert pset.lambdas[:, axis].max() > 0.85


def test_weights_stay_normalized():
    rng = np.random.default_rng(1)
    pset = sp.init_particles(sp.InferenceConfig(n_particles=30), seed=3)
    cfg = sp.InferenceConfig(n_particles=30)
    for _ in range(50):
        probs = rng.uniform(0.05, 0.95, size=3)
        space = _fake_space_with_probs(list(probs))
        # fake space has 3 basis rows; select particles consistently
        sub = sp.ParticleSet(lambdas=np.eye(3), weights=np.full(3, 1 / 3))
        sub = sp.update_posterior(sub, 0, space, cfg)
        assert abs(sub.weights.sum() - 1.0) < 1e-9
        assert np.all(sub.weights >= 0.0)


def test_update_order_invariance():
    probs = [0.7, 0.2, 0.4]
    space = _fake_space_with_probs(probs)
    cfg = sp.InferenceConfig(n_particles=3)
    base = sp.ParticleSet(lambdas=np.eye(3), weights=np.array([0.2, 0.5, 0.3]))
    est = sp.estimate_lambda(sp.update_posterior(base, 0, space, cfg))
    perm = np.array([2, 0, 1])
    permuted = sp.ParticleSet(lambdas=np.eye(3)[perm], weights=np.array([0.2, 0.5, 0.3])[perm])
    est_p = sp.estimate_lambda(sp.update_posterior(permuted, 0, space, cfg))
    assert np.allclose(est.values, est_p.values, atol=1e-12)


def test_window_likelihood_normalizes_over_candidates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        stacked = rng.normal(size=(3, 5))
        space = FakeSpace(stacked)
        for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.of(0.2, 0.5, 0.3)):
            total = sum(sp.window_likelihood(m, lam, space) for m in range(5))
            assert abs(total - 1.0) < 1e-9


def test_short_track_raises():
    scn = fixture_scenario("courtesy")
    obs = type("Obs", (), {})()
    obs.s = np.zeros(5)
    obs.v = np.zeros(5)
    obs.d = np.zeros(5)
    obs.xy = np.zeros((5, 2))
    with pytest.raises(sp.ShortTrackError):
        infer_agent(obs, obs, scn, sp.InferenceConfig(window_r=10), seed=0)


def _observed_from_trace(tr, scn):
    se = np.array([js.ego.s for js in tr.joint_states])
    ve = np.array([js.ego.v for js in tr.joint_states])
    so = np.array([js.other.s for js in tr.joint_states])
    vo = np.array([js.other.v for js in tr.joint_states])
    mk = lambda s, v, path: type(
        "Obs", (), dict(s=s, v=v, d=np.zeros_like(s), xy=path.position(s, 0.0))
    )()
    return mk(se, ve, scn.path_ego), mk(so, vo, scn.path_other)


def test_monotone_concentration_on_synthetic_data():
    """Posterior mass near the generating weights grows with observations (over seeds)."""
    scn = fixture_scenario("courtesy")
    lam_star = sp.RewardWeights.courtesy()
    tr = sp.simulate(scn, sp.PolicySpec.fixed(lam_star), sp.PolicySpec.follower(), max_steps=400)
    obs_e, obs_o = _observed_from_trace(tr, scn)
    cfg = sp.InferenceConfig(n_particles=100, window_r=10)
    improved = 0
    for seed in range(5):
        series = infer_agent(obs_e, obs_o, scn, cfg, seed=seed)
        l1 = np.abs(series.lambdas - lam_star.values).sum(axis=1)
        early, late = l1[: len(l1) // 3].mean(), l1[-len(l1) // 3 :].mean()
        improved += late < early
    assert improved >= 4


def test_degenerate_weights_guard():
    space = _fake_space_with_probs([0.5, 0.5, 0.5])
    pset = sp.ParticleSet(lambdas=np.eye(3), weights=np.array([1.0, 0.0, 0.0]))
    out = sp.update_posterior(pset, 0, space, sp.InferenceConfig(n_particles=3))
    assert abs(out.weights.sum() - 1.0) < 1e-12


def test_resampling_preserves_mean_roughly():
    cfg = sp.InferenceConfig(n_particles=100, resample=True)
    pset = sp.init_particles(cfg, seed=0)
    space = _fake_space_with_probs([0.9, 0.1, 0.1])
    # align dims: use 100 particles against a 2-candidate fake space
    stacked = np.array([[np.log(0.8), np.log(0.2)]] * 3)
    space = FakeSpace(stacked)
    out = sp.update_posterior(pset, 0, space, cfg)
    assert np.allclose(out.weights, 1.0 / len(out.weights), atol=1e-12)
    assert abs(out.weights.sum() - 1.0) < 1e-9


def test_prior_validation():
    with pytest.raises(ValueError):
        sp.PriorSpec(kind="nope")
    with pytest.raises(ValueError):
        sp.PriorSpec(kind="dirichlet", alpha=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        sp.PriorSpec(kind="dop", fractions=(-0.1, 0.6, 0.5))
    with pytest.raises(ValueError):
        sp.InferenceConfig(n_particles=1)
    with pytest.raises(ValueError):
        sp.InferenceConfig(window_r=0)
    with pytest.raises(ValueError):
        sp.InferenceConfig(init="magic")


def test_growing_window_option():
    scn = fixture_scenario("courtesy")
    tr = sp.simulate(
        scn, sp.PolicySpec.fixed(sp.RewardWeights.courtesy()), sp.PolicySpec.follower(), max_steps=400
    )
    obs_e, obs_o = _observed_from_trace(tr, scn)
    cfg = sp.InferenceConfig(n_particles=50, window_r=10, growing_window=True)
    series = infer_agent(obs_e, obs_o, scn, cfg, seed=0)
    assert len(series.frames) == len(obs_e.s) - 1 - cfg.window_r + 1
    assert np.all(np.abs(series.lambdas.sum(axis=1) - 1.0) < 1e-9)


def test_likelihood_normalizes_on_real_space():
    scn = fixture_scenario("confidence")
    space = scn.space_at(scn.initial)
    for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.of(0.2, 0.3, 0.5)):
        total = sum(
            sp.window_likelihood(m, lam, space) for m in range(len(space.ego_candidates))
        )
        assert abs(total - 1.0) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    n_particles=st.integers(2, 60),
    init=st.sampled_from(["stratified", "iid"]),
    resample=st.booleans(),
    seed=st.integers(0, 2**16),
    updates=st.integers(1, 4).flatmap(
        lambda n_cand: st.lists(
            st.tuples(
                st.integers(0, n_cand - 1),
                st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=3 * n_cand, max_size=3 * n_cand),
            ),
            min_size=1,
            max_size=12,
        )
    ),
)
def test_posterior_stays_on_simplex_property(n_particles, init, resample, seed, updates):
    cfg = sp.InferenceConfig(n_particles=n_particles, init=init, resample=resample)
    pset = sp.init_particles(cfg, seed=seed)
    for matched, flat in updates:
        pset = sp.update_posterior(pset, matched, FakeSpace(np.reshape(flat, (3, -1))), cfg)
        assert np.all(pset.weights >= 0.0)
        assert abs(pset.weights.sum() - 1.0) < 1e-9
        est = sp.estimate_lambda(pset).values
        assert np.all(est >= 0.0) and abs(est.sum() - 1.0) < 1e-9
