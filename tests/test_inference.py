import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.inference import _sample_simplex, infer_agent, match_observed, update_posterior
from socialplan.scenarios import fixture_scenario
from reference_scalar import window_likelihood
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
    posterior_mean,
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


def _per_row_match(observed, candidate_xy):
    """The per-candidate loop: first label with the strictly smallest MSE."""
    w = min(len(observed), candidate_xy.shape[1])
    best_label, best_mse = 0, np.inf
    for label, row in enumerate(candidate_xy):
        diff = row[:w] - observed[:w]
        mse = float(np.mean(np.sum(diff * diff, axis=1)))
        if mse < best_mse:
            best_label, best_mse = label, mse
    return best_label


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(2, 31),
    w=st.integers(2, 31),
    seed=st.integers(0, 2**32 - 1),
    integral=st.booleans(),
    repeat=st.booleans(),
)
@example(n=2, m=3, w=3, seed=0, integral=True, repeat=True)  # two equal rows: label 0 must win
def test_match_observed_matches_per_row_loop(n, m, w, seed, integral, repeat):
    rng = np.random.default_rng(seed)
    xy = rng.normal(scale=5.0, size=(n, m, 2))
    observed = rng.normal(scale=5.0, size=(w, 2))
    if integral:  # integer coordinates make equal MSEs likely and exact
        xy, observed = np.round(xy), np.round(observed)
    if repeat and n > 1:  # an exact tie: a later label repeats an earlier one
        i = int(rng.integers(n - 1))
        xy[int(rng.integers(i + 1, n))] = xy[i]
    assert match_observed(observed, xy) == _per_row_match(observed, xy)


def test_simplex_sampling_uniform_and_on_simplex():
    rng = np.random.default_rng(0)
    for scheme in ("stratified", "iid"):
        pts = _sample_simplex(100, scheme, rng)
        assert pts.shape == (100, 3)
        assert np.all(pts >= 0)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)


def _reference_triangles(k: int) -> list[np.ndarray]:
    """The per-triangle loop the simplex covering was first written as."""
    def bary(i: int, j: int) -> np.ndarray:
        return np.array([1.0 - (i + j) / k, i / k, j / k])

    tris = []
    for i in range(k):
        for j in range(k - i):
            tris.append(np.stack([bary(i, j), bary(i + 1, j), bary(i, j + 1)]))
            if i + j < k - 1:
                tris.append(np.stack([bary(i + 1, j), bary(i + 1, j + 1), bary(i, j + 1)]))
    return tris


def _reference_init_particles(cfg, seed):
    rng = np.random.default_rng(seed)
    n = cfg.n_particles
    if cfg.init == "iid":
        lambdas = rng.dirichlet(np.ones(3), size=n)
    else:
        k = int(math.isqrt(n))
        tris = _reference_triangles(k)[: k * k]
        r1 = np.sqrt(rng.random(len(tris)))
        r2 = rng.random(len(tris))
        corners = np.stack(tris)
        lambdas = (
            (1.0 - r1)[:, None] * corners[:, 0]
            + (r1 * (1.0 - r2))[:, None] * corners[:, 1]
            + (r1 * r2)[:, None] * corners[:, 2]
        )
        if n > len(lambdas):
            lambdas = np.concatenate([lambdas, rng.dirichlet(np.ones(3), size=n - len(lambdas))])
    alpha = cfg.prior.dirichlet_alpha()
    if alpha is None:
        weights = np.full(n, 1.0 / n)
    else:
        logdens = np.sum((alpha - 1.0) * np.log(np.clip(lambdas, 1e-12, None)), axis=1)
        weights = np.exp(logdens - logdens.max())
        weights /= weights.sum()
    return lambdas, weights


@pytest.mark.parametrize("n", [2, 3, 10, 100, 137])
@pytest.mark.parametrize("init", ["stratified", "iid"])
@pytest.mark.parametrize(
    "prior",
    [sp.PriorSpec(), sp.PriorSpec("dirichlet", alpha=(2.0, 1.0, 0.5)), sp.PriorSpec("dop", fractions=(0.2, 0.5, 0.3))],
)
def test_init_particles_matches_reference_bit_for_bit(n, init, prior):
    cfg = sp.InferenceConfig(n_particles=n, init=init, prior=prior)
    for seed in (0, 7):
        pset = sp.init_particles(cfg, seed)
        lambdas, weights = _reference_init_particles(cfg, seed)
        assert pset.lambdas.tobytes() == lambdas.tobytes() and pset.weights.tobytes() == weights.tobytes()


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
        sub = update_posterior(sub, 0, space, cfg)
        assert abs(sub.weights.sum() - 1.0) < 1e-9
        assert np.all(sub.weights >= 0.0)


def test_update_order_invariance():
    probs = [0.7, 0.2, 0.4]
    space = _fake_space_with_probs(probs)
    cfg = sp.InferenceConfig(n_particles=3)
    base = sp.ParticleSet(lambdas=np.eye(3), weights=np.array([0.2, 0.5, 0.3]))
    est = posterior_mean(update_posterior(base, 0, space, cfg))
    perm = np.array([2, 0, 1])
    permuted = sp.ParticleSet(lambdas=np.eye(3)[perm], weights=np.array([0.2, 0.5, 0.3])[perm])
    est_p = posterior_mean(update_posterior(permuted, 0, space, cfg))
    assert np.allclose(est, est_p, atol=1e-12)


def test_window_likelihood_normalizes_over_candidates():
    rng = np.random.default_rng(2)
    for _ in range(20):
        stacked = rng.normal(size=(3, 5))
        space = FakeSpace(stacked)
        for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.of(0.2, 0.5, 0.3)):
            total = sum(window_likelihood(m, lam, space) for m in range(5))
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
    out = update_posterior(pset, 0, space, sp.InferenceConfig(n_particles=3))
    assert abs(out.weights.sum() - 1.0) < 1e-12


def test_resampling_preserves_mean_roughly():
    cfg = sp.InferenceConfig(n_particles=100, resample=True)
    pset = sp.init_particles(cfg, seed=0)
    space = _fake_space_with_probs([0.9, 0.1, 0.1])
    # align dims: use 100 particles against a 2-candidate fake space
    stacked = np.array([[np.log(0.8), np.log(0.2)]] * 3)
    space = FakeSpace(stacked)
    out = update_posterior(pset, 0, space, cfg)
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


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: sp.ParticleSet(lambdas=np.full((2, 3), 1 / 3), weights=[_NAN, _NAN]),
        lambda: sp.PriorSpec(kind="dirichlet", alpha=(_NAN, 1.0, 1.0)),
        lambda: sp.PriorSpec(kind="dop", fractions=(_NAN, 1.0, 1.0)),
        lambda: sp.SamplerConfig(dt=_NAN),
        lambda: sp.SamplerConfig(accel_min=_NAN),
        lambda: sp.SamplerConfig(accel_max=_NAN),
        *(
            lambda name=name: sp.RewardConfig(**{name: _NAN})
            for name in ("beta", "d0", "a0", "j0", "sigma_d", "sigma_c")
        ),
        lambda: sp.AgentState(s=_NAN, v=1.0),
        lambda: sp.AgentState(s=0.0, v=_NAN),
        lambda: sp.step_dynamics(sp.AgentState(s=0.0, v=1.0), 0.0, _NAN),
        lambda: sp.ReferencePath.from_points([(0.0, 0.0), (10.0, 0.0)], _NAN),
        lambda: sp.ReferencePath.from_points([(0.0, 0.0), (_NAN, 0.0)], 10.0),
    ],
    ids=[
        "particle_weights", "dirichlet_alpha", "dop_fractions", "sampler_dt", "accel_min", "accel_max",
        "beta", "d0", "a0", "j0", "sigma_d", "sigma_c", "agent_s", "agent_v", "step_dt", "speed_limit", "vertex",
    ],
)
def test_validators_reject_nan(make):
    with pytest.raises(ValueError):
        make()


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
            window_likelihood(m, lam, space) for m in range(len(space.ego_candidates))
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
        pset = update_posterior(pset, matched, FakeSpace(np.reshape(flat, (3, -1))), cfg)
        assert np.all(pset.weights >= 0.0)
        assert abs(pset.weights.sum() - 1.0) < 1e-9
        est = posterior_mean(pset)
        assert np.all(est >= 0.0) and abs(est.sum() - 1.0) < 1e-9


def test_clipping_at_zero_keeps_the_bytes_of_np_clip():
    """RewardWeights and the posterior means clip with np.maximum(x, 0.0): the bytes of np.clip(x, 0.0, None)."""
    edge = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-10, 1.0, -1.0])
    assert np.maximum(edge, 0.0).tobytes() == np.clip(edge, 0.0, None).tobytes()
    for values in ([-0.0, 0.25, 0.75], [-1e-10, 5e-324, 1.0 + 1e-10], [1.0, 0.0, -0.0]):
        v = np.array(values)
        assert sp.RewardWeights(v).values.tobytes() == np.clip(v, 0.0, None).tobytes()
    lambdas = np.array([[1.0, -0.0, 0.0], [1.0, 5e-324, -0.0], [1.0, -1e-300, 0.0]])
    pset = sp.ParticleSet(lambdas=lambdas, weights=np.full(3, 1 / 3))
    mean = np.clip(pset.weights @ pset.lambdas, 0.0, None)
    assert posterior_mean(pset).tobytes() == np.clip(mean / mean.sum(), 0.0, None).tobytes()
