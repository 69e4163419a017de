"""Executable spec examples shared by the unit tests and the acceptance suite.

Each check function asserts one documented example of an operation; trivial
cases assert exactly, derived values are frozen from the independent oracles
computed in the unit tests (fine-step integration, dense sampling, direct
formula evaluation).
"""
import math
from types import SimpleNamespace

import numpy as np

import socialplan as sp
from socialplan.core import state_columns
from socialplan.inference import _means, match_observed, update_posterior
from socialplan.metrics import trajectory_mse
from socialplan.planner import decisions
from socialplan.rewards import component_arrays
from socialplan.sampling import SeatTerms, build_joint_arrays, rollout_batch
from reference_scalar import (
    FeatureVector, Trajectory, brute_force, cumulative_reward, features, space_from_matrices, window_likelihood,
)


def straight_path(limit=10.0):
    return sp.ReferencePath([(0.0, 0.0), (10.0, 0.0)], limit)


class FakeComponents:
    def __init__(self, terms):
        self.terms = np.asarray(terms, dtype=float)


class FakeSpace:
    """Duck-typed space exposing arbitrary reward components (softmax-form tests)."""

    def __init__(self, terms):
        self._comps = FakeComponents(terms)
        self.ego_candidates = [None] * self._comps.terms.shape[1]

    def components(self):
        return self._comps


def one_car_build(state, path, cfg):
    """build_joint_arrays at one state with the car in both seats on path.

    Its fan is row 0 of seat 0: arrays.accels[0, 0, :arrays.sizes[0, 0]], the
    candidate labeled i in row i; arrays.collapsed[0] says whether
    forbid_singleton rejects it.
    """
    conflict = sp.ConflictPoint(position=np.zeros(2), s_ego=1e3, s_other=1e3)
    x = state_columns([sp.JointState(ego=state, other=state)])
    return build_joint_arrays(x, path, path, conflict, cfg, sp.RewardConfig())


def fan_accels(state, path, cfg) -> np.ndarray:
    """The build's distinct accelerations (n,) for a car in state on path, by label."""
    arrays = one_car_build(state, path, cfg)
    return arrays.accels[0, 0, : arrays.sizes[0, 0]]


def decide_on(space, lam) -> tuple[int, int]:
    """planner.decisions on a one-state build that holds the space's matrices: (leader label, follower response).

    The leader's label comes from a SeatTerms over the space's social terms.
    """
    ne, no = space.reward_other.shape
    comps = component_arrays(
        space.reward_ego[None], space.reward_other[None], space.absence_other[None], space.reward_cfg.beta
    )
    terms = SeatTerms(absence_other=space.absence_other[None], terms=comps.terms, ne=np.array([ne]), error=None)
    arrays = SimpleNamespace(
        reward_other=space.reward_other[None], sizes=np.array([[ne], [no]]), accels=np.zeros((2, 1, max(ne, no)))
    )
    labels, responses, _, _ = decisions(arrays, terms, lam.values[:, None])
    return labels[0], responses[0]


def posterior_mean(pset) -> np.ndarray:
    """The posterior mean replay records after a frame (inference._means on a one-frame stack)."""
    return _means(pset.weights[None], pset.lambdas)[0]


# --- core --------------------------------------------------------------

def check_project_on_path():
    assert sp.project_to_path((3.0, 0.0), straight_path()) == (3.0, 0.0)

def check_project_offset():
    assert sp.project_to_path((3.0, 2.0), straight_path()) == (3.0, 2.0)

def check_project_clamp():
    assert sp.project_to_path((-1.0, 0.0), straight_path()) == (0.0, 0.0)

def check_step_constant_velocity():
    out = sp.step_dynamics(sp.AgentState(s=0.0, v=10.0), 0.0, 0.1)
    assert (out.s, out.v, out.d) == (1.0, 10.0, 0.0)

def check_step_from_rest():
    out = sp.step_dynamics(sp.AgentState(s=0.0, v=0.0), 2.0, 1.0)
    assert (out.s, out.v) == (1.0, 2.0)

def check_step_exact_stop():
    # derived: stop at t* = 0.5 s, s = v t* + a t*^2 / 2 = 0.25 (fine-step oracle agrees)
    out = sp.step_dynamics(sp.AgentState(s=0.0, v=1.0), -2.0, 1.0)
    assert abs(out.s - 0.25) < 1e-12 and out.v == 0.0

def check_conflict_perpendicular():
    pe = sp.ReferencePath([(-10, 0), (10, 0)], 10.0)
    po = sp.ReferencePath([(0, -10), (0, 10)], 10.0)
    c = sp.find_conflict_point(pe, po)
    assert np.allclose(c.position, [0, 0], atol=1e-12)
    assert c.s_ego == 10.0 and c.s_other == 10.0

def check_conflict_parallel():
    pe = sp.ReferencePath([(-10, 0), (10, 0)], 10.0)
    po = sp.ReferencePath([(-10, 5), (10, 5)], 10.0)
    try:
        sp.find_conflict_point(pe, po)
    except sp.NoConflictError:
        return
    raise AssertionError("parallel paths must raise NoConflictError")

def check_conflict_diagonal():
    # derived: segment intersection at (5, 0); dense-sampling oracle in test_core agrees
    pe = sp.ReferencePath([(-10, 0), (10, 0)], 10.0)
    po = sp.ReferencePath([(0, -5), (10, 5)], 10.0)
    c = sp.find_conflict_point(pe, po)
    assert abs(c.s_ego - 15.0) < 1e-9
    assert abs(c.s_other - math.sqrt(50.0)) < 1e-9
    assert np.allclose(c.position, [5.0, 0.0], atol=1e-9)


# --- sampler -----------------------------------------------------------

def _rollout(s, v, a, steps, dt):
    """(S, V) of one constant acceleration a over steps steps, through the library's rollout kernel."""
    S, V = rollout_batch(s, v, np.array([a], dtype=float), steps, dt)
    return S[0], V[0]

def check_sample_at_target():
    cfg = sp.SamplerConfig(horizon_steps=4, dt=0.25, terminal_speed_fractions=(1.0,))
    accels = fan_accels(sp.AgentState(s=0, v=10.0), straight_path(), cfg)
    assert accels.tolist() == [0.0]

def check_sample_acceleration_grid():
    # derived: a = (v_target - v) / (N dt); rollout terminal speeds verify
    cfg = sp.SamplerConfig(horizon_steps=10, dt=0.3, terminal_speed_fractions=(0.0, 0.5, 1.0), accel_max=5.0)
    accels = fan_accels(sp.AgentState(s=0, v=0.0), straight_path(), cfg)
    assert np.allclose(accels, [0.0, 5.0 / 3.0, 10.0 / 3.0], atol=1e-9)
    for a, target in zip(accels, (0.0, 5.0, 10.0)):
        _, v = _rollout(0.0, 0.0, a, cfg.horizon_steps, cfg.dt)
        assert abs(v[-1] - target) < 1e-9

def check_sample_default_count():
    # labels are row indices, in ascending target-speed order
    accels = fan_accels(sp.AgentState(s=0, v=5.0), straight_path(), sp.SamplerConfig())
    assert len(accels) == 6 and np.all(np.diff(accels) > 0.0)

def check_rollout_uniform():
    s, v = _rollout(0.0, 10.0, 0.0, 3, 0.5)
    assert np.allclose(s, [0, 5, 10, 15], atol=0) and np.all(v == 10.0)

def check_rollout_from_rest():
    s, v = _rollout(0.0, 0.0, 2.0, 2, 1.0)
    assert np.allclose(s, [0, 1, 4], atol=0) and np.allclose(v, [0, 2, 4], atol=0)

def check_rollout_standstill():
    # derived: stops inside step 0 at s = 0.25, stays put afterward (fine-step oracle)
    s, v = _rollout(0.0, 1.0, -2.0, 4, 1.0)
    assert np.allclose(s, [0, 0.25, 0.25, 0.25, 0.25], atol=1e-12)
    assert np.all(v[1:] == 0.0)


# --- rewards -----------------------------------------------------------

def _traj(v, n, dt=0.25, accels=None, s=None):
    v = np.full(n + 1, float(v)) if np.isscalar(v) else np.asarray(v, float)
    accels = np.zeros(n) if accels is None else np.asarray(accels, float)
    s = np.cumsum(np.concatenate([[0.0], v[:-1] * dt])) if s is None else np.asarray(s, float)
    path = straight_path()
    return Trajectory(s=s, v=v, accels=accels, d=0.0, dt=dt, xy=path.position(s, 0.0))

def check_features_perfect_cruise():
    path = straight_path(limit=10.0)
    phi = features(_traj(10.0, 4), None, path, None, sp.RewardConfig())
    assert (phi.efficiency, phi.comfort, phi.safety) == (0.0, 0.0, 0.0)

def check_features_stopped():
    # derived: efficiency = -sum((v - v_des)^2 / v_des^2) = -4 over 4 steps
    path = straight_path(limit=10.0)
    phi = features(_traj(0.0, 4), None, path, None, sp.RewardConfig())
    assert abs(phi.efficiency + 4.0) < 1e-12 and phi.comfort == 0.0 and phi.safety == 0.0

def check_features_colocated_safety():
    n = 12
    cfg = sp.RewardConfig()
    path = straight_path(limit=10.0)
    s = np.full(n + 1, 3.0)
    a = _traj(0.0, n, s=s)
    conflict = sp.ConflictPoint(position=np.array([3.0, 0.0]), s_ego=3.0, s_other=3.0)
    phi = features(a, a, path, conflict, cfg)
    assert abs(phi.safety + n) < 1e-9

def check_cumulative_reward_zero():
    path = straight_path(limit=10.0)
    r = cumulative_reward(_traj(10.0, 4), None, (3.0, 2.0, 1.0), path, None, sp.RewardConfig())
    assert r == 0.0

def check_cumulative_reward_single_feature():
    path = straight_path(limit=10.0)
    r = cumulative_reward(_traj(0.0, 4), None, (1.0, 0.0, 0.0), path, None, sp.RewardConfig())
    assert abs(r + 4.0) < 1e-12

def check_cumulative_reward_dot():
    phi = FeatureVector(efficiency=-4.0, comfort=-2.0, safety=-0.1)
    assert abs(float(np.dot([1.0, 0.5, 10.0], phi.as_array())) + 6.0) < 1e-12

def _space(reward_ego, reward_other, absence=None):
    return space_from_matrices(reward_ego, reward_other, absence)

def _presence(space):
    """Response probabilities to ego candidate 0, from the social components."""
    return np.exp(space.components().presence_logp[0])

def _absence(space):
    """The absence distribution, from the brute-force oracle."""
    matrices = (space.reward_ego, space.reward_other, space.absence_other)
    return np.array(brute_force(*(m.tolist() for m in matrices), 0)[1])

def check_response_symmetric():
    space = _space([[0.0, 0.0]], [[0.0, 0.0]])
    assert np.allclose(_presence(space), [0.5, 0.5], atol=1e-12)

def check_response_two_to_one():
    # derived: softmax of (1, 0) -> e/(e+1)
    space = _space([[0.0, 0.0]], [[1.0, 0.0]])
    p = _presence(space)
    assert np.allclose(p, [math.e / (math.e + 1), 1 / (math.e + 1)], atol=1e-4)

def check_response_shift_invariance():
    base = _presence(_space([[0.0] * 3], [[0.0, 1.0, 2.0]]))
    for c in (-300.0, 123.456):
        shifted = _presence(_space([[0.0] * 3], [[c, c + 1.0, c + 2.0]]))
        assert np.allclose(base, shifted, atol=1e-12)

def check_absence_singleton():
    space = _space([[0.0]], [[0.0]], absence=[5.0])
    assert np.allclose(_absence(space), [1.0], atol=0)

def check_absence_equal():
    space = _space([[0.0, 0.0]], [[0.0, 0.0]], absence=[2.0, 2.0])
    assert np.allclose(_absence(space), [0.5, 0.5], atol=1e-12)

def check_absence_prefers_cruise():
    # derived: cruise has strictly higher efficiency+comfort utility than full brake
    path = straight_path(limit=10.0)
    state = sp.AgentState(s=0.0, v=10.0)
    cfg = sp.SamplerConfig(horizon_steps=8, dt=0.25, terminal_speed_fractions=(0.0, 1.0))
    other_path = sp.ReferencePath([(5, -20), (5, 20)], 10.0)
    scn = sp.Scenario.create(path, other_path, sp.JointState(ego=state, other=state), cfg)
    space = scn.space_at(scn.initial)
    probs = _absence(space)
    assert probs[-1] > 0.5  # labels ascend with target speed; cruise is last

def check_egoism_expectation():
    # derived: hand expectation 0.6*10 + 0.4*0 = 6 with response probs (0.6, 0.4)
    gap = math.log(0.6 / 0.4)
    space = _space([[10.0, 0.0]], [[gap, 0.0]])
    assert abs(space.components().egoism_raw[0] - 6.0) < 1e-9

def check_egoism_constant_rows():
    space = _space([[3.14, 3.14, 3.14]], [[0.3, -0.5, 2.0]])
    assert abs(space.components().egoism_raw[0] - 3.14) < 1e-12

def check_egoism_singleton():
    space = _space([[42.0]], [[0.0]])
    assert space.components().egoism_raw[0] == 42.0

def check_courtesy_identical():
    space = _space([[0.0, 0.0]], [[1.0, 2.0]], absence=[1.0, 2.0])
    assert abs(space.components().courtesy[0] - 1.0) < 1e-12

def check_courtesy_half_to_eight_two():
    # derived: exp(-KL((.5,.5) || (.8,.2))) = sqrt(4*.8*.2) = 0.8
    gap = math.log(0.8 / 0.2)
    space = _space([[0.0, 0.0]], [[gap, 0.0]], absence=[0.0, 0.0])
    assert abs(space.components().courtesy[0] - 0.8) < 1e-4

def check_courtesy_concentrated():
    # derived: exp(-KL((.5,.5) || (.99,.01))) = sqrt(4*.99*.01) = 0.19899
    gap = math.log(0.99 / 0.01)
    space = _space([[0.0, 0.0]], [[gap, 0.0]], absence=[0.0, 0.0])
    assert abs(space.components().courtesy[0] - math.sqrt(4 * 0.99 * 0.01)) < 1e-9
    assert abs(space.components().courtesy[0] - 0.19899) < 1e-4

def check_confidence_sorted_gap():
    # derived: difference model on probs (0.5, 0.3, 0.2) -> 0.2
    row = np.log([0.5, 0.3, 0.2])
    space = _space([[0.0] * 3], [row])
    assert abs(space.components().confidence[0] - 0.2) < 1e-9

def check_confidence_uniform():
    for k in (2, 3, 5):
        space = _space([[0.0] * k], [[7.0] * k])
        assert abs(space.components().confidence[0]) < 1e-12

def check_confidence_concentrated_limit():
    space = _space([[0.0, 0.0]], [[40.0, 0.0]])
    assert space.components().confidence[0] > 1.0 - 1e-9

def check_confidence_reward_values():
    def reward(space):
        return space.components().confidence_reward[0]

    assert abs(reward(_space([[0.0] * 2], [[5.0] * 2])) - 1.0) < 1e-12
    row = np.log([0.6, 0.4])
    assert abs(reward(_space([[0.0] * 2], [row])) - math.exp(0.2)) < 1e-4
    assert abs(reward(_space([[0.0, 0.0]], [[60.0, 0.0]])) - math.e) < 1e-4

def check_social_degenerate_argmaxes():
    rng = np.random.default_rng(7)
    reward_ego = rng.normal(size=(5, 4)) * 3
    reward_other = rng.normal(size=(5, 4)) * 3
    absence = rng.normal(size=4)
    space = _space(reward_ego, reward_other, absence)
    comps = space.components()
    for lam, term in [
        (sp.RewardWeights.egoism(), comps.egoism_norm),
        (sp.RewardWeights.courtesy(), comps.courtesy),
        (sp.RewardWeights.confidence(), comps.confidence_reward),
    ]:
        assert decide_on(space, lam)[0] == int(np.argmax(term))


# --- planner -----------------------------------------------------------

def check_follower_argmax():
    space = _space([[0.0] * 3], [[1.0, 5.0, 3.0]])
    assert decide_on(space, sp.RewardWeights.egoism()) == (0, 1)

def check_follower_tie_break():
    space = _space([[0.0] * 2], [[5.0, 5.0]])
    assert decide_on(space, sp.RewardWeights.egoism()) == (0, 0)

def check_plan_dominant_candidate():
    reward_ego = np.array([[1.0, 1.0], [5.0, 5.0], [2.0, 2.0]])
    reward_other = np.zeros((3, 2))
    space = _space(reward_ego, reward_other)
    assert decide_on(space, sp.RewardWeights.egoism())[0] == 1

def check_simulate_already_crossed():
    from socialplan.scenarios import crossing_scenario

    scn = crossing_scenario(dist_ego=-1.0, v_ego=5.0, dist_other=20.0, v_other=5.0)
    trace = sp.simulate(scn, sp.PolicySpec.fixed(sp.RewardWeights.egoism()), sp.PolicySpec.follower())
    assert len(trace.joint_states) == 1 and trace.terminated and trace.n_steps == 0


# --- inference ---------------------------------------------------------

def check_init_uniform_weights():
    pset = sp.init_particles(sp.InferenceConfig(n_particles=4), seed=0)
    assert np.allclose(pset.weights, 0.25, atol=0)

def check_init_dop_mass():
    prior = sp.PriorSpec(kind="dop", fractions=(0.27, 0.49, 0.23))
    pset = sp.init_particles(sp.InferenceConfig(n_particles=100, prior=prior), seed=0)
    near_courtesy = pset.weights[pset.lambdas[:, 1] > 0.6].sum()
    near_confidence = pset.weights[pset.lambdas[:, 2] > 0.6].sum()
    assert near_courtesy > near_confidence

def check_init_deterministic():
    cfg = sp.InferenceConfig(n_particles=50)
    a = sp.init_particles(cfg, seed=123)
    b = sp.init_particles(cfg, seed=123)
    assert np.array_equal(a.lambdas, b.lambdas) and np.array_equal(a.weights, b.weights)

def _candidate_xy(n=4, steps=6, dt=0.25):
    """(n, steps+1, 2) positions of a built fan, row i the candidate labeled i."""
    cfg = sp.SamplerConfig(
        horizon_steps=steps, dt=dt,
        terminal_speed_fractions=tuple(np.linspace(0, 1, n)),
    )
    arrays = one_car_build(sp.AgentState(s=0.0, v=5.0), straight_path(limit=10.0), cfg)
    return arrays.xy[0][0, : arrays.sizes[0, 0]]

def check_match_exact():
    xy = _candidate_xy()
    assert match_observed(xy[2], xy) == 2

def check_match_tie_prefers_low_label():
    def on_x_axis(xs):
        xs = np.asarray(xs, dtype=float)
        return np.stack([xs, np.zeros_like(xs)], axis=1)

    cands = np.stack([on_x_axis([0.0, 1.0, 2.0]), on_x_axis([0.0, 1.5, 3.0])])
    midway = on_x_axis([0.0, 1.25, 2.5])  # dyadic: exact MSE tie
    assert match_observed(midway, cands) == 0

def check_match_offset_stable():
    # derived: +0.1 m uniform offset preserves the MSE ordering
    xy = _candidate_xy()
    shifted = xy[2] + np.array([0.1, 0.1])
    assert match_observed(shifted, xy) == 2

def check_likelihood_uniform():
    for k in (2, 4, 7):
        space = FakeSpace(np.zeros((3, k)))
        lik = window_likelihood(0, sp.RewardWeights.egoism(), space)
        assert abs(lik - 1.0 / k) < 1e-12

def check_likelihood_tail_bound():
    # derived: softmax with a >= 10 gap is > 0.9999
    space = FakeSpace(np.array([[10.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3]))
    assert window_likelihood(0, sp.RewardWeights.egoism(), space) > 0.9999

def check_likelihood_e_ratio():
    # derived: rewards (1, 0) -> e/(e+1)
    space = FakeSpace(np.array([[1.0, 0.0], [0.0] * 2, [0.0] * 2]))
    lik = window_likelihood(0, sp.RewardWeights.egoism(), space)
    assert abs(lik - math.e / (math.e + 1)) < 1e-4

def _fake_space_with_probs(probs_per_basis):
    rows = [[math.log(p), math.log(1 - p)] for p in probs_per_basis]
    return FakeSpace(np.array(rows))

def check_update_proportional():
    space = _fake_space_with_probs([0.5, 0.3, 0.2])
    pset = sp.ParticleSet(lambdas=np.eye(3), weights=np.full(3, 1 / 3))
    out = update_posterior(pset, 0, space, sp.InferenceConfig(n_particles=3))
    assert np.allclose(out.weights, [0.5, 0.3, 0.2], atol=1e-12)

def check_update_flat_identity():
    space = _fake_space_with_probs([0.4, 0.4, 0.4])
    weights = np.array([0.2, 0.5, 0.3])
    pset = sp.ParticleSet(lambdas=np.eye(3), weights=weights)
    out = update_posterior(pset, 0, space, sp.InferenceConfig(n_particles=3))
    assert np.allclose(out.weights, weights, atol=1e-12)

def check_update_composition():
    # derived: two Bayes steps equal one step with product likelihoods
    cfg = sp.InferenceConfig(n_particles=3)
    p1, p2 = [0.5, 0.3, 0.2], [0.6, 0.2, 0.7]
    pset = sp.ParticleSet(lambdas=np.eye(3), weights=np.full(3, 1 / 3))
    seq = update_posterior(
        update_posterior(pset, 0, _fake_space_with_probs(p1), cfg),
        0, _fake_space_with_probs(p2), cfg,
    )
    product = [a * b for a, b in zip(p1, p2)]
    once = update_posterior(pset, 0, _fake_space_with_probs(product), cfg)
    assert np.allclose(seq.weights, once.weights, atol=1e-12)

def check_estimate_single():
    pset = sp.ParticleSet(lambdas=np.array([[1.0, 0.0, 0.0]]), weights=np.array([1.0]))
    assert np.allclose(posterior_mean(pset), [1, 0, 0], atol=0)

def check_estimate_midpoint():
    pset = sp.ParticleSet(lambdas=np.array([[1.0, 0, 0], [0, 1.0, 0]]), weights=np.array([0.5, 0.5]))
    assert np.allclose(posterior_mean(pset), [0.5, 0.5, 0.0], atol=1e-12)


# --- metrics -----------------------------------------------------------

def check_psf_examples():
    E, C = [1.0, 0, 0], [0, 1.0, 0]
    assert sp.psf([E, E, E]) == 0
    assert sp.psf([E, E, C, C, E]) == 2
    assert sp.psf([E, C, E, C]) == 3

def check_dop_examples():
    E, C = [1.0, 0, 0], [0, 1.0, 0]
    assert sp.dop([E, E, E]) == {"egoism": 1.0, "courtesy": 0.0, "confidence": 0.0}
    assert sp.dop([E, E, C, C]) == {"egoism": 0.5, "courtesy": 0.5, "confidence": 0.0}

def check_mse_examples():
    xy = np.zeros((6, 2))
    a = SimpleNamespace(xy=xy, dt=0.25)
    b = SimpleNamespace(xy=xy + np.array([0.1, 0.0]), dt=0.25)
    assert trajectory_mse(a, a, 1.0) == 0.0
    assert abs(trajectory_mse(a, b, 1.0) - 0.01) < 1e-12


ALL_CHECKS = [
    (name, fn)
    for name, fn in sorted(globals().items())
    if name.startswith("check_") and callable(fn)
]
