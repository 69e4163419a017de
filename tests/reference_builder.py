"""Independent references for the joint-space builder, the closed loop and the posterior.

The per-space decisions live here, not in the library, which decides at
many states at once through SeatTerms.leader_labels (planner.decisions in
the closed loop) and takes its posterior means with inference._means:
sample_accels (one side's distinct clamped accelerations),
social_reward_vector and leader_label (the leader's mixed social reward,
rewards.leader_scores on one space's terms, and its argmax),
follower_response (the follower's best response to a committed ego label)
and estimate_lambda (the posterior mean).

reference_space is the one-state build the library used before every build
went through sampling.build_joint_arrays: each side's fan is sampled and
rolled out on its own, its utility vectors keep the jerk term of the comfort
feature, its safety matrix comes from one expression over fresh temporaries
(reference_safety_matrix, which the library's in-place safety_matrix must
match bit for bit), and the social components are left to JointBehaviorSpace
to compute on demand.  reference_simulate is the one-policy receding-horizon loop on
that build.  reference_posterior_steps is the per-frame posterior loop the
replay used before it read a seat's arithmetic in batches: match_observed,
update_posterior and estimate_lambda at every frame, on one joint space
built per window start, when the loop first uses it, so a window start's
build error comes out at that frame.  Tests compare the library against all
three bit for bit, errors included.
"""
from __future__ import annotations

import numpy as np

from socialplan.core import AgentState, JointState, ReferencePath, step_dynamics
from socialplan.errors import EmptyCandidateSetError, ShortTrackError
from socialplan.inference import InferenceSeries, init_particles, match_observed, observed_state, update_posterior
from socialplan.planner import InteractionTrace
from socialplan.rewards import RewardWeights, check_ego_label, leader_scores
from socialplan.sampling import CandidateFan, JointBehaviorSpace, SamplerConfig, rollout_batch


def sample_accels(state: AgentState, path: ReferencePath, cfg: SamplerConfig) -> np.ndarray:
    """Constant accelerations (n,) toward each terminal-speed fraction.

    a = (v_target - v) / (N dt), clamped to the acceleration bounds.  The
    targets ascend, so the clamped values do too and duplicates are
    adjacent; each run of equal values keeps one entry.  The index of an
    acceleration is its candidate label.
    """
    targets = np.sort(np.asarray(cfg.terminal_speed_fractions, dtype=float) * path.speed_limit, kind="stable")
    with np.errstate(over="ignore"):
        grid = (targets - float(state.v)) / (cfg.horizon_steps * cfg.dt)
    grid = np.minimum(np.maximum(grid, cfg.accel_min), cfg.accel_max)
    unique = grid[np.concatenate([[True], grid[1:] != grid[:-1]])]
    if len(unique) == 1 and cfg.forbid_singleton and len(grid) > 1:
        raise EmptyCandidateSetError("all candidates collapsed to a single acceleration")
    return unique


def social_reward_vector(space: JointBehaviorSpace, lam: RewardWeights) -> np.ndarray:
    """Combined social reward of every ego candidate under mixing weights lam (egoism min-max normalized)."""
    return leader_scores(lam.values, space.components().terms)


def leader_label(space: JointBehaviorSpace, lam: RewardWeights) -> int:
    """Label of the ego candidate with maximal social reward under weights lam; ties to the lowest label."""
    return int(np.argmax(social_reward_vector(space, lam)))


def follower_response(space: JointBehaviorSpace, ego_label: int) -> int:
    """Label of the other car's best response to a committed ego action (Stackelberg follower)."""
    return int(np.argmax(space.reward_other[check_ego_label(space, ego_label)]))


def estimate_lambda(pset) -> RewardWeights:
    """Posterior mean, renormalized onto the simplex against rounding."""
    mean = np.maximum(pset.weights @ pset.lambdas, 0.0)
    return RewardWeights(mean / mean.sum())


def reference_safety_matrix(xy_ego, xy_other, s_ego, s_other, s_conflict_ego, s_conflict_other, sigma_d, sigma_c):
    """sampling.safety_matrix as one expression over fresh temporaries, leading batch axes included."""
    t = xy_ego.shape[-2] - 1
    diff = xy_ego[..., :, None, :t, :] - xy_other[..., None, :, :t, :]
    d_rel = np.sqrt((diff * diff).sum(axis=-1))
    prox_e = np.exp(-np.abs(s_ego[..., :t] - s_conflict_ego) / sigma_c)
    prox_o = np.exp(-np.abs(s_other[..., :t] - s_conflict_other) / sigma_c)
    w = np.exp(-d_rel / sigma_d) * (prox_e[..., :, None, :] * prox_o[..., None, :, :])
    return -w.sum(axis=-1)


def _fan(accels, state, path, cfg) -> CandidateFan:
    rows = np.repeat(accels[:, None], cfg.horizon_steps, -1)
    s, v = rollout_batch(np.asarray(state.s)[None], np.asarray(state.v)[None], rows, cfg.dt)
    xy = path.position(s, np.asarray(state.d, dtype=float)[None, None])
    return CandidateFan(accels=rows, s=s, v=v, xy=xy, d=state.d, dt=cfg.dt)


def _utility_vectors(fan: CandidateFan, v_des: float, cfg):
    """Accumulated efficiency and comfort (steps 0..N-1) of every candidate, jerk term included."""
    accels = fan.accels
    n = accels.shape[-1]
    dev = (fan.v[:, :n] - v_des) / v_des
    eff = -(np.sum(dev * dev, axis=-1) + n * (fan.d / cfg.d0) ** 2)
    jerk = np.diff(accels, axis=-1) / fan.dt
    com = -(np.sum((accels / cfg.a0) ** 2, axis=-1) + np.sum((jerk / cfg.j0) ** 2, axis=-1))
    return eff, com


def reference_space(x0: JointState, path_ego, path_other, conflict, sampler_cfg, reward_cfg) -> JointBehaviorSpace:
    """The joint behavior space at x0, built one side at a time."""
    ego, other = (
        _fan(sample_accels(x, path, sampler_cfg), x, path, sampler_cfg)
        for x, path in ((x0.ego, path_ego), (x0.other, path_other))
    )
    eff_e, com_e = _utility_vectors(ego, path_ego.speed_limit, reward_cfg)
    eff_o, com_o = _utility_vectors(other, path_other.speed_limit, reward_cfg)
    safety = reference_safety_matrix(
        ego.xy, other.xy, ego.s, other.s, conflict.s_ego, conflict.s_other, reward_cfg.sigma_d, reward_cfg.sigma_c
    )
    te, to = reward_cfg.theta_ego, reward_cfg.theta_other
    with np.errstate(over="ignore", invalid="ignore"):  # JointBehaviorSpace reports what overflowed
        reward_ego = te[0] * eff_e[:, None] + te[1] * com_e[:, None] + te[2] * safety
        reward_other = to[0] * eff_o[None, :] + to[1] * com_o[None, :] + to[2] * safety
        absence_other = to[0] * eff_o + to[1] * com_o
    return JointBehaviorSpace(
        ego_candidates=ego,
        other_candidates=other,
        reward_ego=reward_ego,
        reward_other=reward_other,
        absence_other=absence_other,
        reward_cfg=reward_cfg,
        conflict=conflict,
    )


def scenario_space(scenario, x0: JointState) -> JointBehaviorSpace:
    return reference_space(
        x0, scenario.path_ego, scenario.path_other, scenario.conflict, scenario.sampler, scenario.rewards
    )


def reference_simulate(scenario, lam, max_steps: int = 200, start_state=None, build=scenario_space) -> InteractionTrace:
    """One policy's receding-horizon loop, one build(scenario, state) per step."""
    x = scenario.initial if start_state is None else start_state
    conflict = scenario.conflict

    def crossed(x):
        return x.ego.s >= conflict.s_ego or x.other.s >= conflict.s_other

    states, a_ego, a_other = [x], [], []
    while not crossed(x) and len(a_ego) < max_steps:
        space = build(scenario, x)
        label = leader_label(space, lam)
        ae = float(space.ego_candidates.accels[label, 0])
        ao = float(space.other_candidates.accels[follower_response(space, label), 0])
        x = JointState(
            ego=step_dynamics(x.ego, ae, scenario.sampler.dt),
            other=step_dynamics(x.other, ao, scenario.sampler.dt),
            t=x.t + 1,
        )
        states.append(x)
        a_ego.append(ae)
        a_other.append(ao)
    steps = len(a_ego)
    return InteractionTrace(
        joint_states=states,
        a_ego=np.array(a_ego),
        a_other=np.array(a_other),
        lambda_ego=np.tile(lam.values, (steps, 1)),
        lambda_other=np.tile(np.array([1.0, 0.0, 0.0]), (steps, 1)),
        dt=scenario.sampler.dt,
        conflict=conflict,
        path_ego=scenario.path_ego,
        path_other=scenario.path_other,
        terminated=crossed(x),
    )


def reference_posterior_steps(obs_self, obs_other, scenario, cfg, seed: int = 0):
    """The posterior loop for the agent in the scenario's ego seat, one frame at a time.

    Yields (tau, space, k, matched, estimate) for each posterior frame k:
    the window start tau, the joint space at observed state tau, the label
    the window tau..k matched, and the posterior mean after it.  The space
    at tau is built before the update of the first frame that uses it, so
    its build error comes out there.
    """
    total = len(obs_self.s) - 1
    r = cfg.window_r
    if total < r:
        raise ShortTrackError(f"track has {total} steps, window needs {r}")
    pset = init_particles(cfg, seed)
    built_at, space = None, None
    for k in range(r, total + 1):
        tau = 0 if cfg.growing_window else k - r
        if tau != built_at:
            built_at, space = tau, scenario.space_at(observed_state(obs_self, obs_other, tau))
        matched = match_observed(obs_self.xy[tau : k + 1], space.ego_candidates.xy)
        pset = update_posterior(pset, matched, space, cfg)
        yield tau, space, k, matched, estimate_lambda(pset)


def reference_infer(obs_self, obs_other, scenario, cfg, seed: int = 0) -> InferenceSeries:
    """infer_agent's per-frame estimates, from reference_posterior_steps."""
    steps = [(k, estimate.values) for _, _, k, _, estimate in reference_posterior_steps(
        obs_self, obs_other, scenario, cfg, seed
    )]
    return InferenceSeries(frames=np.array([k for k, _ in steps]), lambdas=np.stack([lam for _, lam in steps]))
