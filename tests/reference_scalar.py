"""Scalar references for the utility features, the social terms and the window likelihood.

The library computes every feature and social term in batches
(sampling.build_joint_arrays, rewards.component_arrays).  The forms here
compute them one trajectory, pair or label at a time, and the tests compare
the library's arrays with them: features and cumulative_reward with the
cached utility matrices, brute_force (pure Python) with the social
components, and window_likelihood with the posterior update.
space_from_matrices makes a joint behavior space from raw matrices, with
zero-stub fans and its social components left to compute on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from socialplan.inference import _log_likelihoods
from socialplan.rewards import RewardConfig, check_ego_label
from socialplan.sampling import CandidateFan, JointBehaviorSpace


@dataclass(frozen=True)
class Trajectory:
    """Rolled-out states of a candidate: arrays of length N+1 plus controls.

    xy holds the Cartesian positions mapped through the agent's reference
    path at the constant lateral offset d.
    """

    s: np.ndarray
    v: np.ndarray
    accels: np.ndarray
    d: float
    dt: float
    xy: np.ndarray


def trajectory(fan: CandidateFan, label: int) -> Trajectory:
    """The candidate labeled label as a single trajectory, its constant acceleration at each of its N steps."""
    accels = np.full(fan.s.shape[-1] - 1, fan.accels[label])
    return Trajectory(s=fan.s[label], v=fan.v[label], accels=accels, d=fan.d, dt=fan.dt, xy=fan.xy[label])


@dataclass(frozen=True)
class FeatureVector:
    """Accumulated (efficiency, comfort, safety) penalties; each is <= 0."""

    efficiency: float
    comfort: float
    safety: float

    def __post_init__(self):
        arr = self.as_array()
        if not np.all(np.isfinite(arr)):
            raise ValueError("features must be finite")
        if np.any(arr > 1e-9):
            raise ValueError("features are penalties and must be non-positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.efficiency, self.comfort, self.safety])


def _efficiency(v: np.ndarray, d: float, v_des: float, cfg: RewardConfig) -> float:
    dev = (v - v_des) / v_des
    return float(-(np.sum(dev * dev) + len(v) * (d / cfg.d0) ** 2))


def _comfort(accels: np.ndarray, dt: float, cfg: RewardConfig) -> float:
    jerk = np.diff(accels) / dt
    return float(-(np.sum((accels / cfg.a0) ** 2) + np.sum((jerk / cfg.j0) ** 2)))


def _safety(traj_self, traj_other, s_c_self: float, s_c_other: float, cfg: RewardConfig) -> float:
    t = len(traj_self.s) - 1
    d_rel = np.linalg.norm(traj_self.xy[:t] - traj_other.xy[:t], axis=1)
    prox = np.abs(traj_self.s[:t] - s_c_self) + np.abs(traj_other.s[:t] - s_c_other)
    return float(-np.sum(np.exp(-d_rel / cfg.sigma_d) * np.exp(-prox / cfg.sigma_c)))


def features(
    traj_self: Trajectory,
    traj_other: Trajectory | None,
    path,
    conflict,
    cfg: RewardConfig,
    conflict_s_self: float | None = None,
    conflict_s_other: float | None = None,
) -> FeatureVector:
    """Accumulate the three utility features of a trajectory over the horizon.

    Steps t = 0..N-1 contribute state traj.s[t], traj.v[t] and control
    traj.accels[t].  With traj_other absent the safety feature is zero (the
    other car does not exist for this evaluation).  The conflict arclengths
    default to (conflict.s_ego, conflict.s_other) and can be overridden when
    the self/other roles are swapped relative to the conflict object.
    """
    n = len(traj_self.s) - 1
    eff = _efficiency(traj_self.v[:n], traj_self.d, path.speed_limit, cfg)
    com = _comfort(traj_self.accels, traj_self.dt, cfg)
    if traj_other is None:
        saf = 0.0
    else:
        if conflict_s_self is None or conflict_s_other is None:
            if conflict is None:
                raise ValueError("a conflict point is required when traj_other is present")
            conflict_s_self = conflict.s_ego if conflict_s_self is None else conflict_s_self
            conflict_s_other = conflict.s_other if conflict_s_other is None else conflict_s_other
        saf = _safety(traj_self, traj_other, conflict_s_self, conflict_s_other, cfg)
    return FeatureVector(efficiency=eff, comfort=com, safety=saf)


def cumulative_reward(traj_self, traj_other, theta, path, conflict, cfg: RewardConfig, **conflict_overrides) -> float:
    """Per-pair utility: theta dot accumulated features."""
    phi = features(traj_self, traj_other, path, conflict, cfg, **conflict_overrides)
    return float(np.dot(np.asarray(theta, dtype=float), phi.as_array()))


def space_from_matrices(reward_ego, reward_other, absence_other=None, reward_cfg: RewardConfig | None = None):
    """Synthetic space from raw matrices; the fans are zero stubs."""
    reward_ego = np.asarray(reward_ego, dtype=float)
    reward_other = np.asarray(reward_other, dtype=float)
    ne, no = reward_other.shape
    if absence_other is None:
        absence_other = np.zeros(no)

    def stub(n: int) -> CandidateFan:
        zeros = np.zeros((n, 2))
        return CandidateFan(accels=np.zeros(n), s=zeros, v=zeros, xy=np.zeros((n, 2, 2)), d=0.0, dt=0.25)

    return JointBehaviorSpace(
        ego_candidates=stub(ne),
        other_candidates=stub(no),
        reward_ego=reward_ego,
        reward_other=reward_other,
        absence_other=np.asarray(absence_other, dtype=float),
        reward_cfg=reward_cfg or RewardConfig(),
    )


def brute_force(reward_ego, reward_other, absence, label, beta=1.0):
    """Scalar reimplementation of the response/absence/egoism/courtesy/confidence math.

    Returns (presence, q, egoism, courtesy, confidence, exp(confidence)):
    presence is the response distribution to the ego candidate label and q
    the absence distribution, both lists; egoism is the raw expectation.
    """
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
    return presence, q, egoism, courtesy, conf, math.exp(conf)


def window_likelihood(matched_label: int, lam, space) -> float:
    """Boltzmann probability of the matched action under weights lam (update_posterior's likelihood)."""
    label = check_ego_label(space, matched_label)
    return float(np.exp(_log_likelihoods(space, label, lam.values[None, :]))[0])
