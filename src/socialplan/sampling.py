"""Candidate action sampling and joint behavior space construction.

Each agent's candidate set is a fan of constant-acceleration profiles toward
a grid of terminal speeds (fractions of the path speed limit).  A fan is
held as arrays with one row per candidate; the row index is the candidate's
label.  Pairing the two fans yields the discrete joint behavior space; both
agents' utilities are cached as |ego| x |other| matrices at build time so
every downstream reward term reduces to row/column operations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AgentState, ConflictPoint, JointState, ReferencePath, step_dynamics
from .errors import EmptyCandidateSetError
from .rewards import RewardConfig, SocialComponents, social_components


@dataclass(frozen=True)
class SamplerConfig:
    """Spatial-temporal sampling knobs (JSON fields match attribute names)."""

    horizon_steps: int = 12
    dt: float = 0.25
    terminal_speed_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
    accel_min: float = -6.0
    accel_max: float = 3.0
    forbid_singleton: bool = False

    def __post_init__(self):
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if len(self.terminal_speed_fractions) == 0:
            raise ValueError("terminal_speed_fractions must be non-empty")
        if self.accel_min >= self.accel_max:
            raise ValueError("accel_min must be below accel_max")


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


@dataclass(frozen=True)
class CandidateFan:
    """One side's candidates as arrays; row i is the candidate labeled i.

    accels: (n, N); s, v: (n, N+1); xy: (n, N+1, 2) at lateral offset d.
    """

    accels: np.ndarray
    s: np.ndarray
    v: np.ndarray
    xy: np.ndarray
    d: float
    dt: float

    def __len__(self) -> int:
        return len(self.accels)

    def trajectory(self, label: int) -> Trajectory:
        """The candidate labeled label as a single trajectory."""
        return Trajectory(
            s=self.s[label], v=self.v[label], accels=self.accels[label], d=self.d, dt=self.dt, xy=self.xy[label]
        )


def sample_accels(state: AgentState, path: ReferencePath, cfg: SamplerConfig) -> np.ndarray:
    """Constant accelerations (n,) toward each terminal-speed fraction.

    a = (v_target - v) / (N dt), clamped to the acceleration bounds.  The
    targets ascend, so the clamped values do too and duplicates are
    adjacent; each run of equal values keeps one entry.  The index of an
    acceleration is its candidate label.
    """
    targets = np.sort(np.asarray(cfg.terminal_speed_fractions, dtype=float) * path.speed_limit, kind="stable")
    horizon = cfg.horizon_steps * cfg.dt
    accels = np.clip((targets - state.v) / horizon, cfg.accel_min, cfg.accel_max)
    unique = accels[np.concatenate(([True], accels[1:] != accels[:-1]))]
    if len(unique) == 1 and len(accels) > 1 and cfg.forbid_singleton:
        raise EmptyCandidateSetError("all candidates collapsed to a single acceleration")
    return unique


def rollout(state: AgentState, accels: np.ndarray, dt: float, path: ReferencePath | None = None) -> Trajectory:
    """Integrate one acceleration sequence through the step dynamics (N+1 states)."""
    accels = np.asarray(accels, dtype=float)
    states = [state]
    for a in accels:
        states.append(step_dynamics(states[-1], float(a), dt))
    s = np.array([st.s for st in states])
    v = np.array([st.v for st in states])
    xy = path.position(s, state.d) if path is not None else np.full((len(s), 2), np.nan)
    return Trajectory(s=s, v=v, accels=accels, d=state.d, dt=dt, xy=xy)


@dataclass
class JointBehaviorSpace:
    """Discrete joint behavior space with cached utility matrices.

    reward_ego[i, j] and reward_other[i, j] are the Eq.-style accumulated
    utilities of the pair (ego candidate i, other candidate j);
    absence_other[j] is the other car's efficiency+comfort utility with the
    ego car removed.
    """

    ego_candidates: CandidateFan
    other_candidates: CandidateFan
    reward_ego: np.ndarray
    reward_other: np.ndarray
    absence_other: np.ndarray
    reward_cfg: RewardConfig
    conflict: ConflictPoint | None = None
    _components: SocialComponents | None = field(default=None, repr=False)

    def __post_init__(self):
        ne, no = len(self.ego_candidates), len(self.other_candidates)
        if ne == 0 or no == 0:
            raise EmptyCandidateSetError("joint space needs candidates on both sides")
        if self.reward_ego.shape != (ne, no) or self.reward_other.shape != (ne, no):
            raise ValueError("reward matrix shape does not match candidate counts")
        if not (
            np.all(np.isfinite(self.reward_ego))
            and np.all(np.isfinite(self.reward_other))
            and np.all(np.isfinite(self.absence_other))
        ):
            raise ValueError("reward matrices must be finite")

    def components(self) -> SocialComponents:
        """The social reward terms at the configured beta, computed once."""
        if self._components is None:
            self._components = social_components(self)
        return self._components

    @classmethod
    def from_matrices(
        cls,
        reward_ego,
        reward_other,
        absence_other=None,
        reward_cfg: RewardConfig | None = None,
        dt: float = 0.25,
    ) -> "JointBehaviorSpace":
        """Synthetic space from raw matrices (testing and fuzzing); the fans are zero stubs."""
        reward_ego = np.asarray(reward_ego, dtype=float)
        reward_other = np.asarray(reward_other, dtype=float)
        ne, no = reward_other.shape
        if absence_other is None:
            absence_other = np.zeros(no)

        def stub(n: int) -> CandidateFan:
            zeros = np.zeros((n, 2))
            return CandidateFan(accels=np.zeros((n, 1)), s=zeros, v=zeros, xy=np.zeros((n, 2, 2)), d=0.0, dt=dt)

        return cls(
            ego_candidates=stub(ne),
            other_candidates=stub(no),
            reward_ego=reward_ego,
            reward_other=reward_other,
            absence_other=np.asarray(absence_other, dtype=float),
            reward_cfg=reward_cfg or RewardConfig(),
        )


def rollout_batch(s0: float, v0: float, accels: np.ndarray, dt: float):
    """Roll out n candidate acceleration sequences from a common start state.

    accels: (n, N).  Returns (S, V) with shape (n, N+1).  Each step repeats
    the float operations of core.step_dynamics in the same order, so the
    result matches it bit for bit; a closed form or a hoisted 0.5*dt*dt
    would round differently.
    """
    s_rows, v_rows = [], []
    for row in np.asarray(accels, dtype=float).tolist():
        s, v = float(s0), float(v0)
        s_row, v_row = [s], [v]
        for a in row:
            v1 = v + a * dt
            if v1 < 0.0:
                t_stop = -v / a
                s = s + v * t_stop + 0.5 * a * t_stop * t_stop
                v = 0.0
            else:
                s = s + v * dt + 0.5 * a * dt * dt
                v = v1
            s_row.append(s)
            v_row.append(v)
        s_rows.append(s_row)
        v_rows.append(v_row)
    return np.array(s_rows), np.array(v_rows)


def safety_matrix(
    xy_ego: np.ndarray,
    xy_other: np.ndarray,
    s_ego: np.ndarray,
    s_other: np.ndarray,
    s_conflict_ego: float,
    s_conflict_other: float,
    sigma_d: float,
    sigma_c: float,
) -> np.ndarray:
    """Accumulated pairwise proximity penalty over the horizon.

    xy_ego: (ne, N+1, 2), xy_other: (no, N+1, 2), s_ego: (ne, N+1),
    s_other: (no, N+1).  Entry [i, j] is

        -sum_t exp(-|p_e - p_o| / sigma_d)
              * exp(-(|s_e - s_ce| + |s_o - s_co|) / sigma_c)

    summed over steps t = 0..N-1.
    """
    t = xy_ego.shape[1] - 1
    diff = xy_ego[:, None, :t, :] - xy_other[None, :, :t, :]
    d_rel = np.sqrt(np.sum(diff * diff, axis=3))
    prox_e = np.exp(-np.abs(s_ego[:, :t] - s_conflict_ego) / sigma_c)
    prox_o = np.exp(-np.abs(s_other[:, :t] - s_conflict_other) / sigma_c)
    w = np.exp(-d_rel / sigma_d) * (prox_e[:, None, :] * prox_o[None, :, :])
    return -np.sum(w, axis=2)


def _fan(state: AgentState, path: ReferencePath, cfg: SamplerConfig) -> CandidateFan:
    """Sample one side's accelerations and roll the whole fan out at once."""
    a = sample_accels(state, path, cfg)
    accels = np.repeat(a[:, None], cfg.horizon_steps, 1)
    s, v = rollout_batch(state.s, state.v, accels, cfg.dt)
    return CandidateFan(accels=accels, s=s, v=v, xy=path.position(s, state.d), d=state.d, dt=cfg.dt)


def _utility_vectors(fan: CandidateFan, v_des: float, cfg: RewardConfig):
    """Per-candidate accumulated efficiency and comfort (steps 0..N-1).

    The comfort sum runs over the N equal terms of each constant row; an
    N * a**2 closed form would round differently.
    """
    accels = fan.accels
    n = accels.shape[1]
    dev = (fan.v[:, :n] - v_des) / v_des
    eff = -(np.sum(dev * dev, axis=1) + n * (fan.d / cfg.d0) ** 2)
    jerk = np.diff(accels, axis=1) / fan.dt
    com = -(np.sum((accels / cfg.a0) ** 2, axis=1) + np.sum((jerk / cfg.j0) ** 2, axis=1))
    return eff, com


def build_joint_space(
    x0: JointState,
    path_ego: ReferencePath,
    path_other: ReferencePath,
    conflict: ConflictPoint,
    sampler_cfg: SamplerConfig,
    reward_cfg: RewardConfig,
) -> JointBehaviorSpace:
    """Sample both candidate fans and cache every pairwise utility."""
    ego = _fan(x0.ego, path_ego, sampler_cfg)
    other = _fan(x0.other, path_other, sampler_cfg)
    eff_e, com_e = _utility_vectors(ego, path_ego.speed_limit, reward_cfg)
    eff_o, com_o = _utility_vectors(other, path_other.speed_limit, reward_cfg)

    # the safety feature is symmetric in the pair, so one matrix serves both
    safety = safety_matrix(
        ego.xy, other.xy, ego.s, other.s, conflict.s_ego, conflict.s_other,
        reward_cfg.sigma_d, reward_cfg.sigma_c,
    )

    te, to = reward_cfg.theta_ego, reward_cfg.theta_other
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
