"""Candidate action sampling and joint behavior space construction.

Each agent's candidate set is a fan of constant-acceleration profiles toward
a grid of terminal speeds (fractions of the path speed limit).  A fan is
held as arrays with one row per candidate; the row index is the candidate's
label.  Pairing the two fans yields the discrete joint behavior space; both
agents' utilities are cached as |ego| x |other| matrices at build time so
every downstream reward term reduces to row/column operations.

The kernels (rollout, path position, utility vectors, safety, social terms)
take arrays with optional leading axes and reduce over the last axis only.
build_joint_space runs them on one state; build_joint_spaces runs them once
per group of states whose fans have equal sizes, so every reduction sees the
same contiguous rows as in the one-state build and gives the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AgentState, ConflictPoint, JointState, ReferencePath, step_dynamics
from .errors import EmptyCandidateSetError, NonFiniteRewardError
from .rewards import RewardConfig, SocialComponents, component_arrays, check_finite_terms, social_components


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
    Inside build_joint_spaces a fan also carries a leading state axis, with
    one offset per state in d; a joint space only holds one-state fans.
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

    def at(self, i: int) -> "CandidateFan":
        """State i's fan out of a fan with a leading state axis (views, not copies)."""
        return CandidateFan(
            accels=self.accels[i], s=self.s[i], v=self.v[i], xy=self.xy[i], d=float(self.d[i]), dt=self.dt
        )


def _accel_grid(v, path: ReferencePath, cfg: SamplerConfig) -> np.ndarray:
    """Clamped constant accelerations (..., n_targets) from speeds v (...).

    a = (v_target - v) / (N dt) toward each terminal speed, ascending, then
    clamped to the acceleration bounds, so equal values are adjacent.
    """
    targets = np.asarray(cfg.terminal_speed_fractions, dtype=float) * path.speed_limit
    targets.sort(kind="stable")
    horizon = cfg.horizon_steps * cfg.dt
    accels = (targets - np.asarray(v, dtype=float)[..., None]) / horizon
    return np.minimum(np.maximum(accels, cfg.accel_min), cfg.accel_max)  # np.clip, without its wrapper cost


def _first_of_runs(grid: np.ndarray) -> np.ndarray:
    """Mask of the entries that keep the first of each run of equal values along the last axis."""
    keep = np.empty(grid.shape, dtype=bool)
    keep[..., 0] = True
    np.not_equal(grid[..., 1:], grid[..., :-1], out=keep[..., 1:])
    return keep


def _collapsed(n_unique, grid: np.ndarray, cfg: SamplerConfig):
    """Whether forbid_singleton rejects a fan of n_unique distinct accelerations out of grid's targets."""
    return (n_unique == 1) & (grid.shape[-1] > 1) & cfg.forbid_singleton


_COLLAPSED = "all candidates collapsed to a single acceleration"


def sample_accels(state: AgentState, path: ReferencePath, cfg: SamplerConfig) -> np.ndarray:
    """Constant accelerations (n,) toward each terminal-speed fraction.

    a = (v_target - v) / (N dt), clamped to the acceleration bounds.  The
    targets ascend, so the clamped values do too and duplicates are
    adjacent; each run of equal values keeps one entry.  The index of an
    acceleration is its candidate label.
    """
    grid = _accel_grid(state.v, path, cfg)
    unique = grid[_first_of_runs(grid)]
    if _collapsed(len(unique), grid, cfg):
        raise EmptyCandidateSetError(_COLLAPSED)
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
        finite_ego = np.all(np.isfinite(self.reward_ego))
        if not (finite_ego and np.all(np.isfinite(self.reward_other)) and np.all(np.isfinite(self.absence_other))):
            # finite features times a huge finite weight overflow: name the weight
            name = "theta_other" if finite_ego else "theta_ego"
            theta = list(getattr(self.reward_cfg, name))
            raise NonFiniteRewardError(f"rewards.{name} = {theta!r} overflows the utility matrices; use smaller weights")

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


def _rollout_row(s: float, v: float, row: list[float], dt: float) -> tuple[list[float], list[float]]:
    """One row through core.step_dynamics' float operations, step by step."""
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
    return s_row, v_row


def rollout_batch(s0, v0, accels: np.ndarray, dt: float):
    """Roll out acceleration sequences accels (..., n, N), row by row from s0, v0.

    s0 and v0 broadcast to accels.shape[:-1].  Returns (S, V), each
    (..., N+1).  Both are running sums along the step axis (np.add.accumulate
    adds left to right) that repeat the float operations of
    core.step_dynamics in its order:

        V over [v0, a0*dt, a1*dt, ...]                    v' = v + a*dt
        S over [s0, v0*dt, 0.5*a0*dt*dt, v1*dt, ...]      s' = s + v*dt + 0.5*a*dt*dt

    so the result matches it bit for bit; a closed form or a hoisted
    0.5*dt*dt would round differently.  A row whose speed would go negative
    is exact up to the step the car stops in; from that step on it is
    rolled out step by step, through step_dynamics' stop branch.
    """
    accels = np.asarray(accels, dtype=float)
    n = accels.shape[-1]
    dv = np.empty(accels.shape[:-1] + (n + 1,))
    dv[..., 0] = v0
    np.multiply(accels, dt, out=dv[..., 1:])
    V = np.add.accumulate(dv, axis=-1)
    ds = np.empty(accels.shape[:-1] + (2 * n + 1,))
    ds[..., 0] = s0
    np.multiply(V[..., :-1], dt, out=ds[..., 1::2])
    ds[..., 2::2] = 0.5 * accels * dt * dt
    S = np.add.accumulate(ds, axis=-1)[..., ::2]

    negative = V < 0.0
    if negative.any():
        for row in zip(*negative.any(axis=-1).nonzero()):
            j = int(negative[row].argmax()) - 1  # the step the car stops in
            S[row][j:], V[row][j:] = _rollout_row(float(S[row][j]), float(V[row][j]), accels[row][j:].tolist(), dt)
    return S, V


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

    xy_ego: (..., ne, N+1, 2), xy_other: (..., no, N+1, 2), s_ego:
    (..., ne, N+1), s_other: (..., no, N+1).  Entry [..., i, j] is

        -sum_t exp(-|p_e - p_o| / sigma_d)
              * exp(-(|s_e - s_ce| + |s_o - s_co|) / sigma_c)

    summed over steps t = 0..N-1.
    """
    t = xy_ego.shape[-2] - 1
    diff = xy_ego[..., :, None, :t, :] - xy_other[..., None, :, :t, :]
    d_rel = np.sqrt(np.sum(diff * diff, axis=-1))
    prox_e = np.exp(-np.abs(s_ego[..., :t] - s_conflict_ego) / sigma_c)
    prox_o = np.exp(-np.abs(s_other[..., :t] - s_conflict_other) / sigma_c)
    w = np.exp(-d_rel / sigma_d) * (prox_e[..., :, None, :] * prox_o[..., None, :, :])
    return -np.sum(w, axis=-1)


def _fan(accels: np.ndarray, s0, v0, d, path: ReferencePath, cfg: SamplerConfig) -> CandidateFan:
    """Roll out constant-acceleration fans accels (..., n) from start states (...) at once."""
    rows = np.repeat(accels[..., None], cfg.horizon_steps, -1)
    s, v = rollout_batch(np.asarray(s0)[..., None], np.asarray(v0)[..., None], rows, cfg.dt)
    xy = path.position(s, np.asarray(d, dtype=float)[..., None, None])
    return CandidateFan(accels=rows, s=s, v=v, xy=xy, d=d, dt=cfg.dt)


def _utility_vectors(fan: CandidateFan, v_des: float, cfg: RewardConfig):
    """Per-candidate accumulated efficiency and comfort (steps 0..N-1), shape (..., n).

    The comfort sum runs over the N equal terms of each constant row; an
    N * a**2 closed form would round differently.  The lateral term is
    computed in Python floats, one offset at a time: float ** 2 and numpy's
    square round differently for about 1 value in 1000.
    """
    accels = fan.accels
    n = accels.shape[-1]

    def lateral(d: float) -> float:
        return n * (d / cfg.d0) ** 2

    dev = (fan.v[..., :n] - v_des) / v_des
    if isinstance(fan.d, np.ndarray):  # one offset per state of a batch
        eff = -(np.sum(dev * dev, axis=-1) + np.array([lateral(d) for d in fan.d.tolist()])[:, None])
    else:
        eff = -(np.sum(dev * dev, axis=-1) + lateral(fan.d))
    jerk = np.diff(accels, axis=-1) / fan.dt
    com = -(np.sum((accels / cfg.a0) ** 2, axis=-1) + np.sum((jerk / cfg.j0) ** 2, axis=-1))
    return eff, com


def _joint_rewards(ego: CandidateFan, other: CandidateFan, path_ego, path_other, conflict, reward_cfg):
    """reward_ego, reward_other (..., ne, no) and absence_other (..., no) of two fans."""
    eff_e, com_e = _utility_vectors(ego, path_ego.speed_limit, reward_cfg)
    eff_o, com_o = _utility_vectors(other, path_other.speed_limit, reward_cfg)

    # the safety feature is symmetric in the pair, so one matrix serves both
    safety = safety_matrix(
        ego.xy, other.xy, ego.s, other.s, conflict.s_ego, conflict.s_other,
        reward_cfg.sigma_d, reward_cfg.sigma_c,
    )

    te, to = reward_cfg.theta_ego, reward_cfg.theta_other
    with np.errstate(over="ignore", invalid="ignore"):  # JointBehaviorSpace reports what overflowed
        reward_ego = te[0] * eff_e[..., :, None] + te[1] * com_e[..., :, None] + te[2] * safety
        reward_other = to[0] * eff_o[..., None, :] + to[1] * com_o[..., None, :] + to[2] * safety
        absence_other = to[0] * eff_o + to[1] * com_o
    return reward_ego, reward_other, absence_other


def build_joint_space(
    x0: JointState,
    path_ego: ReferencePath,
    path_other: ReferencePath,
    conflict: ConflictPoint,
    sampler_cfg: SamplerConfig,
    reward_cfg: RewardConfig,
) -> JointBehaviorSpace:
    """Sample both candidate fans and cache every pairwise utility."""
    fans = [
        _fan(sample_accels(x, path, sampler_cfg), x.s, x.v, x.d, path, sampler_cfg)
        for x, path in ((x0.ego, path_ego), (x0.other, path_other))
    ]
    reward_ego, reward_other, absence_other = _joint_rewards(*fans, path_ego, path_other, conflict, reward_cfg)
    return JointBehaviorSpace(
        ego_candidates=fans[0],
        other_candidates=fans[1],
        reward_ego=reward_ego,
        reward_other=reward_other,
        absence_other=absence_other,
        reward_cfg=reward_cfg,
        conflict=conflict,
    )


def build_joint_spaces(
    states: list[JointState],
    path_ego: ReferencePath,
    path_other: ReferencePath,
    conflict: ConflictPoint,
    sampler_cfg: SamplerConfig,
    reward_cfg: RewardConfig,
) -> list[JointBehaviorSpace]:
    """build_joint_space for each state, one array pass per group of states.

    A group holds the states whose two fans have the same sizes after the
    clamped accelerations are deduplicated, so no fan is padded.  Each space
    equals build_joint_space at its state bit for bit and comes with its
    social components already computed; its arrays are views into the
    group's.  A failing state raises what build_joint_space and then
    components() raise at it, and the first failing state in order wins.
    """
    if not states:
        return []
    paths = (path_ego, path_other)
    starts = np.array([[(a.s, a.v, a.d) for a in (x.ego, x.other)] for x in states])  # (F, side, s/v/d)
    grids = [_accel_grid(starts[:, k, 1], paths[k], sampler_cfg) for k in (0, 1)]
    keeps = [_first_of_runs(grid) for grid in grids]
    sizes = np.stack([keep.sum(axis=-1) for keep in keeps], axis=1)  # (F, side) fan sizes
    collapsed = _collapsed(sizes[:, 0], grids[0], sampler_cfg) | _collapsed(sizes[:, 1], grids[1], sampler_cfg)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, size in enumerate(sizes.tolist()):
        groups.setdefault(tuple(size), []).append(i)

    slots: list[tuple] = [()] * len(states)
    for idx in groups.values():
        ego, other = (
            _fan(grids[k][idx][keeps[k][idx]].reshape(len(idx), -1), *starts[idx, k].T, paths[k], sampler_cfg)
            for k in (0, 1)
        )
        rewards = _joint_rewards(ego, other, path_ego, path_other, conflict, reward_cfg)
        comps = component_arrays(*rewards, reward_cfg.beta)
        finite = np.isfinite(comps.terms).all(axis=(-2, -1))
        for j, i in enumerate(idx):
            slots[i] = (ego, other, rewards, comps, finite, j)

    spaces = []
    for i, (ego, other, rewards, comps, finite, j) in enumerate(slots):
        if collapsed[i]:
            raise EmptyCandidateSetError(_COLLAPSED)
        space = JointBehaviorSpace(
            ego_candidates=ego.at(j),
            other_candidates=other.at(j),
            reward_ego=rewards[0][j],
            reward_other=rewards[1][j],
            absence_other=rewards[2][j],
            reward_cfg=reward_cfg,
            conflict=conflict,
        )
        check_finite_terms(finite[j], reward_cfg.beta)
        space._components = comps.at(j)
        spaces.append(space)
    return spaces
