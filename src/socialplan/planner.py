"""Leader decision, follower response, and the closed-loop interaction driver.

The ego car is the Stackelberg leader: it commits to the candidate maximizing
its social reward, evaluated against the stochastic response model of the
other car.  The simulated other car is a pure follower that best-responds to
the committed ego action with its own utility.  Both agents apply only the
first control of their sequences before the next replan (receding horizon).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ConflictPoint, JointState, ReferencePath, find_conflict_point, step_dynamics
from .errors import UnknownCandidateError
from .rewards import RewardConfig, RewardWeights, social_reward_vector
from .sampling import ActionSequence, JointBehaviorSpace, SamplerConfig, build_joint_space


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one two-car interaction."""

    path_ego: ReferencePath
    path_other: ReferencePath
    conflict: ConflictPoint
    initial: JointState
    sampler: SamplerConfig
    rewards: RewardConfig

    @classmethod
    def create(cls, path_ego, path_other, initial, sampler=None, rewards=None) -> "Scenario":
        return cls(
            path_ego=path_ego,
            path_other=path_other,
            conflict=find_conflict_point(path_ego, path_other),
            initial=initial,
            sampler=sampler or SamplerConfig(),
            rewards=rewards or RewardConfig(),
        )

    def swapped(self) -> "Scenario":
        """The same scenario seen from the other car's seat."""
        conflict = ConflictPoint(
            position=self.conflict.position,
            s_ego=self.conflict.s_other,
            s_other=self.conflict.s_ego,
        )
        rew = replace(self.rewards, theta_ego=self.rewards.theta_other, theta_other=self.rewards.theta_ego)
        return Scenario(
            path_ego=self.path_other,
            path_other=self.path_ego,
            conflict=conflict,
            initial=self.initial.swapped(),
            sampler=self.sampler,
            rewards=rew,
        )

    def space_at(self, x0: JointState) -> JointBehaviorSpace:
        return build_joint_space(x0, self.path_ego, self.path_other, self.conflict, self.sampler, self.rewards)


@dataclass(frozen=True)
class PolicySpec:
    """Either a fixed reward-weight policy or the pure follower."""

    kind: str  # "fixed" | "follower"
    lam: RewardWeights | None = None

    def __post_init__(self):
        if self.kind not in ("fixed", "follower"):
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fixed" and self.lam is None:
            raise ValueError("fixed policy needs reward weights")

    @classmethod
    def fixed(cls, lam: RewardWeights) -> "PolicySpec":
        return cls(kind="fixed", lam=lam)

    @classmethod
    def follower(cls) -> "PolicySpec":
        return cls(kind="follower")


def leader_label(space: JointBehaviorSpace, lam: RewardWeights) -> int:
    """Label of the ego candidate with maximal social reward under weights lam.

    Ties break toward the lowest candidate label (np.argmax takes the first
    maximum and labels are the candidate indices).
    """
    return int(np.argmax(social_reward_vector(space, lam)))


def plan_ego(x0: JointState, lam: RewardWeights, scenario: Scenario) -> tuple[ActionSequence, JointBehaviorSpace]:
    """Leader decision on a fresh joint space at x0 (see leader_label)."""
    space = scenario.space_at(x0)
    return space.ego_candidates[leader_label(space, lam)].seq, space


def follower_response(space: JointBehaviorSpace, ego_label: int) -> ActionSequence:
    """Best response of the other car to a committed ego action (Stackelberg follower)."""
    ego_label = int(ego_label)
    if not 0 <= ego_label < space.reward_other.shape[0]:
        raise UnknownCandidateError(f"no ego candidate labeled {ego_label}")
    j = int(np.argmax(space.reward_other[ego_label]))
    return space.other_candidates[j].seq


@dataclass
class InteractionTrace:
    """Closed-loop result: states, applied controls, and per-step weights."""

    joint_states: list[JointState]
    a_ego: np.ndarray
    a_other: np.ndarray
    lambda_ego: np.ndarray  # (steps, 3)
    lambda_other: np.ndarray  # (steps, 3)
    dt: float
    conflict: ConflictPoint
    path_ego: ReferencePath
    path_other: ReferencePath
    terminated: bool

    @property
    def n_steps(self) -> int:
        return len(self.a_ego)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Cartesian positions of both cars at every recorded state."""
        se = np.array([js.ego.s for js in self.joint_states])
        so = np.array([js.other.s for js in self.joint_states])
        de = np.array([js.ego.d for js in self.joint_states])
        do = np.array([js.other.d for js in self.joint_states])
        return self.path_ego.position(se, de), self.path_other.position(so, do)

    def concat(self, tail: "InteractionTrace") -> "InteractionTrace":
        """Join a continuation trace whose first state equals this trace's last."""
        a, b = self.joint_states[-1], tail.joint_states[0]
        if (a.ego, a.other) != (b.ego, b.other):
            raise ValueError("traces do not chain: end state differs from start state")
        return InteractionTrace(
            joint_states=self.joint_states + tail.joint_states[1:],
            a_ego=np.concatenate([self.a_ego, tail.a_ego]),
            a_other=np.concatenate([self.a_other, tail.a_other]),
            lambda_ego=np.concatenate([self.lambda_ego, tail.lambda_ego]),
            lambda_other=np.concatenate([self.lambda_other, tail.lambda_other]),
            dt=self.dt,
            conflict=self.conflict,
            path_ego=self.path_ego,
            path_other=self.path_other,
            terminated=tail.terminated,
        )


_FOLLOWER_LAMBDA = np.array([1.0, 0.0, 0.0])


def _crossed(x: JointState, conflict: ConflictPoint) -> bool:
    return x.ego.s >= conflict.s_ego or x.other.s >= conflict.s_other


def simulate(
    scenario: Scenario,
    ego_policy: PolicySpec,
    other_policy: PolicySpec,
    max_steps: int = 200,
    start_state: JointState | None = None,
) -> InteractionTrace:
    """Receding-horizon interaction until a conflict-point crossing.

    Every step the leader replans on a fresh joint space, the follower
    best-responds to the committed action, and both apply only their first
    control.  The loop ends when either car's arclength passes its conflict
    arclength; hitting max_steps first leaves terminated=False in the trace.
    """
    if ego_policy.kind != "fixed":
        raise ValueError("the ego car is the leader and needs a fixed-weights policy")
    if other_policy.kind != "follower":
        raise ValueError("two-leader configurations are not supported; the other car must be a follower")

    x = scenario.initial if start_state is None else start_state
    conflict = scenario.conflict
    states = [x]
    a_ego: list[float] = []
    a_other: list[float] = []
    terminated = _crossed(x, conflict)
    while not terminated and len(a_ego) < max_steps:
        seq_e, space = plan_ego(x, ego_policy.lam, scenario)
        seq_o = follower_response(space, seq_e.label)
        ae, ao = float(seq_e.accels[0]), float(seq_o.accels[0])
        x = JointState(
            ego=step_dynamics(x.ego, ae, scenario.sampler.dt),
            other=step_dynamics(x.other, ao, scenario.sampler.dt),
            t=x.t + 1,
        )
        states.append(x)
        a_ego.append(ae)
        a_other.append(ao)
        terminated = _crossed(x, conflict)

    steps = len(a_ego)
    return InteractionTrace(
        joint_states=states,
        a_ego=np.array(a_ego),
        a_other=np.array(a_other),
        lambda_ego=np.tile(ego_policy.lam.values, (steps, 1)),
        lambda_other=np.tile(_FOLLOWER_LAMBDA, (steps, 1)),
        dt=scenario.sampler.dt,
        conflict=conflict,
        path_ego=scenario.path_ego,
        path_other=scenario.path_other,
        terminated=terminated,
    )
