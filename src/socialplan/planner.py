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
from .errors import SocialPlanError
from .rewards import RewardConfig, RewardWeights, check_ego_label, social_reward_vector
from .sampling import JointArrays, JointBehaviorSpace, SamplerConfig, SeatTerms
from .sampling import build_joint_arrays, build_joint_space


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

    def arrays_at(self, states: list[JointState]) -> JointArrays:
        """One array pass over the states (build_joint_arrays); JointArrays.swapped() gives the other seat."""
        return build_joint_arrays(states, self.path_ego, self.path_other, self.conflict, self.sampler, self.rewards)


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


def plan_ego(x0: JointState, lam: RewardWeights, scenario: Scenario) -> tuple[int, JointBehaviorSpace]:
    """Leader decision on a fresh joint space at x0: (ego label, space); see leader_label."""
    space = scenario.space_at(x0)
    return leader_label(space, lam), space


def follower_response(space: JointBehaviorSpace, ego_label: int) -> int:
    """Label of the other car's best response to a committed ego action (Stackelberg follower)."""
    return int(np.argmax(space.reward_other[check_ego_label(space, ego_label)]))


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


def decide(arrays: JointArrays, terms: SeatTerms, i: int, lam: RewardWeights) -> tuple[int, int, float, float]:
    """leader_label and follower_response at state i of a build: (ego label, other label, their first controls)."""
    label = terms.leader_label(i, lam.values)
    response = int(arrays.reward_other[i, label, : arrays.sizes[1, i]].argmax())
    return label, response, float(arrays.rows[0, i, label, 0]), float(arrays.rows[1, i, response, 0])


def simulate_policies(
    scenario: Scenario,
    ego_policies: list[PolicySpec],
    other_policy: PolicySpec,
    max_steps: int = 200,
    start_state: JointState | None = None,
) -> list[InteractionTrace]:
    """simulate under each ego policy, all policies stepped in lockstep.

    Each round builds every running policy's state in one arrays_at call
    and decides each from the arrays and terms (decide); a policy leaves
    once it crosses or reaches max_steps.  The traces equal simulate's.  A
    SocialPlanError is the one simulate would raise running the policies in
    order: the policies before a round's first failing state step on, and
    it and every later policy stop there.
    """
    if any(policy.kind != "fixed" for policy in ego_policies):
        raise ValueError("the ego car is the leader and needs a fixed-weights policy")
    if other_policy.kind != "follower":
        raise ValueError("two-leader configurations are not supported; the other car must be a follower")
    x0 = scenario.initial if start_state is None else start_state
    conflict, dt = scenario.conflict, scenario.sampler.dt
    states = [[x0] for _ in ego_policies]
    a_ego: list[list[float]] = [[] for _ in ego_policies]
    a_other: list[list[float]] = [[] for _ in ego_policies]
    running = [p for p in range(len(ego_policies)) if not _crossed(x0, conflict) and max_steps > 0]
    error: SocialPlanError | None = None
    while running:
        xs = [states[p][-1] for p in running]
        arrays = scenario.arrays_at(xs)
        terms = arrays.social_terms()
        if terms.error is not None:
            # any error kept so far came from a later policy, which simulate would never reach
            failed, error = terms.error
            running = running[:failed]
        for i, (p, x) in enumerate(zip(running, xs)):
            _, _, ae, ao = decide(arrays, terms, i, ego_policies[p].lam)
            states[p].append(JointState(step_dynamics(x.ego, ae, dt), step_dynamics(x.other, ao, dt), x.t + 1))
            a_ego[p].append(ae)
            a_other[p].append(ao)
        running = [p for p in running if not _crossed(states[p][-1], conflict) and len(a_ego[p]) < max_steps]
    if error is not None:
        raise error

    traces = []
    for policy, xs, ae, ao in zip(ego_policies, states, a_ego, a_other):
        steps = len(ae)
        traces.append(
            InteractionTrace(
                joint_states=xs,
                a_ego=np.array(ae),
                a_other=np.array(ao),
                lambda_ego=np.tile(policy.lam.values, (steps, 1)),
                lambda_other=np.tile(_FOLLOWER_LAMBDA, (steps, 1)),
                dt=dt,
                conflict=conflict,
                path_ego=scenario.path_ego,
                path_other=scenario.path_other,
                terminated=_crossed(xs[-1], conflict),
            )
        )
    return traces


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
    This is simulate_policies with one ego policy.
    """
    return simulate_policies(scenario, [ego_policy], other_policy, max_steps, start_state)[0]
