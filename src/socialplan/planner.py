"""Leader decision, follower response, and the closed-loop interaction driver.

The ego car is the Stackelberg leader: it commits to the candidate maximizing
its social reward, evaluated against the stochastic response model of the
other car.  The simulated other car is a pure follower that best-responds to
the committed ego action with its own utility.  Both agents apply only the
first control of their sequences before the next replan (receding horizon).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import ConflictPoint, JointState, ReferencePath, find_conflict_point, state_columns, step_dynamics
from .errors import SocialPlanError
from .rewards import RewardConfig, RewardWeights, leader_scores
from .sampling import JointArrays, JointBehaviorSpace, SamplerConfig, SeatTerms
from .sampling import build_joint_arrays, build_joint_space, fan_accels


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

    # Kept only for plan_ego (see the comment there).
    def space_at(self, x0: JointState) -> JointBehaviorSpace:
        return build_joint_space(x0, self.path_ego, self.path_other, self.conflict, self.sampler, self.rewards)

    def arrays_at(self, x: np.ndarray, columns: int | None = None) -> JointArrays:
        """One build_joint_arrays pass over state columns x (3, side, F); JointArrays.swapped() gives the other seat.

        columns is the rollout columns the caller reads, N or N+1 (the default).
        """
        return build_joint_arrays(x, self.path_ego, self.path_other, self.conflict, self.sampler, self.rewards, columns)


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


# Kept only because perfbench/tracing.py wraps planner.plan_ego, workflows.plan_ego and
# planner.build_joint_space; no pipeline calls them.
def plan_ego(x0: JointState, lam: RewardWeights, scenario: Scenario) -> tuple[int, JointBehaviorSpace]:
    """Leader decision on a fresh joint space at x0: (ego label, space), ties to the lowest label (SeatTerms.leader_labels)."""
    space = scenario.space_at(x0)
    return int(leader_scores(lam.values, space.components().terms).argmax()), space


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
        s, _, d = state_columns(self.joint_states)
        return self.path_ego.position(s[0], d[0]), self.path_other.position(s[1], d[1])

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


def decisions(arrays: JointArrays, terms: SeatTerms, lams: np.ndarray) -> tuple[list, list, list, list]:
    """At each state i < n of a build, all sound, under weights lams[:, i] (lams (3, n)): the leader's labels
    (SeatTerms.leader_labels), the follower's best responses in its own fan and their first controls (the
    candidates' constant accelerations), as lists."""
    entries = np.arange(lams.shape[-1])
    labels = terms.leader_labels(entries, lams)
    rewards = arrays.reward_other[entries, labels]  # (n, nt) each state's row of its leader's label
    rewards[np.arange(rewards.shape[-1]) >= arrays.sizes[1, entries, None]] = -np.inf
    responses = rewards.argmax(axis=-1)
    a_ego, a_other = arrays.accels[0, entries, labels], arrays.accels[1, entries, responses]
    return labels.tolist(), responses.tolist(), a_ego.tolist(), a_other.tolist()


# The predicted states each policy adds to a build once it has decided, fewer where its chain stops (simulate_policies).
_LOOKAHEAD = 4


def _chains(scenario: Scenario, xs: list[JointState], guesses: list, steps: list[int]) -> list[list[JointState]]:
    """Each policy's chain: up to min(_LOOKAHEAD, steps[i]) states after xs[i], each one step on from the last with
    guesses[i] repeated on its fans.

    guesses[i] is a policy's last decision (leader label, follower
    response), None before its first; its states are the ones the loop
    reaches if the policy decides it at xs[i] and at each of them.  A chain
    stops before a crossing, before a state that a label outside a fan
    would need, and where step_dynamics refuses a step (the loop then meets
    that refusal itself).  The chains grow level by level: one fan_accels
    call samples the fans at every chain's last state, as a row of fan_accels
    has the same bits in any batch.
    """
    chains: list[list[JointState]] = [[] for _ in xs]
    tips = list(xs)  # each chain's last state
    depths = [0 if guess is None else min(_LOOKAHEAD, k) for guess, k in zip(guesses, steps)]
    growing = [i for i, depth in enumerate(depths) if depth > 0]
    cfg = scenario.sampler
    limits = [scenario.path_ego.speed_limit, scenario.path_other.speed_limit]
    while growing:
        accels, sizes = fan_accels([[tips[i].ego.v, tips[i].other.v] for i in growing], limits, cfg)
        accels, sizes = accels.tolist(), sizes.tolist()
        still = []
        for row, i in enumerate(growing):
            (label, response), x = guesses[i], tips[i]
            if label >= sizes[row][0] or response >= sizes[row][1]:
                continue
            try:
                ego = step_dynamics(x.ego, accels[row][0][label], cfg.dt)
                other = step_dynamics(x.other, accels[row][1][response], cfg.dt)
            except ValueError:
                continue
            x = JointState(ego, other, x.t + 1)
            if _crossed(x, scenario.conflict):
                continue
            chains[i].append(x)
            tips[i] = x
            if len(chains[i]) < depths[i]:
                still.append(i)
        growing = still
    return chains


def simulate_policies(
    scenario: Scenario,
    ego_policies: list[PolicySpec],
    other_policy: PolicySpec,
    max_steps: int = 200,
    start_state: JointState | None = None,
) -> list[InteractionTrace]:
    """simulate under each ego policy, all policies stepped in lockstep, with speculative lookahead.

    Each round makes one arrays_at build of N rollout columns, all that the
    decisions read: every running policy's state, then, after all of them,
    each policy's chain of predicted states (_chains, one fan_accels call
    per chain level for all policies): once a policy has decided, always
    the min(_LOOKAHEAD, steps left) states it reaches if its last decision
    (leader label, follower response) repeats, cut by the chain's stops.
    One decisions call decides every sound state of the build, each under
    its policy's weights.  Each policy reads its decision at its state and
    walks on along its chain for as long as its decisions equal the
    predicted ones, so one build serves every step whose decision repeats;
    a miss wastes at most _LOOKAHEAD built states per policy per round, and
    the decisions at them.  Labels are compared, not states.  By induction
    each chain state it walks to is the object the step-by-step loop
    reaches, and a state's arrays and terms have the bits they have alone,
    so the traces equal simulate's.  A policy leaves once it crosses or
    reaches max_steps.

    A SocialPlanError is the one simulate would raise running the policies
    in order: the policies before a round's first failing current state step
    on, and it and every later policy stop there.  A failing predicted state
    lies at or past terms.sound and only ends a walk; a policy that reaches
    it meets its error as a current state.  One DEBUG record on the
    socialplan.planner logger says what the call did.
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
    guesses: list[tuple[int, int] | None] = [None for _ in ego_policies]  # each policy's last decision
    weights = np.array([policy.lam.values for policy in ego_policies]).T  # (3, policies)
    running = [p for p in range(len(ego_policies)) if not _crossed(x0, conflict) and max_steps > 0]
    error: SocialPlanError | None = None
    builds = built = predicted = used = 0
    while running:
        xs = [states[p][-1] for p in running]
        steps_left = [max_steps - len(a_ego[p]) - 1 for p in running]  # after this round's step
        chains = _chains(scenario, xs, [guesses[p] for p in running], steps_left)
        build = xs + [x for chain in chains for x in chain]
        owners = running + [p for p, chain in zip(running, chains) for _ in chain]  # the policy of each state
        arrays = scenario.arrays_at(state_columns(build), scenario.sampler.horizon_steps)
        terms = arrays.social_terms()
        builds, built, predicted = builds + 1, built + len(build), predicted + len(build) - len(xs)
        if terms.error is not None and terms.error[0] < len(xs):
            # any error kept so far came from a later policy, which simulate would never reach
            failed, error = terms.error
            running = running[:failed]
        labels, responses, a_e, a_o = decisions(arrays, terms, weights[:, owners[: terms.sound]])
        first = len(xs)  # the build index of the next chain's first state
        for i, (p, x) in enumerate(zip(running, xs)):
            chain, at, hits = chains[i], i, 0
            while True:
                label, response = labels[at], responses[at]
                a_ego[p].append(a_e[at])
                a_other[p].append(a_o[at])
                if hits == len(chain) or (label, response) != guesses[p]:
                    ego, other = step_dynamics(x.ego, a_e[at], dt), step_dynamics(x.other, a_o[at], dt)
                    states[p].append(JointState(ego, other, x.t + 1))
                    break
                x, at = chain[hits], first + hits
                states[p].append(x)
                hits += 1
                if at >= terms.sound:
                    break
            used += hits
            guesses[p] = label, response
            first += len(chain)
        running = [p for p in running if not _crossed(states[p][-1], conflict) and len(a_ego[p]) < max_steps]
    # importing socialplan does not import logging; until something does, nothing can have configured it
    logging = sys.modules.get("logging")
    if logging is not None and logging.getLogger("socialplan.planner").isEnabledFor(logging.DEBUG):
        logging.getLogger("socialplan.planner").debug(
            "simulate_policies: %d steps, %d builds of %d states, %d of them predicted, %d predicted states used",
            sum(map(len, a_ego)), builds, built, predicted, used,
        )
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
