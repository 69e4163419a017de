"""run_sim steps its policies in lockstep; results and errors match running them one after another."""
import logging
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan import planner, sampling, workflows
from socialplan.config import load_config
from socialplan.core import state_columns
from socialplan.scenarios import case_scenario, crossing_scenario, fixture_scenario, write_scenario_config
from reference_builder import follower_response, leader_label, reference_simulate, scenario_space

POLICY_NAMES = list(workflows.POLICIES)


def _sequential(scenario, ego_policies, other_policy, max_steps=200, start_state=None):
    return [reference_simulate(scenario, policy.lam, max_steps, start_state) for policy in ego_policies]


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "source,policies",
    [
        *((f"case {c}", POLICY_NAMES) for c in ("I", "II", "III")),
        *((f"fixture {f}", POLICY_NAMES) for f in ("egoism", "courtesy", "confidence", "switch")),
        ("case I", ["0.2,0.5,0.3", "confidence", "0.6,0.1,0.3"]),
        # most states these chains predict are never walked, so their decisions go unread
        *((f"case {c}", ["0.2,0.5,0.3", "0.1,0.3,0.6", "0.6,0.1,0.3"]) for c in ("II", "III")),
    ],
)
def test_run_sim_matches_policies_run_one_after_another(tmp_path, monkeypatch, source, policies):
    kind, name = source.split()
    scenario = case_scenario(name) if kind == "case" else fixture_scenario(name)
    cfg = write_scenario_config(scenario, tmp_path / "config")
    stats = workflows.run_sim(cfg, policies, tmp_path / "lockstep")
    monkeypatch.setattr(workflows, "simulate_policies", _sequential)
    expected = workflows.run_sim(cfg, policies, tmp_path / "sequential")
    assert stats == expected
    got, want = _files(tmp_path / "lockstep"), _files(tmp_path / "sequential")
    assert sorted(got) == sorted(want) == sorted(
        [f"trace_{p.replace(',', '_')}.{ext}" for p in policies for ext in ("csv", "json")] + ["stats.json"]
    )
    assert got == want


def _case_one_runs():
    """Case I under the three basis policies, whose states part after the first step."""
    scenario = case_scenario("I")
    lams = [workflows.POLICIES[name]() for name in POLICY_NAMES]
    traces = [reference_simulate(scenario, lam) for lam in lams]
    keys = [[(x.ego, x.other) for x in trace.joint_states] for trace in traces]
    later = [set(k[1:]) for k in keys]
    assert all(not (later[p] & later[q]) for p in range(3) for q in range(p))
    return scenario, lams, traces, keys


def _failing_builder(monkeypatch, fail_at: dict) -> None:
    """Make every build that meets a state in fail_at, keyed (ego, other), report it as its first failing state.

    The error goes in through the check that every build's social terms
    run, so the closed loop and JointArrays.spaces() see it alike.
    """
    check = sampling.JointArrays._check

    def failing(self, *args):
        for i, (ego, other) in enumerate(zip(self.states[:, 0].T.tolist(), self.states[:, 1].T.tolist())):
            key = sp.AgentState(*ego), sp.AgentState(*other)
            if key in fail_at:
                return i, sp.NonFiniteRewardError(fail_at[key])
        return check(self, *args)

    monkeypatch.setattr(sampling.JointArrays, "_check", failing)


@pytest.mark.parametrize(
    "failures",
    [
        [(2, 1), (1, 5)],  # policy 2 fails first, in round 1, but policy 1's error wins
        [(2, 1)],  # policies 0 and 1 run on after policy 2 fails
        [(0, -1), (1, 2), (2, 1)],  # policy 0 keeps stepping to its last state and its error wins
        [(1, 3), (1, 7)],
        [(2, 2), (1, 2)],  # policies 1 and 2 fail in the same round: the lower index wins
        [],
    ],
    ids=[
        "later_round_lower_index", "only_the_last", "last_step_of_the_first", "one_policy_twice", "two_in_one_round",
        "none",
    ],
)
def test_lockstep_raises_the_lowest_index_policys_error(monkeypatch, failures):
    scenario, lams, traces, keys = _case_one_runs()
    # (policy, step) -> the state policy p reaches at that step; -1 is its last state before crossing
    fail_at = {keys[p][step if step >= 0 else traces[p].n_steps - 1]: f"policy {p} step {step}" for p, step in failures}
    _failing_builder(monkeypatch, fail_at)
    policies = [sp.PolicySpec.fixed(lam) for lam in lams]

    expected = None
    for policy in policies:  # the one-policy loop, policy by policy
        try:
            sp.simulate(scenario, policy, sp.PolicySpec.follower())
        except sp.NonFiniteRewardError as exc:
            expected = exc
            break
    if failures:
        assert expected is not None and str(expected) == "policy {} step {}".format(*min(failures))
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())
    else:
        got = sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())
        assert [t.a_ego.tolist() for t in got] == [t.a_ego.tolist() for t in traces]


_VERTICES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
_lam = st.one_of(
    st.sampled_from(_VERTICES),
    st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 1e-3).map(lambda w: tuple(x / sum(w) for x in w)),
)
_agent_state = st.tuples(
    st.floats(0.0, 60.0), st.one_of(st.just(0.0), st.floats(0.0, 18.0)), st.floats(-1.5, 1.5)
)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.integers(1, 30),
    dt=st.sampled_from([0.08, 0.25]),
    fractions=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]), min_size=1, max_size=12),
    a_min=st.floats(-8.0, -1.0),
    limits=st.tuples(st.floats(3.0, 15.0), st.floats(3.0, 15.0)),
    rounds=st.lists(st.tuples(_agent_state, _agent_state, _lam), min_size=1, max_size=6),
)
# fan sizes (5, 6) from rest and (6, 6) at 5 m/s in one round, and the row braking to 0
# at 5 m/s takes the stop branch in its last step; each policy at a vertex of the simplex
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], a_min=-6.0, limits=(10.0, 10.0),
    rounds=[((60.0, 0.0, 0.0), (50.0, 5.0, 0.3), _VERTICES[0]), ((40.0, 5.0, -0.2), (45.0, 5.0, 0.0), _VERTICES[1]),
            ((40.0, 5.0, -0.2), (45.0, 5.0, 0.0), _VERTICES[2])],
)
# the other car's fan collapses to one candidate (every target clamps to a_min), so the
# courtesy and confidence terms tie across the ego fan and the lowest label must win
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25], a_min=-1.0, limits=(10.0, 10.0),
    rounds=[((40.0, 5.0, 0.0), (45.0, 18.0, 0.0), _VERTICES[1]), ((40.0, 5.0, 0.0), (45.0, 18.0, 0.0), _VERTICES[2]),
            ((40.0, 18.0, 0.0), (45.0, 5.0, 0.0), _VERTICES[0])],
)
# twelve targets, unsorted and repeated, so every fan is padded on the full grid
@example(
    steps=30, dt=0.08, fractions=[1.5, 0.0, 0.25, 0.25, 1.0, 0.5, 0.75, 1.25, 1.0, 0.0, 1.5, 0.5], a_min=-6.0,
    limits=(10.0, 4.0),
    rounds=[((60.0, 0.0, 0.0), (50.0, 5.0, 0.3), (0.2, 0.5, 0.3)),
            ((40.0, 12.0, -0.2), (45.0, 2.0, 0.0), _VERTICES[2])],
)
# ego fans of 6, 4, 1 and 4 candidates under one follower fan of 6 (a_min clamps the faster cars'
# low targets), so the group's terms are padded along the ego axis
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], a_min=-1.0, limits=(10.0, 10.0),
    rounds=[((40.0, 5.0, 0.0), (45.0, 5.0, 0.0), _VERTICES[0]), ((40.0, 8.0, 0.2), (30.0, 5.0, 0.0), _VERTICES[1]),
            ((35.0, 18.0, 0.0), (45.0, 5.0, 0.0), _VERTICES[2]), ((40.0, 8.0, 0.0), (45.0, 5.0, 0.0), (0.2, 0.5, 0.3))],
)
# a near-tie: the three ego scores print 2.14004059 each in the second round, and a matrix
# product's last bits depend on its shapes, so a decision that is one must agree with them all
@example(
    steps=13, dt=0.08, fractions=[0.0, 0.25, 0.75, 1.0, 1.5], a_min=-5.0, limits=(5.0, 10.0),
    rounds=[((4.0, 5.0, 0.0), (6.0, 11.0, 1.0), (0.0, 1 / 3, 2 / 3)),
            ((4.0, 0.0, 0.0), (6.0, 11.0, 1.0), (0.0, 1 / 3, 2 / 3))],
)
def test_the_decision_read_from_a_build_matches_the_per_space_decision(steps, dt, fractions, a_min, limits, rounds):
    """planner.decisions on one round's build, each round under its own weights, against leader_label and
    follower_response on reference_space, as bytes."""
    sampler = sp.SamplerConfig(horizon_steps=steps, dt=dt, terminal_speed_fractions=tuple(fractions), accel_min=a_min)
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, limit_ego=limits[0], limit_other=limits[1], sampler=sampler)
    xs = [sp.JointState(ego=sp.AgentState(*e), other=sp.AgentState(*o)) for e, o, _ in rounds]
    arrays = scn.arrays_at(state_columns(xs))
    terms = arrays.social_terms()
    assert terms.error is None
    lams = [sp.RewardWeights(np.array(values)) for *_, values in rounds]
    labels, responses, a_ego, a_other = planner.decisions(arrays, terms, np.array([lam.values for lam in lams]).T)
    for i, (x, lam) in enumerate(zip(xs, lams)):
        space = scenario_space(scn, x)
        label = leader_label(space, lam)
        response = follower_response(space, label)
        controls = space.ego_candidates.accels[label], space.other_candidates.accels[response]
        assert (labels[i], responses[i]) == (label, response)
        assert np.array([a_ego[i], a_other[i]]).tobytes() == np.array(controls).tobytes()
        assert terms.leader_labels(range(terms.sound), np.broadcast_to(lam.values[:, None], (3, terms.sound)))[i] == label


def test_every_leader_decision_agrees_on_a_near_tie():
    """decisions, leader_labels and the per-space leader_label read the same label where the ego scores tie to
    the last bit, and it is the lowest."""
    sampler = sp.SamplerConfig(
        horizon_steps=13, dt=0.08, terminal_speed_fractions=(0.0, 0.25, 0.75, 1.0, 1.5), accel_min=-5.0
    )
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, limit_ego=5.0, limit_other=10.0, sampler=sampler)
    other = sp.AgentState(6.0, 11.0, 1.0)
    xs = [sp.JointState(sp.AgentState(4.0, 5.0, 0.0), other), sp.JointState(sp.AgentState(4.0, 0.0, 0.0), other)]
    lam = sp.RewardWeights(np.array([0.0, 1 / 3, 2 / 3]))
    arrays = scn.arrays_at(state_columns(xs))
    terms = arrays.social_terms()
    labels = [
        planner.decisions(arrays, terms, np.tile(lam.values[:, None], (1, 2)))[0][1],
        int(terms.leader_labels([1], lam.values[:, None])[0]),
        int(terms.leader_labels(range(2), np.broadcast_to(lam.values[:, None], (3, 2)))[1]),
        leader_label(scenario_space(scn, xs[1]), lam),
    ]
    assert labels == [0, 0, 0, 0]


def test_no_pipeline_assembles_a_joint_space(tmp_path, monkeypatch):
    """Every pipeline decides from a build's arrays and terms; per-state spaces are only the reference."""
    def refuse(*args, **kwargs):
        raise AssertionError("a pipeline assembled a per-state joint space")

    monkeypatch.setattr(sampling.JointArrays, "spaces", refuse)
    monkeypatch.setattr(sampling.JointBehaviorSpace, "__post_init__", refuse)
    cfg = write_scenario_config(fixture_scenario("switch"), tmp_path / "template", seed=0)
    workflows.run_sim(cfg, POLICY_NAMES, tmp_path / "sim")
    courtesy, confidence = sp.RewardWeights.courtesy(), sp.RewardWeights.confidence()
    workflows.make_fixture(cfg, confidence, 0, tmp_path / "switched", switch_step=6, lam_after=courtesy)
    fixture = load_config(workflows.make_fixture(cfg, courtesy, 0, tmp_path / "fixture"))
    workflows.run_infer(fixture, tmp_path / "infer")
    workflows.run_regen(fixture, tmp_path / "regen")
    assert (tmp_path / "regen" / "regen.json").exists()
    with pytest.raises(AssertionError, match="assembled"):
        fixture.load_scenario().space_at(fixture.initial)


def _trace_bytes(trace) -> bytes:
    """Every number a trace holds, states first, as bytes."""
    xs = np.array([(x.t, x.ego.s, x.ego.v, x.ego.d, x.other.s, x.other.v, x.other.d) for x in trace.joint_states])
    parts = (xs, trace.a_ego, trace.a_other, trace.lambda_ego, trace.lambda_other, np.array([trace.terminated]))
    return b"|".join(np.ascontiguousarray(a).tobytes() for a in parts)


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.tuples(st.floats(2.0, 30.0), st.floats(0.0, 12.0), st.floats(2.0, 30.0), st.floats(0.0, 12.0)),
    limits=st.tuples(st.floats(3.0, 15.0), st.floats(3.0, 15.0)),
    dt=st.sampled_from([0.08, 0.25]),
    lams=st.lists(_lam, min_size=1, max_size=3),
    max_steps=st.integers(1, 40),
    start=st.one_of(st.none(), st.tuples(_agent_state, _agent_state)),
)
def test_lookahead_traces_match_the_one_step_loop(geometry, limits, dt, lams, max_steps, start):
    """simulate_policies against reference_simulate per policy, as bytes, errors included: its chains are cut
    at max_steps and at the crossing, a start_state starts them anywhere, and no chain depth changes a byte."""
    sampler = sp.SamplerConfig(horizon_steps=12, dt=dt)
    scn = crossing_scenario(*geometry, limit_ego=limits[0], limit_other=limits[1], sampler=sampler)
    start_state = None if start is None else sp.JointState(sp.AgentState(*start[0]), sp.AgentState(*start[1]), t=3)
    policies = [sp.PolicySpec.fixed(sp.RewardWeights(np.array(lam))) for lam in lams]
    try:
        expected = [reference_simulate(scn, p.lam, max_steps, start_state) for p in policies]
    except sp.SocialPlanError as exc:
        expected = exc
    for depth in (1, planner._LOOKAHEAD, 7):
        with mock.patch.object(planner, "_LOOKAHEAD", depth):
            if isinstance(expected, sp.SocialPlanError):
                with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                    sp.simulate_policies(scn, policies, sp.PolicySpec.follower(), max_steps, start_state)
            else:
                got = sp.simulate_policies(scn, policies, sp.PolicySpec.follower(), max_steps, start_state)
                assert [_trace_bytes(t) for t in got] == [_trace_bytes(t) for t in expected], depth


def _predicted(monkeypatch, scenario, policies) -> list:
    """The states the policies' chains predict in one simulate_policies run, keyed as _failing_builder keys them."""
    predicted = []
    chain = planner._chain

    def recording(*args):
        states = chain(*args)
        predicted.extend((x.ego, x.other) for x in states)
        return states

    with monkeypatch.context() as patch:
        patch.setattr(planner, "_chain", recording)
        sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())
    return predicted


def test_a_failing_predicted_state_fails_only_where_the_loop_reaches_it(monkeypatch):
    """A state only a broken chain builds raises nothing and changes no trace; a state the loop reaches through a
    verified chain raises the error the policies raise run one after another."""
    scenario, lams, traces, keys = _case_one_runs()
    policies = [sp.PolicySpec.fixed(lam) for lam in lams]
    predicted = _predicted(monkeypatch, scenario, policies)
    reached = [k for ks in keys for k in ks]
    broken = [k for k in predicted if k not in reached]
    verified = [k for k in reached if k in predicted]
    assert broken and verified
    for key in broken:
        with monkeypatch.context() as patch:
            _failing_builder(patch, {key: "a broken chain's state"})
            got = sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())
        assert [_trace_bytes(t) for t in got] == [_trace_bytes(t) for t in traces]
    for key in verified:
        owner = next(p for p in range(3) if key in keys[p])
        with monkeypatch.context() as patch:
            _failing_builder(patch, {key: f"policy {owner}"})
            with pytest.raises(sp.NonFiniteRewardError, match=f"^policy {owner}$"):
                sp.simulate(scenario, policies[owner], sp.PolicySpec.follower())
            with pytest.raises(sp.NonFiniteRewardError, match=f"^policy {owner}$"):
                sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())


def test_run_sim_on_case_one_makes_fewer_builds_than_steps(tmp_path, monkeypatch):
    """Case I under the three policies: one build serves the steps whose decisions repeat."""
    builds = []
    arrays_at = planner.Scenario.arrays_at

    def counting(self, states):
        builds.append(len(states))
        return arrays_at(self, states)

    cfg = write_scenario_config(case_scenario("I"), tmp_path / "config")
    monkeypatch.setattr(planner.Scenario, "arrays_at", counting)
    workflows.run_sim(cfg, POLICY_NAMES, tmp_path / "sim")
    steps = [len((tmp_path / "sim" / f"trace_{name}.csv").read_text().splitlines()) - 2 for name in POLICY_NAMES]
    assert len(builds) < max(steps)


def test_the_chain_rule():
    """No chain before a policy's first decision; after it, min(_LOOKAHEAD, steps) states along that decision on
    case I, none at steps 0, the first one step_dynamics step on and each shorter chain a prefix of the longest."""
    scenario = case_scenario("I")
    x = scenario.initial
    arrays = scenario.arrays_at(state_columns([x]))
    lam = sp.RewardWeights.courtesy().values[:, None]
    [label], [response], [ae], [ao] = planner.decisions(arrays, arrays.social_terms(), lam)
    assert planner._chain(scenario, x, None, 40) == []
    chains = [planner._chain(scenario, x, (label, response), steps) for steps in range(planner._LOOKAHEAD + 3)]
    assert [len(c) for c in chains] == [min(planner._LOOKAHEAD, steps) for steps in range(planner._LOOKAHEAD + 3)]
    first, dt = chains[-1][0], scenario.sampler.dt
    assert (first.t, first.ego, first.other) == (
        x.t + 1, sp.step_dynamics(x.ego, ae, dt), sp.step_dynamics(x.other, ao, dt)
    )
    assert all(c == chains[-1][: len(c)] for c in chains)


def test_simulate_policies_logs_one_debug_record(caplog):
    """One DEBUG record per call says steps, builds, states built and predicted states used; silent by default."""
    scenario = case_scenario("I")
    policies = [sp.PolicySpec.fixed(workflows.POLICIES[name]()) for name in POLICY_NAMES]
    with caplog.at_level(logging.INFO, logger="socialplan.planner"):
        sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="socialplan.planner"):
        traces = sp.simulate_policies(scenario, policies, sp.PolicySpec.follower())
    [record] = caplog.records
    steps, builds, built, predicted, used = map(int, re.findall(r"\d+", record.getMessage()))
    assert steps == sum(t.n_steps for t in traces) and builds < max(t.n_steps for t in traces)
    assert built == steps - used + predicted and 0 < used <= predicted
