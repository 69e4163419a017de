"""run_sim steps its policies in lockstep; results and errors match running them one after another."""
import re

import pytest

import socialplan as sp
from socialplan import planner, workflows
from socialplan.scenarios import case_scenario, fixture_scenario, write_scenario_config
from reference_builder import reference_simulate

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
    keys = [[(x.t, x.ego, x.other) for x in trace.joint_states] for trace in traces]
    later = [set(k[1:]) for k in keys]
    assert all(not (later[p] & later[q]) for p in range(3) for q in range(p))
    return scenario, lams, traces, keys


def _failing_builder(monkeypatch, fail_at: dict) -> None:
    """Make every build that meets a state in fail_at raise at the first such state."""
    build = planner.build_joint_spaces

    def failing(states, *args):
        for x in states:
            if (x.t, x.ego, x.other) in fail_at:
                raise sp.NonFiniteRewardError(fail_at[(x.t, x.ego, x.other)])
        return build(states, *args)

    monkeypatch.setattr(planner, "build_joint_spaces", failing)


@pytest.mark.parametrize(
    "failures",
    [
        [(2, 1), (1, 5)],  # policy 2 fails first, in round 1, but policy 1's error wins
        [(2, 1)],  # policies 0 and 1 run on after policy 2 fails
        [(0, -1), (1, 2), (2, 1)],  # policy 0 keeps stepping to its last state and its error wins
        [(1, 3), (1, 7)],
        [],
    ],
    ids=["later_round_lower_index", "only_the_last", "last_step_of_the_first", "one_policy_twice", "none"],
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
