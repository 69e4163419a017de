from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import socialplan as sp
from socialplan.core import state_columns
from socialplan.metrics import min_distance
from socialplan.planner import decisions
from socialplan.scenarios import case_scenario
from reference_scalar import space_from_matrices
from example_checks import (
    check_follower_argmax,
    check_follower_tie_break,
    check_plan_dominant_candidate,
    check_simulate_already_crossed,
    decide_on,
)


def test_spec_examples():
    check_plan_dominant_candidate()
    check_follower_argmax()
    check_follower_tie_break()
    check_simulate_already_crossed()


def test_single_other_candidate_reduces_to_column_argmax():
    rng = np.random.default_rng(5)
    for _ in range(20):
        reward_ego = rng.normal(size=(6, 1)) * 4
        space = space_from_matrices(reward_ego, np.zeros((6, 1)), np.zeros(1))
        assert decide_on(space, sp.RewardWeights.egoism()) == (int(np.argmax(reward_ego[:, 0])), 0)


def test_case1_policy_choice_ordering():
    # ego precedes: the courteous leader speeds up, the confident leader slows down
    scn = case_scenario("I")
    arrays = scn.arrays_at(state_columns([scn.initial]))
    terms = arrays.social_terms()
    (label_e, _, first_e, _), (label_c, _, first_c, _), (label_f, _, first_f, _) = (
        [column[0] for column in decisions(arrays, terms, lam.values[:, None])]
        for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.courtesy(), sp.RewardWeights.confidence())
    )
    assert label_c >= label_e  # labels ascend with target speed
    assert label_f <= label_e
    assert first_c > first_e > first_f


def _simulate(scn, lam, max_steps=200):
    return sp.simulate(scn, sp.PolicySpec.fixed(lam), sp.PolicySpec.follower(), max_steps=max_steps)


def test_case2_courteous_brakes():
    scn = case_scenario("II")
    tr_c = _simulate(scn, sp.RewardWeights.courtesy())
    tr_e = _simulate(scn, sp.RewardWeights.egoism())
    n1 = round(1.0 / scn.sampler.dt)
    assert np.mean(tr_c.a_ego[:n1]) < 0.0
    assert np.mean(tr_c.a_ego[:n1]) < np.mean(tr_e.a_ego[:n1])


def test_policy_kinds_enforced():
    scn = case_scenario("I")
    with pytest.raises(ValueError):
        sp.simulate(scn, sp.PolicySpec.follower(), sp.PolicySpec.follower())
    with pytest.raises(ValueError):
        sp.simulate(
            scn,
            sp.PolicySpec.fixed(sp.RewardWeights.egoism()),
            sp.PolicySpec.fixed(sp.RewardWeights.egoism()),
        )
    with pytest.raises(ValueError):
        sp.PolicySpec(kind="fixed")


def test_trace_replay_consistency():
    scn = case_scenario("III")
    tr = _simulate(scn, sp.RewardWeights.courtesy())
    st = tr.joint_states[0]
    for k in range(tr.n_steps):
        ego = sp.step_dynamics(st.ego, float(tr.a_ego[k]), tr.dt)
        other = sp.step_dynamics(st.other, float(tr.a_other[k]), tr.dt)
        nxt = tr.joint_states[k + 1]
        assert ego == nxt.ego and other == nxt.other
        st = nxt


def test_trace_monotone_progress():
    for case in ("I", "II", "III"):
        scn = case_scenario(case)
        for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.courtesy(), sp.RewardWeights.confidence()):
            tr = _simulate(scn, lam)
            s_e = [js.ego.s for js in tr.joint_states]
            s_o = [js.other.s for js in tr.joint_states]
            assert all(b >= a for a, b in zip(s_e, s_e[1:]))
            assert all(b >= a for a, b in zip(s_o, s_o[1:]))


def test_simulate_deterministic():
    scn = case_scenario("I")
    a = _simulate(scn, sp.RewardWeights.confidence())
    b = _simulate(scn, sp.RewardWeights.confidence())
    assert np.array_equal(a.a_ego, b.a_ego) and np.array_equal(a.a_other, b.a_other)
    assert all(
        x.ego == y.ego and x.other == y.other for x, y in zip(a.joint_states, b.joint_states)
    )


def test_nonterminating_flag():
    # parallel approach angles never reached: give an impossible step budget
    scn = case_scenario("III")
    tr = _simulate(scn, sp.RewardWeights.egoism(), max_steps=2)
    assert not tr.terminated
    with pytest.raises(sp.NonTerminatingError):
        sp.ait(tr)


def test_trace_concat_guards():
    scn = case_scenario("I")
    head = _simulate(scn, sp.RewardWeights.egoism(), max_steps=3)
    tail = sp.simulate(
        scn,
        sp.PolicySpec.fixed(sp.RewardWeights.egoism()),
        sp.PolicySpec.follower(),
        max_steps=200,
        start_state=head.joint_states[-1],
    )
    joined = head.concat(tail)
    assert joined.n_steps == head.n_steps + tail.n_steps
    assert joined.terminated
    with pytest.raises(ValueError):
        head.concat(head)


def test_follower_unknown_label():
    """The follower answers with a candidate of its own fan, never with a padding row of the build's grid."""
    scn = case_scenario("I")
    at_rest = sp.JointState(ego=scn.initial.ego, other=sp.AgentState(s=scn.initial.other.s, v=0.0))
    arrays = scn.arrays_at(state_columns([at_rest]))
    n = int(arrays.sizes[1, 0])
    assert n < arrays.reward_other.shape[-1]  # from rest the fastest targets clamp to one acceleration
    reward_other = arrays.reward_other.copy()
    reward_other[..., n:] = np.inf  # a padding column would win any argmax that reached it
    padded = replace(arrays, reward_other=reward_other)
    terms = arrays.social_terms()
    for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.courtesy(), sp.RewardWeights.confidence()):
        [label], [response], _, _ = decisions(padded, terms, lam.values[:, None])
        assert response == int(arrays.reward_other[0, label, :n].argmax())


def test_case1_min_distance_ordering():
    # the courteous leader leaves the most room, the confident one the least
    scn = case_scenario("I")
    dist = {}
    for name in ("egoism", "courtesy", "confidence"):
        tr = _simulate(scn, getattr(sp.RewardWeights, name)())
        dist[name] = min_distance(tr)
    assert dist["courtesy"] > dist["egoism"] > dist["confidence"]


def test_follower_choice_mirrors_swapped_leader_rows():
    from socialplan.scenarios import crossing_scenario

    scn = crossing_scenario(dist_ego=15.0, v_ego=6.0, dist_other=15.0, v_other=6.0)
    arrays = scn.arrays_at(state_columns([scn.initial]))
    swapped = scn.swapped()
    arrays_sw = swapped.arrays_at(state_columns([swapped.initial]))
    ne, no = arrays.sizes[:, 0].tolist()
    for i in range(ne):
        # the leader commits to label i
        committed = SimpleNamespace(leader_labels=lambda entries, lams: np.full(len(entries), i))
        _, [follower], _, _ = decisions(arrays, committed, sp.RewardWeights.egoism().values[:, None])
        # the same utilities sit in the swapped build's ego matrix, transposed
        assert follower == int(np.argmax(arrays_sw.reward_ego[0, :no, i]))
