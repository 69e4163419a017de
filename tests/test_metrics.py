from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.inference import InferenceSeries
from socialplan.metrics import POLICY_LABELS, min_distance, trajectory_mse
from socialplan.scenarios import case_scenario
from socialplan.workflows import write_lambda_csv
from reference_scalar import trajectory
from example_checks import check_dop_examples, check_mse_examples, check_psf_examples


def test_spec_examples():
    check_psf_examples()
    check_dop_examples()
    check_mse_examples()


def test_dominance_tie_breaks_in_label_order():
    third = 1.0 / 3.0
    assert sp.dominant_policy([third, third, third]) == "egoism"
    assert sp.dominant_policy([0.1, 0.45, 0.45]) == "courtesy"
    assert sp.dominant_policy(sp.RewardWeights.confidence()) == "confidence"


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(*[st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0])] * 3), min_size=1, max_size=30))
def test_dominance_statistics_follow_the_per_row_rule_on_tie_heavy_series(tmp_path_factory, rows):
    """psf, dop, dominant_policy and the lambda CSV's dominant_policy column, which read one argmax over the series,
    against the per-row rule: the label of the first largest component."""
    labels = [POLICY_LABELS[max(range(3), key=row.__getitem__)] for row in rows]
    assert sp.psf(rows) == sum(a != b for a, b in zip(labels, labels[1:]))
    assert sp.dop(rows) == {name: labels.count(name) / len(labels) for name in POLICY_LABELS}
    assert [sp.dominant_policy(row) for row in rows] == labels
    path = tmp_path_factory.mktemp("lambdas") / "lambdas.csv"
    write_lambda_csv(path, {7: InferenceSeries(frames=np.arange(len(rows)), lambdas=np.array(rows))})
    assert [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]] == labels


def _constant_distance_trace(sep, n=4):
    path_e = sp.ReferencePath([(0, 0), (100, 0)], 10.0)
    path_o = sp.ReferencePath([(0, sep), (100, sep)], 10.0)
    states = [
        sp.JointState(ego=sp.AgentState(s=5.0 * k, v=5.0), other=sp.AgentState(s=5.0 * k, v=5.0), t=k)
        for k in range(n + 1)
    ]
    return sp.InteractionTrace(
        joint_states=states,
        a_ego=np.zeros(n),
        a_other=np.zeros(n),
        lambda_ego=np.tile([1.0, 0, 0], (n, 1)),
        lambda_other=np.tile([1.0, 0, 0], (n, 1)),
        dt=0.25,
        conflict=sp.ConflictPoint(position=np.zeros(2), s_ego=1e9, s_other=1e9),
        path_ego=path_e,
        path_other=path_o,
        terminated=True,
    )


def test_are_constant_and_mean():
    assert abs(sp.are(_constant_distance_trace(5.0)) - 5.0) < 1e-12
    # separations 4 then 6 over two states
    tr = _constant_distance_trace(4.0, n=1)
    tr.joint_states[1] = sp.JointState(
        ego=sp.AgentState(s=5.0, v=5.0, d=0.0), other=sp.AgentState(s=5.0, v=5.0, d=2.0), t=1
    )
    assert abs(sp.are(tr) - 5.0) < 1e-12


def test_ait_values():
    tr = _constant_distance_trace(5.0, n=10)
    assert abs(sp.ait(tr) - 2.5) < 1e-12
    tr1 = _constant_distance_trace(5.0, n=0)
    assert sp.ait(tr1) == 0.0


def test_interaction_stats_invariants():
    trace = _constant_distance_trace(5.0)
    assert sp.are(trace) >= min_distance(trace) >= 0.0
    assert sp.ait(trace) >= 0.0


def test_mse_symmetry_and_zero_iff():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(3, 10)
        a = SimpleNamespace(xy=rng.normal(size=(n, 2)), dt=0.25)
        b = SimpleNamespace(xy=rng.normal(size=(n, 2)), dt=0.25)
        h = float((n - 1) * 0.25)
        assert abs(trajectory_mse(a, b, h) - trajectory_mse(b, a, h)) < 1e-15
        assert trajectory_mse(a, a, h) == 0.0
        if not np.array_equal(a.xy, b.xy):
            assert trajectory_mse(a, b, h) > 0.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 7),
    length=st.integers(1, 35),
    extra=st.integers(0, 5),
    dt=st.sampled_from([0.08, 0.1, 0.25]),
    seed=st.integers(0, 2**32 - 1),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_horizon_mse_matches_trajectory_mse_bit_for_bit(n, length, extra, dt, seed, fractions):
    rng = np.random.default_rng(seed)
    generated = rng.normal(scale=20.0, size=(n, length + extra, 2))
    truth = rng.normal(scale=20.0, size=(length, 2))
    horizons = [f * (length - 1) * dt for f in fractions]
    table = sp.horizon_mse(generated, truth, dt, horizons)
    assert table.shape == (len(horizons), n)
    observed = SimpleNamespace(xy=truth, dt=dt)
    for row, horizon in zip(table, horizons):
        steps = int(np.floor(horizon / dt + 1e-9))
        for label in range(n):
            one = trajectory_mse(SimpleNamespace(xy=generated[label], dt=dt), observed, horizon)
            # the one-pair arithmetic trajectory_mse was first written as
            diff = generated[label][: steps + 1] - truth[: steps + 1]
            reference = float(np.mean(np.sum(diff * diff, axis=1)))
            assert row[label].tobytes() == np.float64(one).tobytes() == np.float64(reference).tobytes()


def test_horizon_mse_checks_every_horizon():
    xy = np.zeros((2, 5, 2))
    with pytest.raises(sp.HorizonExceedsTraceError, match="horizon 1.0 s needs 5 samples, have 5 and 4"):
        sp.horizon_mse(xy, np.zeros((4, 2)), 0.25, (0.5, 1.0))


def test_mse_errors():
    a = SimpleNamespace(xy=np.zeros((3, 2)), dt=0.25)
    with pytest.raises(sp.HorizonExceedsTraceError):
        trajectory_mse(a, a, 1.0)
    b = SimpleNamespace(xy=np.zeros((3, 2)), dt=0.1)
    with pytest.raises(ValueError):
        trajectory_mse(a, b, 0.2)


def test_psf_dop_relationship():
    rng = np.random.default_rng(1)
    for _ in range(100):
        series = rng.dirichlet(np.ones(3), size=rng.integers(1, 20))
        counts = sp.psf(series)
        fractions = sp.dop(series)
        assert counts <= len(series) - 1
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        if counts == 0:
            assert sorted(fractions.values()) == [0.0, 0.0, 1.0]


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        sp.psf([])
    with pytest.raises(ValueError):
        sp.dop([])


def test_are_ait_rigid_motion_invariance():
    base = case_scenario("I")
    tr = sp.simulate(base, sp.PolicySpec.fixed(sp.RewardWeights.egoism()), sp.PolicySpec.follower())

    theta, shift = np.pi / 6, np.array([13.0, -7.0])
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])

    def moved(path):
        return sp.ReferencePath(path.points @ rot.T + shift, path.speed_limit)

    moved_scn = sp.Scenario.create(
        moved(base.path_ego), moved(base.path_other), base.initial, base.sampler, base.rewards
    )
    tr2 = sp.simulate(moved_scn, sp.PolicySpec.fixed(sp.RewardWeights.egoism()), sp.PolicySpec.follower())
    assert abs(sp.are(tr) - sp.are(tr2)) < 1e-6
    assert sp.ait(tr) == sp.ait(tr2)


def test_regen_self_consistency_on_egoistic_agent():
    """Regenerating an egoism trace with the egoism policy beats the courtesy policy at 1 s."""
    from socialplan.scenarios import fixture_scenario
    from socialplan.planner import plan_ego
    from types import SimpleNamespace as NS

    scn = fixture_scenario("egoism")
    tr = sp.simulate(
        scn, sp.PolicySpec.fixed(sp.RewardWeights.egoism()), sp.PolicySpec.follower(), max_steps=400
    )
    s_e = np.array([js.ego.s for js in tr.joint_states])
    v_e = np.array([js.ego.v for js in tr.joint_states])
    s_o = np.array([js.other.s for js in tr.joint_states])
    v_o = np.array([js.other.v for js in tr.joint_states])
    xy_obs = scn.path_ego.position(s_e, 0.0)
    hsteps = int(1.0 / tr.dt + 1e-9)
    mse = {"egoism": 0.0, "courtesy": 0.0}
    for k in range(0, len(s_e) - 1 - hsteps, 5):
        x0 = sp.JointState(
            ego=sp.AgentState(s=float(s_e[k]), v=float(v_e[k])),
            other=sp.AgentState(s=float(s_o[k]), v=float(v_o[k])),
            t=k,
        )
        observed = NS(xy=xy_obs[k : k + hsteps + 1], dt=tr.dt)
        for name in mse:
            label, space = plan_ego(x0, getattr(sp.RewardWeights, name)(), scn)
            mse[name] += trajectory_mse(trajectory(space.ego_candidates, label), observed, 1.0)
    assert mse["egoism"] < mse["courtesy"]
