"""Offline replay: run_regen and run_infer against their definitions, and how many spaces they build.

The definition replays each seat of a pair on its own: the full posterior
series (infer_agent) for the pair's ego seat and then for the other seat
under scenario.swapped(), and for regeneration one fresh leader decision
(plan_ego) per policy at every regeneration frame.  The workflows instead
replay both seats in lockstep from one build per chunk of observed states
(PairReplay): the other seat's spaces are views of the ego seat's arrays,
and each space serves the posterior and the policies.  These tests pin that
this gives the same regen.json and inference.json bytes and raises the
definition's error, builds each observed state at most once per pair, and
never builds more than one chunk ahead.
"""
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import socialplan as sp
from socialplan import planner, sampling, workflows
from socialplan.config import load_config
from socialplan.inference import CHUNK, infer_agent, infer_trace
from socialplan.planner import plan_ego
from socialplan.scenarios import fixture_scenario, write_scenario_config

# dt 0.08 and the 1.0 s longest horizon give 12 regeneration steps; a window
# of 14 leaves the last regeneration frames without a posterior window start
CONFIGS = {
    "default": {},
    "window_above_horizon": {"window_r": 14},
    "growing_window": {"growing_window": True},
}
TEMPLATES = ("egoism", "courtesy", "confidence", "switch")


def _make_fixture(tmp, name: str):
    cfg = write_scenario_config(fixture_scenario(name), tmp / f"template_{name}", seed=2)
    lam = workflows.POLICIES["egoism" if name == "switch" else name]()
    switch = {"switch_step": 20, "lam_after": sp.RewardWeights.confidence()} if name == "switch" else {}
    return load_config(workflows.make_fixture(cfg, lam, seed=2, out_dir=tmp / f"fixture_{name}", **switch))


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    return {name: _make_fixture(tmp, name) for name in TEMPLATES}


@pytest.fixture(scope="module")
def fixture_cfg(fixtures):
    return fixtures["switch"]


def _with_inference(cfg, **changes):
    return replace(cfg, inference=replace(cfg.inference, **changes))


def _longest_steps(cfg) -> int:
    return int(np.floor(max(workflows.REGEN_HORIZONS) / cfg.sampler.dt + 1e-9))


def _reference_seat(obs_self, obs_other, scenario, cfg) -> dict:
    dt = cfg.sampler.dt
    longest = _longest_steps(cfg)
    series = infer_agent(obs_self, obs_other, scenario, cfg.inference, seed=cfg.seed)
    lam_at = dict(zip(series.frames.tolist(), series.lambdas))
    frames = range(cfg.inference.window_r, len(obs_self.s) - longest)
    sums = {name: dict.fromkeys(workflows.REGEN_HORIZONS, 0.0) for name in [*workflows.POLICIES, "estimated"]}
    for k in frames:
        x0 = sp.JointState(
            ego=sp.AgentState(s=float(obs_self.s[k]), v=float(obs_self.v[k]), d=float(obs_self.d[k])),
            other=sp.AgentState(s=float(obs_other.s[k]), v=float(obs_other.v[k]), d=float(obs_other.d[k])),
            t=k,
        )
        observed = SimpleNamespace(xy=obs_self.xy[k : k + longest + 1], dt=dt)
        for name in sums:
            lam = sp.RewardWeights(lam_at[k]) if name == "estimated" else workflows.POLICIES[name]()
            label, space = plan_ego(x0, lam, scenario)
            for h in workflows.REGEN_HORIZONS:
                sums[name][h] += sp.trajectory_mse(space.ego_candidates.trajectory(label), observed, h)
    return {
        name: {str(h): round(v / len(frames), 6) for h, v in per_h.items()}
        for name, per_h in sums.items()
    }


def _seat_by_seat(pair, scenario, cfg, seed=0):
    """infer_trace's definition: infer_agent on the ego seat, then on the swapped seat."""
    return {
        "ego": infer_agent(pair.ego, pair.other, scenario, cfg, seed),
        "other": infer_agent(pair.other, pair.ego, scenario.swapped(), cfg, seed),
    }


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _count_builds(monkeypatch) -> list:
    """Record (seat path, ego state, other state) of every state a joint space is built at.

    Replay builds through the array stage of the batch builder; a one-state
    build there would bypass it, so one fails the test.
    """
    built = []
    real = planner.build_joint_arrays

    def counting(states, path_ego, *args):
        built.extend((id(path_ego), x0.ego, x0.other) for x0 in states)
        return real(states, path_ego, *args)

    def one_state(*args):
        raise AssertionError("replay built a joint space outside the batch builder")

    monkeypatch.setattr(planner, "build_joint_arrays", counting)
    monkeypatch.setattr(planner, "build_joint_space", one_state)
    return built


@pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS.keys())
def test_regen_matches_two_pass_definition(fixture_cfg, tmp_path, changes):
    cfg = _with_inference(fixture_cfg, **changes)
    [(_, pair)] = workflows.observed_pairs(cfg)
    scenario = cfg.load_scenario()
    report = workflows.run_regen(cfg, tmp_path)
    expected = {
        "ego": _reference_seat(pair.ego, pair.other, scenario, cfg),
        "other": _reference_seat(pair.other, pair.ego, scenario.swapped(), cfg),
    }
    for role, table in expected.items():
        got = report["0"]["mse"][role]
        for name, per_h in table.items():
            assert {h: got[name][h] for h in per_h} == per_h, (role, name)


@pytest.mark.parametrize("name", TEMPLATES)
@pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS.keys())
def test_outputs_match_seat_by_seat_definition(fixtures, tmp_path, monkeypatch, name, changes):
    """regen.json and inference.json (and the lambda CSVs) byte for byte, reference computed here."""
    cfg = _with_inference(fixtures[name], **changes)
    workflows.run_regen(cfg, tmp_path / "regen")
    workflows.run_infer(cfg, tmp_path / "infer")

    scenario = cfg.load_scenario()
    tables = {
        idx: [_reference_seat(pair.ego, pair.other, scenario, cfg),
              _reference_seat(pair.other, pair.ego, scenario.swapped(), cfg)]
        for idx, pair in workflows.observed_pairs(cfg)
    }
    # run_regen's table assembly and writer, on the seat-by-seat tables
    replays = iter(tables.values())
    monkeypatch.setattr(workflows, "run_seats", lambda *seats: next(replays))
    workflows.run_regen(cfg, tmp_path / "regen_ref")
    monkeypatch.setattr(workflows, "infer_trace", _seat_by_seat)
    workflows.run_infer(cfg, tmp_path / "infer_ref")

    assert _files(tmp_path / "regen") == _files(tmp_path / "regen_ref")
    got, want = _files(tmp_path / "infer"), _files(tmp_path / "infer_ref")
    assert sorted(got) == ["inference.json", "lambdas_pair0.csv"]
    assert got == want


@pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS.keys())
def test_regen_builds_each_state_at_most_once_per_pair(fixture_cfg, tmp_path, monkeypatch, changes):
    cfg = _with_inference(fixture_cfg, **changes)
    [(_, pair)] = workflows.observed_pairs(cfg)
    built = _count_builds(monkeypatch)
    workflows.run_regen(cfg, tmp_path)
    assert built
    assert max(Counter(built).values()) == 1
    # every build is in one seat's terms: the other seat reads it swapped
    assert len({path for path, _, _ in built}) == 1
    if not changes:
        # every regeneration state is a posterior window start: one build per window, both seats
        total, r = len(pair.ego.s) - 1, cfg.inference.window_r
        assert len(built) == total - r + 1


def test_infer_trace_builds_each_state_once_per_pair(fixture_cfg, monkeypatch):
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    built = _count_builds(monkeypatch)
    result = infer_trace(pair, fixture_cfg.load_scenario(), fixture_cfg.inference, seed=fixture_cfg.seed)
    total, r = len(pair.ego.s) - 1, fixture_cfg.inference.window_r
    assert len(built) == len(set(built)) == total - r + 1
    assert [len(series.frames) for series in result.values()] == [total - r + 1] * 2


def test_growing_window_builds_one_space(fixture_cfg, monkeypatch):
    cfg = _with_inference(fixture_cfg, growing_window=True)
    [(_, pair)] = workflows.observed_pairs(cfg)
    built = _count_builds(monkeypatch)
    series = infer_agent(pair.ego, pair.other, cfg.load_scenario(), cfg.inference, seed=cfg.seed)
    assert len(series.frames) > 1
    assert len(built) == 1


def test_posterior_steps_rebuilds_only_when_the_window_start_moves(fixture_cfg, monkeypatch):
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    built = _count_builds(monkeypatch)
    steps = sp.posterior_steps(pair.ego, pair.other, fixture_cfg.load_scenario(), fixture_cfg.inference)
    r = fixture_cfg.inference.window_r
    for n, (tau, space, k, estimate) in enumerate(steps, start=1):
        assert tau == k - r
        # the n window starts used so far, and the rest of their chunk at most
        assert n <= len(built) < n + CHUNK
        assert (built[tau][1].s, built[tau][2].s) == (space.ego_candidates.s[0, 0], space.other_candidates.s[0, 0])
        assert len(space.ego_candidates) >= 1
        assert abs(estimate.values.sum() - 1.0) < 1e-9
    assert len(built) == n


def _failing_seats(monkeypatch, scenario, fail_at: set) -> None:
    """Make a seat's build raise at the first of its states whose (seat, frame) is in fail_at.

    The seat is told by its own car's path, so the swapped scenario's builds
    count as seat 1 too.
    """
    real = sampling.JointArrays.spaces

    def spaces(self):
        seat = 0 if np.array_equal(self.paths[0].points, scenario.path_ego.points) else 1
        for x in self.states:
            if (seat, x.t) in fail_at:
                raise sp.DegenerateWeightsError(f"seat {seat} fails at frame {x.t}")
        return real(self)

    monkeypatch.setattr(sampling.JointArrays, "spaces", spaces)


@pytest.mark.parametrize(
    "fail_at,expected",
    [
        ({(1, 3), (0, 20)}, "seat 0 fails at frame 20"),  # the ego seat's later error wins
        ({(0, 3), (1, 20)}, "seat 0 fails at frame 3"),
        ({(1, 3)}, "seat 1 fails at frame 3"),
        ({(1, 20), (1, 3)}, "seat 1 fails at frame 3"),
    ],
)
def test_errors_come_out_as_seat_by_seat(fixture_cfg, tmp_path, monkeypatch, fail_at, expected):
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    scenario = fixture_cfg.load_scenario()
    _failing_seats(monkeypatch, scenario, fail_at)
    with pytest.raises(sp.DegenerateWeightsError, match=expected):
        _seat_by_seat(pair, scenario, fixture_cfg.inference)
    with pytest.raises(sp.DegenerateWeightsError, match=expected):
        infer_trace(pair, scenario, fixture_cfg.inference)
    with pytest.raises(sp.DegenerateWeightsError, match=expected):
        workflows.run_regen(fixture_cfg, tmp_path)


def test_error_only_the_other_seat_hits_keeps_its_message(fixture_cfg, tmp_path):
    """A huge theta_ego makes the other seat's social terms overflow under a beta the ego seat's survive."""
    cfg = replace(fixture_cfg, rewards=replace(fixture_cfg.rewards, theta_ego=(1e300, 0.5, 10.0), beta=1e10))
    [(_, pair)] = workflows.observed_pairs(cfg)
    scenario = cfg.load_scenario()
    infer_agent(pair.ego, pair.other, scenario, cfg.inference)  # the ego seat alone runs
    with pytest.raises(sp.NonFiniteRewardError) as definition:
        infer_agent(pair.other, pair.ego, scenario.swapped(), cfg.inference)
    assert "rewards.beta = 10000000000.0" in str(definition.value)
    for run in (lambda: infer_trace(pair, scenario, cfg.inference), lambda: workflows.run_regen(cfg, tmp_path)):
        with pytest.raises(sp.NonFiniteRewardError) as got:
            run()
        assert str(got.value) == str(definition.value)


def test_leader_label_breaks_ties_to_lowest_label():
    space = sp.JointBehaviorSpace.from_matrices(np.zeros((3, 2)), np.zeros((3, 2)))
    for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.courtesy(), sp.RewardWeights.confidence()):
        assert sp.leader_label(space, lam) == 0
