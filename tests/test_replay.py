"""Offline replay: run_regen and run_infer against their definitions, and how many spaces they build.

The definition replays each seat of a pair on its own: the per-frame
posterior loop (reference_builder.reference_posterior_steps) for the pair's
ego seat and then for the other seat under scenario.swapped(), and for
regeneration one fresh leader decision (plan_ego) per policy at every
regeneration frame.  The workflows replay the seats in the same order, the
ego seat to the end and then the other seat, from one build of the observed
states the run reads (replay_seats): the other seat's arrays are views of
the ego seat's, and each seat's reader (SeatReplay) keeps only what it
reads, and takes its matched labels, log-likelihoods, leader decisions and
regeneration errors from one array pass.  These tests pin that this gives
the same bytes and raises the definition's first error at the definition's
frame, builds each pair in one call of the batch builder, of exactly the
states the run reads, and builds nothing for the other seat.
"""
import contextlib
import itertools
import json
import shutil
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan import inference, planner, sampling, workflows
from socialplan.cli import main
from socialplan.config import load_config
from socialplan.core import state_columns
from socialplan.inference import (
    SeatReplay,
    infer_agent,
    infer_trace,
    init_particles,
    replay_seats,
    window_starts,
)
from socialplan.metrics import trajectory_mse
from socialplan.planner import plan_ego
from socialplan.scenarios import crossing_scenario, fixture_scenario, write_scenario_config
from reference_builder import leader_label, observed_state, reference_infer, reference_posterior_steps
from reference_scalar import space_from_matrices, trajectory
from example_checks import decide_on

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
    series = reference_infer(obs_self, obs_other, scenario, cfg.inference, seed=cfg.seed)
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
                sums[name][h] += trajectory_mse(trajectory(space.ego_candidates, label), observed, h)
    return {
        name: {str(h): round(v / len(frames), 6) for h, v in per_h.items()}
        for name, per_h in sums.items()
    }


def _seat_by_seat(pair, scenario, cfg, seed=0):
    """infer_trace's definition: the per-frame loop on the ego seat, then on the swapped seat."""
    return {
        "ego": reference_infer(pair.ego, pair.other, scenario, cfg, seed),
        "other": reference_infer(pair.other, pair.ego, scenario.swapped(), cfg, seed),
    }


def _files(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _observed_columns(pair, frames) -> list:
    """state_columns of the pair's observed states at frames, as nested lists."""
    return state_columns([observed_state(pair.ego, pair.other, k) for k in frames]).tolist()


def _count_builds(monkeypatch) -> list:
    """Record (seat path, ego state, other state) of every state a joint space is built at.

    Replay builds through the array stage of the batch builder; a one-state
    build there would bypass it, so one fails the test.
    """
    built = []
    real = planner.build_joint_arrays

    def counting(x, path_ego, *args):
        cars = zip(x[:, 0].T.tolist(), x[:, 1].T.tolist())  # each state's (s, v, d) per car
        built.extend((id(path_ego), sp.AgentState(*ego), sp.AgentState(*other)) for ego, other in cars)
        return real(x, path_ego, *args)

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
    seat_tables = itertools.chain.from_iterable(tables.values())
    monkeypatch.setattr(workflows, "_regen_agent", lambda reader, cfg, pset: next(seat_tables))
    workflows.run_regen(cfg, tmp_path / "regen_ref")
    seat_by_seat = lambda pair, scenario, icfg, particles: _seat_by_seat(pair, scenario, icfg, cfg.seed)  # noqa: E731
    monkeypatch.setattr(workflows, "_infer_pair", seat_by_seat)
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


@pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS.keys())
def test_a_replayed_pair_is_one_build(fixture_cfg, tmp_path, monkeypatch, changes):
    """run_regen and infer_trace build a pair's states in one build_joint_arrays call, for both seats."""
    cfg = _with_inference(fixture_cfg, **changes)
    [(_, pair)] = workflows.observed_pairs(cfg)
    calls = []
    real = planner.build_joint_arrays

    def counting(x, *args):
        calls.append(x.tolist())
        return real(x, *args)

    monkeypatch.setattr(planner, "build_joint_arrays", counting)
    total, r = len(pair.ego.s) - 1, cfg.inference.window_r
    starts = [0] if cfg.inference.growing_window else list(range(total - r + 1))
    regen = range(r, total + 1 - _longest_steps(cfg))
    workflows.run_regen(cfg, tmp_path)
    assert calls == [_observed_columns(pair, sorted({*starts, *regen}))]
    calls.clear()
    infer_trace(pair, cfg.load_scenario(), cfg.inference, seed=cfg.seed)
    assert calls == [_observed_columns(pair, starts)]


def test_infer_trace_builds_each_state_once_per_pair(fixture_cfg, monkeypatch):
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    built = _count_builds(monkeypatch)
    result = infer_trace(pair, fixture_cfg.load_scenario(), fixture_cfg.inference, seed=fixture_cfg.seed)
    total, r = len(pair.ego.s) - 1, fixture_cfg.inference.window_r
    assert len(built) == len(set(built)) == total - r + 1
    assert [len(series.frames) for series in result.values()] == [total - r + 1] * 2


@pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS.keys())
def test_the_other_seat_replays_after_the_ego_seat_from_its_builds(fixture_cfg, tmp_path, monkeypatch, changes):
    """Every posterior pass of the ego seat comes before the other seat's first, and the other seat builds nothing."""
    cfg = _with_inference(fixture_cfg, **changes)
    [(_, pair)] = workflows.observed_pairs(cfg)
    events = []
    real_pass, real_build = SeatReplay.posterior_pass, planner.build_joint_arrays

    def posterior_pass(self, *args):
        events.append(("request", 0 if self.obs.track_id == pair.ego.track_id else 1))
        return real_pass(self, *args)

    def counting(*args):
        events.append(("build", None))
        return real_build(*args)

    monkeypatch.setattr(SeatReplay, "posterior_pass", posterior_pass)
    monkeypatch.setattr(planner, "build_joint_arrays", counting)
    runs = {
        "infer_trace": lambda: infer_trace(pair, cfg.load_scenario(), cfg.inference, seed=cfg.seed),
        "run_regen": lambda: workflows.run_regen(cfg, tmp_path),
    }
    for name, run in runs.items():
        events.clear()
        run()
        seats = [seat for kind, seat in events if kind == "request"]
        assert 0 in seats and 1 in seats, name
        assert seats == sorted(seats), name
        first_other = events.index(("request", 1))
        assert ("build", None) in events[:first_other], name
        assert ("build", None) not in events[first_other:], name


def test_a_run_draws_its_particles_once_and_each_pair_keeps_its_bytes(tmp_path, monkeypatch):
    """One track file of the courtesy fixture's tracks and an egoism fixture's, their ids shifted by 2, gives four
    pairs.  run_infer and run_regen draw the particles once on it, and pair 0 writes what the courtesy fixture
    alone writes."""
    template = write_scenario_config(fixture_scenario("courtesy"), tmp_path / "template", seed=0)
    for name in ("courtesy", "egoism"):
        workflows.make_fixture(template, workflows.POLICIES[name](), seed=0, out_dir=tmp_path / name)
    shutil.copytree(tmp_path / "courtesy", tmp_path / "pairs")
    rows = (tmp_path / "egoism" / "tracks.csv").read_text().splitlines()[1:]
    with open(tmp_path / "pairs" / "tracks.csv", "a", encoding="utf-8") as f:
        f.writelines(f"{int(tid) + 2},{rest}\n" for tid, rest in (row.split(",", 1) for row in rows))
    draws, real = [], workflows.init_particles
    monkeypatch.setattr(workflows, "init_particles", lambda *args: draws.append(args) or real(*args))
    for run, artefact in ((workflows.run_infer, "inference.json"), (workflows.run_regen, "regen.json")):
        pairs = {}
        for fixture in ("courtesy", "pairs"):
            draws.clear()
            out = tmp_path / run.__name__ / fixture
            run(load_config(tmp_path / fixture / "scenario.json"), out)
            assert len(draws) == 1, (run.__name__, fixture)
            pairs[fixture] = json.loads((out / artefact).read_text())["pairs"]
        assert sorted(pairs["courtesy"]) == ["0"] and sorted(pairs["pairs"]) == ["0", "1", "2", "3"]
        assert pairs["pairs"]["0"] == pairs["courtesy"]["0"]
    alone, together = ((tmp_path / "run_infer" / fixture / "lambdas_pair0.csv").read_bytes() for fixture in pairs)
    assert together == alone


def test_growing_window_builds_one_space(fixture_cfg, monkeypatch):
    cfg = _with_inference(fixture_cfg, growing_window=True)
    [(_, pair)] = workflows.observed_pairs(cfg)
    built = _count_builds(monkeypatch)
    series = infer_agent(pair.ego, pair.other, cfg.load_scenario(), cfg.inference, seed=cfg.seed)
    assert len(series.frames) > 1
    assert len(built) == 1


def test_posterior_steps_rebuilds_only_when_the_window_start_moves(fixture_cfg, monkeypatch):
    """One build of exactly the window starts, before the first frame; each frame reads its window start's entry."""
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    built = _count_builds(monkeypatch)
    r = fixture_cfg.inference.window_r
    starts = window_starts(pair.ego, fixture_cfg.inference)
    reader, _ = replay_seats(pair.ego, pair.other, fixture_cfg.load_scenario(), starts)
    stops, means, error = reader.posterior_pass(fixture_cfg.inference, init_particles(fixture_cfg.inference))
    assert error is None
    entries = [k - r for k in stops]
    for n, (i, k, estimate) in enumerate(zip(entries, stops, means), start=1):
        tau = reader.frames[i]
        assert tau == k - r == i
        assert reader.frames == list(starts)
        assert len(built) == len(starts)
        x = observed_state(pair.ego, pair.other, tau)
        assert (built[tau][1], built[tau][2]) == (x.ego, x.other)
        assert reader.terms.ne[i] >= 1
        assert estimate.shape == (3,) and abs(estimate.sum() - 1.0) < 1e-9
    assert n == len(starts) == len(built)


def _failing_seats(monkeypatch, pair, scenario, fail_at: set) -> None:
    """Make a seat's build of the pair's states fail at the first of its states whose (seat, frame) is in fail_at.

    The error goes where every seat's build reports its first failing
    state, SeatTerms.error, unless a real failure comes before it: replay
    raises it where it first uses the state, and JointArrays.spaces() at
    once.  The seat is told by its own car's path, so the swapped
    scenario's builds count as seat 1 too, and a state's frame by its two
    cars' arclengths, which no two frames of the pair share.
    """
    real = sampling.JointArrays.social_terms
    frames = {key: k for k, key in enumerate(zip(pair.ego.s.tolist(), pair.other.s.tolist()))}
    assert len(frames) == len(pair.ego.s)

    def social_terms(self):
        terms = real(self)
        seat = 0 if np.array_equal(self.paths[0].points, scenario.path_ego.points) else 1
        s = self.states[0, :, : terms.sound]  # (this seat's car, the other car)
        for i, key in enumerate(zip(*(s if seat == 0 else s[::-1]).tolist())):
            if (seat, frames[key]) in fail_at:
                error = sp.DegenerateWeightsError(f"seat {seat} fails at frame {frames[key]}")
                return replace(terms, error=(i, error))
        return terms

    monkeypatch.setattr(sampling.JointArrays, "social_terms", social_terms)


_REWEIGH = inference._reweigh


def _degenerate_at(monkeypatch, r: int, fail_at: set) -> None:
    """Make the weight recursion raise DegenerateWeightsError at each (seat, frame) in fail_at.

    A seat's weights pass from each step to the next, so a step is told by
    the chain its input weights belong to.  Chains start in seat order, in
    the replay and in the seat-by-seat definition alike, and the first step
    of each is at frame r.  Call it again before each run.
    """
    at, seats, kept = {}, itertools.count(), []

    def reweigh(weights, loglik, resample):
        seat, k = at.pop(id(weights), None) or (next(seats), r)
        if (seat, k) in fail_at:
            raise sp.DegenerateWeightsError(f"seat {seat} degenerates at frame {k}")
        out = _REWEIGH(weights, loglik, resample)
        kept.append(out[0])  # alive, so that no later array takes its id
        at[id(out[0])] = (seat, k + 1)
        return out

    monkeypatch.setattr(inference, "_reweigh", reweigh)


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
    _failing_seats(monkeypatch, pair, scenario, fail_at)
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
    reference_infer(pair.ego, pair.other, scenario, cfg.inference)  # the ego seat alone runs
    with pytest.raises(sp.NonFiniteRewardError) as definition:
        reference_infer(pair.other, pair.ego, scenario.swapped(), cfg.inference)
    assert "rewards.beta = 10000000000.0" in str(definition.value)
    for run in (lambda: infer_trace(pair, scenario, cfg.inference), lambda: workflows.run_regen(cfg, tmp_path)):
        with pytest.raises(sp.NonFiniteRewardError) as got:
            run()
        assert str(got.value) == str(definition.value)


def test_leader_label_breaks_ties_to_lowest_label():
    """Every ego candidate ties: the leader takes label 0 on one space (plan_ego) and on a build (SeatTerms)."""
    space = space_from_matrices(np.zeros((3, 2)), np.zeros((3, 2)))
    scenario = SimpleNamespace(space_at=lambda x0: space)
    for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.courtesy(), sp.RewardWeights.confidence()):
        assert plan_ego(None, lam, scenario) == (0, space)
        assert decide_on(space, lam)[0] == 0


# r = 10: window start tau is first used at posterior frame tau + 10, before
# that frame's update, so a build error at tau and a degeneracy at k come out
# in the order of tau + 10 and k
@pytest.mark.parametrize(
    "degenerate,fail_at,expected",
    [
        ({(0, 13)}, set(), "seat 0 degenerates at frame 13"),
        ({(1, 13)}, set(), "seat 1 degenerates at frame 13"),
        ({(1, 11), (0, 22)}, set(), "seat 0 degenerates at frame 22"),  # the ego seat's later error wins
        ({(0, 17)}, {(0, 8)}, "seat 0 degenerates at frame 17"),  # window start 8 is first used at frame 18
        ({(0, 18)}, {(0, 15)}, "seat 0 degenerates at frame 18"),  # window start 15 is first used at frame 25
        ({(0, 30)}, {(1, 8)}, "seat 0 degenerates at frame 30"),
        ({(1, 17)}, {(1, 8)}, "seat 1 degenerates at frame 17"),
        ({(1, 18)}, {(1, 15)}, "seat 1 degenerates at frame 18"),
    ],
)
def test_frame_errors_come_out_in_frame_order(fixture_cfg, tmp_path, monkeypatch, degenerate, fail_at, expected):
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    scenario = fixture_cfg.load_scenario()
    r = fixture_cfg.inference.window_r
    _failing_seats(monkeypatch, pair, scenario, fail_at)
    _degenerate_at(monkeypatch, r, degenerate)
    with pytest.raises(sp.DegenerateWeightsError, match=expected):
        _seat_by_seat(pair, scenario, fixture_cfg.inference)
    runs = (
        lambda: infer_trace(pair, scenario, fixture_cfg.inference),
        lambda: workflows.run_regen(fixture_cfg, tmp_path),
    )
    for run in runs:
        _degenerate_at(monkeypatch, r, degenerate)
        with pytest.raises(sp.DegenerateWeightsError, match=expected):
            run()


# dt 0.08 and the 1.0 s longest horizon leave regeneration frames r .. 32 on the fixture's 45 frames.  The
# per-frame definition (the rule in workflows._regen_agent) regenerates a window start tau, and raises its build
# error, at posterior frame tau + r, and a frame that starts no window after the seat's whole pass; a degeneracy
# at k comes out at frame k.  Under window_r 14 the window starts are 0 .. 30, so frames 31 and 32 start none;
# under growing_window every window starts at frame 0, so no regeneration frame starts one
@pytest.mark.parametrize(
    "changes,degenerate,fail_at,expected",
    [
        ({"window_r": 14}, {(0, 40)}, {(0, 31)}, "seat 0 degenerates at frame 40"),  # 31 waits for the whole pass
        ({"window_r": 14}, set(), {(0, 32)}, "seat 0 fails at frame 32"),
        ({"window_r": 14}, {(0, 35)}, {(0, 20)}, "seat 0 fails at frame 20"),  # window start 20 is used at frame 34
        ({"window_r": 14}, {(0, 30)}, {(0, 20)}, "seat 0 degenerates at frame 30"),
        ({"window_r": 14}, {(1, 44)}, {(1, 31)}, "seat 1 degenerates at frame 44"),
        ({"window_r": 14}, {(1, 20)}, {(0, 31)}, "seat 0 fails at frame 31"),  # the ego seat regenerates first
        ({"growing_window": True}, {(0, 30)}, {(0, 12)}, "seat 0 degenerates at frame 30"),
        ({"growing_window": True}, set(), {(0, 12)}, "seat 0 fails at frame 12"),
        ({"growing_window": True}, {(0, 20)}, {(0, 25)}, "seat 0 degenerates at frame 20"),
        ({"growing_window": True}, {(1, 40)}, {(1, 15)}, "seat 1 degenerates at frame 40"),
        ({"growing_window": True}, {(1, 11)}, {(0, 32)}, "seat 0 fails at frame 32"),
    ],
)
def test_regeneration_errors_come_out_in_schedule_order_where_frames_start_no_window(
    fixture_cfg, tmp_path, monkeypatch, changes, degenerate, fail_at, expected
):
    cfg = _with_inference(fixture_cfg, **changes)
    [(_, pair)] = workflows.observed_pairs(cfg)
    assert len(pair.ego.s) == 45 and _longest_steps(cfg) == 12
    _failing_seats(monkeypatch, pair, cfg.load_scenario(), fail_at)
    _degenerate_at(monkeypatch, cfg.inference.window_r, degenerate)
    with pytest.raises(sp.DegenerateWeightsError, match=f"^{expected}$"):
        workflows.run_regen(cfg, tmp_path)


@pytest.mark.parametrize("car", ["ego", "other"])
def test_a_state_that_fails_mid_chunk_raises_at_its_own_frame(fixture_cfg, tmp_path, monkeypatch, car):
    """A speed of 1e300 at one observed state overflows that state's rollout (the ego car's: its features;
    the other car's: the social terms as well).  Its error comes out at its own frame, after the frames
    before it, and the arithmetic of the states before it raises no RuntimeWarning."""
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    scenario = fixture_cfg.load_scenario()
    cfg = fixture_cfg.inference
    tau = 13  # mid-build
    v = getattr(pair, car).v.copy()
    v[tau] = 1e300
    failing = replace(pair, **{car: replace(getattr(pair, car), v=v)})
    want = []
    with pytest.raises(sp.NonFiniteRewardError) as definition:
        for *_, k, _, estimate in reference_posterior_steps(failing.ego, failing.other, scenario, cfg):
            want.append((k, estimate.values.tobytes()))
    assert [k for k, _ in want] == list(range(cfg.window_r, tau + cfg.window_r))
    monkeypatch.setattr(workflows, "observed_pairs", lambda *_: [(0, failing)])
    reader, _ = replay_seats(failing.ego, failing.other, scenario, window_starts(failing.ego, cfg))
    stops, means, error = reader.posterior_pass(cfg, init_particles(cfg))
    got = [(k, estimate.tobytes()) for k, estimate in zip(stops, means)]
    assert isinstance(error, sp.NonFiniteRewardError)
    assert str(error) == str(definition.value)
    assert got == want
    # regeneration scores and decides at frames 10..12 of the failing state's build first
    for run in (lambda: infer_trace(failing, scenario, cfg), lambda: workflows.run_regen(fixture_cfg, tmp_path)):
        with pytest.raises(sp.NonFiniteRewardError) as error:
            run()
        assert str(error.value) == str(definition.value)


def _with_sampler(cfg, tmp_path, **changes):
    """A copy of the fixture under tmp_path / "in" with the sampler's changes; returns its config path."""
    shutil.copytree(cfg.base_dir, tmp_path / "in")
    config = tmp_path / "in" / "scenario.json"
    data = json.loads(config.read_text())
    data["sampler"].update(changes)
    config.write_text(json.dumps(data))
    return config


_HORIZON_ERROR = "HorizonExceedsTraceError: horizon 1.0 s needs 13 samples, have 11 and 13"


@pytest.mark.parametrize(
    "degenerate,expected",
    [
        (set(), _HORIZON_ERROR),
        # the config alone decides the horizon error, so it comes before any posterior error, such as this one
        ({(0, 20)}, _HORIZON_ERROR),
        ({(0, 21)}, _HORIZON_ERROR),
        ({(1, 15)}, _HORIZON_ERROR),
    ],
)
def test_regen_raises_the_horizon_error_at_the_first_regeneration_frame(
    fixtures, tmp_path, monkeypatch, capsys, degenerate, expected
):
    """horizon_steps 10 at dt 0.08 rolls out 11 samples, and the 1.0 s horizon needs 13: an error before any build."""
    cfg = fixtures["egoism"]
    config = _with_sampler(cfg, tmp_path, horizon_steps=10)
    _degenerate_at(monkeypatch, cfg.inference.window_r, degenerate)
    assert main(["regen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"socialplan: {expected}")
    assert not (tmp_path / "o").exists()


def test_regen_skips_a_pair_too_short_to_regenerate_before_the_horizon_error(
    fixtures, tmp_path, monkeypatch, capsys, caplog
):
    """A pair of 22 frames has no regeneration frame at 12 steps a horizon: it is skipped, and the next raises."""
    cfg = fixtures["egoism"]
    config = _with_sampler(cfg, tmp_path, horizon_steps=10)
    observed_pairs = workflows.observed_pairs

    def with_a_short_pair(*args):
        [(_, pair)] = observed_pairs(*args)
        head = {car: replace(getattr(pair, car), **{f: getattr(getattr(pair, car), f)[:22]
                                                    for f in ("times_ms", "s", "v", "d", "xy")})
                for car in ("ego", "other")}
        return [(0, replace(pair, **head)), (1, pair)]

    monkeypatch.setattr(workflows, "observed_pairs", with_a_short_pair)
    caplog.set_level("INFO", logger="socialplan.workflows")
    assert main(["regen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"socialplan: {_HORIZON_ERROR}")
    assert [r.getMessage() for r in caplog.records] == [
        "pair 0 (tracks 0, 1) skipped: track too short to regenerate at the longest horizon"
    ]


def test_regen_builds_nothing_before_a_horizon_error(fixtures, tmp_path, monkeypatch, capsys):
    """At dt 0.00076 the courtesy fixture's grid has about 2,000 steps: a build of them would take about 1.5 s
    and 490 MB, for an error the config alone decides."""
    cfg = fixtures["courtesy"]
    config = _with_sampler(cfg, tmp_path, dt=0.00076)
    built = []
    monkeypatch.setattr(planner.Scenario, "arrays_at", lambda self, x: built.append(x.shape[-1]))
    assert main(["regen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("socialplan: HorizonExceedsTraceError: horizon 0.3 s needs 395 samples, have 31 and 1316")
    assert built == []


_FRACTIONS = [k / 8 for k in range(13)]
_PRIORS = [
    sp.PriorSpec(),
    sp.PriorSpec(kind="dirichlet", alpha=(2.0, 1.0, 0.5)),
    sp.PriorSpec(kind="dop", fractions=(0.6, 0.3, 0.1), concentration=8.0),
]


# per car: s, v, d and the offset of the observed xy from the path, one value per frame
_RANGES = ((0.0, 90.0), (0.0, 25.0), (-1.0, 1.0), (-1.0, 1.0)) * 2
_tracks = st.integers(2, 41).flatmap(
    lambda n: st.tuples(*(st.lists(st.floats(lo, hi), min_size=n, max_size=n) for lo, hi in _RANGES))
)


def _example_tracks(n: int, speeds: tuple[float, float] = _RANGES[1]) -> tuple:
    """Tracks whose values sweep their whole range once every 8 frames, the speeds over speeds."""
    ramp = np.arange(n) % 8 / 7
    ranges = [speeds if c % 4 == 1 else r for c, r in enumerate(_RANGES)]
    return tuple((lo + (hi - lo) * (ramp if c % 2 else ramp[::-1])).tolist() for c, (lo, hi) in enumerate(ranges))


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(1, 12),
    dt=st.sampled_from([0.08, 0.25]),
    fractions=st.lists(st.sampled_from(_FRACTIONS), min_size=1, max_size=9),
    tracks=_tracks,
    window_r=st.integers(1, 44),
    growing=st.booleans(),
    resample=st.booleans(),
    prior=st.sampled_from(_PRIORS),
    n_particles=st.integers(2, 40),
    seed=st.integers(0, 2**16),
)
# speeds sweep 0..25 m/s every 8 frames, over a 0.5 s rollout: fans of 1 to 4 candidates
# in one build; a short window, resampling
@example(
    horizon=2, dt=0.25, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], tracks=_example_tracks(21),
    window_r=3, growing=False, resample=True, prior=_PRIORS[2], n_particles=30, seed=1,
)
# window_r above N + 1, so every window is cut to the rollout's length
@example(
    horizon=4, dt=0.08, fractions=[0.0, 0.5, 1.0], tracks=_example_tracks(30),
    window_r=9, growing=False, resample=False, prior=_PRIORS[1], n_particles=7, seed=2,
)
# growing_window: one state serves every frame
@example(
    horizon=12, dt=0.08, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], tracks=_example_tracks(30),
    window_r=12, growing=True, resample=True, prior=_PRIORS[0], n_particles=16, seed=3,
)
# resampled means at the particle counts the workloads use (100, and 101 off the square
# covering), over 41 frames and under growing_window
@example(
    horizon=6, dt=0.08, fractions=[0.0, 0.25, 0.5, 0.75, 1.0], tracks=_example_tracks(41),
    window_r=3, growing=False, resample=True, prior=_PRIORS[0], n_particles=100, seed=4,
)
@example(
    horizon=6, dt=0.08, fractions=[0.0, 0.5, 1.0, 1.25], tracks=_example_tracks(41),
    window_r=5, growing=True, resample=True, prior=_PRIORS[2], n_particles=101, seed=5,
)
# nine targets and speeds of 4..6 m/s over a 3 s rollout: nine unclamped candidates on each
# side, so every softmax sums at least 8 terms, where numpy starts to add pairwise
@example(
    horizon=12, dt=0.25, fractions=[k / 8 for k in range(9)], tracks=_example_tracks(30, speeds=(4.0, 6.0)),
    window_r=5, growing=False, resample=False, prior=_PRIORS[0], n_particles=100, seed=6,
)
@example(
    horizon=12, dt=0.25, fractions=[k / 8 for k in range(9)], tracks=_example_tracks(25, speeds=(4.0, 6.0)),
    window_r=4, growing=True, resample=True, prior=_PRIORS[2], n_particles=40, seed=7,
)
def test_chunk_arithmetic_matches_the_per_frame_loop(
    horizon, dt, fractions, tracks, window_r, growing, resample, prior, n_particles, seed
):
    """Estimates, matched and leader labels, regeneration errors and their sums, batched against per frame, as bytes."""
    sampler = sp.SamplerConfig(horizon_steps=horizon, dt=dt, terminal_speed_fractions=tuple(fractions))
    rewards = sp.RewardConfig(theta_other=(1.0, 1.5, 5.0))
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, limit_other=7.0, sampler=sampler, rewards=rewards)
    cfg = sp.InferenceConfig(
        n_particles=n_particles, window_r=window_r, prior=prior, resample=resample, growing_window=growing
    )
    steps = len(tracks[0]) - 1
    obs = []
    for path, columns in ((scn.path_ego, tracks[:4]), (scn.path_other, tracks[4:])):
        s, v, d, off = map(np.array, columns)
        obs.append(SimpleNamespace(s=s, v=v, d=d, xy=path.position(s, d) + off[:, None]))
    seats = replay_seats(*obs, scn, window_starts(obs[0], cfg)) if steps >= window_r else None
    pset = init_particles(cfg, seed)
    horizons = sorted({dt, horizon * dt})
    fixed = [make() for make in workflows.POLICIES.values()]
    for seat, seat_scenario in enumerate((scn, scn.swapped())):
        obs_self, obs_other = obs[seat], obs[1 - seat]
        if steps < window_r:
            with pytest.raises(sp.ShortTrackError):
                window_starts(obs_self, cfg)
            with pytest.raises(sp.ShortTrackError):
                next(reference_posterior_steps(obs_self, obs_other, seat_scenario, cfg, seed))
            continue
        reader = seats[seat]
        stops, means, error = reader.posterior_pass(cfg, pset)
        assert error is None
        entries = [0 if growing else k - window_r for k in stops]
        got = list(zip(entries, stops, means))
        want = list(reference_posterior_steps(obs_self, obs_other, seat_scenario, cfg, seed))
        assert [(reader.frames[i], k) for i, k, _ in got] == [(tau, k) for tau, _, k, _, _ in want]
        assert [e.tobytes() for *_, e in got] == [e.values.tobytes() for *_, e in want]

        space_at = {tau: space for tau, space, *_ in want}
        assert reader.matched_labels(entries, stops).tolist() == [m for *_, m, _ in want]
        every = range(reader.terms.sound)
        for lam in fixed:
            want_labels = [leader_label(space_at[tau], lam) for tau in reader.frames]
            got_labels = reader.terms.leader_labels(every, np.broadcast_to(lam.values[:, None], (3, len(every))))
            assert got_labels.tolist() == want_labels
        batched = reader.terms.leader_labels(entries, means.T)
        for (i, _, estimate), label in zip(got, batched):
            want_label = leader_label(space_at[reader.frames[i]], sp.RewardWeights(estimate))
            assert label == reader.terms.leader_labels([i], estimate[:, None])[0] == want_label
        scored = [i for i, tau in enumerate(reader.frames) if tau + horizon <= steps]
        truth = np.stack([obs_self.xy[reader.frames[i] : reader.frames[i] + horizon + 1] for i in scored] or
                         [np.zeros((horizon + 1, 2))])
        mse = sp.horizon_mse(reader.ego_xy[scored], truth[: len(scored)], dt, horizons)
        for row, i in zip(mse, scored):
            xy = space_at[reader.frames[i]].ego_candidates.xy
            one = sp.horizon_mse(xy, truth[scored.index(i)], dt, horizons)
            assert row[:, : len(xy)].tobytes() == one.tobytes()
        if scored:  # the regeneration sums, as the += loop over frames adds them (not sum(): 3.12 compensates)
            lams = np.stack([np.tile(lam.values[:, None], (1, len(scored))) for lam in fixed], axis=1)
            labels = reader.terms.leader_labels(scored, lams)
            totals = workflows._frame_sums(mse, labels)
            for per_h, by_frame in zip(totals, labels):
                for h, total in enumerate(per_h):
                    acc = 0.0
                    for f, label in enumerate(by_frame):
                        acc += float(mse[f, h, label])
                    assert np.float64(total).tobytes() == np.float64(acc).tobytes()


def _posterior_pass_with_fault(pair, scenario, cfg, seat, fault, at, block_elements):
    """SeatReplay.posterior_pass under a _BLOCK_ELEMENTS of block_elements, with a fault at posterior frame at.

    fault is None, "build" (the state of frame at's window start fails),
    "degenerate" (frame at's update) or "off_simplex" (frame at's mean).
    """
    real_terms, real_reweigh, real_means = sampling.JointArrays.social_terms, inference._reweigh, inference._means
    calls, seen = itertools.count(), [0]

    def social_terms(self):
        terms = real_terms(self)
        entry = 0 if cfg.growing_window else at
        return replace(terms, error=(entry, sp.NonFiniteRewardError(f"state {entry} fails")))

    def reweigh(weights, loglik, resample):
        if next(calls) == at:
            raise sp.DegenerateWeightsError(f"frame {at} degenerates")
        return real_reweigh(weights, loglik, resample)

    def means(weights, lambdas):
        out = real_means(weights, lambdas)
        if seen[0] <= at < seen[0] + len(out):
            out[at - seen[0]] = (-1.0, 1.0, 1.0)
        seen[0] += len(out)
        return out

    faults = {"build": (sampling.JointArrays, "social_terms", social_terms),
              "degenerate": (inference, "_reweigh", reweigh), "off_simplex": (inference, "_means", means)}
    with contextlib.ExitStack() as stack:
        stack.enter_context(patch.object(sampling, "_BLOCK_ELEMENTS", block_elements))
        if fault is not None:
            stack.enter_context(patch.object(*faults[fault]))
        reader = replay_seats(pair.ego, pair.other, scenario, window_starts(pair.ego, cfg))[seat]
        return reader.posterior_pass(cfg, init_particles(cfg, seed=3))


@settings(max_examples=40, deadline=None)
@given(
    per_block=st.integers(1, 7),
    n_particles=st.integers(2, 40),
    resample=st.booleans(),
    growing=st.booleans(),
    seat=st.integers(0, 1),
    fault=st.sampled_from([None, "build", "degenerate", "off_simplex"]),
    block=st.integers(0, 2**16),
    edge=st.sampled_from(["first", "last"]),
)
@example(per_block=3, n_particles=20, resample=True, growing=False, seat=0, fault="degenerate", block=4, edge="first")
@example(per_block=7, n_particles=9, resample=False, growing=True, seat=1, fault="off_simplex", block=2, edge="last")
@example(per_block=1, n_particles=2, resample=True, growing=True, seat=0, fault="build", block=0, edge="first")
@example(per_block=5, n_particles=30, resample=False, growing=False, seat=1, fault="build", block=3, edge="last")
def test_posterior_pass_in_blocks_of_frames_matches_one_block(
    fixture_cfg, per_block, n_particles, resample, growing, seat, fault, block, edge
):
    """posterior_pass with per_block frames a block against one block: its stops, means as bytes and error.

    A _BLOCK_ELEMENTS of per_block * P makes blocks of per_block frames.
    The fault sits at the first or the last frame of a block (the last
    block may be short, and then its last frame takes the fault).
    """
    [(_, pair)] = workflows.observed_pairs(fixture_cfg)
    scenario = fixture_cfg.load_scenario()
    cfg = replace(fixture_cfg.inference, n_particles=n_particles, resample=resample, growing_window=growing)
    frames = len(pair.ego.s) - cfg.window_r
    block %= -(-frames // per_block)
    at = min(block * per_block + (0 if edge == "first" else per_block - 1), frames - 1)
    runs = (
        _posterior_pass_with_fault(pair, scenario, cfg, seat, fault, at, elements)
        for elements in (frames * n_particles, per_block * n_particles)
    )
    (stops, means, error), (got_stops, got_means, got_error) = runs
    assert got_stops == stops
    assert got_means.tobytes() == means.tobytes()
    assert type(got_error) is type(error) and str(got_error) == str(error)
    if fault is None:
        assert error is None and len(means) == frames
    else:
        assert error is not None and len(means) == (0 if fault == "build" and growing else at)
