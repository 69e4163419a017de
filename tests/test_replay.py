"""Offline replay: run_regen against its definition, and how many spaces it builds.

The definition of a regeneration table is two passes per seat: the full
posterior series (infer_agent), then one fresh leader decision (plan_ego)
per policy at every regeneration frame.  run_regen shares one joint space
per observed state between the posterior and the policies, and builds the
spaces of a seat in batches (build_joint_spaces); these tests pin that it
gives the same table, builds each state at most once per seat, and never
builds more than one chunk ahead.
"""
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import socialplan as sp
from socialplan import planner, workflows
from socialplan.config import load_config
from socialplan.inference import CHUNK, infer_agent
from socialplan.planner import plan_ego
from socialplan.scenarios import fixture_scenario, write_scenario_config

# dt 0.08 and the 1.0 s longest horizon give 12 regeneration steps; a window
# of 14 leaves the last regeneration frames without a posterior window start
CONFIGS = {
    "default": {},
    "window_above_horizon": {"window_r": 14},
    "growing_window": {"growing_window": True},
}


@pytest.fixture(scope="module")
def fixture_cfg(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    cfg = write_scenario_config(fixture_scenario("switch"), tmp / "template", seed=2)
    return load_config(workflows.make_fixture(cfg, sp.RewardWeights.egoism(), seed=2, out_dir=tmp / "fixture"))


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


def _count_builds(monkeypatch) -> list:
    """Record (seat path, ego state, other state) of every state a joint space is built at.

    Replay builds through the batch builder; a one-state build there would
    bypass it, so one fails the test.
    """
    built = []
    real = planner.build_joint_spaces

    def counting(states, path_ego, *args):
        built.extend((id(path_ego), x0.ego, x0.other) for x0 in states)
        return real(states, path_ego, *args)

    def one_state(*args):
        raise AssertionError("replay built a joint space outside the batch builder")

    monkeypatch.setattr(planner, "build_joint_spaces", counting)
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


@pytest.mark.parametrize("changes", CONFIGS.values(), ids=CONFIGS.keys())
def test_regen_builds_each_state_at_most_once_per_seat(fixture_cfg, tmp_path, monkeypatch, changes):
    cfg = _with_inference(fixture_cfg, **changes)
    [(_, pair)] = workflows.observed_pairs(cfg)
    built = _count_builds(monkeypatch)
    workflows.run_regen(cfg, tmp_path)
    assert built
    assert max(Counter(built).values()) == 1
    if not changes:
        # every regeneration state is a posterior window start: one build per window
        total, r = len(pair.ego.s) - 1, cfg.inference.window_r
        assert len(built) == 2 * (total - r + 1)


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


def test_leader_label_breaks_ties_to_lowest_label():
    space = sp.JointBehaviorSpace.from_matrices(np.zeros((3, 2)), np.zeros((3, 2)))
    for lam in (sp.RewardWeights.egoism(), sp.RewardWeights.courtesy(), sp.RewardWeights.confidence()):
        assert sp.leader_label(space, lam) == 0
