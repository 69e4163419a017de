"""Canonical synthetic scenarios: crossing-path interactions at a right angle.

Three initial-position cases for policy-influence studies (the ego car
precedes, the other car precedes, or both are equally positioned) and the
fixture templates used for weight-recovery experiments.  All scenarios put
the ego car on the x axis and the other car on the y axis, conflicting at
the origin.
"""
from __future__ import annotations

from pathlib import Path

from .config import PathSpec, ScenarioConfig
from .core import AgentState, JointState, ReferencePath
from .planner import Scenario
from .rewards import RewardConfig
from .sampling import SamplerConfig


def crossing_paths(half_length: float, limit_ego: float, limit_other: float):
    ego = ReferencePath([(-half_length, 0.0), (half_length, 0.0)], limit_ego)
    other = ReferencePath([(0.0, -half_length), (0.0, half_length)], limit_other)
    return ego, other


def crossing_scenario(
    dist_ego: float,
    v_ego: float,
    dist_other: float,
    v_other: float,
    limit_ego: float = 10.0,
    limit_other: float | None = None,
    half_length: float = 80.0,
    sampler: SamplerConfig | None = None,
    rewards: RewardConfig | None = None,
) -> Scenario:
    """Two straight paths crossing at the origin; distances are to the conflict point."""
    path_e, path_o = crossing_paths(half_length, limit_ego, limit_other or limit_ego)
    initial = JointState(
        ego=AgentState(s=half_length - dist_ego, v=v_ego),
        other=AgentState(s=half_length - dist_other, v=v_other),
    )
    return Scenario.create(path_e, path_o, initial, sampler, rewards)


# Policy-influence cases: I ego precedes, II other precedes, III equal.
CASE_GEOMETRY = {
    "I": dict(dist_ego=12.0, v_ego=5.0, dist_other=24.0, v_other=5.0),
    "II": dict(dist_ego=14.0, v_ego=6.0, dist_other=10.0, v_other=5.0),
    "III": dict(dist_ego=13.5, v_ego=4.5, dist_other=13.5, v_other=4.5),
}


def case_scenario(case: str) -> Scenario:
    """One of the three canonical initial-position cases (Table-style sweeps)."""
    if case not in CASE_GEOMETRY:
        raise ValueError(f"case must be one of {sorted(CASE_GEOMETRY)}")
    return crossing_scenario(**CASE_GEOMETRY[case])


_FIXTURE_SAMPLER = SamplerConfig(horizon_steps=30, dt=0.08)

# Weight-recovery fixture templates: each basis policy is expressed
# distinctively (courtesy in a close-range yield geometry against a slow
# circulating car, egoism and confidence in longer chase geometries).
FIXTURE_GEOMETRY = {
    "egoism": dict(dist_ego=42.0, v_ego=4.0, dist_other=34.0, v_other=3.0),
    "courtesy": dict(
        dist_ego=13.0, v_ego=3.0, dist_other=26.0, v_other=2.6,
        limit_ego=8.0, limit_other=4.0,
    ),
    "confidence": dict(dist_ego=30.0, v_ego=4.0, dist_other=24.0, v_other=3.2),
    "switch": dict(dist_ego=14.0, v_ego=4.0, dist_other=11.0, v_other=3.2),
}


def fixture_scenario(name: str) -> Scenario:
    """A recovery-fixture scenario (per dominant policy, plus 'switch')."""
    if name not in FIXTURE_GEOMETRY:
        raise ValueError(f"fixture must be one of {sorted(FIXTURE_GEOMETRY)}")
    geometry = dict(FIXTURE_GEOMETRY[name])
    sampler = _FIXTURE_SAMPLER
    if name == "courtesy":
        sampler = SamplerConfig(horizon_steps=30, dt=0.08, accel_max=2.2)
    return crossing_scenario(**geometry, half_length=150.0, sampler=sampler)


def write_scenario_config(
    scenario: Scenario, out_dir, seed: int = 0, frame_period_ms: int | None = None
) -> ScenarioConfig:
    """Materialize a runtime scenario as path CSVs plus a ScenarioConfig."""
    from .tracks import write_path_csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_path_csv(out_dir / "path_ego.csv", scenario.path_ego)
    write_path_csv(out_dir / "path_other.csv", scenario.path_other)
    if frame_period_ms is None:
        dt_ms = round(scenario.sampler.dt * 1000)
        frame_period_ms = next(p for p in (50, 40, 25, 20, 10, 5, 1) if dt_ms % p == 0)
    return ScenarioConfig(
        path_ego=PathSpec(file="path_ego.csv", speed_limit=scenario.path_ego.speed_limit),
        path_other=PathSpec(file="path_other.csv", speed_limit=scenario.path_other.speed_limit),
        initial=scenario.initial,
        sampler=scenario.sampler,
        rewards=scenario.rewards,
        seed=seed,
        frame_period_ms=frame_period_ms,
        max_steps=400,
        base_dir=out_dir,
    )
