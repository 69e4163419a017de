"""The four end-to-end pipelines behind the CLI: sim, infer, regen, fixture.

All file output is deterministic: fixed 6-decimal float formatting, sorted
JSON keys, and results written in the order the inputs were given.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import metrics
from .config import ScenarioConfig, config_to_dict, save_config
from .errors import NonTerminatingError, ParseError, ShortTrackError
from .inference import InferenceSeries, infer_trace, posterior_steps, replay_spaces
# plan_ego is not called here, but perfbench/tracing.py wraps workflows.plan_ego
# by attribute lookup, so the name must stay importable from this module.
from .planner import InteractionTrace, PolicySpec, Scenario, leader_label, plan_ego, simulate  # noqa: F401
from .rewards import RewardWeights
from .tracks import (
    ObservedPair,
    extract_pairs,
    load_tracks,
    resample_pair,
    trace_to_records,
    write_path_csv,
    write_tracks,
)

POLICIES = {
    "egoism": RewardWeights.egoism,
    "courtesy": RewardWeights.courtesy,
    "confidence": RewardWeights.confidence,
}
REGEN_HORIZONS = (0.3, 0.5, 1.0)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_policy(text: str) -> RewardWeights:
    """A policy flag is a known name or a comma-separated weight triple."""
    if text in POLICIES:
        return POLICIES[text]()
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"policy must be one of {sorted(POLICIES)} or 'w1,w2,w3', got {text!r}")
    return RewardWeights.of(*(float(p) for p in parts))


def write_trace_csv(path: Path, trace: InteractionTrace) -> None:
    """Trace table; the final row has no applied controls (empty fields)."""
    rows = ["t,s_ego,v_ego,s_other,v_other,a_ego,a_other,dist_conflict_ego,dist_conflict_other"]
    for k, js in enumerate(trace.joint_states):
        a_e = _fmt(trace.a_ego[k]) if k < trace.n_steps else ""
        a_o = _fmt(trace.a_other[k]) if k < trace.n_steps else ""
        rows.append(
            f"{k},{_fmt(js.ego.s)},{_fmt(js.ego.v)},{_fmt(js.other.s)},{_fmt(js.other.v)},"
            f"{a_e},{a_o},"
            f"{_fmt(trace.conflict.s_ego - js.ego.s)},{_fmt(trace.conflict.s_other - js.other.s)}"
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _trace_sidecar(trace: InteractionTrace, cfg: ScenarioConfig, policy_name: str) -> dict:
    return {
        "policy": policy_name,
        "terminated": trace.terminated,
        "steps": trace.n_steps,
        "dt": trace.dt,
        "lambda_ego": [[round(v, 9) for v in row] for row in trace.lambda_ego.tolist()],
        "lambda_other": [[round(v, 9) for v in row] for row in trace.lambda_other.tolist()],
        "config": config_to_dict(cfg),
    }


def run_sim(cfg: ScenarioConfig, policy_names: list[str], out_dir: Path, threads: int = 1) -> dict:
    """Simulate one scenario under each requested ego policy and write traces + stats.

    threads must be at least 1 but does not change how the policies run: they
    run one after another, because the planning work holds the interpreter
    lock and a thread pool made it slower.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = cfg.load_scenario()
    traces = [
        simulate(
            scenario,
            PolicySpec.fixed(parse_policy(name)),
            PolicySpec.follower(),
            max_steps=cfg.max_steps,
        )
        for name in policy_names
    ]

    stats: dict[str, dict] = {}
    for name, trace in zip(policy_names, traces):
        safe = name.replace(",", "_")
        write_trace_csv(out_dir / f"trace_{safe}.csv", trace)
        _write_json(out_dir / f"trace_{safe}.json", _trace_sidecar(trace, cfg, name))
        stats[name] = {
            "terminated": trace.terminated,
            "are": round(metrics.are(trace), 6),
            "min_distance": round(metrics.min_distance(trace), 6),
            "ait": round(metrics.ait(trace), 6) if trace.terminated else None,
        }
    _write_json(out_dir / "stats.json", {"policies": stats})
    return stats


def observed_pairs(cfg: ScenarioConfig) -> list[tuple[int, ObservedPair]]:
    if not cfg.tracks_file:
        raise ParseError("config has no tracks file for this workflow")
    tracks = load_tracks(cfg.resolve(cfg.tracks_file))
    scenario = cfg.load_scenario()
    pairs = extract_pairs(tracks, scenario)
    return [(i, resample_pair(tracks, p, cfg.sampler.dt)) for i, p in enumerate(pairs)]


def write_lambda_csv(path: Path, series_by_agent: dict[int, InferenceSeries]) -> None:
    rows = ["frame,agent_id,lambda_egoism,lambda_courtesy,lambda_confidence,dominant_policy"]
    for agent_id in sorted(series_by_agent):
        series = series_by_agent[agent_id]
        for frame, lam in zip(series.frames, series.lambdas):
            rows.append(
                f"{frame},{agent_id},{_fmt(lam[0])},{_fmt(lam[1])},{_fmt(lam[2])},"
                f"{metrics.dominant_policy(lam)}"
            )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def run_infer(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Estimate per-driver reward weights for every extracted pair.

    The report carries per-agent PSF/DOP plus role-level aggregates: a PSF
    histogram and mean dominance fractions over all processed drivers.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = cfg.load_scenario()
    report: dict[str, dict] = {}
    psf_values: dict[str, list[int]] = {"ego": [], "other": []}
    dop_sums: dict[str, dict[str, float]] = {
        role: dict.fromkeys(metrics.POLICY_LABELS, 0.0) for role in ("ego", "other")
    }
    for idx, pair in observed_pairs(cfg):
        try:
            result = infer_trace(pair, scenario, cfg.inference, seed=cfg.seed)
        except ShortTrackError:
            continue
        by_agent = {
            pair.ego.track_id: ("ego", result["ego"]),
            pair.other.track_id: ("other", result["other"]),
        }
        write_lambda_csv(out_dir / f"lambdas_pair{idx}.csv", {k: v for k, (_, v) in by_agent.items()})
        agents = {}
        for agent_id, (role, series) in sorted(by_agent.items()):
            dop = metrics.dop(series.lambdas)
            psf_values[role].append(metrics.psf(series.lambdas))
            for name, frac in dop.items():
                dop_sums[role][name] += frac
            agents[str(agent_id)] = {
                "role": role,
                "psf": psf_values[role][-1],
                "dop": {k: round(v, 6) for k, v in dop.items()},
                "final_lambda": [round(v, 6) for v in series.final().values],
                "frames": int(len(series.frames)),
            }
        report[str(idx)] = {
            "ego_track": pair.ego.track_id,
            "other_track": pair.other.track_id,
            "agents": agents,
        }
    if not report:
        raise ShortTrackError("no pair long enough for one observation window")
    summary = {}
    for role in ("ego", "other"):
        counts = psf_values[role]
        summary[role] = {
            "psf_histogram": {str(v): counts.count(v) for v in sorted(set(counts))},
            "dop_mean": {k: round(v / len(counts), 6) for k, v in dop_sums[role].items()},
        }
    _write_json(out_dir / "inference.json", {"pairs": report, "summary": summary})
    return report


def _regen_agent(obs_self, obs_other, scenario: Scenario, cfg: ScenarioConfig) -> dict:
    """Mean regeneration MSE per policy and horizon for one agent.

    One posterior pass over the seat builds each observed state's joint space
    once; the space serves the posterior update at that window start and then
    the leader decisions of all four policies regenerated from that state.
    The estimate used at regeneration frame k is the one recorded at
    posterior frame k, r frames before the pass starts a window at k.  Frames
    the pass never starts a window at (window_r above the longest horizon's
    step count, or growing_window) get their spaces built the same way after
    the pass, a chunk at a time.  Each regeneration frame scores every ego
    candidate at every horizon at once; the policies pick their rows.
    """
    dt = cfg.sampler.dt
    max_steps = int(np.floor(max(REGEN_HORIZONS) / dt + 1e-9))
    total = len(obs_self.s) - 1
    frames = range(cfg.inference.window_r, total + 1 - max_steps)
    if not frames:
        raise ShortTrackError("track too short to regenerate at the longest horizon")
    fixed = [(name, make()) for name, make in POLICIES.items()]
    sums = {name: dict.fromkeys(REGEN_HORIZONS, 0.0) for name in [*POLICIES, "estimated"]}
    lam_at: dict[int, RewardWeights] = {}

    def regenerate(k: int, space) -> None:
        observed = obs_self.xy[k : k + max_steps + 1]
        mse = metrics.horizon_mse(space.ego_candidates.xy, observed, dt, REGEN_HORIZONS).tolist()
        for name, lam in (*fixed, ("estimated", lam_at.pop(k))):
            label = leader_label(space, lam)
            for h, per_label in zip(REGEN_HORIZONS, mse):
                sums[name][h] += per_label[label]

    next_k = frames.start
    for tau, space, k, estimate in posterior_steps(obs_self, obs_other, scenario, cfg.inference, cfg.seed):
        lam_at[k] = estimate
        if tau == next_k < frames.stop:
            regenerate(tau, space)
            next_k += 1
    for k, space in replay_spaces(obs_self, obs_other, scenario, range(next_k, frames.stop)):
        regenerate(k, space)

    return {
        name: {str(h): round(per_h[h] / len(frames), 6) for h in REGEN_HORIZONS}
        for name, per_h in sums.items()
    }


def run_regen(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Table of regeneration MSE by policy and horizon (plus change vs egoism)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = cfg.load_scenario()
    report: dict[str, dict] = {}
    for idx, pair in observed_pairs(cfg):
        try:
            roles = {
                "ego": _regen_agent(pair.ego, pair.other, scenario, cfg),
                "other": _regen_agent(pair.other, pair.ego, scenario.swapped(), cfg),
            }
        except ShortTrackError:
            continue
        for role, table in roles.items():
            for name, per_h in list(table.items()):
                if name == "egoism":
                    continue
                table[name] = dict(per_h)
                for h, value in per_h.items():
                    base = table["egoism"][h]
                    table[name][f"vs_egoism_{h}"] = round((value - base) / base, 6) if base > 0 else None
        report[str(idx)] = {
            "ego_track": pair.ego.track_id,
            "other_track": pair.other.track_id,
            "mse": roles,
        }
    if not report:
        raise ShortTrackError("no pair long enough to regenerate")
    _write_json(out_dir / "regen.json", {"pairs": report, "horizons": list(REGEN_HORIZONS)})
    return report


def make_fixture(
    cfg: ScenarioConfig,
    lam_ego: RewardWeights,
    seed: int,
    out_dir: Path,
    switch_step: int | None = None,
    lam_after: RewardWeights | None = None,
) -> Path:
    """Simulate the scenario and export it in the track-file schema.

    Returns the path of a scenario config referencing the written files and
    carrying the seed, ready for the infer/regen workflows.  With switch_step
    set, the leader's weights change to lam_after from that step onward;
    it must lie in 1 .. cfg.max_steps - 1.
    """
    if switch_step is not None and not 1 <= switch_step < cfg.max_steps:
        raise ValueError(f"switch_step must be in 1..{cfg.max_steps - 1}, got {switch_step}")
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = cfg.load_scenario()
    follower = PolicySpec.follower()
    if switch_step is None:
        trace = simulate(scenario, PolicySpec.fixed(lam_ego), follower, max_steps=cfg.max_steps)
    else:
        if lam_after is None:
            raise ValueError("switch_step needs lam_after")
        head = simulate(scenario, PolicySpec.fixed(lam_ego), follower, max_steps=switch_step)
        if head.terminated:
            trace = head
        else:
            tail = simulate(
                scenario,
                PolicySpec.fixed(lam_after),
                follower,
                max_steps=cfg.max_steps - switch_step,
                start_state=head.joint_states[-1],
            )
            trace = head.concat(tail)
    if not trace.terminated:
        raise NonTerminatingError("fixture scenario did not reach its conflict point")

    write_path_csv(out_dir / "path_ego.csv", scenario.path_ego)
    write_path_csv(out_dir / "path_other.csv", scenario.path_other)
    write_tracks(out_dir / "tracks.csv", trace_to_records(trace, cfg.frame_period_ms))

    fixture_cfg = replace(
        cfg,
        path_ego=replace(cfg.path_ego, file="path_ego.csv"),
        path_other=replace(cfg.path_other, file="path_other.csv"),
        tracks_file="tracks.csv",
        seed=seed,
        base_dir=out_dir,
    )
    config_path = out_dir / "scenario.json"
    save_config(fixture_cfg, config_path)
    return config_path
