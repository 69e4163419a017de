"""The four end-to-end pipelines behind the CLI: sim, infer, regen, fixture.

All file output is deterministic: fixed 6-decimal float formatting, sorted
JSON keys, and results written in the order the inputs were given.  A
pipeline creates its output directory and writes only once all its work has
succeeded, so a run that fails leaves nothing behind.
"""
from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import metrics
from .config import ScenarioConfig, config_to_dict, save_config, write_json
from .core import state_columns
from .errors import NonTerminatingError, ParseError, SchemaError, ShortTrackError
from .inference import (
    InferenceSeries,
    SeatReplay,
    _infer_pair,
    init_particles,
    replay_seats,
    window_columns,
    window_starts,
)
# plan_ego is not called here, but perfbench/tracing.py wraps workflows.plan_ego
# by attribute lookup, so the name must stay importable from this module.
from .planner import InteractionTrace, PolicySpec, Scenario, plan_ego, simulate, simulate_policies  # noqa: F401
from .rewards import RewardWeights
from .tracks import (
    MAX_LATERAL_FIT,
    ObservedPair,
    _fmt,
    divides_step,
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

# Skipped pairs are recorded at INFO; with no handler configured that is silent.
_log = logging.getLogger("socialplan.workflows")


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
    (s_ego, s_other), (v_ego, v_other), _ = state_columns(trace.joint_states).tolist()
    controls = [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(trace.a_ego, trace.a_other)] + [","]  # none at the last state
    c = trace.conflict
    for k, (se, ve, so, vo, a) in enumerate(zip(s_ego, v_ego, s_other, v_other, controls)):
        rows.append(f"{k},{_fmt(se)},{_fmt(ve)},{_fmt(so)},{_fmt(vo)},{a},{_fmt(c.s_ego - se)},{_fmt(c.s_other - so)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _trace_sidecar(trace: InteractionTrace, config: dict, policy_name: str) -> dict:
    return {
        "policy": policy_name,
        "terminated": trace.terminated,
        "steps": trace.n_steps,
        "dt": trace.dt,
        "lambda_ego": [[round(v, 9) for v in row] for row in trace.lambda_ego.tolist()],
        "lambda_other": [[round(v, 9) for v in row] for row in trace.lambda_other.tolist()],
        "config": config,
    }


def run_sim(cfg: ScenarioConfig, policy_names: list[str], out_dir: Path, threads: int = 1) -> dict:
    """Simulate one scenario under each requested ego policy and write traces + stats.

    The policies step in lockstep, one batched build per round (see
    simulate_policies).  threads must be at least 1 and changes nothing:
    everything runs in this thread.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    traces = simulate_policies(
        cfg.load_scenario(),
        [PolicySpec.fixed(parse_policy(name)) for name in policy_names],
        PolicySpec.follower(),
        max_steps=cfg.max_steps,
    )
    # every statistic first, so that one that fails leaves no artefact behind
    stats = {
        name: {
            "terminated": trace.terminated,
            "are": round(metrics.are(trace), 6),
            "min_distance": round(metrics.min_distance(trace), 6),
            "ait": round(metrics.ait(trace), 6) if trace.terminated else None,
        }
        for name, trace in zip(policy_names, traces)
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    config = config_to_dict(cfg)  # the echo every sidecar carries
    for name, trace in zip(policy_names, traces):
        safe = name.replace(",", "_")
        write_trace_csv(out_dir / f"trace_{safe}.csv", trace)
        write_json(out_dir / f"trace_{safe}.json", _trace_sidecar(trace, config, name))
    write_json(out_dir / "stats.json", {"policies": stats})
    return stats


def _skip(idx: int, ego_track: int, other_track: int, reason) -> None:
    _log.info("pair %d (tracks %d, %d) skipped: %s", idx, ego_track, other_track, reason)


def observed_pairs(cfg: ScenarioConfig, scenario: Scenario | None = None) -> list[tuple[int, ObservedPair]]:
    """(index, pair on the planning-rate grid) for every extracted pair that shares a planning step.

    The index is the pair's position in extract_pairs order; a pair that
    shares less than one planning step is skipped (and logged), and a file
    with no pair at all is a ShortTrackError naming what a pair needs.
    scenario is cfg.load_scenario(), loaded here unless the caller has it.
    """
    if not cfg.tracks_file:
        raise ParseError("config has no tracks file for this workflow")
    tracks = load_tracks(cfg.resolve(cfg.tracks_file))
    if scenario is None:
        scenario = cfg.load_scenario()
    pairs = extract_pairs(tracks, scenario)
    if not pairs:
        raise ShortTrackError(
            f"no track pair fits the paths: a pair needs a track within {MAX_LATERAL_FIT} m of each path "
            "(MAX_LATERAL_FIT), conflict crossings within 10 s of each other and a shared frame"
        )
    observed = []
    for i, pair in enumerate(pairs):
        try:
            observed.append((i, resample_pair(tracks, pair, cfg.sampler.dt)))
        except ShortTrackError as exc:
            _skip(i, pair.ego_id, pair.other_id, exc)
    return observed


def write_lambda_csv(path: Path, series_by_agent: dict[int, InferenceSeries]) -> None:
    rows = ["frame,agent_id,lambda_egoism,lambda_courtesy,lambda_confidence,dominant_policy"]
    for agent_id in sorted(series_by_agent):
        series = series_by_agent[agent_id]
        for frame, lam, label in zip(series.frames, series.lambdas, metrics.dominant_labels(series.lambdas).tolist()):
            rows.append(
                f"{frame},{agent_id},{_fmt(lam[0])},{_fmt(lam[1])},{_fmt(lam[2])},"
                f"{metrics.POLICY_LABELS[label]}"
            )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def run_infer(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Estimate per-driver reward weights for every extracted pair.

    The report carries per-agent PSF/DOP plus role-level aggregates: a PSF
    histogram and mean dominance fractions over all processed drivers.
    Nothing is written until every pair has run.  The run draws its
    particles once, at the first pair that reaches a posterior.
    """
    scenario = cfg.load_scenario()
    particles = cache(lambda: init_particles(cfg.inference, cfg.seed))
    report: dict[str, dict] = {}
    lambda_series: dict[int, dict[int, InferenceSeries]] = {}  # per pair index, each agent's series
    psf_values: dict[str, list[int]] = {"ego": [], "other": []}
    dop_sums: dict[str, dict[str, float]] = {
        role: dict.fromkeys(metrics.POLICY_LABELS, 0.0) for role in ("ego", "other")
    }
    for idx, pair in observed_pairs(cfg, scenario):
        try:
            result = _infer_pair(pair, scenario, cfg.inference, particles)
        except ShortTrackError as exc:
            _skip(idx, pair.ego.track_id, pair.other.track_id, exc)
            continue
        by_agent = {
            pair.ego.track_id: ("ego", result["ego"]),
            pair.other.track_id: ("other", result["other"]),
        }
        lambda_series[idx] = {k: v for k, (_, v) in by_agent.items()}
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
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, series_by_agent in lambda_series.items():
        write_lambda_csv(out_dir / f"lambdas_pair{idx}.csv", series_by_agent)
    write_json(out_dir / "inference.json", {"pairs": report, "summary": summary})
    return report


def _regen_frames(obs, cfg: ScenarioConfig) -> tuple[range, int]:
    """The frames a seat regenerates from on an observed track, and the longest horizon's step count."""
    steps = int(np.floor(max(REGEN_HORIZONS) / cfg.sampler.dt + 1e-9))
    return range(cfg.inference.window_r, len(obs.s) - steps), steps


def _frame_sums(mse: np.ndarray, labels: np.ndarray) -> list[list[float]]:
    """Per policy p and horizon h, the sum over frames f of mse[f, h, labels[p, f]], from mse (F, H, nt) and labels (policies, F).

    The sums add in frame order, from the first term, as a += loop from 0.0
    does (np.add.accumulate, not a sum, which may add pairwise).
    """
    picked = mse[np.arange(mse.shape[0]), :, labels]  # (policies, F, H)
    return np.add.accumulate(picked, axis=1)[:, -1].tolist()


def _regen_agent(reader: SeatReplay, cfg: ScenarioConfig, pset) -> dict:
    """Mean regeneration MSE per policy and horizon for the seat's agent, its posterior run from the particles pset.

    Frame k is regenerated under the estimate of posterior frame k; run_regen
    has checked that there are regeneration frames and that the horizons fit
    the rollout.  The per-frame definition regenerates a frame tau right
    after the posterior frame that starts a window at tau, and the frames
    that no window starts at (window_r above the longest horizon's step
    count, or growing_window) after the whole pass; errors come out in that
    order.  So a failing state among the frames scheduled before a posterior
    error (SeatReplay.posterior_pass) raises its build error first.  One
    array pass scores every frame's ego candidates at every horizon, one
    leader_labels pass takes every policy's decisions, and each policy's
    sums add in frame order (_frame_sums).
    """
    frames, max_steps = _regen_frames(reader.obs, cfg)
    _, means, error = reader.posterior_pass(cfg.inference, pset)
    if error is None:
        stop = frames.stop
    else:  # the regeneration frames whose window start the pass reached: window start j is posterior frame j's,
        # and under growing_window every window starts at frame 0, below window_r
        stop = frames.start if cfg.inference.growing_window else min(max(frames.start, len(means)), frames.stop)
    # the regeneration frames are consecutive integers, so consecutive entries from first
    first = bisect_left(reader.frames, frames.start)
    if max(reader.terms.sound - first, 0) < stop - frames.start:  # a failing state among the scheduled frames
        raise reader.terms.error[1]
    if error is not None:
        raise error
    ks = np.arange(frames.start, frames.stop)
    truth = reader.obs.xy[ks[:, None] + np.arange(max_steps + 1)]
    mse = metrics.horizon_mse(reader.ego_xy[first : first + len(ks)], truth, cfg.sampler.dt, REGEN_HORIZONS)
    lams = np.empty((3, len(POLICIES) + 1, len(ks)))  # each policy's weights at each frame, the estimate's last
    for p, make in enumerate(POLICIES.values()):
        lams[:, p] = make().values[:, None]
    lams[:, -1] = means[ks - cfg.inference.window_r].T
    totals = _frame_sums(mse, reader.terms.leader_labels(range(first, first + len(ks)), lams))
    return {
        name: {str(h): round(total / len(frames), 6) for h, total in zip(REGEN_HORIZONS, per_h)}
        for name, per_h in zip([*POLICIES, "estimated"], totals)
    }


def run_regen(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Table of regeneration MSE by policy and horizon (plus change vs egoism).

    A pair too short to regenerate is skipped; then a horizon longer than
    the rollout is an error of the config alone, raised before any build
    (both checks are the pair's: its seats share its grid).  The ego seat
    replays to the end and then the other seat, from one build of the
    window starts and regeneration frames (replay_seats).  The run draws
    its particles once, at the first pair that reaches a posterior.
    """
    scenario = cfg.load_scenario()
    particles = cache(lambda: init_particles(cfg.inference, cfg.seed))
    report: dict[str, dict] = {}
    for idx, pair in observed_pairs(cfg, scenario):
        regen, max_steps = _regen_frames(pair.ego, cfg)
        if not regen:
            _skip(idx, pair.ego.track_id, pair.other.track_id, "track too short to regenerate at the longest horizon")
            continue
        metrics.horizon_steps(cfg.sampler.horizon_steps + 1, max_steps + 1, cfg.sampler.dt, REGEN_HORIZONS)
        frames = sorted({*window_starts(pair.ego, cfg.inference), *regen})
        columns = max(window_columns(cfg.inference, cfg.sampler.horizon_steps), max_steps + 1)
        seats = replay_seats(pair.ego, pair.other, scenario, frames, columns)
        pset = particles()
        roles = {role: _regen_agent(seat, cfg, pset) for role, seat in zip(("ego", "other"), seats)}
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
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "regen.json", {"pairs": report, "horizons": list(REGEN_HORIZONS)})
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
    it must lie in 1 .. cfg.max_steps - 1, and the two come together.  A bad
    frame period is a SchemaError before anything runs; nothing is written
    until the simulation has reached the conflict point.
    """
    if not divides_step(cfg.frame_period_ms, cfg.sampler.dt):
        period, dt = cfg.frame_period_ms, cfg.sampler.dt
        raise SchemaError(f"config frame_period_ms = {period} does not divide sampler.dt = {dt!r} s")
    if (switch_step is None) != (lam_after is None):
        raise ValueError("switch_step and lam_after must be given together")
    if switch_step is not None and not 1 <= switch_step < cfg.max_steps:
        raise ValueError(f"switch_step must be in 1..{cfg.max_steps - 1}, got {switch_step}")
    scenario = cfg.load_scenario()
    follower = PolicySpec.follower()
    if switch_step is None:
        trace = simulate(scenario, PolicySpec.fixed(lam_ego), follower, max_steps=cfg.max_steps)
    else:
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

    records = trace_to_records(trace, cfg.frame_period_ms)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_path_csv(out_dir / "path_ego.csv", scenario.path_ego)
    write_path_csv(out_dir / "path_other.csv", scenario.path_other)
    write_tracks(out_dir / "tracks.csv", records)

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
