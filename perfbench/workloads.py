"""Seeded inputs and one pass of each benchmark workload.

Every workload is a closed loop with one client in this process: the next
request starts when the previous one returns.  The library sees only the
files written by ``setup``; the seed jitters the canned geometry (initial
distances to the conflict point and speeds, by up to 3 %) and sets the
config and particle seed.
A generated input that fails (say, a fixture that never reaches its
conflict point) is not redrawn: every pass counts it as a failed operation.

Calls into the library go through module attributes at call time
(``workflows.run_sim``, ...), so the traced run sees them.
"""
from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from socialplan import workflows
from socialplan.config import load_config, save_config
from socialplan.core import AgentState, JointState
from socialplan.errors import SocialPlanError
from socialplan.planner import PolicySpec, simulate
from socialplan.scenarios import case_scenario, fixture_scenario, write_scenario_config

JITTER = 0.03
POLICY_NAMES = list(workflows.POLICIES)
CASES = ("I", "II", "III")
FIXTURES = ("egoism", "courtesy", "confidence", "switch")
SIM_THREADS = 2


@dataclass
class PassResult:
    """What one pass did: (request key, seconds) per request, and op counts."""

    requests: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def fail(self, what: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        traceback.print_exc()
        print(f"perfbench: failed: {what}", file=sys.stderr, flush=True)


@dataclass
class Units:
    """Work in one pass, fixed by the inputs: what the rate metrics divide."""

    steps: int
    frames: int
    records: int
    request_frames: dict[str, int]


# ---------------------------------------------------------------- inputs
def _jittered(scenario, rng: np.random.Generator):
    def agent(state: AgentState, s_conflict: float) -> AgentState:
        dist = (s_conflict - state.s) * (1.0 + rng.uniform(-JITTER, JITTER))
        return AgentState(s=s_conflict - dist, v=state.v * (1.0 + rng.uniform(-JITTER, JITTER)), d=state.d)

    x, c = scenario.initial, scenario.conflict
    return replace(scenario, initial=JointState(ego=agent(x.ego, c.s_ego), other=agent(x.other, c.s_other)))


def _template(scenario, out_dir: Path, seed: int):
    cfg = write_scenario_config(scenario, out_dir, seed=seed)
    save_config(cfg, out_dir / "config.json")
    return cfg


def _fixture(rng: np.random.Generator, name: str, inputs: Path, seed: int) -> None:
    """Template plus fixture tracks; a failed fixture leaves no scenario.json."""
    scenario = _jittered(fixture_scenario(name), rng)
    cfg = _template(scenario, inputs / f"template_{name}", seed)
    lam = workflows.POLICIES["egoism" if name == "switch" else name]()
    switch_step = lam_after = None
    if name == "switch":
        probe = simulate(scenario, PolicySpec.fixed(lam), PolicySpec.follower(), max_steps=cfg.max_steps)
        switch_step, lam_after = probe.n_steps // 2, workflows.POLICIES["confidence"]()
    try:
        workflows.make_fixture(cfg, lam, seed, inputs / name, switch_step=switch_step, lam_after=lam_after)
    except SocialPlanError as exc:
        print(f"perfbench: generated fixture {name} failed: {exc!r}", file=sys.stderr, flush=True)


def _particle_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def setup_closed_loop(inputs: Path, seed: int) -> None:
    """Sim configs, plus make_fixture templates jittered apart from the sim ones
    so that make_fixture does not replay a simulation run_sim already ran."""
    rng = np.random.default_rng(seed)
    pseed = _particle_seed(rng)
    for case in CASES:
        _template(_jittered(case_scenario(case), rng), inputs / f"case_{case}", pseed)
    for name in FIXTURES:
        _template(_jittered(fixture_scenario(name), rng), inputs / f"template_{name}", pseed)
    for name in FIXTURES[:3]:
        _template(_jittered(fixture_scenario(name), rng), inputs / f"fixture_{name}", pseed)


def setup_fixtures(inputs: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    pseed = _particle_seed(rng)
    for name in FIXTURES:
        _fixture(rng, name, inputs, pseed)


# ---------------------------------------------------------------- passes
def pass_closed_loop(inputs: Path, out: Path) -> PassResult:
    res = PassResult()
    sims = [f"case_{c}" for c in CASES] + [f"template_{f}" for f in FIXTURES]
    for name in sims:
        start = time.perf_counter()
        try:
            cfg = load_config(inputs / name / "config.json")
            stats = workflows.run_sim(cfg, POLICY_NAMES, out / "sim" / name, threads=SIM_THREADS)
        except Exception:
            res.fail(f"run_sim {name}", len(POLICY_NAMES))
            continue
        res.requests.append((f"sim/{name}", time.perf_counter() - start))
        res.attempted += len(stats)
        res.failed += sum(not s["terminated"] for s in stats.values())
    for name in FIXTURES[:3]:
        start = time.perf_counter()
        try:
            cfg = load_config(inputs / f"fixture_{name}" / "config.json")
            workflows.make_fixture(cfg, workflows.POLICIES[name](), cfg.seed, out / "fixture" / name)
        except Exception:
            res.fail(f"make_fixture {name}")
            continue
        res.requests.append((f"fixture/{name}", time.perf_counter() - start))
        res.attempted += 1
    return res


def pass_offline_regen(inputs: Path, out: Path) -> PassResult:
    res = PassResult()
    for name in FIXTURES:
        start = time.perf_counter()
        try:
            report = workflows.run_regen(load_config(inputs / name / "scenario.json"), out / name)
        except Exception:
            res.fail(f"run_regen {name}")
            continue
        res.requests.append((name, time.perf_counter() - start))
        res.attempted += 1
        res.failed += len(report) != 1  # a skipped (too short) pair
    return res


# ---------------------------------------------------------------- work units
def _lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines())


def _track_records(path: Path) -> int:
    return _lines(path) - 1 if path.exists() else 0


def _posterior_and_regen_frames(inputs: Path, name: str) -> tuple[int, int]:
    """Posterior frames and regeneration frames, both seats, of one fixture."""
    path = inputs / name / "scenario.json"
    if not path.exists():
        return 0, 0
    cfg = load_config(path)
    r = cfg.inference.window_r
    longest = int(math.floor(max(workflows.REGEN_HORIZONS) / cfg.sampler.dt + 1e-9))
    post = regen = 0
    for _, pair in workflows.observed_pairs(cfg):
        total = len(pair.ego.s) - 1  # both seats share the pair's time grid
        post += 2 * max(0, total - r + 1)
        regen += 2 * max(0, total + 1 - longest - r)
    return post, regen


def units_closed_loop(inputs: Path, out: Path) -> Units:
    """A closed-loop frame is one planning step; records are the ones written."""
    per_request = {}
    for sim in sorted((out / "sim").iterdir()):
        per_request[f"sim/{sim.name}"] = sum(_lines(p) - 2 for p in sim.glob("trace_*.csv"))
    records = 0
    for fixture in sorted((out / "fixture").iterdir()):
        cfg = load_config(inputs / f"fixture_{fixture.name}" / "config.json")
        per_step = round(cfg.sampler.dt * 1000) // cfg.frame_period_ms
        n = _track_records(fixture / "tracks.csv")
        records += n
        per_request[f"fixture/{fixture.name}"] = (n // 2 - 1) // per_step  # two tracks per fixture
    steps = sum(per_request.values())
    return Units(steps=steps, frames=steps, records=records, request_frames=per_request)


def units_offline_regen(inputs: Path, out: Path) -> Units:
    """Frames are posterior plus regeneration frames; each regeneration frame
    is one leader decision per fixed policy and one for the estimate."""
    decisions = len(workflows.POLICIES) + 1
    per_request, steps = {}, 0
    for name in FIXTURES:
        post, regen = _posterior_and_regen_frames(inputs, name)
        per_request[name] = post + regen
        steps += post + decisions * regen
    records = sum(_track_records(inputs / name / "tracks.csv") for name in FIXTURES)
    frames = sum(per_request.values())
    return Units(steps=steps, frames=frames, records=records, request_frames=per_request)


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    units: object
    artefacts: tuple[str, ...]  # globs under the pass's output directory


WORKLOADS = {
    "closed_loop": Workload(
        setup_closed_loop,
        pass_closed_loop,
        units_closed_loop,
        ("sim/*/trace_*.csv", "sim/*/stats.json", "fixture/*/tracks.csv"),
    ),
    "offline_regen": Workload(setup_fixtures, pass_offline_regen, units_offline_regen, ("*/regen.json",)),
}
