"""Self-test of the benchmark: python3 -m pytest perfbench/test_bench.py

Checks that every metric is declared and printed with its unit, that each
results file records the machine, and that a corrupted artefact makes the
command exit non-zero.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "frames_per_s": "1/s",
    "frame_ms.p50": "ms",
    "frame_ms.p90": "ms",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"sampling.build_joint_space.{s}": u for s, u in
       (("calls", "count"), ("self_s", "s"), ("us_p50", "us"), ("distinct_ratio", "ratio"))},
    "sampling.candidates_per_side": "count",
    "sampling.collapsed_fans": "count",
    "core.position.calls": "count",
    "core.position.self_s": "s",
    "core.project_to_path.calls": "count",
    "core.project_to_path.self_s": "s",
    **{f"tracks.{f}.self_s": "s" for f in
       ("load_tracks", "extract_pairs", "resample_pair", "trace_to_records", "write_tracks")},
    "tracks.records_parsed": "count",
    "rewards.social_components.calls": "count",
    "rewards.social_components.self_s": "s",
    "rewards.components_hit_ratio": "ratio",
    "planner.plan_ego.calls": "count",
    "planner.plan_ego.self_s": "s",
    "planner.plan_ego.us_p50": "us",
    "planner.plan_ego.us_p90": "us",
    "planner.simulate.self_s": "s",
    **{f"inference.{f}.{s}": u for f in ("match_observed", "update_posterior", "infer_agent")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "inference.particle_updates": "count",
    "metrics.trajectory_mse.calls": "count",
    "metrics.trajectory_mse.self_s": "s",
    **{f"workflows.{f}.self_s": "s" for f in ("run_sim", "make_fixture", "run_infer", "run_regen")},
    "trace.overhead_ratio": "ratio",
}
PROVENANCE = {"nproc", "cpu_model", "python", "numpy", "commit", "source_sha256", "seed"}
ARGS = ["--workload", "closed_loop", "--seconds", "0"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_every_metric_printed_with_unit(trace, expected):
    out = subprocess.run(
        [sys.executable, str(RUN), *ARGS, "--seed", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    record = json.loads((ROOT / ".bench_results" / f"closed_loop-seed0-trace{trace}.json").read_text())
    assert PROVENANCE <= set(record["provenance"])
    assert record["fail_ratio"] == 0.0


# Appends a byte to every trace CSV the library writes after the first
# `skip` writes, then runs the benchmark command unchanged.
CORRUPT = """
import runpy, sys
sys.path.insert(0, {src!r})
from socialplan import workflows

original, calls = workflows.write_trace_csv, []

def corrupted(path, trace):
    original(path, trace)
    calls.append(path)
    if len(calls) > {skip}:
        with open(path, "a") as fh:
            fh.write("0")

workflows.write_trace_csv = corrupted
sys.argv = [{run!r}, *{args!r}]
runpy.run_path({run!r}, run_name="__main__")
"""


@pytest.mark.parametrize(
    "seed, skip",
    [
        (0, 0),  # same bytes on every pass, but not the committed digests
        (1, 21),  # the first pass (7 configs x 3 policies) is clean, later passes differ from it
    ],
)
def test_corrupted_artefact_fails_the_run(seed, skip):
    code = CORRUPT.format(src=str(ROOT / "src"), run=str(RUN), skip=skip,
                          args=[*ARGS, "--seed", str(seed), "--trace", "0"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=180)
    assert out.returncode == 1, out.stderr
    assert _last_json(out.stdout)["correct"] is False
    assert "CHECK FAILED" in out.stderr
