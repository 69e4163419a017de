"""The socialplan benchmark: two seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload closed_loop --seed 0 --seconds 20 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  One run:

1. set-up, repeated ``SETUP_REPEATS`` times: time ``import socialplan`` in a
   fresh interpreter and write the seeded inputs (``setup_s`` is the sum of
   the two medians);
2. timed passes for about ``--seconds`` (a pass starts only if it should
   end within half a pass of the deadline).  With ``--trace 1`` the first
   half runs untraced and the second half with every layer wrapped (see
   tracing.py).  The first pass's artefacts are the reference bytes;
3. checks, any of which makes the run exit 1: every pass writes the same
   artefact bytes (traced passes too); at seed 0 the bytes match the digests
   committed in digests.json; traced counts repeat exactly on every traced
   pass.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations over the timed passes) and
``metrics`` -- the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``.  The same figures, with the sample
counts and the machine, go to .bench_results/ in the checkout.

End-to-end timings are taken from each request's fastest repetition over
the run's passes (one request is one library call: a ``run_sim``,
``make_fixture`` or ``run_regen``).  On a shared host other tenants slow
stretches of a run (by up to 1.8x on a 2-vCPU cloud VM); the fastest
repetition is the one they disturbed least, while a slower program slows
every repetition.

End-to-end metrics (all workloads report all of them):
  wall_s          time of one pass: the sum of the requests' fastest times
  steps_per_s     leader decisions per second, made (closed_loop) or replayed
                  on a joint space (one per posterior frame, plus one per
                  policy per regeneration frame)
  frames_per_s    frames per second: closed-loop steps, or posterior and
                  regeneration frames
  frame_ms.p50/90 per-frame latency: percentiles over the requests of each
                  request's fastest time over the frames it processed
  records_per_s   track records read (offline_regen) or written (closed_loop)
                  per second
  peak_rss_mb     peak resident memory of the run
The rates divide work fixed by the inputs by wall_s.  The failure share is
the top-level ``failed`` over ``attempted``.

To refresh digests.json after a deliberate output change:
    python3 perfbench/run.py --workload <name> --seed 0 --seconds 1 --trace 0 --update-digests
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 7
MIN_PASSES = 2
DEFAULT_SEED = 0
IMPORT_PROBE = "import time; t = time.perf_counter(); import socialplan; print(time.perf_counter() - t)"


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_seconds() -> float:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if out.returncode != 0:
        raise RuntimeError(f"importing socialplan failed:\n{out.stderr}")
    return float(out.stdout.strip())


def _digests(out: Path, globs) -> dict[str, str]:
    files = sorted({p for g in globs for p in out.glob(g) if p.is_file()})
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def _provenance(seed: int) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for p in sorted((SRC / "socialplan").rglob("*.py")):
        source.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


class Run:
    """One benchmark invocation: set-up, passes, checks and the result line."""

    def __init__(self, workload, name: str, seed: int, work: Path):
        self.wl, self.name, self.seed = workload, name, seed
        self.inputs, self.out = work / "inputs", work / "out"
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None

    def setup(self) -> float:
        imports, writes = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(_import_seconds())
            shutil.rmtree(self.inputs, ignore_errors=True)
            start = time.perf_counter()
            self.wl.setup(self.inputs, self.seed)
            writes.append(time.perf_counter() - start)
        return _median(imports) + _median(writes)

    def one_pass(self, label: str):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        res = self.wl.run_pass(self.inputs, self.out)
        wall = time.perf_counter() - start
        digests = _digests(self.out, self.wl.artefacts)
        if self.reference is None:
            self.reference = digests
            if not digests:
                self.problems.append(f"{label} pass wrote no artefacts")
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys() if digests.get(k) != self.reference.get(k))
            self.problems.append(f"{label} pass wrote different bytes: {changed[:5]}")
        return wall, res

    def passes(self, seconds: float, label: str, between=None):
        walls, results = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_PASSES or time.perf_counter() + _median(walls) / 2 < deadline:
            wall, res = self.one_pass(label)
            walls.append(wall)
            results.append(res)
            if between is not None:
                between()
        return walls, results

    def check_committed(self, update: bool) -> None:
        committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if update:
            committed[self.name] = self.reference
            DIGESTS.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
        elif committed.get(self.name) != self.reference:
            expected = committed.get(self.name, {})
            changed = sorted(
                k for k in expected.keys() | self.reference.keys() if expected.get(k) != self.reference.get(k)
            )
            self.problems.append(f"artefacts differ from the digests committed for seed {DEFAULT_SEED}: {changed[:5]}")


def _fastest(results) -> dict[str, float]:
    """Each request's fastest time over the passes."""
    best: dict[str, float] = {}
    for res in results:
        for key, seconds in res.requests:
            best[key] = min(seconds, best.get(key, seconds))
    return best


def _end_to_end(units, walls, results, setup_s) -> tuple[dict, dict]:
    best = _fastest(results)
    wall = sum(best.values())
    frame_ms = [
        1000.0 * seconds / units.request_frames[key] for key, seconds in best.items() if units.request_frames.get(key)
    ]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "steps_per_s": units.steps / wall,
        "frames_per_s": units.frames / wall,
        "frame_ms.p50": _median(frame_ms),
        "frame_ms.p90": _percentile(frame_ms, 90),
        "records_per_s": units.records / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"passes": len(walls), "requests": len(best), "frame_ms": len(frame_ms), "setup": SETUP_REPEATS}
    return metrics, samples


def _percentile(values, q: int) -> float:
    """q-th percentile (1..99) by linear interpolation; 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _per_layer(summaries, traced_walls, untraced_walls, problems) -> dict:
    """Counts from the first traced pass, medians of self times over passes."""
    counts, self_times, durations = [], [], {}
    for layer, durs in summaries:
        counts.append({k: v for k, v in layer.items() if not k.endswith(".self_s")})
        self_times.append({k: v for k, v in layer.items() if k.endswith(".self_s")})
        for name, values in durs.items():
            durations.setdefault(name, []).extend(values)
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced counts differ between traced passes")
    metrics = dict(counts[0])
    for key in self_times[0]:
        metrics[key] = _median([t[key] for t in self_times])
    for name, qs in (("sampling.build_joint_space", (50,)), ("planner.plan_ego", (50, 90))):
        for q in qs:
            metrics[f"{name}.us_p{q}"] = _percentile(durations.get(name, []), q)
    metrics["trace.overhead_ratio"] = _median(traced_walls) / _median(untraced_walls) - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true", help=f"record seed {DEFAULT_SEED}'s artefacts")
    args = parser.parse_args(argv)

    if not (SRC / "socialplan" / "__init__.py").is_file():
        print(f"perfbench: no socialplan sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.update_digests and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--update-digests needs --seed {DEFAULT_SEED} --trace 0")

    sys.path[:0] = [str(SRC), str(HERE)]
    import socialplan
    import tracing
    from workloads import WORKLOADS

    if Path(socialplan.__file__).resolve().parent != (SRC / "socialplan").resolve():
        print(f"perfbench: imported socialplan from {socialplan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(wl, args.workload, args.seed, work)
    try:
        setup_s = run.setup()
        if args.trace:
            walls, results = run.passes(args.seconds / 2, "untraced")
            tracer = tracing.Tracer()
            summaries, last_spans = [], []

            def summarise_pass():
                last_spans[:] = tracer.take()
                summaries.append(tracing.summarise(last_spans, tracer.names))

            tracing.install(tracer)
            try:
                traced_walls, _ = run.passes(args.seconds / 2, "traced", summarise_pass)
            finally:
                tracer.unwrap_all()
            measured = _per_layer(summaries, traced_walls, walls, run.problems)
            samples = {"untraced_passes": len(walls), "traced_passes": len(traced_walls)}
        else:
            walls, results = run.passes(args.seconds, "timed")
            measured, samples = _end_to_end(wl.units(run.inputs, run.out), walls, results, setup_s)
        if args.seed == DEFAULT_SEED:
            run.check_committed(args.update_digests)

        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            run.problems.append(f"metrics not measured: {missing}")
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        result = {
            "correct": not run.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                for m in declared
                if m["name"] in measured
            },
        }
        results_dir = ROOT / ".bench_results"
        results_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            **result,
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "fail_ratio": failed / attempted if attempted else 0.0,
            "samples": samples,
            "walls_s": walls,
            "problems": run.problems,
            "provenance": _provenance(args.seed),
        }
        if args.trace:
            record["traced_walls_s"] = traced_walls
            tracing.write_spans(results_dir / f"{stem}-spans.csv.gz", last_spans)
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in run.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {samples}, fail_ratio {record['fail_ratio']:.4f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
