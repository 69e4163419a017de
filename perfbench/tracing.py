"""Span tracing of the socialplan layers, installed from outside the library.

Each wrap replaces a function at the place its caller looks it up (a module
global or a class attribute), so no library file changes.  Wrapping
``sampling.build_joint_space`` itself would catch nothing: ``planner``
imported the name, so the wrap goes on ``planner.build_joint_space``.

A span is ``[id, name, start, end, parent_id, note]``.  Spans stay in memory
and are summarised (and optionally written out) after each pass.  A note is
a small value taken from the call's arguments or result, from which the
counters are computed.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict

from socialplan import inference, metrics, planner, sampling, tracks, workflows
from socialplan.core import ReferencePath
from socialplan.sampling import JointBehaviorSpace


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        # Pool workers (run_sim --threads) start with an empty stack; their
        # root spans hang under the innermost open span of the creating thread.
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        self.names: set[str] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        spans, stack_of, main_stack, ids = self.spans, self._stack, self._main_stack, self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [next(ids), name, 0.0, 0.0, parent, None]
            stack.append(span[0])
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
            if note is not None:
                span[5] = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        self.names.add(name)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Spans recorded since the last call."""
        out = self.spans[:]
        self.spans.clear()
        return out


def _build_note(args, space):
    x0, sampler_cfg = args[0], args[4]
    fans = len(sampler_cfg.terminal_speed_fractions)
    return ((x0.ego, x0.other), len(space.ego_candidates), len(space.other_candidates), fans)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary (see the module docstring)."""
    w = tracer.wrap
    w(planner, "build_joint_space", "sampling.build_joint_space", _build_note)
    w(ReferencePath, "position", "core.position")
    w(tracks, "project_to_path", "core.project_to_path")
    w(sampling, "social_components", "rewards.social_components")
    w(JointBehaviorSpace, "components", "sampling.JointBehaviorSpace.components")
    w(planner, "plan_ego", "planner.plan_ego")
    w(workflows, "plan_ego", "planner.plan_ego")
    w(workflows, "simulate", "planner.simulate")
    w(inference, "match_observed", "inference.match_observed")
    w(inference, "update_posterior", "inference.update_posterior", lambda a, r: len(a[0].weights))
    w(inference, "infer_agent", "inference.infer_agent")
    w(metrics, "trajectory_mse", "metrics.trajectory_mse")
    w(workflows, "load_tracks", "tracks.load_tracks", lambda a, r: sum(map(len, r.values())))
    w(workflows, "extract_pairs", "tracks.extract_pairs")
    w(workflows, "resample_pair", "tracks.resample_pair")
    w(workflows, "trace_to_records", "tracks.trace_to_records")
    w(workflows, "write_tracks", "tracks.write_tracks")
    for fn in ("run_sim", "make_fixture", "run_infer", "run_regen"):
        w(workflows, fn, f"workflows.{fn}")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarise(spans: list[list], names) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-pass layer metrics, plus each span name's inclusive durations (us).

    Every name in names gets calls and self_s, zero when it was not called.
    self_s is a span's duration minus the part its children cover, summed
    per name; counters come from the span notes.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    notes: dict[str, list] = defaultdict(list)
    for sid, name, start, end, _, note in spans:
        calls[name] += 1
        self_s[name] += (end - start) - _covered(children.get(sid, []), start, end)
        durations[name].append((end - start) * 1e6)
        if note is not None:
            notes[name].append(note)

    out: dict[str, float] = {}
    for name in sorted(names):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]

    builds = notes["sampling.build_joint_space"]
    n = len(builds)
    out["sampling.build_joint_space.distinct_ratio"] = len({b[0] for b in builds}) / n if n else 0.0
    out["sampling.candidates_per_side"] = sum(b[1] + b[2] for b in builds) / (2 * n) if n else 0.0
    out["sampling.collapsed_fans"] = sum((b[1] < b[3]) + (b[2] < b[3]) for b in builds)
    out["tracks.records_parsed"] = sum(notes["tracks.load_tracks"])
    out["inference.particle_updates"] = sum(notes["inference.update_posterior"])
    lookups = calls["sampling.JointBehaviorSpace.components"]
    misses = calls["rewards.social_components"]
    out["rewards.components_hit_ratio"] = 1.0 - misses / lookups if lookups else 0.0
    return out, durations


def write_spans(path, spans: list[list]) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent_id\n")
        t0 = min((s[2] for s in spans), default=0.0)
        for sid, name, start, end, parent, _ in sorted(spans):
            fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},{'' if parent is None else parent}\n")
