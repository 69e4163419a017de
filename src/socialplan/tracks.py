"""Track and path file IO, pair extraction, and synthetic fixture export.

Track CSV schema: ``track_id,frame_id,timestamp_ms,x,y,vx,vy`` (meters,
meters/second, millisecond integer timestamps on a constant frame period).
Path CSV schema: ``x,y`` polyline vertices in meters.  All floats are
written with fixed 6-decimal formatting so outputs diff bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ReferencePath, _arclength, project_to_path, state_columns
from .errors import ParseError, SchemaError, ShortTrackError
from .planner import InteractionTrace, Scenario

TRACK_HEADER = ["track_id", "frame_id", "timestamp_ms", "x", "y", "vx", "vy"]
PATH_HEADER = ["x", "y"]
MAX_LATERAL_FIT = 3.0  # m, a track must stay this close to its path
MAX_GRID_STEPS = 10_000  # planning steps of one pair's shared grid (resample_pair)


@dataclass(frozen=True, eq=False)  # array fields: compare columns with np.array_equal
class Track:
    """One track's records as columns: row i is the track's i-th record."""

    track_id: int
    frame: np.ndarray  # (m,) int
    timestamp_ms: np.ndarray  # (m,) int
    xy: np.ndarray  # (m, 2) m
    vxy: np.ndarray  # (m, 2) m/s

    def __len__(self) -> int:
        return len(self.frame)


def _fmt(x: float) -> str:
    """The fixed 6-decimal format of every float field in a written CSV."""
    return f"{x:.6f}"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"integer {text!r} out of range")
    return value


def _lines(path, kind: str) -> list[str]:
    """The lines of a CSV file; bytes that are not UTF-8 are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{kind} file is not UTF-8: {exc}") from exc


def load_tracks(path) -> dict[int, Track]:
    """Parse and group a track CSV.

    Within each track the frames must increase and the timestamps must
    increase by one constant frame period.
    """
    lines = _lines(path, "track")
    if not lines or lines[0].split(",") != TRACK_HEADER:
        raise SchemaError(f"expected track header {','.join(TRACK_HEADER)!r}")
    rows: dict[int, list[tuple]] = {}  # track id -> (frame, timestamp_ms, x, y, vx, vy) rows
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(TRACK_HEADER):
            raise ParseError(f"expected {len(TRACK_HEADER)} fields, got {len(parts)}", row=lineno)
        try:
            tid = int(parts[0])
            row = (_int64(parts[1]), _int64(parts[2]), *map(_finite, parts[3:]))
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
        group = rows.setdefault(tid, [])
        if group:
            last = group[-1]
            if row[0] <= last[0]:
                raise ParseError(f"track {tid} frames must increase ({last[0]} -> {row[0]})", row=lineno)
            period = row[1] - last[1]
            if period <= 0:
                raise ParseError(f"track {tid} timestamps must increase ({last[1]} -> {row[1]})", row=lineno)
            if len(group) >= 2 and period != last[1] - group[-2][1]:
                raise ParseError(f"track {tid} timestamps are not on a constant frame period", row=lineno)
        group.append(row)
    tracks = {}
    for tid, group in rows.items():
        frame, stamps, x, y, vx, vy = map(np.array, zip(*group))
        tracks[tid] = Track(tid, frame, stamps, np.stack([x, y], axis=1), np.stack([vx, vy], axis=1))
    return tracks


def write_tracks(path, tracks: list[Track]) -> None:
    """Write the tracks in the given order, each track's records in row order."""
    rows = [",".join(TRACK_HEADER)]
    for t in tracks:
        for frame, stamp, (x, y), (vx, vy) in zip(
            t.frame.tolist(), t.timestamp_ms.tolist(), t.xy.tolist(), t.vxy.tolist()
        ):
            rows.append(f"{t.track_id},{frame},{stamp},{_fmt(x)},{_fmt(y)},{_fmt(vx)},{_fmt(vy)}")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def load_path_csv(path, speed_limit: float) -> ReferencePath:
    """Parse a path CSV; consecutive vertices must be distinct and the arclength finite (a ParseError names the row)."""
    lines = _lines(path, "path")
    if not lines or lines[0].split(",") != PATH_HEADER:
        raise SchemaError(f"expected path header {','.join(PATH_HEADER)!r}")
    pts, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected 2 fields", row=lineno)
        try:
            pts.append((_finite(parts[0]), _finite(parts[1])))
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
        linenos.append(lineno)
    if len(pts) < 2:
        raise ParseError("a path needs at least 2 vertices")
    pts = np.array(pts)
    # ReferencePath.from_points' own tests, so neither failure reaches it as a ValueError
    seg, cum = _arclength(pts)
    repeats = np.flatnonzero(seg <= 0.0)
    if len(repeats):
        raise ParseError("consecutive path points must be distinct", row=linenos[repeats[0] + 1])
    if not np.isfinite(cum[-1]):  # the arclength never decreases, so it overflows at its first inf
        raise ParseError("path arclength overflows; use smaller coordinates", row=linenos[np.isfinite(cum).argmin()])
    return ReferencePath.from_points(pts, speed_limit)


def write_path_csv(path, ref: ReferencePath) -> None:
    rows = [",".join(PATH_HEADER)]
    rows += [f"{_fmt(x)},{_fmt(y)}" for x, y in ref.points]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ObservedTrack:
    """One track resampled onto the planning-rate grid and projected to a path."""

    track_id: int
    times_ms: np.ndarray
    s: np.ndarray
    v: np.ndarray
    d: np.ndarray
    xy: np.ndarray


@dataclass(frozen=True)
class ObservedPair:
    ego: ObservedTrack
    other: ObservedTrack


@dataclass(frozen=True)
class InteractionPair:
    """Two tracks, one on each of the scenario's paths, that cross its conflict point near in time.

    proj_ego/proj_other hold each track's (s, d) projection onto its path,
    one row per record, as computed when the track was fitted.
    """

    ego_id: int
    other_id: int
    proj_ego: np.ndarray = field(repr=False, compare=False)
    proj_other: np.ndarray = field(repr=False, compare=False)


def _fit_path(track: Track, path: ReferencePath):
    """(m, 2) rows of (s, d) projections, or None when the track strays beyond the lateral bound."""
    proj = np.stack(project_to_path(track.xy, path), axis=-1)
    if np.max(np.abs(proj[:, 1])) >= MAX_LATERAL_FIT:
        return None
    return proj


def _crossing_time_ms(times: np.ndarray, s: np.ndarray, s_conflict: float) -> float:
    """Interpolated conflict-crossing time; closest approach if never crossed.

    A car that yields until the recording ends still anchors the pair window
    at the moment it came closest to the conflict point.
    """
    if s[0] >= s_conflict:
        return float(times[0])
    idx = np.nonzero(s >= s_conflict)[0]
    if len(idx) == 0:
        return float(times[int(np.argmin(np.abs(s - s_conflict)))])
    i = int(idx[0])
    frac = (s_conflict - s[i - 1]) / (s[i] - s[i - 1])
    return float(times[i - 1] + frac * (times[i] - times[i - 1]))


def extract_pairs(
    tracks: dict[int, Track], scenario: Scenario, conflict_window_s: float = 10.0
) -> list[InteractionPair]:
    """Pairs of tracks on the scenario's two paths whose conflict crossings fall within the window.

    Every track is fitted once to each path, and the crossings are taken at
    scenario.conflict; the two tracks of a pair differ and share a frame.
    """
    fits: dict[str, list[tuple[int, np.ndarray, float]]] = {"ego": [], "other": []}  # (track id, proj, crossing ms)
    for role, path, s_conflict in (
        ("ego", scenario.path_ego, scenario.conflict.s_ego),
        ("other", scenario.path_other, scenario.conflict.s_other),
    ):
        for tid in sorted(tracks):
            proj = _fit_path(tracks[tid], path)
            if proj is not None:
                cross = _crossing_time_ms(tracks[tid].timestamp_ms.astype(float), proj[:, 0], s_conflict)
                fits[role].append((tid, proj, cross))

    pairs = []
    for ego_id, proj_e, cross_e in fits["ego"]:
        for other_id, proj_o, cross_o in fits["other"]:
            if ego_id == other_id or abs(cross_e - cross_o) > conflict_window_s * 1000.0:
                continue
            fe, fo = tracks[ego_id].frame, tracks[other_id].frame
            if max(fe[0], fo[0]) > min(fe[-1], fo[-1]):
                continue  # no shared frame
            pairs.append(InteractionPair(ego_id, other_id, proj_ego=proj_e, proj_other=proj_o))
    return pairs


def _resample_role(track: Track, proj: np.ndarray, grid_ms: np.ndarray) -> ObservedTrack:
    times = track.timestamp_ms.astype(float)
    return ObservedTrack(
        track_id=track.track_id,
        times_ms=grid_ms,
        s=np.interp(grid_ms, times, proj[:, 0]),
        v=np.interp(grid_ms, times, np.hypot(*track.vxy.T)),
        d=np.interp(grid_ms, times, proj[:, 1]),
        xy=np.stack([np.interp(grid_ms, times, col) for col in track.xy.T], axis=1),
    )


def resample_pair(tracks: dict[int, Track], pair: InteractionPair, dt: float) -> ObservedPair:
    """Put both tracks of a pair on a shared planning-rate time grid.

    tracks must be the ones the pair was extracted from: the path
    projections are the ones the pair carries.  A grid of more than
    MAX_GRID_STEPS steps is a SchemaError, raised before it is allocated:
    replay builds every step of it in one pass.
    """
    track_e, track_o = tracks[pair.ego_id], tracks[pair.other_id]
    t0 = max(track_e.timestamp_ms[0], track_o.timestamp_ms[0])
    t1 = min(track_e.timestamp_ms[-1], track_o.timestamp_ms[-1])
    dt_ms = dt * 1000.0
    with np.errstate(over="ignore"):  # a subnormal dt overflows to inf, which the bound rejects
        steps = np.floor((t1 - t0) / dt_ms + 1e-9)
    if steps > MAX_GRID_STEPS:
        raise SchemaError(
            f"sampler.dt = {dt!r} s puts the {t1 - t0} ms that tracks {pair.ego_id} and {pair.other_id} share "
            f"on more than {MAX_GRID_STEPS} planning steps; use a larger dt"
        )
    n = int(steps)
    if n < 1:
        raise ShortTrackError("tracks share less than one planning step of overlap")
    grid = t0 + dt_ms * np.arange(n + 1)
    return ObservedPair(
        ego=_resample_role(track_e, pair.proj_ego, grid),
        other=_resample_role(track_o, pair.proj_other, grid),
    )


def _exact_substates(s0: np.ndarray, v0: np.ndarray, a: np.ndarray, taus: np.ndarray):
    """Closed-form states (steps, frames) at times taus into steps of constant acceleration.

    s0, v0 and a are (steps,), each step's start state and acceleration.
    Speed is clamped at 0: a step whose speed would go negative by its last
    frame holds still from its stop time v0 / -a on.  Each entry repeats the
    float operations of the step on its own, so the bits do not depend on
    the other steps.
    """
    s0, v0, a = s0[:, None], v0[:, None], a[:, None]
    stops = (a < 0.0) & (v0 + a * taus[-1] < 0.0)
    tt = np.where(stops, np.minimum(taus, v0 / np.where(stops, -a, 1.0)), taus)
    return s0 + v0 * tt + 0.5 * a * tt * tt, np.maximum(v0 + a * tt, 0.0)


def divides_step(frame_period_ms: int, dt: float) -> bool:
    """Whether a step of dt seconds is a whole number of milliseconds and of frame periods."""
    dt_ms = round(dt * 1000.0)
    return abs(dt * 1000.0 - dt_ms) <= 1e-6 and dt_ms % frame_period_ms == 0


def trace_to_records(trace: InteractionTrace, frame_period_ms: int = 50) -> list[Track]:
    """Sample a simulated trace into two tracks (ids 0 and 1) at the given frame period.

    The dynamics are exactly integrable inside each applied step, so frames
    are exact states, not interpolations.  The step length in milliseconds
    must be a multiple of the frame period (divides_step).  Every step's
    frames come from one array pass (_exact_substates).
    """
    if not divides_step(frame_period_ms, trace.dt):
        raise ValueError("frame period must divide the planning step length")
    taus = np.arange(0, round(trace.dt * 1000.0), frame_period_ms) / 1000.0
    x, tracks = state_columns(trace.joint_states), []
    for track_id, path, accels in ((0, trace.path_ego, trace.a_ego), (1, trace.path_other, trace.a_other)):
        (s0, v0, d), n = x[:, track_id], len(accels)
        s, v = _exact_substates(s0[:n], v0[:n], np.asarray(accels, dtype=float), taus)
        s, v = np.append(s, s0[-1]), np.append(v, v0[-1])
        frame = np.arange(len(s))
        xy, vxy = path.position(s, d[0]), v[:, None] * path.tangent(s)
        tracks.append(Track(track_id, frame, frame * frame_period_ms, xy, vxy))
    return tracks
