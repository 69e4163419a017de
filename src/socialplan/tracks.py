"""Track and path file IO, pair extraction, and synthetic fixture export.

Track CSV schema: ``track_id,frame_id,timestamp_ms,x,y,vx,vy`` (meters,
meters/second, millisecond integer timestamps on a constant frame period).
Path CSV schema: ``x,y`` polyline vertices in meters.  All floats are
written with fixed 6-decimal formatting so outputs diff bit-exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ReferencePath, find_conflict_point, project_to_path
from .errors import NoConflictError, ParseError, SchemaError, ShortTrackError
from .planner import InteractionTrace

TRACK_HEADER = ["track_id", "frame_id", "timestamp_ms", "x", "y", "vx", "vy"]
PATH_HEADER = ["x", "y"]
MAX_LATERAL_FIT = 3.0  # m, a track must stay this close to its path


@dataclass(frozen=True)
class TrackRecord:
    track_id: int
    frame: int
    timestamp_ms: int
    x: float
    y: float
    vx: float
    vy: float

    @property
    def speed(self) -> float:
        return float(np.hypot(self.vx, self.vy))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def load_tracks(path) -> dict[int, list[TrackRecord]]:
    """Parse and group a track CSV; frames must increase within each track."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != TRACK_HEADER:
        raise SchemaError(f"expected track header {','.join(TRACK_HEADER)!r}")
    tracks: dict[int, list[TrackRecord]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(TRACK_HEADER):
            raise ParseError(f"expected {len(TRACK_HEADER)} fields, got {len(parts)}", row=lineno)
        try:
            rec = TrackRecord(
                track_id=int(parts[0]),
                frame=int(parts[1]),
                timestamp_ms=int(parts[2]),
                x=_finite(parts[3]),
                y=_finite(parts[4]),
                vx=_finite(parts[5]),
                vy=_finite(parts[6]),
            )
        except ValueError as exc:
            raise ParseError(str(exc), row=lineno) from exc
        group = tracks.setdefault(rec.track_id, [])
        if group and rec.frame <= group[-1].frame:
            raise ParseError(
                f"track {rec.track_id} frames must increase ({group[-1].frame} -> {rec.frame})",
                row=lineno,
            )
        group.append(rec)
    for tid, group in tracks.items():
        stamps = np.array([r.timestamp_ms for r in group])
        if len(stamps) >= 3 and len(set(np.diff(stamps))) > 1:
            raise ParseError(f"track {tid} timestamps are not on a constant frame period")
    return tracks


def write_tracks(path, records: list[TrackRecord]) -> None:
    rows = [",".join(TRACK_HEADER)]
    for r in records:
        rows.append(
            f"{r.track_id},{r.frame},{r.timestamp_ms},"
            f"{_fmt(r.x)},{_fmt(r.y)},{_fmt(r.vx)},{_fmt(r.vy)}"
        )
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def load_path_csv(path, speed_limit: float) -> ReferencePath:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split(",") != PATH_HEADER:
        raise SchemaError(f"expected path header {','.join(PATH_HEADER)!r}")
    pts = []
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
    if len(pts) < 2:
        raise ParseError("a path needs at least 2 vertices")
    return ReferencePath.from_points(np.array(pts), speed_limit)


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
    dt: float


@dataclass(frozen=True)
class InteractionPair:
    """Two tracks on distinct, conflicting paths that cross near in time."""

    ego_id: int
    other_id: int
    path_ego: ReferencePath
    path_other: ReferencePath
    overlap: tuple[int, int]  # first/last shared frame
    t_cross_ego_ms: float
    t_cross_other_ms: float


def _fit_path(records: list[TrackRecord], path: ReferencePath):
    """(s, d) projections, or None when the track strays beyond the lateral bound."""
    proj = np.array([project_to_path((r.x, r.y), path) for r in records])
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
    tracks: dict[int, list[TrackRecord]],
    paths_ego: list[ReferencePath],
    paths_other: list[ReferencePath],
    conflict_window_s: float = 10.0,
) -> list[InteractionPair]:
    """Pairs of tracks on conflicting paths whose crossings fall within the window."""
    assignments: dict[str, list[tuple[int, ReferencePath, np.ndarray]]] = {"ego": [], "other": []}
    for role, paths in (("ego", paths_ego), ("other", paths_other)):
        for tid in sorted(tracks):
            best = None
            for ref in paths:
                proj = _fit_path(tracks[tid], ref)
                if proj is None:
                    continue
                rms = float(np.mean(proj[:, 1] ** 2))
                if best is None or rms < best[0]:
                    best = (rms, ref, proj)
            if best is not None:
                assignments[role].append((tid, best[1], best[2]))

    pairs = []
    for ego_id, path_e, proj_e in assignments["ego"]:
        for other_id, path_o, proj_o in assignments["other"]:
            if ego_id == other_id or path_e is path_o:
                continue
            try:
                conflict = find_conflict_point(path_e, path_o)
            except NoConflictError:
                continue
            te = np.array([r.timestamp_ms for r in tracks[ego_id]], dtype=float)
            to = np.array([r.timestamp_ms for r in tracks[other_id]], dtype=float)
            cross_e = _crossing_time_ms(te, proj_e[:, 0], conflict.s_ego)
            cross_o = _crossing_time_ms(to, proj_o[:, 0], conflict.s_other)
            if abs(cross_e - cross_o) > conflict_window_s * 1000.0:
                continue
            fe = [r.frame for r in tracks[ego_id]]
            fo = [r.frame for r in tracks[other_id]]
            overlap = (max(fe[0], fo[0]), min(fe[-1], fo[-1]))
            if overlap[0] > overlap[1]:
                continue
            pairs.append(
                InteractionPair(
                    ego_id=ego_id,
                    other_id=other_id,
                    path_ego=path_e,
                    path_other=path_o,
                    overlap=overlap,
                    t_cross_ego_ms=cross_e,
                    t_cross_other_ms=cross_o,
                )
            )
    return pairs


def _resample_role(records: list[TrackRecord], path: ReferencePath, grid_ms: np.ndarray) -> ObservedTrack:
    times = np.array([r.timestamp_ms for r in records], dtype=float)
    xs = np.array([r.x for r in records])
    ys = np.array([r.y for r in records])
    speeds = np.array([r.speed for r in records])
    proj = np.array([project_to_path((r.x, r.y), path) for r in records])
    return ObservedTrack(
        track_id=records[0].track_id,
        times_ms=grid_ms,
        s=np.interp(grid_ms, times, proj[:, 0]),
        v=np.interp(grid_ms, times, speeds),
        d=np.interp(grid_ms, times, proj[:, 1]),
        xy=np.stack([np.interp(grid_ms, times, xs), np.interp(grid_ms, times, ys)], axis=1),
    )


def resample_pair(
    tracks: dict[int, list[TrackRecord]], pair: InteractionPair, dt: float
) -> ObservedPair:
    """Put both tracks of a pair on a shared planning-rate time grid."""
    rec_e, rec_o = tracks[pair.ego_id], tracks[pair.other_id]
    t0 = max(rec_e[0].timestamp_ms, rec_o[0].timestamp_ms)
    t1 = min(rec_e[-1].timestamp_ms, rec_o[-1].timestamp_ms)
    dt_ms = dt * 1000.0
    n = int(np.floor((t1 - t0) / dt_ms + 1e-9))
    if n < 1:
        raise ShortTrackError("tracks share less than one planning step of overlap")
    grid = t0 + dt_ms * np.arange(n + 1)
    return ObservedPair(
        ego=_resample_role(rec_e, pair.path_ego, grid),
        other=_resample_role(rec_o, pair.path_other, grid),
        dt=dt,
    )


def _exact_substates(s0: float, v0: float, a: float, taus: np.ndarray):
    """Closed-form states inside one constant-acceleration step, speed clamped at 0."""
    if a < 0.0 and v0 + a * taus[-1] < 0.0:
        t_stop = v0 / -a
        tt = np.minimum(taus, t_stop)
    else:
        tt = taus
    s = s0 + v0 * tt + 0.5 * a * tt * tt
    v = np.maximum(v0 + a * tt, 0.0)
    return s, v


def trace_to_records(trace: InteractionTrace, frame_period_ms: int = 50) -> list[TrackRecord]:
    """Sample a simulated trace into track records at the given frame period.

    The dynamics are exactly integrable inside each applied step, so frames
    are exact states, not interpolations.  The step length in milliseconds
    must be a multiple of the frame period.
    """
    dt_ms = round(trace.dt * 1000.0)
    if abs(trace.dt * 1000.0 - dt_ms) > 1e-6 or dt_ms % frame_period_ms != 0:
        raise ValueError("frame period must divide the planning step length")
    per_step = dt_ms // frame_period_ms
    records = []
    for track_id, path, getter, accels in (
        (0, trace.path_ego, lambda js: js.ego, trace.a_ego),
        (1, trace.path_other, lambda js: js.other, trace.a_other),
    ):
        rows: list[tuple[int, float, float]] = []  # (t_ms, s, v)
        for k, a in enumerate(accels):
            st = getter(trace.joint_states[k])
            taus = (np.arange(per_step) * frame_period_ms) / 1000.0
            s, v = _exact_substates(st.s, st.v, float(a), taus)
            rows += [(k * dt_ms + i * frame_period_ms, si, vi) for i, (si, vi) in enumerate(zip(s, v))]
        last = getter(trace.joint_states[-1])
        rows.append((len(accels) * dt_ms, last.s, last.v))
        d = getter(trace.joint_states[0]).d
        s_arr = np.array([r[1] for r in rows])
        xy = path.position(s_arr, d)
        tan = path.tangent(s_arr)
        for frame, ((t_ms, _, v), (x, y), (tx, ty)) in enumerate(zip(rows, xy, tan)):
            records.append(
                TrackRecord(
                    track_id=track_id,
                    frame=frame,
                    timestamp_ms=int(t_ms),
                    x=float(x),
                    y=float(y),
                    vx=float(v * tx),
                    vy=float(v * ty),
                )
            )
    return records
