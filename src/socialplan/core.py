"""Reference-path geometry and longitudinal vehicle dynamics.

Both interacting cars are modeled as path-constrained double integrators:
the state of a car is (s, v, d) with arclength s along its own reference
path, longitudinal speed v, and a lateral offset d that is constant per
candidate trajectory.  The control is a scalar longitudinal acceleration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoConflictError

_EPS = 1e-12


def _arclength(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment lengths (n-1,) and cumulative arclength (n,) of finite vertices (n, 2); inf where they overflow."""
    with np.errstate(over="ignore"):
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        return seg, np.concatenate([[0.0], np.cumsum(seg)])


@dataclass(frozen=True, eq=False)  # array fields: paths compare and hash by identity
class ReferencePath:
    """Polyline reference path with a speed limit; the cumulative arclength is derived.

    points: (n, 2) vertex array in meters, n >= 2, finite, consecutive vertices distinct.
    """

    points: np.ndarray
    speed_limit: float
    # derived in __post_init__: cumulative arclength (n,), segment lengths, unit directions, left normals
    cumulative_arclength: np.ndarray = field(init=False)
    _seg_len: np.ndarray = field(init=False, repr=False)
    _unit: np.ndarray = field(init=False, repr=False)
    _normal: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)  # a copy: writes to the caller's array leave the path as checked
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("path needs at least 2 two-dimensional points")
        if not np.isfinite(pts).all():
            raise ValueError("path points must be finite")
        seg_len, cum = _arclength(pts)
        if np.any(seg_len <= 0.0):
            raise ValueError("consecutive path points must be distinct")
        if not np.isfinite(cum[-1]):
            raise ValueError("path arclength overflows; use smaller coordinates")
        speed_limit = float(self.speed_limit)
        if not speed_limit > 0.0:  # NaN fails too
            raise ValueError("speed_limit must be positive")
        unit = np.diff(pts, axis=0) / seg_len[:, None]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "speed_limit", speed_limit)
        object.__setattr__(self, "cumulative_arclength", cum)
        object.__setattr__(self, "_seg_len", seg_len)
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_normal", np.stack([-unit[:, 1], unit[:, 0]], axis=-1))

    @property
    def length(self) -> float:
        return float(self.cumulative_arclength[-1])

    def _segment_index(self, s):
        # the ufuncs and the array methods, not np.clip / np.searchsorted: this
        # runs twice per joint space, and those wrappers cost more than the work;
        # callers gather with ndarray.take for the same reason (fancy indexing
        # the (n, 2) rows costs several times what take does)
        idx = self.cumulative_arclength.searchsorted(s, side="right") - 1
        return np.minimum(np.maximum(idx, 0), len(self.points) - 2)

    def position(self, s, d=0.0) -> np.ndarray:
        """Cartesian position at arclength s and lateral offset d (positive = left).

        Arclengths beyond the endpoints extrapolate along the end segments, so a
        car that crosses the end of its polyline keeps a well-defined position.
        d broadcasts to s's shape; the result is (*s.shape, 2).
        """
        s = np.asarray(s, dtype=float)
        idx = self._segment_index(s)
        offset = (s - self.cumulative_arclength.take(idx))[..., None]
        # points + offset * unit + d * normal, added in that order, in place over one
        # (..., 2) temporary (mode="clip" takes into it without a buffer; idx is in range)
        xy = self.points.take(idx, axis=0)
        step = self._unit.take(idx, axis=0)
        step *= offset
        xy += step
        step = self._normal.take(idx, axis=0, out=step, mode="clip")
        step *= np.asarray(d, dtype=float)[..., None]
        xy += step
        return xy

    def tangent(self, s) -> np.ndarray:
        """Unit tangent of the segment containing arclength s."""
        return self._unit.take(self._segment_index(np.asarray(s, dtype=float)), axis=0)


def project_to_path(points, path: ReferencePath):
    """Project Cartesian points onto a path: (arclength, signed lateral offset).

    points has shape (..., 2); s and d come back with shape (...), so one
    point gives two scalars.  The offset sign is positive to the left of the
    travel direction.  The arclength is clamped to [0, path.length]; the
    offset is the perpendicular distance to the nearest segment's line, so
    points beyond the path ends report only their lateral component.  A point
    equally near two segments goes to the first.
    """
    p = np.asarray(points, dtype=float)[..., None, :]
    a = path.points[:-1]
    seg_len, unit = path._seg_len, path._unit
    rel = p - a
    t_clamped = np.clip(np.einsum("...ij,ij->...i", rel, unit), 0.0, seg_len)
    closest = a + t_clamped[..., None] * unit
    dist2 = np.sum((p - closest) ** 2, axis=-1)
    side = unit[:, 0] * rel[..., 1] - unit[:, 1] * rel[..., 0]
    i = np.argmin(dist2, axis=-1)[..., None]
    s = path.cumulative_arclength[i] + np.take_along_axis(t_clamped, i, axis=-1)
    d = np.take_along_axis(side, i, axis=-1)
    return s[..., 0][()], d[..., 0][()]


@dataclass(frozen=True)
class AgentState:
    """Path-frame state of one car: arclength s, speed v, lateral offset d."""

    s: float
    v: float
    d: float = 0.0

    def __post_init__(self):
        if not self.v >= 0.0:  # NaN fails the comparisons here
            raise ValueError(f"speed must be non-negative, got {self.v}")
        if not self.s >= 0.0:
            raise ValueError(f"arclength must be non-negative, got {self.s}")


@dataclass(frozen=True)
class JointState:
    """States of the two interacting cars at time index t."""

    ego: AgentState
    other: AgentState
    t: int = 0

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("time index must be non-negative")

    def swapped(self) -> "JointState":
        return JointState(ego=self.other, other=self.ego, t=self.t)


def state_columns(states) -> np.ndarray:
    """The joint states' (s, v, d) per car as one (3, side, F) array: x[:, 0, i] holds state i's ego car."""
    return np.array([[(a.s, a.v, a.d) for a in (x.ego, x.other)] for x in states]).reshape(-1, 2, 3).T


def step_dynamics(state: AgentState, a: float, dt: float) -> AgentState:
    """One exact Euler-integrable step of the longitudinal double integrator.

    s' = s + v dt + a dt^2 / 2 and v' = v + a dt, except that speed is clamped
    at zero: if the car would stop inside the step, s advances only up to the
    exact stop time and v' = 0 (no reverse motion).
    """
    if not 0.0 < dt < math.inf:  # NaN fails too
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    v1 = state.v + a * dt
    if v1 < 0.0:
        # stop time t* = -v/a (a < 0 here since v >= 0)
        t_stop = -state.v / a
        s1 = state.s + state.v * t_stop + 0.5 * a * t_stop * t_stop
        return AgentState(s=s1, v=0.0, d=state.d)
    return AgentState(s=state.s + state.v * dt + 0.5 * a * dt * dt, v=v1, d=state.d)


@dataclass(frozen=True, eq=False)  # an array field: compares and hashes by identity
class ConflictPoint:
    """Intersection of the two cars' reference paths."""

    position: np.ndarray
    s_ego: float
    s_other: float


def _segment_intersections(p0, p1, q0, q1):
    """Parameters (t, u) in meters along each segment for every intersection.

    Collinear overlapping segments contribute the overlap start (smallest t).
    """
    r = p1 - p0
    s = q1 - q0
    r_len = np.linalg.norm(r)
    s_len = np.linalg.norm(s)
    denom = r[0] * s[1] - r[1] * s[0]
    qp = q0 - p0
    scale = max(r_len * s_len, 1.0)
    if abs(denom) <= _EPS * scale:
        cross_qp = qp[0] * r[1] - qp[1] * r[0]
        if abs(cross_qp) > 1e-9 * max(r_len, 1.0):
            return []  # parallel, not collinear
        # collinear: project other's endpoints onto this segment
        t0 = np.dot(qp, r) / r_len
        t1 = np.dot(q1 - p0, r) / r_len
        lo, hi = min(t0, t1), max(t0, t1)
        start, end = max(lo, 0.0), min(hi, r_len)
        if start > end:
            return []
        u = np.dot(p0 + (start / r_len) * r - q0, s) / s_len
        return [(start, u)]
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    tol = 1e-9
    if -tol <= t <= 1.0 + tol and -tol <= u <= 1.0 + tol:
        return [(np.clip(t, 0.0, 1.0) * r_len, np.clip(u, 0.0, 1.0) * s_len)]
    return []


def find_conflict_point(path_ego: ReferencePath, path_other: ReferencePath) -> ConflictPoint:
    """First intersection (smallest ego arclength) of the two polylines.

    Raises NoConflictError when the polylines are disjoint.
    """
    best = None
    pe, po = path_ego.points, path_other.points
    ce, co = path_ego.cumulative_arclength, path_other.cumulative_arclength
    for i in range(len(pe) - 1):
        for j in range(len(po) - 1):
            for t, u in _segment_intersections(pe[i], pe[i + 1], po[j], po[j + 1]):
                s_e = ce[i] + t
                s_o = co[j] + u
                if best is None or (s_e, s_o) < best[:2]:
                    best = (s_e, s_o)
        if best is not None and best[0] <= ce[i + 1]:
            break  # later ego segments cannot beat an intersection on this one
    if best is None:
        raise NoConflictError("reference paths do not intersect")
    s_e, s_o = best
    position = path_ego.position(s_e)
    if np.linalg.norm(position - path_other.position(s_o)) > 1e-6:
        raise ValueError("inconsistent conflict point; paths may be degenerate")
    return ConflictPoint(position=position, s_ego=float(s_e), s_other=float(s_o))
