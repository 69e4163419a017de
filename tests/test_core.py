import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.scenarios import case_scenario
from example_checks import (
    check_conflict_diagonal,
    check_conflict_parallel,
    check_conflict_perpendicular,
    check_project_clamp,
    check_project_offset,
    check_project_on_path,
    check_step_constant_velocity,
    check_step_exact_stop,
    check_step_from_rest,
)


def fine_step_oracle(s, v, a, dt, n_sub=20000):
    """Brute-force integration with speed clamped at zero."""
    h = dt / n_sub
    for _ in range(n_sub):
        v_new = v + a * h
        if v_new <= 0.0:
            # sub-step average speed before clamping
            t_stop = v / -a if a < 0 and v > 0 else 0.0
            s += v * t_stop + 0.5 * a * t_stop * t_stop
            v = 0.0
        else:
            s += v * h + 0.5 * a * h * h
            v = v_new
    return s, v


def test_spec_examples():
    check_project_on_path()
    check_project_offset()
    check_project_clamp()
    check_step_constant_velocity()
    check_step_from_rest()
    check_step_exact_stop()
    check_conflict_perpendicular()
    check_conflict_parallel()
    check_conflict_diagonal()


def test_stop_against_fine_integration():
    s_ref, v_ref = fine_step_oracle(0.0, 1.0, -2.0, 1.0)
    out = sp.step_dynamics(sp.AgentState(s=0.0, v=1.0), -2.0, 1.0)
    assert abs(out.s - s_ref) < 1e-6 and v_ref == 0.0 and out.v == 0.0


def test_no_reverse_motion():
    rng = np.random.default_rng(0)
    for _ in range(500):
        st = sp.AgentState(s=rng.uniform(0, 50), v=rng.uniform(0, 15))
        a = rng.uniform(-6, 3)
        out = sp.step_dynamics(st, a, 0.25)
        assert out.v >= 0.0
        assert out.s >= st.s


def test_zero_accel_composition_linear():
    rng = np.random.default_rng(1)
    for _ in range(200):
        st = sp.AgentState(s=rng.uniform(0, 50), v=rng.uniform(0, 15))
        dt = rng.uniform(0.05, 1.0)
        half = sp.step_dynamics(sp.step_dynamics(st, 0.0, dt / 2), 0.0, dt / 2)
        full = sp.step_dynamics(st, 0.0, dt)
        assert abs(half.s - full.s) < 1e-12 and half.v == full.v


def random_polyline(rng, n=8):
    """Gently turning polyline (projection is unambiguous on these)."""
    heading = rng.uniform(0, 2 * np.pi)
    pts = [np.array([rng.uniform(-5, 5), rng.uniform(-5, 5)])]
    for _ in range(n - 1):
        heading += rng.uniform(-0.5, 0.5)
        pts.append(pts[-1] + rng.uniform(2.0, 6.0) * np.array([np.cos(heading), np.sin(heading)]))
    return sp.ReferencePath(np.array(pts), 10.0)


def test_projection_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(50):
        path = random_polyline(rng)
        for s in rng.uniform(0, path.length, size=10):
            point = path.position(float(s), 0.0)
            s_hat, d_hat = sp.project_to_path(point, path)
            assert abs(s_hat - s) < 1e-9
            assert abs(d_hat) < 1e-9


def test_projection_offset_sign():
    path = sp.ReferencePath([(0, 0), (0, 10)], 10.0)  # travel +y
    s, d = sp.project_to_path((-2.0, 5.0), path)  # left of travel is -x
    assert abs(s - 5.0) < 1e-12 and abs(d - 2.0) < 1e-12
    s, d = sp.project_to_path((2.0, 5.0), path)
    assert abs(d + 2.0) < 1e-12


def reference_projection(point, path):
    """One point at a time, as project_to_path was before it took arrays of points."""
    p = np.asarray(point, dtype=float)
    a = path.points[:-1]
    seg_len, unit = path._seg_len, path._unit
    rel = p[None, :] - a
    t = np.einsum("ij,ij->i", rel, unit)
    t_clamped = np.clip(t, 0.0, seg_len)
    closest = a + t_clamped[:, None] * unit
    dist2 = np.sum((p[None, :] - closest) ** 2, axis=1)
    i = int(np.argmin(dist2))
    s = float(path.cumulative_arclength[i] + t_clamped[i])
    d = float(unit[i, 0] * rel[i, 1] - unit[i, 1] * rel[i, 0])
    return s, d


_grid_coord = st.one_of(st.integers(-6, 6).map(float), st.integers(-2000, 2000).map(lambda n: n / 100))


@st.composite
def _polyline_and_points(draw):
    """Vertices on a coarse grid (so points tie between segments), plus query points
    that include the vertices, integer points and points beyond both ends."""
    verts = draw(st.lists(st.tuples(_grid_coord, _grid_coord), min_size=2, max_size=6))
    verts = [v for k, v in enumerate(verts) if k == 0 or v != verts[k - 1]]
    assume(len(verts) >= 2)
    path = sp.ReferencePath(verts, 10.0)
    reach = draw(st.floats(0.0, 30.0))
    beyond = [path.points[0] - reach * path._unit[0], path.points[-1] + reach * path._unit[-1]]
    extra = draw(st.lists(st.tuples(_grid_coord, _grid_coord), max_size=12))
    return path, np.array([*path.points, *beyond, *extra], dtype=float)


@settings(max_examples=300, deadline=None)
@given(case=_polyline_and_points())
def test_batched_projection_matches_per_point_reference(case):
    path, points = case
    s, d = sp.project_to_path(points, path)
    assert s.shape == d.shape == (len(points),)
    for k, point in enumerate(points):
        ref = reference_projection(point, path)
        assert (s[k], d[k]) == ref
        assert np.signbit(d[k]) == np.signbit(ref[1])
        assert sp.project_to_path(point, path) == ref  # one point still gives two scalars
    s2, d2 = sp.project_to_path(np.stack([points, points[::-1]]), path)
    assert np.array_equal(s2, np.stack([s, s[::-1]])) and np.array_equal(d2, np.stack([d, d[::-1]]))


def dense_conflict_oracle(pa, pb, n=200001):
    """Closest pair of densely sampled path points."""
    sa = np.linspace(0, pa.length, n)
    sb = np.linspace(0, pb.length, n)
    # coarse pass then refine around the best window
    coarse_a = pa.position(np.linspace(0, pa.length, 2001), 0.0)
    coarse_b = pb.position(np.linspace(0, pb.length, 2001), 0.0)
    d = np.linalg.norm(coarse_a[:, None, :] - coarse_b[None, :, :], axis=2)
    ia, ib = np.unravel_index(np.argmin(d), d.shape)
    window_a = np.linspace(max(0, (ia - 2)) / 2000 * pa.length, min(2000, ia + 2) / 2000 * pa.length, 2001)
    window_b = np.linspace(max(0, (ib - 2)) / 2000 * pb.length, min(2000, ib + 2) / 2000 * pb.length, 2001)
    fa = pa.position(window_a, 0.0)
    fb = pb.position(window_b, 0.0)
    d = np.linalg.norm(fa[:, None, :] - fb[None, :, :], axis=2)
    ja, jb = np.unravel_index(np.argmin(d), d.shape)
    return window_a[ja], window_b[jb]


def test_conflict_against_dense_sampling():
    pe = sp.ReferencePath([(-10, 0), (10, 0)], 10.0)
    po = sp.ReferencePath([(0, -5), (10, 5)], 10.0)
    c = sp.find_conflict_point(pe, po)
    s_a, s_b = dense_conflict_oracle(pe, po)
    assert abs(c.s_ego - s_a) < 1e-3
    assert abs(c.s_other - s_b) < 1e-3


def test_conflict_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        # two single-crossing straight-ish paths through a shared region
        ang = rng.uniform(0.4, np.pi - 0.4)
        pe = sp.ReferencePath([(-20, 0), (20, 0)], 10.0)
        direction = np.array([np.cos(ang), np.sin(ang)])
        mid = np.array([rng.uniform(-10, 10), 0.0])
        po = sp.ReferencePath([mid - 15 * direction, mid + 15 * direction], 10.0)
        a = sp.find_conflict_point(pe, po)
        b = sp.find_conflict_point(po, pe)
        assert abs(a.s_ego - b.s_other) < 1e-9
        assert abs(a.s_other - b.s_ego) < 1e-9
        assert np.allclose(a.position, b.position, atol=1e-9)


def test_multi_crossing_takes_smallest_ego_arclength():
    zigzag = sp.ReferencePath([(0, -2), (4, 2), (8, -2), (12, 2)], 10.0)
    pe = sp.ReferencePath([(-5, 0), (15, 0)], 10.0)
    c = sp.find_conflict_point(pe, zigzag)
    assert abs(c.s_ego - 7.0) < 1e-9  # first crossing at x = 2


def test_position_extrapolates_beyond_ends():
    path = sp.ReferencePath([(0, 0), (10, 0)], 10.0)
    assert np.allclose(path.position(12.0, 0.0), [12.0, 0.0], atol=1e-12)
    assert np.allclose(path.position(-3.0, 0.0), [-3.0, 0.0], atol=1e-12)


def test_invalid_path_rejected():
    with pytest.raises(ValueError):
        sp.ReferencePath([(0, 0)], 10.0)
    with pytest.raises(ValueError):
        sp.ReferencePath([(0, 0), (0, 0)], 10.0)
    with pytest.raises(ValueError):
        sp.ReferencePath([(0, 0), (1, 0)], -1.0)
    with pytest.raises(ValueError, match="path points must be finite"):
        sp.ReferencePath([(0, 0), (math.inf, 0)], 10.0)
    with pytest.raises(ValueError, match="path arclength overflows"):
        sp.ReferencePath([(-1e308, 0), (1e308, 0)], 10.0)


def test_invalid_states_rejected():
    with pytest.raises(ValueError):
        sp.AgentState(s=0.0, v=-0.1)
    with pytest.raises(ValueError):
        sp.AgentState(s=-0.1, v=0.0)
    with pytest.raises(ValueError):
        sp.step_dynamics(sp.AgentState(s=0, v=1), 0.0, 0.0)


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_step_dynamics_rejects_a_non_finite_dt(dt):
    """dt = inf would give v + 0 * inf = nan, which the state check blamed on the speed."""
    with pytest.raises(ValueError, match=f"dt must be finite and positive, got {dt!r}"):
        sp.step_dynamics(sp.AgentState(s=0.0, v=1.0), 0.0, dt)


def test_reference_path_built_directly_checks_speed_limit_and_arclength():
    """The one constructor checks the points and the speed limit and derives the arclength from the points.

    A repeated vertex once built a path whose positions were NaN, and a
    caller's arclength could disagree with the points.
    """
    points = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="^speed_limit must be positive$"):
        sp.ReferencePath(points=points, speed_limit=math.nan)
    with pytest.raises(ValueError, match="^speed_limit must be positive$"):
        sp.ReferencePath(points, math.nan)
    with pytest.raises(ValueError, match="^consecutive path points must be distinct$"):
        sp.ReferencePath(points=[[0, 0], [0, 0], [1, 0]], speed_limit=10)
    given = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    path = sp.ReferencePath(points=given, speed_limit=10)
    given[2] = [1.0, 5.0]  # the path keeps its own copy of the points
    assert path.length == 2.0
    assert path.cumulative_arclength.tolist() == [0.0, 1.0, 2.0]
    assert path.position(2.0).tolist() == [1.0, 1.0]
    assert path.speed_limit == 10.0 and type(path.speed_limit) is float


def test_paths_conflict_points_and_scenarios_compare_and_hash():
    """A path and a conflict point hold arrays, so they compare by identity; a scenario holding them compares
    field by field, and all three hash."""
    a, b = case_scenario("I"), case_scenario("I")
    for x, y in ((a.path_ego, b.path_ego), (a.conflict, b.conflict), (a, b)):
        assert x == x and x != y
        assert hash(x) == hash(x)
    assert a == sp.Scenario(a.path_ego, a.path_other, a.conflict, a.initial, a.sampler, a.rewards)
    assert len({a, b, a}) == 2


def test_conflict_point_consistent_on_both_paths():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ang = rng.uniform(0.3, np.pi - 0.3)
        pe = random_polyline(rng)
        direction = np.array([np.cos(ang), np.sin(ang)])
        mid = pe.position(rng.uniform(0.2, 0.8) * pe.length, 0.0)
        po = sp.ReferencePath([mid - 25 * direction, mid + 25 * direction], 10.0)
        try:
            c = sp.find_conflict_point(pe, po)
        except sp.NoConflictError:
            continue
        assert np.linalg.norm(c.position - pe.position(c.s_ego, 0.0)) < 1e-6
        assert np.linalg.norm(c.position - po.position(c.s_other, 0.0)) < 1e-6


def _position_by_segment(path, s, d):
    """ReferencePath.position as first written: each call renormalises its segments."""
    s = np.asarray(s, dtype=float)
    idx = np.clip(np.searchsorted(path.cumulative_arclength, s, side="right") - 1, 0, len(path.points) - 2)
    a = path.points[idx]
    direction = path.points[idx + 1] - a
    direction = direction / np.linalg.norm(direction, axis=-1, keepdims=True)
    offset = (s - path.cumulative_arclength[idx])[..., None]
    base = a + offset * direction
    normal = np.stack([-direction[..., 1], direction[..., 0]], axis=-1)
    return base + np.asarray(d, dtype=float)[..., None] * normal


_coord = st.floats(-200.0, 200.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    vertices=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=6),
    fractions=st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=13),
    rows=st.integers(1, 6),
    d=st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_nan=False)),
)
def test_position_matches_per_call_segment_formula_bit_for_bit(vertices, fractions, rows, d):
    pts = np.array(vertices)
    assume(np.all(np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-6))
    path = sp.ReferencePath(pts, 10.0)
    # fractions outside [0, 1] put arclengths beyond both endpoints
    s = np.tile(np.array(fractions) * path.length, (rows, 1))
    assert np.array_equal(path.position(s, d), _position_by_segment(path, s, d))
    d_rows = np.full(s.shape, d)
    assert np.array_equal(path.position(s, d_rows), _position_by_segment(path, s, d_rows))
    assert np.array_equal(path.position(s[0, 0], d), _position_by_segment(path, s[0, 0], d))
    # the build's call shape: s (F, nt, N+1) with one d per state, (F, 1, 1)
    s_build = np.stack([s, s[:, ::-1] + 1.0])
    d_build = np.array([d, 1.5 - d])[:, None, None]
    assert np.array_equal(path.position(s_build, d_build), _position_by_segment(path, s_build, d_build))
    for s_t in (s, s[0, 0], np.asarray(s[0, 0])):  # 0-d s too
        idx = np.clip(np.searchsorted(path.cumulative_arclength, s_t, side="right") - 1, 0, len(pts) - 2)
        direction = path.points[idx + 1] - path.points[idx]
        tangent = path.tangent(s_t)
        assert tangent.shape == np.shape(s_t) + (2,)
        assert np.array_equal(tangent, direction / np.linalg.norm(direction, axis=-1, keepdims=True))
