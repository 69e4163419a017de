import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import socialplan as sp
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
    return sp.ReferencePath.from_points(np.array(pts), 10.0)


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
    path = sp.ReferencePath.from_points([(0, 0), (0, 10)], 10.0)  # travel +y
    s, d = sp.project_to_path((-2.0, 5.0), path)  # left of travel is -x
    assert abs(s - 5.0) < 1e-12 and abs(d - 2.0) < 1e-12
    s, d = sp.project_to_path((2.0, 5.0), path)
    assert abs(d + 2.0) < 1e-12


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
    pe = sp.ReferencePath.from_points([(-10, 0), (10, 0)], 10.0)
    po = sp.ReferencePath.from_points([(0, -5), (10, 5)], 10.0)
    c = sp.find_conflict_point(pe, po)
    s_a, s_b = dense_conflict_oracle(pe, po)
    assert abs(c.s_ego - s_a) < 1e-3
    assert abs(c.s_other - s_b) < 1e-3


def test_conflict_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(50):
        # two single-crossing straight-ish paths through a shared region
        ang = rng.uniform(0.4, np.pi - 0.4)
        pe = sp.ReferencePath.from_points([(-20, 0), (20, 0)], 10.0)
        direction = np.array([np.cos(ang), np.sin(ang)])
        mid = np.array([rng.uniform(-10, 10), 0.0])
        po = sp.ReferencePath.from_points([mid - 15 * direction, mid + 15 * direction], 10.0)
        a = sp.find_conflict_point(pe, po)
        b = sp.find_conflict_point(po, pe)
        assert abs(a.s_ego - b.s_other) < 1e-9
        assert abs(a.s_other - b.s_ego) < 1e-9
        assert np.allclose(a.position, b.position, atol=1e-9)


def test_multi_crossing_takes_smallest_ego_arclength():
    zigzag = sp.ReferencePath.from_points([(0, -2), (4, 2), (8, -2), (12, 2)], 10.0)
    pe = sp.ReferencePath.from_points([(-5, 0), (15, 0)], 10.0)
    c = sp.find_conflict_point(pe, zigzag)
    assert abs(c.s_ego - 7.0) < 1e-9  # first crossing at x = 2


def test_position_extrapolates_beyond_ends():
    path = sp.ReferencePath.from_points([(0, 0), (10, 0)], 10.0)
    assert np.allclose(path.position(12.0, 0.0), [12.0, 0.0], atol=1e-12)
    assert np.allclose(path.position(-3.0, 0.0), [-3.0, 0.0], atol=1e-12)


def test_invalid_path_rejected():
    with pytest.raises(ValueError):
        sp.ReferencePath.from_points([(0, 0)], 10.0)
    with pytest.raises(ValueError):
        sp.ReferencePath.from_points([(0, 0), (0, 0)], 10.0)
    with pytest.raises(ValueError):
        sp.ReferencePath.from_points([(0, 0), (1, 0)], -1.0)


def test_invalid_states_rejected():
    with pytest.raises(ValueError):
        sp.AgentState(s=0.0, v=-0.1)
    with pytest.raises(ValueError):
        sp.AgentState(s=-0.1, v=0.0)
    with pytest.raises(ValueError):
        sp.step_dynamics(sp.AgentState(s=0, v=1), 0.0, 0.0)


def test_conflict_point_consistent_on_both_paths():
    rng = np.random.default_rng(4)
    for _ in range(50):
        ang = rng.uniform(0.3, np.pi - 0.3)
        pe = random_polyline(rng)
        direction = np.array([np.cos(ang), np.sin(ang)])
        mid = pe.position(rng.uniform(0.2, 0.8) * pe.length, 0.0)
        po = sp.ReferencePath.from_points([mid - 25 * direction, mid + 25 * direction], 10.0)
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
    path = sp.ReferencePath.from_points(pts, 10.0)
    # fractions outside [0, 1] put arclengths beyond both endpoints
    s = np.tile(np.array(fractions) * path.length, (rows, 1))
    assert np.array_equal(path.position(s, d), _position_by_segment(path, s, d))
    d_rows = np.full(s.shape, d)
    assert np.array_equal(path.position(s, d_rows), _position_by_segment(path, s, d_rows))
    assert np.array_equal(path.position(s[0, 0], d), _position_by_segment(path, s[0, 0], d))
    idx = np.clip(np.searchsorted(path.cumulative_arclength, s, side="right") - 1, 0, len(pts) - 2)
    direction = path.points[idx + 1] - path.points[idx]
    assert np.array_equal(path.tangent(s), direction / np.linalg.norm(direction, axis=-1, keepdims=True))
