import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan import tracks as tk
from socialplan import workflows
from socialplan.cli import main
from socialplan.config import PathSpec, ScenarioConfig, save_config
from socialplan.scenarios import fixture_scenario, write_scenario_config

DATA = Path(__file__).parent / "data"
HEADER = "track_id,frame_id,timestamp_ms,x,y,vx,vy"


def test_load_empty_body(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(HEADER + "\n")
    assert tk.load_tracks(f) == {}


def test_load_mini_fixture():
    tracks = tk.load_tracks(DATA / "mini_tracks.csv")
    assert list(tracks) == [7]
    track = tracks[7]
    assert len(track) == 2
    assert track.track_id == 7
    assert track.frame.tolist() == [0, 1] and track.timestamp_ms.tolist() == [0, 100]
    assert track.xy.tolist() == [[0.0, 0.0], [0.5, 0.0]]
    assert np.hypot(*track.vxy[0]) == 5.0


def test_non_monotone_frames_named_row(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(
        HEADER + "\n"
        "1,0,0,0.0,0.0,1.0,0.0\n"
        "1,2,200,1.0,0.0,1.0,0.0\n"
        "1,1,100,2.0,0.0,1.0,0.0\n"
    )
    with pytest.raises(sp.ParseError) as err:
        tk.load_tracks(f)
    assert "row 4" in str(err.value)


def test_bad_value_is_parse_error(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(HEADER + "\n1,0,0,abc,0.0,1.0,0.0\n")
    with pytest.raises(sp.ParseError):
        tk.load_tracks(f)


@pytest.mark.parametrize("row", ["1,1,100,nan,0.0,1.0,0.0", "1,1,100,1.0,0.0,inf,0.0", "1,1,100,1.0,-inf,1.0,0.0"])
def test_non_finite_track_value_is_parse_error(tmp_path, row):
    f = tmp_path / "t.csv"
    f.write_text(HEADER + "\n1,0,0,0.0,0.0,1.0,0.0\n" + row + "\n")
    with pytest.raises(sp.ParseError, match="row 3") as info:
        tk.load_tracks(f)
    assert info.value.row == 3


@pytest.mark.parametrize(
    "row", ["1,9223372036854775808,100,1.0,0.0,1.0,0.0", "1,1,-9223372036854775809,1.0,0.0,1.0,0.0"]
)
def test_out_of_range_frame_or_timestamp_is_parse_error(tmp_path, row):
    f = tmp_path / "t.csv"
    f.write_text(HEADER + "\n1,0,0,0.0,0.0,1.0,0.0\n" + row + "\n")
    with pytest.raises(sp.ParseError, match="row 3"):
        tk.load_tracks(f)


# finite vertices whose segment length, and so the arclength, overflows at row 3
@pytest.mark.parametrize("row", ["nan,1.0", "1.0,inf", "1e308,0.0", "0.0,-1e200"])
def test_non_finite_path_value_is_parse_error(tmp_path, row):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n0.0,0.0\n" + row + "\n5.0,5.0\n")
    with pytest.raises(sp.ParseError, match="row 3") as info:
        tk.load_path_csv(f, 8.0)
    assert info.value.row == 3


def test_inconsistent_frame_period(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(
        HEADER + "\n"
        "1,0,0,0.0,0.0,1.0,0.0\n1,1,100,1.0,0.0,1.0,0.0\n1,2,350,2.0,0.0,1.0,0.0\n"
    )
    with pytest.raises(sp.ParseError):
        tk.load_tracks(f)


@pytest.mark.parametrize(
    "stamps, row",
    [((200, 100, 0), 3), ((0, 0), 3), ((0, 100, 100), 4)],
    ids=["decreasing", "two_records_equal", "stalls"],
)
def test_timestamps_must_increase(tmp_path, stamps, row):
    f = tmp_path / "t.csv"
    f.write_text(HEADER + "\n" + "".join(f"1,{i},{t},{i}.0,0.0,1.0,0.0\n" for i, t in enumerate(stamps)))
    with pytest.raises(sp.ParseError, match="track 1 timestamps must increase") as info:
        tk.load_tracks(f)
    assert info.value.row == row


def test_changing_frame_period_names_the_row(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text(HEADER + "\n" + "".join(f"1,{i},{t},{i}.0,0.0,1.0,0.0\n" for i, t in enumerate((0, 100, 200, 350))))
    with pytest.raises(sp.ParseError, match="track 1 timestamps are not on a constant frame period") as info:
        tk.load_tracks(f)
    assert info.value.row == 5


def _mutations(header):
    cols = header.split(",")
    muts = [
        ",".join(cols[1:]),                      # drop first column
        ",".join(cols[:-1]),                     # drop last column
        ",".join(cols).upper(),                  # case change
        ",".join(reversed(cols)),                # reorder
        ",".join(cols) + ",extra",               # extra column
        ";".join(cols),                          # wrong separator
        "",                                      # empty header
        ",".join(cols).replace("x", "pos_x"),    # rename
    ]
    for i in range(len(cols)):
        swapped = cols[:]
        swapped[i] = swapped[i] + "_"
        muts.append(",".join(swapped))
    for i in range(1, len(cols)):
        rotated = cols[i:] + cols[:i]
        muts.append(",".join(rotated))
    return muts[:20]


def test_header_fuzz_rejected(tmp_path):
    muts = _mutations(HEADER)
    assert len(muts) == 20
    for i, bad in enumerate(muts):
        f = tmp_path / f"bad{i}.csv"
        f.write_text(bad + "\n1,0,0,0.0,0.0,1.0,0.0\n")
        with pytest.raises(sp.SchemaError):
            tk.load_tracks(f)


def test_path_csv_roundtrip(tmp_path):
    path = sp.ReferencePath.from_points([(0, 0), (3.5, 1.25), (10, 0)], 8.0)
    f = tmp_path / "p.csv"
    tk.write_path_csv(f, path)
    loaded = tk.load_path_csv(f, 8.0)
    assert np.allclose(loaded.points, path.points, atol=1e-6)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0,0\n1,1\n")
    with pytest.raises(sp.SchemaError):
        tk.load_path_csv(bad, 8.0)


def test_path_csv_too_short(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("x,y\n1.0,2.0\n")
    with pytest.raises(sp.ParseError):
        tk.load_path_csv(f, 8.0)


def test_cli_path_csv_with_a_repeated_vertex_is_a_data_error(tmp_path, capsys):
    """A repeated vertex once reached ReferencePath.from_points as a ValueError: exit 1, the usage code."""
    cfg = write_scenario_config(fixture_scenario("courtesy"), tmp_path, seed=0)
    save_config(cfg, tmp_path / "config.json")
    (tmp_path / "path_ego.csv").write_text("x,y\n-80.0,0.0\n\n0.0,0.0\n0.0,0.0\n80.0,0.0\n")
    assert main(["sim", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "socialplan: ParseError: row 5: consecutive path points must be distinct\n"


def _fixture(tmp_path, name="courtesy", lam=None, seed=0):
    scn = fixture_scenario(name)
    cfg = write_scenario_config(scn, tmp_path / "template", seed=seed)
    lam = lam or sp.RewardWeights.courtesy()
    out = tmp_path / "fixture"
    cfg_path = workflows.make_fixture(cfg, lam, seed=seed, out_dir=out)
    return cfg_path, out, scn


def test_fixture_roundtrip_recovers_states(tmp_path):
    cfg_path, out, scn = _fixture(tmp_path)
    tracks = tk.load_tracks(out / "tracks.csv")
    pairs = tk.extract_pairs(tracks, scn)
    assert len(pairs) == 1
    pair = pairs[0]
    assert (pair.ego_id, pair.other_id) == (0, 1)

    # projected states must match the original simulation to 1e-6 m
    trace = sp.simulate(
        scn, sp.PolicySpec.fixed(sp.RewardWeights.courtesy()), sp.PolicySpec.follower(), max_steps=400
    )
    obs = tk.resample_pair(tracks, pair, scn.sampler.dt)
    s_sim = np.array([js.ego.s for js in trace.joint_states])
    n = min(len(s_sim), len(obs.ego.s))
    assert np.max(np.abs(obs.ego.s[:n] - s_sim[:n])) < 1e-6
    assert np.max(np.abs(obs.ego.d[:n])) < 1e-6
    xy_sim = scn.path_ego.position(s_sim, 0.0)
    assert np.max(np.abs(obs.ego.xy[:n] - xy_sim[:n])) < 1e-6


def test_fixture_deterministic_bytes(tmp_path):
    _, out_a, _ = _fixture(tmp_path / "a", seed=3)
    _, out_b, _ = _fixture(tmp_path / "b", seed=3)
    for name in ("tracks.csv", "path_ego.csv", "path_other.csv", "scenario.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_extract_pairs_excludes_same_track(tmp_path):
    cfg_path, out, scn = _fixture(tmp_path)
    tracks = tk.load_tracks(out / "tracks.csv")
    only_ego = {0: tracks[0]}
    assert tk.extract_pairs(only_ego, scn) == []


def test_crossing_window_filter(tmp_path):
    cfg_path, out, scn = _fixture(tmp_path)
    tracks = tk.load_tracks(out / "tracks.csv")
    assert tk.extract_pairs(tracks, scn, conflict_window_s=0.001) == []


def test_trace_to_records_requires_divisible_period(tmp_path):
    scn = fixture_scenario("courtesy")
    trace = sp.simulate(
        scn, sp.PolicySpec.fixed(sp.RewardWeights.courtesy()), sp.PolicySpec.follower(), max_steps=400
    )
    with pytest.raises(ValueError):
        tk.trace_to_records(trace, frame_period_ms=30)  # 80 ms steps, not divisible


def _per_step_records(trace, frame_period_ms):
    """trace_to_records as a loop over the applied steps, each step's frames in closed form on their own."""
    taus = np.arange(0, round(trace.dt * 1000.0), frame_period_ms) / 1000.0
    tracks = []
    for track_id, path, states, accels in (
        (0, trace.path_ego, [js.ego for js in trace.joint_states], trace.a_ego),
        (1, trace.path_other, [js.other for js in trace.joint_states], trace.a_other),
    ):
        s_steps, v_steps = [], []
        for x, a in zip(states, accels.tolist()):
            tt = np.minimum(taus, x.v / -a) if a < 0.0 and x.v + a * taus[-1] < 0.0 else taus
            s_steps.append(x.s + x.v * tt + 0.5 * a * tt * tt)
            v_steps.append(np.maximum(x.v + a * tt, 0.0))
        s = np.concatenate([*s_steps, [states[-1].s]])
        v = np.concatenate([*v_steps, [states[-1].v]])
        frame = np.arange(len(s))
        xy, vxy = path.position(s, states[0].d), v[:, None] * path.tangent(s)
        tracks.append(tk.Track(track_id, frame, frame * frame_period_ms, xy, vxy))
    return tracks


def _assert_same_tracks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.track_id == b.track_id
        for name in ("frame", "timestamp_ms", "xy", "vxy"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("name", ["egoism", "courtesy", "confidence", "switch"])
def test_trace_to_records_matches_the_per_step_loop_on_the_fixtures(name):
    scn = fixture_scenario(name)
    trace = sp.simulate(scn, sp.PolicySpec.fixed(sp.RewardWeights.courtesy()), sp.PolicySpec.follower(), max_steps=400)
    for period in (10, 20, 40, 80):
        _assert_same_tracks(tk.trace_to_records(trace, period), _per_step_records(trace, period))


_step = st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 20.0), st.floats(-8.0, 4.0), st.floats(-8.0, 4.0))


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(_step, max_size=12),
    last=st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 20.0)),
    dt_ms=st.sampled_from([40, 80, 100, 250]),
    period=st.sampled_from([1, 5, 10]),
)
def test_trace_to_records_matches_the_per_step_loop_with_stops(steps, last, dt_ms, period):
    """Steps from arbitrary states and accelerations, many of them braking to a stop inside the step, as bytes."""
    scn = fixture_scenario("courtesy")
    states = [
        sp.JointState(ego=sp.AgentState(s=se, v=ve), other=sp.AgentState(s=se / 2, v=ve / 2)) for se, ve, _, _ in steps
    ] + [sp.JointState(ego=sp.AgentState(*last), other=sp.AgentState(last[0] / 2, last[1] / 2))]
    a_ego = np.array([a for *_, a, _ in steps], dtype=float)
    a_other = np.array([a for *_, a in steps], dtype=float)
    trace = sp.InteractionTrace(
        joint_states=states, a_ego=a_ego, a_other=a_other, lambda_ego=np.zeros((len(steps), 3)),
        lambda_other=np.zeros((len(steps), 3)), dt=dt_ms / 1000.0, conflict=scn.conflict,
        path_ego=scn.path_ego, path_other=scn.path_other, terminated=True,
    )
    _assert_same_tracks(tk.trace_to_records(trace, period), _per_step_records(trace, period))


def _parallel_paths_config(tmp_path) -> ScenarioConfig:
    """A scenario on two parallel paths, with one track recorded on each."""
    k = np.arange(5)
    for name, y in (("a.csv", 0.0), ("b.csv", 5.0)):
        tk.write_path_csv(tmp_path / name, sp.ReferencePath.from_points([(0, y), (100, y)], 10.0))
    tk.write_tracks(tmp_path / "tracks.csv", [
        tk.Track(tid, k, 100 * k, np.stack([k.astype(float), np.full(5, y)], axis=1), np.tile([5.0, 0.0], (5, 1)))
        for tid, y in ((1, 0.0), (2, 5.0))
    ])
    return ScenarioConfig(
        path_ego=PathSpec(file="a.csv", speed_limit=10.0),
        path_other=PathSpec(file="b.csv", speed_limit=10.0),
        initial=sp.JointState(ego=sp.AgentState(s=0, v=5.0), other=sp.AgentState(s=0, v=5.0)),
        tracks_file="tracks.csv",
        base_dir=tmp_path,
    )


def test_fixture_with_parallel_paths_raises_no_conflict(tmp_path):
    cfg = _parallel_paths_config(tmp_path)
    with pytest.raises(sp.NoConflictError):
        workflows.make_fixture(cfg, sp.RewardWeights.egoism(), seed=0, out_dir=tmp_path / "out")


@pytest.mark.parametrize("command", ["infer", "regen"])
def test_cli_tracks_on_parallel_paths_raise_no_conflict(tmp_path, capsys, command):
    """Tracks on paths that never cross form no pair: the scenario itself is a data error."""
    save_config(_parallel_paths_config(tmp_path), tmp_path / "scenario.json")
    assert main([command, "--config", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("socialplan: NoConflictError:")


def test_resample_pair_reuses_fit_projections(tmp_path):
    _, out, scn = _fixture(tmp_path)
    tracks = tk.load_tracks(out / "tracks.csv")
    [pair] = tk.extract_pairs(tracks, scn)
    obs = tk.resample_pair(tracks, pair, scn.sampler.dt)
    for track, path, proj, observed in (
        (tracks[pair.ego_id], scn.path_ego, pair.proj_ego, obs.ego),
        (tracks[pair.other_id], scn.path_other, pair.proj_other, obs.other),
    ):
        fresh = np.array([sp.project_to_path(point, path) for point in track.xy])  # one point at a time
        assert np.array_equal(proj, fresh)
        times = track.timestamp_ms.astype(float)
        assert np.array_equal(observed.s, np.interp(observed.times_ms, times, fresh[:, 0]))
        assert np.array_equal(observed.d, np.interp(observed.times_ms, times, fresh[:, 1]))


# values on the 6-decimal grid the writer uses, so a round trip is exact
_micro = st.integers(-10**9, 10**9).map(lambda n: n / 1e6)


@st.composite
def _tracks(draw):
    tracks = []
    for tid in draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True)):
        n = draw(st.integers(1, 6))
        frames = sorted(draw(st.lists(st.integers(0, 10**5), min_size=n, max_size=n, unique=True)))
        t0, period = draw(st.integers(0, 10**6)), draw(st.integers(1, 200))
        values = np.array(draw(st.lists(_micro, min_size=4 * n, max_size=4 * n))).reshape(n, 4)
        tracks.append(tk.Track(tid, np.array(frames), t0 + period * np.arange(n), values[:, :2], values[:, 2:]))
    return tracks


@settings(max_examples=100, deadline=None)
@given(tracks=_tracks())
def test_write_load_tracks_roundtrip(tmp_path_factory, tracks):
    f = tmp_path_factory.mktemp("tracks") / "t.csv"
    tk.write_tracks(f, tracks)
    loaded = tk.load_tracks(f)
    assert list(loaded) == [t.track_id for t in tracks]
    for want in tracks:
        got = loaded[want.track_id]
        assert got.track_id == want.track_id and len(got) == len(want)
        for name in ("frame", "timestamp_ms", "xy", "vxy"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_resample_pair_bounds_its_grid(tmp_path):
    """A grid of MAX_GRID_STEPS steps is made; one of more steps is a SchemaError before anything is allocated."""
    _, out, scn = _fixture(tmp_path)
    tracks = tk.load_tracks(out / "tracks.csv")
    [pair] = tk.extract_pairs(tracks, scn)
    span = min(tracks[0].timestamp_ms[-1], tracks[1].timestamp_ms[-1]) - max(
        tracks[0].timestamp_ms[0], tracks[1].timestamp_ms[0]
    )
    dt = span / 1000.0 / tk.MAX_GRID_STEPS
    assert len(tk.resample_pair(tracks, pair, dt).ego.s) == tk.MAX_GRID_STEPS + 1
    for finer in (span / 1000.0 / (tk.MAX_GRID_STEPS + 1), 1e-7, 5e-324):
        with pytest.raises(sp.SchemaError, match=rf"^sampler\.dt = {re.escape(repr(finer))} s puts the {span} ms"):
            tk.resample_pair(tracks, pair, finer)
