import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan import workflows
from socialplan.cli import main
from socialplan.config import (
    MAX_HORIZON_STEPS,
    MAX_PARTICLES,
    MAX_TERMINAL_SPEEDS,
    PathSpec,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from socialplan.scenarios import case_scenario, fixture_scenario, write_scenario_config
from socialplan.tracks import MAX_GRID_STEPS


@pytest.fixture
def case_config(tmp_path):
    cfg = write_scenario_config(case_scenario("I"), tmp_path, seed=0)
    save_config(cfg, tmp_path / "config.json")
    return tmp_path / "config.json"


def test_config_roundtrip(case_config, tmp_path):
    cfg = load_config(case_config)
    assert cfg.sampler.dt == 0.25
    assert cfg.rewards.theta_ego == (1.0, 0.5, 10.0)
    again = tmp_path / "again.json"
    save_config(cfg, again)
    assert json.loads(again.read_text()) == json.loads(case_config.read_text())


def test_save_config_elsewhere_keeps_the_file_references(tmp_path):
    """A config saved outside its base_dir once kept its names as given, so sim exited 2 on a missing path_ego.csv."""
    tpl = tmp_path / "tpl"
    save_config(write_scenario_config(case_scenario("I"), tpl, seed=0), tpl / "config.json")
    cfg = load_config(tpl / "config.json")
    save_config(cfg, tmp_path / "moved.json")
    moved = json.loads((tmp_path / "moved.json").read_text())
    assert [moved["paths"][role]["file"] for role in ("ego", "other")] == [
        os.path.join("tpl", "path_ego.csv"), os.path.join("tpl", "path_other.csv")
    ]
    assert config_to_dict(cfg)["paths"]["ego"]["file"] == "path_ego.csv"  # the echo in sidecars is unchanged
    save_config(replace(cfg, tracks_file="tracks.csv"), tmp_path / "tracks.json")
    assert json.loads((tmp_path / "tracks.json").read_text())["tracks"] == os.path.join("tpl", "tracks.csv")
    assert main(["sim", "--config", str(tmp_path / "moved.json"), "--out", str(tmp_path / "a")]) == 0
    assert main(["sim", "--config", str(tpl / "config.json"), "--out", str(tmp_path / "b")]) == 0
    for name in ("stats.json", "trace_egoism.csv", "trace_courtesy.csv", "trace_confidence.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # saved into its own base_dir, a config keeps its bytes
    save_config(cfg, tpl / "again.json")
    assert (tpl / "again.json").read_bytes() == (tpl / "config.json").read_bytes()


def test_save_config_resolves_symlinked_directories_but_keeps_file_names(tmp_path):
    """A '..' after a symlinked base_dir once was cut lexically, so the saved name pointed at a missing file."""
    real = tmp_path / "real"
    cfg = write_scenario_config(case_scenario("I"), real, seed=0)
    (real / "sub").mkdir()
    (tmp_path / "link").symlink_to(real / "sub", target_is_directory=True)
    (real / "sub" / "alias.csv").symlink_to(real / "path_other.csv")
    cfg = replace(
        cfg,
        path_ego=replace(cfg.path_ego, file="../path_ego.csv"),
        path_other=replace(cfg.path_other, file="alias.csv"),
        tracks_file="../tracks.csv",
        base_dir=tmp_path / "link",
    )
    save_config(cfg, tmp_path / "moved.json")
    saved = json.loads((tmp_path / "moved.json").read_text())
    assert saved["paths"]["ego"]["file"] == os.path.join("real", "path_ego.csv")
    assert saved["paths"]["other"]["file"] == os.path.join("real", "sub", "alias.csv")  # the link keeps its name
    assert saved["tracks"] == os.path.join("real", "tracks.csv")
    moved = load_config(tmp_path / "moved.json")
    assert moved.resolve(moved.path_ego.file).samefile(real / "path_ego.csv")
    assert moved.load_scenario().path_other.points.tolist() == cfg.load_scenario().path_other.points.tolist()
    # saved into its own base_dir, through the link, a config keeps its names
    save_config(cfg, tmp_path / "link" / "again.json")
    again = json.loads((tmp_path / "link" / "again.json").read_text())
    assert [again["paths"][role]["file"] for role in ("ego", "other")] + [again["tracks"]] == [
        "../path_ego.csv", "alias.csv", "../tracks.csv"
    ]


def test_config_dict_roundtrip_keeps_forbid_singleton(case_config):
    cfg = load_config(case_config)
    cfg = replace(cfg, sampler=replace(cfg.sampler, forbid_singleton=True))
    again = config_from_dict(config_to_dict(cfg), base_dir=cfg.base_dir)
    assert again == cfg


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("inference", "n_particles", 100.5),
        ("inference", "window_r", 10.0),
        ("sampler", "horizon_steps", 12.5),
        (None, "max_steps", 150.7),
        (None, "frame_period_ms", 50.5),
        (None, "max_steps", True),
        (None, "seed", 1.5),
        (None, "seed", -1),
        (None, "frame_period_ms", 0),
        (None, "max_steps", -1),
        # past the size bounds: an OverflowError and a MemoryError in the build, memory exhausted in replay
        ("sampler", "horizon_steps", 2**63),
        ("sampler", "horizon_steps", 10**12),
        ("sampler", "horizon_steps", 1001),
        ("inference", "n_particles", 10**6 + 1),
    ],
)
def test_config_rejects_bad_integer_fields(tmp_path, case_config, section, key, value):
    data = json.loads(case_config.read_text())
    (data[section] if section else data)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(sp.SchemaError, match=key):
        load_config(bad)
    assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_config_accepts_the_size_bounds(tmp_path, case_config):
    data = json.loads(case_config.read_text())
    data["sampler"]["horizon_steps"] = MAX_HORIZON_STEPS
    data["inference"]["n_particles"] = MAX_PARTICLES
    data["sampler"]["terminal_speed_fractions"] = [k / MAX_TERMINAL_SPEEDS for k in range(MAX_TERMINAL_SPEEDS)]
    path = tmp_path / "largest.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert (cfg.sampler.horizon_steps, cfg.inference.n_particles) == (MAX_HORIZON_STEPS, MAX_PARTICLES)
    assert len(cfg.sampler.terminal_speed_fractions) == MAX_TERMINAL_SPEEDS


# 100,000 terminal speeds once asked safety_matrix for 74.5 GiB on case I
@pytest.mark.parametrize("count", [MAX_TERMINAL_SPEEDS + 1, 100_000])
def test_config_rejects_terminal_speeds_past_the_bound(tmp_path, case_config, capsys, count):
    data = json.loads(case_config.read_text())
    data["sampler"]["terminal_speed_fractions"] = [k / count for k in range(count)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(sp.SchemaError, match="terminal_speed_fractions"):
        load_config(bad)
    assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert f"at most {MAX_TERMINAL_SPEEDS} numbers, got {count}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("inference.prior", "uniform"),
        ("sampler.terminal_speed_fractions", ["fast", 1.0]),
        ("rewards.theta_ego", [1.0, 0.5]),
        ("rewards.theta_ego", [1.0, 0.5, 10.0, 2.0]),
        ("rewards.beta", float("nan")),
        ("initial.ego.s", float("nan")),
        ("initial.other.v", float("inf")),
        ("paths.ego.speed_limit", float("nan")),
        ("paths.other.speed_limit", 0),
        ("sampler.dt", float("inf")),
        ("sampler.accel_min", float("-inf")),
        ("inference.resample", "false"),
        ("tracks", 5),
    ],
)
def test_cli_rejects_bad_config_values(tmp_path, case_config, capsys, field, value):
    """Each value once gave a traceback, a usage error or silently changed results."""
    data = json.loads(case_config.read_text())
    *parents, key = field.split(".")
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # NaN and Infinity are written as JSON literals
    assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and field in err


@pytest.mark.parametrize(
    "field",
    [
        "max_stepz",
        "paths.ego.speed_limt",
        "paths.third",
        "initial.ego.vv",
        "inference.prior.concentraton",
        "sampler.horizon_stepz",
        "rewards.betta",
    ],
)
def test_cli_rejects_unknown_config_keys(tmp_path, case_config, capsys, field):
    """A misspelt key once left its default in place and the run exited 0."""
    data = json.loads(case_config.read_text())
    *parents, key = field.split(".")
    target = data
    for name in parents:
        target = target[name]
    target[key] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and f"unknown key {field}" in err


@pytest.mark.parametrize(
    "key,value", [("beta", 1e308), ("theta_ego", [1e308, 0.5, 10]), ("theta_other", [1, 1e308, 10])],
    ids=["beta", "theta_ego", "theta_other"],
)
def test_cli_rejects_beta_that_overflows_the_social_terms(tmp_path, case_config, capsys, key, value):
    """A finite but huge beta once gave NaN terms, overflow warnings and changed results with exit 0.

    A huge theta weight gave an overflow warning and a usage error that named no field.
    """
    data = json.loads(case_config.read_text())
    data["rewards"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("socialplan: NonFiniteRewardError:") and f"rewards.{key}" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "field,value,named",
    [
        ("initial.ego.d", 1e200, "d=1e+200"),
        ("initial.ego.v", 1e200, "v=1e+200"),
        ("paths.ego.speed_limit", 1e-300, "speed_limit=1e-300"),
    ],
    ids=["ego_d", "ego_v", "ego_speed_limit"],
)
def test_cli_names_the_state_or_path_value_that_overflows_the_features(
    tmp_path, case_config, capsys, field, value, named
):
    """A huge offset once escaped as an OverflowError traceback; a huge speed or a tiny
    speed limit printed overflow warnings and then blamed rewards.theta_ego."""
    data = json.loads(case_config.read_text())
    *parents, key = field.split(".")
    node = data
    for part in parents:
        node = node[part]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("socialplan: NonFiniteRewardError: the ego car's utility features overflow")
    assert named in err
    assert "theta" not in err and "Traceback" not in err and err.count("\n") == 1



def test_cli_rejects_a_start_state_whose_distance_overflows(tmp_path, case_config, capsys):
    """An ego car starting at s=1e300 once gave an overflow warning and "are": Infinity in stats.json."""
    data = json.loads(case_config.read_text())
    data["initial"]["ego"]["s"] = 1e300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("socialplan: NonFiniteDistanceError: the distance between the cars overflows at t=0")
    assert "ego s=1e+300" in err and "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()

_finite = st.floats(-1e6, 1e6, allow_nan=False)
_positive = st.floats(1e-3, 1e6)
_triples = st.tuples(_finite, _finite, _finite)
_positive_triples = st.tuples(_positive, _positive, _positive)
_priors = st.one_of(
    st.builds(sp.PriorSpec, kind=st.just("uniform"), concentration=_finite),
    st.builds(sp.PriorSpec, kind=st.just("dirichlet"), alpha=_positive_triples),
    st.builds(sp.PriorSpec, kind=st.just("dop"), fractions=_positive_triples, concentration=st.floats(0.0, 1e6)),
)
_configs = st.builds(
    ScenarioConfig,
    path_ego=st.builds(PathSpec, file=st.text(), speed_limit=_positive),
    path_other=st.builds(PathSpec, file=st.text(), speed_limit=_positive),
    initial=st.builds(
        sp.JointState,
        ego=st.builds(sp.AgentState, s=_positive, v=_positive, d=_finite),
        other=st.builds(sp.AgentState, s=_positive, v=_positive, d=_finite),
    ),
    sampler=st.builds(
        sp.SamplerConfig,
        horizon_steps=st.integers(1, 100),
        dt=_positive,
        terminal_speed_fractions=st.lists(_finite, min_size=1, max_size=6).map(tuple),
        accel_min=st.floats(-1e6, -1e-3),
        accel_max=_positive,
        forbid_singleton=st.booleans(),
    ),
    rewards=st.builds(
        sp.RewardConfig, theta_ego=_triples, theta_other=_triples, beta=_positive, d0=_positive,
        a0=_positive, j0=_positive, sigma_d=_positive, sigma_c=_positive,
    ),
    inference=st.builds(
        sp.InferenceConfig, n_particles=st.integers(2, 10**6), window_r=st.integers(1, 1000), prior=_priors,
        init=st.sampled_from(["stratified", "iid"]), resample=st.booleans(), growing_window=st.booleans(),
    ),
    seed=st.integers(0, 2**63 - 1),
    tracks_file=st.one_of(st.none(), st.text()),
    frame_period_ms=st.integers(1, 10**6),
    max_steps=st.integers(1, 10**6),
    base_dir=st.just(Path("base")),
)


def _cannot_open(name) -> bool:
    """Whether the OS cannot take name as a file name: it holds a NUL character or does not encode."""
    try:
        return name is not None and b"\0" in os.fsencode(name)
    except UnicodeEncodeError:
        return True


@settings(max_examples=200, deadline=None)
@given(cfg=_configs)
def test_config_dict_roundtrip_property(cfg):
    """A config round-trips through its dict, unless a file name is one the OS cannot open: then the first such
    key, in the order the config checks them, is a SchemaError."""
    names = {"paths.ego.file": cfg.path_ego.file, "paths.other.file": cfg.path_other.file, "tracks": cfg.tracks_file}
    refused = [key for key, name in names.items() if _cannot_open(name)]
    if refused:
        with pytest.raises(sp.SchemaError, match=f"^config {refused[0]} must be a file name the OS can open, got "):
            config_from_dict(config_to_dict(cfg), base_dir=cfg.base_dir)
    else:
        assert config_from_dict(config_to_dict(cfg), base_dir=cfg.base_dir) == cfg


def test_config_rejects_bad_version(tmp_path, case_config):
    data = json.loads(case_config.read_text())
    data["schema_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(sp.SchemaError):
        load_config(bad)


def test_config_rejects_missing_keys(tmp_path, case_config):
    data = json.loads(case_config.read_text())
    del data["paths"]["ego"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(sp.SchemaError):
        load_config(bad)


def test_config_rejects_invalid_json(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{not json")
    with pytest.raises(sp.SchemaError):
        load_config(bad)


def test_cli_missing_config_is_data_error(tmp_path, capsys):
    code = main(["sim", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_usage_errors(tmp_path, case_config):
    assert main(["frobnicate", "--config", str(case_config), "--out", str(tmp_path)]) == 1
    assert main(["sim", "--out", str(tmp_path)]) == 1  # missing --config
    assert main(["sim", "--config", str(case_config), "--out", str(tmp_path), "--policy", "bogus"]) == 1
    sim = ["sim", "--config", str(case_config), "--out", str(tmp_path / "sim")]
    assert main([*sim, "--threads", "0"]) == 1
    assert main([*sim, "--threads", "-3"]) == 1
    assert main([*sim, "--seed", "-1"]) == 1
    fixture = [
        "fixture", "--config", str(case_config), "--out", str(tmp_path / "fix"),
        "--lambda-after", "confidence",
    ]
    max_steps = load_config(case_config).max_steps
    for step in ("-5", "0", str(max_steps), "1000"):
        assert main([*fixture, "--switch-step", step]) == 1


@pytest.mark.parametrize(
    "command,flags",
    [
        ("sim", ["--policy", "nan,0.5,0.5"]),
        ("sim", ["--policy", "0.5,nan,0.5"]),
        ("sim", ["--policy", "egoism", "--policy", "0.5,0.5,nan"]),
        ("fixture", ["--lambda", "nan,0.5,0.5"]),
        ("fixture", ["--lambda", "courtesy", "--switch-step", "4", "--lambda-after", "nan,0.5,0.5"]),
    ],
)
def test_cli_rejects_nan_policy_weights(tmp_path, capsys, command, flags):
    template = write_scenario_config(fixture_scenario("courtesy"), tmp_path / "template", seed=0)
    save_config(template, tmp_path / "template" / "config.json")
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "template" / "config.json"), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("socialplan: usage: reward weights must be non-negative and sum to 1")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("period", [30, 100])
def test_cli_fixture_rejects_a_frame_period_that_does_not_divide_the_step(tmp_path, capsys, period):
    template = write_scenario_config(case_scenario("I"), tmp_path / "template", seed=0, frame_period_ms=period)
    assert template.sampler.dt == 0.25
    save_config(template, tmp_path / "template" / "config.json")
    out = tmp_path / "fix"
    code = main(["fixture", "--config", str(tmp_path / "template" / "config.json"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("socialplan: SchemaError: ") and err.count("\n") == 1
    assert f"frame_period_ms = {period}" in err and "sampler.dt = 0.25" in err
    assert not out.exists()


def test_cli_json_errors(tmp_path, capsys):
    code = main(["--json-errors", "infer", "--config", str(tmp_path / "x.json"), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert set(err) == {"error", "message"}


def test_cli_sim_outputs(case_config, tmp_path):
    out = tmp_path / "simout"
    code = main(["sim", "--config", str(case_config), "--out", str(out)])
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert set(stats["policies"]) == {"egoism", "courtesy", "confidence"}
    for name in ("egoism", "courtesy", "confidence"):
        trace = (out / f"trace_{name}.csv").read_text().splitlines()
        assert trace[0].startswith("t,s_ego,v_ego")
        assert stats["policies"][name]["terminated"]


def test_cli_sim_custom_policy(case_config, tmp_path):
    out = tmp_path / "custom"
    assert main(["sim", "--config", str(case_config), "--out", str(out), "--policy", "0.2,0.5,0.3"]) == 0
    assert (out / "trace_0.2_0.5_0.3.csv").exists()


def test_cli_fixture_infer_regen(tmp_path):
    template_dir = tmp_path / "template"
    cfg = write_scenario_config(fixture_scenario("courtesy"), template_dir, seed=0)
    save_config(cfg, template_dir / "config.json")

    fix = tmp_path / "fix"
    assert main([
        "fixture", "--config", str(template_dir / "config.json"), "--out", str(fix),
        "--lambda", "courtesy",
    ]) == 0
    assert (fix / "tracks.csv").exists()

    inf = tmp_path / "inf"
    assert main(["infer", "--config", str(fix / "scenario.json"), "--out", str(inf)]) == 0
    report = json.loads((inf / "inference.json").read_text())
    agents = report["pairs"]["0"]["agents"]
    assert agents["0"]["dop"]["courtesy"] > 0.5

    reg = tmp_path / "reg"
    assert main(["regen", "--config", str(fix / "scenario.json"), "--out", str(reg)]) == 0
    table = json.loads((reg / "regen.json").read_text())
    ego_mse = table["pairs"]["0"]["mse"]["ego"]
    assert ego_mse["estimated"]["1.0"] < ego_mse["egoism"]["1.0"]


def test_cli_deterministic_bytes_across_runs_and_threads(case_config, tmp_path):
    outs = []
    for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / name
        assert main([
            "sim", "--config", str(case_config), "--out", str(out), "--threads", threads,
        ]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == files
        for name in files:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes()


def test_seed_override(case_config, tmp_path):
    cfg = load_config(case_config)
    assert cfg.seed == 0
    out = tmp_path / "seeded"
    assert main(["fixture", "--config", str(case_config), "--out", str(out), "--seed", "9"]) == 0
    written = load_config(out / "scenario.json")
    assert written.seed == 9


def test_config_prior_variants_roundtrip(tmp_path, case_config):
    data = json.loads(case_config.read_text())
    data["inference"]["prior"] = {"kind": "dop", "fractions": [0.27, 0.49, 0.23]}
    f = tmp_path / "dop.json"
    f.write_text(json.dumps(data))
    cfg = load_config(f)
    assert cfg.inference.prior.kind == "dop"
    assert cfg.inference.prior.fractions == (0.27, 0.49, 0.23)
    pset = sp.init_particles(cfg.inference, seed=0)
    assert abs(pset.weights.sum() - 1.0) < 1e-9

    data["inference"]["prior"] = {"kind": "dirichlet", "alpha": [2.0, 1.0, 1.0]}
    f.write_text(json.dumps(data))
    cfg = load_config(f)
    assert cfg.inference.prior.dirichlet_alpha().tolist() == [2.0, 1.0, 1.0]

    data["inference"]["prior"] = {"kind": "dop"}  # missing fractions
    f.write_text(json.dumps(data))
    with pytest.raises(sp.SchemaError):
        load_config(f)


def test_cli_rejects_a_negative_dop_concentration(tmp_path, case_config, capsys):
    """Its alpha (-29, -14, -4) is no Dirichlet: infer put one particle at weight 0.9999999 and exited 0."""
    data = json.loads(case_config.read_text())
    data["inference"]["prior"] = {"kind": "dop", "fractions": [0.6, 0.3, 0.1], "concentration": -50}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["infer", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("socialplan: SchemaError: ") and "dop concentration must be non-negative" in err
    assert not (tmp_path / "o").exists()
    data["inference"]["prior"]["concentration"] = 0
    bad.write_text(json.dumps(data))
    assert load_config(bad).inference.prior.dirichlet_alpha().tolist() == [1.0, 1.0, 1.0]


@pytest.fixture(scope="module")
def short_overlap(tmp_path_factory):
    """A fixture, and the same tracks plus a third on the other path that shares one frame with the ego track.

    The third track starts at the ego track's last frame, 20 m before the
    conflict point; pair (0, 2) then shares less than one planning step and
    pair (0, 1) is the fixture's.  "renumbered" swaps ids 1 and 2, so the
    short pair comes first in extract_pairs order.
    """
    tmp = tmp_path_factory.mktemp("short_overlap")
    tcfg = write_scenario_config(fixture_scenario("switch"), tmp / "tpl", seed=1)
    save_config(tcfg, tmp / "tpl" / "config.json")
    fixture = tmp / "fixture"
    assert main(["fixture", "--config", str(tmp / "tpl" / "config.json"), "--out", str(fixture)]) == 0
    text = (fixture / "tracks.csv").read_text()
    ego_rows = [line.split(",") for line in text.splitlines()[1:] if line.startswith("0,")]
    last_frame, last_stamp = int(ego_rows[-1][1]), int(ego_rows[-1][2])
    period = load_config(fixture / "scenario.json").frame_period_ms
    third = [
        f"2,{last_frame + i},{last_stamp + i * period},0.000000,{-20.0 + 3.0 * i * period / 1000:.6f},0.000000,3.000000"
        for i in range(21)
    ]
    variants = {"fixture": text, "third_track": text + "\n".join(third) + "\n"}
    variants["renumbered"] = "\n".join(
        {"1": "2", "2": "1"}.get(line[0], line[0]) + line[1:] if line[:2] in ("1,", "2,") else line
        for line in variants["third_track"].splitlines()
    ) + "\n"
    configs = {}
    for name, tracks in variants.items():
        (tmp / name).mkdir(exist_ok=True)
        (tmp / name / "tracks.csv").write_text(tracks)
        save_config(replace(load_config(fixture / "scenario.json"), base_dir=tmp / name), tmp / name / "scenario.json")
        for path in ("path_ego.csv", "path_other.csv"):
            (tmp / name / path).write_bytes((fixture / path).read_bytes())
        configs[name] = tmp / name / "scenario.json"
    return configs


@pytest.mark.parametrize("command,report", [("infer", "inference.json"), ("regen", "regen.json")])
def test_cli_skips_a_pair_that_shares_less_than_one_planning_step(
    short_overlap, tmp_path, caplog, command, report
):
    """Such a pair once stopped infer and regen with exit 2, although pair (0, 1) is fine."""
    caplog.set_level(logging.INFO, logger="socialplan.workflows")
    runs = {}
    for name, config in short_overlap.items():
        caplog.clear()
        assert main([command, "--config", str(config), "--out", str(tmp_path / name)]) == 0
        runs[name] = [r.getMessage() for r in caplog.records]
    assert runs["fixture"] == []
    reason = "skipped: tracks share less than one planning step of overlap"
    assert runs["third_track"] == [f"pair 1 (tracks 0, 2) {reason}"]
    assert runs["renumbered"] == [f"pair 0 (tracks 0, 1) {reason}"]
    # the good pair keeps its index in extract_pairs order, and its results
    plain = {p.name: p.read_bytes() for p in (tmp_path / "fixture").iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "third_track").iterdir()} == plain
    pairs = json.loads((tmp_path / "renumbered" / report).read_text())["pairs"]
    assert list(pairs) == ["1"] and (pairs["1"]["ego_track"], pairs["1"]["other_track"]) == (0, 2)
    if command == "infer":
        assert sorted(p.name for p in (tmp_path / "renumbered").iterdir()) == [report, "lambdas_pair1.csv"]


def test_cli_skipped_pair_is_silent_by_default_and_import_stays_free_of_logging(short_overlap, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parent.parent)}
    run = subprocess.run(
        [sys.executable, "-m", "socialplan.cli", "infer", "--config", str(short_overlap["third_track"]),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "", "")
    probe = "import socialplan, sys; print('logging' in sys.modules)"
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert imported.stdout == "False\n"


def test_python_dash_m_socialplan_runs_the_cli(tmp_path):
    """A source checkout on PYTHONPATH has the CLI as python -m socialplan, with its exit codes."""
    env = {**os.environ, "PYTHONPATH": str(Path(sp.__file__).parent.parent)}
    save_config(write_scenario_config(fixture_scenario("egoism"), tmp_path / "template", seed=1),
                tmp_path / "template" / "scenario.json")

    def run(*args):
        out = subprocess.run([sys.executable, "-W", "error", "-m", "socialplan", *args],
                             capture_output=True, text=True, env=env, timeout=120)
        return out.returncode, out.stderr

    fixture = ["fixture", "--config", str(tmp_path / "template" / "scenario.json"), "--out", str(tmp_path / "f")]
    assert run(*fixture) == (0, "")
    assert (tmp_path / "f" / "tracks.csv").exists()
    code, err = run("fixture", "--config", str(tmp_path / "template" / "scenario.json"))
    assert code == 1 and err.startswith("socialplan: usage: ")
    code, err = run("infer", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"))
    assert code == 2 and err.startswith("socialplan: ")
    # both once ended in a RuntimeWarning traceback: a subnormal dt's accelerations overflow into the clamp,
    # and a path whose arclength overflows is a data error naming its row
    data = json.loads((tmp_path / "template" / "scenario.json").read_text())
    data["sampler"]["dt"] = 1e-320
    tiny_dt = tmp_path / "template" / "tiny_dt.json"
    tiny_dt.write_text(json.dumps(data))
    assert run("sim", "--config", str(tiny_dt), "--out", str(tmp_path / "s"), "--policy", "egoism") == (0, "")
    (tmp_path / "template" / "path_ego.csv").write_text("x,y\n-1e308,0\n1e308,0\n")
    code, err = run("sim", "--config", str(tmp_path / "template" / "scenario.json"), "--out", str(tmp_path / "p"))
    assert (code, err) == (2, "socialplan: ParseError: row 3: path arclength overflows; use smaller coordinates\n")


@pytest.fixture
def fixture_template(tmp_path):
    save_config(write_scenario_config(fixture_scenario("courtesy"), tmp_path / "template", seed=0),
                tmp_path / "template" / "config.json")
    return tmp_path / "template" / "config.json"


@pytest.mark.parametrize(
    "flags", [["--lambda-after", "confidence"], ["--switch-step", "5"]], ids=["lambda_after_alone", "switch_step_alone"]
)
def test_cli_fixture_switch_flags_come_together(tmp_path, fixture_template, capsys, flags):
    """--lambda-after alone once exited 0 with a fixture that never switched; --switch-step alone left an empty --out."""
    out = tmp_path / "fix"
    assert main(["fixture", "--config", str(fixture_template), "--out", str(out), "--lambda", "courtesy", *flags]) == 1
    assert capsys.readouterr().err == "socialplan: usage: switch_step and lam_after must be given together\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "switch", [{"switch_step": 5}, {"lam_after": sp.RewardWeights.confidence()}], ids=["no_lam_after", "no_switch_step"]
)
def test_make_fixture_checks_the_switch_before_writing(tmp_path, fixture_template, switch):
    out = tmp_path / "fix"
    with pytest.raises(ValueError, match="switch_step and lam_after must be given together"):
        workflows.make_fixture(load_config(fixture_template), sp.RewardWeights.courtesy(), 0, out, **switch)
    assert not out.exists()


def test_cli_fixture_that_does_not_terminate_writes_nothing(tmp_path, fixture_template, capsys):
    short = fixture_template.parent / "short.json"
    save_config(replace(load_config(fixture_template), max_steps=2), short)
    out = tmp_path / "fix"
    assert main(["fixture", "--config", str(short), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "socialplan: NonTerminatingError: fixture scenario did not reach its conflict point\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "regen"])
def test_cli_replay_without_tracks_writes_nothing(tmp_path, case_config, capsys, command):
    """A config with no tracks file once left an empty --out directory behind its exit 2."""
    out = tmp_path / "out"
    assert main([command, "--config", str(case_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "socialplan: ParseError: config has no tracks file for this workflow\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "regen"])
def test_cli_replay_writes_nothing_when_a_later_pair_fails(short_overlap, tmp_path, capsys, command):
    """A second pair whose speeds overflow once left the first pair's lambdas_pair0.csv (infer) or an empty --out (regen)."""
    source = short_overlap["fixture"].parent
    lines = (source / "tracks.csv").read_text().splitlines()
    # track 2 repeats track 1 at vx = 1e300: pair (0, 2) comes second and its features overflow
    copy = [",".join(["2", *row[1:5], "1e300", row[6]]) for row in (line.split(",") for line in lines[1:]) if row[0] == "1"]
    (tmp_path / "tracks.csv").write_text("\n".join(lines + copy) + "\n")
    for path in ("path_ego.csv", "path_other.csv"):
        (tmp_path / path).write_bytes((source / path).read_bytes())
    save_config(replace(load_config(short_overlap["fixture"]), base_dir=tmp_path), tmp_path / "scenario.json")
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "scenario.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("socialplan: NonFiniteRewardError: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["infer", "regen"])
@pytest.mark.parametrize("dt", [1e-7, 1e-300, 5e-324])
def test_cli_replay_rejects_a_grid_past_its_bound(fuzz_source, tmp_path, capsys, command, dt):
    """dt 1e-7 on the courtesy fixture once asked for a 580 MiB grid and ended in a MemoryError traceback."""
    config, tracks, paths = fuzz_source
    config = dict(config, sampler=dict(config["sampler"], dt=dt))
    (tmp_path / "scenario.json").write_text(json.dumps(config))
    (tmp_path / "tracks.csv").write_text(tracks)
    for name, content in paths.items():
        (tmp_path / name).write_bytes(content)
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "scenario.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"socialplan: SchemaError: sampler.dt = {dt!r} s puts the ") and err.count("\n") == 1
    assert f"on more than {MAX_GRID_STEPS} planning steps" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_source(tmp_path_factory):
    """The courtesy fixture's files, read back: (config dict, tracks text, {path file: bytes})."""
    tmp = tmp_path_factory.mktemp("fuzz")
    save_config(write_scenario_config(fixture_scenario("courtesy"), tmp / "template", seed=0), tmp / "t.json")
    assert main(["fixture", "--config", str(tmp / "t.json"), "--out", str(tmp / "f")]) == 0
    paths = {name: (tmp / "f" / name).read_bytes() for name in ("path_ego.csv", "path_other.csv")}
    return json.loads((tmp / "f" / "scenario.json").read_text()), (tmp / "f" / "tracks.csv").read_text(), paths


# each entry: the file it spoils, how, and the start of the one-line message
_UNREADABLE = {
    "config_not_utf8": ("scenario.json", lambda b: b.replace(b'"seed"', b'"s\xffeed"'),
                        "SchemaError: config cannot be read: 'utf-8' codec can't decode byte 0xff"),
    "tracks_not_utf8": ("tracks.csv", lambda b: b + b"\xff\n", "ParseError: track file is not UTF-8: "),
    "path_not_utf8": ("path_other.csv", lambda b: b + b"1,\xe9\n", "ParseError: path file is not UTF-8: "),
    "seed_of_5001_digits": ("scenario.json", lambda b: b.replace(b'"seed": 0', b'"seed": ' + b"1" * 5001),
                            "SchemaError: config cannot be read: Exceeds the limit (4300 digits)"),
    "nested_100000_deep": ("scenario.json",
                           lambda b: b.replace(b'"seed": 0', b'"seed": ' + b"[" * 10**5 + b"]" * 10**5),
                           "SchemaError: config cannot be read: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case", _UNREADABLE)
def test_cli_rejects_files_it_cannot_read_as_data_errors(fuzz_source, tmp_path, capsys, case):
    """Bytes that are not UTF-8 once exited 1 as usage errors, as did an integer past int's digit limit; nesting
    100,000 deep ended in a RecursionError traceback."""
    config, tracks, paths = fuzz_source
    files = {"scenario.json": json.dumps(config).encode(), "tracks.csv": tracks.encode(), **paths}
    name, spoil, message = _UNREADABLE[case]
    for file, content in files.items():
        (tmp_path / file).write_bytes(spoil(content) if file == name else content)
    out = tmp_path / "out"
    assert main(["infer", "--config", str(tmp_path / "scenario.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"socialplan: {message}") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sim", "infer"])
@pytest.mark.parametrize("key", ["paths.ego.file", "tracks"])
@pytest.mark.parametrize("name", ["\ud800.csv", "a\x00.csv"], ids=["lone_surrogate", "nul"])
def test_cli_rejects_file_names_the_os_cannot_open_as_data_errors(fuzz_source, tmp_path, capsys, command, key, name):
    """A lone surrogate (valid JSON, which the file system's encoding refuses) or a NUL character in a config's file
    name once exited 1 as a usage error where the file was opened, or 0 in tracks under sim, which opens no tracks."""
    config, tracks, paths = fuzz_source
    config = json.loads(json.dumps(config))
    if key == "tracks":
        config["tracks"] = name
    else:
        config["paths"]["ego"]["file"] = name
    for file, content in {"tracks.csv": tracks.encode(), **paths}.items():
        (tmp_path / file).write_bytes(content)
    (tmp_path / "scenario.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "scenario.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"socialplan: SchemaError: config {key} must be a file name the OS can open, got {name!r}\n"
    assert not out.exists()


def _leaves(node, at=()):
    """The key paths of every leaf of a config dict; a list of numbers counts as a leaf."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _leaves(value, at + (key,))]
    return [at]


# the size fields, terminal_speed_fractions' length among them, draw values the config's bounds reject, or
# small ones, never a size that would allocate;
# max_steps, window_r and frame_period_ms draw small values only, because a sim's step count has no bound;
# dt draws any positive value, as tracks.MAX_GRID_STEPS bounds a replay's grid (span / dt)
_BOUNDS = {("sampler", "horizon_steps"): MAX_HORIZON_STEPS, ("inference", "n_particles"): MAX_PARTICLES}
_JUNK = st.sampled_from(
    [None, True, False, "", "x", "egoism", [], {}, [1.0], [0.2, 0.3, 0.5], {"kind": "dirichlet"}, 0, 1, -1, 0.5, -2.5,
     1e-300, 1e300, float("nan"), float("inf"), float("-inf")]
)


def _value(leaf):
    if leaf in _BOUNDS:
        return st.one_of(st.integers(-2, 40), st.integers(_BOUNDS[leaf] + 1, 2**70), _JUNK)
    if leaf == ("sampler", "dt"):
        return st.one_of(st.floats(0.0, 1e300, exclude_min=True), st.floats(max_value=0.0), _JUNK)
    if leaf[-1] == "terminal_speed_fractions":
        just_past = st.lists(st.floats(-2.0, 3.0), min_size=MAX_TERMINAL_SPEEDS + 1, max_size=MAX_TERMINAL_SPEEDS + 3)
        return st.one_of(st.lists(st.floats(-2.0, 3.0), max_size=13), just_past, _JUNK)
    return st.one_of(st.integers(-3, 60), st.floats(-1e3, 1e3), _JUNK)


@st.composite
def _config_mutations(draw, config):
    """A copy of config with one to three leaves replaced, deleted or joined by an unknown key."""
    data = json.loads(json.dumps(config))
    leaves = _leaves(config)
    for _ in range(draw(st.integers(1, 3))):
        leaf = draw(st.sampled_from(leaves))
        parent = data
        for key in leaf[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue  # an earlier mutation replaced this section
        kind = draw(st.sampled_from(["replace", "replace", "replace", "delete", "unknown"]))
        if kind == "replace":
            parent[leaf[-1]] = draw(_value(leaf))
        elif kind == "delete":
            parent.pop(leaf[-1], None)
        else:
            parent["unknown_key"] = 1
    return data


_TOKENS = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1e300", "-1e300", "1e-320", "0", "-1", "1_0", " 2 ", "1.5",
                     "9223372036854775807", "9223372036854775808", "-9223372036854775809", "0x10"]),
    st.integers(-10**5, 10**5).map(str),
    st.floats(-1e3, 1e3).map(repr),
)


@st.composite
def _track_mutations(draw, text):
    """text with one to three edits: a field replaced (timestamps stay within 10**5 of one another, so no
    grid grows past a few thousand steps), a row dropped, repeated or cut short, the file truncated, or a bad header."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if len(lines) < 2:
            break
        row = draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "field", "drop", "repeat", "short", "truncate", "header"]))
        fields = lines[row].split(",")
        if kind == "field":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_TOKENS)
            lines[row] = ",".join(fields)
        elif kind == "drop":
            del lines[row]
        elif kind == "repeat":
            lines.insert(row, lines[row])
        elif kind == "short":
            lines[row] = ",".join(fields[:-1])
        elif kind == "truncate":
            del lines[row:]
        else:
            lines[0] = draw(st.sampled_from(["", "track_id,frame_id", lines[0] + ",extra", lines[0].upper()]))
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code_and_one_line(fuzz_source, data):
    """Mutated configs and track CSVs through cli.main, under warnings as errors: exit 0, 1 or 2, at most one
    line on stderr, and never a raised exception or a traceback."""
    config, tracks, paths = fuzz_source
    command = data.draw(st.sampled_from(["sim", "fixture", "infer", "regen"]), label="command")
    mutated_config = data.draw(st.one_of(st.just(config), _config_mutations(config)), label="config")
    mutated_tracks = data.draw(st.one_of(st.just(tracks), _track_mutations(tracks)), label="tracks")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "scenario.json").write_text(json.dumps(mutated_config))
        (root / "tracks.csv").write_text(mutated_tracks)
        for name, content in paths.items():
            (root / name).write_bytes(content)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--config", str(root / "scenario.json"), "--out", str(root / "out")])
    event(f"{command} exits {code}")
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
