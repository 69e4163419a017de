import json
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan.cli import main
from socialplan.config import PathSpec, ScenarioConfig, config_from_dict, config_to_dict, load_config, save_config
from socialplan.scenarios import case_scenario, fixture_scenario, write_scenario_config


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


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_positive = st.floats(1e-3, 1e6)
_triples = st.tuples(_finite, _finite, _finite)
_positive_triples = st.tuples(_positive, _positive, _positive)
_priors = st.one_of(
    st.builds(sp.PriorSpec, kind=st.just("uniform"), concentration=_finite),
    st.builds(sp.PriorSpec, kind=st.just("dirichlet"), alpha=_positive_triples),
    st.builds(sp.PriorSpec, kind=st.just("dop"), fractions=_positive_triples, concentration=_finite),
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


@settings(max_examples=200, deadline=None)
@given(cfg=_configs)
def test_config_dict_roundtrip_property(cfg):
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
