"""workflows._write_json writes the bytes of json.dumps(data, indent=2, sort_keys=True) plus a newline."""
import json

import pytest

import socialplan as sp
from socialplan import workflows
from socialplan.config import load_config
from socialplan.scenarios import case_scenario, fixture_scenario, write_scenario_config

# the seven closed-loop sim configs of the benchmark: cases I-III and the four fixture templates
SIM_SOURCES = [("case", c) for c in ("I", "II", "III")] + [
    ("fixture", f) for f in ("egoism", "courtesy", "confidence", "switch")
]


def _expected(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _recording(monkeypatch) -> list:
    """Every (path, data) the workflows write as JSON."""
    written = []
    real = workflows._write_json

    def recording(path, data):
        written.append((path, data))
        real(path, data)

    monkeypatch.setattr(workflows, "_write_json", recording)
    return written


@pytest.mark.parametrize("kind,name", SIM_SOURCES, ids=[f"{k}_{n}" for k, n in SIM_SOURCES])
def test_sim_sidecars_and_stats(tmp_path, monkeypatch, kind, name):
    scenario = case_scenario(name) if kind == "case" else fixture_scenario(name)
    cfg = write_scenario_config(scenario, tmp_path / "config")
    written = _recording(monkeypatch)
    workflows.run_sim(cfg, list(workflows.POLICIES), tmp_path / "sim")
    assert sorted(path.name for path, _ in written) == sorted(
        [f"trace_{p}.json" for p in workflows.POLICIES] + ["stats.json"]
    )
    for path, data in written:
        assert path.read_bytes() == _expected(data), path.name


def test_inference_and_regen_reports(tmp_path, monkeypatch):
    cfg = write_scenario_config(fixture_scenario("switch"), tmp_path / "template", seed=1)
    fixture = load_config(workflows.make_fixture(cfg, sp.RewardWeights.egoism(), 1, tmp_path / "fixture"))
    written = _recording(monkeypatch)
    workflows.run_infer(fixture, tmp_path / "infer")
    workflows.run_regen(fixture, tmp_path / "regen")
    assert [path.name for path, _ in written] == ["inference.json", "regen.json"]
    for path, data in written:
        assert path.read_bytes() == _expected(data), path.name


def test_rows_with_signed_zeros_tiny_and_large_values(tmp_path):
    """Rows equal as numbers but not in sign, and every kind of scalar json writes."""
    data = {
        "lambda_ego": [
            [-0.0, 0.0, 5e-324],
            [0.0, -0.0, 5e-324],
            [-0.0, 0.0, 5e-324],
            [1.7976931348623157e308, -2.2250738585072014e-308, 0.1],
            [1, 0, 0],
            [1.0, 0.0, 0.0],
            [True, False, False],
            [1e-7, 123456789.123, -1e22],
        ],
        "scalars": [None, "é\"\\\n", float("nan"), float("inf"), -float("inf"), 2**70, -0.0],
        "nested": {"b": [[[1.5]], [], {}], "a": {}, "c": [{"z": 1, "y": [0.0]}, {"z": 1, "y": [-0.0]}]},
        "empty": [],
        "tuple": (0.5, 0.25),
    }
    path = tmp_path / "out.json"
    workflows._write_json(path, data)
    assert path.read_bytes() == _expected(data)
