"""Every JSON file the workflows write is json.dumps(data, indent=2, sort_keys=True) plus a newline.

Each file is read back and dumped again in that format, which must give its
bytes back: the sim trace sidecars and stats.json, the fixture's
scenario.json (save_config), inference.json and regen.json.
"""
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


def _assert_json_format(out_dir, names):
    written = sorted(out_dir.glob("*.json"))
    assert [path.name for path in written] == sorted(names)
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


@pytest.mark.parametrize("kind,name", SIM_SOURCES, ids=[f"{k}_{n}" for k, n in SIM_SOURCES])
def test_sim_sidecars_and_stats(tmp_path, kind, name):
    scenario = case_scenario(name) if kind == "case" else fixture_scenario(name)
    cfg = write_scenario_config(scenario, tmp_path / "config")
    workflows.run_sim(cfg, list(workflows.POLICIES), tmp_path / "sim")
    _assert_json_format(tmp_path / "sim", [f"trace_{p}.json" for p in workflows.POLICIES] + ["stats.json"])


def test_inference_and_regen_reports(tmp_path):
    cfg = write_scenario_config(fixture_scenario("switch"), tmp_path / "template", seed=1)
    config_path = workflows.make_fixture(cfg, sp.RewardWeights.egoism(), 1, tmp_path / "fixture")
    _assert_json_format(tmp_path / "fixture", ["scenario.json"])
    fixture = load_config(config_path)
    workflows.run_infer(fixture, tmp_path / "infer")
    workflows.run_regen(fixture, tmp_path / "regen")
    _assert_json_format(tmp_path / "infer", ["inference.json"])
    _assert_json_format(tmp_path / "regen", ["regen.json"])
