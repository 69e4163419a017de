"""Observation noise: infer and regen on recorded-like tracks, whose windows never match a candidate exactly.

The weight-recovery oracles run on simulator output, where every window
matches a candidate exactly; recorded tracks carry tracker noise.  Here a
fixture's tracks get seeded Gaussian noise on x, y, vx and vy (with_noise).
Any noise must give a result or a one-line data error, never a traceback;
small noise must leave the recovered policies where they were.
"""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialplan import workflows
from socialplan.cli import main
from socialplan.metrics import dominant_policy
from socialplan.scenarios import fixture_scenario, write_scenario_config

POLICIES = ("egoism", "courtesy", "confidence")


def with_noise(fixture: Path, out: Path, sigma: float, seed: int) -> Path:
    """A copy of the fixture directory at out whose tracks.csv has N(0, sigma) noise, drawn from seed, added to the
    x, y, vx and vy of every record; returns the copy's scenario.json."""
    shutil.copytree(fixture, out)
    header, *rows = (out / "tracks.csv").read_text().splitlines()
    fields = [row.split(",") for row in rows]
    values = np.array([f[3:] for f in fields], dtype=float)
    values += np.random.default_rng(seed).normal(0.0, sigma, values.shape)
    rows = [",".join(f[:3] + [f"{v:.6f}" for v in noisy]) for f, noisy in zip(fields, values.tolist())]
    (out / "tracks.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return out / "scenario.json"


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """The egoism, courtesy and confidence fixtures of the courtesy template, by policy."""
    tmp = tmp_path_factory.mktemp("noise")
    template = write_scenario_config(fixture_scenario("courtesy"), tmp / "template", seed=0)
    for name in POLICIES:
        workflows.make_fixture(template, workflows.POLICIES[name](), seed=0, out_dir=tmp / name)
    return {name: tmp / name for name in POLICIES}


def _run(command: str, config: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(POLICIES), sigma=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
@example(name="egoism", sigma=1.0, seed=0)  # both commands run on noisy windows
@example(name="courtesy", sigma=5.0, seed=0)  # no track stays near its path: a data error
def test_noisy_tracks_give_a_result_or_a_one_line_data_error(fixtures, name, sigma, seed):
    with tempfile.TemporaryDirectory() as tmp:
        config = with_noise(fixtures[name], Path(tmp) / "fixture", sigma, seed)
        for command in ("infer", "regen"):
            code, err = _run(command, config, Path(tmp) / command)
            assert code in (0, 2), (command, code, err)
            if code == 2:
                assert err.startswith("socialplan: ") and err.count("\n") == 1 and "Traceback" not in err, err
                assert not (Path(tmp) / command).exists()


def _recovered(config: Path, out: Path) -> dict:
    """Per agent of inference.json: the dominant policy of its final estimate and its DOP-dominant policy."""
    assert _run("infer", config, out) == (0, "")
    agents = json.loads((out / "inference.json").read_text())["pairs"]["0"]["agents"]
    return {
        agent: (dominant_policy(result["final_lambda"]), max(result["dop"], key=result["dop"].get))
        for agent, result in agents.items()
    }


@pytest.mark.parametrize("name", POLICIES)
def test_noise_of_a_tenth_of_a_metre_keeps_the_recovered_policies(fixtures, tmp_path, name):
    """At sigma 0.1, under noise seeds 0 to 3, both drivers' final and DOP-dominant policies are the noise-free
    run's, and the ego driver's is the policy it was simulated under."""
    clean = _recovered(fixtures[name] / "scenario.json", tmp_path / "clean")
    assert clean["0"] == (name, name)
    for seed in range(4):
        noisy = with_noise(fixtures[name], tmp_path / f"noisy{seed}", 0.1, seed)
        assert _recovered(noisy, tmp_path / f"infer{seed}") == clean, seed
