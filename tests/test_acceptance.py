"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""
import time

import numpy as np

import socialplan as sp
from socialplan import workflows
from socialplan.cli import main as cli_main
from socialplan.config import save_config
from socialplan.inference import infer_agent, infer_trace
from socialplan.planner import plan_ego
from socialplan.scenarios import case_scenario, fixture_scenario, write_scenario_config

from example_checks import ALL_CHECKS
from reference_scalar import brute_force, space_from_matrices, trajectory

SEEDS = range(10)


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# ---------------------------------------------------------------- 1
def test_criterion_1_distribution_sanity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        ne, no = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        # reward magnitudes up to hundreds: the documented envelope of the
        # log-domain softmax (beyond ~e^-745 probabilities underflow float64)
        scale = 10 ** rng.uniform(-1, 2.0)
        reward_ego = rng.normal(scale=scale, size=(ne, no))
        reward_other = rng.normal(scale=scale, size=(ne, no))
        absence = rng.normal(scale=scale, size=no)
        comps = space_from_matrices(reward_ego, reward_other, absence).components()
        probs = np.exp(comps.presence_logp)
        ok &= bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9))
        q = np.array(brute_force(reward_ego.tolist(), reward_other.tolist(), absence.tolist(), 0)[1])
        kl = np.sum(q[None, :] * (np.log(q)[None, :] - comps.presence_logp), axis=1)
        ok &= bool(np.all(kl >= -1e-12))
        ok &= bool(np.all((comps.courtesy > 0.0) & (comps.courtesy <= 1.0)))
        ok &= bool(np.all((comps.confidence >= 0.0) & (comps.confidence <= 1.0)))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(1, f"distribution sanity ({elapsed:.1f}s)", ok)


# ---------------------------------------------------------------- 2
def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        reward_ego = rng.normal(scale=5.0, size=(3, 3))
        reward_other = rng.normal(scale=5.0, size=(3, 3))
        absence = rng.normal(scale=5.0, size=3)
        comps = space_from_matrices(reward_ego, reward_other, absence).components()
        for label in range(3):
            presence, _, egoism, courtesy, conf, conf_r = brute_force(
                reward_ego.tolist(), reward_other.tolist(), absence.tolist(), label
            )
            ok &= bool(np.allclose(np.exp(comps.presence_logp[label]), presence, atol=1e-9))
            ok &= abs(comps.egoism_raw[label] - egoism) < 1e-9
            ok &= abs(comps.courtesy[label] - courtesy) < 1e-9
            ok &= abs(comps.confidence[label] - conf) < 1e-9
            ok &= abs(comps.confidence_reward[label] - conf_r) < 1e-9
    _verdict(2, "brute-force oracle equivalence", ok)


# ---------------------------------------------------------------- 3 & 4
def _policy_runs(case):
    scn = case_scenario(case)
    out = {}
    for name in ("egoism", "courtesy", "confidence"):
        lam = getattr(sp.RewardWeights, name)()
        tr = sp.simulate(scn, sp.PolicySpec.fixed(lam), sp.PolicySpec.follower(), max_steps=200)
        n1 = round(1.0 / tr.dt)
        out[name] = {
            "are": sp.are(tr),
            "ait": sp.ait(tr) if tr.terminated else float("inf"),
            "a1": float(np.mean(tr.a_ego[:n1])),
        }
    return out


def test_criterion_3_table_orderings():
    start = time.perf_counter()
    holds = 0
    for case in ("I", "II", "III"):
        r = _policy_runs(case)
        are_ok = r["courtesy"]["are"] > r["egoism"]["are"] > r["confidence"]["are"]
        ait_ok = r["confidence"]["ait"] > r["egoism"]["ait"] > r["courtesy"]["ait"]
        holds += are_ok and ait_ok
    elapsed = time.perf_counter() - start
    ok = holds >= 2 and elapsed < 60.0
    _verdict(3, f"ARE/AIT orderings in {holds}/3 cases ({elapsed:.1f}s)", ok)


def test_criterion_4_qualitative_policy_behavior():
    r1 = _policy_runs("I")
    case1 = r1["courtesy"]["a1"] > r1["egoism"]["a1"] and r1["confidence"]["a1"] < r1["egoism"]["a1"]
    r2 = _policy_runs("II")
    case2 = r2["courtesy"]["a1"] < 0.0 and r2["confidence"]["a1"] > r2["egoism"]["a1"]
    _verdict(4, "case I speed-up/block and case II brake/chase", case1 and case2)


# ---------------------------------------------------------------- 5-7 fixtures
def _generate_fixture(tmp_path, name, lam, seed=0, switch_step=None, lam_after=None):
    scn = fixture_scenario(name)
    cfg = write_scenario_config(scn, tmp_path / f"template_{name}", seed=seed)
    cfg_path = workflows.make_fixture(
        cfg, lam, seed=seed, out_dir=tmp_path / f"fixture_{name}",
        switch_step=switch_step, lam_after=lam_after,
    )
    from socialplan.config import load_config

    fcfg = load_config(cfg_path)
    pairs = workflows.observed_pairs(fcfg)
    assert len(pairs) == 1
    return fcfg, pairs[0][1]


def test_criterion_5_lambda_recovery(tmp_path):
    start = time.perf_counter()
    ok = True
    summary = []
    for name in ("egoism", "courtesy", "confidence"):
        lam_star = getattr(sp.RewardWeights, name)()
        fcfg, pair = _generate_fixture(tmp_path, name, lam_star)
        scn = fcfg.load_scenario()
        doms = l1ok = 0
        for seed in SEEDS:
            series = infer_trace(pair, scn, fcfg.inference, seed=seed)["ego"]
            lam_hat = series.lambdas[-1]
            doms += sp.dominant_policy(lam_hat) == name
            l1ok += float(np.abs(lam_hat - lam_star.values).sum()) < 0.3
        summary.append(f"{name} dom {doms}/10 L1 {l1ok}/10")
        ok &= doms >= 9 and l1ok >= 8
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _verdict(5, f"lambda recovery [{'; '.join(summary)}] ({elapsed:.1f}s)", ok)


def test_criterion_6_switch_detection(tmp_path):
    scn = fixture_scenario("switch")
    probe = sp.simulate(
        scn, sp.PolicySpec.fixed(sp.RewardWeights.egoism()), sp.PolicySpec.follower(), max_steps=400
    )
    m = probe.n_steps // 2
    fcfg, pair = _generate_fixture(
        tmp_path, "switch", sp.RewardWeights.egoism(),
        switch_step=m, lam_after=sp.RewardWeights.confidence(),
    )
    scenario = fcfg.load_scenario()
    r = fcfg.inference.window_r
    detected = 0
    for seed in SEEDS:
        series = infer_trace(pair, scenario, fcfg.inference, seed=seed)["ego"]
        doms = [sp.dominant_policy(lam) for lam in series.lambdas]
        k_star = None
        for i, d in enumerate(doms):
            if d == "confidence" and all(x == "confidence" for x in doms[i:]):
                k_star = int(series.frames[i])
                break
        detected += k_star is not None and abs(k_star - m) <= 2 * r
    _verdict(6, f"policy-switch detection {detected}/10 (switch at {m})", detected >= 8)


def _regen_reduction(fcfg, pair, scn, seed, horizon=1.0):
    dt = fcfg.sampler.dt
    hsteps = int(np.floor(horizon / dt + 1e-9))
    series = infer_agent(pair.ego, pair.other, scn, fcfg.inference, seed=seed)
    lam_at = dict(zip(series.frames.tolist(), series.lambdas))
    total = len(pair.ego.s) - 1
    mse_est = mse_ego = 0.0
    from types import SimpleNamespace

    for k in range(fcfg.inference.window_r, total - hsteps + 1):
        x0 = sp.JointState(
            ego=sp.AgentState(s=float(pair.ego.s[k]), v=float(pair.ego.v[k]), d=float(pair.ego.d[k])),
            other=sp.AgentState(s=float(pair.other.s[k]), v=float(pair.other.v[k]), d=float(pair.other.d[k])),
            t=k,
        )
        observed = SimpleNamespace(xy=pair.ego.xy[k : k + hsteps + 1], dt=dt)
        for kind in ("est", "ego"):
            lam = sp.RewardWeights(lam_at[k]) if kind == "est" else sp.RewardWeights.egoism()
            label, space = plan_ego(x0, lam, scn)
            mse = sp.trajectory_mse(trajectory(space.ego_candidates, label), observed, horizon)
            if kind == "est":
                mse_est += mse
            else:
                mse_ego += mse
    return mse_est, mse_ego


def test_criterion_7_mse_improvement(tmp_path):
    ok = True
    summary = []
    for name in ("courtesy", "confidence"):
        lam_star = getattr(sp.RewardWeights, name)()
        fcfg, pair = _generate_fixture(tmp_path, name, lam_star)
        scn = fcfg.load_scenario()
        passes = 0
        reductions = []
        for seed in SEEDS:
            mse_est, mse_ego = _regen_reduction(fcfg, pair, scn, seed)
            red = 1.0 - mse_est / mse_ego
            reductions.append(red)
            passes += (mse_est < mse_ego) and (red >= 0.3)
        summary.append(f"{name} {passes}/10 (median red {np.median(reductions):.0%})")
        ok &= passes >= 8
    _verdict(7, f"regeneration MSE improvement [{'; '.join(summary)}]", ok)


# ---------------------------------------------------------------- 8
def test_criterion_8_cli_determinism(tmp_path):
    cfg = write_scenario_config(case_scenario("I"), tmp_path / "case", seed=0)
    save_config(cfg, tmp_path / "case" / "config.json")
    sims = []
    for run, threads in (("s1", "1"), ("s2", "1"), ("s3", "2")):
        out = tmp_path / run
        assert cli_main([
            "sim", "--config", str(tmp_path / "case" / "config.json"),
            "--out", str(out), "--threads", threads,
        ]) == 0
        sims.append(out)

    tcfg = write_scenario_config(fixture_scenario("courtesy"), tmp_path / "tpl", seed=1)
    save_config(tcfg, tmp_path / "tpl" / "config.json")
    fixtures, infers, regens = [], [], []
    for run in ("f1", "f2"):
        fix = tmp_path / run
        assert cli_main([
            "fixture", "--config", str(tmp_path / "tpl" / "config.json"),
            "--out", str(fix), "--lambda", "courtesy",
        ]) == 0
        fixtures.append(fix)
        inf = tmp_path / (run + "_inf")
        assert cli_main(["infer", "--config", str(fix / "scenario.json"), "--out", str(inf)]) == 0
        infers.append(inf)
        reg = tmp_path / (run + "_reg")
        assert cli_main(["regen", "--config", str(fix / "scenario.json"), "--out", str(reg)]) == 0
        regens.append(reg)

    def identical(dirs):
        names = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            if sorted(p.name for p in other.iterdir()) != names:
                return False
            for name in names:
                if (dirs[0] / name).read_bytes() != (other / name).read_bytes():
                    return False
        return True

    ok = identical(sims) and identical(fixtures) and identical(infers) and identical(regens)
    _verdict(8, "byte-identical CLI outputs (reruns and threads)", ok)


# ---------------------------------------------------------------- 9
def test_criterion_9_spec_examples():
    failures = []
    for name, fn in ALL_CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - collect everything for the verdict
            failures.append(f"{name}: {exc!r}")
    _verdict(9, f"{len(ALL_CHECKS)} spec examples, {len(failures)} failures", not failures)
