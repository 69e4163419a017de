"""Replay's memory: a build's temporaries stay near the arrays it keeps, a pair's readers keep only what they read,
a posterior pass holds no (F, P) array, and the particle draw stays near the particles it returns.

Peaks are tracemalloc's, which sees every numpy data buffer.  The inputs
are the courtesy fixture's observed states and pair.
"""
import gc
import tracemalloc
from dataclasses import replace

import pytest

from socialplan import workflows
from socialplan.config import load_config
from socialplan.core import state_columns
from socialplan.inference import InferenceConfig, init_particles, replay_seats, window_starts
from socialplan.scenarios import fixture_scenario, write_scenario_config
from reference_builder import observed_state


@pytest.fixture(scope="module")
def courtesy(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("memory")
    template = write_scenario_config(fixture_scenario("courtesy"), tmp / "template", seed=0)
    cfg = load_config(workflows.make_fixture(template, workflows.POLICIES["courtesy"](), seed=0, out_dir=tmp / "f"))
    [(_, pair)] = workflows.observed_pairs(cfg)
    return cfg, pair


def _peak(run):
    """run()'s result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_build_of_2000_states_peaks_near_the_arrays_it_keeps(courtesy):
    """Once 3.1 times the kept arrays: the safety matrix's whole-build temporaries and the rollout's interleaved sum."""
    cfg, pair = courtesy
    scenario = cfg.load_scenario()
    frames = [observed_state(pair.ego, pair.other, k) for k in range(len(pair.ego.s))]
    x = state_columns([frames[i % len(frames)] for i in range(2000)])
    arrays, peak = _peak(lambda: scenario.arrays_at(x))
    kept = [arrays.sizes, arrays.accels, arrays.S, arrays.V, *arrays.xy, arrays.eff, arrays.com, arrays.safety,
            arrays.reward_ego, arrays.reward_other]
    assert peak < 1.5 * sum(a.nbytes for a in kept)


def test_a_pairs_readers_keep_only_what_they_read(courtesy):
    """Both seats' readers on 2,162 window starts (dt 0.0035, horizon 30): once 2.2 times their ego_xy and terms,
    when each kept the pair's whole build."""
    cfg, _ = courtesy
    fine = replace(cfg, sampler=replace(cfg.sampler, dt=0.0035))
    [(_, pair)] = workflows.observed_pairs(fine)
    scenario, starts = fine.load_scenario(), window_starts(pair.ego, fine.inference)
    tracemalloc.start()
    try:
        seats = replay_seats(pair.ego, pair.other, scenario, starts)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(starts) == 2162
    assert held < 1.25 * sum(seat.ego_xy.nbytes + seat.terms.terms.nbytes for seat in seats)


@pytest.mark.parametrize("resample", [False, True])
def test_a_posterior_pass_peaks_below_one_frames_by_particles_array(courtesy, resample):
    """Once about six (F, P) arrays: the log-likelihood rows, the weight rows twice, and one (F, P, ne) product."""
    cfg, pair = courtesy
    icfg = replace(cfg.inference, n_particles=20_000, resample=resample)
    # the build and the particle draw are not the pass's
    reader, _ = replay_seats(pair.ego, pair.other, cfg.load_scenario(), window_starts(pair.ego, icfg))
    pset = init_particles(icfg, cfg.seed)
    (stops, means, error), peak = _peak(lambda: reader.posterior_pass(icfg, pset))
    assert error is None and len(means) == len(stops) > 1
    assert peak < len(means) * icfg.n_particles * 8


def test_the_particle_draw_peaks_below_twice_the_particles_it_returns():
    """Once 6.8 times: the stratified draw's corners and points were whole (k**2, 2, 3, 3) and (k**2, 3) arrays."""
    pset, peak = _peak(lambda: init_particles(InferenceConfig(n_particles=10**6), seed=0))
    assert peak < 2 * (pset.lambdas.nbytes + pset.weights.nbytes)
