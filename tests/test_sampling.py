import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan import sampling
from socialplan.core import state_columns
from socialplan.inference import SeatReplay
from socialplan.rewards import _log_softmax, component_arrays, leader_scores
from socialplan.sampling import rollout_batch
from socialplan.scenarios import crossing_scenario
from reference_builder import scenario_space
from reference_scalar import cumulative_reward, features, trajectory
from example_checks import (
    check_rollout_from_rest,
    check_rollout_standstill,
    check_rollout_uniform,
    check_sample_acceleration_grid,
    check_sample_at_target,
    check_sample_default_count,
    fan_accels,
    one_car_build,
)


def test_spec_examples():
    check_sample_at_target()
    check_sample_acceleration_grid()
    check_sample_default_count()
    check_rollout_uniform()
    check_rollout_from_rest()
    check_rollout_standstill()


def test_dedup_after_clamping():
    path = sp.ReferencePath.from_points([(0, 0), (100, 0)], 10.0)
    # from rest, targets 10 and 12.5 both clamp to accel_max
    cfg = sp.SamplerConfig(horizon_steps=4, dt=0.25, terminal_speed_fractions=(0.0, 1.0, 1.25))
    accels = fan_accels(sp.AgentState(s=0, v=0.0), path, cfg)
    assert accels.tolist() == [0.0, 3.0]


def test_forbid_singleton():
    path = sp.ReferencePath.from_points([(0, 0), (100, 0)], 10.0)
    cfg = sp.SamplerConfig(
        horizon_steps=2, dt=0.1, terminal_speed_fractions=(1.0, 1.25), forbid_singleton=True
    )
    arrays = one_car_build(sp.AgentState(s=0, v=0.0), path, cfg)
    assert arrays.collapsed == [True]
    assert isinstance(arrays.social_terms().error[1], sp.EmptyCandidateSetError)


def _clip_then_dedup(v, limit, fractions, steps, dt, a_min, a_max):
    """The per-candidate loop: clamp each target's acceleration, skip repeats of the last kept one."""
    unique = []
    for vt in sorted(f * limit for f in fractions):
        a = min(max((vt - v) / (steps * dt), a_min), a_max)
        if not unique or a != unique[-1]:
            unique.append(a)
    return unique


@settings(max_examples=300, deadline=None)
@given(
    v=st.one_of(st.just(0.0), st.floats(0.0, 25.0)),
    limit=st.floats(0.5, 20.0),
    fractions=st.lists(
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25]), st.floats(0.0, 2.0)), min_size=1, max_size=7
    ),
    steps=st.integers(1, 30),
    dt=st.sampled_from([0.08, 0.1, 0.25]),
    a_min=st.floats(-8.0, -0.1),
    a_max=st.floats(0.1, 4.0),
    forbid=st.booleans(),
)
@example(v=0.0, limit=10.0, fractions=[1.0, 1.25], steps=2, dt=0.1, a_min=-6.0, a_max=3.0, forbid=True)
@example(v=0.0, limit=10.0, fractions=[1.0, 1.25], steps=2, dt=0.1, a_min=-6.0, a_max=3.0, forbid=False)
@example(v=25.0, limit=10.0, fractions=[0.0, 0.25, 0.5], steps=1, dt=0.08, a_min=-6.0, a_max=3.0, forbid=True)
def test_build_fans_match_clip_then_dedup(v, limit, fractions, steps, dt, a_min, a_max, forbid):
    """Each built fan holds the distinct clamped accelerations in label order; a fan of one is an error under forbid_singleton."""
    path = sp.ReferencePath.from_points([(0, 0), (100, 0)], limit)
    cfg = sp.SamplerConfig(
        horizon_steps=steps, dt=dt, terminal_speed_fractions=tuple(fractions),
        accel_min=a_min, accel_max=a_max, forbid_singleton=forbid,
    )
    expected = _clip_then_dedup(v, limit, fractions, steps, dt, a_min, a_max)
    arrays = one_car_build(sp.AgentState(s=0.0, v=v), path, cfg)
    n = arrays.sizes[0, 0]
    assert arrays.accels[0, 0, :n].tolist() == expected
    assert not arrays.accels[0, 0, n:].any()  # padding rows are zero
    collapsed = forbid and len(expected) == 1 and len(fractions) > 1
    assert arrays.collapsed == [collapsed]
    if collapsed:
        error = arrays.social_terms().error
        assert error[0] == 0 and isinstance(error[1], sp.EmptyCandidateSetError)


def fine_rollout_oracle(state, accels, dt, n_sub=2000):
    s, v = state.s, state.v
    out_s, out_v = [s], [v]
    for a in accels:
        h = dt / n_sub
        for _ in range(n_sub):
            v1 = v + a * h
            if v1 < 0.0:
                t_stop = v / -a if a < 0 else 0.0
                s += v * t_stop + 0.5 * a * t_stop * t_stop
                v = 0.0
            else:
                s += v * h + 0.5 * a * h * h
                v = v1
        out_s.append(s)
        out_v.append(v)
    return np.array(out_s), np.array(out_v)


def test_rollout_against_fine_integration():
    rng = np.random.default_rng(0)
    for _ in range(10):
        accels = rng.uniform(-6, 3, size=4)
        st = sp.AgentState(s=rng.uniform(0, 10), v=rng.uniform(0, 12))
        S, V = rollout_batch(st.s, st.v, accels, 8, 0.25)
        for a, s, v in zip(accels, S, V):
            s_ref, v_ref = fine_rollout_oracle(st, np.full(8, a), 0.25)
            assert np.allclose(s, s_ref, atol=1e-5)
            assert np.allclose(v, v_ref, atol=1e-6)


def _case_space():
    scn = crossing_scenario(dist_ego=12.0, v_ego=5.0, dist_other=20.0, v_other=6.0)
    return scn, scn.space_at(scn.initial)


def test_joint_space_cartesian_size():
    _, space = _case_space()
    assert len(space.ego_candidates) == 6 and len(space.other_candidates) == 6
    assert space.reward_ego.shape == (6, 6) and space.reward_other.shape == (6, 6)


def test_joint_space_finite():
    _, space = _case_space()
    assert np.all(np.isfinite(space.reward_ego))
    assert np.all(np.isfinite(space.reward_other))
    assert np.all(np.isfinite(space.absence_other))


def test_joint_space_symmetry_under_role_swap():
    # identical states, mirrored geometry, identical theta
    scn = crossing_scenario(dist_ego=15.0, v_ego=6.0, dist_other=15.0, v_other=6.0)
    space = scn.space_at(scn.initial)
    swapped = scn.swapped()
    space_swapped = swapped.space_at(swapped.initial)
    assert np.allclose(space_swapped.reward_ego, space.reward_other.T, atol=1e-9)
    assert np.allclose(space_swapped.reward_other, space.reward_ego.T, atol=1e-9)


def test_trajectories_satisfy_dynamics_exactly():
    scn, space = _case_space()
    dt = scn.sampler.dt
    for fan in (space.ego_candidates, space.other_candidates):
        for i in range(len(fan)):
            st = sp.AgentState(s=float(fan.s[i, 0]), v=float(fan.v[i, 0]), d=fan.d)
            for k in range(fan.s.shape[-1] - 1):
                st = sp.step_dynamics(st, float(fan.accels[i]), dt)
                assert st.s == fan.s[i, k + 1]
                assert st.v == fan.v[i, k + 1]


def test_a_build_with_a_negative_terminal_speed_stops_as_step_dynamics_does():
    """Every real row of a build's S and V is the step_dynamics chain of its constant acceleration, as bytes,
    where a negative terminal-speed fraction stops cars inside step 0, mid-horizon and in the last step."""
    sampler = sp.SamplerConfig(terminal_speed_fractions=(-0.5, 0.0, 0.25, 0.5, 0.75, 1.0))
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, sampler=sampler)
    speeds = (0.0, 0.4, 2.0, 5.0, 9.0, 12.0)
    xs = [sp.JointState(ego=sp.AgentState(10.0, v), other=sp.AgentState(15.0, w)) for v in speeds for w in speeds[::-1]]
    arrays = scn.arrays_at(state_columns(xs))
    steps, dt = sampler.horizon_steps, sampler.dt
    stops = set()
    for k in (0, 1):
        for i, x in enumerate(xs):
            for label in range(arrays.sizes[k, i]):
                state, a = (x.ego, x.other)[k], float(arrays.accels[k, i, label])
                chain = [state]
                for _ in range(steps):
                    chain.append(sp.step_dynamics(chain[-1], a, dt))
                assert arrays.S[k, i, label].tobytes() == np.array([y.s for y in chain]).tobytes()
                assert arrays.V[k, i, label].tobytes() == np.array([y.v for y in chain]).tobytes()
                stops.add(next((m for m in range(steps) if a < 0.0 and chain[m + 1].v == 0.0), None))
    assert {0, steps - 1} <= stops and stops & set(range(1, steps - 1))  # the step each stopping row stops in


def test_build_deterministic():
    scn, space1 = _case_space()
    space2 = scn.space_at(scn.initial)
    assert np.array_equal(space1.reward_ego, space2.reward_ego)
    assert np.array_equal(space1.reward_other, space2.reward_other)
    assert np.array_equal(space1.ego_candidates.accels, space2.ego_candidates.accels)


def test_matrix_cache_consistency_against_features():
    """Every cached entry equals an independent scalar recomputation."""
    scn, space = _case_space()
    cfg = scn.rewards
    for i in range(len(space.ego_candidates)):
        etraj = trajectory(space.ego_candidates, i)
        for j in range(len(space.other_candidates)):
            otraj = trajectory(space.other_candidates, j)
            r_e = cumulative_reward(
                etraj, otraj, cfg.theta_ego, scn.path_ego, scn.conflict, cfg
            )
            r_o = cumulative_reward(
                otraj, etraj, cfg.theta_other, scn.path_other, scn.conflict, cfg,
                conflict_s_self=scn.conflict.s_other, conflict_s_other=scn.conflict.s_ego,
            )
            assert abs(space.reward_ego[i, j] - r_e) < 1e-12 * max(1.0, abs(r_e))
            assert abs(space.reward_other[i, j] - r_o) < 1e-12 * max(1.0, abs(r_o))


def test_absence_excludes_safety():
    scn, space = _case_space()
    cfg = scn.rewards
    for j in range(len(space.other_candidates)):
        traj = trajectory(space.other_candidates, j)
        phi = features(traj, None, scn.path_other, None, cfg)
        expected = cfg.theta_other[0] * phi.efficiency + cfg.theta_other[1] * phi.comfort
        assert abs(space.absence_other[j] - expected) < 1e-12 * max(1.0, abs(expected))
        assert phi.safety == 0.0


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _assert_same_space(one, batched):
    for side in ("ego_candidates", "other_candidates"):
        a, b = getattr(one, side), getattr(batched, side)
        for name in ("accels", "s", "v", "xy"):
            assert _same_bits(getattr(a, name), getattr(b, name)), (side, name)
        assert (a.d, a.dt) == (b.d, b.dt)
    for name in ("reward_ego", "reward_other", "absence_other"):
        assert _same_bits(getattr(one, name), getattr(batched, name)), name
    ca, cb = one.components(), batched.components()
    for name in ("presence_logp", "egoism_raw", "egoism_norm", "courtesy", "confidence", "confidence_reward", "terms"):
        assert _same_bits(getattr(ca, name), getattr(cb, name)), name
    assert not cb.terms.flags.writeable


_agent_state = st.tuples(
    st.floats(0.0, 60.0), st.one_of(st.just(0.0), st.floats(0.0, 18.0)), st.floats(-1.5, 1.5)
)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.integers(1, 30),
    dt=st.sampled_from([0.08, 0.1, 0.25]),
    fractions=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]), min_size=1, max_size=12),
    a_min=st.floats(-8.0, -1.0),
    a_max=st.floats(0.5, 4.0),
    forbid=st.booleans(),
    limits=st.tuples(st.floats(3.0, 15.0), st.floats(3.0, 15.0)),
    states=st.lists(st.tuples(_agent_state, _agent_state), min_size=1, max_size=10),
    block=st.integers(1, 7),
)
# fan sizes (5, 6) from rest and (6, 6) at 5 m/s in one batch; at 5 m/s the
# row braking to 0 ends a hair below zero, so its last step takes the stop branch
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], a_min=-6.0, a_max=3.0, forbid=False,
    limits=(10.0, 10.0), states=[((60.0, 0.0, 0.0), (50.0, 5.0, 0.3)), ((40.0, 5.0, -0.2), (45.0, 5.0, 0.0))],
    block=1,
)
# a collapsed ego fan (every target clamps to a_min) is an error under forbid_singleton
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25], a_min=-1.0, a_max=3.0, forbid=True,
    limits=(10.0, 10.0), states=[((40.0, 5.0, 0.0), (45.0, 5.0, 0.0)), ((40.0, 18.0, 0.0), (45.0, 5.0, 0.0))],
    block=7,
)
# twelve targets, unsorted and repeated, so every fan is padded on the full grid
@example(
    steps=30, dt=0.08, fractions=[1.5, 0.0, 0.25, 0.25, 1.0, 0.5, 0.75, 1.25, 1.0, 0.0, 1.5, 0.5], a_min=-6.0,
    a_max=3.0, forbid=False, limits=(10.0, 4.0),
    states=[((60.0, 0.0, 0.0), (50.0, 5.0, 0.3)), ((40.0, 12.0, -0.2), (45.0, 2.0, 0.0))],
    block=1,
)
def test_build_joint_spaces_matches_one_state_builds(
    steps, dt, fractions, a_min, a_max, forbid, limits, states, block
):
    """The batch builder against reference_space, the one-side-at-a-time build it replaced.

    A build whose safety matrix runs block states at a time (a _BLOCK_ELEMENTS
    patched to that many states' (nt, nt, N) temporaries) gives the bytes of
    one block, in every array.
    """
    sampler = sp.SamplerConfig(
        horizon_steps=steps, dt=dt, terminal_speed_fractions=tuple(fractions),
        accel_min=a_min, accel_max=a_max, forbid_singleton=forbid,
    )
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, limit_ego=limits[0], limit_other=limits[1], sampler=sampler)
    xs = [sp.JointState(ego=sp.AgentState(*e), other=sp.AgentState(*o)) for e, o in states]
    one = scn.arrays_at(state_columns(xs))
    with patch.object(sampling, "_BLOCK_ELEMENTS", block * len(fractions) ** 2 * steps):
        blocked = scn.arrays_at(state_columns(xs))
    for name in ("sizes", "accels", "S", "V", "eff", "com", "safety", "reward_ego", "reward_other"):
        assert _same_bits(getattr(one, name), getattr(blocked, name)), name
    assert [_same_bits(a, b) for a, b in zip(one.xy, blocked.xy)] == [True, True]
    expected, error = [], None
    for x in xs:  # the reference builds in order, each then asked for its components
        try:
            space = scenario_space(scn, x)
            space.components()
        except sp.SocialPlanError as exc:
            error = exc
            break
        expected.append(space)
    if error is not None:
        with pytest.raises(type(error), match=re.escape(str(error))):
            scn.arrays_at(state_columns(xs)).spaces()
        return
    got = scn.arrays_at(state_columns(xs)).spaces()
    assert len(got) == len(xs)
    for one, batched in zip(expected, got):
        _assert_same_space(one, batched)
    _assert_same_space(expected[-1], scn.space_at(xs[-1]))


def test_build_joint_spaces_keeps_the_first_error_in_state_order():
    sampler = sp.SamplerConfig(terminal_speed_fractions=(0.0, 0.25), accel_min=-1.0, forbid_singleton=True)
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, sampler=sampler)
    ok = sp.JointState(ego=sp.AgentState(s=40.0, v=5.0), other=sp.AgentState(s=45.0, v=5.0))
    collapsed = sp.JointState(ego=sp.AgentState(s=40.0, v=18.0), other=sp.AgentState(s=45.0, v=5.0))
    assert len(scn.arrays_at(state_columns([ok, ok])).spaces()) == 2
    with pytest.raises(sp.EmptyCandidateSetError, match="collapsed to a single acceleration"):
        scn.arrays_at(state_columns([ok, collapsed, ok])).spaces()
    overflow = replace(scn, rewards=sp.RewardConfig(beta=1e308))
    with pytest.raises(sp.NonFiniteRewardError):
        overflow.space_at(ok).components()
    with pytest.raises(sp.EmptyCandidateSetError):
        overflow.arrays_at(state_columns([collapsed, ok])).spaces()
    with pytest.raises(sp.NonFiniteRewardError, match="rewards.beta"):
        overflow.arrays_at(state_columns([ok, collapsed])).spaces()


def test_non_finite_features_name_the_state_in_state_order():
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0)
    ok = sp.JointState(ego=sp.AgentState(s=40.0, v=5.0), other=sp.AgentState(s=45.0, v=5.0))
    wide = sp.JointState(ego=sp.AgentState(s=40.0, v=5.0), other=sp.AgentState(s=45.0, v=5.0, d=1e200))
    fast = sp.JointState(ego=sp.AgentState(s=40.0, v=1e200), other=sp.AgentState(s=45.0, v=5.0))
    other_named = re.escape("the other car's utility features overflow at s=45.0, v=5.0, d=1e+200")
    with pytest.raises(sp.NonFiniteRewardError, match=other_named):
        scn.arrays_at(state_columns([ok, wide, fast])).spaces()
    ego_named = re.escape("the ego car's utility features overflow at s=40.0, v=1e+200")
    with pytest.raises(sp.NonFiniteRewardError, match=ego_named):
        scn.arrays_at(state_columns([fast, wide])).spaces()
    # finite features under a huge weight still name the weight
    heavy = replace(scn, rewards=sp.RewardConfig(theta_other=(1e308, 0.5, 10.0)))
    with pytest.raises(sp.NonFiniteRewardError, match="rewards.theta_other"):
        heavy.arrays_at(state_columns([ok, fast])).spaces()
    with pytest.raises(sp.NonFiniteRewardError, match="the ego car's utility features"):
        heavy.arrays_at(state_columns([fast, ok])).spaces()


_FRACTIONS = [k / 8 for k in range(13)]  # 0.0, 0.125, ..., 1.5


@settings(max_examples=80, deadline=None)
@given(
    steps=st.integers(1, 30),
    dt=st.sampled_from([0.08, 0.1, 0.25]),
    fractions=st.lists(st.sampled_from(_FRACTIONS), min_size=1, max_size=12),
    a_min=st.floats(-8.0, -1.0),
    a_max=st.floats(0.5, 4.0),
    forbid=st.booleans(),
    limits=st.tuples(st.floats(3.0, 15.0), st.floats(3.0, 15.0)),
    thetas=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    beta=st.sampled_from([1.0, 0.5, 30.0]),
    states=st.lists(st.tuples(_agent_state, _agent_state), min_size=1, max_size=10),
)
# fans of 8 or more candidates: numpy sums 8 or more terms along a strided axis in another
# order, so the other seat's social terms must not run on its transposed matrices
@example(
    steps=30, dt=0.08, fractions=[1.5, 0.0, 0.25, 0.125, 1.0, 0.5, 0.75, 1.25, 1.0, 0.375, 0.625, 0.875],
    a_min=-8.0, a_max=4.0, forbid=False, limits=(10.0, 4.0), thetas=(1.0, 2.0), beta=1.0,
    states=[((60.0, 0.0, 0.0), (50.0, 5.0, 0.3)), ((40.0, 12.0, -0.2), (45.0, 2.0, 0.0))],
)
# a collapsed other fan: the swapped seat's own fan, an error under forbid_singleton
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25], a_min=-1.0, a_max=3.0, forbid=True, limits=(10.0, 10.0),
    thetas=(1.0, 1.0), beta=1.0, states=[((40.0, 5.0, 0.0), (45.0, 5.0, 0.0)), ((40.0, 5.0, 0.0), (45.0, 18.0, 0.0))],
)
# unequal fan sizes in one batch, (5, 6) from rest and (6, 6) at 5 m/s
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], a_min=-6.0, a_max=3.0, forbid=False,
    limits=(10.0, 7.0), thetas=(1.0, 3.0), beta=1.0,
    states=[((60.0, 0.0, 0.0), (50.0, 5.0, 0.3)), ((40.0, 5.0, -0.2), (45.0, 5.0, 0.0))],
)
def test_swapped_seat_of_a_shared_build_matches_its_own_build(
    steps, dt, fractions, a_min, a_max, forbid, limits, thetas, beta, states
):
    """The other seat, read off the ego seat's arrays, against reference_space on scenario.swapped()."""
    sampler = sp.SamplerConfig(
        horizon_steps=steps, dt=dt, terminal_speed_fractions=tuple(fractions),
        accel_min=a_min, accel_max=a_max, forbid_singleton=forbid,
    )
    rewards = sp.RewardConfig(theta_ego=(thetas[0], 0.5, 10.0), theta_other=(thetas[1], 1.5, 5.0), beta=beta)
    scn = crossing_scenario(
        20.0, 5.0, 25.0, 5.0, limit_ego=limits[0], limit_other=limits[1], sampler=sampler, rewards=rewards
    )
    swapped = scn.swapped()
    xs = [sp.JointState(ego=sp.AgentState(*e), other=sp.AgentState(*o), t=k) for k, (e, o) in enumerate(states)]
    expected, error = [], None
    for x in xs:
        try:
            space = scenario_space(swapped, x.swapped())
            space.components()
        except sp.SocialPlanError as exc:
            error = exc
            break
        expected.append(space)
    seat = scn.arrays_at(state_columns(xs)).swapped(swapped.rewards)
    if error is not None:
        with pytest.raises(type(error), match=re.escape(str(error))):
            seat.spaces()
        return
    got = seat.spaces()
    assert len(got) == len(xs)
    for one, shared in zip(expected, got):
        _assert_same_space(one, shared)
        assert shared.reward_cfg == swapped.rewards


def test_swapped_seat_names_its_own_car_and_weight():
    """Overflows name the car and the weight in the swapped seat's own terms, as its own build does."""
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0)
    ok = sp.JointState(ego=sp.AgentState(s=40.0, v=5.0), other=sp.AgentState(s=45.0, v=5.0))
    wide = sp.JointState(ego=sp.AgentState(s=40.0, v=5.0), other=sp.AgentState(s=45.0, v=5.0, d=1e200))
    heavy = replace(scn, rewards=sp.RewardConfig(theta_ego=(1e308, 0.5, 10.0)))
    for source, xs, named in (
        (scn, [ok, wide], "the ego car's utility features overflow at s=45.0, v=5.0, d=1e+200"),
        (heavy, [ok], "rewards.theta_other = [1e+308, 0.5, 10.0]"),
    ):
        swapped = source.swapped()
        with pytest.raises(sp.NonFiniteRewardError, match=re.escape(named)):
            swapped.arrays_at(state_columns([x.swapped() for x in xs])).spaces()
        with pytest.raises(sp.NonFiniteRewardError, match=re.escape(named)):
            source.arrays_at(state_columns(xs)).swapped(swapped.rewards).spaces()


@settings(max_examples=60, deadline=None)
@given(
    steps=st.integers(1, 30),
    dt=st.sampled_from([0.08, 0.25]),
    fractions=st.lists(st.sampled_from(_FRACTIONS), min_size=1, max_size=12),
    a_min=st.floats(-8.0, -0.5),
    a_max=st.floats(0.5, 4.0),
    limits=st.tuples(st.floats(3.0, 15.0), st.floats(3.0, 15.0)),
    other_speeds=st.tuples(st.floats(0.0, 18.0), st.floats(0.0, 18.0)),
    states=st.lists(st.tuples(_agent_state, st.floats(0.0, 60.0), st.booleans()), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
# ego fans of 6, 4, 1 and 4 candidates under one follower fan of 6
@example(
    steps=12, dt=0.25, fractions=[0.0, 0.25, 0.5, 0.75, 1.0, 1.25], a_min=-1.0, a_max=3.0, limits=(10.0, 10.0),
    other_speeds=(5.0, 5.0),
    states=[((40.0, 5.0, 0.0), 45.0, False), ((40.0, 8.0, 0.2), 30.0, False), ((35.0, 18.0, 0.0), 45.0, False),
            ((40.0, 8.0, 0.0), 45.0, False)],
    seed=0,
)
# twelve targets: ego fans of 11, 8 and 4 under one follower fan of 11, and a follower fan of 4
@example(
    steps=30, dt=0.08, fractions=_FRACTIONS[:12], a_min=-3.0, a_max=3.0, limits=(8.0, 8.0),
    other_speeds=(2.0, 16.0),
    states=[((40.0, 2.0, 0.0), 45.0, False), ((40.0, 12.0, 0.2), 30.0, False), ((35.0, 16.0, 0.0), 45.0, False),
            ((20.0, 2.0, 0.0), 50.0, True)],
    seed=1,
)
def test_social_terms_on_a_padded_ego_axis_match_each_state_alone(
    steps, dt, fractions, a_min, a_max, limits, other_speeds, states, seed
):
    """Both seats' decisions, log-likelihoods and spaces() against component_arrays on each state alone, as bytes.

    social_terms groups states by the follower's fan size alone, pads the
    ego axis to the group's largest ego fan and puts each state's terms
    back in its row of SeatTerms.terms, zeros after its ego fan;
    states[i] = (ego state, other s, which of other_speeds), so that ego
    fans of several sizes share one follower fan.
    """
    sampler = sp.SamplerConfig(
        horizon_steps=steps, dt=dt, terminal_speed_fractions=tuple(fractions), accel_min=a_min, accel_max=a_max
    )
    scn = crossing_scenario(20.0, 5.0, 25.0, 5.0, limit_ego=limits[0], limit_other=limits[1], sampler=sampler)
    xs = [
        sp.JointState(ego=sp.AgentState(*e), other=sp.AgentState(s, other_speeds[k]), t=i)
        for i, (e, s, k) in enumerate(states)
    ]
    swapped = scn.swapped()
    arrays = scn.arrays_at(state_columns(xs))
    rng = np.random.default_rng(seed)
    n = len(xs)
    for seat in (arrays, arrays.swapped(swapped.rewards)):
        terms = seat.social_terms()
        assert terms.error is None
        lams = rng.dirichlet(np.ones(3), size=(2, n))
        lambdas = rng.dirichlet(np.ones(3), size=40)
        labels = [int(rng.integers(ne)) for ne in seat.sizes[0].tolist()]
        loglik = SeatReplay(None, list(range(n)), terms, seat.xy[0]).log_likelihoods(lambdas, range(n), labels)
        batched = terms.leader_labels(range(n), lams.transpose(2, 0, 1))
        for i, space in enumerate(seat.spaces()):
            ne, no = seat.sizes[:, i].tolist()
            own = component_arrays(
                *(np.ascontiguousarray(m[i, :ne, :no])[None] for m in (seat.reward_ego, seat.reward_other)),
                terms.absence_other[i, :no][None],
                seat.reward_cfg.beta,
            )
            comps = space.components()
            assert terms.terms[i, :, :ne].tobytes() == own.terms[0].tobytes() and not terms.terms[i, :, ne:].any()
            for name, value in vars(own).items():
                assert getattr(comps, name).tobytes() == value[0].tobytes(), name
            for lam in lams[:, i]:
                assert terms.leader_labels([i], lam[:, None]).tolist() == [int(leader_scores(lam, own.terms[0]).argmax())]
            assert batched[:, i].tolist() == [int(leader_scores(lam, own.terms[0]).argmax()) for lam in lams[:, i]]
            assert loglik[i].tobytes() == _log_softmax(lambdas @ own.terms[0])[:, labels[i]].tobytes()
