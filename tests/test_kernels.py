from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import socialplan as sp
from socialplan import sampling
from socialplan.inference import SeatReplay
from socialplan.rewards import _log_softmax
from reference_builder import reference_safety_matrix


def _random_inputs(rng, n=7, steps=12):
    accels = rng.uniform(-6, 3, size=(n, steps))
    s0, v0 = rng.uniform(0, 40), rng.uniform(0, 12)
    return s0, v0, accels


def _assert_matches_step_dynamics(s0, v0, accels, dt):
    S, V = sampling.rollout_batch(s0, v0, accels, dt)
    assert S.shape == V.shape == (accels.shape[0], accels.shape[1] + 1)
    for i in range(accels.shape[0]):
        state = sp.AgentState(s=s0, v=v0)
        assert S[i, 0] == s0 and V[i, 0] == v0
        for k, a in enumerate(accels[i]):
            state = sp.step_dynamics(state, float(a), dt)
            assert state.s == S[i, k + 1] and state.v == V[i, k + 1]


def test_rollout_matches_scalar_dynamics_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        s0, v0, accels = _random_inputs(rng)
        _assert_matches_step_dynamics(s0, v0, accels, 0.25)


_accel = st.floats(-8.0, 4.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    s0=st.floats(0.0, 100.0, allow_nan=False),
    v0=st.one_of(st.just(0.0), st.floats(0.0, 20.0, allow_nan=False)),
    dt=st.floats(0.01, 0.5, allow_nan=False),
    rows=st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_accel, min_size=n, max_size=n), min_size=1, max_size=6)
    ),
)
@example(s0=5.0, v0=1.0, dt=0.25, rows=[[-8.0, 2.0], [-4.0, -4.0]])  # stops inside step 0
@example(s0=0.0, v0=0.0, dt=0.1, rows=[[-1.0, 0.0, 3.0]])  # at rest, then pulls away
# the first row stops in the last step, the second inside step 1
@example(s0=5.0, v0=1.0, dt=0.25, rows=[[-1.0, -1.0, -1.0, -2.0], [-1.0, -8.0, -1.0, -1.0]])
# stops in step 0, pulls away, and stops again in the last step: the step-by-step rows, not the last column
@example(s0=5.0, v0=1.0, dt=0.25, rows=[[-8.0, 4.0, -20.0], [-1.0, -1.0, -8.0]])
def test_rollout_bit_exact_property(s0, v0, dt, rows):
    _assert_matches_step_dynamics(s0, v0, np.array(rows), dt)


def test_safety_matrix_reference_value():
    # one pair co-located at the conflict point every step: each step contributes -1
    steps = 6
    xy = np.zeros((1, steps + 1, 2))
    s = np.full((1, steps + 1), 12.0)
    m = sampling.safety_matrix(xy, xy, s, s, 12.0, 12.0, 5.0, 10.0)
    assert abs(m[0, 0] + steps) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    batch=st.lists(st.integers(1, 3), max_size=2),
    ne=st.integers(1, 6),
    no=st.integers(1, 6),
    n=st.integers(1, 30),
    sigma_d=st.floats(0.1, 20.0),
    sigma_c=st.floats(0.1, 20.0),
    conflict=st.tuples(st.floats(0.0, 60.0), st.floats(0.0, 60.0)),
    seed=st.integers(0, 2**32 - 1),
    block=st.one_of(st.none(), st.integers(1, 7)),
)
@example(batch=[2, 3], ne=4, no=2, n=30, sigma_d=5.0, sigma_c=10.0, conflict=(12.0, 30.0), seed=0, block=None)
@example(batch=[], ne=1, no=6, n=1, sigma_d=0.1, sigma_c=20.0, conflict=(0.0, 60.0), seed=1, block=None)
# four blocks of two states and a last block of one
@example(batch=[3, 3], ne=6, no=6, n=12, sigma_d=5.0, sigma_c=10.0, conflict=(12.0, 30.0), seed=2, block=2)
def test_safety_matrix_matches_the_reference_bit_for_bit(batch, ne, no, n, sigma_d, sigma_c, conflict, seed, block):
    """The in-place safety_matrix gives the bytes of the one-expression reference, over leading batch axes.

    block, if set, is the number of states (leading entries) a block holds,
    through a _BLOCK_ELEMENTS of that many states' (ne, no, N) temporaries.
    """
    rng = np.random.default_rng(seed)
    lead = tuple(batch)
    xy_ego, xy_other = (rng.uniform(-20.0, 20.0, lead + (m, n + 1, 2)) for m in (ne, no))
    s_ego, s_other = (rng.uniform(0.0, 60.0, lead + (m, n + 1)) for m in (ne, no))
    args = (xy_ego, xy_other, s_ego, s_other, *conflict, sigma_d, sigma_c)
    with patch.object(sampling, "_BLOCK_ELEMENTS", block * ne * no * n if block else sampling._BLOCK_ELEMENTS):
        got = sampling.safety_matrix(*args)
    assert got.shape == lead + (ne, no)
    assert got.tobytes() == reference_safety_matrix(*args).tobytes()


def _terms(rng, states: int, ne: int, ties: bool) -> np.ndarray:
    """Social terms (states, 3, ne) in their ranges: egoism [0, 1], courtesy (0, 1], confidence reward [1, e].

    With ties, the values come from a coarse grid, so that candidates tie.
    """
    raw = rng.integers(0, 4, (states, 3, ne)) / 3 if ties else rng.random((states, 3, ne))
    raw[:, 1] = np.maximum(raw[:, 1], 1e-3)
    raw[:, 2] = np.exp(raw[:, 2])
    return raw


@settings(max_examples=150, deadline=None)
@given(
    states=st.lists(st.integers(1, 12), min_size=1, max_size=12),
    n_particles=st.integers(2, 300),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=30),
    ties=st.booleans(),
    block_elements=st.one_of(st.just(sampling._BLOCK_ELEMENTS), st.integers(1, 20_000)),
    seed=st.integers(0, 2**32 - 1),
)
# every entry the same state, as under growing_window, at numpy's pairwise threshold of 8 terms
@example(states=[8], n_particles=300, picks=[0] * 30, ties=False, block_elements=1 << 22, seed=0)
@example(states=[7, 12, 12, 7, 7], n_particles=101, picks=list(range(20)), ties=True, block_elements=1 << 22, seed=1)
# ego fans of 12, 5 and 3 candidates, one state per slice
@example(states=[12, 5, 12, 3, 3], n_particles=50, picks=list(range(0, 40, 3)), ties=False, block_elements=1, seed=2)
def test_log_likelihoods_match_the_per_frame_log_softmax(states, n_particles, picks, ties, block_elements, seed):
    """SeatReplay.log_likelihoods against _log_softmax(lambdas @ terms)[:, label] per entry, as bytes.

    states[i] is the ego fan size of state i; the terms are padded with NaN
    to the largest one, where social_terms pads them with zeros, so that a
    padding column that reached a product would show.  picks choose the
    entries (sorted, with repeats) and their labels.  block_elements bounds
    the (G, P, ne) array, so that the states run in slices of one or more.
    """
    rng = np.random.default_rng(seed)
    per_state = [_terms(rng, 1, ne, ties)[0] for ne in states]
    terms = np.full((len(states), 3, max(states)), np.nan)
    for i, ne in enumerate(states):
        terms[i, :, :ne] = per_state[i]
    ne = np.array(states)
    seat_terms = sampling.SeatTerms(absence_other=None, terms=terms, ne=ne, error=None)
    lambdas = rng.dirichlet(np.ones(3), size=n_particles)
    entries = sorted(p % len(states) for p in picks)
    labels = [p % ne[i] for p, i in zip(picks, entries)]
    with patch.object(sampling, "_BLOCK_ELEMENTS", block_elements):
        got = SeatReplay.log_likelihoods(SimpleNamespace(terms=seat_terms), lambdas, entries, labels)
    assert got.shape == (len(entries), n_particles)
    for row, i, label in zip(got, entries, labels):
        assert row.tobytes() == _log_softmax(lambdas @ per_state[i])[:, label].tobytes()
