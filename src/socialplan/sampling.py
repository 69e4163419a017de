"""Candidate action sampling and joint behavior space construction.

Each agent's candidate set is a fan of constant-acceleration profiles toward
a grid of terminal speeds (fractions of the path speed limit).  A fan is
held as arrays with one row per candidate; the row index is the candidate's
label, and a candidate is one number, its acceleration, which is also its
first control (rollout_batch rolls it out).  Pairing the two fans yields the
discrete joint behavior space; both agents' utilities are cached as
|ego| x |other| matrices at build time so every downstream reward term
reduces to row/column operations.

build_joint_arrays is the one builder.  It samples every fan with
fan_accels, which the closed loop also calls to predict the states its
lookahead chains reach, one call per chain level for every policy
(planner.simulate_policies).  It puts both sides of every state on the full
target grid, padding each fan to the number of terminal speeds, and runs
rollout, path position, utility vectors, safety and the weighted sums once
over that grid.  Every kernel reduces over the last axis only, so each row
and pair gives the same bits as on its own.  The rollout keeps C columns,
N <= C <= N+1, as many as the caller reads: the features read the first N,
the closed loop nothing more, and replay the widest window or regeneration
horizon it matches, up to N+1.  Running sums add left to right and the stop
rule rewrites a row only from the step it stops in, so a build's first C
columns, and every feature and matrix, have the bits of any wider one.  Then
JointArrays.social_terms() checks every state and returns one seat's social
terms, a SeatTerms: one (states, 3, targets) array, computed once per group
of states with equal follower fan sizes (the ego axis padded to the group's
largest fan) and put back in state order.  Its leader_labels is the one
leader decision, at many states at once, which the closed loop
(planner.decisions) and regeneration read.  No pipeline assembles per-state
spaces (JointBehaviorSpace); JointArrays.spaces() and its one-state case
build_joint_space stay only for the benchmark's span tracing (see the
comment above JointBehaviorSpace).
Replay serves the other driver's seat from the same pass (swapped()): the
ego seat's arrays with the sides swapped and the matrices transposed, plus
its own absence row and social terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConflictPoint, JointState, ReferencePath, state_columns
from .errors import EmptyCandidateSetError, NonFiniteRewardError, SocialPlanError
from .rewards import RewardConfig, SocialComponents, beta_error, component_arrays, leader_scores, social_components


@dataclass(frozen=True)
class SamplerConfig:
    """Spatial-temporal sampling knobs (JSON fields match attribute names)."""

    horizon_steps: int = 12
    dt: float = 0.25
    terminal_speed_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
    accel_min: float = -6.0
    accel_max: float = 3.0
    forbid_singleton: bool = False

    def __post_init__(self):
        if self.horizon_steps < 1:
            raise ValueError("horizon_steps must be >= 1")
        if not self.dt > 0.0:  # NaN fails the comparisons here
            raise ValueError("dt must be positive")
        if len(self.terminal_speed_fractions) == 0:
            raise ValueError("terminal_speed_fractions must be non-empty")
        if not self.accel_min < self.accel_max:
            raise ValueError("accel_min must be below accel_max")


def _accel_grid(v, speed_limit, cfg: SamplerConfig) -> np.ndarray:
    """Clamped constant accelerations (..., n_targets) from speeds v (...).

    a = (v_target - v) / (N dt) toward each terminal speed, ascending, then
    clamped to the acceleration bounds, so equal values are adjacent.
    speed_limit broadcasts against v.  An overflow (subnormal dt) saturates.
    """
    targets = np.asarray(cfg.terminal_speed_fractions, dtype=float) * np.asarray(speed_limit)[..., None]
    targets.sort(kind="stable")
    horizon = cfg.horizon_steps * cfg.dt
    with np.errstate(over="ignore"):
        accels = (targets - np.asarray(v, dtype=float)[..., None]) / horizon
    return np.minimum(np.maximum(accels, cfg.accel_min), cfg.accel_max)  # np.clip, without its wrapper cost


def _first_of_runs(grid: np.ndarray) -> np.ndarray:
    """Mask of the entries that keep the first of each run of equal values along the last axis."""
    keep = np.empty(grid.shape, dtype=bool)
    keep[..., 0] = True
    np.not_equal(grid[..., 1:], grid[..., :-1], out=keep[..., 1:])
    return keep


def _forbids_singleton(grid: np.ndarray, cfg: SamplerConfig) -> bool:
    """Whether a fan of one distinct acceleration out of grid's targets is an error."""
    return cfg.forbid_singleton and grid.shape[-1] > 1


def fan_accels(v, speed_limit, cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each row's candidate fan on the full target grid: (accels (..., nt), sizes (...)) from speeds v (...).

    A row holds its distinct clamped accelerations first, in order, and 0.0
    after them; its size counts them, and the index of an acceleration is
    its candidate label.  Every value comes from elementwise operations on
    its own row, so a row has the same bits in any batch.  build_joint_arrays
    samples every state's fans here, and the closed loop its predicted states.
    """
    grid = _accel_grid(v, speed_limit, cfg)
    keep = _first_of_runs(grid)
    sizes = keep.sum(axis=-1)
    real = np.arange(grid.shape[-1]) < sizes[..., None]  # a row's first `size` entries are its candidates
    accels = np.zeros(grid.shape)
    accels[real] = grid[keep]  # both masks run row by row, so each row gets its own values, in order
    return accels, sizes


_COLLAPSED = "all candidates collapsed to a single acceleration"


# The per-space layer (CandidateFan, JointBehaviorSpace, JointArrays.spaces,
# build_joint_space and the social_components import) stays only because
# perfbench/tracing.py wraps JointBehaviorSpace.components,
# sampling.social_components and planner.build_joint_space; no pipeline calls it.
@dataclass(frozen=True)
class CandidateFan:
    """One side's candidates as arrays; row i is the candidate labeled i.

    accels: (n,), each candidate's constant acceleration; s, v: (n, C);
    xy: (n, C, 2) at lateral offset d, C rollout columns (build_joint_arrays).
    """

    accels: np.ndarray
    s: np.ndarray
    v: np.ndarray
    xy: np.ndarray
    d: float
    dt: float

    def __len__(self) -> int:
        return len(self.accels)


@dataclass
class JointBehaviorSpace:
    """Discrete joint behavior space with cached utility matrices.

    reward_ego[i, j] and reward_other[i, j] are the Eq.-style accumulated
    utilities of the pair (ego candidate i, other candidate j);
    absence_other[j] is the other car's efficiency+comfort utility with the
    ego car removed.  Making a space checks the matrices under the weights;
    components() computes the social terms on first use and caches them.
    """

    ego_candidates: CandidateFan
    other_candidates: CandidateFan
    reward_ego: np.ndarray
    reward_other: np.ndarray
    absence_other: np.ndarray
    reward_cfg: RewardConfig
    _components: SocialComponents | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ne, no = len(self.ego_candidates), len(self.other_candidates)
        if ne == 0 or no == 0:
            raise EmptyCandidateSetError("joint space needs candidates on both sides")
        if self.reward_ego.shape != (ne, no) or self.reward_other.shape != (ne, no):
            raise ValueError("reward matrix shape does not match candidate counts")
        error = _weight_error(self.reward_cfg, self.reward_ego, self.reward_other, self.absence_other)
        if error is not None:
            raise error

    def components(self) -> SocialComponents:
        """The social reward terms at the configured beta, computed once."""
        if self._components is None:
            self._components = social_components(self)
        return self._components


def rollout_batch(s0, v0, accels: np.ndarray, steps: int, dt: float):
    """Roll out constant accelerations accels (..., n) over steps steps, row by row from s0, v0.

    s0 and v0 broadcast to accels.shape.  Returns (S, V), each a contiguous
    (..., n, steps+1) array; build_joint_arrays asks for C - 1 steps, C its
    rollout columns.  Both are running sums along the step axis
    (np.add.accumulate adds left to right, here in place) that repeat the
    float operations of core.step_dynamics in its order:

        V over [v0, a*dt, a*dt, ...]                    v' = v + a*dt
        S over [s0, v0*dt, 0.5*a*dt*dt, v1*dt, ...]     s' = s + v*dt + 0.5*a*dt*dt

    so the result matches it bit for bit; a closed form or a hoisted
    0.5*dt*dt would round differently.  S is copied out of its interleaved
    running sum, so that the (..., 2*steps+1) array dies here.  A row whose
    speed goes negative (a < 0) keeps it negative from then on, so the last
    column finds every row that stops.  For those rows step_dynamics' stop
    branch runs at the step the car stops in: t = -v / a, s + v*t + 0.5*a*t*t
    and v = 0.  From a stop, every later step gives the same s again and
    v = 0, so S holds that value and V holds 0.0 after it.  Neither the sums
    nor the stop rule read a later column, so a shorter rollout gives the
    first columns of a longer one, bit for bit; a row that stops only after
    the last column is not rewritten.
    """
    accels = np.asarray(accels, dtype=float)
    V = np.empty(accels.shape + (steps + 1,))
    V[..., 0] = v0
    np.multiply(accels[..., None], dt, out=V[..., 1:])
    np.add.accumulate(V, axis=-1, out=V)
    ds = np.empty(accels.shape + (2 * steps + 1,))
    ds[..., 0] = s0
    np.multiply(V[..., :-1], dt, out=ds[..., 1::2])
    ds[..., 2::2] = (0.5 * accels * dt * dt)[..., None]  # ((0.5*a)*dt)*dt, the order of 0.5*a*dt*dt
    np.add.accumulate(ds, axis=-1, out=ds)
    S = ds[..., ::2].copy()
    del ds

    stop = V[..., -1] < 0.0
    if stop.any():
        a, s, v = accels[stop][:, None], S[stop], V[stop]
        after = v < 0.0  # the steps after the stop
        j = after.argmax(axis=-1)[:, None] - 1  # the step the car stops in
        vj = np.take_along_axis(v, j, axis=-1)
        t = -vj / a
        S[stop] = np.where(after, np.take_along_axis(s, j, axis=-1) + vj * t + 0.5 * a * t * t, s)
        V[stop] = np.where(after, 0.0, v)
    return S, V


_BLOCK_ELEMENTS = 1 << 14  # float64 elements (128 KiB) of one block of block_slices


def block_slices(n: int, per_item: int):
    """Slices of range(n), in order, of max(1, _BLOCK_ELEMENTS // per_item) items each (the last may be short).

    The one blocking rule: a block holds at most _BLOCK_ELEMENTS elements, or one item's (read at the call).
    """
    step = max(1, _BLOCK_ELEMENTS // per_item)
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def safety_matrix(
    xy_ego: np.ndarray,
    xy_other: np.ndarray,
    s_ego: np.ndarray,
    s_other: np.ndarray,
    s_conflict_ego: float,
    s_conflict_other: float,
    sigma_d: float,
    sigma_c: float,
) -> np.ndarray:
    """Accumulated pairwise proximity penalty over the columns given.

    xy_ego: (F, ne, T, 2), xy_other: (F, no, T, 2), s_ego: (F, ne, T),
    s_other: (F, no, T), over the same F states.  Entry [f, i, j] is

        -sum_t exp(-|p_e - p_o| / sigma_d)
              * exp(-(|s_e - s_ce| + |s_o - s_co|) / sigma_c)

    summed over the T columns t = 0..T-1; build_joint_arrays passes the
    first N, steps 0..N-1.  The states run in blocks (block_slices),
    so each (G, ne, no, N) temporary holds at most _BLOCK_ELEMENTS floats,
    or one state's (the xy difference twice that).  A closed-loop build of
    the three default policies holds up to 15 states, each policy's own and
    its planner._LOOKAHEAD predicted ones; with six targets a block holds 37
    states at horizon 12 and 15 at horizon 30, so such a build is one block.
    Every reduction runs over the last axis: a state keeps its bits alone.
    """
    ne, no, t = xy_ego.shape[1], xy_other.shape[1], xy_ego.shape[2]
    # x / -sigma is the float -x / sigma, so the factors keep the bits of
    # exp(-|s - s_c| / sigma_c) and exp(-sqrt(sum diff**2) / sigma_d), multiplied in that order
    prox_e, prox_o = s_ego - s_conflict_ego, s_other - s_conflict_other
    for prox in (prox_e, prox_o):
        np.abs(prox, out=prox)
        prox /= -sigma_c
        np.exp(prox, out=prox)
    out = np.empty((len(xy_ego), ne, no))
    for block in block_slices(len(out), ne * no * t):
        diff = xy_ego[block, :, None] - xy_other[block, None]
        # in place; the two-slice sum is the one addition that sum(axis=-1) makes over two entries,
        # without its per-element loop
        diff *= diff
        w = diff[..., 0] + diff[..., 1]
        del diff
        np.sqrt(w, out=w)
        w /= -sigma_d
        np.exp(w, out=w)
        w *= prox_e[block, :, None] * prox_o[block, None]
        w.sum(axis=-1, out=out[block])
    np.negative(out, out=out)
    return out


def _lateral(d: float, n: int, d0: float) -> float:
    """The efficiency feature's lateral term n * (d/d0)**2 in Python floats; inf where it overflows.

    float ** 2 and numpy's square round differently for about 1 value in 1000.
    """
    try:
        return n * (d / d0) ** 2
    except OverflowError:
        return math.inf


def _weight_error(reward_cfg: RewardConfig, reward_ego, reward_other, absence_other) -> NonFiniteRewardError | None:
    """The error for utility matrices of one space that are not all finite, else None.

    With finite features a huge finite weight overflows, so the error names
    the weight: theta_ego when reward_ego overflows, else theta_other.
    """
    finite_ego = np.isfinite(reward_ego).all()
    if finite_ego and np.isfinite(reward_other).all() and np.isfinite(absence_other).all():
        return None
    name = "theta_other" if finite_ego else "theta_ego"
    theta = list(getattr(reward_cfg, name))
    return NonFiniteRewardError(f"rewards.{name} = {theta!r} overflows the utility matrices; use smaller weights")


def _feature_error(x: list, paths, eff, com, safety, sizes) -> NonFiniteRewardError | None:
    """The error for one state whose real candidates have a non-finite feature, else None.

    x: [s, v, d] per car, in Python floats; eff, com: (side, nt); safety: (nt, nt); sizes: (side,) fan sizes.
    """
    for k, (side, (s, v, d)) in enumerate(zip(("ego", "other"), x)):
        n = sizes[k]
        if not (np.isfinite(eff[k, :n]).all() and np.isfinite(com[k, :n]).all()):
            return NonFiniteRewardError(
                f"the {side} car's utility features overflow at s={s!r}, v={v!r}, d={d!r} "
                f"with path speed_limit={paths[k].speed_limit!r}; use smaller state values or a larger speed limit"
            )
    if not np.isfinite(safety[: sizes[0], : sizes[1]]).all():
        return NonFiniteRewardError(
            f"the safety feature overflows at ego s={x[0][0]!r}, other s={x[1][0]!r}; use smaller state values"
        )
    return None


@dataclass(frozen=True, eq=False)
class SeatTerms:
    """One seat's social terms over a build_joint_arrays pass (JointArrays.social_terms), and its leader decisions.

    terms[i] holds state i's terms (egoism, courtesy, confidence reward)
    in its first ne[i] columns, ne[i] being its ego fan size, and zeros
    after them.
    """

    absence_other: np.ndarray  # (F, nt)
    terms: np.ndarray  # (F, 3, nt), read-only
    ne: np.ndarray  # (F,)
    error: tuple[int, SocialPlanError] | None  # (i, its error) for the first failing state i; the ones before are sound

    @property
    def sound(self) -> int:
        """How many states, from the first, are sound: the first failing state's index, else all of them."""
        return len(self.ne) if self.error is None else self.error[0]

    def leader_labels(self, entries, lams: np.ndarray) -> np.ndarray:
        """The leader's label at each entry i under its weights: (..., len(entries)) from lams (3, ..., len(entries)).

        The argmax of the entry's leader_scores over its ego candidates,
        ties to the lowest label; one leader_scores pass with the padding
        columns masked.  Every entry must be sound.
        """
        scores = leader_scores(lams[..., None], self.terms[entries].swapaxes(0, 1))  # (..., n, nt)
        np.copyto(scores, -np.inf, where=np.arange(scores.shape[-1]) >= self.ne[entries, None])
        return scores.argmax(axis=-1)


@dataclass(frozen=True, eq=False)
class JointArrays:
    """One seat's view of a build_joint_arrays pass over F states.

    The side axis runs (this seat's car, the other car), and the matrices'
    target axes in the same order.  swapped() is the other driver's seat, as
    views of the same arrays.
    """

    states: np.ndarray  # (3, side, F) each state's (s, v, d) per car, build_joint_arrays' input
    paths: tuple[ReferencePath, ReferencePath]
    reward_cfg: RewardConfig
    dt: float
    collapsed: list[bool]  # per state: a fan collapsed under forbid_singleton
    sizes: np.ndarray  # (side, F) fan sizes
    accels: np.ndarray  # (side, F, nt) each candidate's constant acceleration, its first control
    S: np.ndarray  # (side, F, nt, C), C the build's rollout columns
    V: np.ndarray  # (side, F, nt, C)
    xy: list[np.ndarray]  # per side (F, nt, C, 2)
    eff: np.ndarray  # (side, F, nt)
    com: np.ndarray  # (side, F, nt)
    safety: np.ndarray  # (F, nt, nt)
    reward_ego: np.ndarray  # (F, nt, nt)
    reward_other: np.ndarray  # (F, nt, nt)

    def swapped(self, reward_cfg: RewardConfig) -> "JointArrays":
        """The other driver's seat, with its reward config (as Scenario.swapped() has it).

        Its arrays are the ones build_joint_arrays gives for the swapped
        states under the swapped scenario, bit for bit: the sides swap, the
        safety feature is symmetric in the pair and transposes, and so do
        the reward matrices, each side's weighted sum trading places.
        """
        return JointArrays(
            states=self.states[:, ::-1],
            paths=self.paths[::-1],
            reward_cfg=reward_cfg,
            dt=self.dt,
            collapsed=self.collapsed,
            sizes=self.sizes[::-1],
            accels=self.accels[::-1],
            S=self.S[::-1],
            V=self.V[::-1],
            xy=self.xy[::-1],
            eff=self.eff[::-1],
            com=self.com[::-1],
            safety=self.safety.transpose(0, 2, 1),
            reward_ego=self.reward_other.transpose(0, 2, 1),
            reward_other=self.reward_ego.transpose(0, 2, 1),
        )

    def social_terms(self) -> SeatTerms:
        """The seat's social terms, with the first failing state's error in state order.

        The social components run once per group of states with equal
        follower fan sizes, on their candidates, the ego axis padded to the
        group's largest ego fan: every sum runs over the follower's
        candidates, so a real row's terms keep their bits.  Each state's
        real rows then go back to its place in SeatTerms.terms.  A state
        fails on, in this order: a collapsed fan under forbid_singleton, a
        non-finite feature (naming the state and path values), finite
        features that overflow under the weights (naming the weight), and
        social terms that overflow under beta.  Nothing here raises; the
        caller reads SeatTerms.error.
        """
        cfg = self.reward_cfg
        to = cfg.theta_other
        with np.errstate(over="ignore", invalid="ignore"):  # reported per state below
            absence_other = to[0] * self.eff[1] + to[1] * self.com[1]

        terms = np.zeros((self.states.shape[-1], 3, self.reward_ego.shape[-1]))
        finite_terms = np.empty(self.states.shape[-1], dtype=bool)
        for no in set(self.sizes[1].tolist()):
            states = (self.sizes[1] == no).nonzero()[0]
            sizes = self.sizes[0, states]
            real = np.arange(sizes.max()) < sizes[:, None]  # (G, ne) the real ego rows
            # contiguous, as the other seat's matrices are transposed views: numpy sums
            # 8 or more terms along a strided axis in another order than along a contiguous one
            ne = real.shape[1]
            matrices = (np.ascontiguousarray(m[states, :ne, :no]) for m in (self.reward_ego, self.reward_other))
            comps = component_arrays(*matrices, absence_other[states, :no], cfg.beta, real)
            finite_terms[states] = np.isfinite(comps.terms).all(axis=(-2, -1), where=real[:, None, :])
            terms[states, :, :ne] = np.where(real[:, None, :], comps.terms, 0.0)
        terms.flags.writeable = False
        error = self._check(absence_other, finite_terms)
        return SeatTerms(absence_other=absence_other, terms=terms, ne=self.sizes[0], error=error)

    def _check(self, absence_other: np.ndarray, finite_terms: np.ndarray) -> tuple[int, SocialPlanError] | None:
        """(i, error) for the first failing state i (see social_terms), else None; one pass when none fails."""
        matrices = (self.reward_ego, self.reward_other, absence_other)
        finite = all(np.isfinite(m).all() for m in matrices)  # padding included: no state can fail on these
        if finite and finite_terms.all() and not any(self.collapsed):
            return None
        for i, (x, (ne, no)) in enumerate(zip(self.states.T.tolist(), self.sizes.T.tolist())):
            if self.collapsed[i]:
                return i, EmptyCandidateSetError(_COLLAPSED)
            if not finite:
                weights = _weight_error(
                    self.reward_cfg, self.reward_ego[i, :ne, :no], self.reward_other[i, :ne, :no], absence_other[i, :no]
                )
                if weights is not None:  # a non-finite feature, or finite ones that overflow under the weights
                    features = _feature_error(x, self.paths, self.eff[:, i], self.com[:, i], self.safety[i], (ne, no))
                    return i, features or weights
            if not finite_terms[i]:
                return i, beta_error(self.reward_cfg.beta)
        return None

    def spaces(self) -> list[JointBehaviorSpace]:
        """The joint behavior space at each state; raises the first failing state's error.

        Each space holds contiguous copies of its state's matrices, so the
        components it computes on demand have the bits of social_terms.
        """
        terms = self.social_terms()
        if terms.error is not None:
            raise terms.error[1]
        spaces = []
        for i, (d, (ne, no)) in enumerate(zip(self.states[2].T.tolist(), self.sizes.T.tolist())):
            fans = [
                CandidateFan(
                    accels=self.accels[k, i, :m], s=self.S[k, i, :m], v=self.V[k, i, :m], xy=self.xy[k][i, :m],
                    d=d[k], dt=self.dt,
                )
                for k, m in enumerate((ne, no))
            ]
            space = JointBehaviorSpace(
                ego_candidates=fans[0],
                other_candidates=fans[1],
                reward_ego=np.ascontiguousarray(self.reward_ego[i, :ne, :no]),
                reward_other=np.ascontiguousarray(self.reward_other[i, :ne, :no]),
                absence_other=terms.absence_other[i, :no],
                reward_cfg=self.reward_cfg,
            )
            spaces.append(space)
        return spaces


def build_joint_arrays(
    x: np.ndarray,
    path_ego: ReferencePath,
    path_other: ReferencePath,
    conflict: ConflictPoint,
    sampler_cfg: SamplerConfig,
    reward_cfg: RewardConfig,
    columns: int | None = None,
) -> JointArrays:
    """Every state's fans, features and reward matrices, in one array pass over the state columns x (3, side, F).

    Both sides of every state sit on one grid (side, state, target): each
    row holds its distinct clamped accelerations first, in order, and 0.0
    after them.  Rollout, path position, utility vectors, safety and the
    weighted sums run on the whole grid; padding rows are computed but never
    read.  The rollout keeps columns C (N <= C <= N+1, N+1 by default)
    samples per row; the features read the first N, so they have the same
    bits for either C.
    Nothing here raises: each seat's social_terms() reports what failed.
    """
    paths = (path_ego, path_other)
    n, dt = sampler_cfg.horizon_steps, sampler_cfg.dt
    columns = n + 1 if columns is None else columns
    if not n <= columns <= n + 1:
        raise ValueError(f"a build keeps {n} or {n + 1} rollout columns, not {columns}")
    s0, v0, d = x  # each (side, F)
    limits = np.array([path_ego.speed_limit, path_other.speed_limit])[:, None]

    accels, sizes = fan_accels(v0, limits, sampler_cfg)  # (side, F, nt), (side, F)
    forbid = _forbids_singleton(accels, sampler_cfg)
    collapsed = (sizes == 1).any(axis=0).tolist() if forbid else [False] * x.shape[-1]

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite features are reported per state
        S, V = rollout_batch(s0[..., None], v0[..., None], accels, columns - 1, dt)
        xy = [paths[k].position(S[k], d[k][:, None, None]) for k in (0, 1)]  # each (F, nt, C, 2)

        # accumulated efficiency and comfort over steps 0..N-1; each row's
        # comfort sum runs over its N equal terms (an N * a**2 closed form
        # would round differently), and its jerk term is exactly 0.0; x**2 is x*x
        sq = V[..., :n] - limits[..., None, None]  # one temporary, worked in place
        sq /= limits[..., None, None]
        sq *= sq
        lateral = np.array([[_lateral(x, n, reward_cfg.d0) for x in side] for side in d.tolist()])
        eff = -(sq.sum(axis=-1) + lateral[..., None])  # (side, F, nt)
        np.divide(accels[..., None], reward_cfg.a0, out=sq)  # each row's acceleration in each of its N steps
        sq *= sq
        com = -sq.sum(axis=-1)
        del sq

        # the safety feature is symmetric in the pair, so one matrix serves both
        safety = safety_matrix(
            xy[0][..., :n, :], xy[1][..., :n, :], S[0, ..., :n], S[1, ..., :n],
            conflict.s_ego, conflict.s_other, reward_cfg.sigma_d, reward_cfg.sigma_c,
        )  # (F, nt, nt)
        te, to = reward_cfg.theta_ego, reward_cfg.theta_other
        reward_ego = te[0] * eff[0][..., :, None] + te[1] * com[0][..., :, None] + te[2] * safety
        reward_other = to[0] * eff[1][..., None, :] + to[1] * com[1][..., None, :] + to[2] * safety

    return JointArrays(
        states=x, paths=paths, reward_cfg=reward_cfg, dt=dt, collapsed=collapsed,
        sizes=sizes, accels=accels, S=S, V=V, xy=xy, eff=eff, com=com, safety=safety,
        reward_ego=reward_ego, reward_other=reward_other,
    )


def build_joint_space(
    x0: JointState,
    path_ego: ReferencePath,
    path_other: ReferencePath,
    conflict: ConflictPoint,
    sampler_cfg: SamplerConfig,
    reward_cfg: RewardConfig,
) -> JointBehaviorSpace:
    """The joint behavior space at one state: build_joint_arrays on it, assembled by JointArrays.spaces()."""
    return build_joint_arrays(state_columns([x0]), path_ego, path_other, conflict, sampler_cfg, reward_cfg).spaces()[0]
