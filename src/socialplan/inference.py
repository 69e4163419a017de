"""Online Bayesian estimation of a driver's reward weights from observations.

A weighted particle set over the 2-simplex represents the posterior over the
(egoism, courtesy, confidence) mixing weights.  Each sliding observation
window is matched to the closest candidate action; every particle's weight
is multiplied by the Boltzmann probability of that matched action under the
particle's weights and renormalized.  The estimate is the posterior mean.

Particle positions are always a uniform covering of the simplex (stratified
by default for reliable coverage of the corners at small particle counts);
non-uniform priors enter through the initial weights, proportional to the
prior density at each sample.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import sampling
from .core import AgentState, JointState
from .errors import DegenerateWeightsError, EmptyCandidateSetError, ShortTrackError
from .planner import Scenario
from .rewards import RewardWeights, _log_softmax, check_ego_label, off_simplex, weights_error
from .sampling import JointArrays, JointBehaviorSpace


@dataclass(frozen=True)
class PriorSpec:
    """Prior over the simplex: uniform, Dirichlet(alpha), or policy-dominance fractions."""

    kind: str = "uniform"
    alpha: tuple[float, float, float] | None = None
    fractions: tuple[float, float, float] | None = None
    concentration: float = 8.0

    def __post_init__(self):
        if self.kind not in ("uniform", "dirichlet", "dop"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "dirichlet":
            if self.alpha is None or len(self.alpha) != 3 or any(not a > 0 for a in self.alpha):  # NaN fails a > 0
                raise ValueError("dirichlet prior needs three positive alpha values")
        if self.kind == "dop":
            if self.fractions is None or len(self.fractions) != 3:
                raise ValueError("dop prior needs three dominance fractions")
            # rounded percentages are fine; they get normalized
            if any(not f >= 0 for f in self.fractions) or not sum(self.fractions) > 0:  # NaN fails both
                raise ValueError("dop fractions must be non-negative with positive sum")
            # below 0 the alpha of dirichlet_alpha drops under 1 and the prior no longer peaks at the fractions
            if not self.concentration >= 0:
                raise ValueError(f"dop concentration must be non-negative, got {self.concentration!r}")

    def dirichlet_alpha(self) -> np.ndarray | None:
        if self.kind == "dirichlet":
            return np.asarray(self.alpha, dtype=float)
        if self.kind == "dop":
            # mode of Dirichlet(1 + c f) sits at the dominance fractions
            f = np.asarray(self.fractions, dtype=float)
            return 1.0 + self.concentration * f / f.sum()
        return None


@dataclass(frozen=True)
class InferenceConfig:
    n_particles: int = 100
    window_r: int = 10
    prior: PriorSpec = field(default_factory=PriorSpec)
    init: str = "stratified"  # or "iid"
    resample: bool = False
    growing_window: bool = False

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if self.window_r < 1:
            raise ValueError("window must cover at least 1 step")
        if self.init not in ("stratified", "iid"):
            raise ValueError(f"unknown init scheme {self.init!r}")


@dataclass(frozen=True)
class ParticleSet:
    """Weighted simplex samples: lambdas (n, 3), weights summing to 1."""

    lambdas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if lam.ndim != 2 or lam.shape[1] != 3 or lam.shape[0] == 0:
            raise ValueError("lambdas must be a non-empty (n, 3) array")
        if w.shape != (lam.shape[0],) or not (w >= 0).all() or not abs(w.sum() - 1.0) <= 1e-9:  # NaN fails both
            raise ValueError("weights must be non-negative and sum to 1")


def _subdivided_triangles(k: int) -> np.ndarray:
    """Barycentric corner triples (k^2, 3, 3) of the k^2 congruent subtriangles of the simplex.

    Row by row: for i = 0..k-1 and j = 0..k-1-i the upward triangle at
    (i, j), then the downward one next to it while i + j < k - 1.
    """
    per_row = np.arange(k, 0, -1)
    i = np.repeat(np.arange(k), per_row)
    j = np.arange(len(i)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    # grid offsets of the corners of the upward and the downward triangle at (i, j)
    ci = i[:, None, None] + np.array([[0, 1, 0], [1, 1, 0]])
    cj = j[:, None, None] + np.array([[0, 0, 1], [0, 1, 1]])
    corners = np.stack([1.0 - (ci + cj) / k, ci / k, cj / k], axis=-1)  # (len(i), 2, 3, 3)
    return corners[(np.arange(2) == 0) | (i + j < k - 1)[:, None]]


def _sample_simplex(n: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    if scheme == "iid":
        return rng.dirichlet(np.ones(3), size=n)
    k = int(math.isqrt(n))
    corners = _subdivided_triangles(k)  # (k^2, 3, 3)
    r1 = np.sqrt(rng.random(len(corners)))
    r2 = rng.random(len(corners))
    pts = (
        (1.0 - r1)[:, None] * corners[:, 0]
        + (r1 * (1.0 - r2))[:, None] * corners[:, 1]
        + (r1 * r2)[:, None] * corners[:, 2]
    )
    if n > len(pts):
        pts = np.concatenate([pts, rng.dirichlet(np.ones(3), size=n - len(pts))])
    return pts


def init_particles(cfg: InferenceConfig, seed: int = 0) -> ParticleSet:
    """Draw the simplex covering and set weights from the prior density."""
    rng = np.random.default_rng(seed)
    lambdas = _sample_simplex(cfg.n_particles, cfg.init, rng)
    alpha = cfg.prior.dirichlet_alpha()
    if alpha is None:
        weights = np.full(cfg.n_particles, 1.0 / cfg.n_particles)
    else:
        logdens = np.sum((alpha - 1.0) * np.log(np.clip(lambdas, 1e-12, None)), axis=1)
        weights = np.exp(logdens - logdens.max())
        weights /= weights.sum()
    return ParticleSet(lambdas=lambdas, weights=weights)


def _reweigh(weights: np.ndarray, loglik: np.ndarray, resample: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """One Bayes step on the particle weights, given each particle's log-likelihood of the matched action.

    weight *= likelihood, renormalized; with resample, a systematic
    resample follows.  Returns the new weights and, after a resample, the
    index of the particle each new one copies (else None).
    """
    logw = np.log(weights) + loglik  # log(0) is -inf: the caller ignores numpy's divide warning
    peak = logw.max()
    if not math.isfinite(peak):
        raise DegenerateWeightsError("all particle weights vanished in an update")
    w = np.exp(logw - peak)
    w = w / w.sum()
    if not resample:
        return w, None
    n = len(w)
    positions = (np.arange(n) + 0.5) / n
    return np.full(n, 1.0 / n), np.searchsorted(np.cumsum(w), positions)


# match_observed and update_posterior (with _log_likelihoods) are the per-space
# steps; they stay only because perfbench/tracing.py wraps inference.match_observed
# and inference.update_posterior.  Replay runs them in batches (SeatReplay).
def match_observed(observed_xy: np.ndarray, candidate_xy: np.ndarray) -> int:
    """Label of the candidate whose positions are MSE-closest to the observation.

    candidate_xy is (n, N+1, 2), row i the candidate labeled i.  Compared
    over min(len(observed), N+1) positions; ties break to the lowest label.
    """
    candidate_xy = np.asarray(candidate_xy, dtype=float)
    if len(candidate_xy) == 0:
        raise EmptyCandidateSetError("cannot match against an empty candidate set")
    observed_xy = np.asarray(observed_xy, dtype=float)
    w = min(len(observed_xy), candidate_xy.shape[1])
    if w < 2:
        raise ShortTrackError("observation window shorter than one step")
    diff = candidate_xy[:, :w] - observed_xy[None, :w]
    return int(np.argmin(np.mean(np.sum(diff * diff, axis=2), axis=1)))


def _log_likelihoods(space: JointBehaviorSpace, matched_label: int, lambdas: np.ndarray) -> np.ndarray:
    return _log_softmax(lambdas @ space.components().terms)[:, matched_label]  # (n_particles,)


def update_posterior(
    pset: ParticleSet, matched_label: int, space: JointBehaviorSpace, cfg: InferenceConfig
) -> ParticleSet:
    """One Bayes step: weight *= likelihood of the matched action, renormalize."""
    loglik = _log_likelihoods(space, check_ego_label(space, matched_label), pset.lambdas)
    with np.errstate(divide="ignore"):
        weights, copied = _reweigh(pset.weights, loglik, cfg.resample)
    return ParticleSet(lambdas=pset.lambdas if copied is None else pset.lambdas[copied], weights=weights)


def _means(weights: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """The posterior means after each of F frames, renormalized onto the simplex: (F, 3) from the weight rows (F, P).

    lambdas is (P, 3), or (F, P, 3) when each frame has its own particles.
    One stacked (F, 1, P) @ lambdas product gives each frame the bytes of its
    own (P,) @ (P, 3) product; a plain (F, P) @ (P, 3) rounds differently.
    """
    mean = np.maximum(weights[:, None] @ lambdas, 0.0)[:, 0]
    return mean / mean.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class InferenceSeries:
    """Per-frame estimates for one agent; frames index the planning-rate grid."""

    frames: np.ndarray
    lambdas: np.ndarray  # (len(frames), 3)

    def final(self) -> RewardWeights:
        return RewardWeights(self.lambdas[-1] / self.lambdas[-1].sum())


def observed_state(obs_self, obs_other, k: int) -> JointState:
    """Joint state at grid index k of two observed tracks (obs_self in the ego seat)."""
    return JointState(
        ego=AgentState(s=float(obs_self.s[k]), v=float(obs_self.v[k]), d=float(obs_self.d[k])),
        other=AgentState(s=float(obs_other.s[k]), v=float(obs_other.v[k]), d=float(obs_other.d[k])),
        t=k,
    )


def window_starts(obs, cfg: InferenceConfig) -> range:
    """The window starts the posterior reads on an observed track: 0 .. its steps - window_r, or 0 under growing_window."""
    return range(1 if cfg.growing_window else len(obs.s) - cfg.window_r)


class SeatReplay:
    """One seat's joint spaces at a pair's observed states, read in batches.

    frames[i] is the observed state of entry i.  Making a reader raises
    nothing: its first terms.sound entries are sound, and the next one, if
    there is one, is the first failing state (terms.error).  A seat's pass
    reads only sound entries and raises the failing state's error where it
    first uses that state, so the error a replay reports is the one
    of a replay that builds one state at a time.  Each method repeats, for
    many entries at once, the arithmetic of a per-space function, bit for
    bit, on the seat's terms (SeatTerms, which also holds the leader
    decisions): products keep one weight matrix on the left, and every
    reduction runs over the last axis.
    """

    def __init__(self, frames: list[int], arrays: JointArrays):
        self.frames = frames
        self.arrays = arrays
        self.terms = arrays.social_terms()
        self.ego_xy = arrays.xy[0]  # (F, nt, N+1, 2), padding rows included
        self._real = np.arange(self.ego_xy.shape[1]) < arrays.sizes[0][:, None]  # (F, nt) real ego candidates

    def matched_labels(self, observed_xy: np.ndarray, entries, stops) -> np.ndarray:
        """match_observed(observed_xy[tau : k + 1], the ego candidates at tau = frames[i]) for each i, k in zip(entries, stops).

        One pass per window width; each mean is sum / width, as np.mean
        computes it, and padding rows never match.
        """
        entries = np.asarray(entries)
        starts = np.asarray(self.frames)[entries]
        widths = np.minimum(np.asarray(stops) - starts + 1, self.ego_xy.shape[-2])
        labels = np.empty(len(entries), dtype=np.intp)
        for w in set(widths.tolist()):  # not np.unique: it imports numpy.ma, about 1 MB
            sel = widths == w
            windows = observed_xy[starts[sel, None] + np.arange(w)]  # (n, w, 2)
            diff = self.ego_xy[entries[sel], :, :w] - windows[:, None]  # (n, nt, w, 2)
            diff *= diff
            mse = (diff[..., 0] + diff[..., 1]).sum(axis=-1) / w  # the xy sum as two slices (see metrics.horizon_mse)
            labels[sel] = np.where(self._real[entries[sel]], mse, np.inf).argmin(axis=-1)
        return labels

    def log_likelihoods(self, lambdas: np.ndarray, entries, labels) -> np.ndarray:
        """Each particle's log-probability of the matched label at each entry, as update_posterior computes it: (len(entries), P).

        The products run once per distinct state asked for, per ego fan size
        ne, on its (3, ne) terms, so the terms of a later (maybe failing)
        state never reach them; and over slices of those states, so that
        one (G, P, ne) array holds at most sampling._BLOCK_ELEMENTS numbers
        (or one state's).  The arithmetic is _log_softmax's, on that array
        worked in place: the max over the ne slices (exact in any order),
        then the sum over the last axis, as _log_softmax takes it (numpy
        adds pairwise from 8 terms, so a sum over another axis would change
        the bits).
        """
        entries, labels = np.asarray(entries), np.asarray(labels)
        sizes = self.terms.ne[entries]
        out = np.empty((len(entries), len(lambdas)))
        for ne in sorted(set(sizes.tolist())):
            at = (sizes == ne).nonzero()[0]  # the entries of this size
            asked = np.zeros(entries[at].max() + 1, dtype=bool)
            asked[entries[at]] = True
            states = asked.nonzero()[0]  # their distinct states, in order
            pos = (asked.cumsum() - 1)[entries[at]]  # each entry's state's place in states
            step = max(1, sampling._BLOCK_ELEMENTS // (len(lambdas) * ne))
            for lo in range(0, len(states), step):
                u = lambdas @ self.terms.terms[states[lo : lo + step], :, :ne]  # (G, P, ne)
                peak = u[..., 0].copy()
                for c in range(1, ne):
                    np.maximum(peak, u[..., c], out=peak)
                u -= peak[..., None]
                here = (pos >= lo) & (pos < lo + step)
                sub = pos[here] - lo
                picked = u[sub, :, labels[at[here]]]
                np.exp(u, out=u)
                out[at[here]] = picked - np.log(u.sum(axis=-1))[sub]
        return out


class PairReplay:
    """Replay of one observed pair, for both of its seats, from one build.

    Seat 0 is the agent in the scenario's ego seat (obs_ego) and seat 1 the
    other driver, in scenario.swapped()'s terms.  frames are the distinct
    observed frames the run reads, sorted: the posterior's window starts
    (window_starts), so window start tau is entry tau, and for regeneration
    its frames too.  The first seat to ask for its reader (seat) builds
    them in one Scenario.arrays_at call, which the pair keeps, so the other
    seat builds nothing: its arrays are views of seat 0's
    (JointArrays.swapped), bit for bit the swapped scenario's own build.
    The seats' particle sets are one draw per config and seed (particles).
    """

    def __init__(self, obs_ego, obs_other, scenario: Scenario, frames):
        self.obs = (obs_ego, obs_other)
        self.scenario = scenario
        self.frames = list(frames)
        self._seats: dict[int, SeatReplay] = {}
        self._particles: tuple[InferenceConfig, int, ParticleSet] | None = None  # the last draw, its config and seed

    def seat(self, seat: int) -> SeatReplay:
        """The seat's reader over the pair's build, made when the seat first asks."""
        if not self._seats:
            arrays = self.scenario.arrays_at([observed_state(*self.obs, k) for k in self.frames])
            self._seats[0] = SeatReplay(self.frames, arrays)
        if seat not in self._seats:  # seat 1, from seat 0's arrays
            swapped = self.scenario.swapped()
            self._seats[1] = SeatReplay(self.frames, self._seats[0].arrays.swapped(swapped.conflict, swapped.rewards))
        return self._seats[seat]

    def particles(self, cfg: InferenceConfig, seed: int) -> ParticleSet:
        """init_particles(cfg, seed), drawn once for both seats; its arrays are read-only."""
        if self._particles is None or self._particles[:2] != (cfg, seed):
            pset = init_particles(cfg, seed)
            pset.lambdas.flags.writeable = pset.weights.flags.writeable = False
            self._particles = (cfg, seed, pset)
        return self._particles[2]

    def posterior_pass(
        self, seat: int, cfg: InferenceConfig, seed: int = 0
    ) -> tuple[list[int], list[int], np.ndarray, Exception | None]:
        """The posterior loop for the agent in the seat, up to its first error.

        Returns (entries, stops, means, error): for the j-th posterior frame
        stops[j] = window_r + j, entries[j] is the entry of its window start
        tau in the seat's reader (seat), which is tau itself (0 under
        growing_window), and means[j] the posterior mean after the window
        tau..stops[j] as a weight row (3,); len(means) frames ran, and error
        is the one the next frame raises (None if every frame ran).  The
        matched labels come from one array pass.  The frames then run in
        blocks of at most sampling._BLOCK_ELEMENTS // P (or one), so that no
        (F, P) array lives: each block's log-likelihoods and its means
        (_means) come from one array pass each, and the weight recursion
        (_reweigh, as in update_posterior) runs per frame, with resampling at
        the particles each frame copied.  A frame's numbers do not depend on
        the block it falls in.

        Errors stop the pass at their frame, as in the per-frame loop: a
        window start's build error at frame tau + r (under growing_window, at
        frame r), before that frame's update; a degenerate update or an
        off-simplex mean at its own frame, after every frame before it.  A
        track shorter than the window raises ShortTrackError at once.
        """
        obs_self = self.obs[seat]
        total = len(obs_self.s) - 1
        r = cfg.window_r
        if total < r:
            raise ShortTrackError(f"track has {total} steps, window needs {r}")
        pset = self.particles(cfg, seed)
        lambdas, weights, copied = pset.lambdas, pset.weights, None
        reader = self.seat(seat)
        stops = list(range(r, total + 1))
        entries = [0 if cfg.growing_window else k - r for k in stops]
        n = bisect_left(entries, reader.terms.sound)  # frames before the first use of a failing state
        labels = reader.matched_labels(obs_self.xy, entries[:n], stops[:n]) if n else None
        step = max(1, sampling._BLOCK_ELEMENTS // len(lambdas))  # frames a block, so no (F, P) array lives
        blocks, error = [], None
        with np.errstate(divide="ignore"):  # a weight that reached 0 has log -inf
            for lo in range(0, n, step):
                block, rows, per_frame = slice(lo, min(lo + step, n)), [], []
                for loglik in reader.log_likelihoods(pset.lambdas, entries[block], labels[block]):
                    try:
                        weights, idx = _reweigh(weights, loglik if copied is None else loglik[copied], cfg.resample)
                    except DegenerateWeightsError as exc:
                        error = exc
                        break
                    if idx is not None:
                        copied = idx if copied is None else copied[idx]
                        lambdas = lambdas[idx]
                        per_frame.append(lambdas)
                    rows.append(weights)
                if rows:
                    means = _means(np.stack(rows), np.stack(per_frame) if per_frame else lambdas)
                    bad = off_simplex(means)
                    if bad.any():
                        good = int(bad.argmax())
                        means, error = means[:good], weights_error(means[good])
                    blocks.append(means)
                if error is not None:
                    break
        means = np.concatenate(blocks) if blocks else np.empty((0, 3))
        if error is None and n < len(entries):
            error = reader.terms.error[1]  # entry n is at or past the first failing state
        return entries, stops, means, error

def _series(replay: PairReplay, seat: int, cfg: InferenceConfig, seed: int) -> InferenceSeries:
    """The seat's per-frame estimates from its posterior pass; raises the pass's error, if any."""
    _, stops, means, error = replay.posterior_pass(seat, cfg, seed)
    if error is not None:
        raise error
    return InferenceSeries(frames=np.array(stops), lambdas=means)


def infer_agent(
    obs_self,
    obs_other,
    scenario: Scenario,
    cfg: InferenceConfig,
    seed: int = 0,
) -> InferenceSeries:
    """Per-frame weight estimates for the agent sitting in the scenario's ego seat."""
    return _series(PairReplay(obs_self, obs_other, scenario, window_starts(obs_self, cfg)), 0, cfg, seed)


def infer_trace(pair, scenario: Scenario, cfg: InferenceConfig, seed: int = 0) -> dict[str, InferenceSeries]:
    """Estimate both drivers' weights independently, the other car's in scenario.swapped()'s terms.

    One replay serves both seats (PairReplay): the ego seat's posterior
    runs to the end and then the swapped seat's, on one build, so the
    result and any error are those of infer_agent on each seat in turn.
    """
    replay = PairReplay(pair.ego, pair.other, scenario, window_starts(pair.ego, cfg))
    return {role: _series(replay, seat, cfg, seed) for seat, role in enumerate(("ego", "other"))}
