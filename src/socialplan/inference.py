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
from .errors import DegenerateWeightsError, EmptyCandidateSetError, ShortTrackError
from .metrics import horizon_mse
from .planner import Scenario
from .rewards import RewardWeights, _log_softmax, check_ego_label, off_simplex, weights_error
from .sampling import JointBehaviorSpace, SeatTerms


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


def _subdivided_triangles(k: int, first: int, stop: int) -> np.ndarray:
    """Barycentric corner triples (m, 3, 3) of the subtriangles in rows first..stop-1 of the simplex's k^2 congruent ones.

    Row by row: for i = first..stop-1 and j = 0..k-1-i the upward triangle
    at (i, j), then the downward one next to it while i + j < k - 1.
    """
    per_row = np.arange(k - first, k - stop, -1)
    i = np.repeat(np.arange(first, stop), per_row)
    j = np.arange(len(i)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    # grid offsets of the corners of the upward and the downward triangle at (i, j)
    ci = i[:, None, None] + np.array([[0, 1, 0], [1, 1, 0]])
    cj = j[:, None, None] + np.array([[0, 0, 1], [0, 1, 1]])
    corners = np.stack([1.0 - (ci + cj) / k, ci / k, cj / k], axis=-1)  # (len(i), 2, 3, 3)
    return corners[(np.arange(2) == 0) | (i + j < k - 1)[:, None]]


def _sample_simplex(n: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    """n points on the simplex: iid Dirichlet(1, 1, 1), or a uniform point in each of the k^2 subtriangles
    (k = isqrt(n)) and iid ones after them.  The subtriangles run in blocks of rows (sampling.block_slices), a
    block's corners near _BLOCK_ELEMENTS floats (or one row's); all is elementwise, so a point keeps its bits.
    """
    if scheme == "iid":
        return rng.dirichlet(np.ones(3), size=n)
    k = int(math.isqrt(n))
    r1 = np.sqrt(rng.random(k * k))
    r2 = rng.random(k * k)
    pts = np.empty((n, 3))
    lo = 0
    for rows in sampling.block_slices(k, 18 * k):  # a row's corners: at most k upward triangles, (k, 2, 3, 3)
        corners = _subdivided_triangles(k, rows.start, rows.stop)
        hi = lo + len(corners)
        a, b = r1[lo:hi, None], r2[lo:hi, None]
        pts[lo:hi] = (1.0 - a) * corners[:, 0] + (a * (1.0 - b)) * corners[:, 1] + (a * b) * corners[:, 2]
        lo = hi
    if n > lo:
        pts[lo:] = rng.dirichlet(np.ones(3), size=n - lo)
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


def window_starts(obs, cfg: InferenceConfig) -> range:
    """The window starts the posterior reads on an observed track: 0 .. its steps - window_r, or 0 under growing_window.

    A track shorter than the window raises ShortTrackError, before anything is built.
    """
    if len(obs.s) - 1 < cfg.window_r:
        raise ShortTrackError(f"track has {len(obs.s) - 1} steps, window needs {cfg.window_r}")
    return range(1 if cfg.growing_window else len(obs.s) - cfg.window_r)


@dataclass(frozen=True, eq=False)
class SeatReplay:
    """One seat's joint spaces at a pair's observed states, read in batches.

    obs is the seat's own observed track, frames[i] the observed state of
    entry i.  A reader (replay_seats) keeps only what it reads: the seat's
    terms (SeatTerms, which also holds the leader decisions) and its ego
    candidates' positions ego_xy (F, nt, N+1, 2), padding rows included.
    Its first terms.sound entries are sound, the next one (if any) the first
    failing state (terms.error).  A seat's pass reads only sound entries and
    raises the failing state's error where it first uses that state, so the
    error a replay reports is the one of a replay that builds one state at a
    time.  Each method repeats, for many entries at once, the arithmetic of
    a per-space function, bit for bit, on the seat's terms: products keep
    one weight matrix on the left, and every reduction runs over the last axis.
    """

    obs: object
    frames: list[int]
    terms: SeatTerms
    ego_xy: np.ndarray

    def matched_labels(self, entries, stops) -> np.ndarray:
        """match_observed(obs.xy[tau : k + 1], the ego candidates at tau = frames[i]) for each i, k in zip(entries, stops).

        One pass per window width w: a window's MSE is metrics.horizon_mse's
        over its w samples at dt 1.0, and padding rows never match.
        """
        entries = np.asarray(entries)
        starts = np.asarray(self.frames)[entries]
        widths = np.minimum(np.asarray(stops) - starts + 1, self.ego_xy.shape[-2])
        labels = np.empty(len(entries), dtype=np.intp)
        for w in set(widths.tolist()):  # not np.unique: it imports numpy.ma, about 1 MB
            sel = widths == w
            windows = self.obs.xy[starts[sel, None] + np.arange(w)]  # (n, w, 2)
            mse = horizon_mse(self.ego_xy[entries[sel], :, :w], windows, 1.0, (w - 1,))[:, 0]  # (n, nt)
            real = np.arange(mse.shape[-1]) < self.terms.ne[entries[sel], None]
            labels[sel] = np.where(real, mse, np.inf).argmin(axis=-1)
        return labels

    def log_likelihoods(self, lambdas: np.ndarray, entries, labels) -> np.ndarray:
        """Each particle's log-probability of the matched label at each entry, as update_posterior computes it: (len(entries), P).

        Per ego fan size ne, one product runs over the distinct states of
        that size (the runs of the sorted entries) on their (3, ne) terms, so
        the terms of a later (maybe failing) state never reach it.  Only
        posterior_pass's blocks bound its (G, P, ne) array: _BLOCK_ELEMENTS * ne
        floats, or one frame's P * ne.  The arithmetic is _log_softmax's, on
        that array worked in place: the max over the ne slices (exact in any
        order), then the sum over the last axis, as _log_softmax takes it
        (numpy adds pairwise from 8 terms, so a sum over another axis would
        change the bits).
        """
        entries, labels = np.asarray(entries), np.asarray(labels)
        sizes = self.terms.ne[entries]
        out = np.empty((len(entries), len(lambdas)))
        for ne in sorted(set(sizes.tolist())):
            at = (sizes == ne).nonzero()[0]  # the entries of this size
            first = sampling._first_of_runs(entries[at])
            pos = first.cumsum() - 1  # each entry's state's row in u
            u = lambdas @ self.terms.terms[entries[at[first]], :, :ne]  # (G, P, ne)
            peak = u[..., 0].copy()
            for c in range(1, ne):
                np.maximum(peak, u[..., c], out=peak)
            u -= peak[..., None]
            picked = u[pos, :, labels[at]]
            np.exp(u, out=u)
            out[at] = picked - np.log(u.sum(axis=-1))[pos]
        return out

    def posterior_pass(self, cfg: InferenceConfig, pset: ParticleSet) -> tuple[list[int], np.ndarray, Exception | None]:
        """The posterior loop for the seat's agent from the particles pset, up to its first error.

        Returns (stops, means, error): for the j-th posterior frame
        stops[j] = window_r + j, and means[j] is the posterior mean after the
        window tau..stops[j] as a weight row (3,), tau being j (0 under
        growing_window), which is also its entry in frames; len(means) frames
        ran, and error is the one the next frame raises (None if every frame
        ran).  The track covers one window (window_starts checks it).  The
        matched labels come from one array pass.  The frames then run in
        blocks (sampling.block_slices) of at most
        sampling._BLOCK_ELEMENTS // P (or one), so that no (F, P) array
        lives: each block's log-likelihoods (_BLOCK_ELEMENTS * ne floats,
        12.5 MiB at config.MAX_TERMINAL_SPEEDS, or one frame's P * ne) and its
        means (_means) come from one array pass each, and the weight recursion
        (_reweigh, as in update_posterior) runs per frame, with resampling at
        the particles each frame copied.  A frame's numbers do not depend on
        the block it falls in.

        Errors stop the pass at their frame, as in the per-frame loop: a
        window start's build error at frame tau + r (under growing_window, at
        frame r), before that frame's update; a degenerate update or an
        off-simplex mean at its own frame, after every frame before it.
        """
        r = cfg.window_r
        lambdas, weights, copied = pset.lambdas, pset.weights, None
        stops = list(range(r, len(self.obs.s)))
        entries = [0 if cfg.growing_window else k - r for k in stops]
        n = bisect_left(entries, self.terms.sound)  # frames before the first use of a failing state
        labels = self.matched_labels(entries[:n], stops[:n]) if n else None
        blocks, error = [], None
        with np.errstate(divide="ignore"):  # a weight that reached 0 has log -inf
            for block in sampling.block_slices(n, len(lambdas)):  # so no (F, P) array lives
                rows, per_frame = [], []
                for loglik in self.log_likelihoods(pset.lambdas, entries[block], labels[block]):
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
            error = self.terms.error[1]  # entry n is at or past the first failing state
        return stops, means, error


def replay_seats(obs_ego, obs_other, scenario: Scenario, frames) -> tuple[SeatReplay, SeatReplay]:
    """Both seats' readers of one observed pair, from one build.

    Seat 0 is the agent in the scenario's ego seat (obs_ego) and seat 1 the
    other driver, in scenario.swapped()'s terms.  frames are the distinct
    observed frames the run reads, sorted: the posterior's window starts
    (window_starts), so window start tau is entry tau, and for regeneration
    its frames too.  One Scenario.arrays_at call builds them, on the
    tracks' (s, v, d) columns at those frames; the other seat's arrays are
    views of that build (JointArrays.swapped), bit for bit the swapped
    scenario's own build.  The build goes once both readers hold what they read.
    """
    frames = list(frames)
    arrays = scenario.arrays_at(np.stack([(o.s, o.v, o.d) for o in (obs_ego, obs_other)], axis=1)[..., frames])
    seats = ((obs_ego, arrays), (obs_other, arrays.swapped(scenario.swapped().rewards)))
    return tuple(SeatReplay(obs, frames, seat.social_terms(), seat.xy[0]) for obs, seat in seats)


def _series(reader: SeatReplay, cfg: InferenceConfig, pset: ParticleSet) -> InferenceSeries:
    """The seat's per-frame estimates from its posterior pass; raises the pass's error, if any."""
    stops, means, error = reader.posterior_pass(cfg, pset)
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
    """Per-frame weight estimates for the agent sitting in the scenario's ego seat: replay_seats' seat 0."""
    reader, _ = replay_seats(obs_self, obs_other, scenario, window_starts(obs_self, cfg))
    return _series(reader, cfg, init_particles(cfg, seed))


def _infer_pair(pair, scenario: Scenario, cfg: InferenceConfig, particles) -> dict[str, InferenceSeries]:
    """infer_trace's estimates from the particle set particles() returns, asked for once the pair is built."""
    seats = replay_seats(pair.ego, pair.other, scenario, window_starts(pair.ego, cfg))
    pset = particles()
    return {role: _series(seat, cfg, pset) for role, seat in zip(("ego", "other"), seats)}


def infer_trace(pair, scenario: Scenario, cfg: InferenceConfig, seed: int = 0) -> dict[str, InferenceSeries]:
    """Estimate both drivers' weights independently, the other car's in scenario.swapped()'s terms.

    One build and one particle draw serve both seats (_infer_pair): the ego
    seat's posterior runs to the end and then the swapped seat's, so the
    result and any error are those of infer_agent on each seat in turn.
    """
    return _infer_pair(pair, scenario, cfg, lambda: init_particles(cfg, seed))
