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
from typing import Iterator

import numpy as np

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


def init_particles(cfg: InferenceConfig, seed: int | np.random.Generator = 0) -> ParticleSet:
    """Draw the simplex covering and set weights from the prior density."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
    with np.errstate(divide="ignore"):
        logw = np.log(weights) + loglik
    peak = logw.max()
    if not np.isfinite(peak):
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
# and inference.update_posterior.  Replay runs them in batches (ReplayChunk).
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


# Observed states per batched build in replay: enough to amortise the
# roughly 100 numpy calls of one array pass, few enough that its
# temporaries stay small.  A pair keeps its chunks' arrays until it is done.
# 32 was chosen by measurement on a 2-vCPU VM: in paired perfbench/run.py
# offline_regen runs (10 seeds, 10 s each) the replay at 32 took wall_s from
# 0.086 to 0.071 s (median) against 8, at 3% more peak memory, and in an
# in-process probe 16, 64 and one chunk per pair were all slower than 32.
CHUNK = 32


class ReplayChunk:
    """One seat's joint spaces at a chunk of observed states, read in batches.

    frames[i] is the observed state of entry i.  Making a chunk raises
    nothing: its first terms.sound entries are sound, and the next one, if
    the chunk has it, is the first failing state (terms.error).  A seat's pass
    reads only sound entries and raises the failing state's error where it
    first uses that state (check), so the error a replay reports is the one
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
        self.ego_xy = arrays.xy[0]  # (C, nt, N+1, 2), padding rows included
        self._real = np.arange(self.ego_xy.shape[1]) < arrays.sizes[0][:, None]  # (C, nt) real ego candidates

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
            mse = (diff * diff).sum(axis=-1).sum(axis=-1) / w
            labels[sel] = np.where(self._real[entries[sel]], mse, np.inf).argmin(axis=-1)
        return labels

    def check(self, i: int) -> None:
        """Raise the build error of the failing state if entry i is at or past it."""
        if i >= self.terms.sound:
            raise self.terms.error[1]

    def log_likelihoods(self, lambdas: np.ndarray, entries, labels) -> np.ndarray:
        """Each particle's log-probability of the matched label at each entry, as update_posterior computes it: (len(entries), P).

        A group's products stop at the last entry asked for, so the terms of
        a later (maybe failing) state never reach them.
        """
        entries, labels = np.asarray(entries), np.asarray(labels)
        group, row = np.array(self.terms.slots)[entries].T
        out = np.empty((len(entries), len(lambdas)))
        for g, (_, _, _, comps) in enumerate(self.terms.groups):
            sel = group == g
            if sel.any():
                rows = row[sel]
                logp = _log_softmax(lambdas @ comps.terms[: rows.max() + 1])  # (G, P, ne)
                out[sel] = logp[rows, :, labels[sel]]
        return out


class PairReplay:
    """Replay of one observed pair, for both of its seats, from one build per chunk.

    Seat 0 is the agent in the scenario's ego seat (obs_ego) and seat 1 the
    other driver, in scenario.swapped()'s terms.  The observed states are
    built CHUNK at a time (Scenario.arrays_at), when a seat first asks for
    the chunk, and kept until the pair is done, so the seats, replayed one
    after the other, share every build.  Seat 1's arrays are views of seat
    0's (JointArrays.swapped) and give, bit for bit, the spaces the swapped
    scenario would build on its own.  A state's build error is raised at
    the frame where the seat first uses the state (ReplayChunk), whatever
    CHUNK is.
    """

    def __init__(self, obs_ego, obs_other, scenario: Scenario):
        self.obs = (obs_ego, obs_other)
        self.scenario = scenario
        self._swapped = scenario.swapped()
        self._built: dict[tuple[int, ...], JointArrays] = {}  # seat 0's arrays by the chunk's frames

    def chunks(self, seat: int, frames) -> Iterator[ReplayChunk]:
        """The seat's ReplayChunk for each run of CHUNK frames in order."""
        frames = list(frames)
        for i in range(0, len(frames), CHUNK):
            chunk = frames[i : i + CHUNK]
            key = tuple(chunk)
            if key not in self._built:
                self._built[key] = self.scenario.arrays_at([observed_state(*self.obs, k) for k in chunk])
            arrays = self._built[key]
            if seat == 1:
                arrays = arrays.swapped(self._swapped.conflict, self._swapped.rewards)
            yield ReplayChunk(chunk, arrays)

    def posterior_steps(
        self, seat: int, cfg: InferenceConfig, seed: int = 0
    ) -> Iterator[tuple[ReplayChunk, int, int, np.ndarray]]:
        """The posterior loop for the agent in the seat, one frame at a time.

        Yields (chunk, i, k, estimate) for each posterior frame k in order:
        the chunk whose entry i is the window start tau, and the posterior
        mean after the window tau..k as a weight row (3,).  Window starts
        are built CHUNK at a time (under growing_window the frame-0 state
        serves every frame).  A chunk's matched labels and log-likelihoods
        come from one array pass, and so do the means of its frames, from
        one stacked product (_means); the weight recursion (_reweigh, as in
        update_posterior) runs per frame.  With resampling, each frame reads
        its log-likelihoods at the particles it copied.

        Errors come out at their frame, as in the per-frame loop: a window
        start's build error at frame tau + r (under growing_window, at frame
        r), before that frame's update; a degenerate update or an off-simplex
        mean at its own frame, after every frame before it.
        """
        obs_self = self.obs[seat]
        total = len(obs_self.s) - 1
        r = cfg.window_r
        if total < r:
            raise ShortTrackError(f"track has {total} steps, window needs {r}")
        pset = init_particles(cfg, seed)
        lambdas, weights, copied = pset.lambdas, pset.weights, None
        for chunk in self.chunks(seat, [0] if cfg.growing_window else range(total - r + 1)):
            if cfg.growing_window:
                stops = list(range(r, total + 1))
                entries = [0] * len(stops)
            else:
                stops = [tau + r for tau in chunk.frames]
                entries = list(range(len(stops)))
            n = bisect_left(entries, chunk.terms.sound)  # frames before the first use of a failing state
            rows, per_frame, failure = [], [], None
            if n:
                labels = chunk.matched_labels(obs_self.xy, entries[:n], stops[:n])
                for loglik in chunk.log_likelihoods(pset.lambdas, entries[:n], labels):
                    try:
                        weights, idx = _reweigh(weights, loglik if copied is None else loglik[copied], cfg.resample)
                    except DegenerateWeightsError as exc:
                        failure = exc
                        break
                    if idx is not None:
                        copied = idx if copied is None else copied[idx]
                        lambdas = lambdas[idx]
                        per_frame.append(lambdas)
                    rows.append(weights)
            if rows:
                means = _means(np.stack(rows), np.stack(per_frame) if per_frame else lambdas)
                bad = off_simplex(means)
                good = int(bad.argmax()) if bad.any() else len(rows)
                for j in range(good):
                    yield chunk, entries[j], stops[j], means[j]
                if good < len(rows):
                    raise weights_error(means[good])
            if failure is not None:
                raise failure
            if n < len(entries):
                chunk.check(entries[n])


def _series(steps) -> InferenceSeries:
    """One seat's per-frame estimates from its posterior steps."""
    frames, lams = [], []
    for *_, k, estimate in steps:
        frames.append(k)
        lams.append(estimate)
    return InferenceSeries(frames=np.array(frames), lambdas=np.stack(lams))


def infer_agent(
    obs_self,
    obs_other,
    scenario: Scenario,
    cfg: InferenceConfig,
    seed: int = 0,
) -> InferenceSeries:
    """Per-frame weight estimates for the agent sitting in the scenario's ego seat."""
    return _series(PairReplay(obs_self, obs_other, scenario).posterior_steps(0, cfg, seed))


def infer_trace(pair, scenario: Scenario, cfg: InferenceConfig, seed: int = 0) -> dict[str, InferenceSeries]:
    """Estimate both drivers' weights independently, the other car's in scenario.swapped()'s terms.

    One replay serves both seats (PairReplay): the ego seat's posterior
    runs to the end and then the swapped seat's, on one build per chunk, so
    the result and any error are those of infer_agent on each seat in turn.
    """
    replay = PairReplay(pair.ego, pair.other, scenario)
    return {role: _series(replay.posterior_steps(seat, cfg, seed)) for seat, role in enumerate(("ego", "other"))}
