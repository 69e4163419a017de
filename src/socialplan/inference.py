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
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .core import AgentState, JointState
from .errors import DegenerateWeightsError, EmptyCandidateSetError, ShortTrackError, UnknownCandidateError
from .planner import Scenario
from .rewards import RewardWeights
from .sampling import Candidate, JointBehaviorSpace


class Particle(NamedTuple):
    lam: RewardWeights
    weight: float


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
            if self.alpha is None or len(self.alpha) != 3 or any(a <= 0 for a in self.alpha):
                raise ValueError("dirichlet prior needs three positive alpha values")
        if self.kind == "dop":
            if self.fractions is None or len(self.fractions) != 3:
                raise ValueError("dop prior needs three dominance fractions")
            # rounded percentages are fine; they get normalized
            if any(f < 0 for f in self.fractions) or sum(self.fractions) <= 0:
                raise ValueError("dop fractions must be non-negative with positive sum")

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
        if w.shape != (lam.shape[0],) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be non-negative and sum to 1")

    @property
    def particles(self) -> list[Particle]:
        return [
            Particle(lam=RewardWeights(l / l.sum()), weight=float(w))
            for l, w in zip(self.lambdas, self.weights)
        ]


def _subdivided_triangles(k: int) -> list[np.ndarray]:
    """Barycentric corner triples of the k^2 congruent subtriangles of the simplex."""
    def bary(i: int, j: int) -> np.ndarray:
        return np.array([1.0 - (i + j) / k, i / k, j / k])

    tris = []
    for i in range(k):
        for j in range(k - i):
            tris.append(np.stack([bary(i, j), bary(i + 1, j), bary(i, j + 1)]))
            if i + j < k - 1:
                tris.append(np.stack([bary(i + 1, j), bary(i + 1, j + 1), bary(i, j + 1)]))
    return tris


def _sample_simplex(n: int, scheme: str, rng: np.random.Generator) -> np.ndarray:
    if scheme == "iid":
        return rng.dirichlet(np.ones(3), size=n)
    k = int(math.isqrt(n))
    tris = _subdivided_triangles(k)[: k * k]
    r1 = np.sqrt(rng.random(len(tris)))
    r2 = rng.random(len(tris))
    corners = np.stack(tris)  # (k^2, 3, 3)
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


def match_observed(observed_xy: np.ndarray, candidates: list[Candidate]) -> int:
    """Label of the candidate whose trajectory is MSE-closest to the observation.

    Compared over min(len(observed), N+1) positions; ties break to the lowest
    label.
    """
    if not candidates:
        raise EmptyCandidateSetError("cannot match against an empty candidate set")
    observed_xy = np.asarray(observed_xy, dtype=float)
    w = min(len(observed_xy), len(candidates[0].traj.xy))
    if w < 2:
        raise ShortTrackError("observation window shorter than one step")
    best_label, best_mse = 0, np.inf
    for cand in candidates:
        diff = cand.traj.xy[:w] - observed_xy[:w]
        mse = float(np.mean(np.sum(diff * diff, axis=1)))
        if mse < best_mse:
            best_label, best_mse = cand.seq.label, mse
    return best_label


def _log_likelihoods(space: JointBehaviorSpace, matched_label: int, lambdas: np.ndarray, beta=None) -> np.ndarray:
    scores = lambdas @ space.components(beta).stacked()  # (n_particles, n_candidates)
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted[:, matched_label] - np.log(np.exp(shifted).sum(axis=1))


def window_likelihood(matched_label: int, lam: RewardWeights, space: JointBehaviorSpace, beta=None) -> float:
    """Boltzmann probability of the matched action under weights lam."""
    label = int(matched_label)
    if not 0 <= label < len(space.ego_candidates):
        raise UnknownCandidateError(f"no candidate labeled {matched_label}")
    return float(np.exp(_log_likelihoods(space, label, lam.values[None, :], beta))[0])


def _systematic_resample(pset: ParticleSet) -> ParticleSet:
    n = len(pset.weights)
    positions = (np.arange(n) + 0.5) / n
    idx = np.searchsorted(np.cumsum(pset.weights), positions)
    return ParticleSet(lambdas=pset.lambdas[idx], weights=np.full(n, 1.0 / n))


def update_posterior(
    pset: ParticleSet, matched_label: int, space: JointBehaviorSpace, cfg: InferenceConfig
) -> ParticleSet:
    """One Bayes step: weight *= likelihood of the matched action, renormalize."""
    label = int(matched_label)
    if not 0 <= label < len(space.ego_candidates):
        raise UnknownCandidateError(f"no candidate labeled {matched_label}")
    loglik = _log_likelihoods(space, label, pset.lambdas)
    with np.errstate(divide="ignore"):
        logw = np.log(pset.weights) + loglik
    peak = logw.max()
    if not np.isfinite(peak):
        raise DegenerateWeightsError("all particle weights vanished in an update")
    w = np.exp(logw - peak)
    updated = ParticleSet(lambdas=pset.lambdas, weights=w / w.sum())
    return _systematic_resample(updated) if cfg.resample else updated


def estimate_lambda(pset: ParticleSet) -> RewardWeights:
    """Posterior mean, renormalized onto the simplex against rounding."""
    mean = pset.weights @ pset.lambdas
    mean = np.clip(mean, 0.0, None)
    return RewardWeights(mean / mean.sum())


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


def posterior_steps(
    obs_self,
    obs_other,
    scenario: Scenario,
    cfg: InferenceConfig,
    seed: int = 0,
) -> Iterator[tuple[int, JointBehaviorSpace, int, RewardWeights]]:
    """The posterior loop for the agent in the scenario's ego seat, one frame at a time.

    Yields (tau, space, k, estimate) for each posterior frame k in order:
    the window start tau, the joint space built at the observed state tau,
    and the posterior mean after the window tau..k.  A space is built only
    when tau changes, so under growing_window the frame-0 space serves every
    frame.  obs_self/obs_other expose s, v, d, xy arrays on the
    planning-rate grid.
    """
    total = len(obs_self.s) - 1
    r = cfg.window_r
    if total < r:
        raise ShortTrackError(f"track has {total} steps, window needs {r}")
    pset = init_particles(cfg, seed)
    built_at, space = None, None
    for k in range(r, total + 1):
        tau = 0 if cfg.growing_window else k - r
        if tau != built_at:
            space = scenario.space_at(observed_state(obs_self, obs_other, tau))
            built_at = tau
        matched = match_observed(obs_self.xy[tau : k + 1], space.ego_candidates)
        pset = update_posterior(pset, matched, space, cfg)
        yield tau, space, k, estimate_lambda(pset)


def infer_agent(
    obs_self,
    obs_other,
    scenario: Scenario,
    cfg: InferenceConfig,
    seed: int = 0,
) -> InferenceSeries:
    """Per-frame weight estimates for the agent sitting in the scenario's ego seat."""
    frames, lams = [], []
    for _, _, k, estimate in posterior_steps(obs_self, obs_other, scenario, cfg, seed):
        frames.append(k)
        lams.append(estimate.values)
    return InferenceSeries(frames=np.array(frames), lambdas=np.stack(lams))


def infer_trace(pair, scenario: Scenario, cfg: InferenceConfig, seed: int = 0) -> dict[str, InferenceSeries]:
    """Estimate both drivers' weights independently (roles swapped for the other car)."""
    return {
        "ego": infer_agent(pair.ego, pair.other, scenario, cfg, seed),
        "other": infer_agent(pair.other, pair.ego, scenario.swapped(), cfg, seed),
    }
