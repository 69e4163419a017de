"""Reward configuration, the mixing weights and the social reward terms.

The per-pair utility is a weighted sum of three accumulated features
(efficiency, comfort, safety); sampling.build_joint_arrays computes them and
caches the utility matrices.  On top of those matrices, component_arrays is
the one implementation of the social terms: the other car's Boltzmann
response distribution, the expected-utility (egoism) reward, the
distribution-divergence (courtesy) reward exp(-KL(absence || presence)) and
the top-two-probability-gap (confidence) reward, for every ego candidate of
one or many spaces at once.  A leader decision mixes them as lam @ terms
(sampling.SeatTerms).

All softmax and KL computations run in the log domain with max subtraction;
raw utilities can reach magnitudes of hundreds and would overflow a naive
exponential.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFiniteRewardError, UnknownCandidateError

if TYPE_CHECKING:
    from .sampling import JointBehaviorSpace

_MINMAX_EPS = 1e-12


@dataclass(frozen=True)
class RewardConfig:
    """Utility weights and feature normalization constants.

    theta_* weigh (efficiency, comfort, safety); beta scales the rationality
    of the Boltzmann response model.  The normalization constants render each
    per-step feature dimensionless and O(1): d0 lateral offset scale (m),
    a0 acceleration scale (m/s^2), j0 jerk scale (m/s^3), sigma_d relative
    distance scale (m), sigma_c conflict-proximity scale (m).
    """

    theta_ego: tuple[float, float, float] = (1.0, 0.5, 10.0)
    theta_other: tuple[float, float, float] = (1.0, 0.5, 10.0)
    beta: float = 1.0
    d0: float = 1.0
    a0: float = 3.0
    j0: float = 5.0
    sigma_d: float = 5.0
    sigma_c: float = 10.0

    def __post_init__(self):
        if not self.beta > 0.0:  # NaN fails too
            raise ValueError("beta must be positive")
        for name in ("d0", "a0", "j0", "sigma_d", "sigma_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not (np.all(np.isfinite(self.theta_ego)) and np.all(np.isfinite(self.theta_other))):
            raise ValueError("utility weights must be finite")


def off_simplex(rows: np.ndarray) -> np.ndarray:
    """Which weight rows (..., 3) are off the 2-simplex: an entry below -1e-9, or a sum off 1 by more than 1e-9."""
    return (rows < -1e-9).any(axis=-1) | ~(abs(rows.sum(axis=-1) - 1.0) <= 1e-9)  # NaN fails the second test


def weights_error(row: np.ndarray) -> ValueError:
    """The error for a weight row that off_simplex rejects."""
    return ValueError(f"reward weights must be non-negative and sum to 1, got {row}")


@dataclass(frozen=True)
class RewardWeights:
    """Mixing weights over (egoism, courtesy, confidence); a point on the 2-simplex."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (3,):
            raise ValueError("reward weights must be a 3-vector")
        if off_simplex(v):
            raise weights_error(v)
        object.__setattr__(self, "values", np.maximum(v, 0.0))  # np.clip(v, 0.0, None), without its wrapper cost

    @classmethod
    def of(cls, egoism: float, courtesy: float, confidence: float) -> "RewardWeights":
        return cls(np.array([egoism, courtesy, confidence], dtype=float))

    @classmethod
    def egoism(cls) -> "RewardWeights":
        return cls.of(1.0, 0.0, 0.0)

    @classmethod
    def courtesy(cls) -> "RewardWeights":
        return cls.of(0.0, 1.0, 0.0)

    @classmethod
    def confidence(cls) -> "RewardWeights":
        return cls.of(0.0, 0.0, 1.0)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def check_ego_label(space, label: int) -> int:
    """label as an int, after checking that the space has an ego candidate with it."""
    label = int(label)
    if not 0 <= label < len(space.ego_candidates):
        raise UnknownCandidateError(f"no ego candidate labeled {label}")
    return label


@dataclass(frozen=True)
class SocialComponents:
    """Per-ego-candidate reward terms cached for one joint behavior space.

    Out of component_arrays every field also carries the leading axes of the
    reward matrices it was given.
    """

    presence_logp: np.ndarray  # (ne, no) log response probabilities
    egoism_raw: np.ndarray  # (ne,)
    egoism_norm: np.ndarray  # (ne,) min-max normalized to [0, 1]
    courtesy: np.ndarray  # (ne,) in (0, 1]
    confidence: np.ndarray  # (ne,) in [0, 1]
    confidence_reward: np.ndarray  # (ne,) in [1, e]
    terms: np.ndarray  # (3, ne) read-only stack of egoism_norm, courtesy, confidence_reward

    def at(self, i: int) -> "SocialComponents":
        """Entry i along the leading axis of batched components (views, not copies)."""
        return SocialComponents(*(value[i] for value in vars(self).values()))


def component_arrays(reward_ego, reward_other, absence_other, beta: float) -> SocialComponents:
    """The three reward terms of every ego candidate, not checked for overflow.

    reward_ego, reward_other: (..., ne, no); absence_other: (..., no).  Any
    leading axes carry through, and every reduction runs over the last axis,
    so entry i of a batch equals the terms of space i alone.  A beta that
    overflows leaves NaN terms; beta_error names it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        log_p = _log_softmax(beta * reward_other)
        p = np.exp(log_p)

        egoism_raw = (p * reward_ego).sum(axis=-1)
        low = egoism_raw.min(axis=-1, keepdims=True)
        span = egoism_raw.max(axis=-1, keepdims=True) - low
        egoism_norm = np.divide(egoism_raw - low, span, out=np.zeros(egoism_raw.shape), where=span > _MINMAX_EPS)

        log_q = _log_softmax(beta * absence_other)[..., None, :]
        q = np.exp(log_q)
        kl = (q * (log_q - log_p)).sum(axis=-1)
        court = np.exp(-np.maximum(kl, 0.0))

    no = p.shape[-1]
    if no == 1:
        conf = np.ones(p.shape[:-1])
    else:
        top2 = np.partition(p, no - 2, axis=-1)[..., -2:]
        conf = top2[..., 1] - top2[..., 0]

    conf_reward = np.exp(conf)
    terms = np.stack([egoism_norm, court, conf_reward], axis=-2)
    terms.flags.writeable = False
    return SocialComponents(
        presence_logp=log_p,
        egoism_raw=egoism_raw,
        egoism_norm=egoism_norm,
        courtesy=court,
        confidence=conf,
        confidence_reward=conf_reward,
        terms=terms,
    )


def beta_error(beta: float) -> NonFiniteRewardError:
    """The error for social terms that are not all finite at this beta."""
    return NonFiniteRewardError(f"rewards.beta = {beta!r} overflows the social reward terms; use a smaller beta")


# Kept only because perfbench/tracing.py wraps sampling.social_components (JointBehaviorSpace calls it).
def social_components(space: "JointBehaviorSpace") -> SocialComponents:
    """Evaluate all three reward terms for every ego candidate at once.

    A beta too large for the utilities overflows the softmax logits; the
    terms then come out NaN, and that raises NonFiniteRewardError.
    """
    beta = space.reward_cfg.beta
    comps = component_arrays(space.reward_ego, space.reward_other, space.absence_other, beta)
    if not np.isfinite(comps.terms).all():
        raise beta_error(beta)
    return comps
