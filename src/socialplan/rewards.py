"""Reward configuration, the mixing weights and the social reward terms.

The per-pair utility is a weighted sum of three accumulated features
(efficiency, comfort, safety); sampling.build_joint_arrays computes them and
caches the utility matrices.  On top of those matrices, component_arrays is
the one implementation of the social terms: the other car's Boltzmann
response distribution, the expected-utility (egoism) reward, the
distribution-divergence (courtesy) reward exp(-KL(absence || presence)) and
the top-two-probability-gap (confidence) reward, for every ego candidate of
one or many spaces at once.  A leader decision mixes them with leader_scores
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


def leader_scores(lam: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The leader's score of every ego candidate, lam[0] * egoism + lam[1] * courtesy + lam[2] * confidence.

    lam (3, ...) broadcasts against terms (3, ..., ne), both with the three
    terms on the first axis.  The sum is written out elementwise rather than
    as a matrix product, whose last bits depend on its shapes and padding: a
    candidate's score has the same bits in any batch, so every leader
    decision agrees on a near-tie.
    """
    return lam[0] * terms[0] + lam[1] * terms[1] + lam[2] * terms[2]


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
    terms: np.ndarray  # (3, ne) read-only rows egoism_norm, courtesy, confidence_reward (those fields are views of them)

    def at(self, i: int, ne: int) -> "SocialComponents":
        """Entry i along the leading axis of batched components, on its first ne ego candidates (views, not copies)."""
        fields = {name: value[i, ..., :ne] for name, value in vars(self).items()}
        fields["presence_logp"] = self.presence_logp[i, :ne]
        return SocialComponents(**fields)


def component_arrays(reward_ego, reward_other, absence_other, beta: float, real=True) -> SocialComponents:
    """The three reward terms of every ego candidate, not checked for overflow.

    reward_ego, reward_other: (..., ne, no); absence_other: (..., no).  Any
    leading axes carry through, and every reduction runs over the last axis,
    so entry i of a batch equals the terms of space i alone.  real (..., ne)
    marks the ego rows that are candidates: the egoism min-max runs over
    those alone, the one reduction along the ego axis, so a padding row
    changes no bit of a real row's terms.  A beta that overflows leaves NaN
    terms; beta_error names it.
    """
    ne, no = reward_other.shape[-2:]
    with np.errstate(over="ignore", invalid="ignore"):
        # the absence row under the presence rows: the rows are independent, so one log-softmax serves both
        logits = np.empty(reward_other.shape[:-2] + (ne + 1, no))
        np.multiply(reward_other, beta, out=logits[..., :ne, :])
        np.multiply(absence_other, beta, out=logits[..., ne, :])
        log_all = _log_softmax(logits)
        p_all = np.exp(log_all)
        log_p, p = log_all[..., :ne, :], p_all[..., :ne, :]
        log_q, q = log_all[..., ne:, :], p_all[..., ne:, :]

        egoism_raw = (p * reward_ego).sum(axis=-1)
        # each term is written into its row; zeros, as the egoism row keeps 0 where the span is too small
        terms = np.zeros(egoism_raw.shape[:-1] + (3, ne))
        low = np.minimum.reduce(egoism_raw, axis=-1, keepdims=True, initial=np.inf, where=real)
        span = np.maximum.reduce(egoism_raw, axis=-1, keepdims=True, initial=-np.inf, where=real) - low
        np.divide(egoism_raw - low, span, out=terms[..., 0, :], where=span > _MINMAX_EPS)

        kl = (q * (log_q - log_p)).sum(axis=-1)
        np.exp(-np.maximum(kl, 0.0), out=terms[..., 1, :])

    if no == 1:
        conf = np.ones(p.shape[:-1])
    else:
        top2 = np.partition(p, no - 2, axis=-1)[..., -2:]
        conf = top2[..., 1] - top2[..., 0]

    np.exp(conf, out=terms[..., 2, :])
    terms.flags.writeable = False  # before the field views are taken, so that they are read-only too
    return SocialComponents(
        presence_logp=log_p,
        egoism_raw=egoism_raw,
        egoism_norm=terms[..., 0, :],
        courtesy=terms[..., 1, :],
        confidence=conf,
        confidence_reward=terms[..., 2, :],
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
