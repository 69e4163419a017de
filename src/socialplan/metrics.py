"""Evaluation statistics for traces, trajectories, and weight series."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonExceedsTraceError, NonTerminatingError

POLICY_LABELS = ("egoism", "courtesy", "confidence")


def dominant_policy(lam) -> str:
    """Label of the largest weight component; ties break in label order."""
    values = getattr(lam, "values", lam)
    return POLICY_LABELS[int(np.argmax(np.asarray(values, dtype=float)))]


@dataclass(frozen=True)
class InteractionStats:
    are: float
    ait: float
    min_distance: float

    def __post_init__(self):
        if not self.are >= self.min_distance >= 0.0:
            raise ValueError("ARE must bound the minimum distance from above")
        if self.ait < 0.0:
            raise ValueError("interaction time cannot be negative")


def _pairwise_distances(trace) -> np.ndarray:
    pos_e, pos_o = trace.positions()
    return np.linalg.norm(pos_e - pos_o, axis=1)


def are(trace) -> float:
    """Mean Euclidean distance between the two cars over the recorded states."""
    return float(np.mean(_pairwise_distances(trace)))


def min_distance(trace) -> float:
    """Smallest Euclidean distance between the two cars over the recorded states."""
    return float(np.min(_pairwise_distances(trace)))


def ait(trace) -> float:
    """Elapsed time until the first conflict-point crossing."""
    if not trace.terminated:
        raise NonTerminatingError("trace hit the step limit before a crossing")
    return float((len(trace.joint_states) - 1) * trace.dt)


def interaction_stats(trace) -> InteractionStats:
    return InteractionStats(are=are(trace), ait=ait(trace), min_distance=min_distance(trace))


def horizon_mse(generated_xy: np.ndarray, truth_xy: np.ndarray, dt: float, horizons) -> np.ndarray:
    """Mean squared Cartesian error of each generated row at each horizon: (len(horizons), n).

    generated_xy (n, T, 2) holds n trajectories and truth_xy (m, 2) the
    ground truth, all sampled every dt from the same start.  At horizon h
    the steps k with k*dt <= h contribute.  One squared-distance matrix
    serves every horizon; each takes the mean of its prefix.
    """
    steps = []
    for horizon in horizons:
        k = int(np.floor(horizon / dt + 1e-9))
        if k >= generated_xy.shape[-2] or k >= len(truth_xy):
            raise HorizonExceedsTraceError(
                f"horizon {horizon} s needs {k + 1} samples, have {generated_xy.shape[-2]} and {len(truth_xy)}"
            )
        steps.append(k)
    w = max(steps) + 1
    diff = generated_xy[:, :w] - truth_xy[None, :w]
    sq = np.sum(diff * diff, axis=-1)
    return np.array([np.mean(sq[:, : k + 1], axis=-1) for k in steps])


def trajectory_mse(generated, ground_truth, horizon: float) -> float:
    """Mean squared Cartesian error over the steps within the horizon.

    Both trajectories must share dt; steps k with k*dt <= horizon contribute.
    """
    if abs(generated.dt - ground_truth.dt) > 1e-12:
        raise ValueError("trajectories must share dt")
    return float(horizon_mse(generated.xy[None], ground_truth.xy, generated.dt, (horizon,))[0, 0])


def _dominant_series(lambda_series) -> list[str]:
    return [dominant_policy(lam) for lam in lambda_series]


def psf(lambda_series) -> int:
    """Policy-switch frequency: count of dominant-label changes along the series."""
    labels = _dominant_series(lambda_series)
    if not labels:
        raise ValueError("empty weight series")
    return int(sum(a != b for a, b in zip(labels, labels[1:])))


def dop(lambda_series) -> dict[str, float]:
    """Dominance of policy: fraction of frames each label dominates."""
    labels = _dominant_series(lambda_series)
    if not labels:
        raise ValueError("empty weight series")
    return {name: labels.count(name) / len(labels) for name in POLICY_LABELS}
