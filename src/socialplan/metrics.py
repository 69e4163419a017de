"""Evaluation statistics for traces, trajectories, and weight series."""
from __future__ import annotations

import numpy as np

from .errors import HorizonExceedsTraceError, NonFiniteDistanceError, NonTerminatingError

POLICY_LABELS = ("egoism", "courtesy", "confidence")


def dominant_policy(lam) -> str:
    """Label of the largest weight component; ties break in label order."""
    values = getattr(lam, "values", lam)
    return POLICY_LABELS[int(np.argmax(np.asarray(values, dtype=float)))]


def _pairwise_distances(trace) -> np.ndarray:
    """Distance between the cars at every recorded state; NonFiniteDistanceError names the first that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        pos_e, pos_o = trace.positions()
        dist = np.linalg.norm(pos_e - pos_o, axis=1)
    finite = np.isfinite(dist)
    if not finite.all():
        x = trace.joint_states[int(np.argmin(finite))]
        raise NonFiniteDistanceError(
            f"the distance between the cars overflows at t={x.t}: ego s={x.ego.s!r}, d={x.ego.d!r}, "
            f"other s={x.other.s!r}, d={x.other.d!r}; use smaller state values"
        )
    return dist


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


def horizon_mse(generated_xy: np.ndarray, truth_xy: np.ndarray, dt: float, horizons) -> np.ndarray:
    """Mean squared Cartesian error of each generated row at each horizon: (..., len(horizons), n).

    generated_xy (..., n, T, 2) holds n trajectories and truth_xy (..., m, 2)
    the ground truth, all sampled every dt from the same start; leading axes
    broadcast, and each entry equals its own call.  At horizon h the steps
    k with k*dt <= h contribute.  One squared-distance array serves every
    horizon; each takes the mean of its prefix (sum / count, as np.mean).
    """
    steps = []
    for horizon in horizons:
        k = int(np.floor(horizon / dt + 1e-9))
        if k >= generated_xy.shape[-2] or k >= truth_xy.shape[-2]:
            raise HorizonExceedsTraceError(
                f"horizon {horizon} s needs {k + 1} samples, have {generated_xy.shape[-2]} and {truth_xy.shape[-2]}"
            )
        steps.append(k)
    w = max(steps) + 1
    diff = generated_xy[..., :w, :] - truth_xy[..., None, :w, :]
    sq = (diff * diff).sum(axis=-1)
    return np.stack([sq[..., : k + 1].sum(axis=-1) / (k + 1) for k in steps], axis=-2)


# Kept only because perfbench/tracing.py wraps metrics.trajectory_mse; the pipelines call horizon_mse.
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
