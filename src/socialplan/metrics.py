"""Evaluation statistics for traces, trajectories, and weight series."""
from __future__ import annotations

import numpy as np

from .errors import HorizonExceedsTraceError, NonFiniteDistanceError, NonTerminatingError

POLICY_LABELS = ("egoism", "courtesy", "confidence")


def dominant_labels(lambda_series) -> np.ndarray:
    """The index in POLICY_LABELS of each weight row's largest component, ties to the first: (F,) from (F, 3)."""
    labels = np.asarray(lambda_series, dtype=float).reshape(-1, len(POLICY_LABELS)).argmax(axis=-1)
    if not len(labels):
        raise ValueError("empty weight series")
    return labels


def dominant_policy(lam) -> str:
    """Label of the largest weight component; ties break in label order."""
    return POLICY_LABELS[dominant_labels(getattr(lam, "values", lam))[0]]


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


def horizon_steps(generated: int, truth: int, dt: float, horizons) -> list[int]:
    """The last step k (k*dt <= h) of each horizon h, for traces of generated and truth samples every dt.

    Raises HorizonExceedsTraceError for the first horizon either trace is too short for.
    """
    steps = []
    for horizon in horizons:
        k = int(np.floor(horizon / dt + 1e-9))
        if k >= generated or k >= truth:
            raise HorizonExceedsTraceError(f"horizon {horizon} s needs {k + 1} samples, have {generated} and {truth}")
        steps.append(k)
    return steps


def horizon_mse(generated_xy: np.ndarray, truth_xy: np.ndarray, dt: float, horizons) -> np.ndarray:
    """Mean squared Cartesian error of each generated row at each horizon: (..., len(horizons), n).

    generated_xy (..., n, T, 2) holds n trajectories and truth_xy (..., m, 2)
    the ground truth, all sampled every dt from the same start; leading axes
    broadcast, and each entry equals its own call.  At horizon h the steps
    k with k*dt <= h contribute (horizon_steps).  One squared-distance array
    serves every horizon; each takes its prefix's mean (sum / count, as np.mean).
    """
    steps = horizon_steps(generated_xy.shape[-2], truth_xy.shape[-2], dt, horizons)
    w = max(steps) + 1
    diff = generated_xy[..., :w, :] - truth_xy[..., None, :w, :]
    diff *= diff
    sq = diff[..., 0] + diff[..., 1]  # sum(axis=-1) makes this one addition, at a per-element loop's cost
    return np.stack([sq[..., : k + 1].sum(axis=-1) / (k + 1) for k in steps], axis=-2)


# Kept only because perfbench/tracing.py wraps metrics.trajectory_mse; the pipelines call horizon_mse.
def trajectory_mse(generated, ground_truth, horizon: float) -> float:
    """Mean squared Cartesian error over the steps within the horizon.

    Both trajectories must share dt; steps k with k*dt <= horizon contribute.
    """
    if abs(generated.dt - ground_truth.dt) > 1e-12:
        raise ValueError("trajectories must share dt")
    return float(horizon_mse(generated.xy[None], ground_truth.xy, generated.dt, (horizon,))[0, 0])


def psf(lambda_series) -> int:
    """Policy-switch frequency: count of dominant-label changes along the series."""
    labels = dominant_labels(lambda_series)
    return int((labels[1:] != labels[:-1]).sum())


def dop(lambda_series) -> dict[str, float]:
    """Dominance of policy: fraction of frames each label dominates."""
    labels = dominant_labels(lambda_series)
    counts = np.bincount(labels, minlength=len(POLICY_LABELS)).tolist()  # Python ints, divided as such
    return {name: count / len(labels) for name, count in zip(POLICY_LABELS, counts)}
