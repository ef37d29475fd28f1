"""Comparison methods: an EM-fitted 2-D Gaussian mixture on mean locations
(no social input), and k-means applied directly to the columns of the
normalized adjacency.

The mixture uses full 2x2 covariances. Individuals are then assigned to the
component with the smallest variance-normalized distance ||x - mu_i|| / s_i,
where s_i is the square root of the mean covariance eigenvalue of component
i (for a 2x2 matrix, trace/2). No report carries the per-component scales;
a library caller reads them from the fit object (`GmmFit.scales`).

EM stops once an iteration raises the mean log-likelihood per point by less
than EM_TOL = 1e-3, the rule and default of scikit-learn's GaussianMixture.
A rule on the per-point gain stops a fit of n points at the same iteration
as a fit of those points repeated; a tolerance on the total log-likelihood
tightens as n grows (1e-8 on a total near -1.2e4 sent 7 of 10 fits on the
748-point acceptance dataset to the 500-iteration cap).

Each EM step is one whole-array expression over all k components (an (n, k)
E-step, batched M-step matmuls and eigenvalue floor); only the iteration loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .graph import GeoSocialGraph, Individual, locations, sq_dist, strengths
from .spectral import Partition, kmeans, kmeans_pp_init

EM_MAX_ITER = 500
EM_TOL = 1e-3  # per point
COV_REG = 1e-6


@dataclass(eq=False)
class GmmFit:
    """Fitted mixture: parameters, the log-likelihood at each E-step, the
    scalar distance scales used for assignment, and whether EM ran out of
    iterations before its stop rule fired."""

    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray
    log_likelihoods: list[float]
    scales: np.ndarray
    cap_hit: bool


def _log_gauss2d(points: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """(n, k) log-densities of every point under every 2-D Gaussian."""
    det = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] * covs[:, 1, 0]
    cross = -covs[:, 0, 1] / det + -covs[:, 1, 0] / det
    dx, dy = (points[:, None, :] - means[None, :, :]).transpose(2, 0, 1)
    quad = covs[:, 1, 1] / det * dx ** 2 + cross * dx * dy + covs[:, 0, 0] / det * dy ** 2
    return -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad


def fit_gmm(points: np.ndarray, k: int, seed: int, max_iter: int = EM_MAX_ITER) -> GmmFit:
    """EM for a k-component full-covariance 2-D mixture.

    Initialized with k-means++ centers and one hard assignment pass.
    Covariance eigenvalues are floored at 1e-6 of the data variance scale,
    so co-located points never collapse a component; away from degeneracy
    the M-step is exact and the log-likelihood is nondecreasing.

    Raises DataError when the squared variance of the points overflows
    float64, before any draw.

    Stops when an E-step's log-likelihood exceeds the previous one by less
    than EM_TOL per point, (L_t - L_{t-1}) / n < EM_TOL, or after `max_iter`
    E-steps; `cap_hit` is set only in the second case.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not (1 <= k <= n):
        raise DataError(f"k={k} outside [1, {n}]")
    with np.errstate(over="ignore", invalid="ignore"):
        variance = float(points.var(axis=0).mean())
    if not math.isfinite(variance * variance):
        # A component's 2x2 covariance determinant is of the order of the
        # squared variance; past float64 it overflows and EM collapses.
        raise DataError(f"location variance {variance:.3g} m^2 is too large for the "
                        "mixture: its square overflows float64")
    reg = COV_REG * max(variance, 1e-300)

    means = kmeans_pp_init(points, k, np.random.default_rng(seed))
    resp = np.eye(k)[sq_dist(points[:, None, :], means[None, :, :]).argmin(axis=1)]
    weights, means, covs = _m_step(points, resp, reg)

    history: list[float] = []
    cap_hit = True
    for _ in range(max_iter):
        log_prob = np.log(np.maximum(weights, 1e-300)) + _log_gauss2d(points, means, covs)
        top = log_prob.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_prob - top).sum(axis=1))
        history.append(float(log_norm.sum()))
        if len(history) > 1 and (history[-1] - history[-2]) / n < EM_TOL:
            cap_hit = False
            break
        resp = np.exp(log_prob - log_norm[:, None])
        weights, means, covs = _m_step(points, resp, reg)

    scales = np.sqrt(0.5 * (covs[:, 0, 0] + covs[:, 1, 1]))
    return GmmFit(means=means, covariances=covs, weights=weights,
                  log_likelihoods=history, scales=scales, cap_hit=cap_hit)


def _m_step(points: np.ndarray, resp: np.ndarray, reg: float):
    mass = resp.sum(axis=0)
    dead = mass < 1e-12  # kept harmlessly wide at the data mean
    # Refit every column of the full `resp`, then patch the dead rows: a
    # `resp[:, live]` copy is F-ordered and its matmul rounds differently,
    # and the unit divisor keeps a zero mass from warning.
    safe = np.where(dead, 1.0, mass)
    means = resp.T @ points / safe[:, None]
    diff = points[None, :, :] - means[:, None, :]
    covs = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff / safe[:, None, None]
    covs = _floor_eigenvalues(covs, reg)
    means[dead] = points.mean(axis=0)
    covs[dead] = np.eye(2) * max(reg / COV_REG, reg)
    return mass / resp.shape[0], means, covs


def _floor_eigenvalues(covs: np.ndarray, floor: float) -> np.ndarray:
    """Clip the eigenvalues of each symmetric 2x2 matrix in a stack from below."""
    sym = 0.5 * (covs + covs.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(sym)
    clipped = (vecs * np.maximum(vals, floor)[:, None, :]) @ vecs.transpose(0, 2, 1)
    return np.where(vals[:, :1, None] >= floor, sym, clipped)


def gmm_assign(points: np.ndarray, fit: GmmFit) -> np.ndarray:
    """Nearest component mean under the per-component scalar normalization."""
    dist = np.sqrt(sq_dist(points[:, None, :], fit.means[None, :, :]))
    return (dist / fit.scales[None, :]).argmin(axis=1)


def gmm_cluster(individuals: Sequence[Individual], k_components: int, seed: int) -> Partition:
    """Mixture-model baseline on mean locations only; the partition's
    `convergence` holds the E-step count and whether EM hit its cap."""
    points = locations(individuals)
    fit = fit_gmm(points, k_components, seed)
    return Partition.from_labels(
        gmm_assign(points, fit), objective=fit.log_likelihoods[-1],
        convergence={"em_iters": len(fit.log_likelihoods), "cap_hit": fit.cap_hit},
    )


def kmeans_columns(graph: GeoSocialGraph, k_clusters: int,
                   seeds: Sequence[int]) -> list[Partition]:
    """k-means where individual j's feature vector is column j of D^-1 W,
    one partition per seed; the features are built once and freed on return.
    W is symmetric, so that column is row j of W D^-1, and the features are
    one C-contiguous n x n array."""
    features = graph.W / strengths(graph)[None, :]
    return [kmeans(features, k_clusters, seed) for seed in seeds]
