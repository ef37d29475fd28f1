"""Comparison methods: an EM-fitted 2-D Gaussian mixture on mean locations
(no social input), and k-means applied directly to the columns of the
normalized adjacency.

The mixture uses full 2x2 covariances. Individuals are then assigned to the
component with the smallest variance-normalized distance ||x - mu_i|| / s_i,
where s_i is the square root of the mean covariance eigenvalue of component
i (for a 2x2 matrix, trace/2); the per-component scales are kept on the fit
object so reports can audit the rule.

EM stops once an iteration raises the mean log-likelihood per point by less
than EM_TOL = 1e-3, the rule and default of scikit-learn's GaussianMixture.
A rule on the per-point gain stops a fit of n points at the same iteration
as a fit of those points repeated; a tolerance on the total log-likelihood
tightens as n grows (1e-8 on a total near -1.2e4 sent 7 of 10 fits on the
748-point acceptance dataset to the 500-iteration cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import GeoSocialGraph, Individual, locations, normalize
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


def _log_gauss2d(points: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    diff = points - mean
    quad = (
        inv[0, 0] * diff[:, 0] ** 2
        + (inv[0, 1] + inv[1, 0]) * diff[:, 0] * diff[:, 1]
        + inv[1, 1] * diff[:, 1] ** 2
    )
    return -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad


def fit_gmm(points: np.ndarray, k: int, seed: int, max_iter: int = EM_MAX_ITER) -> GmmFit:
    """EM for a k-component full-covariance 2-D mixture.

    Initialized with k-means++ centers and one hard assignment pass.
    Covariance eigenvalues are floored at 1e-6 of the data variance scale,
    so co-located points never collapse a component; away from degeneracy
    the M-step is exact and the log-likelihood is nondecreasing.

    Stops when an E-step's log-likelihood exceeds the previous one by less
    than EM_TOL per point, (L_t - L_{t-1}) / n < EM_TOL, or after `max_iter`
    E-steps; `cap_hit` is set only in the second case.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    reg = COV_REG * max(float(points.var(axis=0).mean()), 1e-300)

    means = kmeans_pp_init(points, k, rng)
    d2 = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    resp = np.zeros((n, k))
    resp[np.arange(n), d2.argmin(axis=1)] = 1.0
    weights, means, covs = _m_step(points, resp, reg)

    history: list[float] = []
    cap_hit = True
    for _ in range(max_iter):
        log_prob = np.column_stack(
            [np.log(max(weights[i], 1e-300)) + _log_gauss2d(points, means[i], covs[i])
             for i in range(k)]
        )
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
    n, k = resp.shape
    mass = resp.sum(axis=0)
    weights = mass / n
    means = np.zeros((k, 2))
    covs = np.zeros((k, 2, 2))
    for i in range(k):
        if mass[i] < 1e-12:
            # Dead component: keep it harmlessly wide instead of failing.
            means[i] = points.mean(axis=0)
            covs[i] = np.eye(2) * max(reg / COV_REG, reg)
            continue
        means[i] = resp[:, i] @ points / mass[i]
        diff = points - means[i]
        covs[i] = _floor_eigenvalues((resp[:, i, None] * diff).T @ diff / mass[i], reg)
    return weights, means, covs


def _floor_eigenvalues(cov: np.ndarray, floor: float) -> np.ndarray:
    """Clip the eigenvalues of a symmetric 2x2 matrix from below."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= floor:
        return sym
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def gmm_assign(points: np.ndarray, fit: GmmFit) -> np.ndarray:
    """Nearest component mean under the per-component scalar normalization."""
    dist = np.linalg.norm(points[:, None, :] - fit.means[None, :, :], axis=2)
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
    one partition per seed; the features are built once and freed on return."""
    features = normalize(graph).T.copy()
    return [kmeans(features, k_clusters, seed) for seed in seeds]
