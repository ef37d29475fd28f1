"""Spectral embedding of the normalized adjacency and k-means partitioning.

The leading right-eigenvectors of D^-1 W approximate cluster indicator
functions. They are computed through the symmetric similarity transform
M = D^-1/2 W D^-1/2 (v = D^-1/2 u for each symmetric eigenvector u), so a
symmetric eigensolver suffices and all eigenvalues are real. Only the k
leading pairs are solved for, by LAPACK's subset driver (scipy.linalg.eigh
with subset_by_index), on one n x n working array beside W; the whole
spectrum is solved only when rounding ties make LAPACK return fewer than k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graph import GeoSocialGraph, normalize

KMEANS_MAX_ITER = 300


class ConvergenceFailure(NumericalError):
    pass


@dataclass(eq=False)
class Embedding:
    """Rows are per-individual spectral coordinates (v^1_j, ..., v^k_j);
    eigenvalues are sorted nonincreasing, the leading one equal to 1."""

    coords: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        return self.coords.shape[1]


@dataclass(eq=False)
class Partition:
    """Community assignment with 0-based contiguous ids, every id nonempty.

    `objective` carries the quality value of the producing optimizer
    (within-cluster squared distance for k-means, modularity for Louvain)
    so callers can select among repeated runs. `degenerate` flags runs
    where the input could not support the requested cluster count.
    `convergence` holds the optimizer's own counts (the mixture baseline's
    E-steps and cap flag), copied into report run records as they are.
    """

    assignment: np.ndarray
    objective: float | None = None
    degenerate: bool = False
    convergence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=int)
        if self.assignment.ndim != 1:
            raise ValueError("assignment must be a flat vector")
        if self.assignment.size:
            ids = np.unique(self.assignment)
            if ids[0] != 0 or ids[-1] != ids.size - 1:
                raise ValueError("community ids must be 0-based and contiguous")

    @property
    def n(self) -> int:
        return self.assignment.size

    @property
    def k(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    @classmethod
    def from_labels(cls, raw, objective: float | None = None,
                    degenerate: bool = False, convergence: dict | None = None) -> "Partition":
        """Relabel arbitrary community ids to 0..k-1 by first occurrence."""
        return cls(relabel_first_occurrence(np.asarray(raw)), objective=objective,
                   degenerate=degenerate, convergence=convergence or {})


def relabel_first_occurrence(raw: np.ndarray) -> np.ndarray:
    uniq, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=int)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return rank[inverse]


def embed(graph: GeoSocialGraph, k: int) -> Embedding:
    """Leading k eigenpairs of D^-1 W via the symmetric transform."""
    n = graph.n
    if not (1 <= k <= n):
        raise ValueError(f"embedding dimension k={k} outside [1, {n}]")
    normalize(graph)  # strength validation only
    root = np.sqrt(graph.d)
    vals, vecs = _scaled_eigh(graph.W, root, subset_by_index=[n - k, n - 1])
    if vals.size < k:
        # LAPACK's bisection returns fewer pairs than asked for when rounding
        # ties a cluster of eigenvalues across index n - k (at alpha = 1,
        # eigenvalue 1 repeats once per connected component). Its documented
        # cure: solve the whole spectrum (divide and conquer; MRRR is several
        # times slower on such clusters) and keep the top k.
        vals, vecs = _scaled_eigh(graph.W, root, driver="evd")
        vals, vecs = vals[n - k:], vecs[:, n - k:]
    coords = vecs[:, ::-1] / root[:, None]
    return Embedding(coords=coords, eigenvalues=vals[::-1])


def _scaled_eigh(w: np.ndarray, root: np.ndarray, **solver) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of D^-1/2 W D^-1/2 from scipy.linalg.eigh with
    the `solver` options, on one n x n working array."""
    # Imported here: at module level it adds ~90 ms to every CLI process.
    import scipy.linalg

    sym = np.outer(root, root)
    np.divide(w, sym, out=sym)
    try:
        # sym is exactly symmetric, so its F-ordered view sym.T is the same
        # matrix and LAPACK overwrites it in place instead of copying.
        return scipy.linalg.eigh(sym.T, overwrite_a=True, **solver)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc


def kmeans(points: np.ndarray, k_clusters: int, seed: int) -> Partition:
    """Lloyd's algorithm with k-means++ seeding, deterministic given `seed`.

    Runs to an assignment fixed point or a 300-iteration cap. Empty clusters
    are repaired by promoting the point currently farthest from its center
    to a singleton center, which keeps the cluster count fixed and never
    increases the objective; with more clusters than distinct points, the
    copies of a point are split over several clusters and the assignment
    still settles. If every point is identical and more than one cluster
    was requested, a single-community partition is returned with the
    `degenerate` flag set instead of failing.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not (1 <= k_clusters <= n):
        raise ValueError(f"k_clusters={k_clusters} outside [1, {n}]")
    if k_clusters > 1 and np.all(points == points[0]):
        return Partition(np.zeros(n, dtype=int), objective=0.0, degenerate=True)
    rng = np.random.default_rng(seed)
    centers = kmeans_pp_init(points, k_clusters, rng)
    assign, _, objective = lloyd(points, centers)
    return Partition(relabel_first_occurrence(assign), objective=objective)


def kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: k rows of `points`, each drawn with probability
    proportional to its squared distance from the nearest row already drawn."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0.0:
            nxt = int(rng.choice(n, p=d2 / total))
        else:
            # Remaining mass is on duplicates of chosen centers; fall back
            # to a uniform draw over the not-yet-chosen indices.
            pool = np.setdiff1d(np.arange(n), np.array(chosen))
            nxt = int(rng.choice(pool))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[chosen].copy()


def lloyd(points: np.ndarray, centers: np.ndarray,
          max_iter: int = KMEANS_MAX_ITER) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from explicit initial centers.

    Returns (assignment, centers, objective). Each point is assigned to the
    center minimizing ||c||^2 - 2 x.c, which is ||x - c||^2 less the row
    constant ||x||^2, so the cross term for all pairs is one (n, k) GEMM.
    The objective (total squared distance to assigned centers) is then
    recomputed exactly as sum((x - c_assign)^2) and asserted nonincreasing
    every iteration; the same exact distances drive the empty-cluster
    repair. Centers are updated as one (k, n) one-hot GEMM divided by the
    cluster sizes; after a repair, a cluster of copies of one point is
    centered on that point exactly. A step costs O(n*k*dim) time and
    O(n*dim) memory.
    """
    points = np.asarray(points, dtype=float)
    centers = np.array(centers, dtype=float)
    n, k = points.shape[0], centers.shape[0]
    prev_assign = None
    prev_obj = np.inf
    assign = np.zeros(n, dtype=int)
    obj = 0.0
    for _ in range(max_iter):
        score = (centers**2).sum(axis=1) - 2.0 * (points @ centers.T)
        assign = score.argmin(axis=1)
        point_d2 = _assigned_sq_dist(points, centers, assign)
        repaired = _repair_empty(points, centers, assign, point_d2, k)
        obj = float(point_d2.sum())
        assert obj <= prev_obj * (1 + 1e-12) + 1e-12, "Lloyd objective increased"
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        prev_obj = obj
        onehot = np.zeros((k, n))
        onehot[assign, np.arange(n)] = 1.0
        centers = onehot @ points / np.bincount(assign, minlength=k)[:, None]
        if repaired:
            _snap_uniform_clusters(points, centers, assign)
    return assign, centers, obj


def _assigned_sq_dist(points: np.ndarray, centers: np.ndarray,
                      assign: np.ndarray) -> np.ndarray:
    """sum((points - centers[assign])**2, axis=1) through one (n, dim) temporary."""
    diff = centers[assign]
    np.subtract(points, diff, out=diff)
    diff *= diff
    return diff.sum(axis=1)


def _snap_uniform_clusters(points: np.ndarray, centers: np.ndarray,
                           assign: np.ndarray) -> None:
    """Set the center of each cluster whose members are all one point to
    that point, exactly.

    The mean of m copies of a point is the point only up to rounding.
    Copies share a score row, so the argmin keeps them together and only
    the repair splits them over several clusters, as it must when k exceeds
    the number of distinct points. With those centers a few ulps apart,
    the argmin sends the copies to whichever rounds lowest, a cluster
    empties again and the repair moves another copy, so the assignment
    need not settle before the cap. Exact centers tie exactly, the argmin
    picks the same index every time, and the repair, facing exact zero
    distances, promotes the same point again. Called only after a repair
    moved a point: other steps split no copies, and on them the check
    would add about a quarter to a k-means call on a 748 x 31 embedding.
    """
    rep = np.empty(centers.shape[0], dtype=int)
    rep[assign] = np.arange(assign.size)  # some member of each cluster
    spread = np.bincount(assign, weights=_assigned_sq_dist(points, points[rep], assign),
                         minlength=centers.shape[0])
    uniform = spread == 0.0
    centers[uniform] = points[rep[uniform]]


def _repair_empty(points: np.ndarray, centers: np.ndarray, assign: np.ndarray,
                  point_d2: np.ndarray, k: int) -> bool:
    """Fill each empty cluster with a point; True if any point was moved."""
    moved = False
    while True:
        counts = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return moved
        moved = True
        # Only steal from clusters that keep at least one member.
        eligible = counts[assign] >= 2
        masked = np.where(eligible, point_d2, -np.inf)
        far = int(masked.argmax())
        c = int(empties[0])
        centers[c] = points[far]
        assign[far] = c
        point_d2[far] = 0.0


def spectral_cluster(graph: GeoSocialGraph, k_clusters: int, seed: int) -> Partition:
    """Embed with k_clusters leading eigenvectors, then k-means the rows."""
    emb = embed(graph, k_clusters)
    return kmeans(emb.coords, k_clusters, seed)
