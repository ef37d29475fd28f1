"""Spectral embedding of the normalized adjacency and k-means partitioning.

The leading right-eigenvectors of D^-1 W approximate cluster indicator
functions. They are computed through the symmetric similarity transform
M = D^-1/2 W D^-1/2 (v = D^-1/2 u for each symmetric eigenvector u), so a
symmetric eigensolver suffices and all eigenvalues are real. Only the k
leading pairs are solved for, by LAPACK's MRRR subset routine dsyevr, on one
n x n working array: a fresh one beside W, or W's own array when the caller
passes `overwrite`. The whole spectrum is solved, by dsyevd in that same
array, only when rounding ties make LAPACK return fewer than k. Both
routines are called through scipy's own f2py binding, the module
`scipy.linalg.lapack` re-exports, loaded without importing the
`scipy.linalg` package (see `_lapack`).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .graph import ROW_BLOCK, GeoSocialGraph, normalize, sq_dist

KMEANS_MAX_ITER = 300


@dataclass(eq=False)
class Embedding:
    """Rows are per-individual spectral coordinates (v^1_j, ..., v^k_j);
    eigenvalues are sorted nonincreasing, the leading one equal to 1."""

    coords: np.ndarray
    eigenvalues: np.ndarray


@dataclass(eq=False)
class Partition:
    """Community assignment with 0-based contiguous ids, every id nonempty:
    an (n,) vector for one graph, or an (n, n_slices) matrix for a slice
    stack, with ids contiguous over the whole matrix.

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
        if self.assignment.ndim not in (1, 2):
            raise ValueError("assignment must be an (n,) vector or an (n, n_slices) matrix")
        if self.assignment.size:
            ids = np.unique(self.assignment)
            if ids[0] != 0 or ids[-1] != ids.size - 1:
                raise ValueError("community ids must be 0-based and contiguous")

    @property
    def k(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    @classmethod
    def from_labels(cls, raw, objective: float | None = None,
                    convergence: dict | None = None) -> "Partition":
        """Relabel arbitrary community ids of an (n,) vector to 0..k-1 by
        first occurrence."""
        return cls(relabel_first_occurrence(np.asarray(raw)), objective=objective,
                   convergence=convergence or {})


def relabel_first_occurrence(raw: np.ndarray) -> np.ndarray:
    uniq, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=int)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return rank[inverse]


def embed(graph: GeoSocialGraph, k: int, overwrite: bool = False) -> Embedding:
    """Leading k eigenpairs of D^-1 W via the symmetric transform.

    D^-1/2 W D^-1/2 is formed in a fresh n x n array, which LAPACK then
    overwrites. With `overwrite` it is formed in graph.W's own array
    instead, which afterwards holds no meaningful values: for callers whose
    W is dead after the embed. Both give the same bits."""
    n = graph.n
    if not (1 <= k <= n):
        raise DataError(f"embedding dimension k={k} outside [1, {n}]")
    normalize(graph)  # strength validation only
    root = np.sqrt(graph.d)
    a = _scaled(graph.W, root, graph.W if overwrite else np.empty((n, n)))
    diagonal = a.diagonal().copy()
    vals, vecs = _eigh(a, n - k)
    if vals.size < k:
        # LAPACK's bisection returns fewer pairs than asked for when rounding
        # ties a cluster of eigenvalues across index n - k (at alpha = 1,
        # eigenvalue 1 repeats once per connected component). Its documented
        # cure: solve the whole spectrum (divide and conquer; MRRR is several
        # times slower on such clusters) and keep the top k. dsyevr destroyed
        # the diagonal and the upper triangle of `a` (the lower one of its
        # Fortran view) and left the strict lower triangle, which rebuilds it.
        for i in range(n - 1):
            a[i, i + 1:] = a[i + 1:, i]
        np.fill_diagonal(a, diagonal)
        vals, vecs = _eigh(a)
        vals, vecs = vals[n - k:], vecs[:, n - k:]
    coords = vecs[:, ::-1] / root[:, None]
    return Embedding(coords=coords, eigenvalues=vals[::-1])


def _scaled(w: np.ndarray, root: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out` set to w / np.outer(root, root), bit for bit, ROW_BLOCK rows at
    a time; `out` may be `w` itself. A non-finite entry raises the
    ValueError of np.asarray_chkfinite, which scipy's eigh raises."""
    for lo in range(0, len(w), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        block = np.divide(w[rows], np.outer(root[rows], root), out=out[rows])
        if not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise ValueError("array must not contain infs or NaNs")
    return out


def _eigh(a: np.ndarray, lo: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of the exactly symmetric C-ordered array `a`,
    solved in `a`'s own memory, which LAPACK overwrites.

    With `lo`, the pairs lo..n-1 (0-based) from LAPACK's subset routine
    dsyevr, which may return fewer when rounding ties a cluster of
    eigenvalues across lo; without it, the whole spectrum from dsyevd. The
    calls are those `scipy.linalg.eigh` makes for `subset_by_index=[lo,
    n - 1]` and for `driver="evd"`: lower triangle, the workspace sizes
    LAPACK's own query returns (a smaller workspace changes the blocking and
    so the rounding), and the same checks, so the eigenpairs are
    bit-identical to eigh's. A LAPACK failure raises NumericalError.
    """
    # `a` is symmetric, so its F-ordered view a.T is the same matrix and
    # LAPACK overwrites it in place instead of copying.
    lapack, n = _lapack(), len(a)
    if lo is None:
        lwork, liwork = _workspace(lapack.dsyevd_lwork, n, compute_v=1, lower=1)
        return tuple(_checked(lapack.dsyevd, a.T, compute_v=1, lower=1, lwork=lwork,
                              liwork=liwork, overwrite_a=1))
    lwork, liwork = _workspace(lapack.dsyevr_lwork, n, lower=1)
    vals, vecs, m, _ = _checked(lapack.dsyevr, a.T, compute_v=1, range="I", lower=1,
                                il=lo + 1, iu=n, lwork=lwork, liwork=liwork, overwrite_a=1)
    return vals[:m], vecs[:, :m]


def _workspace(query, n: int, **options) -> list[int]:
    """Workspace sizes (lwork, liwork) from a LAPACK workspace query for
    order n, as `scipy.linalg.eigh` rounds them."""
    sizes = [int(size) for size in _checked(query, n, **options)]
    if max(sizes) > np.iinfo(np.int32).max:
        raise ValueError(f"LAPACK {query.__name__}: a workspace of {max(sizes)} "
                         "exceeds 32-bit LAPACK")
    return sizes


def _checked(routine, *args, **kwargs) -> list:
    """The outputs of a LAPACK routine less its trailing `info`, which must
    be 0: negative means an illegal argument, positive a failed solve."""
    *out, info = routine(*args, **kwargs)
    if info < 0:
        raise ValueError(f"LAPACK {routine.__name__}: illegal value in argument {-info}")
    if info > 0:
        raise NumericalError(
            f"eigensolver failed: LAPACK {routine.__name__} returned info={info}")
    return out


@functools.cache
def _lapack():
    """scipy's f2py LAPACK binding `scipy.linalg._flapack`, loaded from its
    extension file.

    The `scipy.linalg` package is not imported: with scipy 1.17 that
    import takes about 0.3 s and grows RSS from about 27 to 55 MB (its
    array-API shim imports numpy.f2py and numpy.testing), more than the
    eigensolves of a whole `sweep-alpha` command. Importing scipy and
    loading the binding alone takes about 30 ms and 5 MB. The module is
    private to scipy: where its extension file is not found, the public
    `scipy.linalg.lapack` is imported instead, which re-exports the same
    routine objects, so only the import cost differs. A binding already
    imported, for instance by `scipy.linalg`, is reused, and one loaded
    here is the module a later `import scipy.linalg` uses.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy  # here, so that commands which never embed do not pay for it

    linalg = Path(scipy.__file__).parent / "linalg"
    paths = [linalg / ("_flapack" + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        from scipy.linalg import lapack

        return lapack
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


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
        raise DataError(f"k_clusters={k_clusters} outside [1, {n}]")
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
    d2 = sq_dist(points, points[chosen[0]])
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
        d2 = np.minimum(d2, sq_dist(points, points[nxt]))
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
        nearest = centers[assign]
        point_d2 = sq_dist(points, nearest, out=nearest)
        del nearest  # so the next step's (n, dim) gather does not meet it
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
    mates = points[rep[assign]]
    spread = np.bincount(assign, weights=sq_dist(points, mates, out=mates),
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
