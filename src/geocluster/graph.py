"""Geosocial weight matrix construction.

The combined similarity between two individuals blends a binary social
contact indicator with a Gaussian kernel of the planar distance between
their mean locations:

    W[i, j] = alpha * S[i, j] + (1 - alpha) * exp(-dist(i, j)**2 / sigma**2)

with the convention S[i, i] = 1, so W has a unit diagonal. The strength
vector d (d[i] = sum_j W[i, j], diagonal included) defines the
row-stochastic normalized adjacency D^-1 W used downstream.

The module also holds the one planar Gaussian kernel (`gaussian_block`)
and the one squared distance (`sq_dist`) of the package: W's kernel, the
generator's contact weights, k-means and the mixture baseline all go
through them, so each is spelled, and rounds, one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError

ROW_BLOCK = 64  # rows of an n x n array a blocked pass writes at a time


@dataclass(frozen=True)
class Individual:
    """A point-located person: opaque id, planar coordinates in meters,
    optional ground-truth group label."""

    id: str
    x: float
    y: float
    gang: str | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DataError(f"non-finite location for individual {self.id!r}")


@dataclass(frozen=True, eq=False)
class SocialMatrix:
    """Sparse symmetric binary contact matrix.

    `ij` holds the m contacts as an (m, 2) int64 array of index pairs. Its
    rows have i < j, are unique, are sorted lexicographically, and are
    read-only; `from_pairs` establishes these invariants, and every consumer
    relies on the sorted order (it fixes the summation order of sigma). The
    diagonal is implicitly 1 and never stored; duplicate records collapse
    to one row. `pairs` is a frozenset view derived from `ij` on each
    access. Matrices compare by identity.
    """

    n: int
    ij: np.ndarray

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SocialMatrix":
        """Canonical matrix from (i, j) integer pairs in either orientation,
        given as an (m, 2) array or any iterable of pairs."""
        if n < 0:
            raise DataError("negative matrix size")
        try:
            raw = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        except ValueError as exc:  # numpy: "... inhomogeneous shape ..."
            raise DataError("contact pairs must form an (m, 2) array, got a ragged list "
                            "whose pairs differ in length") from exc
        if raw.size == 0:
            raw = raw.reshape(0, 2)
        elif not np.issubdtype(raw.dtype, np.integer):
            raise DataError(f"contact pairs must be integer indices, got dtype {raw.dtype}")
        elif raw.ndim != 2 or raw.shape[1] != 2:
            raise DataError(f"contact pairs must form an (m, 2) array, got shape {raw.shape}")
        raw = raw.astype(np.int64, copy=False)
        lo, hi = raw.min(axis=1), raw.max(axis=1)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
        if bad.size:
            i, j = (int(v) for v in raw[bad[0]])
            if i == j:
                raise DataError(f"self-contact for index {i}")
            raise DataError(f"contact pair ({i}, {j}) out of range for n={n}")
        key = np.unique(lo * n + hi)
        ij = np.column_stack([key // n, key % n])
        ij.flags.writeable = False
        return cls(n=n, ij=ij)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.ij.tolist()))

    @property
    def n_contacts(self) -> int:
        return len(self.ij)

    def to_dense(self) -> np.ndarray:
        s = np.zeros((self.n, self.n))
        i, j = self.ij.T
        s[i, j] = s[j, i] = 1.0
        np.fill_diagonal(s, 1.0)
        return s

    def degrees(self) -> np.ndarray:
        """Contact degree per individual, self-loops excluded."""
        return np.bincount(self.ij.ravel(), minlength=self.n)


@dataclass(eq=False)
class GeoSocialGraph:
    """Dense symmetric geosocial weight matrix with its strength vector."""

    W: np.ndarray
    d: np.ndarray = field(repr=False)
    alpha: float
    sigma: float

    @property
    def n(self) -> int:
        return self.W.shape[0]


def locations(individuals: Sequence[Individual]) -> np.ndarray:
    """Stack mean locations into an (n, 2) float array."""
    return np.array([(p.x, p.y) for p in individuals], dtype=float).reshape(-1, 2)


def contact_distances(individuals: Sequence[Individual], social: SocialMatrix) -> np.ndarray:
    """Euclidean distance for every contact pair, in the sorted order of `ij`."""
    xy = locations(individuals)
    diff = xy[social.ij[:, 0]] - xy[social.ij[:, 1]]
    return np.hypot(diff[:, 0], diff[:, 1])


def compute_sigma(individuals: Sequence[Individual], social: SocialMatrix) -> float:
    """Geographic length scale: mean contact-pair distance plus one standard
    deviation (population convention, divide by the pair count)."""
    # Coordinates near the float64 limit overflow here; the non-finite sigma
    # that results is rejected where it is used.
    with np.errstate(over="ignore", invalid="ignore"):
        dist = contact_distances(individuals, social)
        if dist.size == 0:
            raise DataError("cannot derive a length scale without contact pairs")
        sigma = float(dist.mean() + dist.std())
    if sigma == 0.0:
        raise DataError("all contact pairs are co-located; length scale undefined")
    return sigma


def gaussian_block(out: np.ndarray, scratch: np.ndarray, x: np.ndarray, y: np.ndarray,
                   rows: slice, cols: slice, scale: float) -> np.ndarray:
    """Writes exp(-((x_r - x_c)^2 + (y_r - y_c)^2) / scale) of every pair
    (r, c) of rows x cols into `out`, of shape (len(rows), len(cols)), and
    returns it; `scratch`, of the same shape, is overwritten. The sum is
    divided by -scale, which rounds exactly as negating it first does."""
    np.subtract(x[rows, None], x[None, cols], out=out)
    out *= out
    np.subtract(y[rows, None], y[None, cols], out=scratch)
    scratch *= scratch
    out += scratch
    out /= -scale
    return np.exp(out, out=out)


def sq_dist(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances ((a - b)^2).sum(axis=-1), broadcasting
    `a` against `b`; the difference is taken into `out` when given (it may
    be `b`) and squared in place."""
    diff = np.subtract(a, b, out=out)
    diff *= diff
    return diff.sum(axis=-1)


def check_alpha(alpha: float) -> None:
    """The blend weight rule: alpha lies in [0, 1]."""
    if not (0.0 <= alpha <= 1.0):
        raise DataError(f"alpha must lie in [0, 1], got {alpha}")


def build_weight_matrix(
    individuals: Sequence[Individual],
    social: SocialMatrix,
    alpha: float,
    sigma: float,
) -> GeoSocialGraph:
    """Assemble W = alpha*S + (1-alpha)*K with K the Gaussian distance kernel.

    Computed as K + alpha*(S - K), which is algebraically identical and keeps
    the collapse cases exact in floating point: alpha=0 returns K bit-for-bit,
    alpha=1 zeroes non-contact entries exactly, and a co-located contact pair
    gets weight exactly 1 for any alpha.
    """
    check_alpha(alpha)
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise DataError(f"sigma must be a positive finite length, got {sigma}")
    x, y = locations(individuals).T
    # The kernel and the blend are written into S's own array ROW_BLOCK rows
    # at a time, so W is the one n x n array alive. The two block buffers
    # are allocated once and freed together: blocks allocated afresh in each
    # pass stay in malloc's heap, which raised the process's peak RSS by
    # 1 MB at n = 3000.
    w = social.to_dense()
    buffers = np.empty((2, ROW_BLOCK, len(w)))
    for lo in range(0, len(w), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        blend = w[rows]
        kernel, scratch = buffers[:, :len(blend)]
        gaussian_block(kernel, scratch, x, y, rows, slice(None), sigma * sigma)
        blend -= kernel
        blend *= alpha
        blend += kernel
        # Both terms are bounded by 1 in exact arithmetic; clamp the <=1ulp
        # float overshoot so the [0, 1] range holds exactly.
        np.minimum(blend, 1.0, out=blend)
    np.fill_diagonal(w, 1.0)
    return GeoSocialGraph(W=w, d=w.sum(axis=1), alpha=alpha, sigma=sigma)


def strengths(graph: GeoSocialGraph) -> np.ndarray:
    """The strength vector d, checked to hold no zero before it divides."""
    zero = np.flatnonzero(graph.d == 0.0)
    if zero.size:
        # Unreachable under the unit-diagonal convention; kept as a guard.
        raise DataError(f"individual {int(zero[0])} has zero strength")
    return graph.d


def normalize(graph: GeoSocialGraph) -> np.ndarray:
    """Row-stochastic normalized adjacency D^-1 W."""
    return graph.W / strengths(graph)[:, None]
