"""Partition scoring against ground-truth labels, plus contact-network
diagnostics.

Purity assigns every community its plurality label and reports the fraction
of individuals matching it. The z-Rand score standardizes w, the number of
pairs that share both a label and a community, by its mean and standard
deviation under a hypergeometric null with the observed pair counts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError
from .graph import SocialMatrix


@dataclass(frozen=True)
class PairCounts:
    """Pair-level contingency totals: M pairs overall, M1 co-clustered,
    M2 co-labeled, w both."""

    M: int
    M1: int
    M2: int
    w: int


def _as_labels(partition) -> np.ndarray:
    return np.asarray(getattr(partition, "assignment", partition))


def _check_lengths(labels, assignment) -> tuple[np.ndarray, np.ndarray]:
    lab = np.asarray(labels)
    assign = _as_labels(assignment)
    if lab.size == 0:
        raise DataError("empty label vector")
    if lab.shape != assign.shape:
        raise DataError(f"labels have length {lab.size}, partition {assign.size}")
    return lab, assign


def contingency_table(labels, partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct labels, sorted distinct community ids, and the labels x
    communities member counts. An argmax down a column thus breaks ties toward
    the lexicographically smallest label, so repeated runs report identically."""
    lab, assign = _check_lengths(labels, partition)
    names, row = np.unique(lab, return_inverse=True)
    ids, col = np.unique(assign, return_inverse=True)
    counts = np.bincount(row * ids.size + col, minlength=names.size * ids.size)
    return names, ids, counts.reshape(names.size, ids.size)


def purity(labels, partition) -> float:
    """Fraction of individuals matching their community's plurality label."""
    _, _, table = contingency_table(labels, partition)
    return int(table.max(axis=0).sum()) / int(table.sum())


def _comb2(counts) -> int:
    return int((counts * (counts - 1) // 2).sum())


def pair_counts(labels, partition) -> PairCounts:
    """Exact combinatorial pair counts from the contingency table."""
    _, _, table = contingency_table(labels, partition)
    return PairCounts(M=_comb2(table.sum()), M1=_comb2(table.sum(axis=0)),
                      M2=_comb2(table.sum(axis=1)), w=_comb2(table))


def z_rand(labels, partition) -> float:
    """Standardized count of co-clustered co-labeled pairs.

    z = (w - M1*M2/M) / sigma_w with the hypergeometric variance
    sigma_w^2 = (M1*M2/M) * (1 - M1/M) * (M - M2) / (M - 1); the expression
    is symmetric in (M1, M2), so swapping labels and partition leaves z
    unchanged.
    """
    counts = pair_counts(labels, partition)
    m, m1, m2, w = counts.M, counts.M1, counts.M2, counts.w
    if m <= 1:
        raise DataError("need more than one pair to standardize w")
    mean_w = m1 * m2 / m
    var_w = mean_w * (1.0 - m1 / m) * (m - m2) / (m - 1)
    if var_w <= 0.0:
        trivial = ("no two individuals share a community" if m1 == 0
                   else "all individuals share one community" if m1 == m
                   else "no two individuals share a label" if m2 == 0
                   else "all individuals share one label")
        raise DataError(
            f"z-Rand is undefined: {trivial} ({m1} of {m} pairs share a community, "
            f"{m2} share a label)"
        )
    return (w - mean_w) / math.sqrt(var_w)


@dataclass(frozen=True)
class SocialDiagnostics:
    """Contact-network summary.

    degree_std uses the sample convention (n-1 denominator). intra_fraction
    is None when there are no contacts at all.
    """

    n: int
    n_contacts: int
    degree_mean: float
    degree_std: float
    degree_max: int
    n_isolates: int
    isolate_fraction: float
    intra_fraction: float | None

    def as_dict(self) -> dict:
        return asdict(self)


def intra_contact_count(labels, social: SocialMatrix) -> int:
    """Number of contacts whose two members share a label."""
    lab = np.asarray(labels)
    return int(np.count_nonzero(lab[social.ij[:, 0]] == lab[social.ij[:, 1]]))


def diagnostics(social: SocialMatrix, labels) -> SocialDiagnostics:
    """Degree statistics, isolate counts, and the intra-group contact share."""
    lab = np.asarray(labels)
    if lab.size != social.n:
        raise DataError("labels do not match matrix size")
    deg = social.degrees()
    n = social.n
    intra = intra_contact_count(lab, social) / social.n_contacts if social.n_contacts else None
    return SocialDiagnostics(
        n=n,
        n_contacts=social.n_contacts,
        degree_mean=float(deg.mean()) if n else 0.0,
        degree_std=float(deg.std(ddof=1)) if n > 1 else 0.0,
        degree_max=int(deg.max()) if n else 0,
        n_isolates=int((deg == 0).sum()),
        isolate_fraction=float((deg == 0).mean()) if n else 0.0,
        intra_fraction=intra,
    )
