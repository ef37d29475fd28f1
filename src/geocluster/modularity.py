"""Modularity scoring and Louvain optimization, single-slice and multislice.

Quality function (resolution gamma, strength null model):

    Q = (1 / 2m) * sum_ij [A[i, j] - gamma * d[i] * d[j] / sum(d)] * delta(g_i, g_j)

with d the strength vector of A and 2m = sum(d). The multislice extension
stacks one copy of the graph per resolution value and couples each vertex
to its copies in the neighboring slices (ordered by gamma) with constant
weight omega; quality is then evaluated against the per-slice null model
plus the coupling term, normalized by
2*mu = sum_s sum(d_s) + 2 * omega * n * (#adjacent slice pairs).

Louvain runs on an explicit quality matrix B (B = A - gamma * d d^T / sum(d)
per slice, plus omega couplings), alternating greedy single-vertex moves in
seeded random order with aggregation of communities into supervertices.
The move gain assumes symmetric weights, so `SliceStack` rejects a slice
that is not exactly symmetric. The single-slice `louvain` and
`modularity_score` symmetrize their input as (A + A^T) / 2 and run it as a
one-slice stack at omega = 0; for an asymmetric A this changes Q, because
the strengths d are then row sums of the symmetrized matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .spectral import Partition, relabel_first_occurrence

MOVE_GAIN_TOL = 1e-12


class EmptyGraph(DataError):
    pass


class DimensionMismatch(DataError):
    pass


@dataclass(eq=False)
class SliceStack:
    """Ordered (adjacency, gamma) slices over one vertex set, plus the
    interslice coupling omega (nearest neighbors in gamma order)."""

    slices: list[tuple[np.ndarray, float]]
    omega: float

    def __post_init__(self) -> None:
        if not self.slices:
            raise DataError("slice stack is empty")
        self.slices = [(np.asarray(a, dtype=float), float(g)) for a, g in self.slices]
        check_slice_params(self.gammas, self.omega)
        n = self.slices[0][0].shape[0]
        for s, (a, _) in enumerate(self.slices):
            if a.shape != (n, n):
                raise DataError("all slices must share the same square shape")
            if not np.array_equal(a, a.T):
                raise DataError(f"slice {s} is not symmetric")
            if float(a.sum(axis=1).sum()) == 0.0:
                raise EmptyGraph(f"slice {s} has zero total strength")

    @property
    def n(self) -> int:
        return self.slices[0][0].shape[0]

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def gammas(self) -> list[float]:
        return [g for _, g in self.slices]


@dataclass(eq=False)
class MultisliceAssignment:
    """Community ids per (vertex, slice); ids contiguous over the whole stack."""

    assignment: np.ndarray
    objective: float | None = None

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=int)
        if self.assignment.ndim != 2:
            raise DimensionMismatch("assignment must be an (n, n_slices) matrix")
        ids = np.unique(self.assignment)
        if ids.size and (ids[0] != 0 or ids[-1] != ids.size - 1):
            raise ValueError("community ids must be 0-based and contiguous")

    @property
    def n_communities(self) -> int:
        return int(self.assignment.max()) + 1 if self.assignment.size else 0

    def slice_partition(self, s: int) -> Partition:
        """Per-slice view with locally contiguous ids."""
        return Partition.from_labels(self.assignment[:, s])


def _as_labels(partition) -> np.ndarray:
    return np.asarray(getattr(partition, "assignment", partition), dtype=int)


def _delta_sums(adjacency: np.ndarray, d: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(sum of A over same-community pairs, sum over communities of squared
    community strength) -- the two delta-weighted aggregates of Q.

    Communities are accumulated in first-occurrence order, so Q is exactly
    invariant under community-id permutation (same floats, same order).
    """
    canon = relabel_first_occurrence(labels)
    intra = 0.0
    null_sq = 0.0
    for c in range(int(canon.max()) + 1 if canon.size else 0):
        idx = np.flatnonzero(canon == c)
        intra += float(adjacency[np.ix_(idx, idx)].sum())
        null_sq += float(d[idx].sum()) ** 2
    return intra, null_sq


def check_slice_params(gammas: list[float], omega: float) -> None:
    """The multislice parameter rule: every gamma finite and positive, the
    gammas strictly increasing, omega finite and nonnegative."""
    for gamma in gammas:
        if not (math.isfinite(gamma) and gamma > 0):
            raise DataError(f"gamma must be finite and positive, got {gamma}")
    if any(g2 <= g1 for g1, g2 in zip(gammas, gammas[1:])):
        raise DataError("slice resolutions must be strictly increasing")
    if not (math.isfinite(omega) and omega >= 0):
        raise DataError(f"interslice coupling omega must be finite and nonnegative, got {omega}")


def _local_phase(b: sp.csr_matrix, labels: np.ndarray, rng: np.random.Generator) -> bool:
    """Greedy single-vertex moves until a full sweep makes none.

    A vertex moves only to the community with the largest positive link,
    and only when that link beats staying by more than MOVE_GAIN_TOL, so
    quality never decreases between accepted moves; ties keep the current
    community. A vertex never moves to an empty community.
    """
    indptr, indices, data = b.indptr, b.indices, b.data
    n = labels.size
    improved = False
    while True:
        moved = 0
        for v in rng.permutation(n):
            cols = indices[indptr[v]:indptr[v + 1]]
            w = data[indptr[v]:indptr[v + 1]]
            keep = cols != v
            link = np.bincount(labels[cols[keep]], weights=w[keep], minlength=n)
            cur = int(labels[v])
            best = int(np.argmax(link))
            if best != cur and link[best] > max(link[cur], 0.0) + MOVE_GAIN_TOL:
                labels[v] = best
                moved += 1
        if moved == 0:
            return improved
        improved = True


def _quality_louvain(b, seed: int, twom: float,
                     trace: list | None = None) -> np.ndarray:
    """Louvain on an explicit symmetric quality matrix: maximize
    sum_ij B[i, j] * delta(g_i, g_j) / twom. Returns contiguous labels.

    Alternates local moves with aggregation until aggregated moves stall,
    then refines by sweeping single original vertices over the flattened
    partition; the whole cycle repeats until no move improves anywhere.
    """
    b0 = b = sp.csr_matrix(b)
    rng = np.random.default_rng(seed)
    mapping = np.arange(b0.shape[0])
    if trace is not None:
        trace.append(float(b0.diagonal().sum()) / twom)
    while True:
        while True:
            nb = b.shape[0]
            labels = np.arange(nb)
            if not _local_phase(b, labels, rng):
                break
            labels = relabel_first_occurrence(labels)
            mapping = labels[mapping]
            nc = int(labels.max()) + 1
            b = _aggregate(b, labels)
            if trace is not None:
                trace.append(float(b.diagonal().sum()) / twom)
            if nc == nb:
                break
        refined = mapping.copy()
        if not _local_phase(b0, refined, rng):
            break
        mapping = relabel_first_occurrence(refined)
        b = _aggregate(b0, mapping)
        if trace is not None:
            trace.append(float(b.diagonal().sum()) / twom)
    return relabel_first_occurrence(mapping)


def _aggregate(b: sp.csr_matrix, labels: np.ndarray) -> sp.csr_matrix:
    labels = relabel_first_occurrence(labels)
    nc = int(labels.max()) + 1
    p = sp.csr_matrix(
        (np.ones(labels.size), (np.arange(labels.size), labels)),
        shape=(labels.size, nc),
    )
    out = (p.T @ b @ p).tocsr()
    out.sum_duplicates()
    return out


def _modularity_block(adjacency: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """Quality block B = A - gamma * d d^T / sum(d) of a slice, and sum(d)."""
    d = adjacency.sum(axis=1)
    twom = float(d.sum())
    return adjacency - gamma * np.outer(d, d) / twom, twom


def _one_slice(adjacency, gamma: float) -> SliceStack:
    """The stack of one slice, (A + A^T) / 2 at resolution gamma, omega = 0."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError("adjacency must be square")
    return SliceStack([(0.5 * (a + a.T), gamma)], omega=0.0)


def modularity_score(adjacency, partition, gamma: float) -> float:
    """Evaluate Q for one adjacency matrix and partition."""
    return multislice_score(_one_slice(adjacency, gamma), _as_labels(partition).reshape(-1, 1))


def louvain(adjacency, gamma: float, seed: int,
            trace: list | None = None) -> Partition:
    """Locally greedy modularity maximization at resolution gamma.

    `trace`, when a list, collects the quality value after initialization and
    after each level (local-move phase plus aggregation); it is nondecreasing.
    """
    res = multislice_louvain(_one_slice(adjacency, gamma), seed, trace=trace)
    return Partition(res.assignment[:, 0], objective=res.objective)


def multislice_score(stack: SliceStack, assignment) -> float:
    """Quality of a multislice assignment: per-slice modularity terms plus
    omega couplings between copies of a vertex in gamma-adjacent slices,
    normalized by 2*mu."""
    g = _as_labels(assignment)
    n, n_slices = stack.n, stack.n_slices
    if g.shape != (n, n_slices):
        raise DimensionMismatch(
            f"assignment shape {g.shape} does not match stack ({n}, {n_slices})"
        )
    total = 0.0
    strength_total = 0.0
    for s, (a, gamma) in enumerate(stack.slices):
        d = a.sum(axis=1)
        sd = float(d.sum())
        intra, null_sq = _delta_sums(a, d, g[:, s])
        total += intra - gamma * null_sq / sd
        strength_total += sd
    for s in range(n_slices - 1):
        matches = int(np.count_nonzero(g[:, s] == g[:, s + 1]))
        total += 2.0 * stack.omega * matches
    two_mu = strength_total + 2.0 * stack.omega * n * (n_slices - 1)
    return total / two_mu


def multislice_louvain(stack: SliceStack, seed: int,
                       trace: list | None = None) -> MultisliceAssignment:
    """Louvain on the flattened supra-graph of n * n_slices vertices."""
    n, n_slices = stack.n, stack.n_slices
    blocks = [_modularity_block(a, gamma) for a, gamma in stack.slices]
    strength_total = sum(sd for _, sd in blocks)
    b = sp.block_diag([block for block, _ in blocks], format="csr")
    del blocks  # the dense per-slice blocks; Louvain needs only the supra-matrix
    if n_slices > 1 and stack.omega > 0.0:
        coupling = np.full(n * (n_slices - 1), stack.omega)
        b = (b + sp.diags([coupling, coupling], offsets=[n, -n],
                          shape=b.shape)).tocsr()
    two_mu = strength_total + 2.0 * stack.omega * n * (n_slices - 1)
    labels = _quality_louvain(b, seed, two_mu, trace=trace)
    assignment = labels.reshape(n_slices, n).T.copy()
    msa = MultisliceAssignment(assignment)
    return MultisliceAssignment(assignment, objective=multislice_score(stack, msa))
