"""Modularity scoring and Louvain optimization, single-slice and multislice.

Quality function (resolution gamma, strength null model):

    Q = (1 / 2m) * sum_ij [A[i, j] - gamma * d[i] * d[j] / sum(d)] * delta(g_i, g_j)

with d the strength vector of A and 2m = sum(d). The multislice extension
stacks one copy of the graph per resolution value and couples each vertex
to its copies in the neighboring slices (ordered by gamma) with constant
weight omega; quality is then evaluated against the per-slice null model
plus the coupling term, normalized by
2*mu = sum_s sum(d_s) + 2 * omega * n * (#adjacent slice pairs).

`SliceStack` owns the slice model: it converts, validates and row-sums each
distinct slice array once (the CLI's slices all share one), and records
which array each slice reads, the strengths d of each, each slice's 2m and
the array Louvain indexes. The move gain assumes symmetric weights, so it
rejects a slice that is not exactly symmetric. The single-slice `louvain`
and `modularity_score` symmetrize their input as (A + A^T) / 2 and run it
as a one-slice stack at omega = 0; for an asymmetric A this changes Q,
because the strengths d are then row sums of the symmetrized matrix.

Louvain never forms the supra-matrix B (B = A - gamma * d d^T / sum(d) per
slice, plus omega couplings). It alternates greedy moves in seeded random
order with aggregation of communities into supervertices, and sums each
move's quality link from the slices themselves: a supervertex's rows of A,
the strengths d (through a community x slice strength table once vertices
are aggregated), and the copies of its members in the adjacent slices.
Aggregation only records which supervertex each (vertex, slice) belongs
to, so memory is the slices plus O(n_slices * (n + K)) at a level of K
supervertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    interslice coupling omega (nearest neighbors in gamma order). Slices
    may share one array object. Slice s reads distinct array a[which[s]],
    a view when all slices share one, with strengths d[which[s]] and sum twom[s]."""

    slices: list[tuple[np.ndarray, float]]
    omega: float
    which: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)
    twom: np.ndarray = field(init=False)
    a: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not self.slices:
            raise DataError("slice stack is empty")
        self.slices = [(a, float(g)) for a, g in self.slices]
        check_slice_params(self.gammas, self.omega)
        # Convert, check and sum each distinct object once; shared ones stay shared.
        index: dict[int, int] = {}
        arrays, strengths = [], []
        for s, (a, _) in enumerate(self.slices):
            if id(a) in index:
                continue
            index[id(a)] = len(arrays)
            a = np.asarray(a, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1] or (arrays and a.shape != arrays[0].shape):
                raise DataError("all slices must share the same square shape")
            if not np.array_equal(a, a.T):
                raise DataError(f"slice {s} is not symmetric")
            strengths.append(a.sum(axis=1))
            if float(strengths[-1].sum()) == 0.0:
                raise EmptyGraph(f"slice {s} has zero total strength")
            arrays.append(a)
        self.which = np.array([index[id(a)] for a, _ in self.slices])
        self.d = np.array(strengths)
        self.twom = self.d.sum(axis=1)[self.which]
        self.a = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
        views = list(self.a)  # so the stack holds each array once
        self.slices = [(views[w], g) for w, (_, g) in zip(self.which, self.slices)]

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


class _Vertices:
    """Links of single supra-vertices, each summed in the order of its sparse
    row in the explicit supra-matrix (the coupling to slice s - 1, slice s,
    the coupling to slice s + 1) with the same floating-point values. The
    vertex's own entry and an absent coupling add 0.0 to its own bin, which
    leaves every sum unchanged."""

    def __init__(self, stack: SliceStack, labels: np.ndarray) -> None:
        self.n, self.n_slices, self.omega = stack.n, stack.n_slices, stack.omega
        self.a = [a for a, _ in stack.slices]
        self.d = [stack.d[w] for w in stack.which]
        self.gamma, self.twom = stack.gammas, stack.twom.tolist()
        self.comm = labels.copy()
        self.bins = np.zeros(self.n + 2, dtype=int)
        self.weights = np.zeros(self.n + 2)
        self.row = self.weights[1:-1]
        self.null = np.zeros(self.n)

    def take_out(self, x: int) -> np.ndarray:
        n, comm, bins, weights, null = self.n, self.comm, self.bins, self.weights, self.null
        s, v = divmod(x, n)
        d = self.d[s]
        np.multiply(d, d[v], out=null)
        null *= self.gamma[s]
        null /= self.twom[s]
        np.subtract(self.a[s][v], null, out=self.row)
        weights[1 + v] = 0.0
        bins[1:-1] = comm[s * n:(s + 1) * n]
        has_prev, has_succ = s > 0, s < self.n_slices - 1
        bins[0] = comm[x - n] if has_prev else comm[x]
        bins[-1] = comm[x + n] if has_succ else comm[x]
        weights[0] = self.omega if has_prev else 0.0
        weights[-1] = self.omega if has_succ else 0.0
        return np.bincount(bins, weights)

    def put_back(self, x: int, label: int) -> None:
        self.comm[x] = label


class _Supervertices:
    """Links of supervertices (sets of supra-vertices) from the slices and a
    table of community strength per slice, D[s, c]: the link of a
    supervertex to community c is the sum over its members (s, v) of
    A_s[v, u] over the u of c in slice s, less gamma_s * d_v * D[s, c] /
    sum(d_s), plus omega for each coupled copy in c."""

    def __init__(self, stack: SliceStack, member: np.ndarray, labels: np.ndarray) -> None:
        k, n, n_slices = labels.size, stack.n, stack.n_slices
        self.stack, self.comm, self.k = stack, labels[member], k
        self.comm_by_slice = self.comm.reshape(n_slices, n)
        self.order = np.argsort(member, kind="stable")
        self.bounds = np.concatenate(([0], np.cumsum(np.bincount(member, minlength=k))))
        s, v = self.slice_of, self.vertex_of = np.divmod(self.order, n)
        self.layer_of = stack.which[s]
        cells = member[self.order] * n_slices + s
        # Whether a supervertex has two members in one slice.
        self.repeats = np.add.reduceat(np.diff(cells, prepend=-1) == 0, self.bounds[:-1])
        # Per supervertex and slice: its strength, and that times gamma_s / 2m_s.
        strength = stack.d[self.layer_of, v]
        self.strength = np.bincount(cells, strength, minlength=k * n_slices).reshape(k, n_slices)
        self.scale = self.strength * (np.array(stack.gammas) / stack.twom)
        self.table = np.zeros((n_slices, k + 1))
        np.add.at(self.table.T, labels, self.strength)
        # Coupled pairs (x, y) of copies in adjacent slices, grouped by the
        # supervertex of x.
        upper = np.arange(n if stack.omega > 0.0 else member.size, member.size)
        src = np.concatenate((upper, upper - n))
        dst = np.concatenate((upper - n, upper))
        self.coupled = dst[np.argsort(member[src], kind="stable")]
        self.coupled_bounds = np.concatenate(([0], np.cumsum(np.bincount(member[src], minlength=k))))

    def take_out(self, c: int) -> np.ndarray:
        stack, comm, k = self.stack, self.comm, self.k
        lo, hi = self.bounds[c], self.bounds[c + 1]
        x = self.order[lo:hi]
        s = self.slice_of[lo:hi]
        self.table[:, comm[x[0]]] -= self.strength[c]
        comm[x] = k  # its own bin, dropped by the caller
        rows = stack.a[self.layer_of[lo:hi], self.vertex_of[lo:hi]]
        if self.repeats[c]:  # sum the rows of each slice before binning
            starts = np.flatnonzero(np.diff(s, prepend=-1))
            rows = np.array([r.sum(axis=0) for r in np.split(rows, starts[1:])])
            s = s[starts]
        link = np.bincount(self.comm_by_slice[s].ravel(), rows.ravel(), minlength=k + 1)
        coupled = self.coupled[self.coupled_bounds[c]:self.coupled_bounds[c + 1]]
        np.add.at(link, comm[coupled], stack.omega)
        link -= self.scale[c] @ self.table
        return link

    def put_back(self, c: int, label: int) -> None:
        self.comm[self.order[self.bounds[c]:self.bounds[c + 1]]] = label
        self.table[:, label] += self.strength[c]


def _local_phase(stack: SliceStack, member: np.ndarray, labels: np.ndarray,
                 rng: np.random.Generator) -> bool:
    """Greedy moves of whole supervertices until a full sweep makes none;
    member[x] is the supervertex of supra-vertex x, labels[c] the
    community of supervertex c.

    A supervertex moves only to the community with the largest positive
    link, and only when that link beats staying by more than MOVE_GAIN_TOL,
    so quality never decreases between accepted moves; ties keep the
    current community. Its members are taken out before the links are
    summed, so staying is scored like any other community. A supervertex
    never moves to an empty community.
    """
    k = labels.size
    links = _Vertices(stack, labels) if k == member.size else _Supervertices(stack, member, labels)
    improved = False
    while True:
        moved = 0
        for c in rng.permutation(k).tolist():
            cur = int(labels[c])
            link = links.take_out(c)
            best = int(link[:k].argmax())
            if best != cur and link[best] > max(link[cur], 0.0) + MOVE_GAIN_TOL:
                labels[c] = best
                moved += 1
            links.put_back(c, int(labels[c]))
        if moved == 0:
            return improved
        improved = True


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
    for s, ((a, gamma), twom) in enumerate(zip(stack.slices, stack.twom.tolist())):
        intra, null_sq = _delta_sums(a, stack.d[stack.which[s]], g[:, s])
        total += intra - gamma * null_sq / twom
        strength_total += twom
    for s in range(n_slices - 1):
        matches = int(np.count_nonzero(g[:, s] == g[:, s + 1]))
        total += 2.0 * stack.omega * matches
    two_mu = strength_total + 2.0 * stack.omega * n * (n_slices - 1)
    return total / two_mu


def multislice_louvain(stack: SliceStack, seed: int,
                       trace: list | None = None) -> MultisliceAssignment:
    """Louvain on the flattened supra-graph of n * n_slices vertices.

    Alternates local moves with aggregation until aggregated moves stall,
    then refines by moving single supra-vertices over the flattened
    partition; the whole cycle repeats until no move improves anywhere.
    Aggregation only relabels which supervertex each supra-vertex belongs
    to. `trace`, when a list, collects the multislice_score of the
    flattened partition after initialization and after each level.
    """
    n, n_slices = stack.n, stack.n_slices
    rng = np.random.default_rng(seed)
    singletons = np.arange(n * n_slices)
    mapping = singletons
    while True:
        if trace is not None:
            trace.append(multislice_score(stack, mapping.reshape(n_slices, n).T))
        labels = np.arange(int(mapping.max()) + 1)
        if _local_phase(stack, mapping, labels, rng):
            mapping = relabel_first_occurrence(labels)[mapping]
            continue
        refined = mapping.copy()
        if not _local_phase(stack, singletons, refined, rng):
            break
        mapping = relabel_first_occurrence(refined)
    result = MultisliceAssignment(relabel_first_occurrence(mapping).reshape(n_slices, n).T.copy())
    result.objective = multislice_score(stack, result)
    return result
