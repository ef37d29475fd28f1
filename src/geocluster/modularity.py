"""Modularity scoring and Louvain optimization, single-slice and multislice.

Quality function (resolution gamma, strength null model):

    Q = (1 / 2m) * sum_ij [A[i, j] - gamma * d[i] * d[j] / sum(d)] * delta(g_i, g_j)

with d the strength vector of A and 2m = sum(d). The multislice extension
stacks one copy of the graph per resolution value and couples each vertex
to its copies in the neighboring slices (ordered by gamma) with constant
weight omega; quality is then evaluated against the per-slice null model
plus the coupling term, normalized by
2*mu = sum_s sum(d_s) + 2 * omega * n * (#adjacent slice pairs).

`SliceStack` owns the slice model: one adjacency A read at an increasing
ladder of resolutions gamma, one slice per gamma, which is the only stack
the method builds (the paper's multiscale case). The move gain assumes
symmetric weights, so A is read as (A + A^T) / 2, which keeps a symmetric A
bit for bit. The stack symmetrizes and row-sums A once and keeps only that
copy, its strengths d and their sum 2m. For an asymmetric A, Q is thus not
the quality of A itself: d holds the symmetrized row sums. The
single-slice `louvain` and `modularity_score` run A as a one-slice stack at
omega = 0.

Louvain never forms the supra-matrix B (B = A - gamma * d d^T / sum(d) per
slice, plus omega couplings). It alternates greedy moves in seeded random
order with aggregation of communities into supervertices, and sums each
move's quality link from the slices themselves: a supervertex's rows of A,
the strengths d (through a community x slice strength table once vertices
are aggregated), and the copies of its members in the adjacent slices.
Aggregation only records which supervertex each (vertex, slice) belongs
to, and a supervertex's rows of A are summed per slice ROW_BLOCK rows at a
time, so memory is the one n x n array plus O(n_slices * (n + K)) at a
level of K supervertices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError
from .spectral import Partition, relabel_first_occurrence

MOVE_GAIN_TOL = 1e-12
ROW_BLOCK = 32  # rows of A a supervertex's link gathers at a time


class SliceStack:
    """One adjacency over n vertices, read at each of the strictly
    increasing resolutions `gammas` (one slice per gamma), plus the
    interslice coupling omega (nearest neighbors in gamma order). Every
    slice reads `a`, the adjacency symmetrized once as (A + A^T) / 2, with
    strengths `d` and their sum `twom`; the stack keeps no reference to the
    caller's array."""

    def __init__(self, adjacency, gammas, omega: float) -> None:
        self.gammas = [float(g) for g in gammas]
        if not self.gammas:
            raise DataError("slice stack is empty")
        check_slice_params(self.gammas, omega)
        self.omega = omega
        adjacency = np.asarray(adjacency, dtype=float)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise DataError("the adjacency must be a square matrix")
        self.a = np.empty(adjacency.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(adjacency, adjacency.T, out=self.a)
        self.a *= 0.5  # the same bits as 0.5 * (a + a.T)
        # min and max, not an n x n isfinite mask: either is NaN if any entry is.
        if self.a.size and not (np.isfinite(self.a.min()) and np.isfinite(self.a.max())):
            raise DataError("the adjacency has a non-finite weight")
        self.d = self.a.sum(axis=1)
        self.twom = float(self.d.sum())
        if self.twom == 0.0:
            raise DataError("the adjacency has zero total strength")
        # Every sum of couplings (a link, a quality term) is at most their total.
        if not math.isfinite(2.0 * omega * self.n * (self.n_slices - 1)):
            raise DataError(f"interslice coupling omega={omega} is too large: the total "
                            "coupling 2 * omega * n * (slices - 1) overflows float64")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def n_slices(self) -> int:
        return len(self.gammas)


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
        self.a, self.d, self.twom, self.gamma = stack.a, stack.d, stack.twom, stack.gammas
        self.comm = labels.copy()
        self.bins = np.zeros(self.n + 2, dtype=int)
        self.weights = np.zeros(self.n + 2)
        self.row = self.weights[1:-1]
        self.null = np.zeros(self.n)

    def take_out(self, x: int) -> np.ndarray:
        n, comm, bins, weights, null = self.n, self.comm, self.bins, self.weights, self.null
        s, v = divmod(x, n)
        np.multiply(self.d, self.d[v], out=null)
        null *= self.gamma[s]
        null /= self.twom
        np.subtract(self.a[v], null, out=self.row)
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
        cells = member[self.order] * n_slices + s
        # Whether a supervertex has two members in one slice.
        self.repeats = np.add.reduceat(np.diff(cells, prepend=-1) == 0, self.bounds[:-1])
        # Per supervertex and slice: its strength, and that times gamma_s / 2m_s.
        self.strength = np.bincount(cells, stack.d[v], minlength=k * n_slices).reshape(k, n_slices)
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
        self.block = np.empty((ROW_BLOCK + 1, n))

    def _row_sum(self, v: np.ndarray) -> np.ndarray:
        """stack.a[v].sum(axis=0) with the same bits, gathering at most
        ROW_BLOCK + 1 rows at a time: numpy sums the rows of a C-contiguous
        block in order, so the running sum rides along as row 0 of the next
        block. (The indices are valid; mode="clip" lets `take` write straight
        into the block.)"""
        a, block = self.stack.a, self.block
        h = min(v.size, ROW_BLOCK + 1)
        total = np.take(a, v[:h], axis=0, out=block[:h], mode="clip").sum(axis=0)
        for start in range(h, v.size, ROW_BLOCK):
            part = v[start:start + ROW_BLOCK]
            block[0] = total
            np.take(a, part, axis=0, out=block[1:part.size + 1], mode="clip")
            total = block[:part.size + 1].sum(axis=0)
        return total

    def take_out(self, c: int) -> np.ndarray:
        stack, comm, k = self.stack, self.comm, self.k
        lo, hi = self.bounds[c], self.bounds[c + 1]
        x = self.order[lo:hi]
        s = self.slice_of[lo:hi]
        self.table[:, comm[x[0]]] -= self.strength[c]
        comm[x] = k  # its own bin, dropped by the caller
        v = self.vertex_of[lo:hi]
        if self.repeats[c]:  # sum the rows of each slice before binning
            starts = np.flatnonzero(np.diff(s, prepend=-1))
            rows = np.array([self._row_sum(part) for part in np.split(v, starts[1:])])
            s = s[starts]
        else:  # at most one row per slice
            rows = stack.a[v]
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


def modularity_score(adjacency, partition, gamma: float) -> float:
    """Evaluate Q for one adjacency matrix and partition."""
    stack = SliceStack(adjacency, [gamma], omega=0.0)
    return multislice_score(stack, _as_labels(partition).reshape(-1, 1))


def louvain(adjacency, gamma: float, seed: int,
            trace: list | None = None) -> Partition:
    """Locally greedy modularity maximization at resolution gamma.

    `trace`, when a list, collects the quality value after initialization and
    after each level (local-move phase plus aggregation); it is nondecreasing.
    """
    res = multislice_louvain(SliceStack(adjacency, [gamma], omega=0.0), seed, trace=trace)
    return Partition(res.assignment[:, 0], objective=res.objective)


def multislice_score(stack: SliceStack, assignment) -> float:
    """Quality of a multislice assignment: per-slice modularity terms plus
    omega couplings between copies of a vertex in gamma-adjacent slices,
    normalized by 2*mu."""
    g = _as_labels(assignment)
    n, n_slices = stack.n, stack.n_slices
    if g.shape != (n, n_slices):
        raise DataError(f"assignment shape {g.shape} does not match stack ({n}, {n_slices})")
    total = 0.0
    strength_total = 0.0
    twom = stack.twom
    for s, gamma in enumerate(stack.gammas):
        intra, null_sq = _delta_sums(stack.a, stack.d, g[:, s])
        total += intra - gamma * null_sq / twom
        strength_total += twom
    for s in range(n_slices - 1):
        matches = int(np.count_nonzero(g[:, s] == g[:, s + 1]))
        total += 2.0 * stack.omega * matches
    two_mu = strength_total + 2.0 * stack.omega * n * (n_slices - 1)
    return total / two_mu


def multislice_louvain(stack: SliceStack, seed: int,
                       trace: list | None = None) -> Partition:
    """Louvain on the flattened supra-graph of n * n_slices vertices.

    Alternates local moves with aggregation until aggregated moves stall,
    then refines by moving single supra-vertices over the flattened
    partition; the whole cycle repeats until no move improves anywhere.
    Aggregation only relabels which supervertex each supra-vertex belongs
    to. `trace`, when a list, collects the multislice_score of the
    flattened partition after initialization and after each level.
    Returns a Partition of (n, n_slices) ids, numbered slice by slice in
    order of first occurrence, with the quality as its objective.
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
    assignment = relabel_first_occurrence(mapping).reshape(n_slices, n).T.copy()
    return Partition(assignment, objective=multislice_score(stack, assignment))
