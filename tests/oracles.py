"""Independent reference implementations used as test oracles.

Everything here is written the dumb way on purpose: plain Python loops,
exhaustive enumeration, or Monte Carlo sampling, sharing no code path with
the package implementations they check.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np


def naive_weight_matrix(points, contact_pairs, alpha, sigma):
    """Entry-by-entry evaluation of the blended weight formula."""
    n = len(points)
    contacts = {(min(i, j), max(i, j)) for i, j in contact_pairs}
    w = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                s = 1.0
            else:
                s = 1.0 if (min(i, j), max(i, j)) in contacts else 0.0
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            kernel = math.exp(-(dx * dx + dy * dy) / (sigma * sigma))
            w[i][j] = alpha * s + (1 - alpha) * kernel
    return np.array(w)


def naive_sigma(points, contact_pairs):
    dists = []
    for i, j in sorted({(min(a, b), max(a, b)) for a, b in contact_pairs}):
        dists.append(math.dist(points[i], points[j]))
    mean = sum(dists) / len(dists)
    var = sum((d - mean) ** 2 for d in dists) / len(dists)
    return mean + math.sqrt(var)


def naive_social_pairs(n, pairs):
    """Canonical contact set (i < j) by a per-pair loop; raises ValueError
    for the first self-contact or out-of-range pair in input order."""
    if n < 0:
        raise ValueError("negative matrix size")
    canon = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-contact for index {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"contact pair ({i}, {j}) out of range for n={n}")
        canon.add((i, j) if i < j else (j, i))
    return frozenset(canon)


def naive_social_dense(n, canon):
    s = np.zeros((n, n))
    for i, j in canon:
        s[i, j] = s[j, i] = 1.0
    np.fill_diagonal(s, 1.0)
    return s


def naive_degrees(n, canon):
    deg = np.zeros(n, dtype=int)
    for i, j in canon:
        deg[i] += 1
        deg[j] += 1
    return deg


def naive_intra_count(labels, canon):
    lab = np.asarray(labels)
    return sum(1 for i, j in canon if lab[i] == lab[j])


def naive_row_normalize(w):
    n = w.shape[0]
    out = np.zeros_like(w)
    for i in range(n):
        row_sum = 0.0
        for j in range(n):
            row_sum += w[i][j]
        for j in range(n):
            out[i][j] = w[i][j] / row_sum
    return out


def naive_modularity(adjacency, labels, gamma):
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    d = [sum(a[i][j] for j in range(n)) for i in range(n)]
    twom = sum(d)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += a[i][j] - gamma * d[i] * d[j] / twom
    return q / twom


def naive_multislice(adjacencies, gammas, omega, assignment):
    """Quadruple loop over (i, j, s, r) following the quality formula."""
    n = adjacencies[0].shape[0]
    n_slices = len(adjacencies)
    d = [[float(sum(adjacencies[s][i][j] for j in range(n))) for i in range(n)]
         for s in range(n_slices)]
    total = 0.0
    for s in range(n_slices):
        sd = sum(d[s])
        for r in range(n_slices):
            for i in range(n):
                for j in range(n):
                    val = 0.0
                    if s == r:
                        val += adjacencies[s][i][j] - gammas[s] * d[s][i] * d[s][j] / sd
                    if i == j and abs(s - r) == 1:
                        val += omega
                    if val and assignment[i][s] == assignment[j][r]:
                        total += val
    two_mu = sum(sum(d[s]) for s in range(n_slices)) + 2.0 * omega * n * (n_slices - 1)
    return total / two_mu


def partitions_rgs(n):
    """All set partitions of range(n) as label vectors (restricted growth)."""
    labels = [0] * n
    maxes = [0] * n
    while True:
        yield list(labels)
        i = n - 1
        while i > 0 and labels[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        maxes[i] = max(maxes[i - 1], labels[i])
        for j in range(i + 1, n):
            labels[j] = 0
            maxes[j] = maxes[i]


def exhaustive_best_modularity(adjacency, gamma):
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    d = a.sum(axis=1)
    twom = float(d.sum())
    best = -np.inf
    for labels in partitions_rgs(n):
        lab = np.array(labels)
        q = 0.0
        for c in range(lab.max() + 1):
            idx = np.flatnonzero(lab == c)
            q += a[np.ix_(idx, idx)].sum() - gamma * d[idx].sum() ** 2 / twom
        best = max(best, q / twom)
    return best


def exhaustive_best_multislice(adjacencies, gammas, omega):
    """Brute-force optimum of the multislice quality on a tiny stack."""
    n = adjacencies[0].shape[0]
    n_slices = len(adjacencies)
    best = -np.inf
    for labels in partitions_rgs(n * n_slices):
        assignment = np.array(labels).reshape(n_slices, n).T
        best = max(best, naive_multislice(adjacencies, gammas, omega, assignment))
    return best


def naive_purity(labels, assignment):
    groups = {}
    for lab, com in zip(labels, assignment):
        groups.setdefault(com, []).append(lab)
    correct = sum(Counter(members).most_common(1)[0][1] for members in groups.values())
    return correct / len(labels)


def naive_community_summaries(points, labels, assignment):
    """Per-community size, plurality label (ties to the smallest label),
    sorted composition and centroid, one community id at a time."""
    out = []
    for c in range(max(assignment) + 1):
        members = [i for i, com in enumerate(assignment) if com == c]
        tally = Counter(labels[i] for i in members)
        best = max(tally.values())
        out.append({
            "id": c,
            "size": len(members),
            "label": min(lab for lab, cnt in tally.items() if cnt == best),
            "composition": {lab: tally[lab] / len(members) for lab in sorted(tally)},
            "centroid": [sum(points[i][k] for i in members) / len(members) for k in (0, 1)],
        })
    return out


def naive_pair_counts(labels, assignment):
    n = len(labels)
    m = m1 = m2 = w = 0
    for i, j in combinations(range(n), 2):
        m += 1
        same_com = assignment[i] == assignment[j]
        same_lab = labels[i] == labels[j]
        m1 += same_com
        m2 += same_lab
        w += same_com and same_lab
    return m, m1, m2, w


def permutation_w_samples(labels, assignment, n_samples, seed, chunk=2000):
    """w under uniform random relabelings, vectorized but independent of the
    package's counting code."""
    rng = np.random.default_rng(seed)
    lab_codes = np.unique(np.asarray(labels), return_inverse=True)[1]
    com_codes = np.unique(np.asarray(assignment), return_inverse=True)[1]
    n_lab = int(lab_codes.max()) + 1
    n_com = int(com_codes.max()) + 1
    n = lab_codes.size
    cells = n_com * n_lab
    out = np.empty(n_samples, dtype=np.int64)
    done = 0
    while done < n_samples:
        b = min(chunk, n_samples - done)
        perm = np.tile(lab_codes, (b, 1))
        perm = rng.permuted(perm, axis=1)
        code = com_codes[None, :] * n_lab + perm
        flat = code + (np.arange(b) * cells)[:, None]
        counts = np.bincount(flat.ravel(), minlength=b * cells).reshape(b, cells)
        out[done:done + b] = (counts * (counts - 1) // 2).sum(axis=1)
        done += b
    return out


def naive_lloyd(points, centers):
    """Up to 300 Lloyd iterations on the full (n, k, dim) broadcast of
    differences, with the package's empty-cluster rule (promote the farthest point of a
    cluster that keeps a member) and, after a repair, its exact center for a cluster
    of copies of one point, written out as their own loops."""
    points = np.asarray(points, dtype=float)
    centers = np.array(centers, dtype=float)
    n, k = points.shape[0], centers.shape[0]
    prev_assign = None
    assign = np.zeros(n, dtype=int)
    obj = 0.0
    for _ in range(300):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), assign]
        repaired = False
        while True:
            counts = np.bincount(assign, minlength=k)
            empty = [c for c in range(k) if counts[c] == 0]
            if not empty:
                break
            far, far_d2 = None, -np.inf
            for i in range(n):
                if counts[assign[i]] >= 2 and point_d2[i] > far_d2:
                    far, far_d2 = i, point_d2[i]
            centers[empty[0]] = points[far]
            assign[far] = empty[0]
            point_d2[far] = 0.0
            repaired = True
        obj = float(point_d2.sum())
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        for c in range(k):
            members = points[assign == c]
            if repaired and (members == members[0]).all():
                centers[c] = members[0]
            else:
                centers[c] = members.mean(axis=0)
    return assign, centers, obj


def naive_embed(w, d, k):
    """Leading k eigenpairs of D^-1 W from a full dense `np.linalg.eigh` of
    D^-1/2 W D^-1/2, nonincreasing; returns (eigenvalues, coords) with the
    coordinates mapped back through D^-1/2."""
    root = np.sqrt(d)
    vals, vecs = np.linalg.eigh(w / root[:, None] / root[None, :])
    order = np.argsort(vals, kind="stable")[::-1][:k]
    return vals[order], vecs[:, order] / root[:, None]


def blend_weight_matrix(points, dense_social, alpha, sigma):
    """The blend K + alpha * (S - K) as one vectorized expression with its
    own temporaries, clamped to 1 with a unit diagonal."""
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    dx = xy[:, 0:1] - xy[:, 0:1].T
    dy = xy[:, 1:2] - xy[:, 1:2].T
    kernel = np.exp(-(dx * dx + dy * dy) / (sigma * sigma))
    w = np.minimum(kernel + alpha * (dense_social - kernel), 1.0)
    np.fill_diagonal(w, 1.0)
    return w
