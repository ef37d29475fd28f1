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
import scipy.sparse as sp

from geocluster.baselines import COV_REG, EM_TOL, GmmFit
from geocluster.spectral import kmeans_pp_init
from geocluster.errors import DataError
from geocluster.graph import SocialMatrix
from geocluster.synth import ACTIVITY_SIGMA, HOTSPOT_STRENGTH, _round_half_up


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


def _first_occurrence(labels):
    """Relabel to 0, 1, ... in order of first appearance."""
    ids = {}
    return np.array([ids.setdefault(int(x), len(ids)) for x in labels], dtype=int)


def _explicit_local_phase(b, labels, rng):
    """Greedy single-vertex moves over the rows of a CSR quality matrix until
    a full sweep makes none: largest positive link, ties and gains within
    1e-12 keep the current community."""
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
            if best != cur and link[best] > max(link[cur], 0.0) + 1e-12:
                labels[v] = best
                moved += 1
        if moved == 0:
            return improved
        improved = True


def _explicit_aggregate(b, labels):
    """P^T B P for the community-indicator matrix P."""
    p = sp.csr_matrix((np.ones(labels.size), (np.arange(labels.size), labels)),
                      shape=(labels.size, int(labels.max()) + 1))
    out = (p.T @ b @ p).tocsr()
    out.sum_duplicates()
    return out


def explicit_multislice_louvain(adjacencies, gammas, omega, seed):
    """Louvain on the explicit supra-matrix B: dense per-slice blocks
    A - gamma d d^T / sum(d) on the diagonal, omega between copies of a
    vertex in adjacent slices, aggregated as P^T B P at every level, with
    the package's move rule and random visiting order. Returns the
    (n, n_slices) assignment and its quality sum(B * delta) / 2 mu."""
    n, n_slices = adjacencies[0].shape[0], len(adjacencies)
    blocks, strength_total = [], 0.0
    for a, gamma in zip(adjacencies, gammas):
        d = a.sum(axis=1)
        twom = float(d.sum())
        blocks.append(a - gamma * np.outer(d, d) / twom)
        strength_total += twom
    b0 = sp.block_diag(blocks, format="csr")
    if n_slices > 1 and omega > 0.0:
        coupling = np.full(n * (n_slices - 1), omega)
        b0 = (b0 + sp.diags([coupling, coupling], offsets=[n, -n], shape=b0.shape)).tocsr()
    two_mu = strength_total + 2.0 * omega * n * (n_slices - 1)
    rng = np.random.default_rng(seed)
    b = b0
    mapping = np.arange(b0.shape[0])
    while True:
        while True:
            labels = np.arange(b.shape[0])
            if not _explicit_local_phase(b, labels, rng):
                break
            labels = _first_occurrence(labels)
            mapping = labels[mapping]
            b = _explicit_aggregate(b, labels)
        refined = mapping.copy()
        if not _explicit_local_phase(b0, refined, rng):
            break
        mapping = _first_occurrence(refined)
        b = _explicit_aggregate(b0, mapping)
    mapping = _first_occurrence(mapping)
    quality = float(_explicit_aggregate(b0, mapping).diagonal().sum()) / two_mu
    return mapping.reshape(n_slices, n).T.copy(), quality


def pairlist_sample_contacts(group_of, xy, n_edges_intra, n_edges_inter,
                              quiet_fraction, contested, intra_length,
                              inter_length, rng):
    """The contact draw over an explicit list of every active pair
    (`np.triu_indices`), split into same-group and cross-group pools by a
    mask; the same draws and RNG stream as `synth._sample_contacts`."""
    n = group_of.size
    activity = rng.lognormal(mean=0.0, sigma=ACTIVITY_SIGMA, size=n)
    activity *= 1.0 + HOTSPOT_STRENGTH * contested
    quiet = rng.random(n) < quiet_fraction
    activity[quiet] = 0.0
    active = np.flatnonzero(~quiet)
    if active.size < 2:
        return None
    iu, ju = np.triu_indices(active.size, k=1)
    pi, pj = active[iu], active[ju]
    same = group_of[pi] == group_of[pj]
    pair_w = activity[pi] * activity[pj]
    dist2 = ((xy[pi] - xy[pj]) ** 2).sum(axis=1)

    chosen = []
    for mask, count, length in ((same, n_edges_intra, intra_length),
                                (~same, n_edges_inter, inter_length)):
        pool = np.flatnonzero(mask)
        if pool.size < count:
            return None
        if count:
            w = pair_w[pool] * np.exp(-dist2[pool] / (2.0 * length * length))
            picks = rng.choice(pool, size=count, replace=False, p=w / w.sum())
            chosen.append(picks)
    idx = np.concatenate(chosen) if chosen else np.zeros(0, dtype=int)
    return np.column_stack([pi[idx], pj[idx]])


def string_mask_gt_matrix(labels, params):
    """GT(p, q) with the intra-group pair mask taken on the label values
    themselves, not on integer codes; the same draws as `synth.gt_matrix`."""
    lab = np.asarray(labels)
    n = lab.size
    rng = np.random.default_rng(params.seed)
    iu, ju = np.triu_indices(n, k=1)
    intra_pos = np.flatnonzero(lab[iu] == lab[ju])

    n_keep = _round_half_up(params.p * intra_pos.size)
    kept = rng.choice(intra_pos, size=n_keep, replace=False)

    n_flip = _round_half_up(params.q * kept.size)
    if n_flip:
        zero_mask = np.ones(iu.size, dtype=bool)
        zero_mask[kept] = False
        zero_pool = np.flatnonzero(zero_mask)
        if n_flip > zero_pool.size:
            raise DataError(f"need {n_flip} zero entries to flip, only {zero_pool.size} available")
        out = rng.choice(kept, size=n_flip, replace=False)
        into = rng.choice(zero_pool, size=n_flip, replace=False)
        final = np.setdiff1d(kept, out, assume_unique=True)
        final = np.concatenate([final, into])
    else:
        final = kept
    return SocialMatrix.from_pairs(n, np.column_stack([iu[final], ju[final]]))


def loop_fit_gmm(points, k, seed, max_iter=500):
    """The mixture EM one component at a time: a (n, k) log-density matrix
    stacked column by column, an M-step that walks the components with a
    dead-component branch, and one 2x2 eigenvalue floor per call. Only the
    k-means++ seeding, the constants and `GmmFit` are shared with `fit_gmm`."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    reg = COV_REG * max(float(points.var(axis=0).mean()), 1e-300)

    means = kmeans_pp_init(points, k, rng)
    d2 = ((points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    resp = np.zeros((n, k))
    resp[np.arange(n), d2.argmin(axis=1)] = 1.0
    weights, means, covs = loop_m_step(points, resp, reg)

    history = []
    cap_hit = True
    for _ in range(max_iter):
        log_prob = np.column_stack(
            [np.log(max(weights[i], 1e-300)) + _loop_log_gauss2d(points, means[i], covs[i])
             for i in range(k)]
        )
        top = log_prob.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(log_prob - top).sum(axis=1))
        history.append(float(log_norm.sum()))
        if len(history) > 1 and (history[-1] - history[-2]) / n < EM_TOL:
            cap_hit = False
            break
        resp = np.exp(log_prob - log_norm[:, None])
        weights, means, covs = loop_m_step(points, resp, reg)

    scales = np.sqrt(0.5 * (covs[:, 0, 0] + covs[:, 1, 1]))
    return GmmFit(means=means, covariances=covs, weights=weights,
                  log_likelihoods=history, scales=scales, cap_hit=cap_hit)


def _loop_log_gauss2d(points, mean, cov):
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]], [-cov[1, 0], cov[0, 0]]]) / det
    diff = points - mean
    quad = (
        inv[0, 0] * diff[:, 0] ** 2
        + (inv[0, 1] + inv[1, 0]) * diff[:, 0] * diff[:, 1]
        + inv[1, 1] * diff[:, 1] ** 2
    )
    return -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad


def loop_m_step(points, resp, reg):
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
        covs[i] = _loop_floor_eigenvalues((resp[:, i, None] * diff).T @ diff / mass[i], reg)
    return weights, means, covs


def _loop_floor_eigenvalues(cov, floor):
    """Clip the eigenvalues of a symmetric 2x2 matrix from below."""
    sym = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[0] >= floor:
        return sym
    return (vecs * np.maximum(vals, floor)) @ vecs.T
