"""Synthetic inputs: ground-truth-derived social matrices and calibrated
geosocial datasets.

The real field-stop records behind this problem are not public, so the
toolkit ships a generator instead. It places group territories on a
jittered grid, scatters members around them as tail-clipped Gaussians
(elongation and extent vary per territory, member counts track territory
area), and samples sparse contacts through a two-level model: per-member
stop activity (heavy-tailed, boosted in contested ground) and then an
intra/inter group mix with geographic locality. The Hollenbeck targets
(TARGET_MEAN_DEGREE, TARGET_INTRA_FRACTION, TARGET_ISOLATE_FRACTION) must
hold within 0.1, 0.02 and 0.05. The member count fixes the contact counts
and so the first two; they, and whether the group sizes leave enough pairs
for those contacts, are checked once before the first draw. An internal
tuning loop then retunes the quiet-member share until a draw's isolate
fraction is on target. A draw weighs every pair of active members, one
group's block of pairs at a time; only the two pools' weight arrays (same
group, across groups) and the copies the weighted pick makes of them are
pool-sized. SynthConfig sets only the member and group counts and the
seed, each checked on construction; every other model parameter is a
module constant. Every length drawn is a multiple of SPATIAL_SPREAD, so it
only sets the coordinates' unit: the method derives its length scale sigma
from the data.

GT(p, q) starts from the full intra-group pair matrix, keeps a fraction p
of the upper-triangular intra pairs uniformly at random, then swaps a
fraction q of the surviving entries for uniformly chosen zero entries
(anywhere in the upper triangle), keeping the diagonal at 1 and the matrix
symmetric. Fractional counts round half-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError
from .graph import Individual, SocialMatrix, gaussian_block, sq_dist
from .metrics import diagnostics, intra_contact_count

# Model constants of the calibrated generator.
SPATIAL_SPREAD = 250.0  # nominal territory spread, in metres
SIZE_CONCENTRATION = 20.0  # Dirichlet concentration of the group-size noise
MIN_GROUP_SIZE = 4
SPREAD_DISPERSION = 0.25  # territory spread varies in spread * [1 - d, 1 + d]
ANISOTROPY = 2.5  # largest major/minor axis ratio of a territory
CENTER_JITTER = 0.3  # grid jitter of territory centers, in grid pitches
TAIL_CLIP = 2.2  # member offsets are resampled beyond this many spreads
HOTSPOT_STRENGTH = 6.0  # stop-activity boost in contested ground
ACTIVITY_SIGMA = 1.0  # log-normal sigma of per-member stop activity
INTRA_CONTACT_SCALE = 1.5  # contact locality scales, in spatial spreads
INTER_CONTACT_SCALE = 1.2
# Hollenbeck calibration targets.
TARGET_MEAN_DEGREE = 1.2754
TARGET_INTRA_FRACTION = 0.887
TARGET_ISOLATE_FRACTION = 0.42

CALIBRATION_MAX_ITER = 50
MEAN_DEGREE_TOL = 0.1
INTRA_FRACTION_TOL = 0.02
ISOLATE_FRACTION_TOL = 0.05


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class GtParams:
    """Sampling fraction p, corruption fraction q, and the draw seed."""

    p: float
    q: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DataError(f"p must lie in [0, 1], got {self.p}")
        if not (0.0 <= self.q <= 1.0):
            raise DataError(f"q must lie in [0, 1], got {self.q}")
        if self.seed < 0:
            raise DataError(f"seed must be at least 0, got {self.seed}")


def gt_matrix(labels, params: GtParams) -> SocialMatrix:
    """Ground-truth-derived social matrix GT(p, q) for the given labels."""
    # Integer label codes: the pair mask compares them ten times faster than
    # the label strings, and marks the same pairs.
    codes = np.unique(np.asarray(labels), return_inverse=True)[1]
    n = codes.size
    rng = np.random.default_rng(params.seed)
    iu, ju = np.triu_indices(n, k=1)
    intra_pos = np.flatnonzero(codes[iu] == codes[ju])

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


def total_intra_pairs(labels) -> int:
    """Number of unordered same-label pairs."""
    lab = np.asarray(labels)
    _, counts = np.unique(lab, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def gt_equivalence_point(labels, social: SocialMatrix) -> float:
    """The p at which GT(p, 0) carries as many true-positive pairs as the
    observed social matrix does intra-group contacts."""
    total = total_intra_pairs(labels)
    if total == 0:
        raise DataError("labels admit no intra-group pairs")
    return intra_contact_count(labels, social) / total


@dataclass(frozen=True)
class SynthConfig:
    """Generator configuration; the defaults give the Hollenbeck dataset of
    748 members in 31 groups with sparse, mostly intra-group contacts."""

    n_members: int = 748
    n_groups: int = 31
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_members <= 0 or self.n_groups <= 0:
            raise DataError("n_members and n_groups must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be at least 0, got {self.seed}")
        if self.n_groups * MIN_GROUP_SIZE > self.n_members:
            raise DataError(
                f"n_groups * {MIN_GROUP_SIZE} (the minimum group size) exceeds n_members"
            )


def _group_sizes(config: SynthConfig, spread_factor: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Group sizes summing exactly to n_members, floored at MIN_GROUP_SIZE.

    Sizes scale with territory area (spread squared) modulated by Dirichlet
    noise, so member density stays roughly uniform while group size and
    territory extent both vary.
    """
    noise = rng.dirichlet(np.full(config.n_groups, SIZE_CONCENTRATION))
    weights = spread_factor ** 2 * noise
    weights = weights / weights.sum()
    spare = config.n_members - config.n_groups * MIN_GROUP_SIZE
    raw = weights * spare
    sizes = np.floor(raw).astype(int)
    remainder = raw - sizes
    short = spare - int(sizes.sum())
    sizes[np.argsort(remainder, kind="stable")[::-1][:short]] += 1
    return sizes + MIN_GROUP_SIZE


def _grid_centers(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Jittered grid of territory centers with nearest spacing around three
    spatial spreads, giving partially overlapping territories."""
    k = config.n_groups
    side = math.ceil(math.sqrt(k))
    pitch = 3.0 * SPATIAL_SPREAD
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    cells = np.column_stack([gx.ravel(), gy.ravel()]).astype(float) * pitch
    order = rng.permutation(cells.shape[0])[:k]
    jitter = rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=(k, 2)) * pitch
    return cells[order] + jitter


def _block_weights(out: np.ndarray, act: np.ndarray, x: np.ndarray, y: np.ndarray,
                   rows: slice, cols: slice, length: float) -> np.ndarray:
    """Writes act_r * act_c * exp(-(dx^2 + dy^2) / (2 length^2)) of every
    pair (r, c) of rows x cols into `out`, of shape (len(rows), len(cols))."""
    scratch = np.empty_like(out)
    gaussian_block(out, scratch, x, y, rows, cols, 2.0 * length * length)
    out *= np.multiply(act[rows, None], act[None, cols], out=scratch)
    return out


def _sample_contacts(
    group_of: np.ndarray,
    xy: np.ndarray,
    n_edges_intra: int,
    n_edges_inter: int,
    quiet_fraction: float,
    contested: np.ndarray,
    intra_length: float,
    inter_length: float,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """One draw of the two-level contact model as an (m, 2) index array;
    None when the active pair pool cannot host the requested edge counts.

    Quiet members take part in no contacts at all (they are the isolates).
    Among active members, pairs are drawn without replacement with weight
    activity_i * activity_j times a Gaussian decay of the pair distance
    (scale intra_length within a group, inter_length across groups), since
    a recorded stop puts both parties at the same place. Stop activity is
    boosted in contested areas where territories overlap.

    `group_of` must be sorted (members stored group by group), so that
    each active member's same-group partners after it form one contiguous
    run and its other-group partners the rest of the active list. Each pool
    lists its pairs (r, c), r < c, in row-major order over the active
    members. Both are weighed in one pass over the groups: the active rows
    [lo, hi) of a group hold its same-group pairs as the strict upper
    triangle of the block [lo, hi) x [lo, hi) and its cross-group pairs as
    the block [lo, hi) x [hi, a), and each group's entries follow the
    previous group's in both pools. A draw costs O(a^2) time for a active
    members; what is pool-sized is the two weight arrays and the copies
    `rng.choice` makes of them, the rest is one group's block at a time.
    """
    n = group_of.size
    activity = rng.lognormal(mean=0.0, sigma=ACTIVITY_SIGMA, size=n)
    activity *= 1.0 + HOTSPOT_STRENGTH * contested
    quiet = rng.random(n) < quiet_fraction
    active = np.flatnonzero(~quiet)
    a = active.size
    if a < 2:
        return None
    # Active member r pairs within its group with [r + 1, end[r]) and
    # across groups with [end[r], a).
    group = group_of[active]
    end = np.searchsorted(group, group, side="right")
    first = np.arange(1, a + 1)
    pools = ((first, end - first, n_edges_intra), (end, a - end, n_edges_inter))
    intra_w, inter_w = (np.empty(lengths.sum()) for _, lengths, _ in pools)
    act, x, y = activity[active], xy[active, 0], xy[active, 1]
    lo = at_intra = at_inter = 0
    while lo < a:
        hi = end[lo]
        m, span = hi - lo, slice(lo, hi)
        square = _block_weights(np.empty((m, m)), act, x, y, span, span, intra_length)
        upper = square[np.less.outer(np.arange(m), np.arange(m))]
        intra_w[at_intra:at_intra + upper.size] = upper
        cross = inter_w[at_inter:at_inter + m * (a - hi)].reshape(m, a - hi)
        _block_weights(cross, act, x, y, span, slice(hi, a), inter_length)
        lo, at_intra, at_inter = hi, at_intra + upper.size, at_inter + cross.size

    chosen: list[np.ndarray] = []
    for (starts, lengths, count), w in zip(pools, (intra_w, inter_w)):
        if w.size < count:
            return None
        if count:
            w /= w.sum()
            picks = rng.choice(w.size, size=count, replace=False, p=w)
            # Row r's pairs are entries [stop[r] - lengths[r], stop[r]) of
            # the pool, with columns from starts[r] up.
            stop = np.cumsum(lengths)
            rows = np.searchsorted(stop, picks, side="right")
            cols = picks - (stop - lengths - starts)[rows]
            chosen.append(np.column_stack([active[rows], active[cols]]))
    return np.concatenate(chosen) if chosen else np.zeros((0, 2), dtype=int)


def _contested_score(xy: np.ndarray, group_of: np.ndarray, centers: np.ndarray,
                     spread: np.ndarray) -> np.ndarray:
    """How deep each member sits in contested ground: near 1 where the
    nearest rival territory is as close as the home one, near 0 deep in
    home turf."""
    d2 = sq_dist(xy[:, None, :], centers[None, :, :]) / (spread[None, :] ** 2)
    own = d2[np.arange(xy.shape[0]), group_of]
    d2[np.arange(xy.shape[0]), group_of] = np.inf
    rival = d2.min(axis=1)
    return np.exp(-np.maximum(rival - own, 0.0) / 4.0)


def generate_dataset(config: SynthConfig) -> tuple[list[Individual], SocialMatrix]:
    """Generate a labeled point set and contact matrix hitting the Hollenbeck
    diagnostics targets; deterministic per seed."""
    # Every draw has exactly n_edges distinct contacts, n_intra of them within
    # groups, so n alone fixes the mean degree and the intra fraction.
    n = config.n_members
    n_edges = _round_half_up(TARGET_MEAN_DEGREE * n / 2.0)
    n_intra = _round_half_up(TARGET_INTRA_FRACTION * n_edges)
    n_inter = n_edges - n_intra
    mean_degree, intra = 2.0 * n_edges / n, n_intra / n_edges
    if (abs(mean_degree - TARGET_MEAN_DEGREE) > MEAN_DEGREE_TOL
            or abs(intra - TARGET_INTRA_FRACTION) > INTRA_FRACTION_TOL):
        raise NumericalError(
            f"{n} members get {n_edges} contacts, {n_intra} of them intra-group, so "
            f"every draw would have mean degree {mean_degree:.4f} (target "
            f"{TARGET_MEAN_DEGREE} ± {MEAN_DEGREE_TOL}) and intra fraction "
            f"{intra:.4f} (target {TARGET_INTRA_FRACTION} ± {INTRA_FRACTION_TOL})"
        )

    rng = np.random.default_rng(config.seed)
    # Gaussian territories whose extent varies across groups; elongation is
    # area-preserving, so member density stays tied to the nominal spread.
    spread_factor = rng.uniform(
        1.0 - SPREAD_DISPERSION, 1.0 + SPREAD_DISPERSION, size=config.n_groups,
    )
    spread = SPATIAL_SPREAD * spread_factor
    ratio = rng.uniform(1.0, ANISOTROPY, size=config.n_groups)
    theta = rng.uniform(0.0, np.pi, size=config.n_groups)
    sizes = _group_sizes(config, spread_factor, rng)
    centers = _grid_centers(config, rng)
    group_of = np.repeat(np.arange(config.n_groups), sizes)
    # With every member active both pair pools are at their largest.
    intra_pool = total_intra_pairs(group_of)
    inter_pool = n * (n - 1) // 2 - intra_pool
    if intra_pool < n_intra or inter_pool < n_inter:
        raise NumericalError(
            f"even with every member active, the {intra_pool} intra-group and "
            f"{inter_pool} inter-group pairs cannot host {n_intra} intra-group "
            f"and {n_inter} inter-group edges"
        )
    offsets = rng.normal(size=(config.n_members, 2))
    # Territories have finite extent: resample the far Gaussian tail.
    radius = np.hypot(offsets[:, 0], offsets[:, 1])
    while np.any(radius > TAIL_CLIP):
        far = radius > TAIL_CLIP
        offsets[far] = rng.normal(size=(int(far.sum()), 2))
        radius = np.hypot(offsets[:, 0], offsets[:, 1])
    stretch = np.sqrt(ratio[group_of])
    major = offsets[:, 0] * spread[group_of] * stretch
    minor = offsets[:, 1] * spread[group_of] / stretch
    cos_t, sin_t = np.cos(theta[group_of]), np.sin(theta[group_of])
    xy = centers[group_of] + np.column_stack(
        [major * cos_t - minor * sin_t, major * sin_t + minor * cos_t]
    )
    width = len(str(config.n_groups - 1))
    individuals = [
        Individual(
            id=f"m{i:04d}",
            x=float(xy[i, 0]),
            y=float(xy[i, 1]),
            gang=f"g{group_of[i]:0{width}d}",
        )
        for i in range(config.n_members)
    ]

    quiet = TARGET_ISOLATE_FRACTION
    intra_length = INTRA_CONTACT_SCALE * SPATIAL_SPREAD
    inter_length = INTER_CONTACT_SCALE * SPATIAL_SPREAD
    contested = _contested_score(xy, group_of, centers, spread)
    for _ in range(CALIBRATION_MAX_ITER):
        pairs = _sample_contacts(
            group_of, xy, n_intra, n_inter, quiet, contested,
            intra_length, inter_length, rng,
        )
        if pairs is None:
            last = (f"at quiet fraction {quiet:.4f}, found too few active pairs "
                    f"to host {n_intra} intra-group and {n_inter} inter-group edges")
            quiet = max(0.0, quiet - 0.05)
            continue
        social = SocialMatrix.from_pairs(n, pairs)
        isolates = diagnostics(social, group_of).isolate_fraction
        if abs(isolates - TARGET_ISOLATE_FRACTION) <= ISOLATE_FRACTION_TOL:
            return individuals, social
        last = (f"at quiet fraction {quiet:.4f}, gave isolate fraction {isolates:.4f} "
                f"(target {TARGET_ISOLATE_FRACTION} ± {ISOLATE_FRACTION_TOL})")
        quiet = min(0.95, max(0.0, quiet - (isolates - TARGET_ISOLATE_FRACTION)))
    raise NumericalError(
        f"isolate fraction target not met within {CALIBRATION_MAX_ITER} draws; "
        f"the last draw, {last}"
    )
