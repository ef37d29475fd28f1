"""Synthetic inputs: ground-truth-derived social matrices and calibrated
geosocial datasets.

The real field-stop records behind this problem are not public, so the
toolkit ships a generator instead. It places group territories on a
jittered grid, scatters members around them as tail-clipped Gaussians
(elongation and extent vary per territory, member counts track territory
area), and samples sparse contacts through a two-level model: per-member
stop activity (heavy-tailed, boosted in contested ground) and then an
intra/inter group mix with geographic locality. An internal tuning loop
retunes the quiet-member share until the realized diagnostics hit the
Hollenbeck targets (TARGET_MEAN_DEGREE, TARGET_INTRA_FRACTION,
TARGET_ISOLATE_FRACTION): mean degree within 0.1, intra-group contact
fraction within 0.02, isolate fraction within 0.05. SynthConfig sets only
the member and group counts, the spatial spread and the seed; every other
model parameter is a module constant.

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
from .graph import Individual, SocialMatrix
from .metrics import diagnostics, intra_contact_count

# Model constants of the calibrated generator.
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


class InsufficientZeros(DataError):
    pass


class CalibrationFailure(NumericalError):
    pass


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


def gt_matrix(labels, params: GtParams) -> SocialMatrix:
    """Ground-truth-derived social matrix GT(p, q) for the given labels."""
    lab = np.asarray(labels)
    n = lab.size
    rng = np.random.default_rng(params.seed)
    iu, ju = np.triu_indices(n, k=1)
    intra_mask = lab[iu] == lab[ju]
    intra_pos = np.flatnonzero(intra_mask)

    n_keep = _round_half_up(params.p * intra_pos.size)
    kept = rng.choice(intra_pos, size=n_keep, replace=False) if n_keep else \
        np.zeros(0, dtype=int)

    n_flip = _round_half_up(params.q * kept.size)
    if n_flip:
        zero_mask = np.ones(iu.size, dtype=bool)
        zero_mask[kept] = False
        zero_pool = np.flatnonzero(zero_mask)
        if n_flip > zero_pool.size:
            raise InsufficientZeros(
                f"need {n_flip} zero entries to flip, only {zero_pool.size} available"
            )
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
    spatial_spread: float = 250.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_members <= 0 or self.n_groups <= 0:
            raise DataError("n_members and n_groups must be positive")
        if self.n_groups * MIN_GROUP_SIZE > self.n_members:
            raise DataError(
                f"n_groups * {MIN_GROUP_SIZE} (the minimum group size) exceeds n_members"
            )
        if not (math.isfinite(self.spatial_spread) and self.spatial_spread > 0):
            raise DataError(
                f"spatial_spread must be finite and positive, got {self.spatial_spread}"
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
    for g in np.argsort(remainder, kind="stable")[::-1][:short]:
        sizes[g] += 1
    return sizes + MIN_GROUP_SIZE


def _grid_centers(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Jittered grid of territory centers with nearest spacing around three
    spatial spreads, giving partially overlapping territories."""
    k = config.n_groups
    side = math.ceil(math.sqrt(k))
    pitch = 3.0 * config.spatial_spread
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    cells = np.column_stack([gx.ravel(), gy.ravel()]).astype(float) * pitch
    order = rng.permutation(cells.shape[0])[:k]
    jitter = rng.uniform(-CENTER_JITTER, CENTER_JITTER, size=(k, 2)) * pitch
    return cells[order] + jitter


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
    """
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

    chosen: list[np.ndarray] = []
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


def _contested_score(xy: np.ndarray, group_of: np.ndarray, centers: np.ndarray,
                     spread: np.ndarray) -> np.ndarray:
    """How deep each member sits in contested ground: near 1 where the
    nearest rival territory is as close as the home one, near 0 deep in
    home turf."""
    d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    d2 = d2 / (spread[None, :] ** 2)
    own = d2[np.arange(xy.shape[0]), group_of]
    d2[np.arange(xy.shape[0]), group_of] = np.inf
    rival = d2.min(axis=1)
    return np.exp(-np.maximum(rival - own, 0.0) / 4.0)


def generate_dataset(config: SynthConfig) -> tuple[list[Individual], SocialMatrix]:
    """Generate a labeled point set and contact matrix hitting the Hollenbeck
    diagnostics targets; deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    # Gaussian territories whose extent varies across groups; elongation is
    # area-preserving, so member density stays tied to the nominal spread.
    spread_factor = rng.uniform(
        1.0 - SPREAD_DISPERSION, 1.0 + SPREAD_DISPERSION, size=config.n_groups,
    )
    spread = config.spatial_spread * spread_factor
    ratio = rng.uniform(1.0, ANISOTROPY, size=config.n_groups)
    theta = rng.uniform(0.0, np.pi, size=config.n_groups)
    sizes = _group_sizes(config, spread_factor, rng)
    centers = _grid_centers(config, rng)
    group_of = np.repeat(np.arange(config.n_groups), sizes)
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
    labels = np.array([p.gang for p in individuals])

    n = config.n_members
    n_edges = _round_half_up(TARGET_MEAN_DEGREE * n / 2.0)
    n_intra = _round_half_up(TARGET_INTRA_FRACTION * n_edges)
    n_inter = n_edges - n_intra

    quiet = TARGET_ISOLATE_FRACTION
    intra_length = INTRA_CONTACT_SCALE * config.spatial_spread
    inter_length = INTER_CONTACT_SCALE * config.spatial_spread
    contested = _contested_score(xy, group_of, centers, spread)
    for _ in range(CALIBRATION_MAX_ITER):
        pairs = _sample_contacts(
            group_of, xy, n_intra, n_inter, quiet, contested,
            intra_length, inter_length, rng,
        )
        if pairs is None:
            quiet = max(0.0, quiet - 0.05)
            continue
        social = SocialMatrix.from_pairs(n, pairs)
        report = diagnostics(social, labels)
        ok = (
            abs(report.degree_mean - TARGET_MEAN_DEGREE) <= MEAN_DEGREE_TOL
            and abs((report.intra_fraction or 0.0) - TARGET_INTRA_FRACTION)
            <= INTRA_FRACTION_TOL
            and abs(report.isolate_fraction - TARGET_ISOLATE_FRACTION)
            <= ISOLATE_FRACTION_TOL
        )
        if ok:
            return individuals, social
        quiet = min(0.95, max(0.0, quiet - (report.isolate_fraction - TARGET_ISOLATE_FRACTION)))
    raise CalibrationFailure(
        f"diagnostics targets not met within {CALIBRATION_MAX_ITER} tuning iterations"
    )
