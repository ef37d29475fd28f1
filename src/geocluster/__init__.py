"""Geosocial community detection toolkit.

Builds a blended social + geographic similarity graph from point-located
individuals with sparse contact records, partitions it by spectral
clustering or (multislice) modularity optimization, and scores partitions
against ground-truth group labels with purity and z-Rand.
"""

from .graph import (
    GeoSocialGraph,
    Individual,
    SocialMatrix,
    build_weight_matrix,
    compute_sigma,
    normalize,
)
from .metrics import PairCounts, diagnostics, pair_counts, purity, z_rand
from .modularity import (
    SliceStack,
    louvain,
    modularity_score,
    multislice_louvain,
    multislice_score,
)
from .spectral import Embedding, Partition, embed, kmeans, spectral_cluster
from .synth import GtParams, SynthConfig, generate_dataset, gt_matrix

__all__ = [
    "GeoSocialGraph",
    "Individual",
    "SocialMatrix",
    "build_weight_matrix",
    "compute_sigma",
    "normalize",
    "PairCounts",
    "diagnostics",
    "pair_counts",
    "purity",
    "z_rand",
    "SliceStack",
    "louvain",
    "modularity_score",
    "multislice_louvain",
    "multislice_score",
    "Embedding",
    "Partition",
    "embed",
    "kmeans",
    "spectral_cluster",
    "GtParams",
    "SynthConfig",
    "generate_dataset",
    "gt_matrix",
]
