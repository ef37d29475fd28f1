"""Geosocial community detection toolkit.

Builds a blended social + geographic similarity graph from point-located
individuals with sparse contact records, partitions it by spectral
clustering or (multislice) modularity optimization, and scores partitions
against ground-truth group labels with purity and z-Rand.
"""

import os

# After each threaded call, an idle OpenBLAS worker busy-waits for
# 2**OPENBLAS_THREAD_TIMEOUT cycles (default 28, about 0.1 s) before it
# sleeps; the grid commands' short BLAS calls kept both cores spinning.
# numpy's and scipy's bundled OpenBLAS read the variable once, when they
# load, which is after this line on every entry point. It only decides when
# an idle worker sleeps: the thread count and how work is split between the
# threads stay the same, so no result depends on it. A value the user has
# set is kept.
BLAS_THREAD_TIMEOUT = "14"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)

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
