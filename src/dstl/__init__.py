"""Disentangled slim-tensor learning for fast multi-view clustering."""

from .data import (
    MultiViewDataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    normalize,
    write_dataset,
)
from .errors import InputError, NumericError
from .kmeans import KMeansConfig, kmeans, kmeans_repeats
from .metrics import SCORES, accuracy, ari, f_score, nmi, purity, scores
from .solver import VARIANTS, Hyperparams, clustering_embedding, fit_variant

__version__ = "0.1.0"

__all__ = [
    "MultiViewDataset",
    "SynthSpec",
    "generate_synthetic",
    "load_dataset",
    "write_dataset",
    "normalize",
    "InputError",
    "NumericError",
    "KMeansConfig",
    "kmeans",
    "kmeans_repeats",
    "accuracy",
    "nmi",
    "purity",
    "ari",
    "f_score",
    "SCORES",
    "scores",
    "VARIANTS",
    "Hyperparams",
    "fit_variant",
    "clustering_embedding",
    "__version__",
]
