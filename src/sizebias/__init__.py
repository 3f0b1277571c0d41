"""Size bias of the group h-index: null models, scaling fits, and
size-normalized rankings."""

__version__ = "0.8.0"

from .combinatorics import (
    PoolSpec,
    count_distribution,
    hypergeom_pmf,
    most_likely_black_count,
)
from .model import Dataset, Unit, group_h_indices, h_index
from .nullmodel import ReshuffleResult, mean_spearman_vs_real, run_null_model
from .scaling import (
    Benchmark,
    FitError,
    PowerLawFit,
    build_benchmark,
    competition_ranks,
    exact_benchmark,
    fit_power_law,
    normalized_scores,
)
from .synth import (
    CitationModel,
    SizeModel,
    build_synthetic_dataset,
    generation_stream,
    sample_citations,
    sample_sizes,
    verify_beta_relation,
)

__all__ = [
    "__version__",
    "Benchmark",
    "CitationModel",
    "Dataset",
    "FitError",
    "PoolSpec",
    "PowerLawFit",
    "ReshuffleResult",
    "SizeModel",
    "Unit",
    "build_benchmark",
    "build_synthetic_dataset",
    "competition_ranks",
    "count_distribution",
    "exact_benchmark",
    "fit_power_law",
    "generation_stream",
    "group_h_indices",
    "h_index",
    "hypergeom_pmf",
    "mean_spearman_vs_real",
    "most_likely_black_count",
    "normalized_scores",
    "run_null_model",
    "sample_citations",
    "sample_sizes",
    "verify_beta_relation",
]
