"""Size bias of the group h-index: null models, scaling fits, and
size-normalized rankings."""

__version__ = "0.5.0"

from .combinatorics import (
    BasketSpec,
    PoolSpec,
    count_distribution,
    hypergeom_pmf,
    most_likely_black_count,
    share_distribution,
)
from .model import Dataset, Unit, group_h_index, group_h_indices, h_index
from .nullmodel import (
    ReshuffleConfig,
    ReshuffleResult,
    mean_spearman_vs_real,
    run_null_model,
)
from .scaling import (
    Benchmark,
    FitError,
    PowerLawFit,
    build_benchmark,
    competition_ranks,
    exact_benchmark,
    fit_power_law,
    normalized_scores,
    slope_significance,
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
    "BasketSpec",
    "Benchmark",
    "CitationModel",
    "Dataset",
    "FitError",
    "PoolSpec",
    "PowerLawFit",
    "ReshuffleConfig",
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
    "group_h_index",
    "group_h_indices",
    "h_index",
    "hypergeom_pmf",
    "mean_spearman_vs_real",
    "most_likely_black_count",
    "normalized_scores",
    "run_null_model",
    "sample_citations",
    "sample_sizes",
    "share_distribution",
    "slope_significance",
    "verify_beta_relation",
]
