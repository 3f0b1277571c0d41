"""Size bias of the group h-index: null models, scaling fits, and
size-normalized rankings."""

from importlib import import_module

__version__ = "0.17.3"

# The submodule that defines each public name.  Names resolve on first use
# (PEP 562), so `import sizebias` loads neither numpy nor any submodule.
_SOURCES = {
    "combinatorics": ("PoolSpec", "count_distribution", "hypergeom_pmf", "most_likely_black_count"),
    "model": ("Dataset", "group_h_indices", "h_index"),
    "nullmodel": ("ReshuffleResult", "run_null_model"),
    "scaling": (
        "Benchmark", "FitError", "PowerLawFit", "build_benchmark", "competition_ranks",
        "exact_benchmark", "fit_power_law", "normalized_scores",
    ),
    "synth": ("SizeModel", "build_synthetic_dataset", "generation_stream", "sample_citations", "sample_sizes"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
