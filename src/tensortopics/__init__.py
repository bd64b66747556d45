"""Topic grouping for document corpora via sparse CP tensor factorization.

A corpus becomes a sparse 4-way tensor (author x document x journal x word,
with ln(1+count) entries), a CP model is fit per rank in an ensemble, and
cosine similarity over word factors picks a deduplicated component set to
report.
"""

from .artifacts import (
    ComponentReport, load_model, load_reports, load_tensor, save_model, save_tensor,
)
# Loading a submodule binds it as an attribute of the package; this import
# then rebinds cp_als to the function. Were cp_als lazy, the attribute would
# stay the module, since the module is loaded with artifacts.
from .cp_als import (
    AlsDivergenceError,
    AlsOptions,
    KruskalModel,
    arrange,
    cp_als,
    fit,
    init_factors,
    mttkrp,
)
from .linalg import gram, hadamard_all, normalize_columns_l1, solve_gram
from .report import build_report, emit_report, top_n
from .sparse_tensor import AxisMap, SparseTensorCOO

# Exported names whose modules load on first access (PEP 562), so that a stage
# process imports only the modules its own stage runs.
_LAZY = {
    "CleaningRules": "config",
    "SelectionConfig": "config",
    "CorpusRecord": "corpus_ingest",
    "QuadCounts": "corpus_ingest",
    "build_counts": "corpus_ingest",
    "clean_and_filter": "corpus_ingest",
    "counts_to_tensor": "corpus_ingest",
    "dedup": "corpus_ingest",
    "load_corpus": "corpus_ingest",
    "Component": "ensemble",
    "SelectionResult": "ensemble",
    "ZeroVectorError": "ensemble",
    "cosine": "ensemble",
    "decompose_ensemble": "ensemble",
    "select_components_detailed": "ensemble",
    "similarity_matrix": "ensemble",
}


def __getattr__(name):
    """Import the module of a lazily exported name, on its first access."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AlsDivergenceError",
    "AlsOptions",
    "AxisMap",
    "CleaningRules",
    "Component",
    "ComponentReport",
    "CorpusRecord",
    "KruskalModel",
    "QuadCounts",
    "SelectionConfig",
    "SelectionResult",
    "SparseTensorCOO",
    "ZeroVectorError",
    "arrange",
    "build_counts",
    "clean_and_filter",
    "cosine",
    "counts_to_tensor",
    "cp_als",
    "decompose_ensemble",
    "dedup",
    "build_report",
    "emit_report",
    "fit",
    "gram",
    "hadamard_all",
    "init_factors",
    "load_corpus",
    "load_model",
    "load_reports",
    "load_tensor",
    "mttkrp",
    "normalize_columns_l1",
    "save_model",
    "save_tensor",
    "select_components_detailed",
    "similarity_matrix",
    "solve_gram",
    "top_n",
]
