"""Topic grouping for document corpora via sparse CP tensor factorization.

A corpus becomes a sparse 4-way tensor (author x document x journal x word,
with ln(1+count) entries), a CP model is fit per rank in an ensemble, and
cosine similarity over word factors picks a deduplicated component set to
report.
"""

from .artifacts import (
    ComponentReport, load_model, load_reports, load_tensor, save_model, save_tensor,
)
from .corpus_ingest import (
    CleaningRules,
    CorpusRecord,
    QuadCounts,
    build_counts,
    clean_and_filter,
    counts_to_tensor,
    dedup,
    load_corpus,
)
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
from .ensemble import (
    Component,
    SelectionConfig,
    SelectionResult,
    ZeroVectorError,
    cosine,
    decompose_ensemble,
    select_components_detailed,
    similarity_matrix,
)
from .linalg import gram, hadamard_all, normalize_columns_l1, solve_gram
from .report import build_report, emit_report, top_n
from .sparse_tensor import AxisMap, SparseTensorCOO

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
