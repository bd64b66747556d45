"""Topic grouping for document corpora via sparse CP tensor factorization.

A corpus becomes a sparse 4-way tensor (author x document x journal x word,
with ln(1+count) entries), a CP model is fit per rank in an ensemble, and
cosine similarity over word factors picks a deduplicated component set to
report.
"""

# Loading a submodule binds it as an attribute of the package, and the
# function cp_als shares its module's name. Bound here, the function takes
# the name once its module is loaded, which no later import rebinds.
from .cp_als import cp_als

# Each exported name and the module that defines it. A name's module loads on
# its first access (PEP 562), so that a stage process imports only the
# modules its own stage runs.
_EXPORTS = {
    "AxisMap": "sparse_tensor",
    "SparseTensorCOO": "sparse_tensor",
    "gram": "linalg",
    "hadamard_all": "linalg",
    "normalize_columns_l1": "linalg",
    "solve_gram": "linalg",
    "AlsDivergenceError": "cp_als",
    "AlsOptions": "cp_als",
    "KruskalModel": "cp_als",
    "arrange": "cp_als",
    "cp_als": "cp_als",
    "fit": "cp_als",
    "init_factors": "cp_als",
    "mttkrp": "cp_als",
    "ComponentReport": "artifacts",
    "load_model": "artifacts",
    "load_reports": "artifacts",
    "load_tensor": "artifacts",
    "save_model": "artifacts",
    "save_tensor": "artifacts",
    "build_report": "report",
    "emit_report": "report",
    "top_n": "report",
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
    """Import a module the table names, or an exported name's module and then
    keep the name, on first access."""
    module = name if name in _EXPORTS.values() else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Given a fromlist, __import__ returns the submodule itself. It binds the
    # submodule here, as `from . import` does, and -X importtime lists it.
    value = __import__(f"{__name__}.{module}", fromlist=[name])
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"
__all__ = list(_EXPORTS)
