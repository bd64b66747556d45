"""The package root exports every name in its __all__.

One table in the root maps each exported name to the module that defines it,
and the name loads on its first access; only the function cp_als, which
shares its module's name, is bound on import. So each export must still be
the object its module defines, and a star import must still bind them all.
"""

import importlib
import sys

import pytest

import tensortopics


@pytest.mark.parametrize("name", tensortopics.__all__)
def test_export_is_the_object_its_module_defines(name):
    value = getattr(tensortopics, name)
    assert value.__module__.startswith("tensortopics.")
    assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_export():
    scope = {}
    exec("from tensortopics import *", scope)
    assert sorted(name for name in scope if name != "__builtins__") == sorted(tensortopics.__all__)


def test_cp_als_stays_the_function_when_its_module_is_imported():
    # Importing a submodule binds it as an attribute of its package, and the
    # package has a module and a function both named cp_als.
    importlib.import_module("tensortopics.ensemble")
    module = importlib.import_module("tensortopics.cp_als")
    assert tensortopics.cp_als is module.cp_als


def test_every_export_is_kept_once_loaded():
    # The module __getattr__ runs only on a name's first access.
    for name in tensortopics.__all__:
        getattr(tensortopics, name)
    assert set(tensortopics.__all__) <= set(vars(tensortopics))


def test_export_list_is_pinned():
    # __all__, dir() and the star import all come from one table, so a name
    # dropped from it would vanish from every one of them at once.
    assert sorted(tensortopics.__all__) == [
        "AlsDivergenceError", "AlsOptions", "AxisMap", "CleaningRules", "Component",
        "ComponentReport", "CorpusRecord", "KruskalModel", "QuadCounts", "SelectionConfig",
        "SelectionResult", "SparseTensorCOO", "ZeroVectorError", "arrange", "build_counts",
        "build_report", "clean_and_filter", "cosine", "counts_to_tensor", "cp_als",
        "decompose_ensemble", "dedup", "emit_report", "fit", "gram", "hadamard_all",
        "init_factors", "load_corpus", "load_model", "load_reports", "load_tensor",
        "mttkrp", "normalize_columns_l1", "save_model", "save_tensor",
        "select_components_detailed", "similarity_matrix", "solve_gram", "top_n",
    ]
