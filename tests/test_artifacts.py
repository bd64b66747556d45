"""The file formats stay behind one module: artifacts.py.

Every versioned file's writer and reader live there. No other module of the
package may import (or reach through an attribute) the Artifact records, the
header and payload helpers, or zlib, which computes the payloads' CRC-32.
And artifacts.py sits below the modules that run the stages: it imports none
of them. The stages pass Kruskal tables: report.py imports only artifacts.py
and sparse_tensor.py, and neither it nor cli.py imports a component type or
splitter. Loading and checking each stage's inputs is artifacts.py's too:
cli.py imports no model type and builds no table.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from tensortopics import AxisMap, KruskalModel, SparseTensorCOO, artifacts
from tensortopics.cli import cli_run

from conftest import DATA_DIR

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tensortopics"
FORMAT_NAMES = {
    "Artifact", "TENSOR", "MODEL", "SELECTION", "REPORT", "SUMMARY",
    "read_header", "write_json", "read_payload", "write_payload",
    "json_int", "json_finite", "of_json_type", "zlib",
}
# The modules that run the stages, which sit above the file formats.
ABOVE_ARTIFACTS = {"ensemble", "report", "corpus_ingest", "config", "cli"}


def _used_names(tree: ast.AST) -> set[str]:
    """Every name a module imports, imports from, or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            names.add((node.module or "").split(".")[0])
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _package_imports(tree: ast.AST) -> set[str]:
    """Every tensortopics module a module imports, relatively or by its full name."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from . import cli` names the module in the alias, `from .cli import x` in the base.
            base = ("tensortopics." if node.level else "") + (node.module or "")
            dotted += [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("tensortopics.")}


def test_artifacts_imports_no_module_above_it():
    tree = ast.parse((PACKAGE / "artifacts.py").read_text(encoding="utf-8"))
    imports = _package_imports(tree)
    assert {"cp_als", "sparse_tensor"} <= imports  # the imports it does have are seen
    assert imports & ABOVE_ARTIFACTS == set()


def test_report_imports_only_artifacts_and_sparse_tensor():
    tree = ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))
    assert _package_imports(tree) == {"artifacts", "sparse_tensor"}


@pytest.mark.parametrize("module", ["cli.py", "report.py"])
def test_stages_import_no_component_objects(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _used_names(tree) & {"Component", "components_from_model", "components_from_table"} == set()


def test_cli_builds_no_table():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "cp_als" not in _package_imports(tree)
    assert _used_names(tree) & {"KruskalModel", "split", "empty", "load_model"} == set()


def test_artifacts_holds_every_format_name():
    # A renamed helper would otherwise drop out of the boundary check unseen.
    assert [name for name in sorted(FORMAT_NAMES) if not hasattr(artifacts, name)] == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "artifacts.py")
)
def test_only_artifacts_knows_the_file_formats(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert _used_names(tree) & FORMAT_NAMES == set()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_a_non_finite_float(tmp_path, value):
    # Strict JSON has no NaN or Infinity, and no reader here accepts them.
    path = tmp_path / "summary.json"
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        artifacts.write_json(path, artifacts.SUMMARY, threshold=value)
    assert not path.exists()


def test_load_pool_names_each_column_it_fills(tmp_path):
    # select passes load_pool's ids on as they are, so column j of the pool
    # must be column ids[j][1] of the rank-ids[j][0] model.
    rng = np.random.default_rng(5)
    shape = (2, 3, 4)
    tensor = SparseTensorCOO([[0, 1, 2], [1, 2, 3]], [1.0, 2.0], shape)
    axes = [AxisMap(f"{mode}{i}" for i in range(n)) for mode, n in zip("abc", shape)]
    artifacts.save_tensor(tensor, axes, ["a", "b", "c"], tmp_path / "tensor")
    _tensor, _names, crc32 = artifacts.load_tensor_payload(tmp_path / "tensor")
    models, paths = {}, {}
    for rank in (3, 2):
        models[rank] = KruskalModel(rng.random(rank), [rng.random((n, rank)) for n in shape])
        paths[rank] = artifacts.save_model(models[rank], tmp_path / f"rank_{rank}.model", tensor_payload_crc32=crc32)
    pool, ids, pool_crc32 = artifacts.load_pool(tmp_path / "tensor", paths)
    assert pool_crc32 == crc32
    assert sorted(ids) == sorted((rank, index) for rank in models for index in range(rank))
    assert pool.rank == len(ids)
    for j, (rank, index) in enumerate(ids):
        source = models[rank]
        assert pool.weights[j] == source.weights[index]
        for pooled, factor in zip(pool.factors, source.factors):
            np.testing.assert_array_equal(pooled[:, j], factor[:, index])


def test_no_load_parses_a_payload_header_twice(tmp_path, monkeypatch):
    # read_payload parses each .npy header once and reads the data with one
    # np.fromfile; np.lib.format.read_array would parse the header again.
    def read_array(*args, **kwargs):
        raise AssertionError("np.lib.format.read_array called")

    monkeypatch.setattr(np.lib.format, "read_array", read_array)
    workdir = tmp_path / "run"
    assert cli_run(["pipeline", "--config", str(DATA_DIR / "toy.cfg"), "--workdir", str(workdir)]) == 0
    artifacts.load_tensor(workdir / "tensor")
    for path in sorted((workdir / "models").glob("*.model")):
        artifacts.load_model(path)
    artifacts.load_selection(workdir / "selection.json", workdir / "tensor")
