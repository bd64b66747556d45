"""The file formats stay behind one module: artifacts.py.

Every versioned file's writer and reader live there. No other module of the
package may import (or reach through an attribute) the Artifact records, the
header and payload helpers, or zlib, which computes the payloads' CRC-32.
"""

import ast
from pathlib import Path

import pytest

from tensortopics import artifacts

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tensortopics"
FORMAT_NAMES = {
    "Artifact", "TENSOR", "MODEL", "SELECTION", "REPORT", "SUMMARY",
    "read_header", "write_json", "read_payload", "write_payload",
    "json_int", "json_finite", "of_json_type", "zlib",
}


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
