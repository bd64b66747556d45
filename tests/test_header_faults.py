"""Every header fault is a named error or harmless: enumerated edits of the
toy run's headers, each run through the stage that reads the header.

From one clean toy run, each top-level key of a header is in turn deleted,
replaced by a sample of each other JSON type, and, if it holds an integer,
replaced by that integer's decimal string. The reading stage must then
either exit 0 and write the clean run's bytes, or exit 1 with an `error: `
naming the edited file. A header nested past the JSON decoder's recursion
limit must be named as unreadable by every reader.
"""

import json
import shutil

import pytest

from tensortopics.cli import cli_run

from conftest import DATA_DIR

CFG = str(DATA_DIR / "toy.cfg")
# Each header, and the stages that read it.
READERS = {
    "tensor/header.json": ("factorize", "select", "report"),
    "models/rank_3.model": ("select",),
    "selection.json": ("report",),
}
# What each stage writes, relative to the workdir.
OUTPUTS = {
    "factorize": ("models",),
    "select": ("selection.json", "selection.npy"),
    "report": ("report",),
}
# One value of each JSON type.
SAMPLES = (None, True, 7, "x", [1], {"a": 1})


def _json_type(value):
    """The JSON type of a parsed value: ints and floats are one number type."""
    return "number" if type(value) in (int, float) else type(value)


def header_edits(header: dict):
    """(label, edited header) for each enumerated fault of each top-level key."""
    for key, value in header.items():
        yield f"no {key}", {k: v for k, v in header.items() if k != key}
        for sample in SAMPLES:
            if _json_type(sample) != _json_type(value):
                yield f"{key}={json.dumps(sample)}", {**header, key: sample}
        if type(value) is int:
            yield f"{key}={json.dumps(str(value))}", {**header, key: str(value)}


def outputs(workdir, stage) -> dict:
    """Every file `stage` wrote into `workdir`, by relative path, with its bytes."""
    found = {}
    for name in OUTPUTS[stage]:
        path = workdir / name
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        found.update((f.relative_to(workdir).as_posix(), f.read_bytes()) for f in files if f.is_file())
    return found


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("faults") / "clean"
    assert cli_run(["pipeline", "--config", CFG, "--workdir", str(workdir)]) == 0
    return workdir


@pytest.mark.parametrize("name, stage", [(name, stage) for name, stages in READERS.items() for stage in stages])
def test_every_header_fault_is_named_or_harmless(clean, tmp_path, capsys, name, stage):
    # A model's header is its first line; the other files are all header.
    line, newline, rest = (clean / name).read_text(encoding="utf-8").partition("\n")
    expected = outputs(clean, stage)
    cases, wrong = 0, []
    for cases, (label, header) in enumerate(header_edits(json.loads(line)), 1):
        workdir = tmp_path / str(cases)
        shutil.copytree(clean, workdir)
        for out in OUTPUTS[stage]:
            path = workdir / out
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        edited = workdir / name
        edited.write_text(json.dumps(header) + newline + rest, encoding="utf-8")
        capsys.readouterr()
        try:
            code = cli_run([stage, "--config", CFG, "--workdir", str(workdir)])
        except Exception as exc:  # an uncaught fault is what this test looks for
            wrong.append(f"{label}: raised {exc!r}")
            continue
        err = capsys.readouterr().err
        if code == 0:
            if outputs(workdir, stage) != expected:
                wrong.append(f"{label}: exit 0 with other output bytes")
        elif not (code == 1 and err.startswith("error: ") and str(edited) in err):
            wrong.append(f"{label}: exit {code}, stderr {err!r}")
    assert cases > 3 * len(json.loads(line))
    assert wrong == []


# Each header's artifact kind, as its reader names it.
KINDS = {"tensor/header.json": "tensor", "models/rank_3.model": "model", "selection.json": "selection"}


@pytest.mark.parametrize("name, stage", [(name, stage) for name, stages in READERS.items() for stage in stages])
def test_header_nested_past_the_recursion_limit_is_named(clean, tmp_path, capsys, name, stage):
    # The JSON decoder recurses once per nesting level, so this header is a
    # RecursionError to it, not a ValueError.
    _header, newline, rest = (clean / name).read_text(encoding="utf-8").partition("\n")
    workdir = tmp_path / "nested"
    shutil.copytree(clean, workdir)
    edited = workdir / name
    edited.write_text("[" * 200_000 + "]" * 200_000 + newline + rest, encoding="utf-8")
    capsys.readouterr()
    assert cli_run([stage, "--config", CFG, "--workdir", str(workdir)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {edited}: unreadable {KINDS[name]} header: ")
