"""Degenerate but legal corpora through the `ingest` command, and ingest
output that does not depend on string hashing.

Each corpus either ingests to the tensor that the token-at-a-time oracle
builds from the same records, or fails with a named error and no traceback.
"""

import csv
import math
import os
import re
import subprocess
import sys

import pytest

from tensortopics import (
    CleaningRules,
    SparseTensorCOO,
    clean_and_filter,
    dedup,
    load_corpus,
    load_tensor,
)
from tensortopics.cli import cli_run

from conftest import DATA_DIR, build_counts_oracle

FIELDS = ("title", "abstract", "first_author", "journal", "body")
BODIES = [
    "Airway airway inflammation in Geneva clinics",
    "Vaccine trials measured antibody titers",
    "Geneva protein folding under stress",
    "antibody airway protein vaccine",
]
# Bodies that are not ASCII, two of them with letters whose lowercase moves a
# token boundary: the Kelvin sign lowercases to "k", and "İ" to "i" plus a
# combining dot.
NON_ASCII_BODIES = [
    "\u212aelvin scale protein measured in Kiel",
    "\u0130stanbul clinics measured protein and antibody",
    "naïve café airway antibody study",
]


# Cleaning strips digits from titles and journals, so labels are letters.
NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def write_corpus(path, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        writer.writerows(rows)
    return path


def ingest(tmp_path, rows):
    corpus = write_corpus(tmp_path / "corpus.csv", rows)
    workdir = tmp_path / "run"
    return cli_run(["ingest", "--corpus", str(corpus), "--workdir", str(workdir)]), corpus, workdir


def assert_matches_oracle(corpus, workdir):
    """The written tensor is the oracle's ln(1 + count) tensor over its axes."""
    rules = CleaningRules()
    want = build_counts_oracle(dedup(clean_and_filter(load_corpus(corpus), rules)), rules)
    tensor, axes, _names = load_tensor(workdir / "tensor")
    assert [axis.labels for axis in axes] == [axis.labels for axis in want.axes]
    expected = SparseTensorCOO(
        list(want.counts), [math.log1p(c) for c in want.counts.values()], tensor.shape
    )
    assert tensor.coords.tobytes() == expected.coords.tobytes()
    assert tensor.values.tobytes() == expected.values.tobytes()
    return tensor


def test_one_journal(tmp_path):
    rows = [(NAMES[i], NAMES[i], f"Author {i % 2}", "Journal", b) for i, b in enumerate(BODIES)]
    code, corpus, workdir = ingest(tmp_path, rows)
    assert code == 0
    tensor = assert_matches_oracle(corpus, workdir)
    assert tensor.shape[:3] == (2, 4, 1)


def test_one_author(tmp_path):
    rows = [(NAMES[i], NAMES[i], "Sole Author", NAMES[i], body) for i, body in enumerate(BODIES)]
    code, corpus, workdir = ingest(tmp_path, rows)
    assert code == 0
    tensor = assert_matches_oracle(corpus, workdir)
    assert tensor.shape[:3] == (1, 4, 4)


def test_every_record_a_duplicate_of_the_first(tmp_path):
    rows = [("Same title", "Same abstract", "Author", "Journal", BODIES[0])] * 5
    code, corpus, workdir = ingest(tmp_path, rows)
    assert code == 0
    tensor = assert_matches_oracle(corpus, workdir)
    # one document; "in" is a stopword and "Geneva" a capitalized word of one document
    _tensor, axes, _names = load_tensor(workdir / "tensor")
    assert tensor.shape == (1, 1, 1, 3)
    assert axes[3].labels == ["airway", "inflammation", "clinics"]


def test_every_body_tokenless(tmp_path, capsys):
    bodies = ["of the and", "12 34 -- !!", "a an as at", "acgtacgtacgt xxqzwv"]
    rows = [(NAMES[i], NAMES[i], "Author", "Journal", body) for i, body in enumerate(bodies)]
    code, _corpus, workdir = ingest(tmp_path, rows)
    err = capsys.readouterr().err
    assert code == 1
    assert "error: cannot build a tensor from an empty corpus" in err
    assert "Traceback" not in err
    assert not (workdir / "tensor").exists()


def test_mixed_ascii_and_non_ascii_bodies(tmp_path):
    bodies = [*BODIES, *NON_ASCII_BODIES]
    rows = [(NAMES[i], NAMES[i], f"Author {i % 3}", NAMES[i % 2], b) for i, b in enumerate(bodies)]
    # The corpus reaches the non-ASCII route: a body that keeps it, and whose
    # lowercased text splits into other tokens than its lowercased raw tokens.
    probe = write_corpus(tmp_path / "probe.csv", rows)
    kept = clean_and_filter(load_corpus(probe), CleaningRules())
    assert any(
        re.findall("[a-z]+", rec.body.lower())
        != [t.lower() for t in re.findall("[A-Za-z]+", rec.body)]
        for rec in kept
    )
    code, corpus, workdir = ingest(tmp_path, rows)
    assert code == 0
    tensor = assert_matches_oracle(corpus, workdir)
    _tensor, axes, _names = load_tensor(workdir / "tensor")
    assert "kelvin" in axes[3] and "stanbul" in axes[3]
    assert tensor.shape[1] == len(bodies)


@pytest.mark.parametrize("corpus", ["toy", "mixed"])
def test_ingest_bytes_do_not_depend_on_the_hash_seed(tmp_path, corpus):
    if corpus == "toy":
        args = ["--config", str(DATA_DIR / "toy.cfg")]
    else:
        bodies = [*BODIES, *NON_ASCII_BODIES, "Marchetti measured Zurich airway"]
        rows = [(NAMES[i], NAMES[i], f"A {i % 3}", NAMES[i % 2], b) for i, b in enumerate(bodies)]
        args = ["--corpus", str(write_corpus(tmp_path / "corpus.csv", rows))]
    trees = []
    for seed in ("0", "12345"):
        workdir = tmp_path / f"seed{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "tensortopics.cli", "ingest", *args, "--workdir", str(workdir)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        tensor_dir = workdir / "tensor"
        trees.append({p.name: p.read_bytes() for p in sorted(tensor_dir.iterdir())})
    assert sorted(trees[0]) == [
        "entries.npy", "entries.tsv", "header.json", "mode0.labels.txt", "mode1.labels.txt",
        "mode2.labels.txt", "mode3.labels.txt",
    ]
    assert trees[0] == trees[1]
