"""Degenerate but legal tensors through `factorize` and `select`.

Each has a defined result: a rank above every mode's extent still fits and
saves a finite model, a rank at or above the tensor's last-mode fiber count
(which bounds its CP rank) is named in a warning and still fits, and a
tensor whose word slices are all parallel makes
every component's word vector the same direction, which selection keeps once.
"""

import csv
import json
import logging
import math
import re

import numpy as np
import pytest

from tensortopics import fit, load_model, load_tensor
from tensortopics.cli import cli_run

from conftest import DATA_DIR

CFG = str(DATA_DIR / "toy.cfg")


def test_rank_above_every_extent(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    workdir = tmp_path / "run"
    assert cli_run(["pipeline", "--config", CFG, "--workdir", str(workdir), "--ranks", "3,40"]) == 0
    tensor, _axes, _names = load_tensor(workdir / "tensor")
    assert max(tensor.shape) < 40
    model, header = load_model(workdir / "models" / "rank_40.model")
    assert header["rank"] == 40 and model.shape == tensor.shape
    assert np.all(np.isfinite(model.weights))
    assert all(np.all(np.isfinite(f)) for f in model.factors)
    logged = re.search(r"rank 40: fit (\S+) after (\d+) sweep\(s\), stopped: (\w+)", caplog.text)
    assert logged, caplog.text
    # toy.cfg: max_iters 60, fit_tolerance 1e-6
    assert logged[3] == "tolerance" and int(logged[2]) < 60
    assert float(logged[1]) == pytest.approx(0.797, abs=1e-3)
    assert fit(tensor, model) == pytest.approx(float(logged[1]), abs=1e-6)


# bench/checks.py reads each rank's fit and sweep count from these lines.
FIT_LINE = re.compile(r"rank (\d+): fit (-?[0-9.]+(?:e-?\d+)?) after (\d+) sweep\(s\), stopped: \w+")


def test_ranks_at_or_above_the_fiber_count_are_named(tmp_path, caplog):
    workdir = tmp_path / "run"
    assert cli_run(["ingest", "--config", CFG, "--workdir", str(workdir)]) == 0
    tensor, _axes, _names = load_tensor(workdir / "tensor")
    fibers = tensor.fibers.coords.shape[0]
    assert fibers == tensor.shape[1]  # one fiber per document
    ranks = [fibers - 1, fibers, fibers + 3]
    caplog.clear()
    caplog.set_level(logging.INFO)
    argv = ["factorize", "--config", CFG, "--workdir", str(workdir), "--ranks", ",".join(map(str, ranks))]
    assert cli_run(argv) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [
        f"rank {rank} is at or above the tensor's {fibers} last-mode fibers, which bound its CP rank"
        for rank in ranks[1:]
    ]
    # Every rank still fits and logs its fit line unchanged.
    assert sorted(int(m[1]) for m in FIT_LINE.finditer(caplog.text)) == ranks


# Every document holds the same word counts, in its own order: each (author,
# document, journal) cell has the word vector ln(1 + count), so all word
# slices of the tensor are multiples of one another.
WORD_COUNTS = {"airway": 3, "antibody": 2, "protein": 2, "vaccine": 1, "inflammation": 1, "clinics": 1}
NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def test_all_parallel_word_slices(tmp_path):
    rng = np.random.default_rng(0)
    bag = [word for word, count in WORD_COUNTS.items() for _ in range(count)]
    corpus = tmp_path / "corpus.csv"
    with corpus.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("title", "abstract", "first_author", "journal", "body"))
        for i, name in enumerate(NAMES):
            body = " ".join(bag[j] for j in rng.permutation(len(bag)))
            writer.writerow((f"paper {name}", f"abstract {name}", NAMES[i % 3], f"journal {NAMES[i % 2]}", body))
    workdir = tmp_path / "run"
    assert cli_run(["pipeline", "--config", CFG, "--corpus", str(corpus), "--workdir", str(workdir)]) == 0

    _tensor, axes, _names = load_tensor(workdir / "tensor")
    words = np.array([math.log1p(WORD_COUNTS[w]) for w in axes[3].labels])
    for rank in (3, 5):
        model, _header = load_model(workdir / "models" / f"rank_{rank}.model")
        columns = model.factors[3]
        cosines = columns.T @ words / np.linalg.norm(columns, axis=0) / np.linalg.norm(words)
        np.testing.assert_allclose(np.abs(cosines), 1.0, rtol=0, atol=1e-12)

    selection = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
    # Every component is stable, and all are duplicates of one another.
    assert (selection["pooled_count"], selection["stable_count"], len(selection["kept"])) == (8, 8, 1)
    report = json.loads((workdir / "report" / "report.json").read_text(encoding="utf-8"))
    keywords = dict(report["components"][0]["keywords"])
    assert keywords.keys() == WORD_COUNTS.keys()
    for word, score in keywords.items():
        assert score == pytest.approx(math.log1p(WORD_COUNTS[word]) / words.sum(), abs=1e-12)
