"""The pipeline recovers the topics that a corpus plants.

The corpus has the benchmark `ensemble` workload's shape
(tests/planted_corpus.py): 20 topics, each with 40 terms and one journal.
Its 80 documents put ranks 80 to 200 at or above the tensor's rank bound,
so a second shape has 400 shorter documents, more than every rank, as the
paper's corpus has. The pipeline runs in process at the paper's seven
ranks, 5 sweeps each, and threshold 0.35. A kept component matches a topic
when at least 10 of its top 20 keywords are among the topic's terms, and a
topic is recovered when some kept component matches it. Its best match
must also put the topic's journal and one of its documents on top, and
rank the topic's favoured first authors high. These checks read
what the report means, not its bytes, so they still hold after a change
that moves model bytes only by rounding. The same holds across OpenBLAS
kernels: two children under the AVX2 and the AVX kernels write other model
bytes, but keep the same components with the same keywords.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from tensortopics import load_reports
from tensortopics.cli import cli_run

from planted_corpus import ENSEMBLE_SHAPE, planted, write_csv
from test_golden import CORE_NAME

CONFIG = """\
corpus = corpus.csv
format = csv
ranks = 20,40,60,80,100,120,200
seed = %d
max_iters = 5
fit_tolerance = 1e-15
threads = 1
threshold = 0.35
strategy = stable-then-dedup
"""
TOP_KEYWORDS = 20
MATCH = 10
# Seeds 41, 42 and 43 recovered 19, 20 and 19 of the 20 topics, and kept 23,
# 21 and 25 components that match none.
MIN_RECOVERED = 18
MAX_UNMATCHED = 30
# 400 documents of 100 tokens: the same 2,000-word vocabulary, 20 topics
# and 10 journals, and 60 authors. Seeds 41 to 50 kept 20 to 31 components
# (41, 42 and 43: 29, 26 and 23), recovered 17 to 20 topics (18, 19 and 19)
# and kept 2 to 9 components that match none (9, 2 and 3). Selection on the
# author mode recovers every topic here, but keeps over 60 components.
MANY_DOCUMENTS_SHAPE = {
    "documents": 400, "tokens_per_document": 100, "vocabulary": 2000, "topics": 20, "journals": 10, "authors": 60,
}
MANY_DOCUMENTS_MIN_RECOVERED = 17
MANY_DOCUMENTS_MAX_UNMATCHED = 10
MANY_DOCUMENTS_MAX_KEPT = 40
# The best matches' authors, at both shapes. Over seeds 41 to 50 the share
# of recovered topics whose top author is one of the topic's three favoured
# ones was 0.63 to 0.95 at the first shape and 0.47 to 0.85 at the second
# (chance: 3 in 25 and 3 in 60), and the mean count of favoured authors in
# the top 3 was 1.25 to 1.95 and 1.41 to 1.95. Each recovered topic's best
# match had one of the topic's own documents on top on seeds 41 to 43 at
# both shapes (and on 44 to 46 at the first, all but 1 or 2 topics).
MIN_TOP_AUTHOR_SHARE = 0.45
MIN_TOP3_FAVOURED_AUTHORS = 1.2
# OPENBLAS_CORETYPE values: the AVX2 kernels of the golden runs, and the AVX ones.
KERNELS = ("Haswell", "Sandybridge")
KERNEL_KEYWORDS = 10


def write_inputs(directory, seed, shape=ENSEMBLE_SHAPE):
    """The planted corpus of `seed` and `shape` and its config in
    `directory`; returns the config's path and what the corpus plants."""
    rows, truth = planted(seed, **shape)
    write_csv(rows, directory / "corpus.csv")
    (directory / "recovery.cfg").write_text(CONFIG % seed, encoding="utf-8")
    return directory / "recovery.cfg", truth


def assert_recovered(tmp_path, seed, shape, min_recovered, max_unmatched, max_kept=None):
    """The pipeline on the planted corpus of `seed` and `shape` recovers at
    least `min_recovered` topics, keeps at most `max_unmatched` components
    that match none (and, if given, at most `max_kept` in all), and puts
    each recovered topic's journal and one of its documents on top of its
    best match, and favoured authors near the top (see mode_scores)."""
    config, truth = write_inputs(tmp_path, seed, shape)
    assert cli_run(["pipeline", "--config", str(config), "--workdir", str(tmp_path / "run")]) == 0
    components = load_reports(tmp_path / "run" / "report" / "report.json")
    # overlap[i, t]: how many of kept component i's top keywords are topic t's terms.
    overlap = np.array([
        [len({word for word, _ in c.keywords[:TOP_KEYWORDS]} & set(terms)) for terms in truth.terms]
        for c in components
    ])
    matched = overlap >= MATCH
    recovered = np.flatnonzero(matched.any(axis=0)).tolist()
    assert len(recovered) >= min_recovered
    assert max_kept is None or len(components) <= max_kept
    assert int((~matched.any(axis=1)).sum()) <= max_unmatched
    # The best match: of the components sharing the most terms, the first kept.
    best = {topic: components[int(np.argmax(overlap[:, topic]))] for topic in recovered}
    for topic, match in best.items():
        assert match.mode_tops["journal"][0][0] == truth.journals[topic].lower(), topic
    documents, top_author, top3_authors = mode_scores(best, truth)
    assert documents == recovered
    assert top_author >= MIN_TOP_AUTHOR_SHARE
    assert top3_authors >= MIN_TOP3_FAVOURED_AUTHORS


def document_topic(label, topics):
    """The topic of the document whose cleaned title is `label`: its trailing
    letter code, read as the base-26 document number, modulo `topics`."""
    number = 0
    for letter in label.split()[-1]:
        number = 26 * number + ord(letter) - ord("a")
    return number % topics


def mode_scores(best, truth):
    """Over the recovered topics, keys of `best` (topic -> its best match):
    the topics whose best match has one of the topic's own documents on top,
    the share whose top author is one of the topic's favoured three, and the
    mean number of favoured authors among its top 3."""
    documents, top_author, top3_authors = [], 0, 0
    for topic, match in best.items():
        if document_topic(match.mode_tops["document"][0][0], len(truth.terms)) == topic:
            documents.append(topic)
        favoured = set(truth.authors[topic])
        authors = [label for label, _ in match.mode_tops["first_author"][:3]]
        top_author += authors[0] in favoured
        top3_authors += len(favoured.intersection(authors))
    return documents, top_author / len(best), top3_authors / len(best)


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_planted_topics_are_recovered(tmp_path, seed):
    assert_recovered(tmp_path, seed, ENSEMBLE_SHAPE, MIN_RECOVERED, MAX_UNMATCHED)


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_planted_topics_are_recovered_with_more_documents_than_ranks(tmp_path, seed):
    assert_recovered(
        tmp_path, seed, MANY_DOCUMENTS_SHAPE,
        MANY_DOCUMENTS_MIN_RECOVERED, MANY_DOCUMENTS_MAX_UNMATCHED, MANY_DOCUMENTS_MAX_KEPT,
    )


def test_kept_components_do_not_depend_on_the_blas_kernel(tmp_path):
    config, _truth = write_inputs(tmp_path, 41)
    kept, keywords = {}, {}
    for kernel in KERNELS:
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "OPENBLAS_NUM_THREADS": "1"}
        core = subprocess.run([sys.executable, "-c", CORE_NAME], env=env, capture_output=True, text=True, timeout=60)
        assert core.returncode == 0, f"OpenBLAS core name unknown: {core.stderr.strip()}"
        assert core.stdout.strip() == kernel, f"OpenBLAS runs the {core.stdout.strip()} kernels, not {kernel}"
        workdir = tmp_path / kernel
        proc = subprocess.run(
            [sys.executable, "-m", "tensortopics.cli", "pipeline", "--config", str(config), "--workdir", str(workdir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        components = load_reports(workdir / "report" / "report.json")
        kept[kernel] = [(c.origin_rank, c.index_in_model) for c in components]
        keywords[kernel] = [{word for word, _ in c.keywords[:KERNEL_KEYWORDS]} for c in components]
    assert kept["Haswell"] == kept["Sandybridge"]
    assert keywords["Haswell"] == keywords["Sandybridge"]
