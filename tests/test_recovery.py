"""The pipeline recovers the topics that a corpus plants.

The corpus has the benchmark `ensemble` workload's shape
(tests/planted_corpus.py): 20 topics, each with 40 terms and one journal.
The pipeline runs in process at the paper's seven ranks, 5 sweeps each, and
threshold 0.35. A kept component matches a topic when at least 10 of its top
20 keywords are among the topic's terms, and a topic is recovered when some
kept component matches it. These checks read what the report means, not its
bytes, so they still hold after a change that moves model bytes only by
rounding.
"""

import numpy as np
import pytest

from tensortopics import load_reports
from tensortopics.cli import cli_run

from planted_corpus import ENSEMBLE_SHAPE, planted, write_csv

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


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_planted_topics_are_recovered(tmp_path, seed):
    rows, truth = planted(seed, **ENSEMBLE_SHAPE)
    write_csv(rows, tmp_path / "corpus.csv")
    (tmp_path / "recovery.cfg").write_text(CONFIG % seed, encoding="utf-8")
    assert cli_run(["pipeline", "--config", str(tmp_path / "recovery.cfg"), "--workdir", str(tmp_path / "run")]) == 0
    components = load_reports(tmp_path / "run" / "report" / "report.json")
    # overlap[i, t]: how many of kept component i's top keywords are topic t's terms.
    overlap = np.array([
        [len({word for word, _ in c.keywords[:TOP_KEYWORDS]} & set(terms)) for terms in truth.terms]
        for c in components
    ])
    matched = overlap >= MATCH
    recovered = np.flatnonzero(matched.any(axis=0)).tolist()
    assert len(recovered) >= MIN_RECOVERED
    assert int((~matched.any(axis=1)).sum()) <= MAX_UNMATCHED
    for topic in recovered:
        # The best match: of the components sharing the most terms, the first kept.
        best = components[int(np.argmax(overlap[:, topic]))]
        assert best.mode_tops["journal"][0][0] == truth.journals[topic].lower(), topic
