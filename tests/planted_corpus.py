"""Seeded planted-topic corpora for tests.

A corpus mixes a Zipf background over a random vocabulary with planted
topics: document d belongs to topic d % topics, prefers that topic's journal
(topic % journals) and, four times in five, one of its three favoured
authors. Every word is three consonant-vowel syllables, so it survives the
pipeline's token filter. Titles, journals and authors are letters only and
unique after label cleaning. The same parameters and seed give the same
rows, and the same rows as the benchmark's clean corpora; this copy lives
here so that a change to the benchmark's generator cannot move a test.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import NamedTuple

import numpy as np

CONSONANTS = "bdfghklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]
FIELDS = ["title", "abstract", "first_author", "journal", "body"]
# The benchmark's `ensemble` workload: 80 documents of 300 tokens over a
# 2,000-word background, 20 topics, 10 journals and 25 authors.
ENSEMBLE_SHAPE = {
    "documents": 80, "tokens_per_document": 300, "vocabulary": 2000, "topics": 20, "journals": 10, "authors": 25,
}


def _letters(i: int, width: int) -> str:
    """Fixed-width base-26 letter code of i, e.g. 0 -> 'aaaa'."""
    out = []
    for _ in range(width):
        i, r = divmod(i, 26)
        out.append(chr(ord("a") + r))
    return "".join(reversed(out))


def _words(rng: np.random.Generator, count: int, syllables: int = 3) -> list[str]:
    """`count` distinct random words of `syllables` consonant-vowel pairs."""
    picks = rng.choice(len(SYLLABLES) ** syllables, size=count, replace=False)
    words = []
    for p in picks.tolist():
        parts = []
        for _ in range(syllables):
            p, r = divmod(p, len(SYLLABLES))
            parts.append(SYLLABLES[r])
        words.append("".join(parts))
    return words


class Truth(NamedTuple):
    """What a corpus plants, topic by topic: its terms, most frequent first,
    its journal and its three favoured first authors."""

    terms: list[list[str]]
    journals: list[str]
    authors: list[list[str]]


def generate(seed: int, **shape) -> list[dict]:
    """Rows with title, abstract, first_author, journal and body."""
    return planted(seed, **shape)[0]


def planted(
    seed: int, documents: int, tokens_per_document: int, vocabulary: int, topics: int, journals: int, authors: int,
    topic_words: int = 40, topic_share: float = 0.5, zipf_exponent: float = 1.1,
) -> tuple[list[dict], Truth]:
    """generate's rows, and the Truth they plant."""
    rng = np.random.default_rng([int(seed), 7919])
    vocab = _words(rng, vocabulary)
    background = np.arange(1, vocabulary + 1, dtype=np.float64) ** -zipf_exponent
    background /= background.sum()
    topic_terms = [rng.choice(vocabulary, size=topic_words, replace=False) for _ in range(topics)]
    topic_weights = 1.0 / np.arange(1, topic_words + 1)
    topic_weights /= topic_weights.sum()

    names = _words(rng, 2 * authors + journals + 64, syllables=2)
    author_names = [f"{names[2 * i].capitalize()} {names[2 * i + 1].capitalize()}" for i in range(authors)]
    journal_names = [f"Journal of {names[2 * authors + j].capitalize()} Studies" for j in range(journals)]
    title_words = names[2 * authors + journals:]

    n_topic = int(round(tokens_per_document * topic_share))
    n_back = tokens_per_document - n_topic
    rows = []
    for d in range(documents):
        topic = d % topics
        if rng.random() < 0.8:
            author = author_names[(topic * 7 + int(rng.integers(3))) % authors]
        else:
            author = author_names[int(rng.integers(authors))]
        tokens = [vocab[i] for i in rng.choice(vocabulary, size=n_back, p=background).tolist()]
        tokens += [vocab[topic_terms[topic][i]] for i in rng.choice(topic_words, size=n_topic, p=topic_weights).tolist()]
        body = " ".join(tokens[i] for i in rng.permutation(len(tokens)).tolist())
        picked = rng.choice(len(title_words), size=3, replace=False).tolist()
        rows.append({
            "title": " ".join(title_words[i] for i in picked).capitalize() + " " + _letters(d, 4),
            "abstract": f"We study {vocab[topic_terms[topic][0]]} in sample {_letters(d, 4)}.",
            "first_author": author,
            "journal": journal_names[topic % journals],
            "body": body,
        })
    truth = Truth(
        terms=[[vocab[i] for i in terms.tolist()] for terms in topic_terms],
        journals=[journal_names[topic % journals] for topic in range(topics)],
        authors=[[author_names[(topic * 7 + k) % authors] for k in range(3)] for topic in range(topics)],
    )
    return rows, truth


def write_csv(rows: list[dict], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return path
