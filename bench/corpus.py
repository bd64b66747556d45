"""Seeded synthetic corpora for the benchmark.

A corpus mixes a Zipf background over a random vocabulary with planted
topics; each topic prefers one journal and a few authors. Every word is
three consonant-vowel syllables, so it survives the pipeline's token filter
(length >= 3, a vowel, no long consonant run, too short to look like DNA).
Titles, journals and authors are letters only and unique after the
pipeline's label cleaning, which lowercases and strips everything but
letters.

The noisy variant adds what the cleaning stages exist to remove:
stopwords, capitalised one-off names, nucleotide runs, gibberish tokens,
non-English rows, and rows that repeat an earlier title or abstract.
Nothing is downloaded; the same parameters and seed give the same bytes.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CONSONANTS = "bdfghklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]
STOPWORDS = "the of and in to with for from this that were which their these".split()
CYRILLIC = "абвгдежзиклмнопрстуфхцчшщэюя"


@dataclass(frozen=True)
class CorpusParams:
    """Sizes of one generated corpus."""

    documents: int
    tokens_per_document: int
    vocabulary: int
    topics: int
    journals: int
    authors: int
    topic_words: int = 40
    topic_share: float = 0.5
    zipf_exponent: float = 1.1
    noisy: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def _letters(i: int, width: int) -> str:
    """Fixed-width base-26 letter code of i, e.g. 0 -> 'aaaa'."""
    out = []
    for _ in range(width):
        i, r = divmod(i, 26)
        out.append(chr(ord("a") + r))
    return "".join(reversed(out))


def _words(rng: np.random.Generator, count: int, syllables: int = 3) -> list[str]:
    """`count` distinct random words of `syllables` consonant-vowel pairs."""
    space = len(SYLLABLES) ** syllables
    picks = rng.choice(space, size=count, replace=False)
    words = []
    for p in picks.tolist():
        parts = []
        for _ in range(syllables):
            p, r = divmod(p, len(SYLLABLES))
            parts.append(SYLLABLES[r])
        words.append("".join(parts))
    return words


def _gibberish(rng: np.random.Generator) -> str:
    kind = int(rng.integers(3))
    if kind == 0:  # no vowel at all
        return "".join(rng.choice(list("bcdfghklmnpqrstvwxz"), size=6).tolist())
    if kind == 1:  # one character repeated past the limit
        return "z" + "o" * 5 + "m"
    return "ka" + "".join(rng.choice(list("bcdfghklmnpqrstvwxz"), size=7).tolist())


def generate(params: CorpusParams, seed: int) -> list[dict]:
    """Rows with title, abstract, first_author, journal and body."""
    rng = np.random.default_rng([int(seed), 7919])
    vocab = _words(rng, params.vocabulary)
    ranks = np.arange(1, params.vocabulary + 1, dtype=np.float64)
    background = ranks ** -params.zipf_exponent
    background /= background.sum()

    topic_terms = [
        rng.choice(params.vocabulary, size=params.topic_words, replace=False)
        for _ in range(params.topics)
    ]
    topic_weights = 1.0 / np.arange(1, params.topic_words + 1)
    topic_weights /= topic_weights.sum()

    names = _words(rng, 2 * params.authors + params.journals + 64, syllables=2)
    authors = [
        f"{names[2 * i].capitalize()} {names[2 * i + 1].capitalize()}"
        for i in range(params.authors)
    ]
    journal_names = [
        f"Journal of {names[2 * params.authors + j].capitalize()} Studies"
        for j in range(params.journals)
    ]
    title_words = names[2 * params.authors + params.journals :]

    n_topic = int(round(params.tokens_per_document * params.topic_share))
    n_back = params.tokens_per_document - n_topic
    rows = []
    for d in range(params.documents):
        topic = d % params.topics
        journal = journal_names[topic % params.journals]
        if rng.random() < 0.8:
            author = authors[(topic * 7 + int(rng.integers(3))) % params.authors]
        else:
            author = authors[int(rng.integers(params.authors))]
        tokens = [vocab[i] for i in rng.choice(params.vocabulary, size=n_back, p=background).tolist()]
        tokens += [
            vocab[topic_terms[topic][i]]
            for i in rng.choice(params.topic_words, size=n_topic, p=topic_weights).tolist()
        ]
        if params.noisy:
            tokens += rng.choice(STOPWORDS, size=params.tokens_per_document // 5).tolist()
            tokens.append(f"{names[int(rng.integers(len(names)))].capitalize()}{_letters(d, 3)}")
            tokens.append("".join(rng.choice(list("acgt"), size=12).tolist()))
            tokens.append(_gibberish(rng))
        order = rng.permutation(len(tokens))
        body = " ".join(tokens[i] for i in order.tolist())
        picked = rng.choice(len(title_words), size=3, replace=False).tolist()
        title = " ".join(title_words[i] for i in picked).capitalize() + " " + _letters(d, 4)
        abstract = f"We study {vocab[topic_terms[topic][0]]} in sample {_letters(d, 4)}."
        rows.append(
            {"title": title, "abstract": abstract, "first_author": author, "journal": journal, "body": body}
        )

    if params.noisy:
        extra = []
        step = 25
        for d in range(0, params.documents, step):
            src = rows[d]
            foreign = "".join(rng.choice(list(CYRILLIC), size=200).tolist())
            extra.append(dict(src, title=f"Foreign note {_letters(d, 4)}", abstract="", body=foreign))
            extra.append(dict(src, abstract=f"Repeat title {_letters(d, 4)}."))
            extra.append(dict(src, title=f"Repeat abstract {_letters(d, 4)}"))
        rows.extend(extra)
    return rows


def write_csv(rows: list[dict], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["title", "abstract", "first_author", "journal", "body"])
        writer.writeheader()
        writer.writerows(rows)
    return path
