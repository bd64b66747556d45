"""Metamorphic ingest tests: what cleaning promises to ignore leaves every
byte of tensor/ unchanged.

Each test generates a lowercase corpus, changes it in one way that cleaning
must undo, and ingests both through run_ingest: the two tensor directories
must hold the same files with the same bytes. Every change keeps the care
rules that make the relation exact:
- appended rows come after their originals, because dedup keeps the first;
- no token put into a body is capitalized, because the name filter drops
  rare words that bodies show only capitalized;
- a title keeps its cleaned form, so no two titles come to collide.
The same corpus, re-encoded as csv, tsv or jsonl, after a byte-order mark or
with its columns in another order, is the same corpus: reading it must give
the same bytes too.
"""

import csv
import json
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensortopics.cli import run_ingest
from tensortopics.config import PipelineConfig
from tensortopics.corpus_ingest import CORPUS_FORMATS, DEFAULT_STOPWORDS, REQUIRED_FIELDS

RELATION = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Words every default filter keeps, so each body yields at least one token.
TOPIC_WORDS = (
    "airway", "asthma", "vaccine", "protein", "virus", "immune", "fever", "spike",
    "mucus", "tissue", "rodent", "dose", "trial", "lung", "cohort", "antibody",
)
words = st.one_of(st.sampled_from(TOPIC_WORDS), st.text(string.ascii_lowercase, min_size=1, max_size=9))
phrases = st.lists(words, min_size=1, max_size=5).map(" ".join)
names = st.lists(st.text(string.ascii_lowercase, min_size=1, max_size=6), min_size=1, max_size=3).map(" ".join)
# Text between two words that every body filter drops.
stopwords = st.sampled_from(sorted(DEFAULT_STOPWORDS))
short_tokens = st.text(string.ascii_lowercase, min_size=1, max_size=2)
nucleotide_runs = st.text("acgtu", min_size=8, max_size=16)
separators = st.text(string.digits + string.punctuation, min_size=1, max_size=4)
NON_ASCII_LETTERS = "абвгдежзиклмнопрстуфхэюяαβγδεζηθλμξπρστφχψω"


@st.composite
def rows(draw):
    return {
        "title": draw(phrases),
        "abstract": draw(phrases),
        "first_author": draw(names),
        "journal": draw(st.one_of(st.just(""), phrases)),
        "body": " ".join(draw(st.lists(words, max_size=12)) + [draw(st.sampled_from(TOPIC_WORDS))]),
    }


corpora = st.lists(rows(), min_size=1, max_size=8)
FIELDS = (*REQUIRED_FIELDS, "body")


def tensor_files(corpus, corpus_format="jsonl", columns=FIELDS, bom=False) -> dict[str, bytes]:
    """Every file of tensor/ as run_ingest writes it for `corpus`, written as
    `corpus_format` with its fields in the order of `columns`, after a UTF-8
    byte-order mark if `bom`. A table row has every column; a jsonl row only
    the fields it holds."""
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / f"corpus.{corpus_format}"
        with source.open("w", encoding="utf-8-sig" if bom else "utf-8", newline="") as out:
            if corpus_format == "jsonl":
                out.writelines(json.dumps({k: row[k] for k in columns if k in row}) + "\n" for row in corpus)
            else:
                table = csv.DictWriter(out, columns, delimiter="," if corpus_format == "csv" else "\t")
                table.writeheader()
                table.writerows(corpus)
        workdir = Path(tmp) / "run"
        run_ingest(PipelineConfig(corpus=source, corpus_format=corpus_format, workdir=workdir))
        return {path.name: path.read_bytes() for path in sorted((workdir / "tensor").iterdir())}


def assert_same_tensor(corpus, changed):
    assert tensor_files(changed) == tensor_files(corpus)


def fresh_title(draw, corpus) -> str:
    """A title that cleans to no title of the corpus."""
    taken = {row["title"] for row in corpus}
    return draw(phrases.filter(lambda title: title not in taken))


def restyle(draw, label: str) -> str:
    """label with random letter case and digit-and-punctuation runs at its
    word boundaries, which label cleaning strips again."""
    gap = st.one_of(st.just(""), separators)
    text = draw(gap)
    for word in label.split():
        text += " " + draw(st.sampled_from([word, word.upper(), word.title()])) + " " + draw(gap)
    return text


def dropped_row(draw, corpus, kind: str) -> dict:
    """A row that cleaning drops, of the given kind. It carries a word no
    other row has, so a row that is not dropped changes the vocabulary."""
    original = draw(st.sampled_from(corpus))
    row = dict(draw(rows()), title=fresh_title(draw, corpus))
    row["body"] += " unseenword"
    if kind == "repeated_title":
        row["title"] = restyle(draw, original["title"])
    elif kind == "repeated_abstract":
        row["abstract"] = "  " + "\t ".join(original["abstract"].upper().split()) + " "
    elif kind == "non_ascii_body":
        ascii_letters = sum(map(str.isalpha, row["body"]))
        foreign = draw(st.text(NON_ASCII_LETTERS, min_size=ascii_letters + 1, max_size=ascii_letters + 10))
        row["body"] = draw(st.sampled_from([foreign + " " + row["body"], row["body"] + " " + foreign]))
    elif kind == "missing_field":
        del row[draw(st.sampled_from(REQUIRED_FIELDS))]
    elif kind == "tokenless_body":
        row["body"] = " ".join(draw(st.lists(st.one_of(stopwords, short_tokens), min_size=1, max_size=10)))
    return row


@pytest.mark.parametrize(
    "kind", ["repeated_title", "repeated_abstract", "non_ascii_body", "missing_field", "tokenless_body"]
)
@RELATION
@given(corpus=corpora, data=st.data())
def test_appended_dropped_rows_change_nothing(kind, corpus, data):
    draw = data.draw
    appended = [dropped_row(draw, corpus, kind) for _ in range(draw(st.integers(1, 2)))]
    assert_same_tensor(corpus, corpus + appended)


@pytest.mark.parametrize(
    "ignored",
    [st.one_of(stopwords, short_tokens), nucleotide_runs, separators],
    ids=["stopwords_and_short_tokens", "nucleotide_runs", "digits_and_punctuation"],
)
@RELATION
@given(corpus=corpora, data=st.data())
def test_ignored_tokens_between_words_change_nothing(ignored, corpus, data):
    draw = data.draw
    changed = []
    for row in corpus:
        body = row["body"].split()
        out = []
        for word in body:
            out.extend(draw(st.lists(ignored, max_size=2)))
            out.append(word)
        out.extend(draw(st.lists(ignored, max_size=2)))
        changed.append(dict(row, body=" ".join(out)))
    assert_same_tensor(corpus, changed)


@RELATION
@given(corpus=corpora, data=st.data())
def test_label_edits_that_cleaning_strips_change_nothing(corpus, data):
    draw = data.draw
    changed = []
    for row in corpus:
        author = draw(st.sampled_from([" ", "\t", "  ", " \t "])).join(row["first_author"].split())
        changed.append(
            dict(
                row,
                title=restyle(draw, row["title"]),
                journal=restyle(draw, row["journal"]),
                first_author=draw(st.sampled_from(["", " ", "\t"])) + author + draw(st.sampled_from(["", "  "])),
            )
        )
    assert_same_tensor(corpus, changed)


# Each space of a field may become one of these, so the table writers must
# quote: a delimiter of either table format, a quote, a line break.
QUOTED_GAPS = st.sampled_from([" ", " ", ", ", ' "', "\t", "\n", "\r\n", "' ", " é "])


# Every encoding but the jsonl one that tensor_files writes by default.
ENCODINGS = [
    (corpus_format, variant)
    for corpus_format in CORPUS_FORMATS
    for variant in ("plain", "byte_order_mark", "reordered_columns")
    if (corpus_format, variant) != ("jsonl", "plain")
]


@pytest.mark.parametrize(("corpus_format", "variant"), ENCODINGS)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=corpora, data=st.data())
def test_re_encoding_changes_nothing(corpus_format, variant, corpus, data):
    draw = data.draw
    corpus = [{k: "".join(draw(QUOTED_GAPS) if c == " " else c for c in v) for k, v in row.items()} for row in corpus]
    columns = FIELDS
    if variant == "reordered_columns":
        columns = tuple(draw(st.permutations(FIELDS).filter(lambda order: order != FIELDS)))
    changed = tensor_files(corpus, corpus_format, columns, bom=variant == "byte_order_mark")
    assert changed == tensor_files(corpus)
