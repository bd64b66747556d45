"""Corpus loading, cleaning, deduplication, tokenization, and tensor assembly.

The pipeline is: load_corpus -> clean_and_filter -> dedup -> build_counts ->
counts_to_tensor. The tensor axes are (first_author, document, journal,
words); entry values are ln(1 + count) so bursty word repetition inside one
document is damped without vanishing.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
import re
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# The settings types are defined in config and importable from here too.
from .config import CORPUS_FORMATS, DEFAULT_STOPWORDS, CleaningRules, load_stopwords
from .sparse_tensor import AxisMap, SparseTensorCOO, _run_starts

logger = logging.getLogger(__name__)

MODE_NAMES = ("first_author", "document", "journal", "words")
UNKNOWN_JOURNAL = "(unknown-journal)"
REQUIRED_FIELDS = ("title", "abstract", "first_author", "journal")

_VOWELS = frozenset("aeiouy")
# A UTF-16 surrogate code point: never text on its own, and not UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")
# str.translate table: ASCII letters stay and every other ASCII character
# becomes a space, so split() gives the [A-Za-z]+ runs of ASCII text.
_TOKEN_TABLE = {c: chr(c) if chr(c).isalpha() else " " for c in range(128)}


def _tokens(text: str) -> list[str]:
    """The [A-Za-z]+ runs of text, in text order."""
    # A non-ASCII character is never part of a run. Encoding makes each one a
    # "?" in C, which keeps every text on CPython's fast ASCII translate path.
    if not text.isascii():
        text = text.encode("ascii", "replace").decode("ascii")
    return text.translate(_TOKEN_TABLE).split()


@dataclass(frozen=True)
class CorpusRecord:
    """One article: title, abstract, first author, journal, and body text."""

    title: str
    abstract: str
    first_author: str
    journal: str
    body: str


# What _rows yields for a jsonl line that does not parse.
_NOT_JSON = object()


def _rows(source: Path, corpus_format: str) -> Iterator[tuple[str, object]]:
    """(where, row) for each row of the source, `where` naming its file and
    line: a table row as a dict, or whatever a jsonl line parses to. A UTF-8
    byte-order mark is skipped; bytes that are not UTF-8 are a ValueError.
    The table reader's field limit is raised to the file's size, its longest
    possible field (a pipe, whose size is 0, keeps the default)."""
    import csv  # only the table formats read it; other stages never load it

    limit = csv.field_size_limit()
    csv.field_size_limit(max(limit, min(source.stat().st_size, 2**31 - 1)))
    try:
        with source.open(encoding="utf-8-sig", newline="") as fh:
            if corpus_format == "jsonl":
                for line_no, line in enumerate(fh, start=1):
                    line = line.strip()
                    if line:
                        try:
                            row = json.loads(line)
                        except (ValueError, RecursionError):  # a JSONDecodeError, or an int past 4,300 digits
                            row = _NOT_JSON
                        yield f"{source}:{line_no}", row
                return
            reader = csv.DictReader(fh, delimiter="," if corpus_format == "csv" else "\t")
            fields = reader.fieldnames
            if fields is None:
                return
            missing = [k for k in REQUIRED_FIELDS if k not in fields]
            if missing:
                raise ValueError(f"{source}: header lacks required columns {missing}")
            if "body" not in fields and "body_path" not in fields:
                raise ValueError(f"{source}: header needs a body or body_path column")
            for line_no, row in enumerate(reader, start=2):
                yield f"{source}:{line_no}", row
    except UnicodeDecodeError as exc:
        # The reader decodes in chunks, so its error has no line. Decoded with
        # surrogateescape, the first bad byte is the first lone surrogate.
        text = source.read_bytes().decode("utf-8", "surrogateescape")
        line = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
        raise ValueError(f"{source}:{line}: not UTF-8 text ({exc.reason})") from None
    finally:
        csv.field_size_limit(limit)


def load_corpus(source: str | Path, corpus_format: str = "csv") -> list[CorpusRecord]:
    """Read a delimited table or JSON-lines file into records.

    Columns: title, abstract, first_author, journal, and body (inline text)
    or body_path (file relative to the source). Malformed rows are skipped
    and counted; a body_path that is unreadable or not UTF-8 yields an empty
    body. An unreadable, badly-headed or non-UTF-8 source is a hard error.
    """
    source = Path(source)
    if corpus_format not in CORPUS_FORMATS:
        raise ValueError(
            f"unknown corpus format {corpus_format!r}, expected one of {CORPUS_FORMATS}"
        )
    records: list[CorpusRecord] = []
    malformed = unreadable_bodies = 0
    for where, row in _rows(source, corpus_format):
        if row is _NOT_JSON:
            problem = "invalid JSON, row skipped"
        elif not isinstance(row, dict):
            problem = "row is not an object, skipped"
        else:
            key = next((k for k in REQUIRED_FIELDS if not isinstance(row.get(k), str)), None)
            problem = key and f"missing or non-text {key!r} field, row skipped"
            if not problem:
                # A \ud800 escape parses to a lone surrogate, which no label file can hold.
                key = next((k for k in REQUIRED_FIELDS if _SURROGATE.search(row[k])), None)
                problem = key and f"{key!r} field holds a lone surrogate, row skipped"
        if problem:
            malformed += 1
            logger.warning("%s: %s", where, problem)
            continue
        body = row.get("body")
        if not (isinstance(body, str) and body):
            body = ""
            body_path = row.get("body_path")
            if isinstance(body_path, str) and body_path:
                try:
                    body = (source.parent / body_path).read_text(encoding="utf-8")
                except (OSError, ValueError):
                    unreadable_bodies += 1
                    logger.warning("%s: unreadable body_path %r", where, body_path)
        records.append(CorpusRecord(*(row[k] for k in REQUIRED_FIELDS), body))

    if malformed or unreadable_bodies:
        logger.warning(
            "%s: skipped %d malformed row(s), %d unreadable body file(s)",
            source,
            malformed,
            unreadable_bodies,
        )
    logger.info("%s: loaded %d record(s)", source, len(records))
    return records


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _clean_label(text: str) -> str:
    """The lowercased text's ASCII letter runs, joined by single spaces."""
    return " ".join(_tokens(text.lower()))


def _nonascii_letter_fraction(text: str) -> float:
    if text.isascii():
        return 0.0
    letters = sum(map(str.isalpha, text))
    if letters == 0:
        return 0.0
    ascii_letters = sum(map(str.isalpha, text.encode("ascii", "ignore").decode("ascii")))
    return (letters - ascii_letters) / letters


def clean_and_filter(records, rules: CleaningRules) -> list[CorpusRecord]:
    """Drop unusable records and canonicalize the metadata fields.

    Records with an empty body, or whose body's alphabetic characters are
    mostly non-ASCII (above rules.max_nonascii_fraction, a cheap non-English
    test), are dropped. Kept records get lowercased letter-only titles and
    journals and whitespace-normalized author names; bodies are untouched.
    Idempotent.
    """
    kept = []
    dropped_empty = 0
    dropped_lang = 0
    for rec in records:
        if not rec.body.strip():
            dropped_empty += 1
            continue
        if _nonascii_letter_fraction(rec.body) > rules.max_nonascii_fraction:
            dropped_lang += 1
            continue
        kept.append(
            CorpusRecord(
                _clean_label(rec.title),
                rec.abstract,
                _normalize_ws(rec.first_author),
                _clean_label(rec.journal),
                rec.body,
            )
        )
    if dropped_empty or dropped_lang:
        logger.info(
            "dropped %d empty-body and %d non-English record(s)",
            dropped_empty,
            dropped_lang,
        )
    return kept


def dedup(records) -> list[CorpusRecord]:
    """Keep the first record per cleaned title and per normalized abstract.

    A record is dropped when any earlier record (kept or dropped) shared its
    title or its non-empty abstract. Empty abstracts never collide; equal
    (even empty) titles do.
    """
    seen_titles: set[str] = set()
    seen_abstracts: set[str] = set()
    out = []
    for rec in records:
        abstract_key = _normalize_ws(rec.abstract.lower())
        duplicate = rec.title in seen_titles or (
            abstract_key != "" and abstract_key in seen_abstracts
        )
        seen_titles.add(rec.title)
        if abstract_key:
            seen_abstracts.add(abstract_key)
        if not duplicate:
            out.append(rec)
    if len(out) != len(records):
        logger.info("dropped %d duplicate record(s)", len(records) - len(out))
    return out


def _token_filter(rules: CleaningRules) -> Callable[[str], bool]:
    """build_counts' keep test for one lowercase ASCII-alphabetic token, with
    its regexes compiled once.

    Filters, in order: shorter than min_token_length, stopwords, DNA-like
    runs (length >= dna_min_run over the alphabet {a, c, g, t, u}), and
    nonsense words (no vowel, any character repeated more than
    max_char_repeat times consecutively, or a consonant run longer than
    max_consonant_run).
    """
    dna = re.compile(r"[acgtu]{%d,}" % rules.dna_min_run).fullmatch
    repeat = re.compile(r"(.)\1{%d,}" % rules.max_char_repeat).search
    consonants = re.compile(r"[^aeiouy]{%d,}" % (rules.max_consonant_run + 1)).search

    def keep(token: str) -> bool:
        return not (
            len(token) < rules.min_token_length
            or token in rules.stopwords
            or dna(token)
            or _VOWELS.isdisjoint(token)
            or repeat(token)
            or consonants(token)
        )

    return keep


class _Scan(NamedTuple):
    """Every body's tokens as ids into one table of distinct raw tokens.

    Ids are given at first sight: a token's id is the number of distinct
    tokens seen before it, in record order and, within a record, in the
    order of its raw and then its lowercased stream. Raw token r lowercases
    to words[raw_word[r]] (words too in order of first sight) and starts
    lowercase if raw_lower[r]. names holds the ids of the bodies' raw tokens
    (what the name filter sees) and counted the ids of the tokens they
    count, each as int32 (ids, the record of each id) in record and text
    order; counted is names when every body is ASCII.
    """

    words: list[str]
    raw_word: np.ndarray
    raw_lower: np.ndarray
    names: tuple[np.ndarray, np.ndarray]
    counted: tuple[np.ndarray, np.ndarray]


def _id_table() -> defaultdict:
    """An empty id table: looking up a new key gives it the next id, 0, 1, 2, ..."""
    return defaultdict(itertools.count().__next__)


def _scan(records) -> _Scan:
    """One translate-and-split scan per ASCII body, into token ids at once."""
    raw_ids = _id_table()

    def ids(tokens: list[str]) -> np.ndarray:
        return np.fromiter(map(raw_ids.__getitem__, tokens), dtype=np.int32, count=len(tokens))

    names, counted = [], []
    for rec in records:
        names.append(ids(_tokens(rec.body)))
        # Lowercasing can move token boundaries outside ASCII (the Kelvin sign
        # becomes "k", and "İ" an "i" plus a combining dot), so such a body
        # counts the tokens of its lowercased text.
        if rec.body.isascii():
            counted.append(names[-1])
        else:
            counted.append(ids(_tokens(rec.body.lower())))

    def flat(parts):
        record = np.repeat(np.arange(len(parts), dtype=np.int32), [len(part) for part in parts])
        return np.concatenate([np.empty(0, dtype=np.int32), *parts]), record

    raw = list(raw_ids)
    word_ids = _id_table()
    raw_word = np.fromiter(map(word_ids.__getitem__, map(str.lower, raw)), np.int32, len(raw))
    raw_lower = np.fromiter(map(str.islower, map(operator.itemgetter(0), raw)), bool, len(raw))
    names_flat = flat(names)
    return _Scan(
        list(word_ids),
        raw_word,
        raw_lower,
        names_flat,
        names_flat if all(map(operator.is_, names, counted)) else flat(counted),
    )


def _rare_capitalized(scan: _Scan, floor: int) -> np.ndarray:
    """Mask over scan.words: never seen lowercase-initial, and in at least one
    but fewer than `floor` bodies.

    Proxy for stripping author and place names out of the vocabulary: a
    capitalized-only word that almost no document mentions is far more
    likely a name than a topic word.

    Lowercase starts are marked once per distinct raw token of the bodies'
    raw streams. Only the tokens of the words left, the few candidates, are
    sorted as (record, word) pairs to count each one's bodies.
    """
    n_words = len(scan.words)
    raw, record = scan.names
    named = np.zeros(scan.raw_word.shape[0], dtype=bool)
    named[raw] = True
    lower_seen = np.zeros(n_words, dtype=bool)
    lower_seen[scan.raw_word[named & scan.raw_lower]] = True
    candidate = np.flatnonzero(~lower_seen[scan.raw_word][raw])
    # document frequency: the distinct (record, word) pairs of each candidate
    pairs = record[candidate].astype(np.int64)
    pairs *= n_words
    pairs += scan.raw_word[raw[candidate]]
    pairs.sort()
    pairs = pairs[_run_starts(pairs)]
    pairs %= n_words
    df = np.bincount(pairs, minlength=n_words)
    return (df > 0) & (df < floor) & ~lower_seen


@dataclass(frozen=True, eq=False)
class QuadCounts:
    """Token counts per (author, document, journal, word), plus the four axes.

    coords is (n, 4) int64 and tallies (n,) int64; the rows of coords are
    distinct and in lexicographic order, the tensor's own. counts is the
    same data as a dict in that order, built on each access.
    """

    coords: np.ndarray
    tallies: np.ndarray
    axes: tuple[AxisMap, AxisMap, AxisMap, AxisMap]

    @property
    def counts(self) -> dict[tuple[int, int, int, int], int]:
        return dict(zip(map(tuple, self.coords.tolist()), self.tallies.tolist()))

    def token_total(self) -> int:
        return int(self.tallies.sum())


def build_counts(records, rules: CleaningRules) -> QuadCounts:
    """Tokenize deduplicated records into quadruple counts.

    Axis indices are assigned in first-seen order (a word at its first kept
    occurrence), so the same record list always produces the same maps.
    Documents are keyed by cleaned title, authors verbatim (whitespace-
    normalized), and a record with an empty journal lands under the reserved
    "(unknown-journal)" label. Tokenless records are dropped with a diagnostic.

    Each body is scanned once (twice if it is not ASCII) into an id stream;
    every filter depends only on the word, so each distinct word is decided
    once. The counts are grouped with one in-place sort and a run scan, of
    int64 keys that order as the tensor's rows: the record's (author,
    document, journal) cell ranked lexicographically, then the word's
    vocabulary index. Each per-token array is held once and dropped as soon
    as it is used up: the scan's id streams once the kept words are taken,
    the kept words and their records once the keys are built.
    """
    scan = _scan(records)
    all_words, raw_word = scan.words, scan.raw_word
    keep = _token_filter(rules)
    kept_word = np.array([keep(w) for w in all_words], dtype=bool)
    if rules.name_df_floor > 0:
        excluded = _rare_capitalized(scan, rules.name_df_floor)
        if excluded.any():
            logger.info("name filter excluded %d token(s) from the vocabulary", excluded.sum())
        kept_word &= ~excluded

    raw, record = scan.counted
    del scan
    words = raw_word[raw]
    del raw
    kept = kept_word[words]
    words = words[kept]
    record = record[kept]
    del kept
    per_record = np.bincount(record, minlength=len(records))

    tables = (_id_table(), _id_table(), _id_table())
    # A tokenless record keeps row (0, 0, 0), which no token looks up.
    labels_of = np.zeros((len(records), 3), dtype=np.int64)
    dropped = 0
    for i, rec in enumerate(records):
        if not per_record[i]:
            dropped += 1
            logger.info("document %r yields no tokens, dropped", rec.title)
            continue
        labels = (rec.first_author, rec.title, rec.journal if rec.journal else UNKNOWN_JOURNAL)
        labels_of[i] = tuple(map(operator.getitem, tables, labels))
    if dropped:
        logger.info("dropped %d tokenless document(s)", dropped)

    first = np.full(len(all_words), words.shape[0])
    np.minimum.at(first, words, np.arange(words.shape[0]))
    vocabulary = np.argsort(first)[: np.count_nonzero(first < words.shape[0])]
    # int32 like the word ids, so word_index[words] is a 4-byte temporary
    word_index = np.zeros(len(all_words), dtype=np.int32)
    word_index[vocabulary] = np.arange(vocabulary.shape[0])
    cells, cell_of = np.unique(labels_of, axis=0, return_inverse=True)
    keys = cell_of[record]
    del record
    keys *= vocabulary.shape[0]
    keys += word_index[words]
    del words
    keys.sort()
    starts = _run_starts(keys)
    tallies = np.diff(starts, append=keys.shape[0])
    keys = keys[starts]
    del starts
    coords = np.empty((keys.shape[0], 4), dtype=np.int64)
    np.remainder(keys, vocabulary.shape[0], out=coords[:, 3])
    keys //= vocabulary.shape[0]
    for k in range(3):
        coords[:, k] = cells[keys, k]
    axes = (
        *(AxisMap(table) for table in tables),
        AxisMap([all_words[w] for w in vocabulary.tolist()]),
    )
    return QuadCounts(coords=coords, tallies=tallies, axes=axes)


def counts_to_tensor(quad: QuadCounts) -> SparseTensorCOO:
    """ln(1 + count) tensor over the (author, document, journal, word) axes.

    Each tally is looked up in a table indexed by count, which holds
    math.log1p of each distinct count (np.log1p may differ in the last bit).
    The table has max(tally) + 1 entries, never more than the tokens counted.
    """
    if not quad.tallies.shape[0]:
        raise ValueError("cannot build a tensor from an empty corpus")
    shape = tuple(len(axis) for axis in quad.axes)
    logs = np.zeros(int(quad.tallies.max()) + 1)
    distinct = np.flatnonzero(np.bincount(quad.tallies))
    logs[distinct] = [math.log1p(c) for c in distinct.tolist()]
    return SparseTensorCOO(quad.coords, logs[quad.tallies], shape)
