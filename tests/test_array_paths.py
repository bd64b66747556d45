"""The array-level ingest and I/O paths against their one-at-a-time oracles.

Token filtering decides each distinct token once, the tensor is built and
coalesced from arrays (rows that are already sorted skip the coalescing),
quadruples are counted by an in-place sort, entries.tsv and entries.npy are
written in chunks (the latter as np.save's bytes), the model body's floats are formatted in
numpy, tensor and model numbers are read from binary payloads that must hold
the same bits as the text, and top_n sorts only its candidates. Each must give exactly what the per-token, per-row,
always-sorting or full-sort code gives. save_tensor's traced memory peak
must not grow with nnz, and build_counts' must stay under a fixed number of
bytes per scanned token.
"""

import io
import json
import math
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tensortopics import (
    AxisMap,
    CleaningRules,
    CorpusRecord,
    KruskalModel,
    SparseTensorCOO,
    build_counts,
    clean_and_filter,
    counts_to_tensor,
    dedup,
    load_corpus,
    load_model,
    load_tensor,
    save_model,
    save_tensor,
)
from tensortopics import artifacts
from tensortopics.corpus_ingest import (
    DEFAULT_STOPWORDS,
    _nonascii_letter_fraction,
    _rare_capitalized,
    _scan,
)
from tensortopics.cli import cli_run
from tensortopics.report import top_n

from conftest import (
    DATA_DIR,
    build_counts_oracle,
    coalesce_oracle,
    entries_npy_oracle,
    entries_text_oracle,
    kept_words,
    lexsort_coalesce_oracle,
    lower_tokens_oracle,
    model_text_oracle,
    model_text_table,
    nonascii_letter_fraction,
    quad_counts_unique_oracle,
    rare_capitalized_oracle,
    raw_tokens_oracle,
    top_n_oracle,
)

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Words that exercise every filter: names only ever capitalized, DNA runs,
# repeated letters, consonant runs, stopwords, short words, and non-ASCII
# letters, two of which lowercase to ASCII ("K" KELVIN SIGN -> "k", and "İ"
# -> "i" plus a combining dot).
WORDS = [
    "WHO", "Geneva", "GENEVA", "Marchetti", "protein", "Protein", "viral", "cells",
    "the", "and", "of", "ox", "a", "acgtacgtacgt", "acguacgu", "ttttttttt", "aaaab",
    "bbbbb", "xkcd", "strengths", "rhythm", "mRNA", "COVID", "Kelvin", "K",
    "İstanbul", "İ", "naïve", "café", "été",
]
SEPARATORS = [" ", "  ", "-", ", ", ". ", "\n", "19", "\t", ""]
bodies = st.lists(
    st.tuples(
        st.sampled_from(WORDS) | st.text(alphabet="acegiotuyACGTKYKİï", min_size=1, max_size=12),
        st.sampled_from(SEPARATORS),
    ),
    max_size=30,
).map(lambda parts: "".join(word + sep for word, sep in parts))
rules = st.builds(
    CleaningRules,
    stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset(), frozenset({"protein", "cells"})]),
    min_token_length=st.integers(1, 5),
    dna_min_run=st.integers(2, 10),
    max_char_repeat=st.integers(1, 4),
    max_consonant_run=st.integers(1, 6),
    name_df_floor=st.integers(0, 3),
)
# Text on which a translate-and-split scan could part ways with the regexes:
# the Kelvin sign and "İ" lowercase to ASCII letters (the latter plus a
# combining dot), "ß" and "é" are letters outside ASCII, and U+00A0 and
# U+2028 are whitespace to str.split() without being ASCII.
TOKEN_ALPHABET = "abeizAEKZ\u212a\u0130\u0307\u00df\u00e90179.,;-'_()\t\n\x0b\x0c\u00a0\u2028 "
token_texts = st.text(alphabet=TOKEN_ALPHABET, max_size=80) | st.text(max_size=40)
records = st.lists(
    st.builds(
        CorpusRecord,
        title=st.sampled_from(["t1", "t2", "t3", "t4", ""]),
        abstract=st.just(""),
        first_author=st.sampled_from(["Ann", "Bo", "Cy"]),
        journal=st.sampled_from(["j1", "j2", ""]),
        body=bodies,
    ),
    max_size=8,
)


class TestTokenFiltering:
    @PROPERTY
    @given(body=bodies, rules=rules)
    def test_token_filter_matches_oracle(self, body, rules):
        # kept_words checks build_counts on the one-record corpus against
        # build_counts_oracle, whose tokens come from tokenize_oracle.
        kept_words(body, rules)

    @PROPERTY
    @given(body=bodies)
    def test_nonascii_fraction_matches_oracle(self, body):
        assert _nonascii_letter_fraction(body) == nonascii_letter_fraction(body)

    @PROPERTY
    @given(recs=records, rules=rules)
    def test_rare_capitalized_matches_oracle(self, recs, rules):
        scan = _scan(recs)
        excluded = _rare_capitalized(scan, rules.name_df_floor)
        got = frozenset(w for w, x in zip(scan.words, excluded.tolist()) if x)
        assert got == rare_capitalized_oracle(recs, rules)

    @PROPERTY
    @given(recs=records, rules=rules)
    def test_build_counts_matches_oracle(self, recs, rules):
        got = build_counts(recs, rules)
        want = build_counts_oracle(recs, rules)
        # the oracle's keys come in first-seen order, build_counts' sorted
        assert list(got.counts.items()) == sorted(want.counts.items())
        assert got.axes == want.axes

    @PROPERTY
    @given(recs=records, rules=rules)
    def test_counts_to_tensor_matches_log1p_entries(self, recs, rules):
        quad = build_counts(recs, rules)
        if not quad.counts:
            return
        tensor = counts_to_tensor(quad)
        coords, values = coalesce_oracle(
            list(quad.counts), [math.log1p(c) for c in quad.counts.values()]
        )
        assert tensor.coords.tobytes() == coords.tobytes()
        assert tensor.values.tobytes() == values.tobytes()

    def test_counts_to_tensor_log_table_spans_one_far_tally(self):
        # counts_to_tensor looks each tally up in a table as long as the
        # largest one, which here is far above the rest.
        body = "virus " * 70_000 + "cells cells protein"
        quad = build_counts([CorpusRecord("t", "", "a", "j", body)], CleaningRules())
        assert sorted(quad.tallies.tolist()) == [1, 2, 70_000]
        tensor = counts_to_tensor(quad)
        assert tensor.values.tolist() == [math.log1p(c) for c in quad.tallies.tolist()]

    @PROPERTY
    @given(body=token_texts)
    @example(body="\u212aelvin \u0130stanbul stra\u00dfe caf\u00e9\u2028x\u00a0y\x0bz\x0cw\u0307v")
    @example(body="Non\u2013ASCII \u00b5g \u00b1x\U0001f600y \ud800z")
    def test_token_streams_match_regex_oracles(self, body):
        kept_words(body)
        # the body as drawn, and its ASCII part, whose counted stream is its
        # raw one
        bodies = [body, body.encode("ascii", "ignore").decode("ascii")]
        scan = _scan([CorpusRecord("t", "", "a", "j", b) for b in bodies])
        pairs = set()
        for i, b in enumerate(bodies):
            names = scan.names[0][scan.names[1] == i].tolist()
            counted = scan.counted[0][scan.counted[1] == i].tolist()
            raw = raw_tokens_oracle(b)
            assert [scan.words[scan.raw_word[r]] for r in names] == [t.lower() for t in raw]
            assert scan.raw_lower[names].tolist() == [t[0].islower() for t in raw]
            assert [scan.words[scan.raw_word[r]] for r in counted] == lower_tokens_oracle(b)
            pairs.update(zip(raw, names))
        # one id per distinct raw token, across both bodies
        assert len({t for t, _ in pairs}) == len({r for _, r in pairs}) == len(pairs)
        # ids are given at first sight: over each body's raw and then its
        # counted stream, in body order, first occurrences run 0, 1, 2, ...
        streams = (scan.names, scan.counted)
        stream = np.concatenate(
            [ids[record == i] for i in range(len(bodies)) for ids, record in streams]
        )
        _, first = np.unique(stream, return_index=True)
        assert stream[np.sort(first)].tolist() == list(range(first.shape[0]))

    def test_kelvin_sign_and_dotted_capital_i(self):
        # "K".lower() == "k"; "İ".lower() == "i̇", which splits tokens
        body = "Kelvin İstanbul KKK protein"
        assert kept_words(body) == [("kelvin", 1), ("stanbul", 1), ("protein", 1)]


# Corpora whose vocabulary is one word or none: each body is one word,
# repeated, or only words that every rule set drops (or nothing at all).
one_word_records = st.lists(
    st.builds(
        CorpusRecord,
        title=st.sampled_from(["t1", "t2", "t3"]),
        abstract=st.just(""),
        first_author=st.sampled_from(["Ann", "Bo"]),
        journal=st.sampled_from(["j1", ""]),
        body=st.sampled_from(["", "a of", "19 -", "protein", "protein protein", "Protein protein"]),
    ),
    max_size=6,
)


def generated_corpus(rng, documents, per_document, vocabulary):
    """Bodies of Zipf-drawn consonant-vowel words, every 17th capitalized,
    each ending in three stopwords."""
    syllables = [c + v for c in "bcdfghlmnprstv" for v in "aeiou"]
    words = sorted({"".join(rng.choice(syllables, rng.integers(2, 5))) for _ in range(vocabulary)})
    records = []
    for i in range(documents):
        drawn = [words[j % len(words)] for j in rng.zipf(1.3, per_document).tolist()]
        drawn[::17] = [w.capitalize() for w in drawn[::17]]
        body = " ".join(drawn) + " the of and"
        records.append(CorpusRecord(f"doc {i}", "", f"author {i % 37}", f"journal {i % 7}", body))
    return records


class TestCounting:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(recs=records | one_word_records, rules=rules)
    @example(
        recs=[
            CorpusRecord("t1", "", "Ann", "j1", "protein protein"),
            CorpusRecord("t2", "", "Bo", "", "the of"),
            CorpusRecord("t3", "", "Ann", "j1", ""),
            CorpusRecord("t3", "", "Bo", "j1", "protein"),
        ],
        rules=CleaningRules(),
    )
    def test_counts_match_unique_oracle(self, recs, rules):
        # The in-place sort and run scan against np.unique(keys,
        # return_counts=True) over the token-at-a-time oracle's keys.
        quad = build_counts(recs, rules)
        coords, tallies = quad_counts_unique_oracle(recs, rules)
        assert quad.coords.dtype == quad.tallies.dtype == np.int64
        assert quad.coords.shape == coords.shape
        assert quad.coords.tobytes() == coords.tobytes()
        assert quad.tallies.tobytes() == tallies.tobytes()

    def test_peak_memory_per_scanned_token(self):
        # build_counts holds each per-token array once and drops it when it
        # is used up: the scan's int32 id and record streams, the kept words
        # and records, the int64 keys. On this corpus (a third as many
        # quadruples as tokens) that peaks at 22.7 bytes a scanned token
        # (numpy 2.4.6). Keeping the sorted keys to the end reads 28.7, and
        # keeping every stream to the end and counting with np.unique, whose
        # copies come on top, 49.5.
        records = generated_corpus(np.random.default_rng(5), 300, 400, 2000)
        tokens = _scan(records).names[0].shape[0]
        tracemalloc.start()
        try:
            quad = build_counts(records, CleaningRules())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tokens > 100_000 and 4 * quad.tallies.shape[0] > tokens
        assert peak / tokens < 26, peak / tokens


# Values whose sum depends on the order they are added in.
ORDER_SENSITIVE = [1e16, 1.0, 0.1, 3e-5, 7.0, 2.0**-40, 1e-300]


class TestSortPaths:
    """The constructor lexsorts rows that are not strictly increasing, at any
    shape, and sorts nothing else; build_counts hands it rows that are."""

    BIG = (2**40, 2**40, 3)

    @PROPERTY
    @given(
        shape=st.sampled_from([(5, 3, 4), (2**31, 2**31, 1), BIG]),
        picks=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.sampled_from(ORDER_SENSITIVE)),
            min_size=1,
            max_size=60,
        ),
    )
    def test_key_sort_and_fallback_match_lexsort_oracle(self, shape, picks):
        # Each mode's coordinates come from its first, second, middle and
        # last index, so rows repeat and reach the largest extents.
        pools = [sorted({0, min(1, n - 1), n // 2, n - 1}) for n in shape]
        coords = [[pool[p % len(pool)] for pool, p in zip(pools, pick[:3])] for pick in picks]
        values = [pick[3] for pick in picks]
        # a trailing duplicate, so the rows are never strictly increasing
        coords.append(coords[0])
        values.append(values[0])
        want_coords, want_values = lexsort_coalesce_oracle(coords, values)
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            tensor = SparseTensorCOO(coords, values, shape)
        assert lexsort.called
        assert tensor.coords.tobytes() == want_coords.tobytes()
        assert tensor.values.tobytes() == want_values.tobytes()

    @pytest.mark.parametrize("shape", [(5, 3, 4), BIG])
    def test_strictly_increasing_rows_skip_the_sort(self, shape):
        # A loaded container's rows are sorted and distinct, at any shape.
        pools = [sorted({0, min(1, n - 1), n // 2, n - 1}) for n in shape]
        coords = [[a, b, c] for a in pools[0] for b in pools[1] for c in pools[2]]
        values = [float(i + 1) for i in range(len(coords))]
        with (
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort,
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort,
        ):
            tensor = SparseTensorCOO(coords, values, shape)
        assert not lexsort.called and not argsort.called
        assert tensor.coords.tolist() == coords
        assert tensor.values.tolist() == values

    @staticmethod
    def assert_sorted_once(quad):
        rows = quad.coords.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))
        with (
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort,
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort,
        ):
            tensor = counts_to_tensor(quad)
        assert not lexsort.called and not argsort.called
        assert tensor.coords.tobytes() == quad.coords.tobytes()

    def test_toy_counts_are_the_tensor_rows(self):
        rules = CleaningRules()
        records = dedup(clean_and_filter(load_corpus(DATA_DIR / "toy_corpus.csv", "csv"), rules))
        self.assert_sorted_once(build_counts(records, rules))

    @PROPERTY
    @given(recs=records, rules=rules)
    def test_counts_are_the_tensor_rows(self, recs, rules):
        quad = build_counts(recs, rules)
        if quad.tallies.shape[0]:
            self.assert_sorted_once(quad)


class TestCoalescing:
    @PROPERTY
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 2), st.sampled_from(ORDER_SENSITIVE)),
            min_size=1,
            max_size=200,
        )
    )
    def test_matches_unique_bincount_oracle(self, data):
        coords = [(a, b) for a, b, _ in data]
        values = [v for _, _, v in data]
        tensor = SparseTensorCOO(coords, values, (2, 3))
        want_coords, want_values = coalesce_oracle(coords, values)
        assert tensor.coords.tobytes() == want_coords.tobytes()
        assert tensor.values.tobytes() == want_values.tobytes()

    @PROPERTY
    @given(
        data=st.integers(1, 4).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(1, 3), min_size=d, max_size=d),
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, 2), min_size=d, max_size=d),
                        st.sampled_from([*ORDER_SENSITIVE, 0.0, -0.0]),
                    ),
                    min_size=1,
                    max_size=30,
                ),
            )
        ),
        arrangement=st.sampled_from(["drawn", "sorted", "sorted_unique", "shuffled", "reversed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(data=([1], [([0], 1.0)]), arrangement="drawn", seed=0)
    @example(data=([1, 3], [([0, 0], 1.0), ([0, 2], 2.0), ([0, 1], 3.0)]), arrangement="drawn", seed=0)
    @example(data=([3, 3], [([1, 0], 1.0), ([0, 2], 2.0)]), arrangement="drawn", seed=0)
    @example(data=([3, 3], [([0, 2], 1.0), ([0, 2], 2.0)]), arrangement="drawn", seed=0)
    def test_constructor_matches_lexsort_oracle(self, data, arrangement, seed):
        shape, entries = data
        # Fold every coordinate into its mode, so extent-1 modes hold only 0.
        rows = [([c % n for c, n in zip(coord, shape)], v) for coord, v in entries]
        if arrangement == "sorted":
            rows.sort(key=lambda row: row[0])
        elif arrangement == "sorted_unique":
            rows = sorted({tuple(c): v for c, v in rows}.items())
        elif arrangement == "shuffled":
            rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
        elif arrangement == "reversed":
            rows = rows[::-1]
        coords = [c for c, _ in rows]
        values = [v for _, v in rows]
        want_coords, want_values = lexsort_coalesce_oracle(coords, values)
        tensor = SparseTensorCOO(coords, values, shape)
        assert tensor.coords.tobytes() == want_coords.reshape(-1, len(shape)).tobytes()
        assert tensor.values.tobytes() == want_values.tobytes()

    def test_duplicates_sum_in_input_order(self):
        # 1e16 + 1 rounds back to 1e16, so summing in input order gives 1e16,
        # while the ones first (or a pairwise sum) would give more.
        values = [1e16] + [1.0] * 20
        tensor = SparseTensorCOO([(0, 1)] * len(values), values, (1, 2))
        assert tensor.values.tolist() == [1e16]
        reordered = SparseTensorCOO([(0, 1)] * len(values), values[::-1], (1, 2))
        assert reordered.values.tolist() == [1e16 + 20.0]


finite_positive = st.floats(
    min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True
)
finite_or_infinite = st.floats(allow_nan=False, allow_subnormal=True)
# the smallest subnormal, the smallest normal, a subnormal, the largest float
EXTREMES = [5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]
# repr() texts of 3, 6 and 23 characters
MIXED_REPRS = [1.0, 5e-324, 1.7976931348623157e308]
# Each extent's last index has one more digit than the one before it.
STRADDLING_EXTENTS = (11, 101, 1001)


def _round_trip_tensor(tensor):
    """Save and load `tensor`: entries.tsv's text, the loaded tensor, and the
    bytes of entries.npy and header.json as written."""
    axes = [AxisMap([f"m{k}_{i}" for i in range(n)]) for k, n in enumerate(tensor.shape)]
    names = [f"mode{k}" for k in range(tensor.order)]
    with tempfile.TemporaryDirectory() as tmp:
        out = save_tensor(tensor, axes, names, Path(tmp) / "t")
        text = (out / "entries.tsv").read_text(encoding="utf-8")
        payload = (out / "entries.npy").read_bytes()
        header = json.loads((out / "header.json").read_bytes())
        loaded, _, _ = load_tensor(out)
    return text, loaded, payload, header


def assert_payload_is_np_save(tensor, payload, header):
    """entries.npy holds np.save's bytes for the whole table, and header.json
    that table's CRC-32."""
    want, table = entries_npy_oracle(tensor)
    assert payload == want
    assert header["payload_crc32"] == zlib.crc32(table)


class TestTensorContainer:
    @PROPERTY
    @given(
        entries=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2)),
            finite_positive | st.sampled_from(EXTREMES),
            max_size=40,
        ),
        chunk=st.integers(1, 7),
    )
    def test_round_trip_bitwise_across_chunks(self, entries, chunk):
        tensor = SparseTensorCOO(list(entries), list(entries.values()), (4, 5, 3))
        with mock.patch.object(artifacts, "WRITE_CHUNK_ROWS", chunk):
            text, loaded, payload, header = _round_trip_tensor(tensor)
        assert text == entries_text_oracle(tensor)
        assert_payload_is_np_save(tensor, payload, header)
        assert loaded.coords.tobytes() == tensor.coords.tobytes()
        assert loaded.values.tobytes() == tensor.values.tobytes()

    @PROPERTY
    @given(
        entries=st.dictionaries(
            st.tuples(*(st.sampled_from([0, n - 2, n - 1]) | st.integers(0, n - 1) for n in STRADDLING_EXTENTS)),
            st.sampled_from(MIXED_REPRS) | finite_positive,
            max_size=40,
        ),
        chunk=st.integers(1, 7),
    )
    @example(entries=dict(zip([(9, 99, 999), (9, 100, 1000), (10, 99, 1000)], MIXED_REPRS)), chunk=3)
    def test_round_trip_mixes_index_widths_and_repr_lengths(self, entries, chunk):
        # One chunk holds indices on both sides of each mode's last
        # digit-width boundary and values whose repr() lengths differ.
        tensor = SparseTensorCOO(list(entries), list(entries.values()), STRADDLING_EXTENTS)
        with mock.patch.object(artifacts, "WRITE_CHUNK_ROWS", chunk):
            text, loaded, payload, header = _round_trip_tensor(tensor)
        assert text == entries_text_oracle(tensor)
        assert_payload_is_np_save(tensor, payload, header)
        assert loaded == tensor

    def test_more_rows_than_one_chunk(self, rng):
        coords = np.stack([rng.integers(0, 60, 50_000), rng.integers(0, 900, 50_000)], axis=1)
        values = rng.choice([math.log1p(c) for c in range(1, 6)] + [0.1, 1e300], size=50_000)
        tensor = SparseTensorCOO(coords, values, (60, 900))
        assert tensor.nnz > artifacts.WRITE_CHUNK_ROWS
        text, loaded, payload, header = _round_trip_tensor(tensor)
        assert text == entries_text_oracle(tensor)
        assert_payload_is_np_save(tensor, payload, header)
        assert loaded == tensor

    def test_empty_tensor_gives_empty_file(self):
        tensor = SparseTensorCOO([], [], (2, 3))
        text, loaded, payload, header = _round_trip_tensor(tensor)
        assert text == ""
        assert_payload_is_np_save(tensor, payload, header)
        assert loaded.nnz == 0 and loaded.coords.shape == (0, 2)

    def test_peak_memory_does_not_grow_with_nnz(self, tmp_path, rng):
        # entries.npy and entries.tsv are both written WRITE_CHUNK_ROWS rows
        # at a time, so save_tensor's traced peak is set by one chunk, not by
        # the (nnz,) payload table (40 bytes a row at order 4).
        shape = (50, 400, 10, 3000)
        axes = [AxisMap([f"l{i}" for i in range(n)]) for n in shape]
        peaks = []
        for chunks in (8, 32):
            nnz = chunks * artifacts.WRITE_CHUNK_ROWS
            flat = rng.choice(math.prod(shape), size=nnz, replace=False)
            coords = np.stack(np.unravel_index(np.sort(flat), shape), axis=1)
            tensor = SparseTensorCOO(coords, np.log1p(rng.integers(1, 6, nnz)).astype(float), shape)
            tracemalloc.start()
            try:
                save_tensor(tensor, axes, ["a", "d", "j", "w"], tmp_path / f"t{chunks}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row_bytes = artifacts._row_dtype(4).itemsize
        # The payload table of the smaller tensor alone is 5.2 MB.
        assert peaks[1] < 1.2 * peaks[0], peaks
        assert peaks[1] < 8 * artifacts.WRITE_CHUNK_ROWS * row_bytes, peaks

    @pytest.mark.parametrize(
        "edit",
        [
            # A blank line, then a line one field short.
            lambda lines: [lines[0], "", lines[1], lines[2].rsplit("\t", 1)[0], *lines[3:]],
            lambda lines: [lines[0] + "\t7", *lines[1:]],
            # One field too many, then one too few: the tab and newline totals
            # still match the header.
            lambda lines: [lines[0] + "\t7", lines[1].rsplit("\t", 1)[0], *lines[2:]],
            lambda lines: ["0\t1.0\t2.0"],
            lambda lines: ["0\t0\t1.0"],
            lambda lines: [lines[-1], *lines[:-1]],
            lambda lines: None,
        ],
        ids=["short-line", "long-line", "offsetting-fields", "fractional-coordinate",
             "fewer-lines-than-header", "reordered", "deleted"],
    )
    def test_text_edits_leave_the_load_unchanged(self, tmp_path, edit):
        # entries.tsv is an export: load_tensor takes every number from
        # entries.npy and never opens the text.
        tensor = SparseTensorCOO([(0, 0), (0, 1), (1, 1), (1, 2)], [1.0, 2.0, 3.0, 4.0], (2, 3))
        axes = [AxisMap(["a", "b"]), AxisMap(["x", "y", "z"])]
        entries = save_tensor(tensor, axes, ["doc", "word"], tmp_path / "t") / "entries.tsv"
        lines = edit(entries.read_text(encoding="utf-8").splitlines())
        if lines is None:
            entries.unlink()
        else:
            entries.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded, loaded_axes, names = load_tensor(tmp_path / "t")
        assert loaded.shape == tensor.shape
        assert loaded.coords.tobytes() == tensor.coords.tobytes()
        assert loaded.values.tobytes() == tensor.values.tobytes()
        assert [a.labels for a in loaded_axes] == [a.labels for a in axes]
        assert names == ["doc", "word"]


model_tables = st.tuples(st.integers(1, 4), st.lists(st.integers(1, 5), min_size=1, max_size=4)).flatmap(
    lambda shape: st.tuples(
        st.just(shape[0]),
        st.just(shape[1]),
        st.lists(
            finite_or_infinite | st.sampled_from([-0.0, *EXTREMES]),
            min_size=shape[0] * (1 + sum(shape[1])),
            max_size=shape[0] * (1 + sum(shape[1])),
        ),
    )
)


class TestModelText:
    @PROPERTY
    @given(case=model_tables)
    @example(case=(1, [3, 3], [-0.0, 5e-324, -5e-324, math.inf, -math.inf, 0.0, 1e-310]))
    @example(case=(2, [1], [-0.0, 0.0, 2.2250738585072014e-308, -math.inf]))
    def test_round_trip_bitwise(self, case):
        rank, extents, numbers = case
        table = np.array(numbers, dtype=np.float64).reshape(-1, rank)
        bounds = np.cumsum([1, *extents])
        model = KruskalModel(
            weights=table[0], factors=[table[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        )
        # save_model writes any float; load_model reads back only finite ones.
        finite = bool(np.isfinite(table).all())
        with tempfile.TemporaryDirectory() as tmp:
            path = save_model(model, Path(tmp) / "m.model")
            header_line, body = path.read_text(encoding="utf-8").split("\n", 1)
            payload = np.load(Path(tmp) / "m.model.npy", allow_pickle=False)
            text_table = model_text_table(path)
            if finite:
                loaded, _ = load_model(path)
            else:
                with pytest.raises(ValueError, match="m.model.npy: model payload holds NaN or inf"):
                    load_model(path)
        header = json.loads(header_line)
        assert body == model_text_oracle(model)
        assert header["rank"] == rank
        assert header["payload_crc32"] == zlib.crc32(table.tobytes())
        assert payload.dtype == np.float64 and payload.shape == table.shape
        assert text_table.tobytes() == payload.tobytes() == table.tobytes()
        if finite:
            assert loaded.weights.tobytes() == model.weights.tobytes()
            for got, want in zip(loaded.factors, model.factors):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @PROPERTY
    @given(
        rank=st.integers(1, 6),
        extents=st.lists(st.integers(1, 40), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from("CF"),
    )
    # Factors of more than FLOAT_CHUNK_VALUES floats, written in several chunks.
    @example(rank=7, extents=[3, 6000], seed=0, order="C")
    @example(rank=7, extents=[3, 6000], seed=1, order="F")
    def test_save_model_writes_the_one_table_bytes(self, rank, extents, seed, order):
        rng = np.random.default_rng(seed)
        model = KruskalModel(
            weights=rng.standard_normal(rank),
            factors=[
                np.asarray(rng.standard_normal((n, rank)) * 10.0 ** rng.integers(-300, 300, (n, rank)), order=order)
                for n in extents
            ],
        )
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.model", Path(tmp) / "want.model"
            save_model(model, got, tensor_payload_crc32=7)
            one_table_save(model, want, 7)
            for suffix in ("", ".npy"):
                assert Path(f"{got}{suffix}").read_bytes() == Path(f"{want}{suffix}").read_bytes(), suffix

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        # save_model streams the weights row and each factor to both files,
        # so its traced peak is set by write_float_rows' chunk of text, not
        # by a (1 + sum(shape), rank) copy of the model.
        rng = np.random.default_rng(3)
        peaks = []
        for words in (1580, 15800):
            model = KruskalModel(
                weights=rng.random(100), factors=[rng.random((n, 100)) for n in (25, 80, 10, words)]
            )
            tracemalloc.start()
            try:
                save_model(model, tmp_path / f"m{words}.model")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The larger model alone holds 12.7 MB.
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_toy_models_text_equals_payload(self, tmp_path):
        workdir = tmp_path / "run"
        for stage in ("ingest", "factorize"):
            assert cli_run([stage, "--config", str(DATA_DIR / "toy.cfg"), "--workdir", str(workdir)]) == 0
        paths = sorted((workdir / "models").glob("*.model"))
        assert [p.name for p in paths] == ["rank_3.model", "rank_5.model"]
        for path in paths:
            payload = np.load(path.with_name(path.name + ".npy"), allow_pickle=False)
            assert model_text_table(path).tobytes() == payload.tobytes(), path.name

    def test_repr_body_still_loads(self, tmp_path):
        # Model files written before the %.16e body held repr()'s digits; the
        # header is the same, and load_model reads nothing past it.
        model = KruskalModel(weights=[2.0, 0.1], factors=[[[0.5, 0.0], [1e-300, 3.0]], [[1.0, -0.0]]])
        path = save_model(model, tmp_path / "m.model")
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        rows = [model.weights, *model.factors[0], *model.factors[1]]
        body = "".join(" ".join(map(repr, r.tolist())) + "\n" for r in rows)
        path.write_text(header + "\n" + body, encoding="utf-8")
        loaded, _ = load_model(path)
        assert model_text_table(path).tobytes() == np.vstack(rows).tobytes()
        assert loaded.weights.tobytes() == model.weights.tobytes()

    @pytest.mark.parametrize(
        "weights, factors, edit",
        [
            ([2.0, 1.0], [[[0.5, 0.25], [0.5, 0.75]], [[1.0, 1.0]]], lambda body: ["2.0", *body[1:]]),
            ([2.0, 1.0], [[[0.5, 0.25], [0.5, 0.75]], [[1.0, 1.0]]], lambda body: [body[0], "0.5 0.25 0.1", *body[2:]]),
            # An empty line has no space, as a one-float row has none.
            ([2.0], [[[0.5], [0.5]], [[1.0]]], lambda body: [body[0], "", *body[2:]]),
            ([2.0, 1.0], [[[0.5, 0.25], [0.5, 0.75]], [[1.0, 1.0]]], lambda body: body[:-2]),
            ([2.0, 1.0], [[[0.5, 0.25], [0.5, 0.75]], [[1.0, 1.0]]], lambda body: []),
            ([2.0, 1.0], [[[0.5, 0.25], [0.5, 0.75]], [[1.0, 1.0]]], lambda body: None),
        ],
        ids=["weight-count", "row-width", "empty-row-at-rank-1", "truncated", "header-line-only",
             "header-without-newline"],
    )
    def test_body_edits_leave_the_load_unchanged(self, tmp_path, weights, factors, edit):
        # The body is an export: load_model reads the header line, then takes
        # every number from the payload.
        model = KruskalModel(weights=weights, factors=factors)
        path = save_model(model, tmp_path / "m.model")
        header, *body = path.read_text(encoding="utf-8").splitlines()
        body = edit(body)
        path.write_text(header if body is None else "\n".join([header, *body]) + "\n", encoding="utf-8")
        loaded, loaded_header = load_model(path)
        assert loaded_header["rank"] == len(weights)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert [f.tobytes() for f in loaded.factors] == [f.tobytes() for f in model.factors]


def one_table_save(model, path, tensor_payload_crc32):
    """save_model's oracle: one C-ordered (1 + sum(shape), rank) table made by
    np.vstack, written whole by np.save and by one write_float_rows call.
    (vstack of Fortran-ordered factors can give a Fortran-ordered table.)"""
    table = np.ascontiguousarray(np.vstack([model.weights[None, :], *model.factors]))
    np.save(Path(f"{path}.npy"), table, allow_pickle=False)
    header = artifacts.MODEL.stamp(
        rank=model.rank, shape=list(model.shape), tensor_payload_crc32=tensor_payload_crc32,
        payload_crc32=zlib.crc32(table),
    )
    with Path(path).open("wb") as out:
        out.write((json.dumps(header) + "\n").encode())
        artifacts.write_float_rows(out, table)


def _written(table):
    """The bytes write_float_rows gives for `table`."""
    out = io.BytesIO()
    artifacts.write_float_rows(out, np.asarray(table, dtype=np.float64))
    return out.getvalue()


def _oracle_text(table):
    """model_text_oracle's bytes for `table`: its first row as the weights,
    the rest as one factor."""
    table = np.asarray(table, dtype=np.float64)
    return model_text_oracle(KruskalModel(weights=table[0], factors=[table[1:]])).encode()


def _assert_rows_are_format(table):
    """write_float_rows gives, row by row, the format(x, ".16e") join of `table`'s row."""
    table = np.asarray(table, dtype=np.float64)
    rows = _written(table).split(b"\n")
    assert rows.pop() == b""
    assert rows == [" ".join(format(x, ".16e") for x in row).encode() for row in table.tolist()]


def _spy_format():
    """Counts the writer's calls of format() (a module global shadows the builtin)."""
    return mock.patch.object(artifacts, "format", create=True, side_effect=format)


def _signed(rng, values):
    return values * rng.choice([-1.0, 1.0], values.shape)


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


class TestFloatText:
    """write_float_rows against the per-float format(x, ".16e") join of the model body."""

    CHUNK = artifacts.FLOAT_CHUNK_VALUES

    def test_digit_words_are_zero_padded_decimals(self):
        # The words of every number's 4 and 3 digits, NUL-padded to 8 bytes.
        four, three, _lead, _exponent = artifacts._text_words()
        assert four.tobytes() == b"".join(b"%04d\0\0\0\0" % i for i in range(10000))
        assert three.tobytes() == b"".join(b"%03d\0\0\0\0\0" % i for i in range(1000))

    def test_random_values_match_format(self, rng):
        n = 400_000
        tables = [
            rng.uniform(size=n).reshape(-1, 200),
            _signed(rng, rng.lognormal(0.0, 40.0, n)).reshape(-1, 25),
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64).reshape(-1, 8),
        ]
        for table in tables:
            assert _written(table) == _oracle_text(table)

    def test_neighbours_of_powers_of_two_and_ten(self):
        powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
        powers += [float(f"1e{k}") for k in range(-323, 309)]
        table = _with_neighbours(powers)
        table = np.concatenate([table, -table]).reshape(-1, 4)
        assert _written(table) == _oracle_text(table)

    def test_exponent_digits_carry_and_sign(self):
        # Two exponent digits up to 1e+-99, three from 1e+-100 on. The double
        # 1e-14 lies just below 10**-14 and its 17 digits carry up to it;
        # 1e-248 lies below the fast path's range.
        edges = [1e99, 1e-99, 1e100, 1e-100, 1e-14, 1e-248, 123.456, 0.1, 0.0]
        table = _with_neighbours(edges)
        table = np.concatenate([table, -table]).reshape(-1, 1)
        with _spy_format() as spy:
            text = _written(table)
        assert text == _oracle_text(table)
        assert {
            b"9.9999999999999997e+98", b"1.0000000000000000e-99", b"1.0000000000000000e+100",
            b"-1.0000000000000000e-100", b"1.0000000000000000e-14", b"9.9999999999999998e-249",
            b"1.2345600000000000e+02", b"-1.0000000000000001e-01", b"-0.0000000000000000e+00",
        } <= set(text.split())
        called = {c.args[0] for c in spy.call_args_list}
        assert {1e-14, -1e-14, 1e-248, -1e-248} <= called

    def test_specials_match_format(self):
        table = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                          1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
                          math.nan, 1.0, -2.0, 3.0]).reshape(-1, 2)
        assert _written(table) == _oracle_text(table)

    @pytest.mark.parametrize("rank", [1, 2, 200])
    def test_ranks_across_chunk_boundaries(self, rng, rank):
        rows = 2 * self.CHUNK // rank + 3
        assert (rows * rank) % self.CHUNK and (rows * rank) > 2 * self.CHUNK
        table = _signed(rng, rng.uniform(size=(rows, rank)) * rng.lognormal(0.0, 4.0, (rows, rank)))
        assert _written(table) == _oracle_text(table)

    def test_all_zero_and_all_nine_digits(self):
        # 16 zeros or 16 nines after the point: each 8-digit word of the
        # digits at its ends, and beside them the carries that make a
        # 17-digit string all zeros or, past all nines, the next decade.
        texts = [f"{d}.{digit * 16}e{e:+03d}" for digit in "09" for d in range(1, 10) for e in range(-240, 241, 6)]
        edges = [float(t) for t in texts if format(float(t), ".16e") == t]
        assert sum(format(x, ".16e")[2] == "9" for x in edges) >= 20
        table = _with_neighbours(edges)
        _assert_rows_are_format(np.concatenate([table, -table]).reshape(-1, 3))

    def test_lead_digit_nine_next_to_a_carry(self):
        # Just below 9 * 10**e the 17 digits carry up into a lead 9; just
        # below 10**e they carry out of it.
        edges = [float(f"{d}e{e}") for d in (9, 10) for e in range(-240, 241, 5)]
        table = _with_neighbours(edges)
        _assert_rows_are_format(np.concatenate([table, -table]).reshape(-1, 2))

    @pytest.mark.parametrize("e", [-98, -14, 22, 0, 23])
    def test_scales_log10_misjudges(self, e):
        # log10 puts nextafter(10**e, 0) one decade too high for e = -98,
        # -14 and 22, so its scaled value lies below 1e16; not for 0 and 23.
        x = np.nextafter(10.0**e, 0)
        _assert_rows_are_format(_with_neighbours([x, -x]).reshape(-1, 2))

    def test_two_and_three_exponent_digits(self):
        edges = [1e99, 1e-99, 1e100, 1e-100, 9.5e99, 1.5e-100, 3.3e99, 7.7e-99, 1e101, 1e-101]
        table = _with_neighbours(edges)
        _assert_rows_are_format(np.concatenate([table, -table]).reshape(-1, 4))

    def test_ends_of_the_fast_range(self):
        # Magnitudes in [1e-99, 1e100) take the fast path; those beyond, far
        # out to 1e+-251, go to format().
        edges = [1e-99, 1e100, 1e250, 1e-250, 2e250, 5e-251, 1e251, 1e-251]
        table = _with_neighbours(edges)
        _assert_rows_are_format(np.concatenate([table, -table]).reshape(-1, 6))

    def test_negative_zero_and_subnormals(self):
        _assert_rows_are_format([[-0.0, 0.0, 5e-324], [-5e-324, 1e-310, -2.2250738585072009e-308]])

    @pytest.mark.parametrize("width", [1, 7])
    def test_widths_with_format_rows_at_line_ends(self, rng, width):
        # Width 1 ends every value with a newline. 7 does not divide
        # FLOAT_CHUNK_VALUES, so each chunk holds fewer values than it. Values
        # left to format() sit at line ends and chunk ends too.
        assert self.CHUNK % 7
        n = (2 * self.CHUNK // width + 3) * width
        values = _signed(rng, rng.uniform(size=n) * rng.lognormal(0.0, 4.0, n))
        values[::13] = 0.0
        values[5::17] = -0.0
        values[9::19] = 5e-324
        chunk = self.CHUNK // width * width
        values[chunk - 1::chunk] = -5e-324
        _assert_rows_are_format(values.reshape(-1, width))

    def test_empty_rows(self):
        assert _written(np.empty((3, 0))) == b"\n\n\n"
        assert _written(np.empty((0, 5))) == b""

    def test_fast_path_decides_nearly_all(self, rng):
        # Correct bytes alone would not show a fast path that left every
        # value to format().
        table = rng.uniform(size=(1000, 200)) * rng.lognormal(0.0, 3.0, (1000, 200))
        with _spy_format() as spy:
            text = _written(table)
        assert text == _oracle_text(table)
        assert spy.call_count <= 0.001 * table.size, spy.call_count

    def test_undecided_values_go_to_format(self):
        # 1911014190010.46875 lies exactly halfway between two 17-digit
        # decimals, and 0.0 never enters the fast path.
        table = np.array([[0.1, 1911014190010.46875], [0.0, 2.0]])
        with _spy_format() as spy:
            text = _written(table)
        assert text == _oracle_text(table) == (
            b"1.0000000000000001e-01 1.9110141900104688e+12\n"
            b"0.0000000000000000e+00 2.0000000000000000e+00\n"
        )
        assert [c.args[0] for c in spy.call_args_list] == [1911014190010.46875, 0.0]

    def test_memory_does_not_grow_with_the_table(self, tmp_path, rng):
        rows = 4 * self.CHUNK // 200
        peaks = []
        artifacts._pow10_table()  # built once per process, not per table
        for scale in (1, 4):
            table = rng.uniform(size=(scale * rows, 200))
            with open(tmp_path / "body.txt", "wb") as out:
                tracemalloc.start()
                try:
                    artifacts.write_float_rows(out, table)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


scores = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 0.25, float("inf"), -float("inf")])


class TestTopN:
    @PROPERTY
    @given(
        values=st.lists(scores, min_size=1, max_size=40),
        n=st.integers(1, 45),
        data=st.data(),
    )
    def test_matches_full_sort_on_ties(self, values, n, data):
        size = len(values)
        labels = data.draw(
            st.lists(st.text(alphabet="abc", max_size=3), min_size=size, max_size=size, unique=True)
        )
        assert top_n(np.array(values), n, AxisMap(labels)) == top_n_oracle(values, labels, n)

    def test_nan_slice_matches_full_sort(self):
        values = [0.5, float("nan"), 0.5, 1.0, float("nan"), 0.0]
        labels = ["f", "e", "d", "c", "b", "a"]
        for n in range(1, 7):
            got = top_n(np.array(values), n, AxisMap(labels))
            assert str(got) == str(top_n_oracle(values, labels, n))  # str: nan != nan
