import csv
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortopics import (
    CleaningRules,
    CorpusRecord,
    build_counts,
    clean_and_filter,
    counts_to_tensor,
    dedup,
    load_corpus,
)
from tensortopics.corpus_ingest import (
    DEFAULT_STOPWORDS,
    UNKNOWN_JOURNAL,
    _clean_label,
    _nonascii_letter_fraction,
    load_stopwords,
)

from conftest import DATA_DIR, kept_words


def record(title="t", abstract="a", author="A B", journal="J", body="some body text"):
    return CorpusRecord(
        title=title, abstract=abstract, first_author=author, journal=journal, body=body
    )


class TestLoadCorpus:
    def test_toy_fixture_loads_fully(self):
        records = load_corpus(DATA_DIR / "toy_corpus.csv", "csv")
        assert len(records) == 40
        for rec in records:
            assert rec.title and rec.abstract is not None
            assert rec.first_author and rec.journal is not None
            assert rec.body

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path, "csv") == []

    def test_header_only_gives_empty_list(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("title,abstract,first_author,journal,body\n", encoding="utf-8")
        assert load_corpus(path, "csv") == []

    def test_missing_body_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("title,abstract,first_author,journal\nt,a,x,j\n", encoding="utf-8")
        with pytest.raises(ValueError, match="body"):
            load_corpus(path, "csv")

    def test_missing_required_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("title,abstract,journal,body\nt,a,j,b\n", encoding="utf-8")
        with pytest.raises(ValueError, match="first_author"):
            load_corpus(path, "csv")

    def test_short_row_skipped_as_malformed(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "title,abstract,first_author,journal,body\n"
            "good,a,x,j,body text\n"
            "short,only\n",
            encoding="utf-8",
        )
        records = load_corpus(path, "csv")
        # the short row is missing required fields, so it is skipped
        assert [r.title for r in records] == ["good"]

    def test_row_with_empty_body_is_kept(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "title,abstract,first_author,journal,body\nt,a,x,j,\n", encoding="utf-8"
        )
        records = load_corpus(path, "csv")
        assert len(records) == 1
        assert records[0].body == ""

    def test_tsv_variant(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "title\tabstract\tfirst_author\tjournal\tbody\n"
            "t one\ta\tx\tj\tbody text here\n",
            encoding="utf-8",
        )
        records = load_corpus(path, "tsv")
        assert records[0].title == "t one"
        assert records[0].body == "body text here"

    def test_jsonl_variant(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [
            {"title": "t1", "abstract": "a", "first_author": "x", "journal": "j", "body": "b one"},
            {"title": "t2", "abstract": "a", "first_author": "x", "journal": "j", "body": "b two"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        records = load_corpus(path, "jsonl")
        assert [r.title for r in records] == ["t1", "t2"]

    def test_jsonl_malformed_rows_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"title": "ok", "abstract": "a", "first_author": "x", "journal": "j", "body": "b"}\n'
            "not json at all\n"
            '{"title": "missing fields"}\n'
            "[1, 2, 3]\n",
            encoding="utf-8",
        )
        records = load_corpus(path, "jsonl")
        assert [r.title for r in records] == ["ok"]

    def test_body_path_resolved_relative_to_source(self, tmp_path):
        (tmp_path / "bodies").mkdir()
        (tmp_path / "bodies" / "doc1.txt").write_text("full body text", encoding="utf-8")
        path = tmp_path / "c.csv"
        path.write_text(
            "title,abstract,first_author,journal,body,body_path\n"
            "t,a,x,j,,bodies/doc1.txt\n",
            encoding="utf-8",
        )
        records = load_corpus(path, "csv")
        assert records[0].body == "full body text"

    def test_unreadable_body_path_gives_empty_body(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "title,abstract,first_author,journal,body,body_path\n"
            "t,a,x,j,,missing/doc.txt\n",
            encoding="utf-8",
        )
        records = load_corpus(path, "csv")
        assert len(records) == 1
        assert records[0].body == ""

    def test_non_utf8_body_path_counted_as_unreadable(self, tmp_path, caplog):
        (tmp_path / "latin1.txt").write_bytes("caf\xe9 body text".encode("latin-1"))
        path = tmp_path / "c.csv"
        path.write_text(
            "title,abstract,first_author,journal,body,body_path\n"
            "t,a,x,j,,latin1.txt\n",
            encoding="utf-8",
        )
        caplog.set_level(logging.INFO, logger="tensortopics.corpus_ingest")
        assert [r.body for r in load_corpus(path, "csv")] == [""]
        assert self.logged(caplog) == [
            ("WARNING", f"{path}:2: unreadable body_path 'latin1.txt'"),
            ("WARNING", f"{path}: skipped 0 malformed row(s), 1 unreadable body file(s)"),
            ("INFO", f"{path}: loaded 1 record(s)"),
        ]

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
    def test_non_utf8_source_names_its_line(self, tmp_path, fmt):
        # The bad byte lies past the first chunk the text reader decodes, so
        # the line comes from the file's bytes, not from the reader.
        rows = [("title", "abstract", "first_author", "journal", "body")]
        rows += [(f"t{i}", "a", "x", "j", "body text") for i in range(2000)]
        lines = [self._row_text(fmt, row, rows[0]) for row in rows]
        lines[1500] = lines[1500].replace("body text", "caf\xe9")
        line = "".join(lines[:1500]).count("\n") + 1
        path = tmp_path / f"c.{fmt}"
        path.write_bytes("".join(lines).encode("latin-1"))
        assert path.stat().st_size > 16384
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: not UTF-8 text"):
            load_corpus(path, fmt)

    @staticmethod
    def _row_text(fmt, row, header):
        if fmt == "jsonl":
            return "" if row is header else json.dumps(dict(zip(header, row)), ensure_ascii=False) + "\n"
        return ("," if fmt == "csv" else "\t").join(row) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
    def test_byte_order_mark_is_skipped(self, tmp_path, fmt):
        header = ("title", "abstract", "first_author", "journal", "body")
        rows = [header, ("t1", "a", "x", "j", "b one"), ("t2", "a", "y", "j", "b two")]
        text = "".join(self._row_text(fmt, row, header) for row in rows)
        plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        records = load_corpus(marked, fmt)
        assert [r.title for r in records] == ["t1", "t2"]
        assert records == load_corpus(plain, fmt)

    @staticmethod
    def logged(caplog):
        return [(r.levelname, r.getMessage()) for r in caplog.records]

    @pytest.mark.parametrize("fmt, delimiter", [("csv", ","), ("tsv", "\t")])
    def test_delimited_log_lines(self, tmp_path, caplog, fmt, delimiter):
        path = tmp_path / f"c.{fmt}"
        rows = [
            ("title", "abstract", "first_author", "journal", "body", "body_path"),
            ("good", "a", "x", "j", "body text", ""),
            ("short", "only"),
            ("t", "a", "x", "j", "", "missing/doc.txt"),
        ]
        path.write_text("".join(delimiter.join(r) + "\n" for r in rows), encoding="utf-8")
        caplog.set_level(logging.INFO, logger="tensortopics.corpus_ingest")
        assert [r.title for r in load_corpus(path, fmt)] == ["good", "t"]
        assert self.logged(caplog) == [
            ("WARNING", f"{path}:3: missing or non-text 'first_author' field, row skipped"),
            ("WARNING", f"{path}:4: unreadable body_path 'missing/doc.txt'"),
            ("WARNING", f"{path}: skipped 1 malformed row(s), 1 unreadable body file(s)"),
            ("INFO", f"{path}: loaded 2 record(s)"),
        ]

    def test_jsonl_log_lines(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        good = {"title": "ok", "abstract": "a", "first_author": "x", "journal": "j", "body": "b"}
        path.write_text(
            json.dumps(good) + "\n"
            "not json at all\n"
            "\n"
            '{"title": "missing fields"}\n'
            + json.dumps({**good, "title": 5}) + "\n"
            "[1, 2, 3]\n"
            '"abc"\n'
            + json.dumps({**good, "body": "", "body_path": "missing/doc.txt"}) + "\n"
            # json.loads raises a plain ValueError past int's digit limit.
            '{"n": ' + "9" * 5000 + "}\n"
            # Valid JSON, but a lone surrogate has no UTF-8 form.
            + json.dumps({**good, "first_author": "Ann \ud800 Lee"}) + "\n",
            encoding="utf-8",
        )
        caplog.set_level(logging.INFO, logger="tensortopics.corpus_ingest")
        assert [r.title for r in load_corpus(path, "jsonl")] == ["ok", "ok"]
        assert self.logged(caplog) == [
            ("WARNING", f"{path}:2: invalid JSON, row skipped"),
            ("WARNING", f"{path}:4: missing or non-text 'abstract' field, row skipped"),
            ("WARNING", f"{path}:5: missing or non-text 'title' field, row skipped"),
            ("WARNING", f"{path}:6: row is not an object, skipped"),
            ("WARNING", f"{path}:7: row is not an object, skipped"),
            ("WARNING", f"{path}:8: unreadable body_path 'missing/doc.txt'"),
            ("WARNING", f"{path}:9: invalid JSON, row skipped"),
            ("WARNING", f"{path}:10: 'first_author' field holds a lone surrogate, row skipped"),
            ("WARNING", f"{path}: skipped 7 malformed row(s), 1 unreadable body file(s)"),
            ("INFO", f"{path}: loaded 2 record(s)"),
        ]

    @pytest.mark.parametrize("fmt, delimiter", [("csv", ","), ("tsv", "\t")])
    def test_body_longer_than_the_default_field_limit(self, tmp_path, fmt, delimiter):
        # Full texts run past the table reader's default 128 KiB field limit.
        body = "virus " * 30000
        path = tmp_path / f"c.{fmt}"
        rows = [("title", "abstract", "first_author", "journal", "body"), ("t", "a", "x", "j", body)]
        path.write_text("".join(delimiter.join(r) + "\n" for r in rows), encoding="utf-8")
        limit = csv.field_size_limit()
        assert len(body) > limit
        records = load_corpus(path, fmt)
        assert csv.field_size_limit() == limit
        assert [r.body for r in records] == [body]
        quad = build_counts(records, CleaningRules(stopwords=frozenset(), name_df_floor=0))
        assert quad.counts == {(0, 0, 0, quad.axes[3].labels.index("virus")): 30000}

    def test_nul_in_body_path_counted_as_unreadable(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        row = {"title": "t", "abstract": "a", "first_author": "x", "journal": "j", "body_path": "b\u0000.txt"}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        caplog.set_level(logging.INFO, logger="tensortopics.corpus_ingest")
        assert [r.body for r in load_corpus(path, "jsonl")] == [""]
        assert self.logged(caplog) == [
            ("WARNING", f"{path}:1: unreadable body_path 'b\\x00.txt'"),
            ("WARNING", f"{path}: skipped 0 malformed row(s), 1 unreadable body file(s)"),
            ("INFO", f"{path}: loaded 1 record(s)"),
        ]

    def test_jsonl_nested_past_the_recursion_limit_is_invalid(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        good = {"title": "ok", "abstract": "a", "first_author": "x", "journal": "j", "body": "b"}
        path.write_text("[" * 200_000 + "]" * 200_000 + "\n" + json.dumps(good) + "\n", encoding="utf-8")
        caplog.set_level(logging.INFO, logger="tensortopics.corpus_ingest")
        assert [r.title for r in load_corpus(path, "jsonl")] == ["ok"]
        assert self.logged(caplog)[0] == ("WARNING", f"{path}:1: invalid JSON, row skipped")

    def test_clean_source_logs_only_the_count(self, caplog):
        caplog.set_level(logging.INFO, logger="tensortopics.corpus_ingest")
        path = DATA_DIR / "toy_corpus.csv"
        load_corpus(path, "csv")
        assert self.logged(caplog) == [("INFO", f"{path}: loaded 40 record(s)")]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_corpus(tmp_path / "x.csv", "parquet")

    def test_missing_file_is_hard_error(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.csv", "csv")


class TestCleanAndFilter:
    def test_empty_body_dropped(self):
        rules = CleaningRules()
        out = clean_and_filter([record(body=""), record(body="   "), record()], rules)
        assert len(out) == 1

    def test_title_and_journal_cleaning(self):
        rules = CleaningRules()
        out = clean_and_filter(
            [record(title="COVID-19 & Vaccines 2021!", journal="  The  Lancet (2020) ")],
            rules,
        )
        assert out[0].title == "covid vaccines"
        assert out[0].journal == "the lancet"

    @staticmethod
    def regex_clean_label(text):
        """The regex form of label cleaning, the oracle of _clean_label."""
        return " ".join(re.sub("[^a-z]+", " ", text.lower()).split())

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\u212a",  # the Kelvin sign lowercases to an ASCII "k"
            "a\u212ab",
            "\u0130",  # "İ" lowercases to "i" plus a combining dot
            "a\u0130b",
            "\u00df",
            "a\u00dfb",
            "\ufb01",
            "a\ufb01b",
            "COVID-19 & Vaccines 2021!",
            "2020--2021 ... 42",
            "a1b22c333d!!e??",
        ],
    )
    def test_label_cleaning_matches_the_regex_form(self, text):
        assert _clean_label(text) == self.regex_clean_label(text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.one_of(st.characters(), st.sampled_from("aZ9 -\u212a\u0130\u00df\ufb01")), max_size=40))
    def test_generated_label_cleaning_matches_the_regex_form(self, text):
        assert _clean_label(text) == self.regex_clean_label(text)

    def test_author_whitespace_normalized_verbatim_case(self):
        out = clean_and_filter([record(author="  Chen   Wei ")], CleaningRules())
        assert out[0].first_author == "Chen Wei"

    def test_mostly_non_ascii_body_dropped(self):
        body = "вирусная пневмония у взрослых пациентов"
        out = clean_and_filter([record(body=body)], CleaningRules())
        assert out == []

    def test_non_ascii_body_without_letters_kept(self):
        # No letters, so no non-English ones: the fraction is 0, not 0 / 0.
        body = "\u2605 42 \u2014 \u20ac"
        assert _nonascii_letter_fraction(body) == 0.0
        assert len(clean_and_filter([record(body=body)], CleaningRules())) == 1

    def test_threshold_is_configurable(self):
        body = "мир peace"  # 3 of 8 letters non-ASCII
        strict = CleaningRules(max_nonascii_fraction=0.2)
        lax = CleaningRules(max_nonascii_fraction=0.5)
        assert clean_and_filter([record(body=body)], strict) == []
        assert len(clean_and_filter([record(body=body)], lax)) == 1

    def test_idempotent(self):
        rules = CleaningRules()
        once = clean_and_filter([record(title="A-1 b", journal="J 2")], rules)
        twice = clean_and_filter(once, rules)
        assert once == twice


class TestDedup:
    def test_duplicate_titles_keep_first(self):
        out = dedup([record(title="t", body="one"), record(title="t", body="two")])
        assert len(out) == 1
        assert out[0].body == "one"

    def test_duplicate_abstracts_keep_first(self):
        out = dedup(
            [
                record(title="t1", abstract="Shared abstract."),
                record(title="t2", abstract="  shared   ABSTRACT. "),
            ]
        )
        assert [r.title for r in out] == ["t1"]

    def test_empty_abstracts_never_collide(self):
        out = dedup([record(title="t1", abstract=""), record(title="t2", abstract="")])
        assert len(out) == 2

    def test_empty_titles_do_collide(self):
        out = dedup([record(title="", abstract="a1"), record(title="", abstract="a2")])
        assert len(out) == 1

    def test_idempotent(self):
        records = [record(title=f"t{i}", abstract=f"a{i}") for i in range(5)]
        once = dedup(records)
        assert dedup(once) == once


class TestTokenize:
    """build_counts' token filters on one-record corpora; kept_words also
    checks each case against build_counts_oracle."""

    def test_stopwords_and_order(self):
        rules = CleaningRules(stopwords=frozenset(["the"]), min_token_length=3)
        assert kept_words("The dog the cat the dog", rules) == [("dog", 2), ("cat", 1)]

    def test_short_tokens_dropped(self):
        assert kept_words("an ox is by it") == []

    def test_dna_runs_dropped_short_dna_words_kept(self):
        assert kept_words("acgtacgtacgtacgt binds cat") == [("binds", 1), ("cat", 1)]
        # 'cat' sits inside the DNA alphabet but is far below the run length

    def test_dna_run_length_configurable(self):
        loose = CleaningRules(dna_min_run=20)
        assert kept_words("acgtacgtacgtacgt", loose) == [("acgtacgtacgtacgt", 1)]

    def test_nonsense_no_vowel(self):
        assert kept_words("xkcdzz protein") == [("protein", 1)]

    def test_nonsense_repeated_character(self):
        assert kept_words("aaaaebbbb normal") == [("normal", 1)]

    def test_nonsense_long_consonant_run(self):
        assert kept_words("abcdfghjk stretch") == [("stretch", 1)]

    def test_digits_and_punctuation_split_tokens(self):
        assert kept_words("covid-19 vaccine2dose") == [("covid", 1), ("vaccine", 1), ("dose", 1)]

    def test_non_ascii_letters_never_tokenize(self):
        assert kept_words("naïve café") == [("caf", 1)]
        # the diacritic splits the token; leftovers follow the normal rules

    def test_empty_body(self):
        assert kept_words("") == []


class TestCleaningRulesValidation:
    def test_stopwords_must_be_lowercase(self):
        with pytest.raises(ValueError, match="lowercase"):
            CleaningRules(stopwords=frozenset(["The"]))

    def test_numeric_floors(self):
        with pytest.raises(ValueError, match="min_token_length"):
            CleaningRules(min_token_length=0)
        with pytest.raises(ValueError, match="name_df_floor"):
            CleaningRules(name_df_floor=-1)
        with pytest.raises(ValueError, match="max_nonascii_fraction"):
            CleaningRules(max_nonascii_fraction=1.5)

    def test_load_stopwords(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nThe\n\nand\n", encoding="utf-8")
        words = load_stopwords(path)
        assert words == frozenset(["the", "and"])
        path.write_text("The\nand\n", encoding="utf-8-sig")
        assert load_stopwords(path) == frozenset(["the", "and"])

    def test_default_stopwords_are_lowercase_ascii(self):
        assert all(w == w.lower() and w.isascii() for w in DEFAULT_STOPWORDS)
        assert "the" in DEFAULT_STOPWORDS and "protein" not in DEFAULT_STOPWORDS


class TestNameFilter:
    def test_rare_capitalized_token_excluded(self):
        records = [
            record(title="t1", abstract="a1", body="measured airflow with Marchetti gauges"),
            record(title="t2", abstract="a2", body="airflow readings were stable"),
        ]
        quad = build_counts(records, CleaningRules(name_df_floor=2))
        assert "marchetti" not in quad.axes[3]
        assert "airflow" in quad.axes[3]

    def test_capitalized_token_at_floor_kept(self):
        records = [
            record(title="t1", abstract="a1", body="meeting held in Geneva today"),
            record(title="t2", abstract="a2", body="Geneva delegates returned home"),
        ]
        quad = build_counts(records, CleaningRules(name_df_floor=2))
        assert "geneva" in quad.axes[3]

    def test_lowercase_occurrence_anywhere_protects_token(self):
        records = [
            record(title="t1", abstract="a1", body="Protein folding is hard"),
            record(title="t2", abstract="a2", body="the protein folded"),
        ]
        quad = build_counts(records, CleaningRules(name_df_floor=5))
        assert "protein" in quad.axes[3]

    def test_zero_floor_disables_filter(self):
        records = [record(body="written by Marchetti alone")]
        quad = build_counts(records, CleaningRules(name_df_floor=0))
        assert "marchetti" in quad.axes[3]


class TestBuildCounts:
    def test_single_record_counts(self):
        rules = CleaningRules(stopwords=frozenset(["the"]), name_df_floor=0)
        records = [record(title="pets", author="A B", journal="j", body="The cat saw the cat and the dog")]
        quad = build_counts(records, rules)
        assert quad.axes[0].labels == ["A B"]
        assert quad.axes[1].labels == ["pets"]
        assert quad.axes[2].labels == ["j"]
        assert quad.axes[3].labels == ["cat", "saw", "and", "dog"]
        counts = {
            (0, 0, 0, quad.axes[3].labels.index("cat")): 2,
            (0, 0, 0, quad.axes[3].labels.index("saw")): 1,
            (0, 0, 0, quad.axes[3].labels.index("and")): 1,
            (0, 0, 0, quad.axes[3].labels.index("dog")): 1,
        }
        assert quad.counts == counts

    def test_axes_shared_across_records(self):
        rules = CleaningRules(name_df_floor=0)
        records = [
            record(title="t1", abstract="a1", author="Same Author", journal="same journal", body="alpha beta"),
            record(title="t2", abstract="a2", author="Same Author", journal="same journal", body="beta gamma"),
        ]
        quad = build_counts(records, rules)
        assert len(quad.axes[0]) == 1
        assert len(quad.axes[1]) == 2
        assert len(quad.axes[2]) == 1
        assert quad.axes[3].labels == ["alpha", "beta", "gamma"]

    def test_missing_journal_goes_to_sentinel(self):
        quad = build_counts([record(journal="", body="alpha beta")], CleaningRules())
        assert quad.axes[2].labels == [UNKNOWN_JOURNAL]

    def test_tokenless_document_dropped(self):
        rules = CleaningRules()
        records = [record(title="t1", abstract="a1", body="of the and"),
                   record(title="t2", abstract="a2", body="alpha beta")]
        quad = build_counts(records, rules)
        assert quad.axes[1].labels == ["t2"]

    def test_first_seen_order_is_stable(self):
        rules = CleaningRules(name_df_floor=0)
        records = [
            record(title="t1", abstract="a1", body="zebra yak xylophone"),
            record(title="t2", abstract="a2", body="yak apple zebra"),
        ]
        quad = build_counts(records, rules)
        assert quad.axes[3].labels == ["zebra", "yak", "xylophone", "apple"]


class TestCountsToTensor:
    def test_values_are_log1p_of_counts(self):
        rules = CleaningRules(name_df_floor=0)
        quad = build_counts([record(body="echo echo delta")], rules)
        tensor = counts_to_tensor(quad)
        got = dict(tensor.entries())
        e = quad.axes[3].labels.index("echo")
        d = quad.axes[3].labels.index("delta")
        assert got[(0, 0, 0, e)] == math.log1p(2)
        assert got[(0, 0, 0, d)] == math.log1p(1)

    def test_token_total_recoverable(self, rng):
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        records = [
            record(
                title=f"t{i}",
                abstract=f"a{i}",
                body=" ".join(rng.choice(words, size=12)),
            )
            for i in range(6)
        ]
        quad = build_counts(records, CleaningRules(name_df_floor=0))
        tensor = counts_to_tensor(quad)
        recovered = float(np.sum(np.expm1(tensor.values)))
        assert recovered == pytest.approx(quad.token_total(), rel=1e-9)

    def test_one_author_one_journal_per_document(self):
        records = [
            record(title="t1", abstract="a1", author="A", journal="j1", body="alpha beta"),
            record(title="t2", abstract="a2", author="B", journal="j2", body="alpha gamma"),
        ]
        quad = build_counts(records, CleaningRules(name_df_floor=0))
        tensor = counts_to_tensor(quad)
        seen: dict[int, tuple[int, int]] = {}
        for (a, d, j, _w), _v in tensor.entries():
            assert seen.setdefault(d, (a, j)) == (a, j)

    def test_empty_corpus_rejected(self):
        quad = build_counts([], CleaningRules())
        with pytest.raises(ValueError, match="empty corpus"):
            counts_to_tensor(quad)


@pytest.fixture(scope="module")
def pipeline():
    rules = CleaningRules()
    records = load_corpus(DATA_DIR / "toy_corpus.csv", "csv")
    cleaned = clean_and_filter(records, rules)
    unique = dedup(cleaned)
    quad = build_counts(unique, rules)
    tensor = counts_to_tensor(quad)
    return records, cleaned, unique, quad, tensor


class TestToyFixture:
    """End-to-end ingestion on the checked-in corpus, against hand-computed numbers."""

    def test_stage_counts(self, pipeline):
        records, cleaned, unique, _, _ = pipeline
        assert len(records) == 40
        assert len(cleaned) == 39  # one Cyrillic body dropped
        assert len(unique) == 37  # one duplicate title, one duplicate abstract

    def test_axis_extents(self, pipeline):
        _, _, _, quad, tensor = pipeline
        assert tensor.shape == (11, 37, 7, 36)
        assert [len(ax) for ax in quad.axes] == [11, 37, 7, 36]

    def test_nnz_and_token_total(self, pipeline):
        _, _, _, quad, tensor = pipeline
        assert tensor.nnz == 112
        assert quad.token_total() == 171

    def test_journal_axis_order_and_sentinel(self, pipeline):
        _, _, _, quad, _ = pipeline
        assert quad.axes[2].labels == [
            "journal of respiratory medicine",
            UNKNOWN_JOURNAL,
            "thorax quarterly",
            "vaccine research letters",
            "immunology today",
            "aviation safety review",
            "flight operations journal",
        ]

    def test_chaff_words_absent(self, pipeline):
        _, _, _, quad, _ = pipeline
        words = quad.axes[3]
        for chaff in (
            "marchetti",  # rare capitalized token
            "zebra",  # only in the dropped duplicate-title row
            "quagga",
            "yodel",  # only in the dropped duplicate-abstract row
            "acgtacgtacgtacgt",  # nucleotide run
            "acguacguacgu",
            "xxqzwv",  # no vowel
            "aaaab",  # repeated character
            "the",  # stopword
            "co",  # below the length floor
        ):
            assert chaff not in words, chaff

    def test_geneva_survives_name_floor(self, pipeline):
        _, _, _, quad, _ = pipeline
        # capitalized everywhere, but appears in two documents: df == floor
        assert "geneva" in quad.axes[3]

    def test_known_entry_value(self, pipeline):
        _, _, _, quad, tensor = pipeline
        got = dict(tensor.entries())
        doc = quad.axes[1].labels.index("airway obstruction in chronic bronchitis")
        author = quad.axes[0].labels.index("Chen Wei")
        journal = quad.axes[2].labels.index("journal of respiratory medicine")
        word = quad.axes[3].labels.index("airway")
        assert got[(author, doc, journal, word)] == math.log1p(3)

    def test_rerun_is_identical(self, pipeline):
        _, _, _, _, tensor = pipeline
        rules = CleaningRules()
        again = counts_to_tensor(
            build_counts(dedup(clean_and_filter(load_corpus(DATA_DIR / "toy_corpus.csv", "csv"), rules)), rules)
        )
        assert again == tensor
