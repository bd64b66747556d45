import json

import numpy as np
import pytest

from tensortopics import (
    AxisMap,
    ComponentReport,
    KruskalModel,
    build_report,
    emit_report,
    load_reports,
    top_n,
)
from tensortopics.report import DEFAULT_KEYWORD_COUNT, DEFAULT_TOP_N


def make_table(slices, weight=2.0):
    """A one-column Kruskal table: `weight` and one factor column per mode."""
    return KruskalModel([weight], [np.asarray(s, dtype=np.float64)[:, None] for s in slices])


def report_of(slices, axes, weight=2.0, origin_rank=20, index_in_model=0, **kwargs):
    """build_report's one report on make_table(slices, weight)."""
    table = make_table(slices, weight)
    (report,) = build_report(table, [(origin_rank, index_in_model)], axes, MODE_NAMES, **kwargs)
    return report


WORD_AXIS = AxisMap(["ant", "bee", "cow", "doe", "elk"])


class TestTopN:
    def test_basic_order(self):
        got = top_n(np.array([0.1, 0.5, 0.2, 0.0, 0.2]), 3, WORD_AXIS)
        assert got == [("bee", 0.5), ("cow", 0.2), ("elk", 0.2)]

    def test_ties_break_lexicographically(self):
        got = top_n(np.full(5, 0.3), 5, WORD_AXIS)
        assert [label for label, _ in got] == ["ant", "bee", "cow", "doe", "elk"]

    def test_n_larger_than_mode_returns_all(self):
        assert len(top_n(np.array([0.1, 0.2, 0.3, 0.4, 0.5]), 99, WORD_AXIS)) == 5

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(25):
            values = rng.uniform(-1.0, 1.0, size=30)
            axis = AxisMap([f"w{i:02d}" for i in range(30)])
            got = top_n(values, 10, axis)
            expected = sorted(
                ((axis.labels[i], float(values[i])) for i in range(30)),
                key=lambda pair: (-pair[1], pair[0]),
            )[:10]
            assert got == expected

    def test_strided_column_ranks_as_its_copy(self, rng):
        table = rng.integers(0, 4, size=(30, 7)) / 4.0  # plenty of ties
        axis = AxisMap([f"w{i:02d}" for i in range(30)])
        for j in range(7):
            assert top_n(table[:, j], 9, axis) == top_n(table[:, j].copy(), 9, axis)

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError, match="n must be"):
            top_n(np.array([0.1]), 0, AxisMap(["x"]))

    def test_axis_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            top_n(np.array([0.1, 0.2]), 1, WORD_AXIS)


class TestKeywordCloud:
    def test_is_top_n_on_the_word_mode(self):
        slices = [[1.0, 0.0], [0.5], [0.5], [0.4, 0.1, 0.3, 0.2, 0.0]]
        axes = (AxisMap(["a", "b"]), AxisMap(["d"]), AxisMap(["j"]), WORD_AXIS)
        report = report_of(slices, axes, n=2, keyword_count=3)
        assert report.keywords == top_n(np.array(slices[-1]), 3, WORD_AXIS)
        assert report.keywords == [
            ("ant", 0.4),
            ("cow", 0.3),
            ("doe", 0.2),
        ]

    def test_come_from_the_last_mode_of_any_order(self):
        slices = [[0.9, 0.1], [0.4, 0.1, 0.3, 0.2, 0.0]]
        table = make_table(slices)
        axes = (AxisMap(["a", "b"]), WORD_AXIS)
        (report,) = build_report(table, [(20, 0)], axes, ("doc", "word"), n=1, keyword_count=2)
        assert report.mode_tops == {"doc": [("a", 0.9)], "word": [("ant", 0.4)]}
        assert report.keywords == [("ant", 0.4), ("cow", 0.3)]


def small_axes():
    return (
        AxisMap(["alice", "bob"]),
        AxisMap(["doc one", "doc two", "doc three"]),
        AxisMap(["journal a"]),
        WORD_AXIS,
    )


SMALL_SLICES = [
    [0.75, 0.25],
    [0.5, 0.3, 0.2],
    [1.0],
    [0.05, 0.45, 0.05, 0.25, 0.2],
]


def small_report(weight=3.5, origin_rank=40, index_in_model=1, **kwargs):
    return report_of(SMALL_SLICES, small_axes(), weight, origin_rank, index_in_model, **kwargs)


MODE_NAMES = ("first_author", "document", "journal", "words")


class TestBuildReport:
    def test_structure(self):
        report = small_report(n=2, keyword_count=3)
        assert report.origin_rank == 40
        assert report.index_in_model == 1
        assert report.weight == 3.5
        assert list(report.mode_tops) == list(MODE_NAMES)
        assert report.mode_tops["first_author"] == [("alice", 0.75), ("bob", 0.25)]
        assert report.mode_tops["journal"] == [("journal a", 1.0)]
        assert report.keywords == [("bee", 0.45), ("doe", 0.25), ("elk", 0.2)]

    def test_defaults_cap_at_mode_sizes(self):
        report = small_report()
        assert DEFAULT_TOP_N == 13 and DEFAULT_KEYWORD_COUNT == 50
        assert len(report.mode_tops["first_author"]) == 2
        assert len(report.keywords) == 5

    @pytest.mark.parametrize("n,keyword_count", [(3, 20), (20, 3), (4, 4)])
    def test_word_tops_and_keywords_prefix_one_ranking(self, rng, n, keyword_count):
        for _ in range(10):
            words = AxisMap([f"w{i:02d}" for i in range(12)])
            values = rng.integers(0, 5, size=12) / 4.0  # plenty of ties
            axes = (AxisMap(["a"]), AxisMap(["d"]), AxisMap(["j"]), words)
            report = report_of([[1.0], [1.0], [1.0], values], axes, n=n, keyword_count=keyword_count)
            ranking = sorted(
                ((words.labels[i], float(values[i])) for i in range(12)),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert report.mode_tops["words"] == ranking[:n]
            assert report.keywords == ranking[:keyword_count]

    def test_each_column_reports_as_its_own_table(self, rng):
        # Columns of one table, ranked together, give the reports of
        # one-column tables of the same numbers, in column order.
        axes = (AxisMap(["a", "b", "c"]), AxisMap(["d1", "d2"]), AxisMap(["j"]), WORD_AXIS)
        factors = [rng.integers(-2, 4, size=(len(axis), 6)) / 4.0 for axis in axes]
        weights = rng.uniform(-2.0, 2.0, size=6)
        ids = [(rank, index) for rank in (2, 4) for index in range(rank)]
        got = build_report(KruskalModel(weights, factors), ids, axes, MODE_NAMES, n=2, keyword_count=4)
        want = [
            report_of([f[:, j] for f in factors], axes, weights[j], *ids[j], n=2, keyword_count=4)
            for j in range(6)
        ]
        assert got == want
        assert all(type(r.origin_rank) is int and type(r.weight) is float for r in got)

    def test_empty_table_reports_nothing(self):
        table = KruskalModel(np.empty(0), [np.empty((len(axis), 0)) for axis in small_axes()])
        assert build_report(table, [], small_axes(), MODE_NAMES) == []

    def test_bad_counts_rejected(self):
        table, ids = make_table(SMALL_SLICES), [(40, 1)]
        with pytest.raises(ValueError, match="keyword_count"):
            build_report(table, ids, small_axes(), MODE_NAMES, keyword_count=0)
        with pytest.raises(ValueError, match="n and keyword_count"):
            build_report(table, ids, small_axes(), MODE_NAMES, n=0)

    def test_misaligned_axes_rejected(self):
        with pytest.raises(ValueError, match="align"):
            build_report(make_table(SMALL_SLICES), [(40, 1)], small_axes()[:3], MODE_NAMES[:3])

    def test_id_count_must_match_the_columns(self):
        with pytest.raises(ValueError, match="2 ids for a table of 1 columns"):
            build_report(make_table(SMALL_SLICES), [(40, 1), (40, 2)], small_axes(), MODE_NAMES)


class TestEmitReport:
    META = {"ranks": [20, 40], "threshold": 0.35, "strategy": "stable-then-dedup"}

    def build(self):
        return [
            small_report(n=2, keyword_count=3),
            small_report(weight=-1.25, origin_rank=20, index_in_model=0, n=2, keyword_count=3),
        ]

    def test_bundle_files_created(self, tmp_path):
        out = emit_report(self.build(), tmp_path / "report", self.META)
        assert (out / "report.json").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "index.html").is_file()

    def test_round_trip_is_lossless(self, tmp_path):
        reports = self.build()
        out = emit_report(reports, tmp_path / "report", self.META)
        assert load_reports(out / "report.json") == reports

    def test_summary_content(self, tmp_path):
        out = emit_report(self.build(), tmp_path / "report", self.META)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["component_count"] == 2
        assert summary["ranks"] == [20, 40]
        assert summary["threshold"] == 0.35
        assert summary["strategy"] == "stable-then-dedup"

    def test_rerun_is_byte_identical(self, tmp_path):
        first = emit_report(self.build(), tmp_path / "a", self.META)
        second = emit_report(self.build(), tmp_path / "b", self.META)
        for name in ("report.json", "summary.json", "index.html"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_html_is_self_contained(self, tmp_path):
        out = emit_report(self.build(), tmp_path / "report", self.META)
        page = (out / "index.html").read_text(encoding="utf-8")
        assert "http://" not in page and "https://" not in page
        assert "<script" not in page

    def test_html_mentions_labels_and_meta(self, tmp_path):
        out = emit_report(self.build(), tmp_path / "report", self.META)
        page = (out / "index.html").read_text(encoding="utf-8")
        assert "alice" in page and "journal a" in page and "bee" in page
        assert "stable-then-dedup" in page and "0.35" in page
        assert "Component 1" in page and "Component 2" in page

    def test_negative_scores_marked(self, tmp_path):
        out = emit_report(self.build(), tmp_path / "report", self.META)
        page = (out / "index.html").read_text(encoding="utf-8")
        assert 'class="negative"' in page  # the -1.25 weight

    def test_html_escapes_labels(self, tmp_path):
        axes = (
            AxisMap(["<b>bold</b> & co"]),
            AxisMap(["doc"]),
            AxisMap(["j"]),
            AxisMap(["w1", "w2"]),
        )
        report = report_of([[1.0], [1.0], [1.0], [0.6, 0.4]], axes, n=1, keyword_count=2)
        out = emit_report([report], tmp_path / "report", self.META)
        page = (out / "index.html").read_text(encoding="utf-8")
        assert "<b>bold</b>" not in page
        assert "&lt;b&gt;bold&lt;/b&gt; &amp; co" in page

    def test_empty_selection_bundle(self, tmp_path):
        out = emit_report([], tmp_path / "report", self.META)
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["component_count"] == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["components"] == []
        page = (out / "index.html").read_text(encoding="utf-8")
        assert "No components were selected" in page
        assert load_reports(out / "report.json") == []

    def test_unrecognized_format_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"format": "something-else", "components": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_reports(path)

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda p: p.update(schema_version=7), "unsupported schema version 7"),
            (lambda p: p.update(schema_version=True), "malformed report header: expected int, got True"),
            (lambda p: p.pop("components"), "report header has no 'components' field"),
            (lambda p: p["components"][0].update(weight=None), "malformed report header"),
            (lambda p: p["components"][0].pop("weight"),
             "malformed report header: no 'weight' key in 'components'"),
            (lambda p: p["components"][0].update(modes=[]), "malformed report header"),
            (lambda p: p["components"][0].update(origin_rank=20.9), "malformed report header"),
            (lambda p: p["components"][0].update(index_in_model=True), "malformed report header"),
            (lambda p: p["components"][0].update(weight="0.5"), "malformed report header"),
            (lambda p: p["components"][0]["modes"]["words"][0].__setitem__(1, True),
             "malformed report header"),
            (lambda p: p["components"][0]["keywords"][0].__setitem__(1, "0.25"),
             "malformed report header"),
            (lambda p: p["components"][0].update(weight=float("nan")),
             "malformed report header: expected a finite number, got nan"),
            (lambda p: p["components"][0]["modes"]["words"][0].__setitem__(1, float("inf")),
             "malformed report header: expected a finite number, got inf"),
            (lambda p: p["components"][0]["keywords"][0].__setitem__(1, -float("inf")),
             "malformed report header: expected a finite number, got -inf"),
            (lambda p: p["components"][0].update(weight=10**400),
             "malformed report header: expected a finite number"),
            (lambda p: p["components"][0]["modes"]["words"][0].__setitem__(0, None),
             "malformed report header: expected str, got None"),
            (lambda p: p["components"][0]["keywords"][0].__setitem__(0, 7),
             "malformed report header: expected str, got 7"),
        ],
        ids=[
            "schema_7", "bool_schema", "no_components", "null_weight", "no_weight", "list_modes", "fractional_rank",
            "bool_index", "string_weight", "bool_mode_score", "string_keyword_score",
            "nan_weight", "infinite_mode_score", "infinite_keyword_score", "huge_weight",
            "null_mode_label", "int_keyword",
        ],
    )
    def test_damaged_report_is_a_named_error(self, tmp_path, edit, phrase):
        path = emit_report(self.build(), tmp_path / "report", self.META) / "report.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=phrase) as info:
            load_reports(path)
        assert "report.json" in str(info.value)

    def test_float_fidelity_through_json(self, tmp_path):
        weight = 0.1 + 0.2  # 0.30000000000000004
        report = ComponentReport(
            origin_rank=20,
            index_in_model=0,
            weight=weight,
            mode_tops={"words": [("x", 1.0 / 3.0)]},
            keywords=[("x", 1.0 / 3.0)],
        )
        out = emit_report([report], tmp_path / "report", self.META)
        loaded = load_reports(out / "report.json")[0]
        assert loaded.weight == weight
        assert loaded.keywords[0][1] == 1.0 / 3.0
