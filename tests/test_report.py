import json

import numpy as np
import pytest

from tensortopics import (
    AxisMap,
    Component,
    ComponentReport,
    build_report,
    emit_report,
    load_reports,
    top_n,
)
from tensortopics.report import DEFAULT_KEYWORD_COUNT, DEFAULT_TOP_N, WORD_MODE


def make_component(slices, weight=2.0, origin_rank=20, index_in_model=0):
    return Component(
        origin_rank=origin_rank,
        index_in_model=index_in_model,
        weight=weight,
        factor_slices=[np.asarray(s, dtype=np.float64) for s in slices],
    )


WORD_AXIS = AxisMap(["ant", "bee", "cow", "doe", "elk"])


class TestTopN:
    def test_basic_order(self):
        comp = make_component([[0.1, 0.5, 0.2, 0.0, 0.2]])
        got = top_n(comp, 0, 3, WORD_AXIS)
        assert got == [("bee", 0.5), ("cow", 0.2), ("elk", 0.2)]

    def test_ties_break_lexicographically(self):
        comp = make_component([[0.3, 0.3, 0.3, 0.3, 0.3]])
        got = top_n(comp, 0, 5, WORD_AXIS)
        assert [label for label, _ in got] == ["ant", "bee", "cow", "doe", "elk"]

    def test_n_larger_than_mode_returns_all(self):
        comp = make_component([[0.1, 0.2, 0.3, 0.4, 0.5]])
        assert len(top_n(comp, 0, 99, WORD_AXIS)) == 5

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(25):
            values = rng.uniform(-1.0, 1.0, size=30)
            axis = AxisMap([f"w{i:02d}" for i in range(30)])
            comp = make_component([values])
            got = top_n(comp, 0, 10, axis)
            expected = sorted(
                ((axis.labels[i], float(values[i])) for i in range(30)),
                key=lambda pair: (-pair[1], pair[0]),
            )[:10]
            assert got == expected

    def test_zero_n_rejected(self):
        comp = make_component([[0.1]])
        with pytest.raises(ValueError, match="n must be"):
            top_n(comp, 0, 0, AxisMap(["x"]))

    def test_axis_length_mismatch_rejected(self):
        comp = make_component([[0.1, 0.2]])
        with pytest.raises(ValueError, match="labels"):
            top_n(comp, 0, 1, WORD_AXIS)


class TestKeywordCloud:
    def test_is_top_n_on_the_word_mode(self):
        slices = [[1.0, 0.0], [0.5], [0.5], [0.4, 0.1, 0.3, 0.2, 0.0]]
        axes = (AxisMap(["a", "b"]), AxisMap(["d"]), AxisMap(["j"]), WORD_AXIS)
        comp = make_component(slices)
        report = build_report(comp, axes, MODE_NAMES, n=2, keyword_count=3)
        assert report.keywords == top_n(comp, WORD_MODE, 3, WORD_AXIS)
        assert report.keywords == [
            ("ant", 0.4),
            ("cow", 0.3),
            ("doe", 0.2),
        ]


def small_axes():
    return (
        AxisMap(["alice", "bob"]),
        AxisMap(["doc one", "doc two", "doc three"]),
        AxisMap(["journal a"]),
        WORD_AXIS,
    )


def small_component(weight=3.5, origin_rank=40, index_in_model=1):
    return make_component(
        [
            [0.75, 0.25],
            [0.5, 0.3, 0.2],
            [1.0],
            [0.05, 0.45, 0.05, 0.25, 0.2],
        ],
        weight=weight,
        origin_rank=origin_rank,
        index_in_model=index_in_model,
    )


MODE_NAMES = ("first_author", "document", "journal", "words")


class TestBuildReport:
    def test_structure(self):
        report = build_report(small_component(), small_axes(), MODE_NAMES, n=2, keyword_count=3)
        assert report.origin_rank == 40
        assert report.index_in_model == 1
        assert report.weight == 3.5
        assert list(report.mode_tops) == list(MODE_NAMES)
        assert report.mode_tops["first_author"] == [("alice", 0.75), ("bob", 0.25)]
        assert report.mode_tops["journal"] == [("journal a", 1.0)]
        assert report.keywords == [("bee", 0.45), ("doe", 0.25), ("elk", 0.2)]

    def test_defaults_cap_at_mode_sizes(self):
        report = build_report(small_component(), small_axes(), MODE_NAMES)
        assert DEFAULT_TOP_N == 13 and DEFAULT_KEYWORD_COUNT == 50
        assert len(report.mode_tops["first_author"]) == 2
        assert len(report.keywords) == 5

    @pytest.mark.parametrize("n,keyword_count", [(3, 20), (20, 3), (4, 4)])
    def test_word_tops_and_keywords_prefix_one_ranking(self, rng, n, keyword_count):
        for _ in range(10):
            words = AxisMap([f"w{i:02d}" for i in range(12)])
            values = rng.integers(0, 5, size=12) / 4.0  # plenty of ties
            comp = make_component([[1.0], [1.0], [1.0], values])
            axes = (AxisMap(["a"]), AxisMap(["d"]), AxisMap(["j"]), words)
            report = build_report(comp, axes, MODE_NAMES, n=n, keyword_count=keyword_count)
            ranking = sorted(
                ((words.labels[i], float(values[i])) for i in range(12)),
                key=lambda pair: (-pair[1], pair[0]),
            )
            assert report.mode_tops["words"] == ranking[:n]
            assert report.keywords == ranking[:keyword_count]

    def test_bad_counts_and_word_mode_rejected(self):
        with pytest.raises(ValueError, match="keyword_count"):
            build_report(small_component(), small_axes(), MODE_NAMES, keyword_count=0)
        with pytest.raises(ValueError, match="n and keyword_count"):
            build_report(small_component(), small_axes(), MODE_NAMES, n=0)
        for word_mode in (-1, 4):
            with pytest.raises(ValueError, match="word_mode"):
                build_report(small_component(), small_axes(), MODE_NAMES, word_mode=word_mode)

    def test_misaligned_axes_rejected(self):
        with pytest.raises(ValueError, match="align"):
            build_report(small_component(), small_axes()[:3], MODE_NAMES[:3])


class TestEmitReport:
    META = {"ranks": [20, 40], "threshold": 0.35, "strategy": "stable-then-dedup"}

    def build(self):
        reports = [
            build_report(small_component(), small_axes(), MODE_NAMES, n=2, keyword_count=3),
            build_report(
                small_component(weight=-1.25, origin_rank=20, index_in_model=0),
                small_axes(),
                MODE_NAMES,
                n=2,
                keyword_count=3,
            ),
        ]
        return reports

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
        comp = make_component([[1.0], [1.0], [1.0], [0.6, 0.4]])
        report = build_report(comp, axes, MODE_NAMES, n=1, keyword_count=2)
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
            "schema_7", "no_components", "null_weight", "no_weight", "list_modes", "fractional_rank",
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
