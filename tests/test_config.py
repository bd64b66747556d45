import argparse
import functools
from pathlib import Path

import pytest

from tensortopics import cli
from tensortopics.config import SETTINGS, PipelineConfig, apply_overrides, load_config

README = Path(__file__).resolve().parent.parent / "README.md"

# config key -> (its text in a file, the PipelineConfig attribute it sets,
# the value it should get; "{base}" stands for the config file's directory)
KEY_CASES = {
    "corpus": ("data/c.csv", "corpus", "{base}/data/c.csv"),
    "format": ("jsonl", "corpus_format", "jsonl"),
    "workdir": ("work", "workdir", "{base}/work"),
    "output": ("out", "output", "{base}/out"),
    "ranks": ("2, 4,8", "selection.ranks", (2, 4, 8)),
    "threshold": ("0.5", "selection.threshold", 0.5),
    "strategy": ("greedy-dedup", "selection.strategy", "greedy-dedup"),
    "seed": ("11", "als.seed", 11),
    "max_iters": ("7", "als.max_iters", 7),
    "fit_tolerance": ("1e-3", "als.fit_tolerance", 1e-3),
    "threads": ("2", "threads", 2),
    "top_n": ("4", "top_n", 4),
    "keywords": ("9", "keyword_count", 9),
    "stopwords": ("stop.txt", "rules.stopwords", frozenset({"alpha", "beta"})),
    "min_token_length": ("2", "rules.min_token_length", 2),
    "dna_min_run": ("9", "rules.dna_min_run", 9),
    "max_char_repeat": ("4", "rules.max_char_repeat", 4),
    "max_consonant_run": ("6", "rules.max_consonant_run", 6),
    "max_nonascii_fraction": ("0.25", "rules.max_nonascii_fraction", 0.25),
    "name_df_floor": ("0", "rules.name_df_floor", 0),
    "similarity_matrix": ("yes", "similarity_matrix", True),
}


def attr(cfg, dotted):
    return functools.reduce(getattr, dotted.split("."), cfg)


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    (tmp_path / "stop.txt").write_text("# words\nAlpha\n\nbeta\n", encoding="utf-8")
    return path


class TestLoadConfig:
    @pytest.mark.parametrize("key", sorted(KEY_CASES))
    def test_key_lands_on_its_field_alone(self, tmp_path, key):
        text, dotted, expected = KEY_CASES[key]
        cfg = load_config(write_cfg(tmp_path, f"{key} = {text}\n"))
        if isinstance(expected, str) and "{base}" in expected:
            expected = Path(expected.format(base=tmp_path))
        assert attr(cfg, dotted) == expected
        default = PipelineConfig()
        for _text, other, _value in KEY_CASES.values():
            if other != dotted:
                assert attr(cfg, other) == attr(default, other), other

    def test_empty_file_is_the_defaults(self, tmp_path):
        assert load_config(write_cfg(tmp_path, "")) == PipelineConfig()

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = write_cfg(tmp_path, "# a comment\n\n   \n  # indented = comment\nseed = 3\n\n")
        assert load_config(path) == apply_overrides(PipelineConfig(), seed=3)

    def test_whitespace_around_key_and_value_is_dropped(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "  strategy\t=   greedy-dedup  \n"))
        assert cfg.selection.strategy == "greedy-dedup"

    def test_absolute_paths_are_kept(self, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "words.txt").write_text("gamma\n", encoding="utf-8")
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        path = cfg_dir / "run.cfg"
        path.write_text(
            f"corpus = {elsewhere / 'c.csv'}\nworkdir = {elsewhere}\n"
            f"output = {elsewhere / 'out'}\nstopwords = {elsewhere / 'words.txt'}\n",
            encoding="utf-8",
        )
        cfg = load_config(path)
        assert (cfg.corpus, cfg.workdir, cfg.output) == (
            elsewhere / "c.csv", elsewhere, elsewhere / "out"
        )
        assert cfg.rules.stopwords == frozenset({"gamma"})

    def test_relative_paths_do_not_depend_on_the_cwd(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, "workdir = w\nstopwords = stop.txt\n")
        monkeypatch.chdir(tmp_path.parent)
        cfg = load_config(path.relative_to(tmp_path.parent))
        assert cfg.workdir.resolve() == tmp_path / "w"
        assert cfg.rules.stopwords == frozenset({"alpha", "beta"})

    @pytest.mark.parametrize(
        "text, line, phrase",
        [
            ("seed = 1\nbogus = 2\n", 2, "unknown config key 'bogus'"),
            ("seed = 1\n\nseed = 2\n", 3, "duplicate config key 'seed'"),
            ("# header\nseed 1\n", 2, "expected key = value, got 'seed 1'"),
        ],
    )
    def test_bad_line_is_named_by_file_and_line(self, tmp_path, text, line, phrase):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ValueError, match=phrase) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:{line}: ")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfranks = 2,4\nseed = 3\n")
        assert load_config(path) == apply_overrides(PipelineConfig(), ranks=(2, 4), seed=3)

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"seed = 1\n# caf\xe9\n", 2),
            (b"\xef\xbb\xbfseed = 1\r\nthreads = 2\r\nkeywords = \xe9\r\n", 3),
            (b"\xe9", 1),
        ],
    )
    def test_non_utf8_byte_is_named_by_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="not UTF-8 text") as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize(
        "key, text, phrase",
        [
            ("max_iters", "abc", "invalid literal for int"),
            ("threshold", "high", "could not convert string to float"),
            ("ranks", "20,x", "ranks must be comma-separated integers"),
            ("similarity_matrix", "maybe", "expected 1/true/yes or 0/false/no, got 'maybe'"),
            ("similarity_matrix", "", "expected 1/true/yes or 0/false/no, got ''"),
            ("stopwords", "missing.txt", "No such file or directory"),
        ],
    )
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, key, text, phrase):
        path = write_cfg(tmp_path, f"seed = 1\n{key} = {text}\n")
        with pytest.raises(ValueError, match=phrase) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:2: bad value for {key!r}: ")

    @pytest.mark.parametrize(
        "text, expected",
        [("1", True), ("true", True), ("TRUE", True), ("Yes", True),
         ("0", False), ("false", False), ("False", False), ("NO", False)],
    )
    def test_similarity_matrix_takes_strict_booleans(self, tmp_path, text, expected):
        cfg = load_config(write_cfg(tmp_path, f"similarity_matrix = {text}\n"))
        assert cfg.similarity_matrix is expected

    @pytest.mark.parametrize(
        "key, text, phrase",
        [
            ("threads", "0", "threads must be >= 1, got 0"),
            ("top_n", "0", "top_n must be >= 1, got 0"),
            ("dna_min_run", "1", "dna_min_run must be >= 2, got 1"),
            ("max_char_repeat", "0", "max_char_repeat must be >= 1, got 0"),
            ("max_consonant_run", "0", "max_consonant_run must be >= 1, got 0"),
            ("format", "xml", r"unknown corpus format 'xml', expected one of \('csv', 'tsv', 'jsonl'\)"),
            ("format", "CSV", "unknown corpus format 'CSV'"),
            ("keywords", "0", "keyword_count must be >= 1, got 0"),
            ("ranks", "40,20", "ranks must be strictly ascending"),
            ("ranks", ",", "ranks must be non-empty"),
            ("ranks", "3,99999999999999999999", "ranks must be at most "),
            ("max_nonascii_fraction", "2", r"max_nonascii_fraction must be in \[0, 1\]"),
            ("dna_min_run", "4294967295", "dna_min_run must be <= 4294967294, got 4294967295"),
            ("max_char_repeat", "4294967295", "max_char_repeat must be <= 4294967294, got 4294967295"),
            ("max_consonant_run", "4294967294", "max_consonant_run must be <= 4294967293, got 4294967294"),
        ],
    )
    def test_out_of_range_value_names_file_line_and_key(self, tmp_path, key, text, phrase):
        path = write_cfg(tmp_path, f"# settings\n{key} = {text}\n")
        with pytest.raises(ValueError, match=phrase) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:2: bad value for {key!r}: ")


class TestApplyOverrides:
    def test_none_is_ignored(self):
        cfg = apply_overrides(PipelineConfig(), seed=None, ranks=None, workdir=None)
        assert cfg == PipelineConfig()

    def test_unknown_corpus_format_is_rejected_before_ingest(self):
        with pytest.raises(ValueError, match="unknown corpus format 'xml'"):
            apply_overrides(PipelineConfig(), corpus_format="xml")

    def test_top_n_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="^top_n must be >= 1, got 0$"):
            apply_overrides(PipelineConfig(), top_n=0)

    def test_unknown_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="bogus"):
            apply_overrides(PipelineConfig(), bogus=1)

    def test_values_reach_nested_settings(self):
        cfg = apply_overrides(
            PipelineConfig(), seed=4, ranks=(1, 2), threshold=0.5, strategy="greedy-dedup",
            top_n=3, threads=2, corpus_format="tsv", similarity_matrix=True,
        )
        assert (cfg.als.seed, cfg.selection.ranks, cfg.selection.threshold) == (4, (1, 2), 0.5)
        assert cfg.selection.strategy == "greedy-dedup"
        assert (cfg.top_n, cfg.threads, cfg.corpus_format, cfg.similarity_matrix) == (
            3, 2, "tsv", True
        )

    def test_path_overrides_become_paths(self):
        cfg = apply_overrides(PipelineConfig(), corpus="c.csv", workdir="w", output="o")
        assert (cfg.corpus, cfg.workdir, cfg.output) == (Path("c.csv"), Path("w"), Path("o"))

    def test_untouched_settings_keep_the_file_values(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "seed = 7\nmax_iters = 9\nthreshold = 0.5\n"))
        cfg = apply_overrides(cfg, seed=1, threshold=None)
        assert (cfg.als.seed, cfg.als.max_iters, cfg.selection.threshold) == (1, 9, 0.5)


class TestCliFlagsBeatTheFile:
    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._STAGES, "pipeline", seen.append)
        return seen

    def test_flags_override_and_file_fills_the_rest(self, tmp_path, seen):
        path = write_cfg(
            tmp_path, "seed = 7\nmax_iters = 9\nranks = 2,4\ntop_n = 5\nformat = tsv\n"
        )
        argv = [
            "pipeline", "--config", str(path), "--seed", "3", "--ranks", "3,6",
            "--top-n", "2", "--format", "jsonl", "--workdir", "w", "--similarity-matrix",
        ]
        assert cli.cli_run(argv) == 0
        (cfg,) = seen
        assert (cfg.als.seed, cfg.als.max_iters, cfg.selection.ranks) == (3, 9, (3, 6))
        assert (cfg.top_n, cfg.corpus_format, cfg.similarity_matrix) == (2, "jsonl", True)
        assert cfg.workdir == Path("w")

    def test_absent_flags_leave_the_file_values(self, tmp_path, seen):
        path = write_cfg(tmp_path, "seed = 7\nthreads = 2\nsimilarity_matrix = true\n")
        assert cli.cli_run(["pipeline", "--config", str(path)]) == 0
        assert seen == [load_config(path)]


class TestSettingsTableDrift:
    def test_readme_lists_exactly_the_config_keys(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        assert sorted(row.split("`")[1] for row in rows) == sorted(SETTINGS)

    def test_every_key_has_a_case_here(self):
        assert sorted(KEY_CASES) == sorted(SETTINGS)

    def test_every_cli_destination_is_a_settings_field(self):
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            action.dest
            for sub in subparsers.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
        fields = {name for _obj, name, _reader in SETTINGS.values()}
        assert dests - {"command", "config"} <= fields
