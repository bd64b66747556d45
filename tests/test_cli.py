import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import zlib
from unittest import mock

import numpy as np
import pytest

from tensortopics import SelectionConfig, artifacts, load_model, save_model, similarity_matrix
from tensortopics.artifacts import MODEL, REPORT, SELECTION, SUMMARY, TENSOR, read_header, save_tensor
from tensortopics.cli import build_parser, cli_run, fix_blas_threads, run_report
from tensortopics.config import apply_overrides, load_config
from tensortopics.corpus_ingest import MODE_NAMES
from tensortopics.ensemble import components_from_model
from tensortopics.sparse_tensor import AxisMap, SparseTensorCOO

from conftest import (
    DATA_DIR, PAYLOAD_FAULTS, TENSOR_PAYLOAD_FAULTS, declare_vast_model, payload_phrase, select_components_oracle,
)
from test_golden import GOLDEN_ENV, GOLDEN_SHA256, assert_golden

CFG = str(DATA_DIR / "toy.cfg")
STAGE = ("-m", "tensortopics.cli")


def run(*argv):
    return cli_run(list(argv))


def child(*args, **kwargs):
    """Run `python *args` with piped streams, as a shell runs a stage:
    without PYTHONUNBUFFERED, so stdout reaches the pipe only when main()
    flushes it, with the one BLAS thread and the OpenBLAS kernel that the
    golden hashes hold for, and with help text 80 columns wide."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(GOLDEN_ENV, COLUMNS="80")
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *args], text=True, timeout=120, env=env, **kwargs)


def pipeline_files(workdir):
    return [
        workdir / "tensor" / "header.json",
        workdir / "tensor" / "entries.tsv",
        workdir / "tensor" / "mode0.labels.txt",
        workdir / "tensor" / "mode1.labels.txt",
        workdir / "tensor" / "mode2.labels.txt",
        workdir / "tensor" / "mode3.labels.txt",
        workdir / "models" / "rank_3.model",
        workdir / "models" / "rank_5.model",
        workdir / "selection.json",
        workdir / "report" / "report.json",
        workdir / "report" / "summary.json",
        workdir / "report" / "index.html",
    ]


class TestPipeline:
    def test_full_run_writes_every_artifact(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        for path in pipeline_files(workdir):
            assert path.is_file(), path

    def test_stagewise_equals_pipeline(self, tmp_path):
        staged = tmp_path / "staged"
        direct = tmp_path / "direct"
        for cmd in ("ingest", "factorize", "select", "report"):
            assert run(cmd, "--config", CFG, "--workdir", str(staged)) == 0
        assert run("pipeline", "--config", CFG, "--workdir", str(direct)) == 0
        for a, b in zip(pipeline_files(staged), pipeline_files(direct)):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run("pipeline", "--config", CFG, "--workdir", str(first)) == 0
        assert run("pipeline", "--config", CFG, "--workdir", str(second)) == 0
        for a, b in zip(pipeline_files(first), pipeline_files(second)):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_selection_payload(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        payload = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        assert payload["format"] == "component-selection"
        assert payload["strategy"] == "stable-then-dedup"
        assert payload["threshold"] == 0.35
        assert payload["ranks"] == [3, 5]
        assert "word_mode" not in payload
        assert payload["pooled_count"] == 8
        assert 1 <= len(payload["kept"]) <= 8
        magnitudes = [abs(item["weight"]) for item in payload["kept"]]
        assert magnitudes == sorted(magnitudes, reverse=True)
        for item in payload["kept"]:
            assert item["origin_rank"] in (3, 5)
            assert isinstance(item["stability_partners"], list)

    def test_report_reflects_selection(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        selection = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        report = json.loads((workdir / "report" / "report.json").read_text(encoding="utf-8"))
        assert len(report["components"]) == len(selection["kept"])
        for comp, kept in zip(report["components"], selection["kept"]):
            assert comp["origin_rank"] == kept["origin_rank"]
            assert comp["index_in_model"] == kept["index_in_model"]
            assert comp["weight"] == kept["weight"]
            # toy.cfg asks for 5 labels per mode and 12 keywords
            assert all(len(pairs) <= 5 for pairs in comp["modes"].values())
            assert len(comp["keywords"]) <= 12

    def test_report_reads_labels_not_entries(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        report_files = pipeline_files(workdir)[-3:]
        before = [p.read_bytes() for p in report_files]
        shutil.rmtree(workdir / "report")
        (workdir / "tensor" / "entries.tsv").unlink()
        (workdir / "tensor" / "entries.npy").unlink()
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 0
        assert [p.read_bytes() for p in report_files] == before

    def test_select_reads_no_label_file(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        outputs = [workdir / "selection.json", workdir / "selection.npy"]
        before = [p.read_bytes() for p in outputs]
        for path in [*(workdir / "tensor").glob("mode*.labels.txt"), *outputs]:
            path.unlink()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 0
        assert [p.read_bytes() for p in outputs] == before

    def test_factorize_reads_no_label_file(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        outputs = sorted((workdir / "models").iterdir())
        before = [p.read_bytes() for p in outputs]
        for path in [*(workdir / "tensor").glob("mode*.labels.txt"), *outputs]:
            path.unlink()
        with mock.patch.object(artifacts, "_read_header", wraps=artifacts._read_header) as read_header:
            assert run("factorize", "--config", CFG, "--workdir", str(workdir)) == 0
        assert read_header.call_count == 1
        assert [p.read_bytes() for p in outputs] == before

    def test_text_companions_are_write_only(self, tmp_path):
        # No stage reads entries.tsv, or a model file past its header line.
        # The stages run as child processes, under the golden hashes' kernel.
        workdir = tmp_path / "run"
        argv = ("--config", CFG, "--workdir", str(workdir))
        assert child(*STAGE, "ingest", *argv).returncode == 0
        (workdir / "tensor" / "entries.tsv").unlink()
        assert child(*STAGE, "factorize", *argv).returncode == 0
        for model in (workdir / "models").glob("*.model"):
            with model.open("rb") as f:
                header = f.readline()
            model.write_bytes(header)
        assert child(*STAGE, "select", *argv).returncode == 0
        assert child(*STAGE, "report", *argv).returncode == 0
        computed = [
            "tensor/entries.npy", "models/rank_3.model.npy", "models/rank_5.model.npy",
            "selection.json", "report/report.json", "report/summary.json", "report/index.html",
        ]
        for name in computed:
            assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == GOLDEN_SHA256[name], name

    def test_every_versioned_file_reads_back_with_its_artifact(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        artifacts = {
            "tensor/header.json": TENSOR,
            "models/rank_3.model": MODEL,
            "models/rank_5.model": MODEL,
            "selection.json": SELECTION,
            "report/report.json": REPORT,
            "report/summary.json": SUMMARY,
        }
        for name, artifact in artifacts.items():
            path = workdir / name
            # A model's header is its first line; the other files are all header.
            raw = path.read_bytes().partition(b"\n")[0] if artifact is MODEL else path.read_bytes()
            header, _ = read_header(raw, path, artifact)
            stamp = (header["format"], header["schema_version"])
            assert stamp == (artifact.format, artifact.schema_version), name
            for other in {*artifacts.values()} - {artifact}:
                with pytest.raises(ValueError, match="unrecognized"):
                    read_header(raw, path, other)

    @pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="no C JSON encoder")
    def test_json_artifacts_use_the_c_encoder(self, tmp_path):
        # json.dumps takes the pure-Python encoder, several times slower,
        # whenever it is given an indent.
        workdir = tmp_path / "run"
        with mock.patch("json.encoder._make_iterencode", side_effect=AssertionError("pure-Python encoder")):
            assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        artifacts = {
            "tensor/header.json": TENSOR,
            "selection.json": SELECTION,
            "report/report.json": REPORT,
            "report/summary.json": SUMMARY,
        }
        for name, artifact in artifacts.items():
            path = workdir / name
            raw = path.read_bytes()
            assert raw.count(b"\n") == 1 and raw.endswith(b"\n"), name
            read_header(raw, path, artifact)

    def test_custom_report_directory(self, tmp_path):
        workdir = tmp_path / "run"
        out = tmp_path / "elsewhere"
        assert (
            run("pipeline", "--config", CFG, "--workdir", str(workdir), "--out", str(out))
            == 0
        )
        assert (out / "index.html").is_file()
        assert not (workdir / "report").exists()


class TestReportReadsTheSelection:
    """report builds each kept component from its column of selection.npy;
    it reads no model, and a tensor changed since select is an error."""

    @pytest.fixture(scope="class")
    def piped(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("piped") / "run"
        assert run("pipeline", "--config", CFG, "--workdir", str(workdir)) == 0
        return workdir

    @staticmethod
    def unreported(piped, tmp_path):
        """A copy of the piped workdir without its report/."""
        workdir = tmp_path / "run"
        shutil.copytree(piped, workdir, ignore=lambda d, names: ["report"] if d == str(piped) else [])
        return workdir

    @staticmethod
    def report_bytes(workdir):
        names = ("report.json", "summary.json", "index.html")
        return {name: (workdir / "report" / name).read_bytes() for name in names}

    def test_report_runs_with_no_model_file(self, piped, tmp_path):
        workdir = self.unreported(piped, tmp_path)
        shutil.rmtree(workdir / "models")
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 0
        assert self.report_bytes(workdir) == self.report_bytes(piped)

    def test_refit_after_select_reports_the_selected_components(self, tmp_path):
        workdir = tmp_path / "run"
        argv = ("--config", CFG, "--workdir", str(workdir))
        assert run("pipeline", *argv, "--seed", "7") == 0
        selected = self.report_bytes(workdir)
        models = (workdir / "models" / "rank_3.model.npy").read_bytes()
        assert run("factorize", *argv, "--seed", "8") == 0
        assert (workdir / "models" / "rank_3.model.npy").read_bytes() != models
        shutil.rmtree(workdir / "report")
        assert run("report", *argv) == 0
        assert self.report_bytes(workdir) == selected

    def test_selection_payload_holds_the_kept_model_columns(self, piped):
        selection = json.loads((piped / "selection.json").read_text(encoding="utf-8"))
        tensor = json.loads((piped / "tensor" / "header.json").read_text(encoding="utf-8"))
        assert selection["shape"] == tensor["shape"]
        assert selection["tensor_payload_crc32"] == tensor["payload_crc32"]
        table = np.load(piped / "selection.npy", allow_pickle=False)
        assert table.flags.c_contiguous and table.dtype == np.float64
        assert table.shape == (1 + sum(tensor["shape"]), len(selection["kept"]))
        assert zlib.crc32(table) == selection["payload_crc32"]
        for column, item in zip(table.T, selection["kept"]):
            model, _ = load_model(piped / "models" / f"rank_{item['origin_rank']}.model")
            rows = np.vstack([model.weights[None, :], *model.factors])
            assert np.array_equal(column, rows[:, item["index_in_model"]])
            assert column[0] == item["weight"]

    def test_same_shape_reingest_makes_report_fail(self, piped, tmp_path, capsys):
        # One more "airway" in one body moves an entry's value but no extent.
        workdir = self.unreported(piped, tmp_path)
        text = (DATA_DIR / "toy_corpus.csv").read_text(encoding="utf-8")
        body = "airway airway airway inflammation inflammation mucus"
        assert text.count(body) == 1
        corpus = workdir / "airway.csv"
        corpus.write_text(text.replace(body, "airway " + body), encoding="utf-8")
        argv = ("--config", CFG, "--workdir", str(workdir))
        assert run("ingest", *argv, "--corpus", str(corpus)) == 0
        header = json.loads((workdir / "tensor" / "header.json").read_text(encoding="utf-8"))
        selection = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        assert header["shape"] == selection["shape"]
        assert header["payload_crc32"] != selection["tensor_payload_crc32"]
        capsys.readouterr()
        assert run("report", *argv) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+selection\.json: selected from a tensor whose payload CRC-32 is", err)
        assert err.rstrip().endswith("rerun select") and "Traceback" not in err
        assert not (workdir / "report").exists()

    def test_selection_of_another_kept_count_reports_error(self, piped, tmp_path, capsys):
        workdir = self.unreported(piped, tmp_path)
        path = workdir / "selection.json"
        selection = json.loads(path.read_text(encoding="utf-8"))
        selection["kept"].pop()
        path.write_text(json.dumps(selection) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert "selection.npy: float64 table of shape (92, 2), selection.json declares float64 of shape (92, 1)" in err
        assert err.rstrip().endswith("rerun select") and "Traceback" not in err
        assert not (workdir / "report").exists()


class TestOverrides:
    def test_threshold_and_ranks_override(self, tmp_path):
        workdir = tmp_path / "run"
        assert (
            run(
                "pipeline",
                "--config",
                CFG,
                "--workdir",
                str(workdir),
                "--ranks",
                "3",
                "--threshold",
                "0.9",
            )
            == 0
        )
        payload = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        assert payload["ranks"] == [3]
        assert payload["threshold"] == 0.9
        assert payload["pooled_count"] == 3
        assert not (workdir / "models" / "rank_5.model").exists()

    def test_strategy_override(self, tmp_path):
        workdir = tmp_path / "run"
        assert (
            run(
                "pipeline", "--config", CFG, "--workdir", str(workdir),
                "--strategy", "greedy-dedup",
            )
            == 0
        )
        payload = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        assert payload["strategy"] == "greedy-dedup"
        assert payload["stable_count"] is None

    def test_seed_changes_models(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("pipeline", "--config", CFG, "--workdir", str(a)) == 0
        assert run("pipeline", "--config", CFG, "--workdir", str(b), "--seed", "99") == 0
        assert (a / "tensor" / "entries.tsv").read_bytes() == (
            b / "tensor" / "entries.tsv"
        ).read_bytes()
        assert (a / "models" / "rank_3.model").read_bytes() != (
            b / "models" / "rank_3.model"
        ).read_bytes()

    def test_selection_matches_the_per_component_oracle(self, tmp_path):
        # select pools the toy models into one table; what it writes is what
        # the per-component selection keeps from the same models.
        workdir = tmp_path / "run"
        for cmd in ("ingest", "factorize"):
            assert run(cmd, "--config", CFG, "--workdir", str(workdir)) == 0
        pool = [
            c for r in (3, 5)
            for c in components_from_model(load_model(workdir / "models" / f"rank_{r}.model")[0], r)
        ]
        for strategy in ("stable-then-dedup", "greedy-dedup"):
            select = ("select", "--config", CFG, "--workdir", str(workdir), "--strategy", strategy)
            assert run(*select, "--similarity-matrix") == 0
            payload = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
            cfg = SelectionConfig(ranks=(3, 5), threshold=0.35, strategy=strategy)
            want = select_components_oracle(pool, cfg, 3)
            assert want.kept
            assert payload["kept"] == [
                {"origin_rank": c.origin_rank, "index_in_model": c.index_in_model, "weight": c.weight,
                 "stability_partners": [list(p) for p in partners]}
                for c, partners in zip(want.kept, want.partners)
            ]
            assert (payload["pooled_count"], payload["stable_count"]) == (want.pooled_count, want.stable_count)
            assert payload["similarity_matrix"] == want.similarities.tolist()
            table = np.load(workdir / "selection.npy")
            assert np.array_equal(
                table, np.array([[c.weight, *np.concatenate(c.factor_slices)] for c in want.kept]).T
            )

    def test_similarity_matrix_flag(self, tmp_path):
        workdir = tmp_path / "run"
        for cmd in ("ingest", "factorize"):
            assert run(cmd, "--config", CFG, "--workdir", str(workdir)) == 0
        assert (
            run("select", "--config", CFG, "--workdir", str(workdir), "--similarity-matrix")
            == 0
        )
        payload = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        matrix = payload["similarity_matrix"]
        assert len(matrix) == payload["pooled_count"]
        assert all(len(row) == payload["pooled_count"] for row in matrix)
        assert all(matrix[i][i] == 1.0 for i in range(len(matrix)))

    def test_similarity_matrix_embeds_the_selection_cosines(self, tmp_path, caplog):
        workdir = tmp_path / "run"
        for cmd in ("ingest", "factorize"):
            assert run(cmd, "--config", CFG, "--workdir", str(workdir)) == 0
        select = ("select", "--config", CFG, "--workdir", str(workdir))
        selection = workdir / "selection.json"
        models = [workdir / "models" / f"rank_{r}.model" for r in (3, 5)]

        def pool_words():
            """The models' word slices, one per row, in pool order."""
            return np.hstack([load_model(m)[0].factors[3] for m in models]).T

        assert run(*select, "--similarity-matrix") == 0
        matrix = json.loads(selection.read_text(encoding="utf-8"))["similarity_matrix"]
        assert matrix == similarity_matrix(pool_words()).tolist()

        # Zero the word column of (rank 5, index 4): pool entry 3 + 4.
        model, header = load_model(models[1])
        model.factors[-1][:, 4] = 0.0
        save_model(model, models[1], tensor_payload_crc32=header["tensor_payload_crc32"])
        assert run(*select) == 0
        assert "excluded 1 component(s) with all-zero word slices" in caplog.text
        plain = json.loads(selection.read_text(encoding="utf-8"))
        assert run(*select, "--similarity-matrix") == 0
        payload = json.loads(selection.read_text(encoding="utf-8"))
        matrix = payload.pop("similarity_matrix")
        assert payload == plain
        excluded, n = 7, plain["pooled_count"]
        assert len(matrix) == n and all(len(row) == n for row in matrix)
        assert all(matrix[excluded][i] is None and matrix[i][excluded] is None for i in range(n))
        rest = [i for i in range(n) if i != excluded]
        want = similarity_matrix(pool_words()[rest]).tolist()
        assert [[matrix[i][j] for j in rest] for i in rest] == want

    def test_threads_do_not_change_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("pipeline", "--config", CFG, "--workdir", str(a)) == 0
        assert run("pipeline", "--config", CFG, "--workdir", str(b), "--threads", "3") == 0
        for pa, pb in zip(pipeline_files(a), pipeline_files(b)):
            assert pa.read_bytes() == pb.read_bytes(), pa.name


class TestStreamedFactorize:
    """factorize saves each rank as its fit ends, in rank order, with at most
    `threads` fits started ahead of the saves."""

    RANKS = (2, 3, 4, 5)

    @pytest.fixture
    def ingested(self, tmp_path):
        workdir = tmp_path / "run"
        assert run("ingest", "--config", CFG, "--workdir", str(workdir)) == 0
        return workdir

    @pytest.fixture
    def broken(self):
        """Rank -> the error its fit raises instead of fitting."""
        return {}

    @pytest.fixture
    def events(self, monkeypatch, broken):
        """The ("fit", rank) and ("save", rank) calls of factorize, in order."""
        import tensortopics.cli as cli_mod
        import tensortopics.ensemble as ensemble_mod

        log = []
        real_cp_als, real_save_model = ensemble_mod.cp_als, cli_mod.save_model

        def cp_als(tensor, rank, opts):
            log.append(("fit", rank))
            if rank in broken:
                raise broken[rank]
            return real_cp_als(tensor, rank, opts)

        def save_model(model, path, **kwargs):
            log.append(("save", model.rank))
            return real_save_model(model, path, **kwargs)

        monkeypatch.setattr(ensemble_mod, "cp_als", cp_als)
        monkeypatch.setattr(cli_mod, "save_model", save_model)
        return log

    def factorize(self, workdir, *argv):
        ranks = ",".join(map(str, self.RANKS))
        return run("factorize", "--config", CFG, "--workdir", str(workdir), "--ranks", ranks, *argv)

    def test_one_thread_saves_each_rank_before_the_next_fit(self, ingested, events):
        assert self.factorize(ingested, "--threads", "1") == 0
        assert events == [(kind, r) for r in self.RANKS for kind in ("fit", "save")]

    def test_two_threads_start_at_most_two_fits_ahead_of_the_saves(self, ingested, events):
        assert self.factorize(ingested, "--threads", "2") == 0
        assert [r for kind, r in events if kind == "save"] == list(self.RANKS)
        assert sorted(r for kind, r in events if kind == "fit") == list(self.RANKS)
        ahead = 0
        for kind, _rank in events:
            ahead += 1 if kind == "fit" else -1
            assert ahead <= 2, events

    def test_other_error_keeps_the_saved_ranks_and_starts_no_more(
        self, ingested, events, broken, capsys
    ):
        broken[4] = ValueError("rank 4 broke")
        assert self.factorize(ingested, "--threads", "1") == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: rank 4 broke"
        assert events == [("fit", 2), ("save", 2), ("fit", 3), ("save", 3), ("fit", 4)]
        models = ingested / "models"
        assert sorted(p.name for p in models.iterdir()) == [
            "rank_2.model", "rank_2.model.npy", "rank_3.model", "rank_3.model.npy",
        ]
        for rank in (2, 3):
            assert load_model(models / f"rank_{rank}.model")[0].rank == rank

    def test_failed_factorize_leaves_no_stale_model(self, tmp_path, events, broken, caplog):
        workdir = tmp_path / "run"
        argv = ("--config", CFG, "--workdir", str(workdir))
        assert run("pipeline", *argv) == 0
        broken[5] = ValueError("rank 5 broke")
        caplog.set_level(logging.INFO, logger="tensortopics.cli")
        caplog.clear()
        assert run("factorize", *argv, "--seed", "8") == 1
        assert sorted(p.name for p in (workdir / "models").iterdir()) == [
            "rank_3.model", "rank_3.model.npy",
        ]
        assert run("select", *argv) == 0
        assert "no model file for rank 5" in caplog.text
        selection = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
        assert selection["ranks"] == [3]


class TestErrors:
    def test_unknown_flag_exits_nonzero(self, capsys):
        assert run("pipeline", "--config", CFG, "--bogus") != 0
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert run("transmogrify") != 0
        assert "usage" in capsys.readouterr().err

    def test_no_arguments_exits_nonzero(self):
        assert run() != 0

    def test_missing_corpus_reports_error(self, tmp_path, capsys):
        assert run("ingest", "--workdir", str(tmp_path)) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_corpus_reports_error(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.csv"
        corpus.write_bytes("title,abstract,first_author,journal,body\nt,a,x,j,caf\xe9\n".encode("latin-1"))
        assert run("ingest", "--config", CFG, "--corpus", str(corpus), "--workdir", str(tmp_path / "w")) == 1
        assert f"error: {corpus}:2: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_config_reports_error(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"seed = 1\n# caf\xe9\n")
        assert run("factorize", "--config", str(config), "--workdir", str(tmp_path / "w")) == 1
        assert f"error: {config}:2: not UTF-8 text" in capsys.readouterr().err

    def test_missing_workdir_reports_error(self, capsys):
        assert run("factorize") == 1
        assert "error:" in capsys.readouterr().err

    def test_factorize_before_ingest_reports_error(self, tmp_path, capsys):
        assert run("factorize", "--config", CFG, "--workdir", str(tmp_path / "x")) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_before_select_reports_error(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert run("ingest", "--config", CFG, "--workdir", str(workdir)) == 0
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 1
        assert "error:" in capsys.readouterr().err

    def test_nonexistent_config_reports_error(self, tmp_path, capsys):
        assert run("ingest", "--config", str(tmp_path / "nope.cfg")) == 1
        assert "error:" in capsys.readouterr().err

    def test_key_error_is_a_bug_and_propagates(self, tmp_path, monkeypatch):
        # Every reader names a missing key in a ValueError, so a KeyError out
        # of a stage is a fault of the program: it shows its traceback.
        import tensortopics.cli as cli_mod

        def select(cfg):
            raise KeyError("x")

        monkeypatch.setitem(cli_mod._STAGES, "select", select)
        with pytest.raises(KeyError, match="'x'"):
            run("select", "--config", CFG, "--workdir", str(tmp_path))

    @pytest.mark.parametrize("value", [-1, "rank", "unpooled_rank", "repeat"])
    def test_report_rejects_out_of_range_selection(self, tmp_path, capsys, value):
        # The last kept item gets an index_in_model outside [0, origin_rank),
        # an origin_rank that was not pooled, or the first item's pair.
        workdir = tmp_path / "run"
        for cmd in ("ingest", "factorize", "select"):
            assert run(cmd, "--config", CFG, "--workdir", str(workdir)) == 0
        path = workdir / "selection.json"
        selection = json.loads(path.read_text(encoding="utf-8"))
        first, item = selection["kept"][0], selection["kept"][-1]
        if value == "unpooled_rank":
            item.update(origin_rank=999, index_in_model=0)
        elif value == "repeat":
            item.update(origin_rank=first["origin_rank"], index_in_model=first["index_in_model"])
        else:
            item["index_in_model"] = item["origin_rank"] if value == "rank" else value
        path.write_text(json.dumps(selection), encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        phrase = {"unpooled_rank": "origin_rank 999", "repeat": "repeats"}.get(value, "index_in_model")
        assert "error:" in err and "selection.json" in err and phrase in err
        assert err.endswith("; rerun select\n")
        assert "Traceback" not in err
        assert not (workdir / "report").exists()

    @pytest.fixture(scope="class")
    def selected(self, tmp_path_factory):
        """A workdir through select, and the models and selection of a
        --seed 99 factorize and select of the same tensor."""
        base = tmp_path_factory.mktemp("selected")
        for cmd in ("ingest", "factorize", "select"):
            assert run(cmd, "--config", CFG, "--workdir", str(base / "run")) == 0
        shutil.copytree(base / "run" / "tensor", base / "seed99" / "tensor")
        for cmd in ("factorize", "select"):
            assert run(cmd, "--config", CFG, "--workdir", str(base / "seed99"), "--seed", "99") == 0
        return base

    @pytest.mark.parametrize("stage", ["select", "report"])
    @pytest.mark.parametrize("fault", [*sorted(PAYLOAD_FAULTS), "other_seed"])
    def test_damaged_payload_reports_error(self, selected, tmp_path, capsys, stage, fault):
        # select reads every model's payload; report reads selection.npy alone.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        if stage == "select":
            artifact, named = MODEL, ".model"
            headers = sorted((workdir / "models").glob("*.model"))
            pairs = [(model, model.with_name(model.name + ".npy")) for model in headers]
        else:
            artifact, named = SELECTION, "selection.json" if fault == "schema_1" else "selection.npy"
            pairs = [(workdir / "selection.json", workdir / "selection.npy")]
        for header, payload in pairs:
            if fault == "other_seed":
                shutil.copyfile(selected / "seed99" / payload.relative_to(workdir), payload)
            else:
                PAYLOAD_FAULTS[fault][0](header, payload)
        capsys.readouterr()
        assert run(stage, "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        phrase = "CRC-32 does not match" if fault == "other_seed" else payload_phrase(fault, artifact)
        assert "error:" in err and named in err and phrase in err
        assert "Traceback" not in err
        assert not (workdir / "report").exists()

    def test_vast_model_shape_reports_error(self, selected, tmp_path, capsys):
        # Both headers of the rank-3 model agree on a first extent of 2**45.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        declare_vast_model(workdir / "models" / "rank_3.model")
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "rank_3.model.npy: unreadable model payload" in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def swapped(self, tmp_path_factory):
        """The tensor of the toy corpus with its first two records swapped: as
        many entries as the toy tensor, at other coordinates."""
        base = tmp_path_factory.mktemp("swapped")
        lines = (DATA_DIR / "toy_corpus.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        corpus = base / "swapped.csv"
        corpus.write_text("".join([lines[0], lines[2], lines[1], *lines[3:]]), encoding="utf-8")
        assert run("ingest", "--config", CFG, "--corpus", str(corpus), "--workdir", str(base)) == 0
        return base / "tensor"

    def test_seed_does_not_reach_the_tensor(self, selected, tmp_path):
        workdir = tmp_path / "seed99"
        assert run("ingest", "--config", CFG, "--workdir", str(workdir), "--seed", "99") == 0
        for name in ("header.json", "entries.npy"):
            assert (workdir / "tensor" / name).read_bytes() == (selected / "run" / "tensor" / name).read_bytes()

    @pytest.mark.parametrize("fault", [*sorted(TENSOR_PAYLOAD_FAULTS), "other_corpus"])
    def test_damaged_tensor_payload_reports_error(self, selected, swapped, tmp_path, capsys, fault):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run" / "tensor", workdir / "tensor")
        if fault == "other_corpus":
            shutil.copyfile(swapped / "entries.npy", workdir / "tensor" / "entries.npy")
        else:
            TENSOR_PAYLOAD_FAULTS[fault][0](workdir / "tensor")
        capsys.readouterr()
        assert run("factorize", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        phrase = "CRC-32 does not match" if fault == "other_corpus" else TENSOR_PAYLOAD_FAULTS[fault][1]
        named = "header.json" if fault == "schema_1" else "entries.npy"
        assert "error:" in err and named in err and phrase in err
        assert "Traceback" not in err
        assert not (workdir / "models").exists()

    @pytest.mark.parametrize("stage", ["factorize", "select", "report"])
    @pytest.mark.parametrize(
        "header, phrase",
        [
            ("[1, 2]", "unrecognized tensor format None"),
            ('{"format": "sparse-tensor-coo"', "unreadable tensor header"),
            ('{"format": "sparse-tensor-coo", "schema_version": 2}', "no 'shape' field"),
            ('{"format": "sparse-tensor-coo", "schema_version": 2.0}', "malformed tensor header: expected int"),
            *(
                (
                    '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [%d, 37, 7, 36],'
                    ' "mode_names": ["a", "b", "c", "d"], "nnz": 1}' % extent,
                    f"malformed tensor header: expected an extent >= 1, got {extent}",
                )
                for extent in (0, -1)
            ),
            *(
                (
                    '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [11, 37, 7, 36],'
                    ' "mode_names": %s, "nnz": 1}' % names,
                    phrase,
                )
                for names, phrase in (
                    ('"abcd"', "malformed tensor header: expected list, got 'abcd'"),
                    ("[1, 2, 3, 4]", "malformed tensor header: expected str, got 1"),
                    ('["w", "w", "w", "w"]', "mode_names repeats a name in ['w', 'w', 'w', 'w']"),
                )
            ),
            *(
                (
                    '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [11, 37, 7, 36],'
                    ' "mode_names": ["a", "b", "c", "d"], "nnz": 1%s}' % crc,
                    phrase,
                )
                for crc, phrase in (
                    ("", "tensor header has no 'payload_crc32' field"),
                    (', "payload_crc32": "abc"', "malformed tensor header: expected int, got 'abc'"),
                )
            ),
            (
                '{"format": "sparse-tensor-coo", "schema_version": 2, "shape": [11, 37, 7, 36],'
                ' "mode_names": ["a", "b", "c"], "nnz": 1, "payload_crc32": 0}',
                "mode_names length does not match shape",
            ),
        ],
    )
    def test_bad_tensor_header_reports_error(self, selected, tmp_path, capsys, stage, header, phrase):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "tensor" / "header.json").write_text(header + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(stage, "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "header.json" in err and phrase in err
        assert "Traceback" not in err
        assert not (workdir / "report").exists()

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda h: h.pop("rank"), "model header has no 'rank' field"),
            (lambda h: h.pop("shape"), "model header has no 'shape' field"),
            (lambda h: h.update(rank="x"), "malformed model header"),
            (lambda h: h.update(rank=None), "malformed model header"),
            (lambda h: h.update(shape=5), "malformed model header"),
            (lambda h: h.update(shape=["a", 2]), "malformed model header"),
            (lambda h: h.update(shape=[[3], 2]), "malformed model header"),
            (lambda h: h.update(rank=h["rank"] + 0.9), "malformed model header"),
            (lambda h: h.update(rank=float(h["rank"])), "malformed model header"),
            (lambda h: h.update(shape=[True, *h["shape"][1:]]), "malformed model header"),
            (lambda h: h.pop("payload_crc32"), "model header has no 'payload_crc32' field"),
            (lambda h: h.update(payload_crc32="abc"), "malformed model header: expected int, got 'abc'"),
            (lambda h: h.pop("tensor_payload_crc32"), "model header has no 'tensor_payload_crc32' field"),
            (lambda h: h.update(tensor_payload_crc32=str(h["tensor_payload_crc32"])), "malformed model header"),
            (lambda h: h.update(schema_version=3), "unsupported schema version 3, expected 4; rerun factorize"),
            (lambda h: h.update(schema_version=4.0), "malformed model header: expected int, got 4.0"),
            (lambda h: h.pop("schema_version"), "model header has no 'schema_version' field"),
        ],
        ids=[
            "no_rank", "no_shape", "text_rank", "null_rank", "int_shape", "text_extent", "list_extent",
            "fractional_rank", "integral_float_rank", "bool_extent", "no_crc", "text_crc",
            "no_tensor_crc", "text_tensor_crc", "schema_3", "integral_float_schema", "no_schema",
        ],
    )
    def test_bad_model_header_reports_error(self, selected, tmp_path, capsys, edit, phrase):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "selection.json").unlink()
        for model in sorted((workdir / "models").glob("*.model")):
            first, rest = model.read_text(encoding="utf-8").split("\n", 1)
            header = json.loads(first)
            edit(header)
            model.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert "error:" in err and ".model" in err and phrase in err
        assert "Traceback" not in err
        assert not (workdir / "selection.json").exists()

    def test_report_names_a_missing_label_file(self, selected, tmp_path, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "tensor" / "mode2.labels.txt").unlink()
        capsys.readouterr()
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: not a tensor container: missing \S+mode2\.labels\.txt$", err, re.M), err
        assert "Traceback" not in err
        assert not (workdir / "report").exists()

    def test_select_names_an_empty_model_file(self, selected, tmp_path, capsys):
        # An empty file has an empty header line, which read_header cannot parse.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "selection.json").unlink()
        (workdir / "models" / "rank_3.model").write_bytes(b"")
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+rank_3\.model: unreadable model header", err, re.M), err
        assert "Traceback" not in err
        assert not (workdir / "selection.json").exists()

    @staticmethod
    def reingest_seven_rows(workdir):
        """Re-ingest the toy workdir from the first 7 corpus rows, leaving its
        models fitted to the 11 x 37 x 7 x 36 tensor."""
        lines = (DATA_DIR / "toy_corpus.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        corpus = workdir / "seven.csv"
        corpus.write_text("".join(lines[:8]), encoding="utf-8")
        assert run("ingest", "--config", CFG, "--corpus", str(corpus), "--workdir", str(workdir)) == 0

    def test_report_names_a_model_of_another_tensor(self, selected, tmp_path, capsys):
        # report reads no model, so it names the selection made from them.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        self.reingest_seven_rows(workdir)
        capsys.readouterr()
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+selection\.json: selected from a tensor of label counts \(11, 37, 7, 36\)", err)
        assert err.rstrip().endswith("has (3, 7, 2, 12); rerun select")
        assert "Traceback" not in err
        assert not (workdir / "report").exists()

    def test_select_names_models_of_two_tensors(self, selected, tmp_path, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "selection.json").unlink()
        self.reingest_seven_rows(workdir)
        assert run("factorize", "--config", CFG, "--workdir", str(workdir), "--ranks", "3") == 0
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert "rank_5.model: model shape (11, 37, 7, 36)" in err
        assert "label counts (3, 7, 2, 12)" in err and "rerun factorize" in err
        assert "Traceback" not in err
        assert not (workdir / "selection.json").exists()

    def test_select_names_a_model_of_another_tensor(self, selected, tmp_path, capsys):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "selection.json").unlink()
        self.reingest_seven_rows(workdir)
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+rank_3\.model: model shape \(11, 37, 7, 36\)", err, re.M)
        assert "label counts (3, 7, 2, 12)" in err and "rerun factorize" in err
        assert "Traceback" not in err
        assert not (workdir / "selection.json").exists()

    def test_select_names_a_model_of_a_same_shape_tensor(self, selected, tmp_path, capsys):
        # One more "airway" in one body changes a count, not the label counts,
        # so only the tensor payload CRC-32 that each model records tells.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "selection.json").unlink()
        text = (DATA_DIR / "toy_corpus.csv").read_text(encoding="utf-8")
        corpus = workdir / "airway.csv"
        corpus.write_text(text.replace("airway airway airway inflammation", "airway " * 4 + "inflammation"), "utf-8")
        labels = [(workdir / "tensor" / f"mode{k}.labels.txt").read_bytes() for k in range(4)]
        assert run("ingest", "--config", CFG, "--corpus", str(corpus), "--workdir", str(workdir)) == 0
        assert [(workdir / "tensor" / f"mode{k}.labels.txt").read_bytes() for k in range(4)] == labels
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+rank_3\.model: fit to a tensor whose payload CRC-32 is \d+, ", err, re.M)
        assert err.rstrip().endswith("; rerun factorize")
        assert "Traceback" not in err
        assert not (workdir / "selection.json").exists()

    def test_select_checks_a_model_before_sizing_the_pool(self, selected, tmp_path, capsys):
        # A first extent of 2**40 would ask for an 8 TiB pool, were it sized
        # before the first model's shape is checked against it.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        (workdir / "selection.json").unlink()
        path = workdir / "tensor" / "header.json"
        header = json.loads(path.read_text(encoding="utf-8"))
        header["shape"][0] = 2**40
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+rank_3\.model: model shape \(11, 37, 7, 36\) does not match the label counts", err, re.M)
        assert "MemoryError" not in err and "Traceback" not in err
        assert not (workdir / "selection.json").exists()

    def test_select_names_a_model_of_another_rank(self, selected, tmp_path, capsys):
        # report reads no model (TestReportReadsTheSelection).
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        output = workdir / "selection.json"
        output.unlink()
        for suffix in (".model", ".model.npy"):
            shutil.copyfile(workdir / "models" / f"rank_5{suffix}", workdir / "models" / f"rank_3{suffix}")
        capsys.readouterr()
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: \S+rank_3\.model: holds a rank-5 model; rerun factorize$", err, re.M)
        assert "Traceback" not in err
        assert not output.exists()

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda s: s.update(schema_version=99), "unsupported schema version 99, expected 3; rerun select"),
            (lambda s: s.update(schema_version=2), "unsupported schema version 2, expected 3; rerun select"),
            (lambda s: s.update(schema_version=3.0), "malformed selection header: expected int, got 3.0"),
            (lambda s: s.update(format="component-report"), "unrecognized selection format 'component-report'"),
            (lambda s: s.pop("kept"), "selection header has no 'kept' field"),
            (lambda s: s["kept"][0].update(origin_rank=None), "malformed selection header"),
            (lambda s: s["kept"][0].pop("origin_rank"),
             "malformed selection header: no 'origin_rank' key in 'kept'"),
            (lambda s: s["kept"][0].update(index_in_model="x"), "malformed selection header"),
            (lambda s: s["kept"][0].update(index_in_model=0.7), "malformed selection header"),
            (lambda s: s["kept"][0].update(origin_rank=float(s["kept"][0]["origin_rank"])), "malformed selection header"),
            (lambda s: s["kept"][0].update(index_in_model=False), "malformed selection header"),
            (lambda s: s.pop("ranks"), "selection header has no 'ranks' field"),
            (lambda s: s.pop("threshold"), "selection header has no 'threshold' field"),
            (lambda s: s.pop("strategy"), "selection header has no 'strategy' field"),
            (lambda s: s.update(ranks="3,5"), "malformed selection header"),
            (lambda s: s.update(ranks=[3, 5.0]), "malformed selection header"),
            (lambda s: s.update(threshold="0.35"), "malformed selection header"),
            (lambda s: s.update(threshold=True), "malformed selection header"),
            (lambda s: s.update(strategy=None), "malformed selection header"),
            (lambda s: s.update(threshold=math.nan), "malformed selection header: expected a finite number, got nan"),
            (lambda s: s.update(threshold=-math.inf), "malformed selection header: expected a finite number, got -inf"),
            (lambda s: s.update(threshold=10**400), "malformed selection header: expected a finite number"),
            (lambda s: s.pop("shape"), "selection header has no 'shape' field"),
            (lambda s: s.update(shape=[11.0, 37, 7, 36]), "malformed selection header: expected int, got 11.0"),
            (lambda s: s.pop("tensor_payload_crc32"), "selection header has no 'tensor_payload_crc32' field"),
            (lambda s: s.update(tensor_payload_crc32=None), "malformed selection header: expected int, got None"),
            (lambda s: s.pop("payload_crc32"), "selection header has no 'payload_crc32' field"),
            (lambda s: s.update(payload_crc32="abc"), "malformed selection header: expected int, got 'abc'"),
            (lambda s: s.pop("pooled_count"), "selection header has no 'pooled_count' field"),
            (lambda s: s.update(pooled_count=8.0), "malformed selection header: expected int, got 8.0"),
            (lambda s: s.pop("stable_count"), "selection header has no 'stable_count' field"),
            (lambda s: s.update(stable_count="8"), "malformed selection header: expected int or NoneType, got '8'"),
            (lambda s: s.update(pooled_count=-5), "pooled_count -5 is below the 2 kept; rerun select"),
            (lambda s: s.update(pooled_count=1, stable_count=None), "pooled_count 1 is below the 2 kept"),
            (lambda s: s.update(stable_count=1_000_000), "stable_count 1000000 is outside [2, 8]"),
            (lambda s: s.update(stable_count=9), "stable_count 9 is outside [2, 8]"),
            (lambda s: s.update(stable_count=1), "stable_count 1 is outside [2, 8]"),
        ],
        ids=[
            "schema_99", "schema_2", "integral_float_schema", "other_format", "no_kept", "null_rank", "no_rank",
            "text_index", "fractional_index", "float_rank", "bool_index",
            "no_ranks", "no_threshold", "no_strategy", "text_ranks", "float_in_ranks",
            "text_threshold", "bool_threshold", "null_strategy",
            "nan_threshold", "infinite_threshold", "huge_threshold",
            "no_shape", "float_in_shape", "no_tensor_crc", "null_tensor_crc", "no_crc", "text_crc",
            "no_pooled_count", "float_pooled_count", "no_stable_count", "text_stable_count",
            "negative_pooled_count", "pooled_below_kept", "huge_stable_count", "stable_above_pooled",
            "stable_below_kept",
        ],
    )
    def test_bad_selection_reports_error(self, selected, tmp_path, capsys, edit, phrase):
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        path = workdir / "selection.json"
        selection = json.loads(path.read_text(encoding="utf-8"))
        edit(selection)
        path.write_text(json.dumps(selection), encoding="utf-8")
        cfg = apply_overrides(load_config(CFG), workdir=workdir)
        with pytest.raises(ValueError) as info:
            run_report(cfg)
        assert str(info.value).startswith(f"{path}: ") and phrase in str(info.value)
        capsys.readouterr()
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and phrase in err
        assert "Traceback" not in err
        assert not (workdir / "report").exists()

    def test_selection_meta_keeps_its_json_types(self, selected, tmp_path):
        # summary.json repeats ranks, threshold and strategy as selection.json holds them.
        workdir = tmp_path / "run"
        shutil.copytree(selected / "run", workdir)
        path = workdir / "selection.json"
        selection = json.loads(path.read_text(encoding="utf-8"))
        selection["threshold"] = 1
        path.write_text(json.dumps(selection), encoding="utf-8")
        assert run("report", "--config", CFG, "--workdir", str(workdir)) == 0
        summary = json.loads((workdir / "report" / "summary.json").read_text(encoding="utf-8"))
        assert type(summary["threshold"]) is int and summary["threshold"] == 1
        assert summary["ranks"] == selection["ranks"] and summary["strategy"] == selection["strategy"]

    def test_bad_ranks_value_reports_error(self, tmp_path, capsys):
        assert (
            run("pipeline", "--config", CFG, "--workdir", str(tmp_path), "--ranks", "3,2")
            == 1
        )
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("ranks", [",", " , "])
    def test_empty_ranks_flag_is_named(self, tmp_path, capsys, ranks):
        assert run("factorize", "--config", CFG, "--workdir", str(tmp_path), "--ranks", ranks) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: ranks must be non-empty"

    def test_underflowing_tensor_norm_is_named(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        tensor = SparseTensorCOO([[0, 0, 0, 0], [1, 1, 1, 1]], [1e-200, 1e-200], (2, 2, 2, 2))
        axes = [AxisMap(f"{name}{i}" for i in range(2)) for name in MODE_NAMES]
        save_tensor(tensor, axes, MODE_NAMES, workdir / "tensor")
        assert run("factorize", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: the tensor's norm underflows float64: its squared values sum to zero"
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, ranks, failing, saved",
        [
            # Every rank of the toy config overflows: no model is written.
            (1e154, "3,5", 3, []),
            # Rank 2 fits exactly; rank 3's first solved column overflows.
            (1e153, "2,3,4", 3, ["rank_2.model", "rank_2.model.npy"]),
        ],
    )
    def test_overflowing_fit_is_named_and_saves_no_rank_from_it_up(
        self, tmp_path, capsys, value, ranks, failing, saved
    ):
        # The tensor's norm fits float64, but the squares of a solved factor
        # column do not; the fit once gave an all-zero model or NaN fits.
        workdir = tmp_path / "run"
        tensor = SparseTensorCOO([[0, 0, 0, 0]], [value], (1, 1, 1, 1))
        save_tensor(tensor, [AxisMap([f"{name}0"]) for name in MODE_NAMES], MODE_NAMES, workdir / "tensor")
        assert run("factorize", "--config", CFG, "--workdir", str(workdir), "--ranks", ranks) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"error: rank {failing}: factor column norms overflow float64 at sweep 1, mode 0; "
            "the tensor's values are too large to fit"
        )
        assert "Traceback" not in err
        assert sorted(p.name for p in (workdir / "models").glob("*")) == saved

    def test_select_without_models_reports_error(self, tmp_path, capsys, caplog):
        workdir = tmp_path / "run"
        assert run("ingest", "--config", CFG, "--workdir", str(workdir)) == 0
        assert run("select", "--config", CFG, "--workdir", str(workdir)) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == "error: no model files found for the configured ranks"
        assert "Traceback" not in err
        assert "no model file for rank 3" in caplog.text and "no model file for rank 5" in caplog.text
        assert not (workdir / "selection.json").exists()

    def test_rank_beyond_a_numpy_dimension_fits_nothing(self, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert run("ingest", "--config", CFG, "--workdir", str(workdir)) == 0
        argv = ("--config", CFG, "--workdir", str(workdir), "--ranks", "3,99999999999999999999")
        assert run("factorize", *argv) == 1
        assert "error: ranks must be at most " in capsys.readouterr().err
        assert not (workdir / "models").exists()

    def test_rank_too_large_for_memory_reports_error(self, tmp_path, capsys):
        # 2**45 columns: the first factor alone (11 x 2**45 doubles, 2.75 PiB)
        # exceeds any 64-bit address space, so its allocation fails at once.
        workdir = tmp_path / "run"
        argv = ("--config", CFG, "--workdir", str(workdir), "--ranks", "3,35184372088832")
        assert run("pipeline", *argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: rank 35184372088832: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in (workdir / "models").iterdir()) == [
            "rank_3.model", "rank_3.model.npy",
        ]


class TestEntryPoints:
    def test_parser_lists_all_subcommands(self):
        parser = build_parser()
        helps = parser.format_help()
        for cmd in ("ingest", "factorize", "select", "report", "pipeline"):
            assert cmd in helps

    def test_console_script_installed_and_runs(self, tmp_path):
        exe = shutil.which("tensortopics")
        assert exe, "console script should be installed with the package"
        proc = subprocess.run(
            [exe, "pipeline", "--config", CFG, "--workdir", str(tmp_path / "run")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "report" / "index.html").is_file()

    def test_help_exits_zero(self):
        proc = child("-c", "from tensortopics.cli import main; import sys; sys.argv=['tensortopics','--help']; main()")
        assert proc.returncode == 0, proc.stderr
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            assert proc.stdout == build_parser().format_help()

    def test_stage_processes_write_the_golden_bytes(self, tmp_path):
        # Each stage process also imports only the modules its stage runs;
        # -X importtime names every module imported, on stderr.
        own = {
            "ingest": {"tensortopics.corpus_ingest"},
            "factorize": {"tensortopics.ensemble"},
            "select": {"tensortopics.ensemble"},
            "report": {"html"},
            "pipeline": {"tensortopics.corpus_ingest", "tensortopics.ensemble", "html"},
        }
        for workdir, stages in (
            (tmp_path / "staged", ("ingest", "factorize", "select", "report")),
            (tmp_path / "direct", ("pipeline",)),
        ):
            for stage in stages:
                proc = child("-X", "importtime", *STAGE, stage, "--config", CFG, "--workdir", str(workdir))
                assert proc.returncode == 0, proc.stderr
                imported = set(re.findall(r"^import time:.*\| +(\S+)$", proc.stderr, re.M))
                assert imported & own["pipeline"] == own[stage]
            assert_golden(workdir)

    def test_stage_process_bad_flag_exits_two(self):
        proc = child(*STAGE, "ingest", "--no-such-flag")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: tensortopics ")
        assert proc.stderr.endswith("tensortopics: error: unrecognized arguments: --no-such-flag\n")

    def test_stage_process_reports_error_and_exits_one(self, tmp_path):
        proc = child(*STAGE, "select", "--workdir", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == "error: no model files found for the configured ranks"

    def test_stage_process_logs_every_rank_fit(self, tmp_path):
        assert run("ingest", "--config", CFG, "--workdir", str(tmp_path)) == 0
        proc = child(*STAGE, "factorize", "--config", CFG, "--workdir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert re.findall(r"^INFO tensortopics\.ensemble: rank (\d+): fit ", proc.stderr, re.M) == ["3", "5"]

    def test_failed_flush_exits_120_without_a_traceback(self):
        # The help text waits in stdout's buffer until main() flushes it into
        # a pipe that nobody reads.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = child(*STAGE, "--help", capture_output=False, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "end, status, fired",
        [
            ("cli.main()", 0, False),
            # The handler fires on a normal exit...
            ("sys.exit(0)", 0, True),
            # ...and after an exception that cli_run does not catch.
            ("cli.cli_run = None; cli.main()", 1, True),
        ],
    )
    def test_stage_process_skips_interpreter_teardown(self, tmp_path, end, status, fired):
        # main() ends with os._exit, so atexit handlers never run.
        marker = tmp_path / "marker"
        code = (
            "import atexit, pathlib, sys\n"
            "from tensortopics import cli\n"
            f"atexit.register(pathlib.Path({str(marker)!r}).touch)\n"
            "sys.argv = ['tensortopics', '--help']\n"
            f"{end}\n"
        )
        proc = child("-c", code)
        assert proc.returncode == status, proc.stderr
        assert marker.exists() == fired

    def test_model_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # A tensor of the bench's `ensemble` size: 80 documents, each with one
        # author, one journal and 110 distinct words of 1,580. At ranks 100
        # and 200, OpenBLAS on two threads rounds otherwise than on one, so
        # the payloads match only because main() pins it to one thread.
        rng = np.random.default_rng(41)
        shape = (25, 80, 10, 1580)
        docs = np.repeat(np.arange(80), 110)
        words = np.concatenate([rng.choice(1580, 110, replace=False) for _ in range(80)])
        coords = np.column_stack([rng.integers(0, 25, 80)[docs], docs, rng.integers(0, 10, 80)[docs], words])
        tensor = SparseTensorCOO(coords, np.log1p(rng.integers(1, 6, docs.size)).astype(np.float64), shape)
        axes = [AxisMap(f"{name}{i}" for i in range(n)) for name, n in zip(MODE_NAMES, shape)]
        cfg = tmp_path / "blas.cfg"
        cfg.write_text("ranks = 100,200\nseed = 41\nmax_iters = 3\nfit_tolerance = 1e-15\n", encoding="utf-8")
        payloads = []
        for threads in ("1", "2"):
            workdir = tmp_path / f"threads{threads}"
            save_tensor(tensor, axes, MODE_NAMES, workdir / "tensor")
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, *STAGE, "factorize", "--config", str(cfg), "--workdir", str(workdir)],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append([(workdir / "models" / f"rank_{r}.model.npy").read_bytes() for r in (100, 200)])
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize(
        "patch",
        [
            mock.patch("tensortopics.cli.np.__file__", "/nonexistent/numpy/__init__.py"),
            mock.patch("tensortopics.cli.ctypes.CDLL", return_value=object()),
        ],
        ids=["no_library", "no_symbol"],
    )
    def test_blas_pin_logs_what_is_missing(self, caplog, patch):
        with caplog.at_level(logging.INFO, logger="tensortopics.cli"), patch:
            assert not fix_blas_threads()
        assert "BLAS thread count not pinned" in caplog.text

    def test_cli_import_leaves_what_only_some_stages_use_out(self):
        # Every stage runs in its own interpreter, which pays for each module
        # imported at start-up. The model text writer builds its text from
        # numpy words, so it needs neither fractions nor decimal, and nothing
        # uses scipy. Only ingest runs corpus_ingest and reads csv, only
        # factorize and select run ensemble, only factorize starts a thread
        # pool, and only report renders html. The package root imports only
        # cp_als, with the two modules below it; every other export, and a
        # module its table names, loads on first access, and dir() lists the
        # exports before it.
        unwanted = [
            "fractions", "decimal", "scipy", "csv", "concurrent.futures",
            "tensortopics.corpus_ingest", "tensortopics.ensemble", "html",
        ]
        code = (
            "import sys, tensortopics\n"
            "print(sorted(m for m in sys.modules if m.startswith('tensortopics.')))\n"
            "print(tensortopics.artifacts.__name__)\n"
            "import tensortopics.cli\n"
            f"print([m for m in {unwanted!r} if m in sys.modules])\n"
            "print(sorted(set(tensortopics.__all__) - set(dir(tensortopics))))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        root = ["tensortopics.cp_als", "tensortopics.linalg", "tensortopics.sparse_tensor"]
        assert proc.stdout.splitlines() == [repr(root), "tensortopics.artifacts", "[]", "[]"]

    @pytest.mark.skipif(
        not hasattr(os, "confstr") or not os.confstr("CS_GNU_LIBC_VERSION"),
        reason="the mmap threshold is a glibc setting",
    )
    @pytest.mark.parametrize("fixed", [True, False])
    def test_fixed_mmap_threshold_keeps_large_arrays_off_the_heap(self, fixed):
        # Freeing a mapped 16 MiB block makes glibc's default serve the next
        # 8 MiB array from the heap; the fixed threshold maps it on its own.
        code = (
            "import numpy as np\n"
            "from tensortopics.cli import MMAP_THRESHOLD_BYTES, fix_mmap_threshold\n"
            + ("assert fix_mmap_threshold()\n" if fixed else "")
            + "big = np.ones(4 * MMAP_THRESHOLD_BYTES // 8)\n"
            "del big\n"
            "a = np.ones(2 * MMAP_THRESHOLD_BYTES // 8)\n"
            "heap = [l.split()[0] for l in open('/proc/self/maps') if l.rstrip().endswith('[heap]')]\n"
            "print(any(int(lo, 16) <= a.ctypes.data < int(hi, 16) for lo, hi in (h.split('-') for h in heap)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(not fixed)

    @pytest.mark.skipif(
        not hasattr(os, "confstr") or not os.confstr("CS_GNU_LIBC_VERSION"),
        reason="the trim threshold is a glibc setting",
    )
    @pytest.mark.parametrize("fixed", [True, False])
    def test_fixed_trim_threshold_reuses_freed_heap(self, fixed):
        # Pinning the mmap threshold alone leaves the trim threshold at its
        # 128 KiB default, so freeing an array below the mmap threshold gives
        # the heap top back to the kernel and the next one faults it in again.
        code = (
            "import ctypes, resource\n"
            "import numpy as np\n"
            "from tensortopics import cli\n"
            + (
                "assert cli.fix_mmap_threshold()\n"
                if fixed
                else "assert ctypes.CDLL(None).mallopt(cli._M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD_BYTES) == 1\n"
            )
            + "n = (3 << 20) // 8\n"
            "assert n * 8 < cli.MMAP_THRESHOLD_BYTES\n"
            "a = np.ones(n)\n"
            "del a\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    a = np.ones(n)\n"
            "    del a\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, resource.getpagesize())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        faults, page_size = map(int, proc.stdout.split())
        pages = (3 << 20) // page_size  # one array's pages
        if fixed:
            assert faults < pages
        else:
            assert faults > 10 * pages
