"""Command-line pipeline: ingest, factorize, select, report, or all at once.

Every stage reads and writes the documented on-disk formats, so stages can
be rerun individually and a rerun with identical inputs reproduces every
output file byte for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys
from pathlib import Path

from . import config as config_mod
from .artifacts import (
    load_axes, load_model, load_selection, load_tensor, remove_model, save_model, save_selection,
    save_tensor, tensor_payload_crc32,
)
from .corpus_ingest import (
    CORPUS_FORMATS,
    MODE_NAMES,
    build_counts,
    clean_and_filter,
    counts_to_tensor,
    dedup,
    load_corpus,
)
from .ensemble import (
    STRATEGIES,
    components_from_model,
    ensemble_models,
    select_components_detailed,
)
from .report import build_report, emit_report

logger = logging.getLogger(__name__)


def _tensor_dir(cfg) -> Path:
    return cfg.workdir / "tensor"


def _model_path(cfg, rank: int) -> Path:
    return cfg.workdir / "models" / f"rank_{rank}.model"


def _selection_path(cfg) -> Path:
    return cfg.workdir / "selection.json"


def _require(cfg, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"no {name} given; set it in the config file or pass --{name}")


def run_ingest(cfg) -> Path:
    """Corpus file -> cleaned, deduplicated ln(1+count) tensor container."""
    _require(cfg, "corpus", "workdir")
    records = load_corpus(cfg.corpus, cfg.corpus_format)
    records = dedup(clean_and_filter(records, cfg.rules))
    quad = build_counts(records, cfg.rules)
    tensor = counts_to_tensor(quad)
    out = save_tensor(tensor, quad.axes, MODE_NAMES, _tensor_dir(cfg))
    logger.info(
        "ingested %d document(s) into a %s tensor with %d entries",
        len(quad.axes[1]),
        "x".join(str(n) for n in tensor.shape),
        tensor.nnz,
    )
    return out


def run_factorize(cfg) -> list[Path]:
    """Tensor container -> one model file per configured rank.

    Each model is saved as soon as it and every lower rank are fit, and then
    dropped. Every configured rank's model files from an earlier run are
    deleted before the first fit, so a rank that diverged or a run that
    failed leaves none behind for select to pool.
    """
    _require(cfg, "workdir")
    tensor, _axes, mode_names = load_tensor(_tensor_dir(cfg))
    tensor_crc32 = tensor_payload_crc32(_tensor_dir(cfg))
    removed = [p for rank in cfg.selection.ranks for p in remove_model(_model_path(cfg, rank))]
    logger.info("removed %d model file(s) of the configured ranks before fitting", len(removed))

    def save(rank, model):
        path = _model_path(cfg, rank)
        return save_model(
            model, path, mode_names=mode_names, labels_ref="../tensor", tensor_payload_crc32=tensor_crc32
        )

    paths = ensemble_models(
        tensor, cfg.selection.ranks, cfg.als, threads=cfg.threads, on_model=save
    )
    if not paths:
        raise ValueError("every configured rank failed to factorize")
    return list(paths.values())


def _components(cfg, rank: int, shape, tensor_crc32: int) -> list:
    """The components of models/rank_R.model, which must be a rank-R model of
    the tensor's label counts `shape`, fit to the tensor whose payload CRC-32
    is `tensor_crc32`; any other is a ValueError naming it."""
    path = _model_path(cfg, rank)
    model, header = load_model(path)
    if model.rank != rank:
        raise ValueError(f"{path}: holds a rank-{model.rank} model; rerun factorize")
    if model.shape != shape:
        raise ValueError(
            f"{path}: model shape {model.shape} does not match the label counts "
            f"{shape} of {_tensor_dir(cfg)}; rerun factorize"
        )
    fitted = header["tensor_payload_crc32"]
    if fitted != tensor_crc32:
        raise ValueError(
            f"{path}: fit to a tensor whose payload CRC-32 is {fitted}, "
            f"that of {_tensor_dir(cfg)} is {tensor_crc32}; rerun factorize"
        )
    return components_from_model(model, rank)


def run_select(cfg) -> Path:
    """Model files checked by _components -> selection.json listing the kept
    components, and selection.npy holding their numbers."""
    _require(cfg, "workdir")
    found_ranks = []
    for rank in cfg.selection.ranks:
        path = _model_path(cfg, rank)
        if path.is_file():
            found_ranks.append(rank)
        else:
            logger.warning("no model file for rank %d at %s, skipping", rank, path)
    if not found_ranks:
        raise ValueError("no model files found for the configured ranks")
    shape = tuple(len(axis) for axis in load_axes(_tensor_dir(cfg))[0])
    tensor_crc32 = tensor_payload_crc32(_tensor_dir(cfg))
    components = [c for rank in found_ranks for c in _components(cfg, rank, shape, tensor_crc32)]
    word_mode = len(shape) - 1

    result = select_components_detailed(components, cfg.selection, word_mode)
    path = _selection_path(cfg)
    save_selection(
        path, shape, tensor_crc32, cfg.selection, found_ranks, word_mode, result, cfg.similarity_matrix
    )
    logger.info(
        "kept %d of %d pooled component(s)", len(result.kept), result.pooled_count
    )
    return path


def run_report(cfg) -> Path:
    """selection.json and selection.npy + tensor labels -> report bundle.

    The kept components come from selection.npy alone: no model is read, so
    a refit after select cannot change what is reported, and a tensor
    changed since select is an error that says to rerun select.
    """
    _require(cfg, "workdir")
    out_dir = cfg.output if cfg.output is not None else cfg.workdir / "report"
    axes, mode_names = load_axes(_tensor_dir(cfg))
    word_mode, kept, meta = load_selection(_selection_path(cfg), _tensor_dir(cfg))
    reports = [
        build_report(
            component, axes, mode_names, n=cfg.top_n, keyword_count=cfg.keyword_count, word_mode=word_mode
        )
        for component in kept
    ]
    return emit_report(reports, out_dir, meta)


def run_pipeline(cfg) -> Path:
    """All four stages in sequence."""
    run_ingest(cfg)
    run_factorize(cfg)
    run_select(cfg)
    return run_report(cfg)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key = value config file")
    common.add_argument("--seed", type=int, help="base rng seed")
    common.add_argument("--threads", type=int, help="worker threads for the rank ensemble")
    common.add_argument("--ranks", help="comma-separated rank list, e.g. 20,40,60")
    common.add_argument("--threshold", type=float, help="cosine similarity threshold")
    common.add_argument("--strategy", choices=STRATEGIES, help="component selection strategy")
    common.add_argument("--top-n", dest="top_n", type=int, help="labels per mode in reports")
    common.add_argument("--workdir", help="directory for intermediate files")
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", help=f"corpus table ({'/'.join(CORPUS_FORMATS)})")
    corpus.add_argument(
        "--format", dest="corpus_format", choices=CORPUS_FORMATS, help="corpus file format"
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", dest="output", help="report output directory")
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument(
        "--similarity-matrix", dest="similarity_matrix", action="store_const",
        const=True, help="embed the full pairwise cosine matrix (quadratic in pool size)",
    )

    parser = argparse.ArgumentParser(
        prog="tensortopics",
        description="Group a document corpus by topic via sparse tensor factorization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parents, help_text in (
        ("ingest", [corpus], "corpus file -> tensor container"),
        ("factorize", [], "tensor -> one model per rank"),
        ("select", [matrix], "models -> selection.json"),
        ("report", [out], "selection -> html/json bundle"),
        ("pipeline", [corpus, out, matrix], "run all stages in order"),
    ):
        sub.add_parser(name, parents=[common, *parents], help=help_text)
    return parser


_STAGES = {
    "ingest": run_ingest,
    "factorize": run_factorize,
    "select": run_select,
    "report": run_report,
    "pipeline": run_pipeline,
}


def cli_run(argv) -> int:
    """Parse argv and run one subcommand. Returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
        )

    try:
        cfg = (
            config_mod.load_config(args.config)
            if args.config
            else config_mod.PipelineConfig()
        )
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        if overrides.get("ranks") is not None:
            overrides["ranks"] = config_mod.parse_ranks(overrides["ranks"])
        cfg = config_mod.apply_overrides(cfg, **overrides)
        _STAGES[args.command](cfg)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# glibc's mallopt() parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# Arrays of this size or more are mapped on their own and unmapped when
# freed. A lower threshold also maps the many mid-size arrays of the low
# ranks, and faulting their pages in slowed factorize by about 7% on the
# bench's `ensemble` workload.
MMAP_THRESHOLD_BYTES = 4 << 20
# Free memory at the heap top is kept up to this size, well above any stage's
# heap churn, instead of being handed back to the kernel on each free.
TRIM_THRESHOLD_BYTES = 256 << 20


def fix_mmap_threshold() -> bool:
    """Pin glibc's mmap threshold, its trim threshold and its arena count at
    one, for this process; True if all three were set.

    By default glibc raises the threshold to the size of each mapped block
    it frees, so later arrays up to that size come from the heap, and how
    far the heap grows then depends on the layout left by earlier small
    allocations: the same factorize run peaked at 75 or at 87 MB depending
    on the length of the workdir path. With the threshold fixed, every
    array of 4 MiB or more is mapped on its own and unmapped when freed,
    so the peak follows the live arrays. Fixing it also stops glibc from
    raising the trim threshold with it, which stays at 128 KiB: every free
    of a multi-MB temporary below 4 MiB would then give the heap top back to
    the kernel, and the next such array would fault it in again (20 cycles
    of a 3 MiB array cost 14,720 minor faults). So the trim threshold is
    pinned too, and freed heap is reused. ensemble_models fits the ranks on
    a worker thread, whose first malloc would open a second arena beside
    the main one: 2 MB more factorize peak on `ensemble` (75 -> 77 MB).
    Does nothing off glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
        # mallopt returns 1 on success; the list makes every call run.
        return all([
            mallopt(_M_ARENA_MAX, 1),
            mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES),
        ])
    except (ValueError, OSError, AttributeError):
        return False


def main() -> None:
    """Run one subcommand from sys.argv, then end the process with os._exit
    after flushing logging, stdout and stderr: atexit handlers and interpreter
    teardown (15-35 ms a stage) are skipped, and tools that hook interpreter
    exit, such as coverage, see nothing. In-process callers use cli_run. An
    uncaught exception exits normally; a failed flush exits 120, as in CPython."""
    fix_mmap_threshold()
    code = cli_run(sys.argv[1:])
    logging.shutdown()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except (OSError, ValueError):
            code = 120
    os._exit(code)


if __name__ == "__main__":
    main()
