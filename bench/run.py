#!/usr/bin/env python3
"""Benchmark of the tensortopics pipeline on seeded synthetic corpora.

Run from the repository root:

    python3 bench/run.py --workload ensemble --seed 1 --seconds 40 --trace 0

--trace 0 runs each stage as `python -m tensortopics.cli <stage>` in a child
process with PYTHONPATH=src and reports the end-to-end metrics: stage wall
times (means over a fixed number of runs), set-up time and the
children's peak RSS. --trace 1 runs one rep the same way, then runs the
stages in this process, alternating plain reps and reps with spans around
the calls into each module, and reports the per-layer metrics. Both check
the outputs (Bench.check, Bench.final_checks), print every metric with its
unit, write the run's metadata, samples and spans to .bench_out/, and end
stdout with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Metric names and units are declared in BENCHMARK.json.

The loop is closed: one client, the next stage starts when the last ends.
`--workload all` runs every workload in turn.
"""

from __future__ import annotations

import os

# The children and this process get the same BLAS thread count; it must be
# set before numpy loads. One thread keeps the stages' wall times steady on a
# shared machine and keeps the run within nproc threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    parse_fit_log,
    read_model,
    read_tensor,
    reference_fit,
    reference_mttkrp,
    relative_error,
    tree_hash,
)
from corpus import CorpusParams, generate, write_csv
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STAGES = ("ingest", "factorize", "select", "report")
SETUP_REPEATS = 7
MIN_REPS = 3
STAGE_TIMEOUT_S = 150.0
# Positive but tiny, so every rank runs every configured sweep and
# factorize_s always compares the same work.
FIT_TOLERANCE = 1e-15
FIT_LOG_TOLERANCE = 1e-6  # the CLI logs fits with six decimals
MTTKRP_TOLERANCE = 1e-10
# HostClock.probe's time when the host does not slow it: its fastest
# quartile on the 2-vCPU VM the benchmark was written on. Scaled times are
# wall times at that speed.
PROBE_NOMINAL_S = 0.06
PAPER_RANKS = (20, 40, 60, 80, 100, 120, 200)


@dataclass(frozen=True)
class Workload:
    corpus: CorpusParams
    ranks: tuple[int, ...]
    sweeps: int
    threshold: float
    # Length of one rep on a 2-vCPU VM with the pipeline as first
    # benchmarked. It fixes how many reps a run of --seconds makes, so every
    # commit is measured on the same number of samples, however fast it is.
    nominal_rep_s: float
    # Stages rerun in place after each pipeline pass (reruns are
    # byte-identical), so that short stages get more samples, spread over
    # the run like factorize's.
    reruns: tuple[str, ...] = ()

    def reps(self, seconds: float) -> int:
        return max(MIN_REPS, round(seconds / self.nominal_rep_s))


WORKLOADS = {
    # At threshold 0.9 the kept components come from every rank on every
    # seed, so report loads all seven models and report_s does not move with
    # the seed; at 0.35 they span only some ranks and their number moves.
    "ensemble": Workload(
        CorpusParams(
            documents=80, tokens_per_document=300, vocabulary=2000, topics=20, journals=10, authors=25
        ),
        PAPER_RANKS, sweeps=5, threshold=0.9, nominal_rep_s=13.0,
        reruns=("ingest", "select", "report"),
    ),
    "ingest": Workload(
        CorpusParams(
            documents=1200, tokens_per_document=300, vocabulary=5000, topics=20, journals=10,
            authors=300, noisy=True,
        ),
        (2, 4), sweeps=2, threshold=0.35, nominal_rep_s=8.5,
    ),
}
TRACED_RANKS = sorted({r for wl in WORKLOADS.values() for r in wl.ranks})


@dataclass
class StageRun:
    stage: str
    wall: float
    scaled: float  # wall at the reference host speed, see HostClock
    rss_mb: float
    stderr: str


class HostClock:
    """Tracks how fast the shared host runs this VM, with a fixed probe job.

    Other tenants of the host slow this VM by up to half, in stretches of a
    second to several minutes, longer than a run; a stage's wall time moves
    with them, and all stages move together. The probe mixes the pipeline's
    kinds of work: Python arithmetic, a numpy gather and scatter-add, and
    float formatting. Timed right before and right after a stage, on the
    same CPU, it gives the host's speed during the stage, and
    `wall * PROBE_NOMINAL_S / probe` is the stage's wall time at the
    reference speed. The probe is the same code on every commit, so a
    change to the program moves the scaled time as it moves the wall time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 100_000, size=50_000)
        self.table = rng.random((100_000, 8))
        self.last: float | None = None
        self.probes: list[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        out = np.zeros_like(self.table)
        np.add.at(out, self.rows, self.table[self.rows])
        " ".join(repr(x) for x in self.table[:3000].ravel().tolist())
        self.last = time.perf_counter() - start
        self.probes.append(self.last)
        return self.last

    def timed(self, fn):
        """Run fn(); return (its result, wall time, wall time at the
        reference speed). The probe after one call is the probe before the
        next."""
        before = self.last if self.last is not None else self.probe()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall, wall * PROBE_NOMINAL_S * 2 / (before + self.probe())


class Gate:
    """Counts operations (stage runs and checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[str, str] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def same(self, key: str, digest: str) -> None:
        """Artifacts under `key` must hash the same in every rep."""
        if key in self._first:
            self.check(self._first[key] == digest, f"{key}: artifacts differ between reps")
        else:
            self._first[key] = digest


class Bench:
    def __init__(self, name: str, seed: int, work: Path, gate: Gate):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.gate = gate
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.mods = {
            m: importlib.import_module(f"tensortopics.{m}")
            for m in ("cli", "config", "corpus_ingest", "cp_als", "ensemble", "sparse_tensor")
        }
        origin = Path(self.mods["cli"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"tensortopics was imported from {origin}, not from {SRC}")
        self.cfg_path: Path | None = None
        self.clock = HostClock()
        self.setup_s = 0.0
        self.final_workdir: Path | None = None
        self.fits: dict[int, tuple[float, int]] = {}

    # ---- set-up -------------------------------------------------------

    def setup(self) -> None:
        """Generate the corpus SETUP_REPEATS times; setup_s is the median."""
        subprocess.run(  # compile the package once, outside any timing
            [sys.executable, "-m", "tensortopics.cli", "--help"], env=self.env, cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
        )
        base = self.work / "setup"
        self.cfg_path = self._write_config(base)

        def once() -> Path:
            return write_csv(generate(self.wl.corpus, self.seed), base / "corpus.csv")

        took = []
        for _ in range(SETUP_REPEATS):
            path, _, scaled = self.clock.timed(once)
            took.append(scaled)
            self.gate.same("corpus", tree_hash([path]))
        self.setup_s = statistics.median(took)

    def _write_config(self, base: Path) -> Path:
        base.mkdir(parents=True, exist_ok=True)
        path = base / "bench.cfg"
        path.write_text(
            "corpus = corpus.csv\n"
            "format = csv\n"
            f"ranks = {','.join(str(r) for r in self.wl.ranks)}\n"
            f"seed = {self.seed}\n"
            f"max_iters = {self.wl.sweeps}\n"
            f"fit_tolerance = {FIT_TOLERANCE!r}\n"
            "threads = 1\n"
            f"threshold = {self.wl.threshold!r}\n"
            "strategy = stable-then-dedup\n",
            encoding="utf-8",
        )
        return path

    # ---- child processes ----------------------------------------------

    def run_stage(self, stage: str, workdir: Path) -> StageRun:
        cmd = [
            sys.executable, "-m", "tensortopics.cli", stage,
            "--config", str(self.cfg_path), "--workdir", str(workdir),
        ]

        def child():
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
            )
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                err = proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stderr.close()
            return os.waitstatus_to_exitcode(status), usage, err

        (code, usage, err), wall, scaled = self.clock.timed(child)
        ok = self.gate.check(code == 0, f"{stage} exited {code}: {err.strip()[-400:]}")
        run = StageRun(stage, wall, scaled, usage.ru_maxrss / 1024.0, err)
        if ok:
            self.check(run, workdir)
        return run

    def child_rep(self, label) -> list[StageRun]:
        """One pass of the pipeline, then the reruns; one child process per
        stage."""
        workdir = self.work / f"rep{label}"
        runs = [self.run_stage(stage, workdir) for stage in STAGES + self.wl.reruns]
        self.same_pipeline(workdir)
        if self.final_workdir is not None and self.final_workdir != workdir:
            shutil.rmtree(self.final_workdir, ignore_errors=True)
        self.final_workdir = workdir
        return runs

    # ---- checks ---------------------------------------------------------

    def check(self, run: StageRun, workdir: Path) -> None:
        """Per-stage checks on a stage that exited 0."""
        if run.stage == "ingest":
            header = json.loads((workdir / "tensor" / "header.json").read_text(encoding="utf-8"))
            self.gate.check(
                header["shape"][2] == self.wl.corpus.journals,
                f"journal extent {header['shape'][2]} != {self.wl.corpus.journals} planted journals",
            )
        elif run.stage == "factorize":
            fits = parse_fit_log(run.stderr)
            for rank in self.wl.ranks:
                sweeps = fits.get(rank, (None, 0))[1]
                self.gate.check(
                    sweeps == self.wl.sweeps,
                    f"rank {rank} ran {sweeps} sweep(s), configured {self.wl.sweeps}",
                )
            self.fits = fits
        elif run.stage == "report":
            selection = json.loads((workdir / "selection.json").read_text(encoding="utf-8"))
            summary = json.loads((workdir / "report" / "summary.json").read_text(encoding="utf-8"))
            self.gate.check(
                len(selection["kept"]) == summary["component_count"],
                f"selection keeps {len(selection['kept'])}, summary counts {summary['component_count']}",
            )

    def same_pipeline(self, workdir: Path) -> None:
        self.gate.same("pipeline", tree_hash(
            [workdir / "tensor", workdir / "models", workdir / "selection.json", workdir / "report"]
        ))

    def final_checks(self) -> None:
        """The library's MTTKRP against the bench's own at the largest rank,
        and every logged fit against a recomputation from the saved files."""
        wd = self.final_workdir
        if wd is None or not (wd / "tensor" / "entries.tsv").is_file():
            self.gate.check(False, "no workdir with a tensor to check")
            return
        coords, values, shape = read_tensor(wd / "tensor")
        rank = max(self.wl.ranks)
        rng = np.random.default_rng([self.seed, rank])
        factors = [rng.random((n, rank)) for n in shape]
        cp = self.mods["cp_als"]
        tensor = self.mods["sparse_tensor"].SparseTensorCOO(coords, values, shape)
        for mode in range(len(shape)):
            err = relative_error(
                cp.mttkrp(tensor, factors, mode),
                reference_mttkrp(coords, values, factors, mode, shape[mode]),
            )
            self.gate.check(err <= MTTKRP_TOLERANCE, f"mttkrp mode {mode} rank {rank}: relative error {err:.3g}")
        for r in self.wl.ranks:
            path = wd / "models" / f"rank_{r}.model"
            if r not in self.fits or not path.is_file():
                self.gate.check(False, f"rank {r}: no logged fit or no model file")
                continue
            weights, mfactors = read_model(path)
            ref = reference_fit(coords, values, weights, mfactors)
            logged = self.fits[r][0]
            self.gate.check(
                abs(ref - logged) <= FIT_LOG_TOLERANCE,
                f"rank {r}: logged fit {logged} but saved model fits {ref:.9f}",
            )

    # ---- end-to-end run -------------------------------------------------

    def untraced(self, seconds: float) -> tuple[dict, dict]:
        """wl.reps(seconds) pipeline reps; each stage's metric is the mean
        of its runs, wall_s the mean pipeline pass, all at the reference
        host speed (HostClock).

        The host's slow stretches last from a second to minutes rather than
        coming as rare spikes, so the mean over samples spread across the
        run is the steadiest estimate; over twenty unscaled runs it spread
        less than the median or the fastest sample (see bench/README.md,
        Steadiness)."""
        reps = [self.child_rep(i) for i in range(self.wl.reps(seconds))]
        metrics = {
            f"{stage}_s": statistics.fmean(r.scaled for rep in reps for r in rep if r.stage == stage)
            for stage in STAGES
        }
        metrics["wall_s"] = statistics.fmean(sum(r.scaled for r in rep[: len(STAGES)]) for rep in reps)
        metrics["setup_s"] = self.setup_s
        metrics["peak_rss_mb"] = max(r.rss_mb for rep in reps for r in rep)
        samples = {
            "timed": [[(r.stage, r.wall, r.scaled, r.rss_mb) for r in rep] for rep in reps],
            "probes": self.clock.probes,
        }
        return metrics, samples

    # ---- traced run -------------------------------------------------------

    def inproc_rep(self, label: str, tracer: Tracer | None) -> list[tuple[str, float]]:
        """Run the timed stages in this process; returns (stage, wall) pairs."""
        cli, config = self.mods["cli"], self.mods["config"]
        workdir = self.work / f"inproc-{label}"
        cfg = config.apply_overrides(config.load_config(self.cfg_path), workdir=workdir)
        if tracer is not None:
            tracer.run = label
        walls = []
        for stage in STAGES:
            context = tracer.span(f"cli.{stage}") if tracer is not None else nullcontext()
            error = ""
            start = time.perf_counter()
            try:
                with context:
                    getattr(cli, f"run_{stage}")(cfg)
            except Exception as exc:  # a failing stage is a failed op, not a crash
                error = f"{type(exc).__name__}: {exc}"
            walls.append((stage, time.perf_counter() - start))
            self.gate.check(not error, f"in-process {stage} ({label}) raised {error}")
        self.same_pipeline(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return walls

    def traced(self, seconds: float) -> tuple[dict, dict]:
        """One child-process rep, then pairs of in-process reps, one plain
        and one traced; as many reps in all as an untraced run makes.
        Metrics are medians over the traced reps; the plain reps give the
        untraced in-process wall to compare them with."""
        child = self.child_rep("child")
        tracer = Tracer()
        plain, traced = [], []
        for i in range(max(1, (self.wl.reps(seconds) - 1) // 2)):
            plain.append(self.inproc_rep(f"plain{i}", None))
            install(tracer, self.mods)
            try:
                traced.append(self.inproc_rep(f"traced{i}", tracer))
            finally:
                tracer.unwrap_all()
        sizes = artifact_sizes(self.final_workdir)
        per_rep = [layer_metrics(tracer, f"traced{i}", rep, sizes) for i, rep in enumerate(traced)]
        # median_low keeps counts whole and every value one that was measured
        metrics = {name: statistics.median_low(m[name] for m in per_rep) for name in per_rep[0]}
        # Child-process wall minus the plain in-process wall of the same
        # stage, averaged over the stages: interpreter and import start-up.
        metrics["cli.startup_s"] = statistics.fmean(
            c.wall - statistics.median(rep[i][1] for rep in plain) for i, c in enumerate(child[: len(STAGES)])
        )
        metrics["trace.untraced_wall_s"] = statistics.median(sum(w for _, w in rep) for rep in plain)
        samples = {
            "child": [(r.stage, r.wall, r.scaled, r.rss_mb) for r in child],
            "plain": plain,
            "traced": traced,
            "spans": tracer.as_records(),
        }
        return metrics, samples


# ---- tracing ----------------------------------------------------------------


def _note_mttkrp(args, kwargs, result):
    tensor, factors = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    return {"mode": int(mode), "rank": int(result.shape[1]), "nnz": int(tensor.nnz),
            "order": len(factors), "extent": int(result.shape[0])}


NOTES = {
    "load_corpus": lambda a, k, r: {"records": len(r)},
    "build_counts": lambda a, k, r: {"documents": len(r.axes[1])},
    "select_components_detailed": lambda a, k, r: {
        "pooled": r.pooled_count, "stable": r.stable_count or 0, "kept": len(r.kept)
    },
}
# (attribute looked up in tensortopics.cli, layer it belongs to)
CLI_CALLS = (
    ("load_corpus", "corpus_ingest"),
    ("clean_and_filter", "corpus_ingest"),
    ("dedup", "corpus_ingest"),
    ("build_counts", "corpus_ingest"),
    ("counts_to_tensor", "corpus_ingest"),
    ("save_tensor", "sparse_tensor"),
    ("load_tensor", "sparse_tensor"),
    ("ensemble_models", "ensemble"),
    ("select_components_detailed", "ensemble"),
    ("save_model", "cp_als"),
    ("load_model", "cp_als"),
    ("build_report", "report"),
    ("emit_report", "report"),
)


def install(tracer: Tracer, mods: dict) -> None:
    """Rebind each traced name where its caller looks it up."""
    for attr, layer in CLI_CALLS:
        tracer.wrap(mods["cli"], attr, f"{layer}.{attr}", NOTES.get(attr))
    tracer.wrap(mods["corpus_ingest"], "tokenize", "corpus_ingest.tokenize")
    tracer.wrap(
        mods["ensemble"], "cp_als", "cp_als.cp_als",
        lambda a, k, r: {"rank": int(a[1]), "sweeps": len(r[1])},
    )
    cp = mods["cp_als"]
    tracer.wrap(cp, "mttkrp", "cp_als.mttkrp", _note_mttkrp)
    tracer.wrap(cp, "solve_gram", "linalg.solve_gram")
    tracer.wrap(cp, "gram", "linalg.gram")
    # The model-norm term of the per-sweep fit is the one part of the fit
    # that cp_als computes through a call; the rest is inline.
    tracer.wrap(cp, "_model_norm_sq", "cp_als.fit")


def artifact_sizes(workdir: Path | None) -> dict:
    if workdir is None or not (workdir / "tensor" / "header.json").is_file():
        return {"entries_bytes": 0, "model_bytes": 0, "nnz": 0}
    header = json.loads((workdir / "tensor" / "header.json").read_text(encoding="utf-8"))
    return {
        "entries_bytes": (workdir / "tensor" / "entries.tsv").stat().st_size,
        "model_bytes": sum(p.stat().st_size for p in (workdir / "models").glob("*.model")),
        "nnz": int(header["nnz"]),
        "shape": header["shape"],
    }


def layer_metrics(tracer: Tracer, run: str, walls, sizes) -> dict:
    """Per-layer metrics of one traced rep."""
    selfs = tracer.self_times()
    spans = [(s, selfs[i]) for i, s in enumerate(tracer.spans) if s.run == run]

    def named(name):
        return [s for s, _ in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(t for s, t in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    m = {}
    mttkrp = named("cp_als.mttkrp")
    for mode in range(4):
        m[f"cp_als.mttkrp_s.mode{mode}"] = sum(s.duration for s in mttkrp if s.attrs.get("mode") == mode)
    m["cp_als.mttkrp.calls"] = len(mttkrp)
    # Computed from array sizes, not measured. Per nonzero and column a call
    # multiplies (order - 1) gathered rows and the value and adds the product
    # into the output: `order` flops. It reads the gathered rows and the
    # accumulator (`order` floats), the coordinates and the value, and
    # writes the output once.
    flops = bytes_moved = 0
    for s in mttkrp:
        nnz, rank, order = s.attrs.get("nnz", 0), s.attrs.get("rank", 0), s.attrs.get("order", 0)
        flops += nnz * rank * order
        bytes_moved += 8 * (nnz * (rank * order + order + 1) + s.attrs.get("extent", 0) * rank)
    m["cp_als.mttkrp.flops"] = flops
    m["cp_als.mttkrp.bytes"] = bytes_moved
    mttkrp_s = sum(s.duration for s in mttkrp)
    m["cp_als.mttkrp.gflops"] = flops / mttkrp_s / 1e9 if mttkrp_s > 0 else 0.0
    cp_runs = named("cp_als.cp_als")
    for r in TRACED_RANKS:
        m[f"cp_als.cp_als_s.r{r}"] = sum(s.duration for s in cp_runs if s.attrs.get("rank") == r)
        m[f"cp_als.sweeps.r{r}"] = sum(s.attrs.get("sweeps", 0) for s in cp_runs if s.attrs.get("rank") == r)
    m["cp_als.fit_s"] = total("cp_als.fit")
    m["cp_als.save_model_s"] = total("cp_als.save_model")
    m["cp_als.model_bytes"] = sizes["model_bytes"]
    m["cp_als.load_model_s"] = total("cp_als.load_model")
    m["linalg.solve_gram_s"] = total("linalg.solve_gram")
    m["linalg.solve_gram.calls"] = len(named("linalg.solve_gram"))
    m["linalg.gram_s"] = total("linalg.gram")
    m["sparse_tensor.save_tensor_s"] = total("sparse_tensor.save_tensor")
    m["sparse_tensor.load_tensor_s"] = total("sparse_tensor.load_tensor")
    m["sparse_tensor.entries_bytes"] = sizes["entries_bytes"]
    m["sparse_tensor.nnz"] = sizes["nnz"]
    for fn in ("load_corpus", "clean_and_filter", "dedup", "build_counts", "counts_to_tensor"):
        m[f"corpus_ingest.{fn}_s"] = total(f"corpus_ingest.{fn}")
    m["corpus_ingest.tokenize.calls"] = len(named("corpus_ingest.tokenize"))
    records_in = attr_sum("corpus_ingest.load_corpus", "records")
    records_kept = attr_sum("corpus_ingest.build_counts", "documents")
    m["corpus_ingest.records_in"] = records_in
    m["corpus_ingest.records_kept"] = records_kept
    m["corpus_ingest.kept_ratio"] = records_kept / records_in if records_in else 0.0
    ens = named("ensemble.ensemble_models")
    ens_s = sum(s.duration for s in ens)
    m["ensemble.ensemble_models_s"] = ens_s
    m["ensemble.self_s"] = self_total("ensemble.ensemble_models")
    m["ensemble.rank_critical_share"] = max((s.duration for s in cp_runs), default=0.0) / ens_s if ens_s else 0.0
    m["ensemble.select_components_detailed_s"] = total("ensemble.select_components_detailed")
    pooled = attr_sum("ensemble.select_components_detailed", "pooled")
    kept = attr_sum("ensemble.select_components_detailed", "kept")
    m["ensemble.pooled_count"] = pooled
    m["ensemble.stable_count"] = attr_sum("ensemble.select_components_detailed", "stable")
    m["ensemble.kept_count"] = kept
    m["ensemble.kept_ratio"] = kept / pooled if pooled else 0.0
    m["report.build_report_s"] = total("report.build_report")
    m["report.emit_report_s"] = total("report.emit_report")
    for stage in STAGES:
        m[f"cli.{stage}_s"] = total(f"cli.{stage}")
        m[f"cli.{stage}.self_s"] = self_total(f"cli.{stage}")
    m["trace.traced_wall_s"] = sum(w for _, w in walls)
    return m


# ---- reporting --------------------------------------------------------------


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "tensortopics").rglob("*.py"))


def run_workload(name: str, args, declared: dict) -> bool:
    work = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gate = Gate()
    try:
        bench = Bench(name, args.seed, work, gate)
        bench.setup()
        if args.trace:
            metrics, samples = bench.traced(args.seconds)
        else:
            metrics, samples = bench.untraced(args.seconds)
        bench.final_checks()
        sizes = artifact_sizes(bench.final_workdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(metrics))}, extra {sorted(set(metrics) - set(units))}"
        )
    wl = WORKLOADS[name]
    meta = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "probe_median_s": statistics.median(bench.clock.probes),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "corpus": wl.corpus.as_dict(),
        "ranks": list(wl.ranks),
        "sweeps": wl.sweeps,
        "threshold": wl.threshold,
        "reps": wl.reps(args.seconds),
        "tensor_shape": sizes.get("shape"),
        "nnz": sizes["nnz"],
        "src_lines": src_line_count(),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "metrics": metrics, "failures": gate.failures, "samples": samples}) + "\n",
        encoding="utf-8",
    )

    for key, value in meta.items():
        print(f"# {key}: {json.dumps(value)}")
    for failure in gate.failures:
        print(f"# FAILED: {failure}")
    for metric in declared[kind]:
        print(f"{name:<9} {metric['name']:<40} {metrics[metric['name']]:>14.6g} {metric['unit']}")
    print(f"{name:<9} {'ops_attempted':<40} {gate.attempted:>14d}")
    print(f"{name:<9} {'ops_failed':<40} {len(gate.failures):>14d}")
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result), flush=True)
    return not gate.failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tensortopics" / "cli.py").is_file():
        print(f"error: {SRC / 'tensortopics'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child, so that HostClock's probe
    # runs where the stages run: the host slows each vCPU on its own.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args, declared) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
