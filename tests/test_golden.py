"""Golden bytes: the toy pipeline writes exactly these files, bit for bit.

The hashes were taken from the pipeline before its ingest and I/O paths were
rewritten at the array level. The two model files were re-pinned when the
binary payload came in: their header gained the payload's CRC-32 and schema
version 2, their body lines did not change, and their two .npy payloads were
added. The tensor's header.json was re-pinned, and its entries.npy added, in
the same way when the tensor gained its binary payload; entries.tsv did not
change. The two model files were re-pinned once more when the model body
became format(x, ".16e") text in place of repr()'s shortest digits: their
header lines and .npy payloads did not change, only the body text. When
solve_gram began to solve the ALS normal equations as rhs @ inv(G) in place
of an LU solve, the factors moved in their last bits, so seven files were
re-pinned: both models and their .npy payloads, selection.json (the last
digits of the kept weights; the kept set did not change), report.json and
index.html. The tensor and summary.json did not move. When the JSON
artifacts became one line of compact JSON in place of indent=2 text, so that
json.dumps runs CPython's C encoder, four files were re-pinned:
tensor/header.json, selection.json, report/report.json and
report/summary.json. Each parses to the same object as before; no other byte
moved. When report stopped reading the models and began to read the kept
components from a table that select writes, selection.npy was added and
selection.json was re-pinned: its schema version went to 2 and it gained the
table's CRC-32 and what it was selected from (the label counts and the
tensor payload's CRC-32). The report bytes did not move. When each model
began to record the tensor it was fit to, the two model files were re-pinned:
their header line gained tensor_payload_crc32 and schema version 3, and their
body lines and .npy payloads did not change. When the tensor became the one
owner of the mode names and the word mode, the model header line lost
mode_names and labels_ref and went to schema version 4, and selection.json
lost word_mode and went to schema version 3: the two model files and
selection.json were re-pinned here, and so were the seven model files,
selection.json and the --similarity-matrix selection.json of the ensemble
run below. Every model body line, every .npy payload, the tensor files and
the report bundles did not move. Any later change to how the tensor, the
models, the selection or the report are computed or serialized must leave
these hashes alone or update them on purpose.

The model bytes depend on floating-point results of the factorization, so
the hashes hold for one numpy/BLAS build (numpy 2.4.6 and its bundled
OpenBLAS), one BLAS thread and one OpenBLAS kernel. That build picks its
kernels by CPU, and their blocking and FMA use change the order of
summation, so the same run wrote other bytes on CPUs with and without
AVX-512. The pipeline therefore runs in a child process under
OPENBLAS_CORETYPE=Haswell, the kernels of AVX2 CPUs, which every x86-64 CPU
with AVX2 and FMA can run (Zen reports Haswell and writes the same bytes),
and a second child with the same environment must name Haswell as its core.
The hashes were first taken under the SkylakeX kernels; pinning Haswell
re-pinned exactly the eight files whose bytes follow the factors: both
models and their .npy payloads, selection.json, selection.npy, report.json
and index.html. The tensor files and summary.json did not move. The program
pins no kernel: another kernel, a pre-AVX2 or an aarch64 machine may
legitimately write other model bytes.

The toy tensor is small enough that every MTTKRP runs in one band of
components and every model is written in one text chunk. A second golden
run, on a planted-topic corpus of the benchmark's `ensemble` shape, pins the
paths that only larger inputs reach: several bands, several chunks, ranks
at and above the tensor's fiber count, and a 620-component pool. Its
`--similarity-matrix` selection is pinned by rerunning select and report on
a copy of its tree. When solve_gram began to take one LU solve for a mode
with fewer rows than the rank, and the inverse only from as many rows on,
the authors', documents' and journals' factors of that run moved in their
last bits, so its fourteen model files, selection.json, selection.npy,
report.json, index.html and the --similarity-matrix selection.json were
re-pinned; its tensor files and summary.json did not move. The toy run,
whose every mode is longer than ranks 3 and 5, did not move.
"""

import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from conftest import DATA_DIR
from planted_corpus import ENSEMBLE_SHAPE, generate, write_csv

# The environment of every child whose output is compared with the hashes.
GOLDEN_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
# Prints the name of the core whose kernels the process's OpenBLAS runs, as
# numpy's bundled library reports it; exits 1 naming what is missing.
CORE_NAME = """
import ctypes, glob, os, sys
import numpy
libs = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")))
if not libs:
    sys.exit("numpy.libs holds no libscipy_openblas*")
try:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
except AttributeError:
    sys.exit(f"{libs[0]} has no scipy_openblas_get_corename64_")
corename.argtypes = []
corename.restype = ctypes.c_char_p
print(corename().decode())
"""

GOLDEN_SHA256 = {
    "tensor/header.json": "69e9cc9d8b5127494ba65b7483a185f57288f14ac250db96347f01cfbbf03aa4",
    "tensor/entries.npy": "7fc2e45185939b3bafddb0f7a0aa267e54d030100b2a7c92da586e116d346dbb",
    "tensor/entries.tsv": "806ef1c0d86131b5e7543db91ec463434c7fa79ecae4a96ffc29d7ae132f78bc",
    "tensor/mode0.labels.txt": "20e5114aa75ecf82dcf2ed95f8a5cf101acc44dd0ee82769a70344e28c0e4163",
    "tensor/mode1.labels.txt": "84b712f6a14b998c3c985f60199259af9e1fcbd2a0a89066d87c173e24c5fc74",
    "tensor/mode2.labels.txt": "359c21e740839d3d12deb6ab2993f3f383698b8c095db6db0355c1e277b094d0",
    "tensor/mode3.labels.txt": "6c0a65800f8eb0653ecaaaae3b9751e5cb5926a38fd5d45826be948f7861a0af",
    "models/rank_3.model": "fd754b7e2b3d2377faddc49e074041c2ed6490c2d1c5cc5a136ca232e15e4b4c",
    "models/rank_3.model.npy": "70313d6034060e08de3347fcc494ffea02146a6327035ebf3b72f7dbc1a6a40a",
    "models/rank_5.model": "29d65413b3cedde30f66e73fcd6f611d91d15f56575ac527a2edad1d0bbbdd9c",
    "models/rank_5.model.npy": "9b18b770eac2f76ff5e6c21a098f5f53a2efa01a6751e78e777152af92ee03e0",
    "selection.json": "a981720c99ba2ad38f9f2424cb26231178ee1232137e1f1e4bf535086f59c9ad",
    "selection.npy": "d66a93f458d748da8cc9f00e273d084fb8c5f1b70ee784f8b7f836e6d132b636",
    "report/report.json": "92d235f699c3d4f394321f00c3f4d807521fef9de1af020f1c10e0f5f953e3e6",
    "report/summary.json": "c37d872a328983133158a8bc545f54d18fd2bb11b91563f6188f1c7a01167582",
    "report/index.html": "6975bf1bb5f0fa7c3e5c3a20ea23e8a0597bdf9f8cd89325b5132a6a27d66f86",
}


def assert_golden(workdir, table=GOLDEN_SHA256):
    """`workdir` holds exactly the files of `table`, each with its bytes."""
    written = sorted(
        p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file()
    )
    assert written == sorted(table)
    for name, digest in table.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name


def golden_child(*args) -> subprocess.CompletedProcess:
    """Run `python *args` under GOLDEN_ENV, with its output captured."""
    env = {**os.environ, **GOLDEN_ENV}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def haswell_core():
    """Checked once per module: a child under GOLDEN_ENV runs the Haswell kernels."""
    core = golden_child("-c", CORE_NAME)
    assert core.returncode == 0, f"OpenBLAS core name unknown: {core.stderr.strip()}"
    assert core.stdout.strip() == "Haswell", f"OpenBLAS runs the {core.stdout.strip()} kernels, not Haswell"


def run_stage(*args):
    """Run one CLI stage under GOLDEN_ENV; it must exit 0."""
    proc = golden_child("-m", "tensortopics.cli", *map(str, args))
    assert proc.returncode == 0, proc.stderr


def test_toy_pipeline_bytes_are_golden(tmp_path, haswell_core):
    workdir = tmp_path / "run"
    run_stage("pipeline", "--config", DATA_DIR / "toy.cfg", "--workdir", workdir)
    assert_golden(workdir)


# The benchmark's `ensemble` workload at seed 41, as its runner configures
# it: the paper's seven ranks, 5 sweeps each (the tolerance is positive but
# too small to stop a fit early) and threshold 0.9, at which the kept
# components come from every rank. 620 components are pooled; every MTTKRP
# above rank 20 runs in several bands, and the larger models are written in
# several text chunks, which the toy run never reaches.
ENSEMBLE_CONFIG = """\
corpus = corpus.csv
format = csv
ranks = 20,40,60,80,100,120,200
seed = 41
max_iters = 5
fit_tolerance = 1e-15
threads = 1
threshold = 0.9
strategy = stable-then-dedup
"""

ENSEMBLE_SHA256 = {
    "tensor/header.json": "f219b10a21456a621226f0207841ea42d68987b6d13ea609c912df1138efd4d6",
    "tensor/entries.npy": "c862f7c4ad1876438c7b7652b7d5556ab5d262e308f80728221c8f8f571f768d",
    "tensor/entries.tsv": "25011494c11e3b54f839fe4c4b7ae2a57c4ebaa289f00354aa4b1844122ec88c",
    "tensor/mode0.labels.txt": "7fc3f10a392493d6dd8a8b0f22c10cdb471d9edc44a28039ef7113069cc986d9",
    "tensor/mode1.labels.txt": "3f2f299a1b300ebdf4ca17e5d3cb6abdce50cb4a0c42e15658c8f7a4e71a6bea",
    "tensor/mode2.labels.txt": "df2b260f9f763d7a3def4682b3557716e6ceccd945a6d5b26a8f23f81a90e9ee",
    "tensor/mode3.labels.txt": "5a5f87126991ab2f10679e9e14b138d8b3ec5d24c00c54200e4851cc44ea6455",
    "models/rank_20.model": "a7f4d4816dfaa9098693184cd4d4601a199056194827ca5e25122f09a597a61b",
    "models/rank_20.model.npy": "710638715e82fa3c23ef8b201247c2e70851747931f129766820cecda322a41c",
    "models/rank_40.model": "7ececfe216b9f799af3d72d0e69f98647d54a9bf78985aea6a0c2cf88367dd85",
    "models/rank_40.model.npy": "906217cde77b12f9aa91d691df6d7d27b23ed68be4eb67c5d66ed00c42a79457",
    "models/rank_60.model": "cbc82731ddd5a5f4583f6e81b4f4a3ed427239a6b83d61f92d21030d56a44a5a",
    "models/rank_60.model.npy": "6e30541a3997aada5c91432bfca28d055950b65174b7be2ddaf2eaee799b8da8",
    "models/rank_80.model": "c151acf3c9be016a3af1936e8861782da0dbdf3146343ff50ad99746b066e3a1",
    "models/rank_80.model.npy": "a0256e2bf8552f4cb7f732bf1dc03084da31d768ec9cb58b782226c043475916",
    "models/rank_100.model": "aac15c104c2071844fb2c0b2b5ec71005c7792e7b2ebb067dde3072f35cb3707",
    "models/rank_100.model.npy": "9f0b8024654b5f5a814c2efa1ab13c5bdd4464edfab8b8b12f34bc6c9e6aced5",
    "models/rank_120.model": "5f65312dbe1005f0cbc7a4b67db8e3b25f2e72fd3e6ce78b5fdb0813fbe6ea42",
    "models/rank_120.model.npy": "32cc503f3d750ba9cb9faede333f23134b0f132dc238292ed0e6de7cb692a01a",
    "models/rank_200.model": "8182ba3dbf8d24c110270197f0b75cb70969423ca7ab26f8df65d0578cd510c9",
    "models/rank_200.model.npy": "5a2b8d9a72c9b1b7b7a948a277a7060304b3b28d8ff6613158b1e7779f0116d2",
    "selection.json": "4af35d1e04afd0a99d030beb717e06649289272aa9f12e83ff46769ae6e8eeea",
    "selection.npy": "f5ce42c5eb5745c4e78592cc714c30684013a33e58573e9cc45aee516069714a",
    "report/report.json": "400242efb594965aa83639b528962e89521ea4d4591ecb04a7f83c56171f7cf4",
    "report/summary.json": "775d4406a48609f7a2c56d1e875f16e4c944dd3874426ee41c58f60f409b378d",
    "report/index.html": "1e2b9f3069114c3cd9df3b27f3ad81df0c1a0d82555b37c72187d5aab2afbce1",
}
# selection.json as `select --similarity-matrix` rewrites it in that tree:
# the same fields, then every pooled cosine. Nothing else moves.
ENSEMBLE_MATRIX_SELECTION_SHA256 = "b9fdcf266d163338bf2d371912a8e00b35ec8fae00c8ef26c62f969081ea6c19"


def test_ensemble_pipeline_bytes_are_golden(tmp_path, haswell_core):
    config = tmp_path / "input" / "ensemble.cfg"
    write_csv(generate(41, **ENSEMBLE_SHAPE), config.parent / "corpus.csv")
    config.write_text(ENSEMBLE_CONFIG, encoding="utf-8")
    workdir = tmp_path / "run"
    run_stage("pipeline", "--config", config, "--workdir", workdir)
    assert_golden(workdir, ENSEMBLE_SHA256)

    matrix = tmp_path / "matrix"
    shutil.copytree(workdir, matrix)
    run_stage("select", "--config", config, "--workdir", matrix, "--similarity-matrix")
    run_stage("report", "--config", config, "--workdir", matrix)
    assert_golden(matrix, {**ENSEMBLE_SHA256, "selection.json": ENSEMBLE_MATRIX_SELECTION_SHA256})
