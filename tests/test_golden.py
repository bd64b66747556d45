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
these hashes alone or update them on purpose. When a tensor small and full
enough began to keep its fiber values dense and to run its leaf sums and
last-mode MTTKRP as two BLAS matrix products, the toy tensor (37 x 36
fiber values, 8.4% full) took that form and its factors moved in their last
bits, so eight files were re-pinned: both models and their .npy payloads,
selection.json, selection.npy, report.json and index.html. The kept
components and their partners did not change; the tensor files and
summary.json did not move.

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
The dense fiber values re-pinned the same files of this run (its tensor
keeps 80 x 1,580 of them, 7.0% full) and the --similarity-matrix
selection.json; its 103 kept components and their partners did not change.
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
    "models/rank_3.model": "8d0bf952219773301537d2c2dcf0e81e8e5fc07bd0d09490aa0781c86b93bb4c",
    "models/rank_3.model.npy": "3c514c7548d3ecb8bc4f88c4a30832c523a861f3ae8d3ec6db6ad35092437e99",
    "models/rank_5.model": "17d5a7c23945dc0138ce48b89c04e89ac5269ead21c619aec18788f423a66a2e",
    "models/rank_5.model.npy": "479641b55921666abf2050c0e61217536c6f7c5692fb200246f47b0468f7c7bf",
    "selection.json": "c65c10a63b8a82c84aea629436c9fbc4a1d4fc817ebbc47db5c7a36bf76a88a8",
    "selection.npy": "43b318e22fc8718f512fa5042466270457537696b59a9542ea30d2d7eed949bf",
    "report/report.json": "ded214f64f477b227247016fb6c7710e6dcf7a2eba6091544d8af565bd5557a4",
    "report/summary.json": "c37d872a328983133158a8bc545f54d18fd2bb11b91563f6188f1c7a01167582",
    "report/index.html": "4768b2d4e8185bbafb174ac2c89d4fd172c3f24e1b44ae618decf42fea4e7ebd",
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
    "models/rank_20.model": "62e71d21e71eae75a1c01b23cb6ff2d7c566059a9689787dbc38456a3d407195",
    "models/rank_20.model.npy": "ba7a945956069c857402c7d64d668de833612d9e237bf1c90dc7eb395871e575",
    "models/rank_40.model": "4772fe58691524cdd3e5759d31afbe65253ee21507f5807cbbb2abce72e681fd",
    "models/rank_40.model.npy": "ccd18da8ce6f864a1a619182733e2714677fa9b49b8cf039cd3c497c3d87bc7a",
    "models/rank_60.model": "ef80228d7e5c7df4835d53f1e00c348cc879121c3bd713774eabf103c6ee22ca",
    "models/rank_60.model.npy": "9643e4522839e5800c38dea03c0d659dbef036804cae50a5f94ace9a952d61fb",
    "models/rank_80.model": "011c7c9aa72028e984a57e1a07d34a1f568860f6b7702184cc01db3fd4c450b4",
    "models/rank_80.model.npy": "8035254605d952a01f352614fa1354299a2050ee2c0e3910e5e7ccb2f29848ec",
    "models/rank_100.model": "29715a8468275f00ced732f9321b7d94d04da2a8e49cb7f6458816e9f2b19db2",
    "models/rank_100.model.npy": "fdf2ead155156b33c2b0855fbae73999b0cb37d70974ec8c006996cb2b33c7e1",
    "models/rank_120.model": "4958f98c5ef14832e282c9801e20375edbc3802da2d50bea3d0ba9b6b997e3a4",
    "models/rank_120.model.npy": "de3155cc0784279bf01e5951648e0a67182af8534fbcddd754d1a343f04a771e",
    "models/rank_200.model": "800a03f70d32224879fce5032076db3c6ee0a8d84347c674a598fa74456b52a1",
    "models/rank_200.model.npy": "f6ecd0036a1d172d90a9816992e6020eec8b70031e951bcd2a8bb3de95fbb078",
    "selection.json": "1ef14d250ce65c40fd45f99182198ea308d843aeb316328054b0300306d74df6",
    "selection.npy": "a5aaab55cbe7ef284ec3fb4edc2907853eea232879ebf7b7a3068aa384c0fcdc",
    "report/report.json": "4c270e958cece186004c3e61cd0a9854387cbdef1dc1f35c73198e77ade75cea",
    "report/summary.json": "775d4406a48609f7a2c56d1e875f16e4c944dd3874426ee41c58f60f409b378d",
    "report/index.html": "d02ce0560328833b5dc63eb26c29d85ee915b38cd001c3c3e5c17191a5ccf648",
}
# selection.json as `select --similarity-matrix` rewrites it in that tree:
# the same fields, then every pooled cosine. Nothing else moves.
ENSEMBLE_MATRIX_SELECTION_SHA256 = "d5209fc0f4fe0bc8a25eda5d6941275e0e9cedf7508b1f60a66916260aeae33d"


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
