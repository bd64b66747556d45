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
body lines and .npy payloads did not change. Any later change to how the
tensor, the models, the selection or the report are computed or serialized
must leave these hashes alone or update them on purpose.

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
"""

import hashlib
import os
import subprocess
import sys

from conftest import DATA_DIR

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
    "models/rank_3.model": "b230803290656f1cc02c243c83bfaf688786eda5b4918d3cbfcefe35de3d0681",
    "models/rank_3.model.npy": "70313d6034060e08de3347fcc494ffea02146a6327035ebf3b72f7dbc1a6a40a",
    "models/rank_5.model": "eb41bc4a078ea4a9995fb11e0c5876c267cd200f01fc651c22ec76757aaea917",
    "models/rank_5.model.npy": "9b18b770eac2f76ff5e6c21a098f5f53a2efa01a6751e78e777152af92ee03e0",
    "selection.json": "31e8f8ccadbdf51d396463b2e540bc70ba3d8e6cfef0bb29b5449903e1627c2e",
    "selection.npy": "d66a93f458d748da8cc9f00e273d084fb8c5f1b70ee784f8b7f836e6d132b636",
    "report/report.json": "92d235f699c3d4f394321f00c3f4d807521fef9de1af020f1c10e0f5f953e3e6",
    "report/summary.json": "c37d872a328983133158a8bc545f54d18fd2bb11b91563f6188f1c7a01167582",
    "report/index.html": "6975bf1bb5f0fa7c3e5c3a20ea23e8a0597bdf9f8cd89325b5132a6a27d66f86",
}


def assert_golden(workdir):
    """`workdir` holds exactly the golden files, each with its golden bytes."""
    written = sorted(
        p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name


def golden_child(*args) -> subprocess.CompletedProcess:
    """Run `python *args` under GOLDEN_ENV, with its output captured."""
    env = {**os.environ, **GOLDEN_ENV}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


def test_toy_pipeline_bytes_are_golden(tmp_path):
    core = golden_child("-c", CORE_NAME)
    assert core.returncode == 0, f"OpenBLAS core name unknown: {core.stderr.strip()}"
    assert core.stdout.strip() == "Haswell", f"OpenBLAS runs the {core.stdout.strip()} kernels, not Haswell"
    workdir = tmp_path / "run"
    proc = golden_child(
        "-m", "tensortopics.cli", "pipeline", "--config", str(DATA_DIR / "toy.cfg"), "--workdir", str(workdir)
    )
    assert proc.returncode == 0, proc.stderr
    assert_golden(workdir)
