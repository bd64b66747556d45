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
must leave these hashes alone or update them on purpose. The model bytes depend on floating-point results of the
factorization, so the hashes hold for the numpy/BLAS build and BLAS thread
count they were pinned with (numpy 2.4.6 and its bundled OpenBLAS, one
thread); another build may legitimately change them.
"""

import hashlib

from tensortopics.cli import cli_run

from conftest import DATA_DIR

GOLDEN_SHA256 = {
    "tensor/header.json": "69e9cc9d8b5127494ba65b7483a185f57288f14ac250db96347f01cfbbf03aa4",
    "tensor/entries.npy": "7fc2e45185939b3bafddb0f7a0aa267e54d030100b2a7c92da586e116d346dbb",
    "tensor/entries.tsv": "806ef1c0d86131b5e7543db91ec463434c7fa79ecae4a96ffc29d7ae132f78bc",
    "tensor/mode0.labels.txt": "20e5114aa75ecf82dcf2ed95f8a5cf101acc44dd0ee82769a70344e28c0e4163",
    "tensor/mode1.labels.txt": "84b712f6a14b998c3c985f60199259af9e1fcbd2a0a89066d87c173e24c5fc74",
    "tensor/mode2.labels.txt": "359c21e740839d3d12deb6ab2993f3f383698b8c095db6db0355c1e277b094d0",
    "tensor/mode3.labels.txt": "6c0a65800f8eb0653ecaaaae3b9751e5cb5926a38fd5d45826be948f7861a0af",
    "models/rank_3.model": "cd89afc2d55008396d64350c23836223bf3548bbdf872cc2d46928b616a534f2",
    "models/rank_3.model.npy": "630d4a51a7ec87da7a60f5ae415849857ee98d9b5843ed182b7045d39f3d69d3",
    "models/rank_5.model": "839f0fb2c74074c03452666f0451c1a7a9b66590a4aea573768ebf51c7771377",
    "models/rank_5.model.npy": "3b0d18999ba8c8cfb02416900f83f9e487bd33b7d071266a5473fac9b7df24b3",
    "selection.json": "3d8f0778684cec88e36b33f31ebbdcebcda0b716b5a22d989845a5803a1cf9e7",
    "selection.npy": "e2db8d74b6305c8d9b031f92c8c16e7e8d675095dddbd9812272a59e42ce86d4",
    "report/report.json": "a872cf844bb797463981bc3b9a7f1d316910574d3550853a03a555ccf62d661e",
    "report/summary.json": "c37d872a328983133158a8bc545f54d18fd2bb11b91563f6188f1c7a01167582",
    "report/index.html": "c622e398fca1aa1b8cd45e04c5ac1dee0663fec3c3141b2c2569a3f934fb52b4",
}


def assert_golden(workdir):
    """`workdir` holds exactly the golden files, each with its golden bytes."""
    written = sorted(
        p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name


def test_toy_pipeline_bytes_are_golden(tmp_path):
    workdir = tmp_path / "run"
    assert cli_run(["pipeline", "--config", str(DATA_DIR / "toy.cfg"), "--workdir", str(workdir)]) == 0
    assert_golden(workdir)
