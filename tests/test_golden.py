"""Golden bytes: the toy pipeline writes exactly these files, bit for bit.

The hashes were taken from the pipeline before its ingest and I/O paths were
rewritten at the array level. The two model files were re-pinned when the
binary payload came in: their header gained the payload's CRC-32 and schema
version 2, their body lines did not change, and their two .npy payloads were
added. The tensor's header.json was re-pinned, and its entries.npy added, in
the same way when the tensor gained its binary payload; entries.tsv did not
change. The two model files were re-pinned once more when the model body
became format(x, ".16e") text in place of repr()'s shortest digits: their
header lines and .npy payloads did not change, only the body text. Any
later change to how the tensor, the models, the selection or the report are
computed or serialized must leave these hashes alone or update them on
purpose. The model bytes depend on floating-point results of the
factorization, so a different BLAS may legitimately change them.
"""

import hashlib

from tensortopics.cli import cli_run

from conftest import DATA_DIR

GOLDEN_SHA256 = {
    "tensor/header.json": "1505396b8543bd433d10cf5ac545aab7780b025f798dd08ba9b573a171d0d629",
    "tensor/entries.npy": "7fc2e45185939b3bafddb0f7a0aa267e54d030100b2a7c92da586e116d346dbb",
    "tensor/entries.tsv": "806ef1c0d86131b5e7543db91ec463434c7fa79ecae4a96ffc29d7ae132f78bc",
    "tensor/mode0.labels.txt": "20e5114aa75ecf82dcf2ed95f8a5cf101acc44dd0ee82769a70344e28c0e4163",
    "tensor/mode1.labels.txt": "84b712f6a14b998c3c985f60199259af9e1fcbd2a0a89066d87c173e24c5fc74",
    "tensor/mode2.labels.txt": "359c21e740839d3d12deb6ab2993f3f383698b8c095db6db0355c1e277b094d0",
    "tensor/mode3.labels.txt": "6c0a65800f8eb0653ecaaaae3b9751e5cb5926a38fd5d45826be948f7861a0af",
    "models/rank_3.model": "d3c6e485b83038b625ea808588b7af66f66d4524d1734af9d64a363462c4d95a",
    "models/rank_3.model.npy": "180383bea548d9f7edb3e6b368cc7f77c25d7f4e4de1be7b20744cdf800bc421",
    "models/rank_5.model": "fd62d3317e2304f3f185a7d64ca81eb6eb058793c3c6a06fc30f4e72050a92a1",
    "models/rank_5.model.npy": "22b4d2ce58fa98c3683d38d667a406ae03a03c3eae560228c1facf5522a7e230",
    "selection.json": "3a16159f03b547dc62eb20037093aabe485ebf4fd18c545b29a30d7c79e72c6e",
    "report/report.json": "2227f76d382108be26e641c6d5bf20f68d67fced845791745fe7f96fd9d1d296",
    "report/summary.json": "62ee271e5bbf71a9731a76b2caa1a9b71a1c3d6493cec4b33c3dad3fb6e91950",
    "report/index.html": "715dffd9ae73644520c246a2b33685b905a81919a358f19cdade2ed80736bb60",
}


def test_toy_pipeline_bytes_are_golden(tmp_path):
    workdir = tmp_path / "run"
    assert cli_run(["pipeline", "--config", str(DATA_DIR / "toy.cfg"), "--workdir", str(workdir)]) == 0
    written = sorted(
        p.relative_to(workdir).as_posix() for p in workdir.rglob("*") if p.is_file()
    )
    assert written == sorted(GOLDEN_SHA256)
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest, name
