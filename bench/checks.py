"""The benchmark's own readers and oracles, independent of the library.

The tensor and model readers parse the documented text formats with numpy
alone; the MTTKRP and fit oracles work column by column with np.bincount,
a different summation path from the library's gather and scatter.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

FIT_LOG_RE = re.compile(r"rank (\d+): fit (-?[0-9.]+(?:e-?\d+)?) after (\d+) sweep\(s\)")


def read_tensor(tensor_dir: Path) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(coords, values, shape) of a tensor container's entries.tsv."""
    header = json.loads((tensor_dir / "header.json").read_text(encoding="utf-8"))
    shape = tuple(int(n) for n in header["shape"])
    table = np.array((tensor_dir / "entries.tsv").read_text(encoding="utf-8").split(), dtype=np.float64)
    table = table.reshape(-1, len(shape) + 1)
    return table[:, :-1].astype(np.int64), table[:, -1].copy(), shape


def read_model(path: Path) -> tuple[np.ndarray, list[np.ndarray]]:
    """(weights, factors) of a model file."""
    header_line, _, body = path.read_text(encoding="utf-8").partition("\n")
    header = json.loads(header_line)
    rank = int(header["rank"])
    numbers = np.array(body.split(), dtype=np.float64)
    weights = numbers[:rank]
    factors = []
    cursor = rank
    for extent in header["shape"]:
        factors.append(numbers[cursor : cursor + extent * rank].reshape(extent, rank))
        cursor += extent * rank
    if cursor != numbers.shape[0]:
        raise ValueError(f"{path}: {numbers.shape[0]} numbers, header implies {cursor}")
    return weights, factors


def reference_mttkrp(coords, values, factors, mode: int, extent: int) -> np.ndarray:
    rank = factors[(mode + 1) % len(factors)].shape[1]
    out = np.empty((extent, rank))
    for r in range(rank):
        column = values.copy()
        for k, f in enumerate(factors):
            if k != mode:
                column *= f[coords[:, k], r]
        out[:, r] = np.bincount(coords[:, mode], weights=column, minlength=extent)
    return out


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return float(np.max(np.abs(got - want))) / (scale if scale > 0.0 else 1.0)


def reference_fit(coords, values, weights, factors) -> float:
    """1 - ||X - M|| / ||X|| with <X, M> summed entry by entry over the nonzeros."""
    model_at_entries = np.zeros(values.shape[0])
    for r in range(weights.shape[0]):
        column = np.full(values.shape[0], weights[r])
        for k, f in enumerate(factors):
            column *= f[coords[:, k], r]
        model_at_entries += column
    inner = float(values @ model_at_entries)
    gram = np.ones((weights.shape[0], weights.shape[0]))
    for f in factors:
        gram *= f.T @ f
    norm_m_sq = float(weights @ gram @ weights)
    norm_x_sq = float(values @ values)
    return 1.0 - math.sqrt(max(norm_x_sq + norm_m_sq - 2.0 * inner, 0.0)) / math.sqrt(norm_x_sq)


def parse_fit_log(stderr: str) -> dict[int, tuple[float, int]]:
    """{rank: (fit, sweeps)} from the factorize stage's log lines."""
    return {int(m[1]): (float(m[2]), int(m[3])) for m in FIT_LOG_RE.finditer(stderr)}


def tree_hash(paths) -> str:
    """sha256 over the relative names and bytes of every file under `paths`."""
    digest = hashlib.sha256()
    for top in paths:
        top = Path(top)
        if top.is_dir():
            files = sorted(p for p in top.rglob("*") if p.is_file())
        else:
            files = [top] if top.is_file() else []
        for p in files:
            digest.update(str(p.relative_to(top.parent)).encode())
            digest.update(b"\0")
            digest.update(p.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()
