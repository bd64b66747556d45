"""Order-d sparse tensors in coordinate (COO) format, plus the on-disk container.

Coordinates are kept lexicographically sorted and coalesced so that every
downstream kernel (MTTKRP in particular) accumulates in a fixed order and
reruns are bitwise reproducible. The sort also makes each last-mode fiber
(the nonzeros sharing their first d-1 coordinates) a contiguous run, which
FiberIndex records for the MTTKRP kernel.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

TENSOR_FORMAT = "sparse-tensor-coo"
TENSOR_SCHEMA_VERSION = 1
HEADER_FILE = "header.json"
ENTRIES_FILE = "entries.tsv"
# save_tensor formats entries.tsv this many rows at a time, so the text of
# the whole file is never in memory at once.
WRITE_CHUNK_ROWS = 16384


class AxisMap:
    """Bidirectional label <-> index mapping for one tensor mode.

    Labels are unique strings; index order is insertion order.
    """

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        self.labels: list[str] = [str(label) for label in labels]
        self._index: dict[str, int] = {}
        for i, label in enumerate(self.labels):
            if label in self._index:
                raise ValueError(f"duplicate axis label {label!r}")
            self._index[label] = i

    def index_of(self, label: str) -> int:
        return self._index[label]

    def label_of(self, index: int) -> str:
        return self.labels[index]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, AxisMap) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"AxisMap({len(self.labels)} labels)"


class Segments(NamedTuple):
    """Rows grouped by a key, for summing with np.add.reduceat.

    fibers[i] is the fiber that supplies the i-th row in summation order;
    the rows of each run starts[j]:starts[j + 1] share the key targets[j].
    """

    fibers: np.ndarray
    starts: np.ndarray
    targets: np.ndarray


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Start index of each run of equal consecutive rows (or elements)."""
    changed = rows[1:] != rows[:-1]
    if rows.ndim == 2:
        changed = np.any(changed, axis=1)
    return np.flatnonzero(np.r_[rows.shape[0] > 0, changed])


def _segments(keys: np.ndarray, fibers: np.ndarray) -> tuple[np.ndarray, Segments]:
    """Stable sort order of `keys` and the Segments it induces on `fibers`."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return order, Segments(fibers[order], starts, keys[starts])


@dataclass(frozen=True)
class FiberIndex:
    """The last-mode fibers of a sorted tensor: one level of compressed sparse
    fiber (CSF) storage.

    starts : (S,) first nonzero of each fiber; coords : (S, d-1) its leading
    coordinates; leaf : (nnz,) each nonzero's last coordinate, contiguous for
    fast gathers. segments[k] groups rows by their mode-k coordinate: the S
    fibers for k < d-1, the nonzeros (stably sorted by last coordinate) for
    the last mode, whose values in that order are leaf_values.
    """

    starts: np.ndarray
    coords: np.ndarray
    leaf: np.ndarray
    segments: tuple[Segments, ...]
    leaf_values: np.ndarray

    @classmethod
    def build(cls, coords: np.ndarray, values: np.ndarray) -> "FiberIndex":
        lead = coords[:, :-1]
        starts = _run_starts(lead)
        fiber_coords = lead[starts]
        fiber_ids = np.arange(starts.shape[0])
        segments = [_segments(fiber_coords[:, k], fiber_ids)[1] for k in range(lead.shape[1])]
        fiber_of = np.repeat(fiber_ids, np.diff(np.r_[starts, coords.shape[0]]))
        leaf = np.ascontiguousarray(coords[:, -1])
        order, by_leaf = _segments(leaf, fiber_of)
        return cls(starts, fiber_coords, leaf, (*segments, by_leaf), values[order])


class SparseTensorCOO:
    """Immutable sparse tensor with sorted, coalesced, strictly positive entries.

    Attributes
    ----------
    shape : tuple[int, ...]
        Extent of each mode, all positive.
    coords : np.ndarray
        (nnz, d) int64 coordinates in lexicographic row order.
    values : np.ndarray
        (nnz,) float64 values, finite and > 0, aligned with coords.

    Construction sorts, coalesces duplicates by summation, and drops exact
    zeros, so the same logical entries always produce the same arrays.
    The arrays are marked read-only; instances are safe to share across
    threads.
    """

    __slots__ = ("shape", "coords", "values", "_fibers")

    def __init__(self, coords, values, shape: Sequence[int]):
        shape = tuple(int(n) for n in shape)
        if len(shape) == 0:
            raise ValueError("tensor order must be at least 1")
        if any(n <= 0 for n in shape):
            raise ValueError(f"shape must have positive extents, got {shape}")
        d = len(shape)

        coords = np.array(coords, dtype=np.int64)
        if coords.size == 0:
            coords = coords.reshape(0, d)
        if coords.ndim != 2 or coords.shape[1] != d:
            raise ValueError(
                f"coords must be (nnz, {d}) for an order-{d} tensor, got {coords.shape}"
            )
        values = np.array(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != coords.shape[0]:
            raise ValueError(
                f"{coords.shape[0]} coordinates but {values.shape[0]} values"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("tensor values must be finite")

        for k in range(d):
            col = coords[:, k]
            if col.size and (col.min() < 0 or col.max() >= shape[k]):
                bad = int(col[(col < 0) | (col >= shape[k])][0])
                raise ValueError(
                    f"coordinate {bad} out of bounds for mode {k} (extent {shape[k]})"
                )

        if coords.shape[0]:
            # A stable lexicographic sort keeps duplicates in input order, and
            # bincount sums each run in that order, so coalescing is
            # deterministic (and equal to np.unique(axis=0) plus bincount).
            order = np.lexsort(coords.T[::-1])
            coords = coords[order]
            starts = _run_starts(coords)
            run_of = np.repeat(np.arange(starts.shape[0]), np.diff(np.r_[starts, coords.shape[0]]))
            summed = np.bincount(run_of, weights=values[order], minlength=starts.shape[0])
            keep = summed != 0.0
            coords = coords[starts[keep]]
            values = summed[keep]
        if np.any(values <= 0.0):
            raise ValueError("tensor values must be positive after coalescing")

        coords.setflags(write=False)
        values.setflags(write=False)
        self.shape = shape
        self.coords = coords
        self.values = values
        self._fibers = None

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        return density_value(self.nnz, self.shape)

    @property
    def fibers(self) -> FiberIndex:
        """The last-mode fiber index, built on first use and then cached.

        The tensor is immutable, so the index never goes stale. Threads that
        race on the first use each build the same index; either one is kept.
        """
        if self._fibers is None:
            self._fibers = FiberIndex.build(self.coords, self.values)
        return self._fibers

    def frobenius_norm(self) -> float:
        """Square root of the sum of squared stored values."""
        return math.sqrt(float(np.dot(self.values, self.values)))

    def entries(self):
        """Yield (coordinate tuple, value) pairs in sorted order."""
        for row, value in zip(self.coords, self.values):
            yield tuple(int(c) for c in row), float(value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensorCOO)
            and self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"SparseTensorCOO(shape={self.shape}, nnz={self.nnz})"


def from_entries(
    entries: Iterable[tuple[Sequence[int], float]], shape: Sequence[int]
) -> SparseTensorCOO:
    """Build a tensor from (coordinate, value) pairs.

    Duplicate coordinates are permitted and coalesced by summation; entries
    that sum to exactly zero are dropped.
    """
    entries = list(entries)
    coords = [e[0] for e in entries]
    values = [e[1] for e in entries]
    return SparseTensorCOO(coords, values, shape)


def density_value(nnz: int, shape: Sequence[int]) -> float:
    """nnz divided by the total cell count, computed in exact integer arithmetic.

    Kept separate from the tensor type so corpus-scale shapes (cell counts
    near 1e20, far past int64) can be checked without materializing anything.
    """
    cells = math.prod(int(n) for n in shape)
    if cells <= 0:
        raise ValueError(f"shape must have positive extents, got {tuple(shape)}")
    return nnz / cells


def save_tensor(
    tensor: SparseTensorCOO,
    axes: Sequence[AxisMap],
    mode_names: Sequence[str],
    out_dir: str | Path,
) -> Path:
    """Write the tensor container: header.json, entries.tsv, one label file per mode.

    Values are serialized with repr() so loading reproduces them bit for bit;
    nothing time- or environment-dependent is written. entries.tsv is written
    WRITE_CHUNK_ROWS rows at a time, with each distinct value formatted once
    per chunk and each coordinate looked up in a per-call table of index texts.
    """
    out_dir = Path(out_dir)
    d = tensor.order
    if len(axes) != d or len(mode_names) != d:
        raise ValueError(f"expected {d} axes and mode names, got {len(axes)}/{len(mode_names)}")
    for k, axis in enumerate(axes):
        if len(axis) != tensor.shape[k]:
            raise ValueError(
                f"axis for mode {k} has {len(axis)} labels, tensor extent is {tensor.shape[k]}"
            )
        for label in axis.labels:
            if "\n" in label or "\r" in label:
                raise ValueError(f"axis label {label!r} in mode {k} contains a newline")

    out_dir.mkdir(parents=True, exist_ok=True)
    header = {
        "format": TENSOR_FORMAT,
        "schema_version": TENSOR_SCHEMA_VERSION,
        "shape": list(tensor.shape),
        "mode_names": [str(n) for n in mode_names],
        "nnz": tensor.nnz,
    }
    (out_dir / HEADER_FILE).write_text(
        json.dumps(header, indent=2) + "\n", encoding="utf-8"
    )
    # The decimal text of every index, formatted once; the axes already hold
    # one label per index, so the table is no larger than they are.
    digits = np.array([str(i) for i in range(max(tensor.shape))], dtype=object)
    with (out_dir / ENTRIES_FILE).open("w", encoding="utf-8") as fh:
        for lo in range(0, tensor.nnz, WRITE_CHUNK_ROWS):
            rows = slice(lo, lo + WRITE_CHUNK_ROWS)
            # repr once per distinct value: ln(1 + count) takes few values
            distinct, which = np.unique(tensor.values[rows], return_inverse=True)
            texts = [repr(v) for v in distinct.tolist()]
            columns = [digits[col].tolist() for col in tensor.coords[rows].T]
            columns.append([texts[i] for i in which.tolist()])
            fh.write("\n".join(map("\t".join, zip(*columns))) + "\n")
    for k, axis in enumerate(axes):
        path = out_dir / f"mode{k}.labels.txt"
        path.write_text(
            "\n".join(axis.labels) + ("\n" if axis.labels else ""), encoding="utf-8"
        )
    return out_dir


def _read_header(in_dir: Path) -> tuple[tuple[int, ...], list[str], int]:
    """Validated (shape, mode_names, nnz) from a container's header.json."""
    header_path = in_dir / HEADER_FILE
    if not header_path.is_file():
        raise ValueError(f"not a tensor container: missing {header_path}")
    header = json.loads(header_path.read_text(encoding="utf-8"))
    if header.get("format") != TENSOR_FORMAT:
        raise ValueError(f"unrecognized tensor format {header.get('format')!r}")
    if header.get("schema_version") != TENSOR_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {header.get('schema_version')!r}")
    shape = tuple(int(n) for n in header["shape"])
    mode_names = [str(n) for n in header["mode_names"]]
    if len(mode_names) != len(shape):
        raise ValueError("header mode_names length does not match shape")
    return shape, mode_names, int(header["nnz"])


def _read_axes(in_dir: Path, shape: Sequence[int]) -> list[AxisMap]:
    axes: list[AxisMap] = []
    for k, extent in enumerate(shape):
        labels_path = in_dir / f"mode{k}.labels.txt"
        if not labels_path.is_file():
            raise ValueError(f"not a tensor container: missing {labels_path}")
        text = labels_path.read_text(encoding="utf-8")
        labels = text.split("\n")
        if labels and labels[-1] == "":
            labels.pop()
        if len(labels) != extent:
            raise ValueError(f"mode {k} has {len(labels)} labels but extent {extent}")
        axes.append(AxisMap(labels))
    return axes


def load_axes(in_dir: str | Path) -> tuple[list[AxisMap], list[str]]:
    """The axis labels and mode names of a tensor container, without its entries.

    Validates the header and checks every label count against the header
    shape, exactly as load_tensor does; entries.tsv is not read.
    """
    in_dir = Path(in_dir)
    shape, mode_names, _nnz = _read_header(in_dir)
    return _read_axes(in_dir, shape), mode_names


def _raise_bad_entry_line(entries_path: Path, fields: int) -> None:
    """Name the first non-blank line of entries.tsv without `fields` fields."""
    with entries_path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            got = line.count("\t") + 1
            if line.rstrip("\n") and got != fields:
                raise ValueError(f"{entries_path}:{line_no}: expected {fields} fields, got {got}")


def load_tensor(in_dir: str | Path) -> tuple[SparseTensorCOO, list[AxisMap], list[str]]:
    """Load a tensor container written by save_tensor.

    Rejects unknown formats and any mismatch between the header shape, the
    entry coordinates, and the per-mode label counts.
    """
    in_dir = Path(in_dir)
    shape, mode_names, nnz = _read_header(in_dir)
    d = len(shape)
    entries_path = in_dir / ENTRIES_FILE
    if not entries_path.is_file():
        raise ValueError(f"not a tensor container: missing {entries_path}")
    # One C parse of the whole file; coordinates are read as integers.
    row = np.dtype([("c", np.int64, (d,)), ("v", np.float64)])
    if entries_path.stat().st_size == 0:
        table = np.zeros(0, dtype=row)
    else:
        try:
            table = np.loadtxt(
                entries_path, dtype=row, delimiter="\t", comments=None, ndmin=1, encoding="utf-8"
            )
        except ValueError as exc:
            _raise_bad_entry_line(entries_path, d + 1)
            raise ValueError(f"{entries_path}: {exc}") from exc
    tensor = SparseTensorCOO(table["c"], table["v"], shape)
    if tensor.nnz != nnz:
        raise ValueError(f"header says {nnz} entries, file holds {tensor.nnz}")
    return tensor, _read_axes(in_dir, shape), mode_names
