"""Order-d sparse tensors in coordinate (COO) format, plus the on-disk container.

Coordinates are kept lexicographically sorted and coalesced so that every
downstream kernel (MTTKRP in particular) accumulates in a fixed order and
reruns are bitwise reproducible. The sort also makes each last-mode fiber
(the nonzeros sharing their first d-1 coordinates) a contiguous run, which
FiberIndex records for the MTTKRP kernel.

Every versioned file of the pipeline has an Artifact record here, and is
stamped, written and checked by the helpers beside it.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import namedtuple
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

HEADER_FILE = "header.json"
ENTRIES_FILE = "entries.tsv"
PAYLOAD_FILE = "entries.npy"
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
    Rows that are already strictly increasing (as a saved container's are)
    skip the sort and the coalescing, which would leave them unchanged.
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

        # Each row's row-major cell index is one int64 key in lexicographic
        # order, unless the cells outnumber int64; the rows themselves are
        # compared and lexsorted then.
        try:
            keys = np.ravel_multi_index(coords.T, shape)
        except ValueError:
            keys = None
        if keys is None:
            # From the last column to the first, consecutive rows are in order
            # if column k rises, or holds while the later columns are in order.
            prev, nxt = coords[:-1], coords[1:]
            ok = nxt[:, -1] > prev[:, -1]
            for k in range(d - 2, -1, -1):
                ok = (nxt[:, k] > prev[:, k]) | ((nxt[:, k] == prev[:, k]) & ok)
            rising = ok.all()
        else:
            rising = np.all(keys[1:] > keys[:-1])
        if not rising:
            # A stable sort keeps duplicates in input order, and bincount sums
            # each run in that order, so coalescing is deterministic (and
            # equal to np.unique(axis=0) plus bincount).
            if keys is None:
                order = np.lexsort(coords.T[::-1])
                starts = _run_starts(coords[order])
            else:
                order = np.argsort(keys, kind="stable")
                starts = _run_starts(keys[order])
            coords = coords[order]
            run_of = np.repeat(np.arange(starts.shape[0]), np.diff(np.r_[starts, coords.shape[0]]))
            values = np.bincount(run_of, weights=values[order], minlength=starts.shape[0])
            coords = coords[starts]
        keep = values != 0.0
        if not keep.all():
            coords, values = coords[keep], values[keep]
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


class Artifact(namedtuple("Artifact", "kind format schema_version stage")):
    """What a versioned file holds, its header's format and schema version,
    and the pipeline stage that rewrites it."""

    def stamp(self, **fields) -> dict:
        """A header of this artifact: its format and schema version, then `fields`."""
        return {"format": self.format, "schema_version": self.schema_version, **fields}


TENSOR = Artifact("tensor", "sparse-tensor-coo", 2, "ingest")
MODEL = Artifact("model", "kruskal-model", 2, "factorize")
SELECTION = Artifact("selection", "component-selection", 1, "select")
REPORT = Artifact("report", "component-report", 1, "report")
SUMMARY = Artifact("summary", "report-summary", 1, "report")


def write_json(path: Path, artifact: Artifact, **fields) -> dict:
    """Write `artifact.stamp(**fields)` to `path` as indented JSON; returns it."""
    header = artifact.stamp(**fields)
    path.write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
    return header


def write_payload(path: Path, table: np.ndarray) -> int:
    """Save `table` to `path` as one C-ordered .npy array, whatever its memory
    order (arranged factors can be Fortran-ordered); returns its CRC-32."""
    table = np.ascontiguousarray(table)
    np.save(path, table, allow_pickle=False)
    return zlib.crc32(table)


def read_header(raw, source: Path, artifact: Artifact, **fields) -> tuple[dict, list]:
    """The JSON header in `raw`, after checking its format and schema version,
    and its `fields` (name=converter) converted in order; every fault raises a
    ValueError naming `source`."""
    kind = artifact.kind
    try:
        header = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"{source}: unreadable {kind} header: {exc}") from exc
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != artifact.format:
        raise ValueError(f"{source}: unrecognized {kind} format {fmt!r}")
    if header.get("schema_version") != artifact.schema_version:
        raise ValueError(
            f"{source}: unsupported schema version {header.get('schema_version')!r} "
            f"(expected {artifact.schema_version}; rerun {artifact.stage})"
        )
    try:
        values = [convert(header[name]) for name, convert in fields.items()]
    except KeyError as exc:
        raise ValueError(f"{source}: {kind} header has no {exc.args[0]!r} field") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{source}: malformed {kind} header: {exc}") from exc
    return header, values


def read_payload(payload: Path, artifact: Artifact, dtype, shape, crc32, declared_by: str):
    """The C-ordered .npy table at `payload`, checked against the dtype, shape
    and CRC-32 that `declared_by` records; every fault raises a ValueError
    naming the payload."""
    try:
        # read_array, unlike np.load, accepts nothing but a .npy array.
        with payload.open("rb") as f:
            table = np.lib.format.read_array(f, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(
            f"{payload}: {artifact.kind} payload is missing; rerun {artifact.stage}"
        ) from None
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"{payload}: unreadable {artifact.kind} payload: {exc}") from exc
    if table.dtype != dtype or table.shape != shape:
        raise ValueError(
            f"{payload}: {table.dtype} table of shape {table.shape}, "
            f"{declared_by} declares {dtype} of shape {shape}"
        )
    # A table stored in Fortran order reads back Fortran-ordered; crc32 needs C order.
    table = np.ascontiguousarray(table)
    if zlib.crc32(table) != crc32:
        raise ValueError(f"{payload}: CRC-32 does not match {declared_by}")
    return table


def line_fields(data: bytes, sep: str) -> np.ndarray:
    """The number of `sep`-separated fields on each line of `data`, 0 for an
    empty line; a last line without its newline still counts."""
    buf = np.frombuffer(data, dtype=np.uint8)
    if data and not data.endswith(b"\n"):
        buf = np.append(buf, np.uint8(ord("\n")))
    ends = np.flatnonzero(buf == ord("\n"))
    # One more field than separators between a line's end and the previous one.
    fields = np.diff(np.searchsorted(np.flatnonzero(buf == ord(sep)), ends), prepend=0) + 1
    fields[np.diff(ends, prepend=-1) == 1] = 0
    return fields


def save_tensor(
    tensor: SparseTensorCOO,
    axes: Sequence[AxisMap],
    mode_names: Sequence[str],
    out_dir: str | Path,
) -> Path:
    """Write the tensor container: entries.npy, header.json, entries.tsv and
    one label file per mode.

    entries.npy holds the numbers that load_tensor reads: one C-ordered
    array of [("c", "<i8", (d,)), ("v", "<f8")] rows (the coordinates, then
    the value) in the tensor's sorted order, whose CRC-32 header.json
    records. entries.tsv
    holds the same rows as text, for outside readers: values serialized
    with repr(), so they parse back bit for bit. It is written
    WRITE_CHUNK_ROWS rows at a time, with each distinct value formatted once
    per chunk and each coordinate looked up in a per-call table of index
    texts. Nothing time- or environment-dependent is written.
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
    table = np.empty(tensor.nnz, dtype=_row_dtype(d))
    table["c"] = tensor.coords
    table["v"] = tensor.values
    crc32 = write_payload(out_dir / PAYLOAD_FILE, table)
    write_json(
        out_dir / HEADER_FILE, TENSOR,
        shape=list(tensor.shape),
        mode_names=[str(n) for n in mode_names],
        nnz=tensor.nnz,
        payload_crc32=crc32,
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


def _row_dtype(d: int) -> np.dtype:
    """One entry of an order-d tensor: its d coordinates, then its value."""
    return np.dtype([("c", "<i8", (d,)), ("v", "<f8")])


def _read_header(in_dir: Path) -> tuple[tuple[int, ...], list[str], int, int | None]:
    """The shape, mode names, nnz and payload CRC-32 of a container's
    header.json; every fault raises a ValueError naming the file."""
    header_path = in_dir / HEADER_FILE
    if not header_path.is_file():
        raise ValueError(f"not a tensor container: missing {header_path}")
    header, (shape, mode_names, nnz) = read_header(
        header_path.read_bytes(), header_path, TENSOR,
        shape=lambda v: tuple(int(n) for n in v),
        mode_names=lambda v: [str(n) for n in v],
        nnz=int,
    )
    if len(mode_names) != len(shape):
        raise ValueError(f"{header_path}: mode_names length does not match shape")
    return shape, mode_names, nnz, header.get("payload_crc32")


def load_axes(in_dir: str | Path) -> tuple[list[AxisMap], list[str]]:
    """The axis labels and mode names of a tensor container, without its entries.

    Validates the header and checks every label count against the header
    shape; load_tensor reads its axes through here. Neither entries file is read.
    """
    in_dir = Path(in_dir)
    shape, mode_names, _nnz, _crc32 = _read_header(in_dir)
    axes: list[AxisMap] = []
    for k, extent in enumerate(shape):
        labels_path = in_dir / f"mode{k}.labels.txt"
        if not labels_path.is_file():
            raise ValueError(f"not a tensor container: missing {labels_path}")
        labels = labels_path.read_text(encoding="utf-8").split("\n")
        if labels[-1] == "":
            labels.pop()
        if len(labels) != extent:
            raise ValueError(
                f"{labels_path}: mode {k} has {len(labels)} labels but extent {extent}"
            )
        axes.append(AxisMap(labels))
    return axes, mode_names


def load_tensor(in_dir: str | Path) -> tuple[SparseTensorCOO, list[AxisMap], list[str]]:
    """Load a tensor container written by save_tensor.

    entries.tsv must be present and hold one line of d + 1 tab-separated
    fields per entry, which is checked line by line (blank lines are skipped
    but still count toward the line number that names a bad line); its
    numbers are not parsed. The numbers come from entries.npy, whose dtype,
    length and CRC-32 must match the header, and go through the
    SparseTensorCOO constructor's bounds, finiteness and positivity checks.
    Rejects unknown formats and any mismatch between the header shape, the
    entries and the per-mode label counts; every fault raises a ValueError
    naming the file.
    """
    in_dir = Path(in_dir)
    shape, _mode_names, nnz, crc32 = _read_header(in_dir)
    d = len(shape)
    entries_path = in_dir / ENTRIES_FILE
    if not entries_path.is_file():
        raise ValueError(f"not a tensor container: missing {entries_path}")
    fields = line_fields(entries_path.read_bytes(), "\t")
    bad = np.flatnonzero((fields != d + 1) & (fields != 0))
    if bad.size:
        raise ValueError(
            f"{entries_path}:{bad[0] + 1}: expected {d + 1} fields, got {fields[bad[0]]}"
        )
    rows = np.count_nonzero(fields)
    if rows != nnz:
        raise ValueError(f"{entries_path}: header says {nnz} entries, file holds {rows}")
    table = read_payload(in_dir / PAYLOAD_FILE, TENSOR, _row_dtype(d), (nnz,), crc32, HEADER_FILE)
    tensor = SparseTensorCOO(table["c"], table["v"], shape)
    if tensor.nnz != nnz:
        raise ValueError(
            f"{in_dir / PAYLOAD_FILE}: header says {nnz} entries, "
            f"the payload holds {tensor.nnz} distinct nonzero ones"
        )
    return (tensor, *load_axes(in_dir))
