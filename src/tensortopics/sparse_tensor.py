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

import functools
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
    Rows that are already strictly increasing (as a saved container's and
    build_counts' are) skip the sort and the coalescing, which would leave
    them unchanged; any other rows are lexsorted.
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

        # From the last column to the first, consecutive rows are in order if
        # column k rises, or holds while the later columns are in order.
        prev, nxt = coords[:-1], coords[1:]
        rising = nxt[:, -1] > prev[:, -1]
        for k in range(d - 2, -1, -1):
            rising = (nxt[:, k] > prev[:, k]) | ((nxt[:, k] == prev[:, k]) & rising)
        if not rising.all():
            # lexsort is stable, so bincount sums each run of duplicates in
            # input order: coalescing is deterministic (and equal to
            # np.unique(axis=0) plus bincount), at any shape.
            order = np.lexsort(coords.T[::-1])
            coords = coords[order]
            starts = _run_starts(coords)
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
    """Write `artifact.stamp(**fields)` to `path` as one line of compact JSON;
    returns it. Without `indent`, json.dumps runs CPython's C encoder."""
    header = artifact.stamp(**fields)
    path.write_text(json.dumps(header) + "\n", encoding="utf-8")
    return header


def write_payload(path: Path, table: np.ndarray) -> int:
    """Save `table` to `path` as one C-ordered .npy array, whatever its memory
    order (arranged factors can be Fortran-ordered); returns its CRC-32."""
    table = np.ascontiguousarray(table)
    np.save(path, table, allow_pickle=False)
    return zlib.crc32(table)


# write_float_rows formats this many floats at a time, so neither the text of
# a whole table nor a (values x width) byte array of it is ever held.
FLOAT_CHUNK_VALUES = 1 << 15
# The fast path takes magnitudes in [_FAST_MIN, _FAST_MAX]: there every
# product and Dekker split below stays a finite normal double.
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_S_MIN, _S_MAX = -236, 268  # the decimal scales s those magnitudes need
_SPLIT = 134217729.0  # 2**27 + 1
# A rounding decision within this distance of a tie is left to format(); the
# scaled value is accurate to about 1e-14.
_UNSURE = 1e-7
# The width of a value's byte row: sign, text, separator; NUL fills the rest.
_CELL = 25


@functools.cache
def _pow10_table() -> tuple[np.ndarray, ...]:
    """10**s for s in [_S_MIN, _S_MAX] as hi + lo (each correctly rounded,
    by int division), with hi's Dekker split head + tail."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    head = hi * _SPLIT
    head -= head - hi
    return hi, head, hi - head, np.array(lo)


def _scaled(x: np.ndarray, s: np.ndarray):
    """x * 10**s as a double-double y + r, by Dekker's exact product."""
    hi, head, tail, lo = (t[s - _S_MIN] for t in _pow10_table())
    p = x * hi
    xh = x * _SPLIT
    xh -= xh - x
    xl = x - xh
    t = (((xh * head - p) + xh * tail + xl * head) + xl * tail) + x * lo
    y = p + t
    return y, t - (y - p)


def _digits17(x: np.ndarray):
    """x's 17 significant digits, correctly rounded, as an int64 n in
    [1e16, 1e17) with x ~ n * 10**-s; s; and which x the fast path cannot decide.

    y = x * 10**s is an even integer in [1e16, 1e17), so n is y + r rounded;
    y < 1e17 - 8 and |r| <= 8, so n never carries to 1e17. y == 1e16 with
    r < 0 lies one decimal exponent lower, and goes to format() with the ties.
    """
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    y, r = _scaled(x, s)
    redo = np.flatnonzero((y < 1e16) | (y >= 1e17))  # log10 was off by one
    s[redo] += np.where(y[redo] < 1e16, 1, -1)
    y[redo], r[redo] = _scaled(x[redo], s[redo])
    whole = np.rint(r)
    unsure = (np.abs(np.abs(r - whole) - 0.5) <= _UNSURE) | (y < 1e16) | (y >= 1e17)
    unsure |= (y == 1e16) & (r < 0)
    return y.astype(np.int64) + whole.astype(np.int64), s, unsure


@functools.cache
def _exponent_text() -> np.ndarray:
    """%e's exponent 16 - s for each scale s of _pow10_table ("e+05",
    "e-100"), as 5-byte rows padded with NUL."""
    return np.array([list(b"e%+03d\0" % (16 - s))[:5] for s in range(_S_MIN, _S_MAX + 1)], np.uint8)


@functools.cache
def _digit_words() -> np.ndarray:
    """"0000".."9999" as little-endian 4-byte words."""
    return np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype="<u4")


def _ascii_digits(digits: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each int64 in [1e16, 1e17), as ASCII rows."""
    table = _digit_words()
    words = np.empty((digits.shape[0], 5), dtype="<u4")
    hi, lo = np.divmod(digits, 10**8)
    hi, lo = hi.astype(np.uint32), lo.astype(np.uint32)
    words[:, 4] = table[lo % 10000]
    words[:, 3] = table[lo // 10000]
    words[:, 2] = table[hi % 10000]
    hi //= 10000
    words[:, 1] = table[hi % 10000]
    words[:, 0] = (hi // 10000 + ord("0")) << 24
    return words.view(np.uint8)[:, 3:]


def _float_text(values: np.ndarray, width: int) -> bytes:
    """format(x, ".16e") of each float64 x in `values`, a space after each and
    a newline after every `width`-th, as one bytes object."""
    cells = np.zeros((values.shape[0], _CELL), dtype=np.uint8)
    cells[:, -1] = ord(" ")
    cells[width - 1::width, -1] = ord("\n")
    mag = np.abs(values)
    # Zeros, subnormals, inf, nan and the far ends of the range go to format().
    sure = (mag >= _FAST_MIN) & (mag <= _FAST_MAX)
    digits, s, unsure = _digits17(mag[sure])
    sure[sure] = ~unsure
    digits = _ascii_digits(digits[~unsure])
    # -d.dddddddddddddddde+dd, with a third exponent digit from 1e100 on.
    text = np.zeros((digits.shape[0], _CELL - 1), dtype=np.uint8)
    text[:, 0] = np.signbit(values[sure]) * np.uint8(ord("-"))
    text[:, 1] = digits[:, 0]
    text[:, 2] = ord(".")
    text[:, 3:19] = digits[:, 1:]
    text[:, 19:] = _exponent_text()[s[~unsure] - _S_MIN]
    cells[sure, :-1] = text
    for i in np.flatnonzero(~sure).tolist():
        exact = format(float(values[i]), ".16e").encode()
        cells[i, :len(exact)] = np.frombuffer(exact, dtype=np.uint8)
    return cells[cells != 0].tobytes()


def write_float_rows(out, table: np.ndarray) -> None:
    """Write each row of the float64 `table` to the binary file `out` as
    `" ".join(format(x, ".16e") for x in row.tolist()) + "\\n"`, byte for
    byte: C's %.16e, 17 correctly rounded significant digits, which read back
    as the same double (Matula 1968; Goldberg 1991). The text is made in
    numpy, FLOAT_CHUNK_VALUES floats at a time: each value is scaled by a
    power of ten as an exact double-double (Dekker 1971) and rounded, the
    rare values that cannot be decided so go to format(), and one mask
    compacts the fixed-width byte rows.
    """
    table = np.asarray(table, dtype=np.float64)
    rows, width = table.shape
    if width == 0:
        out.write(b"\n" * rows)
        return
    step = max(1, FLOAT_CHUNK_VALUES // width)
    for lo in range(0, rows, step):
        out.write(_float_text(table[lo:lo + step].ravel(), width))


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
    values = []
    for name, convert in fields.items():
        if name not in header:
            raise ValueError(f"{source}: {kind} header has no {name!r} field")
        try:
            values.append(convert(header[name]))
        except KeyError as exc:
            key = exc.args[0]
            raise ValueError(f"{source}: malformed {kind} header: no {key!r} key in {name!r}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"{source}: malformed {kind} header: {exc}") from exc
    return header, values


def of_json_type(*types):
    """A read_header converter that passes a value whose type is exactly one
    of `types` unchanged (so a bool is no int) and rejects any other."""

    def convert(value):
        if type(value) not in types:
            raise ValueError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
        return value

    return convert


# A JSON integer field: 3.9, 3.0 and true are all rejected, never truncated.
json_int = of_json_type(int)


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
        shape=lambda v: tuple(json_int(n) for n in v),
        mode_names=lambda v: [str(n) for n in v],
        nnz=json_int,
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
