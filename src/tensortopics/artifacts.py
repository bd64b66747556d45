"""Every versioned file of the pipeline, with its writer and its reader.

Each has an Artifact record here: the tensor container, the model of each
rank, selection.json with its selection.npy, and the report bundle's
report.json and summary.json. Every fault a reader finds raises a ValueError
naming the file.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cp_als import KruskalModel
from .ensemble import Component
from .sparse_tensor import AxisMap, SparseTensorCOO

HEADER_FILE = "header.json"
ENTRIES_FILE = "entries.tsv"
PAYLOAD_FILE = "entries.npy"
SELECTION_PAYLOAD_FILE = "selection.npy"
# save_tensor writes entries.npy and entries.tsv this many rows at a time, so
# neither the whole payload table nor the text of the whole file is ever in
# memory at once.
WRITE_CHUNK_ROWS = 16384


class Artifact(namedtuple("Artifact", "kind format schema_version stage")):
    """What a versioned file holds, its header's format and schema version,
    and the pipeline stage that rewrites it."""

    def stamp(self, **fields) -> dict:
        """A header of this artifact: its format and schema version, then `fields`."""
        return {"format": self.format, "schema_version": self.schema_version, **fields}


TENSOR = Artifact("tensor", "sparse-tensor-coo", 2, "ingest")
MODEL = Artifact("model", "kruskal-model", 3, "factorize")
SELECTION = Artifact("selection", "component-selection", 2, "select")
REPORT = Artifact("report", "component-report", 1, "report")
SUMMARY = Artifact("summary", "report-summary", 1, "report")


def write_json(path: Path, artifact: Artifact, **fields) -> dict:
    """Write `artifact.stamp(**fields)` to `path` as one line of compact JSON;
    returns it. Without `indent`, json.dumps runs CPython's C encoder. A NaN
    or infinite float is a ValueError: strict JSON has no literal for it."""
    header = artifact.stamp(**fields)
    path.write_text(json.dumps(header, allow_nan=False) + "\n", encoding="utf-8")
    return header


def write_payload(path: Path, dtype: np.dtype, shape: tuple[int, ...], chunks) -> int:
    """Write one C-ordered .npy array of `dtype` and `shape` to `path`, chunk
    by chunk; returns the CRC-32 of its data.

    `chunks` yields arrays of `dtype` whose rows, in turn, make up the whole
    array; each is written in C order, whatever its memory order, so a chunk
    that is not C-ordered is copied whole. The file is the bytes np.save writes
    for that array: its v1.0 header, then each chunk as it comes, folded
    into the CRC-32, so a caller that makes its chunks one at a time never
    holds the array whole.
    """
    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": tuple(shape)}
    crc32 = 0
    with path.open("wb") as out:
        np.lib.format.write_array_header_1_0(out, header)
        for chunk in chunks:
            chunk = np.ascontiguousarray(chunk)
            out.write(chunk)
            crc32 = zlib.crc32(chunk, crc32)
    return crc32


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
            raise ValueError(f"{source}: malformed {kind} header: no {exc.args[0]!r} key in {name!r}") from None
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


def json_finite(value):
    """A read_header converter that passes a JSON int or float that is a
    finite double unchanged; NaN, an infinity and an int beyond the double
    range are rejected."""
    value = of_json_type(int, float)(value)
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def read_payload(payload: Path, artifact: Artifact, dtype, shape, crc32, declared_by: str):
    """The C-ordered .npy table at `payload`, checked against the dtype, shape
    and CRC-32 that `declared_by` records; a float table must also hold only
    finite numbers. Every fault raises a ValueError naming the payload."""
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
            f"{declared_by} declares {dtype} of shape {shape}; rerun {artifact.stage}"
        )
    # A table stored in Fortran order reads back Fortran-ordered; crc32 needs C order.
    table = np.ascontiguousarray(table)
    if zlib.crc32(table) != crc32:
        raise ValueError(f"{payload}: CRC-32 does not match {declared_by}; rerun {artifact.stage}")
    if table.dtype.kind == "f" and not np.isfinite(table).all():
        raise ValueError(f"{payload}: {artifact.kind} payload holds NaN or inf; rerun {artifact.stage}")
    return table


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
    records. It is written through write_payload WRITE_CHUNK_ROWS rows at a
    time, each chunk's table filled from the tensor's coordinate and value
    arrays, so the whole (nnz,) table is never built. entries.tsv holds the
    same rows as text for outside readers only; no loader opens it. Its
    values are written with repr(), so they
    parse back bit for bit, WRITE_CHUNK_ROWS rows at a time, with each
    distinct value formatted once per chunk and each coordinate looked up
    in a per-call table of index texts. Nothing time- or
    environment-dependent is written.
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
    row = _row_dtype(d)

    def payload_chunks():
        for lo in range(0, tensor.nnz, WRITE_CHUNK_ROWS):
            hi = min(lo + WRITE_CHUNK_ROWS, tensor.nnz)
            chunk = np.empty(hi - lo, dtype=row)
            chunk["c"] = tensor.coords[lo:hi]
            chunk["v"] = tensor.values[lo:hi]
            yield chunk

    crc32 = write_payload(out_dir / PAYLOAD_FILE, row, (tensor.nnz,), payload_chunks())
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


def _read_header(in_dir: Path) -> tuple[tuple[int, ...], list[str], int, int]:
    """The shape, mode names, nnz and payload CRC-32 of a container's
    header.json; every fault raises a ValueError naming the file."""
    header_path = in_dir / HEADER_FILE
    if not header_path.is_file():
        raise ValueError(f"not a tensor container: missing {header_path}")
    _header, (shape, mode_names, nnz, crc32) = read_header(
        header_path.read_bytes(), header_path, TENSOR,
        shape=lambda v: tuple(_extent(n) for n in v), mode_names=_mode_names,
        nnz=json_int, payload_crc32=json_int,
    )
    if len(mode_names) != len(shape):
        raise ValueError(f"{header_path}: mode_names length does not match shape")
    return shape, mode_names, nnz, crc32


def tensor_payload_crc32(tensor_dir: str | Path) -> int:
    """The payload_crc32 that a tensor container's header.json records."""
    return _read_header(Path(tensor_dir))[3]


def _mode_names(value) -> list[str]:
    """A tensor header's mode names: a JSON list of distinct strings."""
    names = [of_json_type(str)(n) for n in of_json_type(list)(value)]
    if len(set(names)) != len(names):
        raise ValueError(f"mode_names repeats a name in {names}")
    return names


def _extent(value) -> int:
    """A mode's extent in a tensor header: a JSON integer of at least 1."""
    if json_int(value) < 1:
        raise ValueError(f"expected an extent >= 1, got {value}")
    return value


def load_axes(in_dir: str | Path) -> tuple[list[AxisMap], list[str]]:
    """The axis labels and mode names of a tensor container, without its entries.

    Validates the header and checks every label count against the header
    shape, as load_tensor does. Neither entries file is read.
    """
    in_dir = Path(in_dir)
    shape, mode_names, _nnz, _crc32 = _read_header(in_dir)
    return _read_axes(in_dir, shape), mode_names


def _read_axes(in_dir: Path, shape) -> list[AxisMap]:
    """Each mode's label file, whose label count must be its extent in `shape`."""
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
    return axes


def load_tensor(in_dir: str | Path) -> tuple[SparseTensorCOO, list[AxisMap], list[str]]:
    """Load a tensor container written by save_tensor.

    The numbers come from entries.npy, whose dtype, length and CRC-32 must
    match the header, and go through the SparseTensorCOO constructor's
    bounds, finiteness and positivity checks. entries.tsv is never read.
    Rejects unknown formats and any mismatch between the header shape, the
    entries and the per-mode label counts; every fault raises a ValueError
    naming the file.
    """
    in_dir = Path(in_dir)
    shape, mode_names, nnz, crc32 = _read_header(in_dir)
    d = len(shape)
    table = read_payload(in_dir / PAYLOAD_FILE, TENSOR, _row_dtype(d), (nnz,), crc32, HEADER_FILE)
    tensor = SparseTensorCOO(table["c"], table["v"], shape)
    if tensor.nnz != nnz:
        raise ValueError(
            f"{in_dir / PAYLOAD_FILE}: header says {nnz} entries, "
            f"the payload holds {tensor.nnz} distinct nonzero ones"
        )
    return tensor, _read_axes(in_dir, shape), mode_names


def _payload_path(path: Path) -> Path:
    """The model's binary number table: the model file's name plus ".npy"."""
    return path.with_name(path.name + ".npy")


def save_model(
    model: KruskalModel,
    path: str | Path,
    mode_names=None,
    labels_ref: str | None = None,
    tensor_payload_crc32: int | None = None,
) -> Path:
    """Write a model as a versioned text file plus its binary number table.

    The numbers go to `<path>.npy` first, through _write_table: the weights
    row and then each factor's rows. Then the text file: line 1 is a JSON
    header carrying the table's CRC-32, and the weights line and each factor
    row hold the same floats as format(x, ".16e") writes them (17
    significant digits, which read back bit for bit), one row per line,
    space-separated. write_float_rows makes that body in numpy, block by
    block, leaving to format() only the rare values its fast path cannot
    decide. load_model reads the numbers from the table; the text body is
    there for readers of the documented text format.
    Axis labels are referenced by path, never embedded; the header records
    `tensor_payload_crc32`, the payload CRC-32 of the tensor the model was
    fit to.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    crc32 = _write_table(_payload_path(path), model.weights, model.factors)
    header = MODEL.stamp(
        rank=model.rank,
        shape=list(model.shape),
        mode_names=list(mode_names) if mode_names is not None else None,
        labels_ref=labels_ref,
        tensor_payload_crc32=tensor_payload_crc32,
        payload_crc32=crc32,
    )
    with path.open("wb") as out:
        out.write((json.dumps(header) + "\n").encode())
        for block in [model.weights[None, :], *model.factors]:
            write_float_rows(out, block)
    return path


def remove_model(path: str | Path) -> list[Path]:
    """Delete the model file at `path` and its number table, where they
    exist. Returns the paths removed."""
    path = Path(path)
    removed = []
    for target in (path, _payload_path(path)):
        try:
            target.unlink()
        except FileNotFoundError:
            continue
        removed.append(target)
    return removed


def load_model(path: str | Path) -> tuple[KruskalModel, dict]:
    """Read a model written by save_model. Returns (model, header dict).

    Only the text file's header line is read, and its tensor_payload_crc32
    must be an int or null; the numbers come from `<path>.npy`, whose dtype,
    shape ((1 + sum(shape), rank)) and CRC-32 must match the header, and
    which must hold only finite numbers. Every fault raises a ValueError naming the file.
    """
    path = Path(path)
    with path.open("rb") as f:
        first = f.readline()
    if not first:
        raise ValueError(f"{path}: empty model file")
    header, (rank, shape, _fitted, crc32) = read_header(
        first.rstrip(b"\n"), path, MODEL,
        rank=json_int, shape=_model_shape,
        tensor_payload_crc32=of_json_type(int, type(None)), payload_crc32=json_int,
    )
    return _read_table(_payload_path(path), MODEL, shape, rank, crc32, f"the header of {path.name}"), header


def _model_shape(value) -> list[int]:
    """A model header's shape: a list of JSON integers, none negative."""
    shape = [json_int(n) for n in value]
    if any(n < 0 for n in shape):
        raise ValueError(f"negative extent in shape {shape}")
    return shape


def _write_table(path: Path, weights: np.ndarray, factors) -> int:
    """Write a Kruskal table to `path` through write_payload: one C-ordered
    float64 array, the weights row and then each (extent, rank) factor's
    rows. The blocks are streamed, so the table is never built whole and a
    C-ordered factor is written without a copy. Returns its CRC-32."""
    shape = (1 + sum(f.shape[0] for f in factors), weights.shape[0])
    return write_payload(path, np.dtype(np.float64), shape, [weights[None, :], *factors])


def _read_table(payload: Path, artifact: Artifact, shape, rank: int, crc32, declared_by: str) -> KruskalModel:
    """The Kruskal table that _write_table wrote to `payload`, checked by
    read_payload against `shape`, `rank` and `crc32`, as a model whose
    weights and factors are views of its rows."""
    table = read_payload(payload, artifact, np.dtype(np.float64), (1 + sum(shape), rank), crc32, declared_by)
    weights, *factors = np.split(table, np.cumsum([1, *shape])[:-1])
    return KruskalModel(weights=weights, factors=factors)


def save_selection(
    path: Path, shape, tensor_crc32: int, selection, ranks, word_mode: int, result, similarity_matrix: bool,
) -> None:
    """Write selection.json and, beside it, selection.npy.

    selection.npy holds the kept components' numbers, written through
    _write_table in a model payload's layout: the kept weights and factors
    form a (1 + sum(shape), kept) table, one column per kept component in
    kept order. selection.json records the settings, pooled ranks and
    counts, each kept component with its partners, the table's CRC-32, and
    what it was selected from: the tensor's label counts `shape` and its
    header's payload_crc32, `tensor_crc32`. With similarity_matrix it holds
    every cosine too.
    """
    kept = result.kept
    crc32 = _write_table(
        path.with_name(SELECTION_PAYLOAD_FILE),
        np.array([c.weight for c in kept], dtype=np.float64),
        [
            np.array([c.factor_slices[mode] for c in kept], dtype=np.float64).reshape(len(kept), extent).T
            for mode, extent in enumerate(shape)
        ],
    )
    fields = {
        "strategy": selection.strategy,
        "threshold": selection.threshold,
        "ranks": ranks,
        "word_mode": word_mode,
        "shape": list(shape),
        "tensor_payload_crc32": tensor_crc32,
        "payload_crc32": crc32,
        "pooled_count": result.pooled_count,
        "stable_count": result.stable_count,
        "kept": [
            {
                "origin_rank": c.origin_rank,
                "index_in_model": c.index_in_model,
                "weight": c.weight,
                "stability_partners": [list(p) for p in partners],
            }
            for c, partners in zip(kept, result.partners)
        ],
    }
    if similarity_matrix:
        # Null where a component was excluded.
        fields["similarity_matrix"] = [
            [None if math.isnan(x) else x for x in row] for row in result.similarities.tolist()
        ]
    write_json(path, SELECTION, **fields)


def load_selection(path: Path, tensor_dir: Path) -> tuple[int, list[Component], dict]:
    """A selection.json's word mode, its kept components and run meta: ranks,
    threshold and strategy, in their JSON types, for summary.json.

    Each kept component is built from its column of selection.npy, whose
    dtype, shape and CRC-32 must match selection.json and which must hold
    only finite numbers; no model is read. The selection must have been made
    from the tensor in tensor_dir as it is now: its recorded label counts and
    tensor payload CRC-32 must equal those of tensor_dir's header.json. Each
    kept index_in_model must lie in [0, origin_rank), and the threshold must
    be finite. Every fault raises a ValueError naming the file.
    """
    _header, (word_mode, kept, ranks, threshold, strategy, shape, tensor_crc32, crc32) = read_header(
        path.read_bytes(), path, SELECTION,
        word_mode=json_int,
        kept=lambda items: [(json_int(i["origin_rank"]), json_int(i["index_in_model"])) for i in items],
        ranks=lambda v: [json_int(r) for r in of_json_type(list)(v)],
        threshold=json_finite,
        strategy=of_json_type(str),
        shape=lambda v: tuple(json_int(n) for n in of_json_type(list)(v)),
        tensor_payload_crc32=json_int, payload_crc32=json_int,
    )
    extents, _names, _nnz, current_crc32 = _read_header(tensor_dir)
    if shape != extents:
        raise ValueError(
            f"{path}: selected from a tensor of label counts {shape}, "
            f"{tensor_dir} has {extents}; rerun select"
        )
    if tensor_crc32 != current_crc32:
        raise ValueError(
            f"{path}: selected from a tensor whose payload CRC-32 is {tensor_crc32}, "
            f"{tensor_dir / HEADER_FILE} records {current_crc32}; rerun select"
        )
    if not 0 <= word_mode < len(shape):
        raise ValueError(f"{path}: word_mode {word_mode} is outside [0, {len(shape)})")
    for pos, (rank, index) in enumerate(kept):
        if not 0 <= index < rank:
            raise ValueError(
                f"{path}: kept item {pos} (rank {rank}) has index_in_model {index}, "
                f"outside [0, {rank}); rerun select"
            )
    table = _read_table(path.with_name(SELECTION_PAYLOAD_FILE), SELECTION, shape, len(kept), crc32, path.name)
    components = [
        Component(rank, index, float(table.weights[j]), [np.array(f[:, j]) for f in table.factors])
        for j, (rank, index) in enumerate(kept)
    ]
    return word_mode, components, {"ranks": ranks, "threshold": threshold, "strategy": strategy}


@dataclass
class ComponentReport:
    """Top labels per mode for one kept component."""

    origin_rank: int
    index_in_model: int
    weight: float
    mode_tops: dict[str, list[tuple[str, float]]]
    keywords: list[tuple[str, float]]


def save_reports(reports, out_dir: Path, run_meta: dict) -> dict:
    """Write report.json (the reports, read back by load_reports) and summary.json
    (their count and run_meta's ranks, threshold and strategy); returns the summary."""
    write_json(
        out_dir / "report.json", REPORT,
        components=[
            {
                "origin_rank": r.origin_rank,
                "index_in_model": r.index_in_model,
                "weight": r.weight,
                "modes": {
                    name: [[label, score] for label, score in pairs]
                    for name, pairs in r.mode_tops.items()
                },
                "keywords": [[word, score] for word, score in r.keywords],
            }
            for r in reports
        ],
    )
    return write_json(
        out_dir / "summary.json", SUMMARY,
        component_count=len(reports),
        ranks=list(run_meta.get("ranks", [])),
        threshold=run_meta.get("threshold"),
        strategy=run_meta.get("strategy"),
    )


def load_reports(path: str | Path) -> list[ComponentReport]:
    """Read report.json back into ComponentReport objects (lossless), after
    checking its format and schema version; a non-string label or keyword, a
    non-finite weight or score, and every other fault raise a ValueError naming the file."""
    path = Path(path)
    number, text = json_finite, of_json_type(str)
    _header, (reports,) = read_header(
        path.read_bytes(), path, REPORT,
        components=lambda items: [
            ComponentReport(
                origin_rank=json_int(item["origin_rank"]),
                index_in_model=json_int(item["index_in_model"]),
                weight=float(number(item["weight"])),
                mode_tops={
                    name: [(text(label), float(number(score))) for label, score in pairs]
                    for name, pairs in item["modes"].items()
                },
                keywords=[(text(w), float(number(s))) for w, s in item["keywords"]],
            )
            for item in items
        ],
    )
    return reports
