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
import os
import zlib
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cp_als import KruskalModel
from .sparse_tensor import AxisMap, SparseTensorCOO, _run_starts

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
MODEL = Artifact("model", "kruskal-model", 4, "factorize")
SELECTION = Artifact("selection", "component-selection", 3, "select")
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
# a whole table nor a (values x 24) byte array of it is ever held.
FLOAT_CHUNK_VALUES = 1 << 15
# The fast path takes magnitudes in [_FAST_MIN, _FAST_MAX): there %e's exponent
# has two digits, and every product and Dekker split below stays a finite
# normal double.
_FAST_MIN, _FAST_MAX = 1e-99, 1e100
# The decimal scales s those magnitudes need, one further where log10 misjudges.
_S_MIN, _S_MAX = -84, 116
_SPLIT = 134217729.0  # 2**27 + 1
# A rounding decision within this distance of a tie is left to format(); the
# scaled value is accurate to about 1e-14.
_UNSURE = 1e-7


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
    y < 1e17 - 8 and |r| <= 8, so n never carries to 1e17. A scale that log10
    misjudged puts y outside [1e16, 1e17), and y == 1e16 with r < 0 lies one
    decimal exponent lower: both go to format() with the ties.
    """
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    y, r = _scaled(x, s)
    whole = np.rint(r)
    unsure = (np.abs(np.abs(r - whole) - 0.5) <= _UNSURE) | (y < 1e16) | (y >= 1e17)
    unsure |= (y == 1e16) & (r < 0)
    return y.astype(np.int64) + whole.astype(np.int64), s, unsure


def _digit_words(width: int) -> np.ndarray:
    """The ASCII digits of 0 to 10**width - 1, zero-padded to `width`, as
    little-endian uint64 words: the most significant digit in byte 0. Each
    pass appends one digit byte to every word so far, in numeric order."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    words = digits
    for k in range(1, width):
        words = (words[:, None] | digits << 8 * k).ravel()
    return words


@functools.cache
def _text_words() -> tuple[np.ndarray, ...]:
    """The little-endian words that _float_text ORs into its cells, as uint64:
    "0000" to "9999"; "000" to "999"; for n in [10, 100), n's digits around
    the point in bytes 1 to 3; and for each scale s of _pow10_table, %e's
    exponent 16 - s, where it has two digits, and a space in bytes 3 to 7."""
    texts = (
        [b"\0%d.%d" % divmod(n, 10) for n in range(100)],
        [b"\0\0\0e%+03d " % (16 - s) if abs(16 - s) < 100 else b"" for s in range(_S_MIN, _S_MAX + 1)],
    )
    lead, exponent = (np.frombuffer(b"".join(t.ljust(8, b"\0") for t in table), dtype="<u8") for table in texts)
    return _digit_words(4), _digit_words(3), lead, exponent


def _float_text(values: np.ndarray, width: int) -> bytes:
    """format(x, ".16e") of each float64 x in `values`, a space after each and
    a newline after every `width`-th, as one bytes object."""
    mag = np.abs(values)
    # Zeros, subnormals, inf, nan and three-digit exponents go to format().
    sure = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    digits, s, unsure = _digits17(np.where(sure, mag, 1.0))
    sure &= ~unsure
    sign = np.signbit(values).view(np.uint8)
    four, three, lead, exponent = _text_words()
    # One 24-byte cell per value, three words "-d.ddddd" "dddddddd" "ddde+dd ",
    # NUL for a plus sign. The digit groups come from floor divisions, which
    # numpy does faster than remainders.
    cells = np.empty((values.shape[0], 3), dtype="<u8")
    head = digits // 1000
    cells[:, 2] = three[digits - head * 1000] | exponent[s - _S_MIN]
    top = head // 10**8
    mid = head - top * 10**8
    del digits, s, head
    pair = top // 10000
    cells[:, 0] = lead[pair] | four[top - pair * 10000] << 32 | sign * np.uint64(ord("-"))
    pair = mid // 10000
    cells[:, 1] = four[pair] | four[mid - pair * 10000] << 32
    del top, mid, pair
    # A cell left to format() holds only its separator, and its text is
    # spliced in before it.
    at = np.flatnonzero(~sure)
    cells[at, :2] = 0
    cells[at, 2] = ord(" ") << 56
    cells[width - 1::width, 2] ^= (ord(" ") ^ ord("\n")) << 56
    text = cells.tobytes().replace(b"\0", b"")
    if not at.size:
        return text
    pieces = np.split(np.frombuffer(text, np.uint8), np.cumsum(np.where(sure, 23 + sign, 1))[at] - 1)
    out = [bytes(pieces[0])]
    for x, piece in zip(values[at].tolist(), pieces[1:]):
        out += format(x, ".16e").encode(), bytes(piece)
    return b"".join(out)


def write_float_rows(out, table: np.ndarray) -> None:
    """Write each row of the float64 `table` to the binary file `out` as
    `" ".join(format(x, ".16e") for x in row.tolist()) + "\\n"`, byte for
    byte: C's %.16e, 17 correctly rounded significant digits, which read back
    as the same double (Matula 1968; Goldberg 1991). The text is made in
    numpy, FLOAT_CHUNK_VALUES floats at a time: each value is scaled by a
    power of ten as an exact double-double (Dekker 1971) and rounded, the
    rare values that cannot be decided so go to format(), and one
    bytes.replace drops the NULs of the fixed-width cells.
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
    """The JSON header in `raw`, after checking its format and its integer
    schema version, and its `fields` (name=converter) converted in order;
    every fault raises a ValueError naming `source`."""
    kind = artifact.kind
    try:
        header = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: unreadable {kind} header: {exc}") from exc
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt != artifact.format:
        raise ValueError(f"{source}: unrecognized {kind} format {fmt!r}")

    def field(name, convert):
        if name not in header:
            raise ValueError(f"{source}: {kind} header has no {name!r} field")
        try:
            return convert(header[name])
        except KeyError as exc:
            raise ValueError(f"{source}: malformed {kind} header: no {exc.args[0]!r} key in {name!r}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"{source}: malformed {kind} header: {exc}") from exc

    version = field("schema_version", json_int)
    if version != artifact.schema_version:
        raise ValueError(
            f"{source}: unsupported schema version {version}, "
            f"expected {artifact.schema_version}; rerun {artifact.stage}"
        )
    return header, [field(name, convert) for name, convert in fields.items()]


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
    """The .npy table at `payload`, in the one layout write_payload writes (a
    version 1.0 header, C order), checked against the dtype, shape and CRC-32
    that `declared_by` records; a float table must also hold only finite
    numbers. The header is parsed once: its order, dtype and shape, then the
    file's exact data size, are checked before one np.fromfile reads the
    data, so a header that declares another shape, or a shape larger than
    the file, allocates nothing. Any other layout is refused as another
    run's table is. Every fault raises a ValueError naming the payload."""
    fmt = np.lib.format
    table = None
    try:
        with payload.open("rb") as f:
            version = fmt.read_magic(f)
            if version == (1, 0):
                stored_shape, fortran, stored_dtype = fmt.read_array_header_1_0(f)
                if not fortran and stored_dtype == dtype and stored_shape == shape:
                    size = math.prod(shape) * dtype.itemsize
                    left = os.fstat(f.fileno()).st_size - f.tell()
                    if left != size:
                        raise ValueError(f"{left} bytes of data, its shape needs {size}")
                    table = np.fromfile(f, dtype=dtype, count=math.prod(shape)).reshape(shape)
    except FileNotFoundError:
        raise ValueError(
            f"{payload}: {artifact.kind} payload is missing; rerun {artifact.stage}"
        ) from None
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"{payload}: unreadable {artifact.kind} payload: {exc}") from exc
    if table is None:
        if version != (1, 0):
            found = f"{artifact.kind} payload in .npy format {version[0]}.{version[1]}, {artifact.stage} writes 1.0"
        elif fortran:
            found = f"Fortran-ordered {artifact.kind} payload, {artifact.stage} writes C order"
        else:
            found = f"{stored_dtype} table of shape {stored_shape}, {declared_by} declares {dtype} of shape {shape}"
        raise ValueError(f"{payload}: {found}; rerun {artifact.stage}")
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
    time, each chunk one np.rec.fromarrays of the tensor's coordinate and
    value arrays, so the whole (nnz,) table is never built. entries.tsv
    holds the same rows as text for outside readers only; no loader opens
    it. Its values are written with repr(), so they parse back bit for bit.
    It too is written WRITE_CHUNK_ROWS rows at a time, each chunk as one
    array of fixed-width byte cells, a row per entry: each coordinate's text
    and tab gathered from its mode's per-call table, each value's text and
    newline from the chunk's distinct repr() texts, formatted once each, all
    NUL-padded; one bytes.replace drops the padding. Nothing time- or
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
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"axis label {label!r} in mode {k} is not UTF-8 text") from None

    out_dir.mkdir(parents=True, exist_ok=True)
    row = _row_dtype(d)
    chunks = (
        np.rec.fromarrays([tensor.coords[lo:lo + WRITE_CHUNK_ROWS], tensor.values[lo:lo + WRITE_CHUNK_ROWS]], dtype=row)
        for lo in range(0, tensor.nnz, WRITE_CHUNK_ROWS)
    )
    crc32 = write_payload(out_dir / PAYLOAD_FILE, row, (tensor.nnz,), chunks)
    write_json(
        out_dir / HEADER_FILE, TENSOR,
        shape=list(tensor.shape),
        mode_names=[str(n) for n in mode_names],
        nnz=tensor.nnz,
        payload_crc32=crc32,
    )
    # Each mode's index texts, each with its tab, NUL-padded to the widest
    # and formatted once; the axes already hold one label per index, so no
    # table is larger than they are.
    digits = [np.array([b"%d\t" % i for i in range(n)]) for n in tensor.shape]
    with (out_dir / ENTRIES_FILE).open("wb") as fh:
        for lo in range(0, tensor.nnz, WRITE_CHUNK_ROWS):
            rows = slice(lo, lo + WRITE_CHUNK_ROWS)
            values = tensor.values[rows]
            # repr once per distinct value: ln(1 + count) takes few values.
            # np.unique without return_inverse would import numpy.ma (8 ms
            # or more) in every ingest child, so a sort and a run scan it is.
            distinct = np.sort(values)
            distinct = distinct[_run_starts(distinct)]
            texts = np.array([repr(v) + "\n" for v in distinct.tolist()], dtype="S")
            fields = [table[col] for table, col in zip(digits, tensor.coords[rows].T)]
            fields.append(texts[np.searchsorted(distinct, values)])
            # Each entry's row of fixed-width cells, without their padding
            fh.write(np.rec.fromarrays(fields).tobytes().replace(b"\0", b""))
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


def load_tensor_payload(in_dir: str | Path) -> tuple[SparseTensorCOO, list[str], int]:
    """The tensor, mode names and payload CRC-32 of a container written by
    save_tensor, from one read of header.json and of entries.npy; neither
    entries.tsv nor a label file is opened. The numbers must match the
    header's dtype, length and CRC-32, and pass the SparseTensorCOO
    constructor's bounds, finiteness and positivity checks. Every fault
    raises a ValueError naming the file."""
    in_dir = Path(in_dir)
    shape, mode_names, nnz, crc32 = _read_header(in_dir)
    table = read_payload(in_dir / PAYLOAD_FILE, TENSOR, _row_dtype(len(shape)), (nnz,), crc32, HEADER_FILE)
    tensor = SparseTensorCOO(table["c"], table["v"], shape)
    if tensor.nnz != nnz:
        raise ValueError(
            f"{in_dir / PAYLOAD_FILE}: header says {nnz} entries, "
            f"the payload holds {tensor.nnz} distinct nonzero ones"
        )
    return tensor, mode_names, crc32


def load_tensor(in_dir: str | Path) -> tuple[SparseTensorCOO, list[AxisMap], list[str]]:
    """Load a tensor container written by save_tensor: load_tensor_payload,
    then each mode's label file, whose label count must be its extent."""
    tensor, mode_names, _crc32 = load_tensor_payload(in_dir)
    return tensor, _read_axes(Path(in_dir), tensor.shape), mode_names


def _payload_path(path: Path) -> Path:
    """The model's binary number table: the model file's name plus ".npy"."""
    return path.with_name(path.name + ".npy")


def save_model(
    model: KruskalModel,
    path: str | Path,
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
    there for readers of the documented text format. The header records
    `tensor_payload_crc32`, the payload CRC-32 of the tensor the model was
    fit to; the mode names and labels are the tensor's alone.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    crc32 = _write_table(_payload_path(path), model.weights, model.factors)
    header = MODEL.stamp(
        rank=model.rank,
        shape=list(model.shape),
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

    Only the text file's header line is read. Its tensor_payload_crc32 must
    be an int or null; the numbers come from `<path>.npy`, whose dtype,
    shape ((1 + sum(shape), rank)) and CRC-32 must match the header, and
    which must hold only finite numbers. Every fault raises a ValueError
    naming the file.
    """
    path = Path(path)
    with path.open("rb") as f:
        first = f.readline()
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
    return _as_model(table, shape)


def _as_model(table: np.ndarray, shape) -> KruskalModel:
    """A Kruskal table of a model of `shape` as that model, viewing its rows."""
    weights, *factors = np.split(table, np.cumsum([1, *shape])[:-1])
    return KruskalModel(weights=weights, factors=factors)


def load_pool(tensor_dir: str | Path, models) -> tuple[KruskalModel, list[tuple[int, int]], int]:
    """The models of `models`, a non-empty map of rank to model file, side by
    side in one Kruskal table in its order, the (origin_rank, index_in_model)
    of each of its columns, and the payload CRC-32 of tensor_dir's
    header.json. Each model must match that CRC-32 and the
    header's label counts, which are the table's shape; any other is a
    ValueError naming it. No label file is read. Each model is copied in
    and dropped before the next is read, and the pool is sized only once the
    first has passed, so no extent in header.json is allocated unchecked."""
    tensor_dir = Path(tensor_dir)
    shape, _names, _nnz, tensor_crc32 = _read_header(tensor_dir)
    pool, ids = None, []
    for rank, path in models.items():
        model, header = load_model(path)
        if model.rank != rank:
            raise ValueError(f"{path}: holds a rank-{model.rank} model; rerun factorize")
        if model.shape != shape:
            raise ValueError(
                f"{path}: model shape {model.shape} does not match the label counts "
                f"{shape} of {tensor_dir}; rerun factorize"
            )
        fitted = header["tensor_payload_crc32"]
        if fitted != tensor_crc32:
            raise ValueError(
                f"{path}: fit to a tensor whose payload CRC-32 is {fitted}, "
                f"that of {tensor_dir} is {tensor_crc32}; rerun factorize"
            )
        if pool is None:
            pool = _as_model(np.empty((1 + sum(shape), sum(models.keys()))), shape)
        for block, part in zip([pool.weights, *pool.factors], [model.weights, *model.factors]):
            block[..., len(ids):len(ids) + rank] = part
        ids += [(rank, index) for index in range(rank)]
    return pool, ids, tensor_crc32


def save_selection(
    path: Path, pool: KruskalModel, ids, tensor_crc32: int, selection, ranks, result, similarity_matrix: bool
) -> None:
    """Write selection.json and, beside it, selection.npy.

    selection.npy holds the columns result.kept of the Kruskal table `pool`
    that the selection ran on, in kept order, written through _write_table
    in a model payload's layout; ids[j] is pool column j's (origin_rank,
    index_in_model). selection.json records the settings, pooled ranks and
    counts, each kept component with its partners, the table's CRC-32, and
    what it was selected from: the tensor's label counts, the pool's shape,
    and its header's payload_crc32, `tensor_crc32`. With similarity_matrix
    it holds every cosine too.
    """
    kept = result.kept
    crc32 = _write_table(
        path.with_name(SELECTION_PAYLOAD_FILE), pool.weights[kept], [f[:, kept] for f in pool.factors]
    )
    fields = {
        "strategy": selection.strategy,
        "threshold": selection.threshold,
        "ranks": ranks,
        "shape": list(pool.shape),
        "tensor_payload_crc32": tensor_crc32,
        "payload_crc32": crc32,
        "pooled_count": result.pooled_count,
        "stable_count": result.stable_count,
        "kept": [
            {
                "origin_rank": ids[j][0],
                "index_in_model": ids[j][1],
                "weight": float(pool.weights[j]),
                "stability_partners": [list(p) for p in partners],
            }
            for j, partners in zip(kept, result.partners)
        ],
    }
    if similarity_matrix:
        # Null where a component was excluded.
        fields["similarity_matrix"] = [
            [None if math.isnan(x) else x for x in row] for row in result.similarities.tolist()
        ]
    write_json(path, SELECTION, **fields)


def load_selection(
    path: Path, tensor_dir: Path
) -> tuple[list[tuple[int, int]], KruskalModel, list[AxisMap], list[str], dict]:
    """A selection.json's (origin_rank, index_in_model) of each kept
    component, the Kruskal table of selection.npy, whose column j holds
    kept component j, tensor_dir's axis labels and mode names, and run meta:
    ranks, threshold and strategy, in their JSON types, for summary.json.

    The table's dtype, shape and CRC-32 must match selection.json, and it
    must hold only finite numbers; no model is read. The selection must have
    been made from the tensor in tensor_dir as it is now: its recorded label
    counts and tensor payload CRC-32 must equal those of tensor_dir's
    header.json. Each kept origin_rank must be one of the pooled ranks, each
    index_in_model must lie in [0, origin_rank), no kept pair may repeat, the
    threshold must be finite, pooled_count an int no less than the kept
    count, and stable_count null or an int between the two. Every fault
    raises a ValueError naming the file, and so does a label file whose
    count is not its extent.
    """
    _header, (kept, ranks, threshold, strategy, pooled, stable, shape, tensor_crc32, crc32) = read_header(
        path.read_bytes(), path, SELECTION,
        kept=lambda items: [(json_int(i["origin_rank"]), json_int(i["index_in_model"])) for i in items],
        ranks=lambda v: [json_int(r) for r in of_json_type(list)(v)],
        threshold=json_finite,
        strategy=of_json_type(str),
        pooled_count=json_int,
        stable_count=of_json_type(int, type(None)),
        shape=lambda v: tuple(json_int(n) for n in of_json_type(list)(v)),
        tensor_payload_crc32=json_int, payload_crc32=json_int,
    )
    extents, mode_names, _nnz, current_crc32 = _read_header(tensor_dir)
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
    seen = set()
    for pos, (rank, index) in enumerate(kept):
        if rank not in ranks:
            raise ValueError(
                f"{path}: kept item {pos} has origin_rank {rank}, not one of the pooled ranks {ranks}; rerun select"
            )
        if not 0 <= index < rank:
            raise ValueError(
                f"{path}: kept item {pos} (rank {rank}) has index_in_model {index}, "
                f"outside [0, {rank}); rerun select"
            )
        if (rank, index) in seen:
            raise ValueError(
                f"{path}: kept item {pos} repeats (origin_rank, index_in_model) {(rank, index)}; rerun select"
            )
        seen.add((rank, index))
    if pooled < len(kept):
        raise ValueError(f"{path}: pooled_count {pooled} is below the {len(kept)} kept; rerun select")
    if stable is not None and not len(kept) <= stable <= pooled:
        raise ValueError(
            f"{path}: stable_count {stable} is outside [{len(kept)}, {pooled}], "
            "from the kept count to pooled_count; rerun select"
        )
    table = _read_table(path.with_name(SELECTION_PAYLOAD_FILE), SELECTION, shape, len(kept), crc32, path.name)
    meta = {"ranks": ranks, "threshold": threshold, "strategy": strategy}
    return kept, table, _read_axes(tensor_dir, extents), mode_names, meta


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
                "modes": r.mode_tops,
                "keywords": r.keywords,
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
