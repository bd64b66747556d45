"""Shared oracles and builders.

The oracles here are deliberately independent of the library's sparse
kernels: dense arrays, nested loops, np.kron, and a coordinate-order
gather/scatter over the nonzeros.
"""

import io
import json
import os
import re
import zlib
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from tensortopics import CleaningRules, CorpusRecord, build_counts
from tensortopics.corpus_ingest import UNKNOWN_JOURNAL
from tensortopics.sparse_tensor import AxisMap, SparseTensorCOO

DATA_DIR = Path(__file__).parent / "data"

# Child processes import the package from this checkout too, so the suite
# runs without an install (pyproject's pytest `pythonpath` covers this process).
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p
)


def from_entries(entries, shape):
    """A tensor from (coordinate, value) pairs; duplicate coordinates are
    coalesced by summation, and entries that sum to exactly zero dropped."""
    entries = list(entries)
    return SparseTensorCOO([e[0] for e in entries], [e[1] for e in entries], shape)


def to_dense(tensor):
    """Scatter a sparse tensor into a dense ndarray."""
    dense = np.zeros(tensor.shape)
    for coord, value in tensor.entries():
        dense[coord] = value
    return dense


def kr_columnwise(a, b):
    """Khatri-Rao oracle: per-column np.kron."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1]))
    for r in range(a.shape[1]):
        out[:, r] = np.kron(a[:, r], b[:, r])
    return out


def dense_mttkrp(dense, factors, mode):
    """MTTKRP oracle: unfold the dense tensor, multiply by the chained Khatri-Rao."""
    d = dense.ndim
    others = [factors[k] for k in range(d) if k != mode]
    kr = others[0]
    for f in others[1:]:
        kr = kr_columnwise(kr, f)
    unfolding = np.moveaxis(dense, mode, 0).reshape(dense.shape[mode], -1)
    return unfolding @ kr


def coo_mttkrp(tensor, factors, mode):
    """MTTKRP oracle on COO storage: gather the other factors' rows at every
    nonzero, scale by the value, and scatter-add into the target rows."""
    rank = factors[(mode + 1) % tensor.order].shape[1]
    acc = np.tile(tensor.values[:, None], (1, rank))
    for k in range(tensor.order):
        if k != mode:
            acc *= factors[k][tensor.coords[:, k], :]
    out = np.zeros((tensor.shape[mode], rank))
    np.add.at(out, tensor.coords[:, mode], acc)
    return out


def dense_from_model(model):
    """Densify a CP model by summing explicit outer products."""
    dense = np.zeros(model.shape)
    for r in range(model.rank):
        term = model.weights[r]
        block = model.factors[0][:, r]
        for f in model.factors[1:]:
            block = np.multiply.outer(block, f[:, r])
        dense = dense + term * block
    return dense


def random_sparse(rng, shape, nnz, low=0.1, high=1.1):
    """Random positive sparse tensor; duplicate coordinates coalesce."""
    coords = [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(nnz)]
    values = rng.uniform(low, high, size=nnz)
    return from_entries(list(zip(coords, values)), shape)


def nonascii_letter_fraction(text):
    """Per-character oracle for corpus_ingest._nonascii_letter_fraction."""
    letters = 0
    non_ascii = 0
    for ch in text:
        if ch.isalpha():
            letters += 1
            if ord(ch) > 127:
                non_ascii += 1
    if letters == 0:
        return 0.0
    return non_ascii / letters


def raw_tokens_oracle(body):
    """The raw tokens corpus_ingest reads from a body: its [A-Za-z]+ runs."""
    return re.findall(r"[A-Za-z]+", body)


def lower_tokens_oracle(body):
    """The tokens corpus_ingest counts for a body: the [a-z]+ runs of its
    lowercased text."""
    return re.findall(r"[a-z]+", body.lower())


def _is_nonsense(token, rules):
    if not any(ch in "aeiouy" for ch in token):
        return True
    if re.search(r"(.)\1{%d,}" % rules.max_char_repeat, token):
        return True
    if re.search(r"[^aeiouy]{%d,}" % (rules.max_consonant_run + 1), token):
        return True
    return False


def tokenize_oracle(body, rules):
    """Token-at-a-time oracle for build_counts' token filter: every filter
    runs on every occurrence of the tokens a body counts, in text order."""
    dna_re = re.compile(r"[acgtu]{%d,}" % rules.dna_min_run)
    out = []
    for token in lower_tokens_oracle(body):
        if len(token) < rules.min_token_length:
            continue
        if token in rules.stopwords:
            continue
        if dna_re.fullmatch(token):
            continue
        if _is_nonsense(token, rules):
            continue
        out.append(token)
    return out


def kept_words(body, rules=CleaningRules()):
    """The (word, count) pairs build_counts makes of a one-record corpus with
    this body, in text order, after checking them against
    build_counts_oracle. The name filter is off, so every token meets the
    token filters alone."""
    records = [CorpusRecord("t", "", "a", "j", body)]
    rules = replace(rules, name_df_floor=0)
    quad = build_counts(records, rules)
    want = build_counts_oracle(records, rules)
    assert list(quad.counts.items()) == sorted(want.counts.items())
    assert quad.axes == want.axes
    return [(word, quad.counts[0, 0, 0, i]) for i, word in enumerate(quad.axes[3].labels)]


def rare_capitalized_oracle(records, rules):
    """Token-at-a-time oracle for build_counts' name filter: the words it
    excludes from the vocabulary."""
    if rules.name_df_floor <= 0:
        return frozenset()
    lowercase_start = set()
    df = {}
    for rec in records:
        seen_here = set()
        for raw in raw_tokens_oracle(rec.body):
            lowered = raw.lower()
            if raw[0].islower():
                lowercase_start.add(lowered)
            if lowered not in seen_here:
                seen_here.add(lowered)
                df[lowered] = df.get(lowered, 0) + 1
    return frozenset(
        w for w, n in df.items() if w not in lowercase_start and n < rules.name_df_floor
    )


class OracleCounts(NamedTuple):
    counts: dict
    axes: tuple


def build_counts_oracle(records, rules):
    """Token-at-a-time oracle for corpus_ingest.build_counts: one count
    increment per kept token occurrence, keys in first-seen order. Returns
    the count map and the axes that QuadCounts.counts and .axes must equal."""
    excluded = rare_capitalized_oracle(records, rules)
    tables = ({}, {}, {}, {})

    def intern(table, label):
        if label not in table:
            table[label] = len(table)
        return table[label]

    counts = {}
    for rec in records:
        tokens = [t for t in tokenize_oracle(rec.body, rules) if t not in excluded]
        if not tokens:
            continue
        a = intern(tables[0], rec.first_author)
        d = intern(tables[1], rec.title)
        j = intern(tables[2], rec.journal if rec.journal else UNKNOWN_JOURNAL)
        for token in tokens:
            key = (a, d, j, intern(tables[3], token))
            counts[key] = counts.get(key, 0) + 1
    return OracleCounts(counts, tuple(AxisMap(t) for t in tables))


def quad_counts_unique_oracle(records, rules):
    """build_counts' coords and tallies by np.unique(keys, return_counts=True)
    over one key per kept token, the key being the rank of its record's
    (author, document, journal) indices among the distinct ones times the
    vocabulary size, plus its word's index, all interned as
    build_counts_oracle interns them."""
    excluded = rare_capitalized_oracle(records, rules)
    tables = ({}, {}, {}, {})

    def intern(table, label):
        return table.setdefault(label, len(table))

    labels, words = [], []
    for rec in records:
        tokens = [t for t in tokenize_oracle(rec.body, rules) if t not in excluded]
        if tokens:
            journal = rec.journal if rec.journal else UNKNOWN_JOURNAL
            label = [intern(t, x) for t, x in zip(tables, (rec.first_author, rec.title, journal))]
            for token in tokens:
                labels.append(label)
                words.append(intern(tables[3], token))
    if not words:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    cells, cell_of = np.unique(np.array(labels, dtype=np.int64), axis=0, return_inverse=True)
    vocabulary = len(tables[3])
    keys = cell_of.reshape(-1) * vocabulary + np.array(words, dtype=np.int64)
    keys, tallies = np.unique(keys, return_counts=True)
    return np.column_stack([cells[keys // vocabulary], keys % vocabulary]), tallies


def entries_npy_oracle(tensor):
    """np.save of a tensor's whole [("c", "<i8", (d,)), ("v", "<f8")] table:
    the file's bytes, and the table."""
    table = np.empty(tensor.nnz, dtype=[("c", "<i8", (tensor.order,)), ("v", "<f8")])
    table["c"] = tensor.coords
    table["v"] = tensor.values
    out = io.BytesIO()
    np.save(out, table, allow_pickle=False)
    return out.getvalue(), table


def coalesce_oracle(coords, values):
    """SparseTensorCOO's coalescing as np.unique(axis=0) plus bincount:
    sorted unique coordinates and the input-order sums of their values,
    exact zeros dropped."""
    uniq, inverse = np.unique(np.asarray(coords, dtype=np.int64), axis=0, return_inverse=True)
    summed = np.bincount(inverse.reshape(-1), weights=values, minlength=uniq.shape[0])
    keep = summed != 0.0
    return uniq[keep], summed[keep]


def lexsort_coalesce_oracle(coords, values):
    """SparseTensorCOO's coalescing as it ran on every input before sorted
    input skipped it: a stable lexsort of the rows, bincount over each run of
    equal rows in input order, exact zeros dropped."""
    values = np.asarray(values, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.int64).reshape(values.shape[0], -1)
    order = np.lexsort(coords.T[::-1])
    coords = coords[order]
    starts = np.flatnonzero(np.r_[True, np.any(coords[1:] != coords[:-1], axis=1)])
    run_of = np.repeat(np.arange(starts.shape[0]), np.diff(np.r_[starts, coords.shape[0]]))
    summed = np.bincount(run_of, weights=values[order], minlength=starts.shape[0])
    keep = summed != 0.0
    return coords[starts[keep]], summed[keep]


def entries_text_oracle(tensor):
    """entries.tsv as formatted one row at a time."""
    return "".join(
        "\t".join(str(int(c)) for c in row) + "\t" + repr(float(v)) + "\n"
        for row, v in zip(tensor.coords, tensor.values)
    )


def model_text_oracle(model):
    """The body of a model file (after the header line), one float at a time
    as format(x, ".16e") writes it."""
    lines = [" ".join(format(float(w), ".16e") for w in model.weights)]
    for f in model.factors:
        for row in f:
            lines.append(" ".join(format(float(x), ".16e") for x in row))
    return "\n".join(lines) + "\n"


def model_text_table(path):
    """The numbers of a model file's text body as one (1 + sum(shape), rank)
    table, parsed with numpy alone from the documented format: a JSON header
    line, then the weights and every factor row as space-separated floats."""
    header_line, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    header = json.loads(header_line)
    table = np.array(body.split(), dtype=np.float64).reshape(-1, int(header["rank"]))
    assert table.shape[0] == 1 + sum(header["shape"]), path
    return table


def _edit_model_header(model_path, edit):
    """Rewrite a model file's header line with edit(header) applied."""
    header_line, _, body = model_path.read_text(encoding="utf-8").partition("\n")
    header = json.loads(header_line)
    edit(header)
    model_path.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")


def _rewrite_payload(payload, change, restamp=False):
    """Replace a model's payload with change(table); with restamp, the model
    header records the new table's CRC-32, so only later checks see it."""
    table = change(np.load(payload, allow_pickle=False))
    np.save(payload, table, allow_pickle=False)
    if restamp:
        crc32 = zlib.crc32(np.ascontiguousarray(table))
        _edit_model_header(payload.with_suffix(""), lambda h: h.update(payload_crc32=crc32))


def _set(row, column, value):
    """A change for _rewrite_payload: the table with one number replaced."""

    def change(table):
        table = table.copy()
        table[row, column] = value
        return table

    return change


def _nudge_last(table):
    table = table.copy()
    table[-1, -1] = np.nextafter(table[-1, -1], np.inf)
    return table


def _schema_1(header):
    header["schema_version"] = 1
    del header["payload_crc32"]


# Ways to damage a saved model: name -> (damage(model_path, payload_path),
# a phrase of the ValueError that load_model must raise).
PAYLOAD_FAULTS = {
    "missing": (lambda m, p: p.unlink(), "model payload is missing"),
    "empty": (lambda m, p: p.write_bytes(b""), "unreadable model payload"),
    "truncated_data": (lambda m, p: p.write_bytes(p.read_bytes()[:-3]), "unreadable model payload"),
    "truncated_header": (lambda m, p: p.write_bytes(p.read_bytes()[:40]), "unreadable model payload"),
    "not_npy": (lambda m, p: p.write_bytes(b"0.5 0.25\n"), "unreadable model payload"),
    "float32": (
        lambda m, p: _rewrite_payload(p, lambda t: t.astype(np.float32)),
        "float32 table",
    ),
    "short": (lambda m, p: _rewrite_payload(p, lambda t: t[:-1]), "declares float64 of shape"),
    "one_ulp": (lambda m, p: _rewrite_payload(p, _nudge_last), "CRC-32 does not match"),
    "nan": (
        lambda m, p: _rewrite_payload(p, _set(0, 0, np.nan), restamp=True),
        "holds NaN or inf; rerun factorize",
    ),
    "inf": (
        lambda m, p: _rewrite_payload(p, _set(-1, -1, -np.inf), restamp=True),
        "holds NaN or inf; rerun factorize",
    ),
    "schema_1": (lambda m, p: _edit_model_header(m, _schema_1), "unsupported schema version 1"),
}


def top_n_oracle(values, labels, n):
    """The top n (label, score) pairs of a full sort by (-score, label)."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], labels[i]))
    return [(labels[i], float(values[i])) for i in order[:n]]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def rewrite_tensor_payload(tensor_dir, change, restamp=False):
    """Replace a container's entries.npy with change(rows); with restamp,
    header.json records the new rows' CRC-32, so only later checks see them."""
    payload = Path(tensor_dir) / "entries.npy"
    rows = change(np.load(payload, allow_pickle=False))
    np.save(payload, rows, allow_pickle=False)
    if restamp:
        header_path = Path(tensor_dir) / "header.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["payload_crc32"] = zlib.crc32(np.ascontiguousarray(rows))
        header_path.write_text(json.dumps(header) + "\n", encoding="utf-8")


def _with_fields(rows, fields):
    """The rows rebuilt with another field list, values cast field by field."""
    out = np.empty(rows.shape, dtype=fields)
    for name in out.dtype.names:
        out[name] = rows[name]
    return out


def _nudge_last_value(rows):
    rows = rows.copy()
    rows["v"][-1] = np.nextafter(rows["v"][-1], np.inf)
    return rows


def _tensor_schema_1(tensor_dir):
    header_path = tensor_dir / "header.json"
    header = json.loads(header_path.read_text(encoding="utf-8"))
    header["schema_version"] = 1
    del header["payload_crc32"]
    header_path.write_text(json.dumps(header) + "\n", encoding="utf-8")


def _payload(tensor_dir):
    return tensor_dir / "entries.npy"


# Ways to damage a saved tensor container: name -> (damage(tensor_dir), a
# phrase of the ValueError that load_tensor must raise).
TENSOR_PAYLOAD_FAULTS = {
    "missing": (lambda t: _payload(t).unlink(), "tensor payload is missing; rerun ingest"),
    "empty": (lambda t: _payload(t).write_bytes(b""), "unreadable tensor payload"),
    "truncated_data": (
        lambda t: _payload(t).write_bytes(_payload(t).read_bytes()[:-3]),
        "unreadable tensor payload",
    ),
    "truncated_header": (
        lambda t: _payload(t).write_bytes(_payload(t).read_bytes()[:40]),
        "unreadable tensor payload",
    ),
    "not_npy": (lambda t: _payload(t).write_bytes(b"0\t0\t0\t0\t1.0\n"), "unreadable tensor payload"),
    "int32_coords": (
        lambda t: rewrite_tensor_payload(
            t, lambda r: _with_fields(r, [("c", "<i4", r.dtype["c"].shape), ("v", "<f8")])
        ),
        "declares",
    ),
    "fields_swapped": (
        lambda t: rewrite_tensor_payload(
            t, lambda r: _with_fields(r, [("v", "<f8"), ("c", "<i8", r.dtype["c"].shape)])
        ),
        "declares",
    ),
    "plain_table": (
        lambda t: rewrite_tensor_payload(
            t, lambda r: np.column_stack([r["c"].astype(np.float64), r["v"]])
        ),
        "declares",
    ),
    "short": (lambda t: rewrite_tensor_payload(t, lambda r: r[:-1]), "declares"),
    "one_ulp": (lambda t: rewrite_tensor_payload(t, _nudge_last_value), "CRC-32 does not match"),
    "reversed": (lambda t: rewrite_tensor_payload(t, lambda r: r[::-1]), "CRC-32 does not match"),
    "schema_1": (_tensor_schema_1, "unsupported schema version 1"),
}
