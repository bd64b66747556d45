"""Shared oracles and builders.

The oracles here are deliberately independent of the library's sparse
kernels: dense arrays, nested loops, np.kron, and a coordinate-order
gather/scatter over the nonzeros. The whole-fit oracle is textbook CP-ALS
on the dense tensor, and the selection oracle is the per-component
selection that the library ran before it selected on arrays.
"""

import io
import json
import math
import os
import re
import zlib
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from tensortopics import CleaningRules, CorpusRecord, KruskalModel, arrange, build_counts, init_factors
from tensortopics.corpus_ingest import UNKNOWN_JOURNAL
from tensortopics.ensemble import SelectionResult, ZeroVectorError
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


def dense_cp_als(tensor, rank, sweeps, seed):
    """CP-ALS after Kolda & Bader (SIAM Review 2009, Algorithm 1) on the dense
    tensor, for `sweeps` sweeps from init_factors(shape, rank, seed). Mode n
    of each sweep, in order, is the einsum MTTKRP times the pseudo-inverse of
    the Hadamard product of the other factors' grams, with its columns scaled
    to unit 2-norm and the norms kept as the weights. The fit after each
    sweep is 1 - ||X - M|| / ||X|| on the dense model. Returns arrange() of
    the model and the fit history."""
    dense = to_dense(tensor)
    d = dense.ndim
    letters = "abcdefgh"[:d]
    factors = init_factors(tensor.shape, rank, seed)
    history = []
    for _ in range(sweeps):
        for n in range(d):
            others = [k for k in range(d) if k != n]
            spec = f"{letters},{','.join(letters[k] + 'r' for k in others)}->{letters[n]}r"
            projected = np.einsum(spec, dense, *(factors[k] for k in others))
            grams = np.ones((rank, rank))
            for k in others:
                grams *= factors[k].T @ factors[k]
            solved = projected @ np.linalg.pinv(grams)
            weights = np.linalg.norm(solved, axis=0)
            factors[n] = solved / np.where(weights > 0.0, weights, 1.0)
        residual = dense - dense_from_model(KruskalModel(weights, factors))
        history.append(1.0 - np.linalg.norm(residual) / np.linalg.norm(dense))
    return arrange(KruskalModel(weights, factors)), history


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


def _edit_header(path, edit):
    """Rewrite the header line of a model file or selection.json (whose one
    line is its header) with edit(header) applied."""
    header_line, _, body = path.read_text(encoding="utf-8").partition("\n")
    header = json.loads(header_line)
    edit(header)
    path.write_text(json.dumps(header) + "\n" + body, encoding="utf-8")


def _rewrite_payload(header_path, payload, change, restamp=False):
    """Replace a payload with change(table); with restamp, the header at
    header_path records the new table's CRC-32, so only later checks see it."""
    table = change(np.load(payload, allow_pickle=False))
    np.save(payload, table, allow_pickle=False)
    if restamp:
        crc32 = zlib.crc32(np.ascontiguousarray(table))
        _edit_header(header_path, lambda h: h.update(payload_crc32=crc32))


# More rows than a 48-bit address space holds bytes for, at 8 bytes or more
# a row: reading that many is a MemoryError, however far memory is overcommitted.
VAST_ROWS = 2**45


def _edit_npy_header(payload, edit):
    """Rewrite a .npy file's version 1.0 header with edit(header) applied to
    its dict of descr, fortran_order and shape, and leave its data as it is."""
    fmt = np.lib.format
    with Path(payload).open("rb") as f:
        assert fmt.read_magic(f) == (1, 0)
        shape, fortran, dtype = fmt.read_array_header_1_0(f)
        data = f.read()
    header = {"descr": fmt.dtype_to_descr(dtype), "fortran_order": fortran, "shape": shape}
    edit(header)
    with Path(payload).open("wb") as f:
        fmt.write_array_header_1_0(f, header)
        f.write(data)


def _declare_vast_rows(payload, rows=VAST_ROWS):
    """Rewrite a .npy file's header so that it declares `rows` rows, and
    leave its data as it is."""
    _edit_npy_header(payload, lambda h: h.update(shape=(rows, *h["shape"][1:])))


def save_npy_version(payload, version):
    """Rewrite a .npy file as the same table under a header of `version`."""
    table = np.load(payload, allow_pickle=False)
    with Path(payload).open("wb") as f:
        np.lib.format.write_array(f, table, version=version, allow_pickle=False)


def declare_vast_model(path):
    """Set a model header's first extent to VAST_ROWS, and its payload's .npy
    header to the rows that shape needs, over unchanged data: both headers
    agree on a table far larger than the file."""
    path = Path(path)
    shape = json.loads(path.read_text(encoding="utf-8").partition("\n")[0])["shape"]
    _edit_header(path, lambda h: h.update(shape=[VAST_ROWS, *shape[1:]]))
    _declare_vast_rows(path.with_name(path.name + ".npy"), 1 + VAST_ROWS + sum(shape[1:]))


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


# Ways to damage a saved float64 payload, a model's or selection.npy:
# name -> (damage(header_path, payload_path), a phrase of the ValueError that
# its loader must raise, with {kind} and {stage} for the artifact's; see
# payload_phrase). header_path is the model file or selection.json.
PAYLOAD_FAULTS = {
    "missing": (lambda h, p: p.unlink(), "{kind} payload is missing"),
    "empty": (lambda h, p: p.write_bytes(b""), "unreadable {kind} payload"),
    "truncated_data": (lambda h, p: p.write_bytes(p.read_bytes()[:-3]), "unreadable {kind} payload"),
    "trailing_bytes": (lambda h, p: p.write_bytes(p.read_bytes() + b"\0" * 8), "unreadable {kind} payload"),
    "truncated_header": (lambda h, p: p.write_bytes(p.read_bytes()[:40]), "unreadable {kind} payload"),
    "not_npy": (lambda h, p: p.write_bytes(b"0.5 0.25\n"), "unreadable {kind} payload"),
    "float32": (
        lambda h, p: _rewrite_payload(h, p, lambda t: t.astype(np.float32)),
        "float32 table",
    ),
    "short": (lambda h, p: _rewrite_payload(h, p, lambda t: t[:-1]), "declares float64 of shape"),
    "one_ulp": (lambda h, p: _rewrite_payload(h, p, _nudge_last), "CRC-32 does not match"),
    "nan": (
        lambda h, p: _rewrite_payload(h, p, _set(0, 0, np.nan), restamp=True),
        "holds NaN or inf; rerun {stage}",
    ),
    "inf": (
        lambda h, p: _rewrite_payload(h, p, _set(-1, -1, -np.inf), restamp=True),
        "holds NaN or inf; rerun {stage}",
    ),
    "schema_1": (lambda h, p: _edit_header(h, _schema_1), "unsupported schema version 1"),
    "vast_header": (lambda h, p: _declare_vast_rows(p), "declares"),
    # The same numbers, in a layout write_payload never writes.
    "fortran_order": (
        lambda h, p: _rewrite_payload(h, p, np.asfortranarray),
        "Fortran-ordered {kind} payload, {stage} writes C order; rerun {stage}",
    ),
    "npy_version_2": (
        lambda h, p: save_npy_version(p, (2, 0)),
        "{kind} payload in .npy format 2.0, {stage} writes 1.0; rerun {stage}",
    ),
}


def payload_phrase(fault, artifact):
    """PAYLOAD_FAULTS[fault]'s phrase for a payload of `artifact`."""
    return PAYLOAD_FAULTS[fault][1].format(kind=artifact.kind, stage=artifact.stage)


def word_rows(components, word_mode):
    """The (items, words) matrix of the components' word slices, one per row."""
    return np.array([c.word_slice(word_mode) for c in components], dtype=np.float64)


def _word_vector(component, word_mode):
    return np.asarray(component.word_slice(word_mode), dtype=np.float64).reshape(-1)


def _norm(v):
    return math.sqrt(float(np.dot(v, v)))


def similarity_matrix_oracle(components, word_mode):
    """Per-component cosine matrix: each word slice copied into a row of one
    matrix and divided by its own 2-norm, as a Python float, then the rows'
    Gram matrix, symmetrized, with a unit diagonal. A zero slice raises
    ZeroVectorError."""
    mat = np.array([_word_vector(c, word_mode) for c in components])
    for row in mat:
        norm = _norm(row)
        if norm == 0.0:
            raise ZeroVectorError("all-zero word slice")
        row /= norm
    sims = mat @ mat.T
    sims = (sims + sims.T) / 2.0
    np.fill_diagonal(sims, 1.0)
    return sims


def select_components_oracle(components, cfg, word_mode):
    """Per-component selection, as the library ran it before it selected on
    arrays: components with all-zero word slices are set aside, the rest
    are compared by similarity_matrix_oracle, candidates are sorted by
    (-|weight|, origin_rank, index_in_model) with Python's sort and kept
    greedily. Returns a SelectionResult whose kept holds the Components."""
    components = list(components)
    n = len(components)
    at = [i for i, c in enumerate(components) if _norm(_word_vector(c, word_mode)) != 0.0]
    comparable = [components[i] for i in at]
    sims = similarity_matrix_oracle(comparable, word_mode) if comparable else np.empty((0, 0))
    similarities = sims
    if len(comparable) < n:
        similarities = np.full((n, n), np.nan)
        similarities[np.ix_(at, at)] = sims
    if cfg.strategy == "stable-then-dedup":
        origin = np.array([c.origin_rank for c in comparable])
        witness = (sims >= cfg.threshold) & (origin[:, None] != origin[None, :])
        candidates = np.flatnonzero(witness.any(axis=1)).tolist()
        stable_count = len(candidates)
    else:
        witness = np.zeros(sims.shape, dtype=bool)
        candidates = list(range(len(comparable)))
        stable_count = None
    candidates.sort(key=lambda i: (-abs(comparable[i].weight), comparable[i].origin_rank, comparable[i].index_in_model))
    blocked = np.zeros(len(comparable), dtype=bool)
    kept = []
    for i in candidates:
        if not blocked[i]:
            kept.append(i)
            blocked |= sims[i] >= cfg.threshold
    partners = [
        sorted((comparable[j].origin_rank, comparable[j].index_in_model) for j in np.flatnonzero(witness[i]))
        for i in kept
    ]
    return SelectionResult([comparable[i] for i in kept], partners, n, stable_count, similarities)


def top_n_oracle(values, labels, n):
    """The top n (label, score) pairs of a full sort by (-score, label)."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], labels[i]))
    return [(labels[i], float(values[i])) for i in order[:n]]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _edit_tensor_header(tensor_dir, edit):
    """Rewrite a container's header.json with edit(header) applied."""
    header_path = tensor_dir / "header.json"
    header = json.loads(header_path.read_text(encoding="utf-8"))
    edit(header)
    header_path.write_text(json.dumps(header) + "\n", encoding="utf-8")


def rewrite_tensor_payload(tensor_dir, change, restamp=False):
    """Replace a container's entries.npy with change(rows); with restamp,
    header.json records the new rows' CRC-32, so only later checks see them."""
    payload = Path(tensor_dir) / "entries.npy"
    rows = change(np.load(payload, allow_pickle=False))
    np.save(payload, rows, allow_pickle=False)
    if restamp:
        crc32 = zlib.crc32(np.ascontiguousarray(rows))
        _edit_tensor_header(Path(tensor_dir), lambda h: h.update(payload_crc32=crc32))


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


def _payload(tensor_dir):
    return tensor_dir / "entries.npy"


def _declare_vast_tensor(tensor_dir):
    """header.json's nnz and entries.npy's row count both VAST_ROWS, over
    unchanged data."""
    _edit_tensor_header(tensor_dir, lambda h: h.update(nnz=VAST_ROWS))
    _declare_vast_rows(_payload(tensor_dir))


# Ways to damage a saved tensor container: name -> (damage(tensor_dir), a
# phrase of the ValueError that load_tensor must raise).
TENSOR_PAYLOAD_FAULTS = {
    "missing": (lambda t: _payload(t).unlink(), "tensor payload is missing; rerun ingest"),
    "empty": (lambda t: _payload(t).write_bytes(b""), "unreadable tensor payload"),
    "truncated_data": (
        lambda t: _payload(t).write_bytes(_payload(t).read_bytes()[:-3]),
        "unreadable tensor payload",
    ),
    "trailing_bytes": (
        lambda t: _payload(t).write_bytes(_payload(t).read_bytes() + b"\0" * 8),
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
    "schema_1": (lambda t: _edit_tensor_header(t, _schema_1), "unsupported schema version 1"),
    "vast_header": (lambda t: _declare_vast_rows(_payload(t)), "declares"),
    "vast_shape": (_declare_vast_tensor, "unreadable tensor payload"),
    # A one-dimensional table is the same bytes in either order, so np.save
    # never marks it Fortran-ordered; only the header says so.
    "fortran_order": (
        lambda t: _edit_npy_header(_payload(t), lambda h: h.update(fortran_order=True)),
        "Fortran-ordered tensor payload, ingest writes C order; rerun ingest",
    ),
    "npy_version_2": (
        lambda t: save_npy_version(_payload(t), (2, 0)),
        "tensor payload in .npy format 2.0, ingest writes 1.0; rerun ingest",
    ),
}
