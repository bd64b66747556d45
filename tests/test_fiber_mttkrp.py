"""The fiber-grouped MTTKRP against the COO gather/scatter oracle, the
banded passes bit for bit against whole-array ones, and the per-sweep
leaf-sum reuse in cp_als against a loop over the public mttkrp."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tensortopics import (
    AlsOptions,
    KruskalModel,
    SparseTensorCOO,
    arrange,
    cp_als,
    gram,
    hadamard_all,
    init_factors,
    mttkrp,
    solve_gram,
)

from tensortopics.cp_als import _buffer, _fiber_mttkrp, _leaf_sums

# The package exports the function cp_als under the module's name.
cp_als_module = importlib.import_module("tensortopics.cp_als")

from conftest import coo_mttkrp, from_entries, random_sparse

TOLERANCE = 1e-12


def relative_error(got, want):
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return float(np.max(np.abs(got - want), initial=0.0)) / (scale if scale > 0.0 else 1.0)


def assert_matches_oracle(tensor, rank, rng):
    factors = [rng.random((n, rank)) - 0.3 for n in tensor.shape]
    for mode in range(tensor.order):
        got = mttkrp(tensor, factors, mode)
        want = coo_mttkrp(tensor, factors, mode)
        assert got.shape == want.shape
        assert relative_error(got, want) <= TOLERANCE, f"mode {mode}"


def corpus_tensor(rng, documents=30, authors=7, journals=3, words=40, per_doc=9):
    """Author and journal are functions of the document, as build_counts makes them."""
    author_of = rng.integers(0, authors, documents)
    journal_of = rng.integers(0, journals, documents)
    entries = []
    for doc in range(documents):
        for word in rng.choice(words, per_doc, replace=False):
            entries.append(((author_of[doc], doc, journal_of[doc], word), math.log1p(rng.integers(1, 5))))
    return from_entries(entries, (authors, documents, journals, words))


class TestAgainstCooOracle:
    def test_random_tensors_of_order_two_to_four(self, rng):
        for _ in range(60):
            order = int(rng.integers(2, 5))
            shape = tuple(int(n) for n in rng.integers(1, 7, size=order))
            tensor = random_sparse(rng, shape, int(rng.integers(1, 50)))
            assert_matches_oracle(tensor, int(rng.integers(1, 8)), rng)

    def test_extent_one_modes(self, rng):
        for shape in ((1, 5), (5, 1), (1, 1, 4), (3, 1, 1, 6), (1, 4, 1, 1)):
            tensor = random_sparse(rng, shape, 12)
            assert_matches_oracle(tensor, 3, rng)

    def test_rank_above_every_extent(self, rng):
        tensor = random_sparse(rng, (2, 3, 2, 4), 15)
        assert_matches_oracle(tensor, 11, rng)

    def test_single_fiber(self, rng):
        entries = [((1, 2, 0, w), float(w + 1)) for w in (0, 3, 4, 7)]
        tensor = from_entries(entries, (3, 4, 2, 9))
        assert tensor.fibers.leaf_pass.starts.tolist() == [0]
        assert_matches_oracle(tensor, 5, rng)

    def test_unused_last_mode_indices_give_zero_rows(self, rng):
        entries = [((0, 1), 1.0), ((1, 1), 2.0), ((2, 4), 0.5)]
        tensor = from_entries(entries, (3, 6))
        factors = [rng.random((3, 2)), rng.random((6, 2))]
        out = mttkrp(tensor, factors, 1)
        np.testing.assert_array_equal(out[[0, 2, 3, 5]], 0.0)
        assert_matches_oracle(tensor, 2, rng)

    def test_corpus_shaped_tensor(self, rng):
        tensor = corpus_tensor(rng)
        assert tensor.fibers.leaf_pass.starts.shape[0] == 30  # one fiber per document
        assert_matches_oracle(tensor, 12, rng)


PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def assert_within_rounding(got, tensor, factors, mode):
    """Each entry within TOLERANCE of the oracle, relative to the sum of the
    magnitudes of its terms (so cancellation cannot inflate the error)."""
    want = coo_mttkrp(tensor, factors, mode)
    bound = coo_mttkrp(tensor, [np.abs(f) for f in factors], mode)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOLERANCE * bound), f"mode {mode}"


def with_factors(shape, entries, rank, seed=0):
    """A tensor from (coordinate, value) pairs, and seeded signed factors."""
    rng = np.random.default_rng(seed)
    return from_entries(entries, shape), [rng.uniform(-1.0, 1.0, (n, rank)) for n in shape]


@st.composite
def fibered_tensors(draw):
    """Order 2-4 tensors whose modes may have extent 1, with up to 16
    nonzeros per last-mode fiber, a rank up to 3 above every extent, and
    signed factors."""
    lead = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    last = draw(st.integers(1, 16))
    cells = st.tuples(*(st.integers(0, n - 1) for n in lead))
    fibers = draw(st.lists(cells, min_size=1, max_size=6, unique=True))
    entries = []
    for fiber in fibers:
        leaves = draw(st.lists(st.integers(0, last - 1), min_size=1, max_size=last, unique=True))
        entries += [((*fiber, leaf), draw(st.floats(0.1, 2.0))) for leaf in leaves]
    shape = (*lead, last)
    rank = draw(st.integers(1, max(shape) + 3))
    return with_factors(shape, entries, rank, draw(st.integers(0, 2**32 - 1)))


# Every leading mode of extent 1, so one fiber holds every nonzero, and a
# rank above every extent; then a last mode of extent 1.
ONE_FIBER = with_factors((1, 1, 1, 12), [((0, 0, 0, w), 0.5 + w) for w in range(12)], 15)
EXTENT_ONE_LAST = with_factors(
    (3, 2, 1), [((i, j, 0), 1.0 + i + j) for i in range(3) for j in range(2)], 6
)


class TestProperties:
    @PROPERTY
    @given(case=fibered_tensors())
    @example(case=ONE_FIBER)
    @example(case=EXTENT_ONE_LAST)
    def test_every_mode_matches_coo_oracle(self, case):
        tensor, factors = case
        for mode in range(tensor.order):
            assert_within_rounding(mttkrp(tensor, factors, mode), tensor, factors, mode)

    @PROPERTY
    @given(case=fibered_tensors())
    @example(case=ONE_FIBER)
    @example(case=EXTENT_ONE_LAST)
    def test_leaf_sum_reuse_matches_coo_oracle(self, case):
        # As in a cp_als sweep: one set of leaf sums for every mode, and one
        # gather buffer that _leaf_sums and the last mode both overwrite.
        tensor, factors = case
        last = tensor.order - 1
        buffer = _buffer(tensor, factors[0].shape[1])
        buffer[:] = np.nan
        leaf_sums = _leaf_sums(tensor, factors[-1], buffer)
        for mode in (last, *range(tensor.order)):
            got = _fiber_mttkrp(tensor, factors, mode, leaf_sums, buffer)
            assert_within_rounding(got, tensor, factors, mode)


class TestFiberIndex:
    def test_fibers_are_the_runs_of_leading_coordinates(self, rng):
        tensor = random_sparse(rng, (3, 4, 5), 30)
        fibers = tensor.fibers
        lead = [tuple(row) for row in tensor.coords[:, :-1].tolist()]
        expected = [i for i in range(len(lead)) if i == 0 or lead[i] != lead[i - 1]]
        assert fibers.leaf_pass.starts.tolist() == expected
        assert [tuple(row) for row in fibers.coords.tolist()] == [lead[i] for i in expected]

    def test_built_once_and_cached(self, rng):
        tensor = random_sparse(rng, (3, 4, 5), 20)
        assert tensor.fibers is tensor.fibers

    def test_segments_cover_every_row_once(self, rng):
        tensor = random_sparse(rng, (4, 3, 6), 40)
        fibers = tensor.fibers
        for mode, segments in enumerate(fibers.segments):
            rows = fibers.leaf_pass.starts.shape[0] if mode < tensor.order - 1 else tensor.nnz
            assert segments.index.shape[0] == rows
            assert segments.starts[0] == 0
            assert np.all(np.diff(segments.targets) > 0)

    def test_empty_tensor_has_no_fibers(self):
        tensor = SparseTensorCOO(np.zeros((0, 3)), [], (2, 2, 2))
        assert tensor.fibers.leaf_pass.starts.shape == (0,)


def cp_als_via(kernel, tensor, rank, opts):
    """The cp_als sweep with one kernel(tensor, factors, mode) call per mode
    and no reuse. Returns the arranged model and the fit history."""
    d = tensor.order
    factors = init_factors(tensor.shape, rank, opts.seed)
    grams = [gram(f) for f in factors]
    norm_x = tensor.frobenius_norm()
    history = []
    for _ in range(opts.max_iters):
        for mode in range(d):
            projected = kernel(tensor, factors, mode)
            solved = solve_gram(hadamard_all([grams[k] for k in range(d) if k != mode]), projected)
            weights = np.sqrt(np.einsum("ir,ir->r", solved, solved))
            factors[mode] = solved / np.where(weights > 0.0, weights, 1.0)
            grams[mode] = gram(factors[mode])
        inner = float(np.sum(projected * solved))
        norm_m_sq = float(weights @ hadamard_all(grams) @ weights)
        history.append(1.0 - math.sqrt(max(norm_x * norm_x + norm_m_sq - 2.0 * inner, 0.0)) / norm_x)
        if len(history) > 1 and history[-1] - history[-2] < opts.fit_tolerance:
            break
    return arrange(KruskalModel(weights=weights, factors=factors)), history


@pytest.mark.parametrize("rank", [1, 3, 8])
def test_cp_als_reuse_matches_public_mttkrp_loop(rng, rank):
    tensor = corpus_tensor(rng)
    opts = AlsOptions(max_iters=8, fit_tolerance=1e-12, seed=3)
    _model, history = cp_als(tensor, rank, opts)
    _expected_model, expected = cp_als_via(mttkrp, tensor, rank, opts)
    assert len(history) == len(expected)
    np.testing.assert_allclose(history, expected, rtol=0.0, atol=1e-12)


def whole_array_mttkrp(tensor, factors, mode):
    """The fiber kernel with each pass gathered into one (rank, nnz) or
    (rank, fibers) array. Its sums are the banded passes' sums, in the same
    order, so mttkrp must equal it bit for bit."""
    fibers = tensor.fibers
    last = tensor.order - 1
    cols = None
    if mode != last:
        leaf = np.ascontiguousarray(factors[-1].T).take(fibers.leaf_pass.index, axis=1)
        leaf *= tensor.values
        cols = np.add.reduceat(leaf, fibers.leaf_pass.starts, axis=1)
    for k in range(last):
        if k != mode:
            part = np.ascontiguousarray(factors[k].T).take(fibers.coords[:, k], axis=1)
            cols = part if cols is None else cols * part
    segments = fibers.segments[mode]
    cols = cols.take(segments.index, axis=1)
    if mode == last:
        cols *= segments.scale
    out = np.zeros((tensor.shape[mode], cols.shape[0]))
    out[segments.targets] = np.add.reduceat(cols, segments.starts, axis=1).T
    return out


def narrow_bands(monkeypatch, tensor, band):
    """Shrink the buffer budget to `band` factor rows of `tensor`'s nnz."""
    if band is not None:
        monkeypatch.setattr(cp_als_module, "BLOCK_BYTES", 8 * tensor.nnz * band)


def long_word_tensor(documents=3000):
    """A corpus-shaped tensor whose word 0 is in every document, and the
    length of its longest last-mode run: that word's, `documents` nonzeros."""
    entries = [((d % 4, d, 0, w), 1.0 + w) for d in range(documents) for w in (0, 1 + d % 50)]
    tensor = from_entries(entries, (4, documents, 1, 51))
    runs = np.diff(np.r_[tensor.fibers.segments[-1].starts, tensor.nnz])
    return tensor, int(runs.max())


def one_nonzero_per_fiber(rng, shape=(5, 7, 3, 11), nnz=60):
    """A tensor whose fibers are its nonzeros: every mode's pass then runs
    over nnz columns, so a budget of 1 or 2 rows of nnz means several bands
    for every mode, not only the per-nonzero passes."""
    cells = rng.choice(math.prod(shape[:-1]), nnz, replace=False)
    lead = np.stack(np.unravel_index(cells, shape[:-1]), axis=1)
    coords = np.c_[lead, rng.integers(0, shape[-1], nnz)]
    tensor = SparseTensorCOO(coords, rng.uniform(0.1, 1.1, nnz), shape)
    assert tensor.fibers.leaf_pass.starts.shape[0] == tensor.nnz == nnz
    return tensor


# None is the shipped budget: one band per pass on these small tensors.
BANDS = [None, 1, 2]


class TestBlockedPassesAreBitIdentical:
    @pytest.mark.parametrize("band", BANDS)
    def test_every_mode_equals_whole_array_kernel(self, rng, monkeypatch, band):
        rank = 5
        tensors = [
            corpus_tensor(rng),
            random_sparse(rng, (3, 4, 2, 9), 120),
            random_sparse(rng, (2, 3, 40), 150),
            random_sparse(rng, (6, 30), 90),
            one_nonzero_per_fiber(rng),
        ]
        for tensor in tensors:
            narrow_bands(monkeypatch, tensor, band)
            assert _buffer(tensor, rank).shape == (band or rank, tensor.nnz)
            factors = [rng.uniform(-1.0, 1.0, (n, rank)) for n in tensor.shape]
            for mode in range(tensor.order):
                got = mttkrp(tensor, factors, mode)
                assert np.array_equal(got, whole_array_mttkrp(tensor, factors, mode)), f"mode {mode}"

    def test_word_run_longer_than_a_budget_of_columns(self, rng):
        rank = 100
        tensor, longest = long_word_tensor()
        assert longest > cp_als_module.BLOCK_BYTES // (8 * rank)
        band = cp_als_module.BLOCK_BYTES // (8 * tensor.nnz)
        assert 1 < band < rank
        assert _buffer(tensor, rank).shape == (band, tensor.nnz)
        factors = [rng.uniform(-1.0, 1.0, (n, rank)) for n in tensor.shape]
        for mode in range(tensor.order):
            assert np.array_equal(mttkrp(tensor, factors, mode), whole_array_mttkrp(tensor, factors, mode))

    @pytest.mark.parametrize("budget", [None, 1024])
    def test_buffer_is_bounded_at_every_rank(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(cp_als_module, "BLOCK_BYTES", budget)
        tensor, longest = long_word_tensor()
        bound = max(cp_als_module.BLOCK_BYTES, 8 * tensor.nnz)
        ranks = (1, 2, 7, 100, 10_000, 10**9)
        assert longest > cp_als_module.BLOCK_BYTES // (8 * ranks[3])
        for rank in ranks:
            buffer = _buffer(tensor, rank)
            assert buffer.shape[1] == tensor.nnz and 1 <= buffer.shape[0] <= rank
            assert buffer.nbytes <= bound, rank

    @pytest.mark.parametrize("band", BANDS)
    def test_cp_als_equals_whole_array_sweeps(self, rng, monkeypatch, band):
        rank = 6
        tensor = corpus_tensor(rng)
        narrow_bands(monkeypatch, tensor, band)
        opts = AlsOptions(max_iters=4, fit_tolerance=1e-12, seed=5)
        model, history = cp_als(tensor, rank, opts)
        want, want_history = cp_als_via(whole_array_mttkrp, tensor, rank, opts)
        assert history == want_history
        assert np.array_equal(model.weights, want.weights)
        for got, expected in zip(model.factors, want.factors):
            assert np.array_equal(got, expected)


def test_fit_working_memory_is_far_below_rank_times_nnz():
    # rank * nnz * 8 bytes is about 45 MB here, 20 times the block budget;
    # the factors are 0.4 MB and the per-fiber arrays 0.2 MB each.
    rng = np.random.default_rng(7)
    shape = (4, 30, 2, 400)
    coords = np.stack([rng.integers(0, n, 80_000) for n in shape], axis=1)
    tensor = SparseTensorCOO(coords, rng.uniform(0.1, 1.1, 80_000), shape)
    rank = 100
    whole = rank * tensor.nnz * 8
    assert whole > 20 * cp_als_module.BLOCK_BYTES
    tensor.fibers  # built once per tensor, before the fit is traced
    tracemalloc.start()
    try:
        cp_als(tensor, rank, AlsOptions(max_iters=2, seed=1))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole / 8, f"peak {peak} bytes, rank * nnz * 8 = {whole}"


def test_each_mode_holds_few_rank_by_fiber_arrays():
    # 10,000 one-fiber documents of 8 words at rank 100: rank x F x 8 bytes
    # is 8 MB, and the leaf sums, one product of gathered factor rows, one
    # transposed factor and `out` are each about that large. The buffer
    # holds 3 of 100 rows of nnz, so every mode's pass runs in bands.
    rng = np.random.default_rng(11)
    documents, words, rank = 10_000, 2_000, 100
    doc = np.repeat(np.arange(documents), 8)
    word = (rng.integers(0, words, documents)[:, None] + 37 * np.arange(8)) % words
    coords = np.c_[doc % 40, doc, doc % 7, word.reshape(-1)]
    tensor = SparseTensorCOO(coords, rng.uniform(0.1, 1.1, doc.shape[0]), (40, documents, 7, words))
    assert tensor.fibers.leaf_pass.starts.shape[0] == documents  # built before tracing
    unit = rank * documents * 8
    factors = [rng.uniform(-1.0, 1.0, (n, rank)) for n in tensor.shape]
    for mode in range(tensor.order):
        tracemalloc.start()
        try:
            mttkrp(tensor, factors, mode)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * unit, f"mode {mode}: peak {peak / unit:.2f} x rank x F x 8 bytes"
