"""The fiber-grouped MTTKRP against the COO gather/scatter oracle, and the
per-sweep leaf-sum reuse in cp_als against a loop over the public mttkrp."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tensortopics import (
    AlsOptions,
    SparseTensorCOO,
    cp_als,
    from_entries,
    gram,
    hadamard_all,
    init_factors,
    mttkrp,
    solve_gram,
)

from tensortopics.cp_als import _fiber_mttkrp, _leaf_sums

from conftest import coo_mttkrp, random_sparse

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
        assert tensor.fibers.starts.tolist() == [0]
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
        assert tensor.fibers.starts.shape[0] == 30  # one fiber per document
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
        # gather array that _leaf_sums and the last mode both overwrite.
        tensor, factors = case
        last = tensor.order - 1
        gather = np.full((factors[0].shape[1], tensor.nnz), np.nan)
        leaf_sums = _leaf_sums(tensor, factors[-1], gather)
        for mode in (last, *range(tensor.order)):
            got = _fiber_mttkrp(tensor, factors, mode, leaf_sums, gather)
            assert_within_rounding(got, tensor, factors, mode)


class TestFiberIndex:
    def test_fibers_are_the_runs_of_leading_coordinates(self, rng):
        tensor = random_sparse(rng, (3, 4, 5), 30)
        fibers = tensor.fibers
        lead = [tuple(row) for row in tensor.coords[:, :-1].tolist()]
        expected = [i for i in range(len(lead)) if i == 0 or lead[i] != lead[i - 1]]
        assert fibers.starts.tolist() == expected
        assert [tuple(row) for row in fibers.coords.tolist()] == [lead[i] for i in expected]

    def test_built_once_and_cached(self, rng):
        tensor = random_sparse(rng, (3, 4, 5), 20)
        assert tensor.fibers is tensor.fibers

    def test_segments_cover_every_row_once(self, rng):
        tensor = random_sparse(rng, (4, 3, 6), 40)
        fibers = tensor.fibers
        for mode, segments in enumerate(fibers.segments):
            rows = fibers.starts.shape[0] if mode < tensor.order - 1 else tensor.nnz
            assert segments.fibers.shape[0] == rows
            assert segments.starts[0] == 0
            assert np.all(np.diff(segments.targets) > 0)

    def test_empty_tensor_has_no_fibers(self):
        tensor = SparseTensorCOO(np.zeros((0, 3)), [], (2, 2, 2))
        assert tensor.fibers.starts.shape == (0,)


def cp_als_fits_via_public_mttkrp(tensor, rank, opts):
    """The cp_als sweep with one public mttkrp call per mode and no reuse."""
    d = tensor.order
    factors = init_factors(tensor.shape, rank, opts.seed)
    grams = [gram(f) for f in factors]
    norm_x = tensor.frobenius_norm()
    history = []
    for _ in range(opts.max_iters):
        for mode in range(d):
            projected = mttkrp(tensor, factors, mode)
            solved = solve_gram(hadamard_all([grams[k] for k in range(d) if k != mode]), projected)
            weights = np.sqrt(np.einsum("ir,ir->r", solved, solved))
            factors[mode] = solved / np.where(weights > 0.0, weights, 1.0)
            grams[mode] = gram(factors[mode])
        inner = float(np.sum(projected * solved))
        norm_m_sq = float(weights @ hadamard_all(grams) @ weights)
        history.append(1.0 - math.sqrt(max(norm_x * norm_x + norm_m_sq - 2.0 * inner, 0.0)) / norm_x)
        if len(history) > 1 and history[-1] - history[-2] < opts.fit_tolerance:
            break
    return history


@pytest.mark.parametrize("rank", [1, 3, 8])
def test_cp_als_reuse_matches_public_mttkrp_loop(rng, rank):
    tensor = corpus_tensor(rng)
    opts = AlsOptions(max_iters=8, fit_tolerance=1e-12, seed=3)
    _model, history = cp_als(tensor, rank, opts)
    expected = cp_als_fits_via_public_mttkrp(tensor, rank, opts)
    assert len(history) == len(expected)
    np.testing.assert_allclose(history, expected, rtol=0.0, atol=1e-12)
