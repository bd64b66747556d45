"""Properties that docstrings state, checked on generated inputs.

arrange() represents the same tensor as its input (it keeps the fit) and
orders components by descending absolute weight, ties by position;
selection does not depend on the order of the pooled components, and
selecting on arrays keeps what the per-component selection kept, bit for
bit, and its cosine matrix is exactly symmetric; one
rank-one term per last-mode fiber reproduces a tensor exactly, so the fiber
count bounds its CP rank, as factorize's warning states. arrange() is
idempotent bit for bit, on a column whose entries cancel too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tensortopics import KruskalModel, SelectionConfig, SparseTensorCOO, arrange, fit
from tensortopics.ensemble import Component, select_components_detailed, select_pool, similarity_matrix

from conftest import dense_from_model, select_components_oracle, to_dense, word_rows

PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

entries = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def models_and_tensors(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    rank = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=rank, max_size=rank))
    factors = [
        np.array(draw(st.lists(entries, min_size=n * rank, max_size=n * rank))).reshape(n, rank)
        for n in shape
    ]
    cells = st.tuples(*(st.integers(0, n - 1) for n in shape))
    nonzeros = draw(st.dictionaries(cells, st.floats(0.1, 2.0), min_size=1, max_size=12))
    tensor = SparseTensorCOO(list(nonzeros), list(nonzeros.values()), shape)
    return KruskalModel(weights=weights, factors=factors), tensor


# Live components whose first factor column cannot be scaled to sum 1: it
# sums to exactly zero, or to rounding noise (2e-294 against entries of
# size 1, which made arrange's entries overflow the gram to inf).
ZERO_SUM_MODEL = KruskalModel(
    weights=[1.0, 2.0], factors=[np.array([[0.5, 0.2], [-0.5, 0.3]]), np.array([[1.0, 0.1], [2.0, 0.4]])]
)
NOISE_SUM_MODEL = KruskalModel(
    weights=[1.5], factors=[np.array([[-1.0], [1.0], [2.03346144e-294]]), np.array([[0.5]])]
)

# Its arranged second column sums to 1 only to within n * eps * sum(|entries|),
# which dividing by that sum again would move by 3.6e-12 relative.
CANCELLING_MODEL = KruskalModel(
    weights=[1.0], factors=[np.array([[1.0]]), np.array([[1.32863678e-06], [9.65696332e-01], [-9.65659595e-01]])]
)


def _close(got, want):
    """Equal to 1e-12 relative to the larger magnitude of each pair."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(np.abs(got), np.abs(want))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= 1e-12 * scale))


class TestArrange:
    @PROPERTY
    @given(case=models_and_tensors())
    @example(case=(ZERO_SUM_MODEL, SparseTensorCOO([(0, 0), (1, 1)], [1.0, 2.0], (2, 2))))
    @example(case=(NOISE_SUM_MODEL, SparseTensorCOO([(0, 0), (2, 0)], [1.0, 2.0], (3, 1))))
    def test_preserves_fit(self, case):
        # fit is 1 - r with r = ||X - M|| / ||X||; the residual r is what
        # arrange must keep to 1e-12 relative. (Relative to the fit itself,
        # a fit near 0 would fail on the rounding of 1 - r alone.)
        model, tensor = case
        want = fit(tensor, model)
        assert abs(fit(tensor, arrange(model)) - want) <= 1e-12 * abs(1.0 - want)

    @PROPERTY
    @given(
        weights=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5]),
                st.floats(-3.0, 3.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_orders_by_descending_magnitude_then_position(self, weights):
        # Identity columns sum to 1, so arrange keeps each weight and the
        # result's second factor spells out the order it chose.
        rank = len(weights)
        model = KruskalModel(weights=weights, factors=[np.ones((1, rank)), np.eye(rank)])
        order = sorted(range(rank), key=lambda r: (-abs(weights[r]), r))
        got = arrange(model)
        assert np.argmax(got.factors[1], axis=0).tolist() == order
        np.testing.assert_array_equal(got.weights, np.array(weights)[order])

    def test_idempotent_on_a_cancelling_column(self):
        once = arrange(CANCELLING_MODEL)
        assert _close(arrange(once).factors[1], once.factors[1])

    @PROPERTY
    @given(case=models_and_tensors())
    @example(case=(ZERO_SUM_MODEL, None))
    @example(case=(NOISE_SUM_MODEL, None))
    @example(case=(CANCELLING_MODEL, None))
    def test_idempotent_bit_for_bit(self, case):
        once = arrange(case[0])
        twice = arrange(once)
        for got, want in zip([twice.weights, *twice.factors], [once.weights, *once.factors]):
            assert got.tobytes() == want.tobytes()


@st.composite
def tensors(draw):
    """Order 2-4 tensors of up to 20 nonzeros, with values over 12 orders of
    magnitude, so fibers hold one or many nonzeros."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    cells = st.tuples(*(st.integers(0, n - 1) for n in shape))
    nonzeros = draw(st.dictionaries(cells, st.floats(1e-6, 1e6), min_size=1, max_size=20))
    return SparseTensorCOO(list(nonzeros), list(nonzeros.values()), shape)


class TestFiberBound:
    @PROPERTY
    @given(tensor=tensors())
    def test_one_term_per_fiber_is_exact(self, tensor):
        # The rank bound factorize warns about: term f of the rank-F model is
        # unit vectors at fiber f's leading coordinates times the fiber's
        # values, so the model is the tensor and F bounds its CP rank.
        lead, fiber_of = np.unique(tensor.coords[:, :-1], axis=0, return_inverse=True)
        fiber_of = fiber_of.reshape(-1)
        rank = lead.shape[0]
        assert rank == tensor.fibers.leaf_pass.starts.shape[0]
        terms = np.arange(rank)
        factors = [np.zeros((n, rank)) for n in tensor.shape]
        for k in range(tensor.order - 1):
            factors[k][lead[:, k], terms] = 1.0
        factors[-1][tensor.coords[:, -1], fiber_of] = tensor.values
        model = KruskalModel(weights=np.ones(rank), factors=factors)
        np.testing.assert_array_equal(dense_from_model(model), to_dense(tensor))
        # fit takes the square root of a difference of squared norms, each
        # rounded to about nnz * eps, so an exact model reads 1 only to about
        # sqrt(nnz * eps), 7e-8 at 20 nonzeros.
        assert fit(tensor, model) == pytest.approx(1.0, abs=1e-6)


@st.composite
def pools(draw):
    """Components from up to three ranks, possibly none, with unique (rank,
    index) ids, word slices drawn from a few directions (so exact duplicates,
    near matches, opposite slices and zero slices occur) and weights with
    ties. The cosine of (1, 0, 0, 0) and (1, 1, 1, 1), at any of the
    scales, is exactly 0.5: threshold 0.5 puts such a pair exactly at it."""
    directions = [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.9, 1.0, 0.1, 0.0],
        [0.0, 0.2, 1.0, 0.7],
        [0.3, 0.3, 0.3, 0.3],
        [1.0, 1.0, 1.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
    ranks = draw(st.lists(st.sampled_from([2, 3, 5]), min_size=0, max_size=3, unique=True))
    pool = []
    for rank in sorted(ranks):
        for index in range(draw(st.integers(1, 4))):
            base = np.array(draw(st.sampled_from(directions)))
            scale = draw(st.sampled_from([1.0, 0.5, 3.0]))
            pool.append(
                Component(
                    origin_rank=rank,
                    index_in_model=index,
                    weight=draw(st.sampled_from([1.0, -1.0, 0.5, 2.0])),
                    factor_slices=[np.ones(2), base * scale],
                )
            )
    return pool


class TestSelectionOrder:
    @PROPERTY
    @given(
        pool=pools(),
        threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9, 0.99, 1.0, 1.5]),
        strategy=st.sampled_from(["stable-then-dedup", "greedy-dedup"]),
        data=st.data(),
    )
    def test_pool_order_does_not_matter(self, pool, threshold, strategy, data):
        cfg = SelectionConfig(ranks=(2, 3, 5), threshold=threshold, strategy=strategy)
        shuffled = data.draw(st.permutations(pool))
        want = select_components_detailed(pool, cfg, word_mode=1)
        got = select_components_detailed(shuffled, cfg, word_mode=1)
        ids = lambda result: [(c.origin_rank, c.index_in_model) for c in result.kept]
        assert ids(got) == ids(want)
        assert got.partners == want.partners
        assert got.stable_count == want.stable_count


class TestArraySelection:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pool=pools(),
        threshold=st.sampled_from([0.0, 0.3, 0.5, float(np.nextafter(0.5, 1.0)), 0.9, 1.0, 1.5]),
        strategy=st.sampled_from(["stable-then-dedup", "greedy-dedup"]),
    )
    @example(pool=[], threshold=0.35, strategy="stable-then-dedup")
    @example(pool=[], threshold=0.35, strategy="greedy-dedup")
    def test_matches_the_per_component_oracle(self, pool, threshold, strategy):
        cfg = SelectionConfig(ranks=(2, 3, 5), threshold=threshold, strategy=strategy)
        want = select_components_oracle(pool, cfg, word_mode=1)
        ids = [(c.origin_rank, c.index_in_model) for c in pool]
        # The word slices as select hands them over: the strided rows of a
        # table whose column j is pool item j's word slice.
        table = np.ascontiguousarray(word_rows(pool, 1).reshape(len(pool), 4).T)
        on_arrays = select_pool([c.weight for c in pool], table.T, ids, cfg)
        on_components = select_components_detailed(pool, cfg, word_mode=1)
        assert len(on_components.kept) == len(want.kept)
        assert all(a is b for a, b in zip(on_components.kept, want.kept))
        assert [ids[j] for j in on_arrays.kept] == [(c.origin_rank, c.index_in_model) for c in want.kept]
        for got in (on_arrays, on_components):
            assert got.partners == want.partners
            assert all(type(x) is int for p in got.partners for pair in p for x in pair)
            assert (got.pooled_count, got.stable_count) == (want.pooled_count, want.stable_count)
            assert got.similarities.shape == want.similarities.shape
            assert np.array_equal(got.similarities, want.similarities, equal_nan=True)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pool=pools())
    def test_cosines_are_exactly_symmetric(self, pool):
        # rows @ rows.T is one syrk call, which computes one triangle and
        # mirrors it, so no symmetrizing pass is needed.
        cfg = SelectionConfig(ranks=(2, 3, 5), threshold=0.5, strategy="greedy-dedup")
        words = word_rows(pool, 1).reshape(len(pool), 4)
        sims = select_pool([c.weight for c in pool], words, [(c.origin_rank, c.index_in_model) for c in pool], cfg).similarities
        assert np.array_equal(sims, sims.T, equal_nan=True)
        comparable = words[np.any(words != 0.0, axis=1)]
        if comparable.shape[0]:
            sims = similarity_matrix(comparable)
            assert np.array_equal(sims, sims.T)
