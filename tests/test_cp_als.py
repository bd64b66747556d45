import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tensortopics import (
    AlsOptions,
    KruskalModel,
    arrange,
    cp_als,
    fit,
    init_factors,
    load_model,
    mttkrp,
    save_model,
)

from tensortopics.artifacts import MODEL
from tensortopics.cp_als import stop_reason
from tensortopics.sparse_tensor import SparseTensorCOO

from conftest import (
    PAYLOAD_FAULTS, declare_vast_model, dense_cp_als, dense_from_model, dense_mttkrp, from_entries, payload_phrase,
    random_sparse, save_npy_version, to_dense,
)


def exactly(message):
    """A pytest.raises pattern that matches `message` and nothing more."""
    return f"^{re.escape(message)}$"


def rank1_tensor(rng, shape):
    vectors = [rng.uniform(0.5, 1.5, size=s) for s in shape]
    dense = vectors[0]
    for v in vectors[1:]:
        dense = np.multiply.outer(dense, v)
    entries = [(coord, float(dense[coord])) for coord in np.ndindex(*shape)]
    return from_entries(entries, shape), vectors


class TestAlsOptions:
    def test_defaults(self):
        opts = AlsOptions()
        assert opts.max_iters == 100
        assert opts.fit_tolerance == 1e-6
        assert opts.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            AlsOptions(max_iters=0)
        with pytest.raises(ValueError, match="fit_tolerance"):
            AlsOptions(fit_tolerance=0.0)
        with pytest.raises(ValueError, match="seed"):
            AlsOptions(seed=-1)


class TestInitFactors:
    def test_shapes_and_range(self):
        factors = init_factors((4, 5, 6), 3, seed=11)
        assert [f.shape for f in factors] == [(4, 3), (5, 3), (6, 3)]
        for f in factors:
            assert np.all(f > 0.0) and np.all(f < 1.0)

    def test_deterministic_per_seed(self):
        a = init_factors((4, 5), 2, seed=3)
        b = init_factors((4, 5), 2, seed=3)
        c = init_factors((4, 5), 2, seed=4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.array_equal(a[0], c[0])

    def test_modes_draw_independent_streams(self):
        factors = init_factors((5, 5), 2, seed=9)
        assert not np.array_equal(factors[0], factors[1])

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            init_factors((4, 4), 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=exactly("seed must be a non-negative integer, got -1")):
            init_factors((4, 4), 2, seed=-1)


class TestKruskalModel:
    def test_no_factors_rejected(self):
        with pytest.raises(ValueError, match=exactly("a model needs at least one factor matrix")):
            KruskalModel(weights=[1.0], factors=[])

    @pytest.mark.parametrize(
        "second, message",
        [
            (np.ones((4, 3)), "factor 1 must have 2 columns, got shape (4, 3)"),
            (np.ones(4), "factor 1 must have 2 columns, got shape (4,)"),
        ],
    )
    def test_factor_columns_must_match_the_rank(self, second, message):
        with pytest.raises(ValueError, match=exactly(message)):
            KruskalModel(weights=[1.0, 2.0], factors=[np.ones((3, 2)), second])


class TestMttkrp:
    def test_empty_tensor_gives_zero_matrix(self, rng):
        t = from_entries([], (3, 4, 5))
        factors = [rng.random((s, 2)) for s in (3, 4, 5)]
        np.testing.assert_array_equal(mttkrp(t, factors, 1), np.zeros((4, 2)))

    def test_matches_dense_oracle_all_modes(self, rng):
        for _ in range(25):
            shape = tuple(int(s) for s in rng.integers(2, 6, size=4))
            t = random_sparse(rng, shape, int(rng.integers(1, 25)))
            rank = int(rng.integers(1, 5))
            factors = [rng.random((s, rank)) for s in shape]
            dense = to_dense(t)
            for mode in range(4):
                np.testing.assert_allclose(
                    mttkrp(t, factors, mode),
                    dense_mttkrp(dense, factors, mode),
                    atol=1e-10,
                )

    def test_target_mode_factor_is_ignored(self, rng):
        shape = (3, 4, 5)
        t = random_sparse(rng, shape, 10)
        factors = [rng.random((s, 2)) for s in shape]
        altered = list(factors)
        altered[1] = rng.random((99, 2))  # wrong extent, must not matter
        np.testing.assert_array_equal(mttkrp(t, factors, 1), mttkrp(t, altered, 1))

    def test_mode_out_of_range_rejected(self, rng):
        t = random_sparse(rng, (3, 3), 4)
        factors = [rng.random((3, 2)) for _ in range(2)]
        with pytest.raises(ValueError, match="mode 2"):
            mttkrp(t, factors, 2)

    def test_wrong_factor_rows_rejected(self, rng):
        t = random_sparse(rng, (3, 4), 4)
        factors = [rng.random((3, 2)), rng.random((5, 2))]
        with pytest.raises(ValueError, match=exactly("factor for mode 1 has 5 rows, tensor extent is 4")):
            mttkrp(t, factors, 0)

    def test_order_one_tensor_rejected(self):
        t = SparseTensorCOO([(0,), (2,)], [1.0, 2.0], (3,))
        with pytest.raises(ValueError, match=exactly("mttkrp requires a tensor of order 2 or higher")):
            mttkrp(t, [np.ones((3, 2))], 0)

    def test_factor_count_must_match_the_order(self, rng):
        t = random_sparse(rng, (3, 4, 2), 6)
        with pytest.raises(ValueError, match=exactly("expected 3 factor matrices, got 2")):
            mttkrp(t, [np.ones((3, 2)), np.ones((4, 2))], 0)

    def test_other_factors_must_share_their_column_count(self, rng):
        t = random_sparse(rng, (3, 4, 2), 6)
        factors = [np.ones((3, 5)), np.ones((4, 2)), np.ones((2, 3))]
        with pytest.raises(ValueError, match=exactly("factor column counts disagree: [2, 3]")):
            mttkrp(t, factors, 0)


class TestCpAls:
    def test_deterministic_bitwise(self, rng):
        t = random_sparse(rng, (5, 4, 3, 4), 30)
        opts = AlsOptions(max_iters=12, seed=5)
        model_a, hist_a = cp_als(t, 3, opts)
        model_b, hist_b = cp_als(t, 3, opts)
        assert hist_a == hist_b
        np.testing.assert_array_equal(model_a.weights, model_b.weights)
        for fa, fb in zip(model_a.factors, model_b.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_fit_history_non_decreasing(self, rng):
        for trial in range(5):
            t = random_sparse(rng, (6, 5, 4), 40)
            _, history = cp_als(t, 3, AlsOptions(max_iters=25, seed=trial))
            assert len(history) >= 1
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-9

    def test_recovers_rank1_tensor(self, rng):
        t, _ = rank1_tensor(rng, (6, 5, 4))
        model, history = cp_als(t, 1, AlsOptions(max_iters=50, seed=2))
        assert history[-1] >= 0.9999
        assert fit(t, model) >= 0.9999

    def test_arranged_output_convention(self, rng):
        t = random_sparse(rng, (5, 5, 5), 35)
        model, _ = cp_als(t, 3, AlsOptions(max_iters=10, seed=8))
        for f in model.factors:
            np.testing.assert_allclose(f.sum(axis=0), np.ones(3), atol=1e-10)
        magnitudes = np.abs(model.weights)
        assert all(magnitudes[i] >= magnitudes[i + 1] for i in range(len(magnitudes) - 1))

    def test_empty_tensor_rejected(self):
        t = from_entries([], (3, 3, 3))
        with pytest.raises(ValueError, match="no entries"):
            cp_als(t, 2)

    def test_bad_rank_rejected(self, rng):
        t = random_sparse(rng, (3, 3), 4)
        with pytest.raises(ValueError, match="rank"):
            cp_als(t, 0)

    def test_order_one_tensor_rejected(self):
        t = SparseTensorCOO([(0,), (2,)], [1.0, 2.0], (3,))
        with pytest.raises(ValueError, match=exactly("cp_als requires a tensor of order 2 or higher")):
            cp_als(t, 1)

    def test_max_iters_caps_sweeps(self, rng):
        t = random_sparse(rng, (5, 5, 5), 30)
        _, history = cp_als(t, 2, AlsOptions(max_iters=4, fit_tolerance=1e-15, seed=1))
        assert len(history) == 4

    def test_tolerance_stops_early(self, rng):
        t, _ = rank1_tensor(rng, (5, 4, 3))
        _, history = cp_als(t, 1, AlsOptions(max_iters=100, fit_tolerance=1e-4, seed=1))
        assert len(history) < 100


@st.composite
def positive_tensors(draw):
    """A 3-way or 4-way tensor of extents 3 to 8 whose entries, drawn from
    U(0.1, 1.1), fill 30%, 60% or all of its cells."""
    shape = tuple(draw(st.lists(st.integers(3, 8), min_size=3, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.random(shape) < draw(st.sampled_from([0.3, 0.6, 1.0]))
    cells.flat[0] = True
    return SparseTensorCOO(np.argwhere(cells), rng.uniform(0.1, 1.1, size=int(cells.sum())), shape)


def assert_relative(got, want, tolerance=1e-9):
    """Every entry of got within tolerance times want's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tolerance * np.max(np.abs(want), initial=0.0)


# A full 3 x 5 x 4 tensor, fit at rank 5: modes 0 and 2 are shorter than the
# rank, so solve_gram takes its LU solve there and its inverse on mode 1.
SHORT_MODES = SparseTensorCOO(
    np.argwhere(np.ones((3, 5, 4), dtype=bool)), np.random.default_rng(7).uniform(0.1, 1.1, 60), (3, 5, 4)
)


class TestDenseOracle:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tensor=positive_tensors(), rank=st.integers(1, 4), seed=st.integers(0, 2**31))
    @example(tensor=SHORT_MODES, rank=5, seed=41)
    def test_fit_tracks_textbook_als(self, tensor, rank, seed):
        # Six sweeps whatever the fit does: the tolerance stops no fit early.
        model, history = cp_als(tensor, rank, AlsOptions(max_iters=6, fit_tolerance=1e-300, seed=seed))
        want, want_history = dense_cp_als(tensor, rank, len(history), seed)
        assert_relative(model.weights, want.weights)
        for got_factor, want_factor in zip(model.factors, want.factors):
            assert_relative(got_factor, want_factor)
        assert_relative(history, want_history)


class TestFit:
    def test_exact_model_fits_perfectly(self, rng):
        t, vectors = rank1_tensor(rng, (4, 3, 5))
        model = KruskalModel(
            weights=np.array([1.0]), factors=[v.reshape(-1, 1) for v in vectors]
        )
        assert fit(t, model) == pytest.approx(1.0, abs=1e-10)

    def test_zero_model_fits_zero(self, rng):
        t = random_sparse(rng, (4, 4), 6)
        model = KruskalModel(
            weights=np.array([0.0]), factors=[np.ones((4, 1)), np.ones((4, 1))]
        )
        assert fit(t, model) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            shape = tuple(int(s) for s in rng.integers(2, 6, size=3))
            t = random_sparse(rng, shape, 12)
            model = KruskalModel(
                weights=rng.uniform(0.5, 2.0, size=2),
                factors=[rng.random((s, 2)) for s in shape],
            )
            dense_x = to_dense(t)
            dense_m = dense_from_model(model)
            want = 1.0 - np.linalg.norm(dense_x - dense_m) / np.linalg.norm(dense_x)
            assert fit(t, model) == pytest.approx(want, abs=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        t = random_sparse(rng, (4, 4), 6)
        model = KruskalModel(weights=np.ones(1), factors=[np.ones((4, 1)), np.ones((5, 1))])
        with pytest.raises(ValueError, match="shape"):
            fit(t, model)

    def test_tensor_without_entries_rejected(self):
        t = from_entries([], (3, 3, 3))
        model = KruskalModel(weights=np.ones(1), factors=[np.ones((3, 1))] * 3)
        with pytest.raises(ValueError, match="fit is undefined for a tensor with zero norm"):
            fit(t, model)


class TestNormOverflow:
    """A tensor whose sum of squared values overflows float64 has no fit:
    frobenius_norm, and so cp_als and fit, name it, with no RuntimeWarning on
    the way, where they once gave a zero model and NaN fits."""

    @staticmethod
    def scaled(scale):
        return SparseTensorCOO([[0, 0, 0], [1, 1, 1], [0, 1, 0]], [scale, 2 * scale, 3 * scale], (2, 2, 2))

    def test_overflowing_norm_is_a_named_error(self):
        t = self.scaled(1e200)
        model = KruskalModel(weights=np.ones(2), factors=[np.ones((2, 2))] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="the tensor's norm overflows float64"):
                t.frobenius_norm()
            with pytest.raises(ValueError, match="the tensor's norm overflows float64"):
                cp_als(t, 2, AlsOptions(max_iters=3))
            with pytest.raises(ValueError, match="the tensor's norm overflows float64"):
                fit(t, model)

    def test_large_finite_norm_still_fits(self):
        t = self.scaled(1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, history = cp_als(t, 2, AlsOptions(max_iters=3))
            assert fit(t, model) == pytest.approx(history[-1], rel=1e-12)
        assert np.all(model.weights > 0)
        assert history[-1] == pytest.approx(0.906, abs=1e-3)


class TestNormUnderflow:
    """A tensor whose squared values all underflow to zero has no fit either:
    frobenius_norm, cp_als and fit name it, where cp_als once divided by the
    zero norm."""

    TENSOR = SparseTensorCOO([[0, 0], [1, 1]], [1e-200, 1e-200], (2, 2))

    def test_underflowing_norm_is_a_named_error(self):
        model = KruskalModel(weights=np.ones(1), factors=[np.ones((2, 1))] * 2)
        for call in (self.TENSOR.frobenius_norm, lambda: cp_als(self.TENSOR, 1), lambda: fit(self.TENSOR, model)):
            with pytest.raises(ValueError, match="the tensor's norm underflows float64"):
                call()

    def test_small_nonzero_norm_still_fits(self):
        t = SparseTensorCOO([[0, 0], [1, 1]], [1e-150, 1e-150], (2, 2))
        model, history = cp_als(t, 2, AlsOptions(max_iters=3))
        assert t.frobenius_norm() > 0.0
        assert np.isfinite(history).all() and fit(t, model) == pytest.approx(history[-1], rel=1e-12)


COLUMN_NORM_OVERFLOW = re.compile(
    r"rank \d+: factor column norms overflow float64 at sweep \d+, mode \d+; "
    r"the tensor's values are too large to fit"
)


class TestColumnNormOverflow:
    """A tensor whose norm fits float64 can still be too large to fit: the
    squares of a solved factor column overflow. cp_als names the rank, sweep
    and mode, where it once moved the infinite norm into the weights and
    returned an all-zero model with fits of 0."""

    def test_overflowing_column_norm_is_a_named_error(self):
        t = SparseTensorCOO([[0, 0, 0]], [1e153], (1, 1, 1))
        message = (
            "rank 1: factor column norms overflow float64 at sweep 1, mode 0; "
            "the tensor's values are too large to fit"
        )
        with pytest.raises(ValueError, match=exactly(message)):
            cp_als(t, 1, AlsOptions(seed=0))

    def test_fit_is_relative_to_the_tensor_norm(self):
        # The square of 1e154 overflows float64, but the fit divides the
        # weights and the operands of <X, M> by ||X|| first: an exact model
        # reads 1, where every fit once read NaN and ran all max_iters sweeps.
        t = SparseTensorCOO([[0, 0]], [1e154], (1, 1))
        model, history = cp_als(t, 1, AlsOptions(seed=0))
        assert model.weights.tolist() == [1e154]
        assert history == [1.0, 1.0]
        assert fit(t, model) == 1.0


@st.composite
def scaled_tensors(draw):
    """A small tensor of order 2 to 4, a rank, a seed and an exponent k."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    cells = st.tuples(*(st.integers(0, n - 1) for n in shape))
    nonzeros = draw(st.dictionaries(cells, st.floats(0.1, 2.0), min_size=1, max_size=12))
    tensor = SparseTensorCOO(list(nonzeros), list(nonzeros.values()), shape)
    # Half the exponents lie near the top, where the squares of the values
    # and of the solves cross the float64 limit.
    k = draw(st.one_of(st.integers(-400, 520), st.integers(500, 515)))
    return tensor, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)), k


class TestPowerOfTwoScaling:
    """Multiplying a tensor's values by 2^k changes no bit of its fit but the
    weights: the init ignores the values, every product scales exactly, the
    factor columns are the solves divided by their norms, and the fit divides
    by ||X||. Where the scaled values are too large, the fit is a named
    error instead. A product is exact only above float64's smallest normal
    number, so k < 0 is tried only where the unscaled model's entries stay
    well above 2^-k times it: a component that collapses onto one entry can
    shrink the others to 1e-305 in four sweeps."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=scaled_tensors())
    # Found at the parent of the column-norm check: an all-zero model with
    # fits of 0, and NaN fits.
    @example(case=(SparseTensorCOO([[0, 0, 0]], [1.0], (1, 1, 1)), 1, 0, 509))
    @example(case=(SparseTensorCOO([[0, 0]], [1.5], (1, 1)), 1, 0, 511))
    def test_scaling_moves_only_the_weights(self, case):
        tensor, rank, seed, k = case
        opts = AlsOptions(max_iters=4, seed=seed)
        model, history = cp_als(tensor, rank, opts)
        weights = np.abs(model.weights[model.weights != 0.0])
        smallest = min(np.min(np.abs(f[f != 0.0]), initial=np.inf) for f in model.factors)
        assume(k >= 0 or smallest * np.min(weights, initial=np.inf) * 2.0**k > 2.0**-960)
        scaled = SparseTensorCOO(tensor.coords, np.ldexp(tensor.values, k), tensor.shape)
        try:
            got, got_history = cp_als(scaled, rank, opts)
        except ValueError as exc:
            assert COLUMN_NORM_OVERFLOW.fullmatch(str(exc)) or str(exc).startswith(
                "the tensor's norm overflows float64"
            ), exc
            return
        assert got_history == history
        np.testing.assert_array_equal(got.weights, np.ldexp(model.weights, k))
        for a, b in zip(got.factors, model.factors):
            np.testing.assert_array_equal(a, b)


class TestArrange:
    def test_sorts_by_weight_magnitude(self):
        model = KruskalModel(
            weights=np.array([1.0, 5.0]),
            factors=[np.array([[0.5, 0.25], [0.5, 0.75]]) for _ in range(2)],
        )
        out = arrange(model)
        np.testing.assert_allclose(out.weights, [5.0, 1.0])
        np.testing.assert_allclose(out.factors[0][:, 0], [0.25, 0.75])

    def test_negative_columns_flipped_into_weight(self):
        model = KruskalModel(
            weights=np.array([2.0]),
            factors=[np.array([[-1.0], [-3.0]]), np.array([[2.0], [2.0]])],
        )
        out = arrange(model)
        # one negative-sum column flips: weight picks up one sign change,
        # then both columns normalize to sum 1
        np.testing.assert_allclose(out.factors[0][:, 0], [0.25, 0.75])
        np.testing.assert_allclose(out.factors[1][:, 0], [0.5, 0.5])
        assert out.weights[0] == pytest.approx(-32.0)
        assert np.flatnonzero(out.weights < 0).tolist() == [0]

    def test_represents_same_tensor(self, rng):
        model = KruskalModel(
            weights=rng.uniform(0.5, 2.0, size=3),
            factors=[rng.standard_normal((4, 3)) for _ in range(3)],
        )
        before = dense_from_model(model)
        after = dense_from_model(arrange(model))
        np.testing.assert_allclose(after, before, atol=1e-12)

    def test_fit_unchanged_by_arrange(self, rng):
        t = random_sparse(rng, (5, 4, 3), 25)
        model, _ = cp_als(t, 2, AlsOptions(max_iters=8, seed=3))
        rearranged = arrange(model)
        assert abs(fit(t, model) - fit(t, rearranged)) < 1e-12

    def test_idempotent(self, rng):
        # a column whose sum is 1 to within its rounding is left as it is,
        # so a second pass changes no bit and keeps the order
        model = KruskalModel(
            weights=rng.uniform(0.5, 2.0, size=3),
            factors=[rng.standard_normal((5, 3)) for _ in range(3)],
        )
        once = arrange(model)
        twice = arrange(once)
        np.testing.assert_array_equal(twice.weights, once.weights)
        for a, b in zip(once.factors, twice.factors):
            np.testing.assert_array_equal(b, a)

    def test_peak_memory_below_twice_the_factors(self):
        # A rank-200 model whose four factors hold 17.5 MiB.
        rng = np.random.default_rng(5)
        model = KruskalModel(
            weights=rng.random(200),
            factors=[rng.standard_normal((n, 200)) for n in (468, 3000, 20, 7968)],
        )
        factor_bytes = sum(f.nbytes for f in model.factors)
        tracemalloc.start()
        try:
            arrange(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * factor_bytes

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factors_are_c_ordered(self, rng, order):
        # save_model streams each factor into its payload; a factor in any
        # other memory order would be copied whole there.
        model = KruskalModel(
            weights=rng.uniform(0.5, 2.0, size=4),
            factors=[np.asarray(rng.standard_normal((n, 4)), order=order) for n in (3, 5, 1, 7)],
        )
        assert [f.flags.c_contiguous for f in arrange(model).factors] == [True] * 4
        fitted, _ = cp_als(random_sparse(rng, (4, 5, 3), 20), 3, AlsOptions(max_iters=3, seed=4))
        assert [f.flags.c_contiguous for f in fitted.factors] == [True] * 3

    def test_preserves_component_count_with_zero_weight(self):
        model = KruskalModel(
            weights=np.array([0.0, 1.0]),
            factors=[np.array([[0.0, 0.5], [0.0, 0.5]]) for _ in range(2)],
        )
        out = arrange(model)
        assert out.rank == 2
        np.testing.assert_allclose(out.weights, [1.0, 0.0])


class TestModelFile:
    def test_round_trip_bitwise(self, tmp_path, rng):
        t = random_sparse(rng, (5, 4, 3, 6), 30)
        model, _ = cp_als(t, 3, AlsOptions(max_iters=6, seed=13))
        path = save_model(model, tmp_path / "m.model", tensor_payload_crc32=7)
        loaded, header = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        for a, b in zip(loaded.factors, model.factors):
            np.testing.assert_array_equal(a, b)
        # The mode names and labels are the tensor's; the header holds what load_pool checks.
        assert list(header) == ["format", "schema_version", "rank", "shape", "tensor_payload_crc32", "payload_crc32"]
        assert (header["rank"], header["shape"], header["tensor_payload_crc32"]) == (3, [5, 4, 3, 6], 7)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        t = random_sparse(rng, (4, 4, 4), 15)
        model, _ = cp_als(t, 2, AlsOptions(max_iters=5, seed=1))
        a = save_model(model, tmp_path / "a.model")
        b = save_model(model, tmp_path / "b.model")
        assert a.read_bytes() == b.read_bytes()

    def test_negative_and_tiny_values_survive(self, tmp_path):
        model = KruskalModel(
            weights=np.array([-3.5, 1e-300]),
            factors=[np.array([[0.1 + 0.2, -1e-17], [1.0 / 3.0, 2.0**-1074]])],
        )
        save_model(model, tmp_path / "m.model")
        loaded, _ = load_model(tmp_path / "m.model")
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.factors[0], model.factors[0])

    def test_numbers_come_from_the_payload(self, tmp_path):
        model = KruskalModel(weights=[2.0, 1.0], factors=[[[0.5, 0.25], [0.5, 0.75]]])
        path = save_model(model, tmp_path / "m.model")
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("0.25", "0.99"), encoding="utf-8")
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.factors[0], [[0.5, 0.25], [0.5, 0.75]])

    def test_npy_version_3_is_refused(self, tmp_path):
        # save_model writes version 1.0 alone; PAYLOAD_FAULTS covers 2.0.
        model = KruskalModel(weights=[2.0, 1.0], factors=[np.arange(6.0).reshape(3, 2)])
        path = save_model(model, tmp_path / "m.model")
        save_npy_version(tmp_path / "m.model.npy", (3, 0))
        phrase = "model payload in .npy format 3.0, factorize writes 1.0; rerun factorize"
        with pytest.raises(ValueError, match=re.escape(phrase)):
            load_model(path)

    @pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
    def test_payload_fault_is_a_named_error(self, tmp_path, rng, fault):
        t = random_sparse(rng, (4, 3, 5), 12)
        model, _ = cp_als(t, 2, AlsOptions(max_iters=3, seed=2))
        path = save_model(model, tmp_path / "m.model")
        PAYLOAD_FAULTS[fault][0](path, tmp_path / "m.model.npy")
        with pytest.raises(ValueError, match=payload_phrase(fault, MODEL)) as info:
            load_model(path)
        assert "m.model" in str(info.value)

    def test_vast_shape_on_which_both_headers_agree_is_a_named_error(self, tmp_path, rng):
        t = random_sparse(rng, (4, 3, 5), 12)
        model, _ = cp_als(t, 2, AlsOptions(max_iters=3, seed=2))
        path = save_model(model, tmp_path / "m.model")
        declare_vast_model(path)
        with pytest.raises(ValueError, match="unreadable model payload: .* bytes of data") as info:
            load_model(path)
        assert "m.model.npy" in str(info.value)

    @pytest.mark.parametrize(
        "header, phrase",
        [("[1, 2]", "unrecognized model format None"), ('{"format": "kruskal-model"', "unreadable model header")],
    )
    def test_bad_header_is_a_named_error(self, tmp_path, header, phrase):
        path = tmp_path / "m.model"
        path.write_text(header + "\n2.0 1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=phrase) as info:
            load_model(path)
        assert "m.model" in str(info.value)

    def test_negative_extent_is_a_named_error(self, tmp_path):
        # Extents summing to -1 would ask the payload for 0 rows.
        path = tmp_path / "m.model"
        path.write_text(
            '{"format": "kruskal-model", "schema_version": %d, "rank": 1, "shape": [-1]}\n' % MODEL.schema_version,
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="negative extent in shape") as info:
            load_model(path)
        assert "m.model" in str(info.value)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text('{"format": "other", "schema_version": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="format"):
            load_model(path)


class TestStopReason:
    def test_fit_decrease(self):
        assert stop_reason([0.1, 0.3, 0.29], 1e-6) == "fit_decreased"

    def test_gain_below_tolerance(self):
        assert stop_reason([0.1, 0.3, 0.3], 1e-6) == "tolerance"
        assert stop_reason([0.1, 0.3, 0.3000005], 1e-6) == "tolerance"

    def test_still_improving_means_sweep_cap(self):
        assert stop_reason([0.1, 0.3, 0.4], 1e-6) == "max_iters"
        assert stop_reason([0.1], 1e-6) == "max_iters"

    def test_agrees_with_cp_als(self, rng):
        t = random_sparse(rng, (5, 4, 3, 4), 30)
        _, capped = cp_als(t, 2, AlsOptions(max_iters=2, fit_tolerance=1e-12, seed=1))
        assert stop_reason(capped, 1e-12) == "max_iters"
        _, converged = cp_als(t, 2, AlsOptions(max_iters=500, fit_tolerance=1e-3, seed=1))
        assert len(converged) < 500
        assert stop_reason(converged, 1e-3) in ("tolerance", "fit_decreased")
