import tracemalloc

import numpy as np
import pytest

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

from tensortopics.cp_als import stop_reason

from conftest import (
    PAYLOAD_FAULTS, dense_from_model, dense_mttkrp, from_entries, random_sparse, to_dense,
)


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
        with pytest.raises(ValueError, match="mode 1"):
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

    def test_max_iters_caps_sweeps(self, rng):
        t = random_sparse(rng, (5, 5, 5), 30)
        _, history = cp_als(t, 2, AlsOptions(max_iters=4, fit_tolerance=1e-15, seed=1))
        assert len(history) == 4

    def test_tolerance_stops_early(self, rng):
        t, _ = rank1_tensor(rng, (5, 4, 3))
        _, history = cp_als(t, 1, AlsOptions(max_iters=100, fit_tolerance=1e-4, seed=1))
        assert len(history) < 100


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
        # re-normalizing a column whose sum is 1 +/- 1 ulp can shift values by
        # an ulp, so idempotence holds to float precision, with stable order
        model = KruskalModel(
            weights=rng.uniform(0.5, 2.0, size=3),
            factors=[rng.standard_normal((5, 3)) for _ in range(3)],
        )
        once = arrange(model)
        twice = arrange(once)
        np.testing.assert_allclose(twice.weights, once.weights, rtol=1e-13, atol=1e-16)
        assert np.array_equal(np.argsort(-np.abs(once.weights), kind="stable"),
                              np.argsort(-np.abs(twice.weights), kind="stable"))
        for a, b in zip(once.factors, twice.factors):
            np.testing.assert_allclose(b, a, rtol=1e-13, atol=1e-16)

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
        path = save_model(model, tmp_path / "m.model", mode_names=["a", "d", "j", "w"])
        loaded, header = load_model(path)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        for a, b in zip(loaded.factors, model.factors):
            np.testing.assert_array_equal(a, b)
        assert header["rank"] == 3
        assert header["mode_names"] == ["a", "d", "j", "w"]

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

    def test_fortran_ordered_payload_reads(self, tmp_path):
        model = KruskalModel(weights=[2.0, 1.0], factors=[np.arange(6.0).reshape(3, 2)])
        path = save_model(model, tmp_path / "m.model")
        payload = tmp_path / "m.model.npy"
        np.save(payload, np.asfortranarray(np.load(payload)), allow_pickle=False)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(loaded.factors[0], model.factors[0])

    @pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
    def test_payload_fault_is_a_named_error(self, tmp_path, rng, fault):
        t = random_sparse(rng, (4, 3, 5), 12)
        model, _ = cp_als(t, 2, AlsOptions(max_iters=3, seed=2))
        path = save_model(model, tmp_path / "m.model")
        damage, phrase = PAYLOAD_FAULTS[fault]
        damage(path, tmp_path / "m.model.npy")
        with pytest.raises(ValueError, match=phrase) as info:
            load_model(path)
        assert "m.model" in str(info.value)

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
            '{"format": "kruskal-model", "schema_version": 2, "rank": 1, "shape": [-1]}\n',
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
