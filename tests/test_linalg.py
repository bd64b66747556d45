import numpy as np
import pytest

from tensortopics import (
    AlsOptions, SparseTensorCOO, cp_als, gram, hadamard_all, normalize_columns_l1, solve_gram,
)

from conftest import kr_columnwise


class TestGram:
    def test_small_example(self):
        a = np.array([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(gram(a), [[2.0, 1.0], [1.0, 1.0]])

    def test_matches_loop_oracle(self, rng):
        a = rng.standard_normal((7, 4))
        want = np.zeros((4, 4))
        for p in range(4):
            for q in range(4):
                want[p, q] = float(np.dot(a[:, p], a[:, q]))
        np.testing.assert_allclose(gram(a), want, atol=1e-12)

    def test_symmetric(self, rng):
        g = gram(rng.standard_normal((30, 6)))
        np.testing.assert_allclose(g, g.T, atol=1e-14 * np.abs(g).max())


class TestHadamardAll:
    def test_two_matrices(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(hadamard_all([a, b]), [[5.0, 12.0], [21.0, 32.0]])

    def test_single_matrix_is_identity_operation(self, rng):
        a = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(hadamard_all([a]), a)

    def test_matches_loop_oracle(self, rng):
        mats = [rng.standard_normal((4, 4)) for _ in range(3)]
        want = np.ones((4, 4))
        for m in mats:
            for p in range(4):
                for q in range(4):
                    want[p, q] *= m[p, q]
        np.testing.assert_allclose(hadamard_all(mats), want, atol=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            hadamard_all([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            hadamard_all([np.ones((2, 2)), np.ones((3, 3))])

    def test_does_not_mutate_inputs(self):
        a = np.ones((2, 2))
        b = np.full((2, 2), 3.0)
        hadamard_all([a, b])
        np.testing.assert_array_equal(a, np.ones((2, 2)))

    def test_gram_of_khatri_rao_property(self, rng):
        # gram(A kr B) == gram(A) * gram(B) elementwise
        for _ in range(10):
            a = rng.standard_normal((5, 3))
            b = rng.standard_normal((4, 3))
            np.testing.assert_allclose(
                gram(kr_columnwise(a, b)),
                hadamard_all([gram(a), gram(b)]),
                atol=1e-10,
            )


@pytest.fixture
def solve_paths(monkeypatch):
    """The numpy routines each later solve_gram call ran, one tuple per call
    (a call starts with its Cholesky probe); a routine that raised
    LinAlgError is named with " failed"."""
    events = []
    for name in ("cholesky", "solve", "inv", "lstsq"):
        def spy(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            try:
                out = _real(*args, **kwargs)
            except np.linalg.LinAlgError:
                events.append(f"{_name} failed")
                raise
            events.append(_name)
            return out

        monkeypatch.setattr(np.linalg, name, spy)

    def paths():
        calls = []
        for event in events:
            if event.startswith("cholesky"):
                calls.append(())
            calls[-1] += (event,)
        return calls

    return paths


class TestSolveGram:
    def test_identity_passthrough(self, rng):
        rhs = rng.standard_normal((5, 3))
        np.testing.assert_allclose(solve_gram(np.eye(3), rhs), rhs, atol=1e-12)

    def test_scaled_identity(self):
        rhs = np.full((2, 2), 6.0)
        np.testing.assert_allclose(solve_gram(2.0 * np.eye(2), rhs), rhs / 2.0, atol=1e-12)

    def test_reconstructs_well_conditioned_solution(self, rng):
        for _ in range(10):
            r = int(rng.integers(2, 6))
            base = rng.standard_normal((r + 4, r))
            g = gram(base) + 0.5 * np.eye(r)
            x_true = rng.standard_normal((7, r))
            rhs = x_true @ g
            np.testing.assert_allclose(solve_gram(g, rhs), x_true, atol=1e-8)

    def test_singular_gram_does_not_abort(self):
        g = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        rhs = np.array([[2.0, 2.0], [4.0, 4.0]])
        out = solve_gram(g, rhs)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out @ g, rhs, atol=1e-6)

    # right-hand sides with fewer rows than the rank, and with more
    @pytest.mark.parametrize("rows", [1, 3])
    def test_zero_gram_returns_minimum_norm(self, rows):
        out = solve_gram(np.zeros((2, 2)), np.ones((rows, 2)))
        np.testing.assert_array_equal(out, np.zeros((rows, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_gram(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones((1, 2)))
        with pytest.raises(ValueError, match="finite"):
            solve_gram(np.eye(2), np.array([[np.inf, 0.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            solve_gram(np.ones((2, 3)), np.ones((1, 3)))
        with pytest.raises(ValueError, match="columns"):
            solve_gram(np.eye(3), np.ones((2, 2)))

    # ranks 2-200, condition numbers 1 to 1e10, one to 500 right-hand rows
    @pytest.mark.parametrize("r", [2, 3, 10, 50, 200])
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4, 1e6, 1e8, 1e10])
    def test_agrees_with_lu_solve_within_the_condition_bound(self, rng, r, cond):
        # A solve through the explicit inverse loses up to a factor of
        # cond(G) against a backward-stable one (Higham 2002, ch. 14); the
        # worst ratio seen over these cases is 0.11 of n * eps * cond(G).
        q, _ = np.linalg.qr(rng.standard_normal((r, r)))
        g = (q * np.logspace(0.0, -np.log10(cond), r)) @ q.T
        g = (g + g.T) / 2.0
        bound = r * np.finfo(np.float64).eps * np.linalg.cond(g)
        for rows in (1, 80, 500):
            rhs = rng.standard_normal((rows, r))
            want = np.linalg.solve(g, rhs.T).T
            got = solve_gram(g, rhs)
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)

    def test_probe_passing_gram_is_lu_below_the_rank_else_rhs_times_inverse(self, rng):
        # Fewer rows than the rank take one LU solve; as many rows as the
        # rank, or more, take the product with the explicit inverse.
        for r in (1, 4, 40, 200):
            g = gram(rng.standard_normal((r + 30, r))) * gram(rng.standard_normal((r + 5, r)))
            np.linalg.cholesky(g)
            for rows in sorted({1, r - 1, r, r + 1, 97} - {0}):
                rhs = rng.standard_normal((rows, r))
                want = np.linalg.solve(g, rhs.T).T if rows < r else rhs @ np.linalg.inv(g)
                np.testing.assert_array_equal(solve_gram(g, rhs), want)

    @pytest.mark.parametrize("rows", [2, 6])
    def test_probe_failing_gram_takes_the_ridge_path(self, rng, rows):
        # Columns v, 2v with v.v = 9, quartered, make the gram's second
        # Cholesky pivot exactly 9 - 3 * 3 = 0: PSD, rank-deficient, with a
        # positive trace.
        a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0], [2.0, 4.0, 3.0]])
        g = hadamard_all([gram(a), np.full((3, 3), 0.25)])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
        rhs = rng.standard_normal((rows, 3))
        ridge = 1e-12 * float(np.trace(g)) / 3
        assert ridge > 0.0
        np.testing.assert_array_equal(
            solve_gram(g, rhs), np.linalg.solve(g + ridge * np.eye(3), rhs.T).T
        )

    def test_cp_als_solves_its_singular_grams_by_the_ridge(self, solve_paths):
        # Two modes of extent 1 at rank 3: each of their factors' grams has
        # rank 1, and 4 of the 6 solves of the fit's 2 sweeps fail the probe.
        tensor = SparseTensorCOO([[0, 0, k] for k in range(5)], [1.0, 2.0, 3.0, 4.0, 5.0], (1, 1, 5))
        model, history = cp_als(tensor, 3, AlsOptions())
        paths = solve_paths()
        assert len(paths) == 3 * len(history) == 6
        assert paths.count(("cholesky failed", "solve")) == 4
        assert paths.count(("cholesky", "solve")) == 2
        assert np.all(np.isfinite(model.weights)) and all(np.all(np.isfinite(f)) for f in model.factors)
        assert np.all(np.isfinite(history))

    def test_zero_gram_takes_the_least_squares_path(self, solve_paths):
        # A zero trace leaves no ridge to add.
        out = solve_gram(np.zeros((2, 2)), np.ones((1, 2)))
        assert solve_paths() == [("cholesky failed", "lstsq")]
        assert np.all(np.isfinite(out))


class TestNormalizeColumnsL1:
    def test_column_sums_absorbed(self):
        normalized, weights = normalize_columns_l1(np.array([[2.0], [2.0]]))
        np.testing.assert_array_equal(normalized, [[0.5], [0.5]])
        np.testing.assert_array_equal(weights, [4.0])

    def test_zero_column_untouched_with_zero_weight(self):
        normalized, weights = normalize_columns_l1(np.array([[0.0, 1.0], [0.0, 3.0]]))
        np.testing.assert_array_equal(normalized[:, 0], [0.0, 0.0])
        assert weights[0] == 0.0
        np.testing.assert_allclose(normalized[:, 1], [0.25, 0.75])
        assert weights[1] == 4.0

    # a sum of exactly zero, and one that is only rounding noise
    @pytest.mark.parametrize("column", [[0.5, -0.5, 0.0], [-1.0, 1.0, 2.03346144e-294]])
    def test_zero_sum_column_keeps_its_scale(self, column):
        a = np.column_stack([column, [1.0, 3.0, 0.0]])
        normalized, weights = normalize_columns_l1(a)
        np.testing.assert_array_equal(normalized[:, 0], column)
        assert weights[0] == 1.0
        np.testing.assert_array_equal(normalized * weights, a)

    def test_reconstruction(self, rng):
        a = rng.uniform(0.1, 2.0, size=(6, 4))
        normalized, weights = normalize_columns_l1(a)
        np.testing.assert_allclose(normalized * weights, a, atol=1e-12)
        np.testing.assert_allclose(normalized.sum(axis=0), np.ones(4), atol=1e-12)

    def test_idempotent_on_normalized_input(self, rng):
        a = rng.uniform(0.1, 2.0, size=(5, 3))
        normalized, _ = normalize_columns_l1(a)
        again, weights = normalize_columns_l1(normalized)
        np.testing.assert_allclose(again, normalized, atol=1e-14)
        np.testing.assert_allclose(weights, np.ones(3), atol=1e-14)
