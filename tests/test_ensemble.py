import logging
import math
import re

import numpy as np
import pytest

from tensortopics import (
    AlsOptions,
    Component,
    KruskalModel,
    SelectionConfig,
    ZeroVectorError,
    cosine,
    decompose_ensemble,
    select_components_detailed,
    similarity_matrix,
)
from tensortopics.ensemble import components_from_model, ensemble_models, rank_seed

from conftest import random_sparse, similarity_matrix_oracle, word_rows

WORD_MODE = 3


def make_component(origin_rank, index, weight, word_vector):
    word = np.asarray(word_vector, dtype=np.float64)
    slices = [np.ones(2), np.ones(2), np.ones(2), word]
    return Component(origin_rank, index, weight, slices)


def basis(dim, axis, scale=1.0):
    v = np.zeros(dim)
    v[axis] = scale
    return v


class TestSelectionConfig:
    def test_defaults(self):
        cfg = SelectionConfig()
        assert cfg.ranks == (20, 40, 60, 80, 100, 120, 200)
        assert cfg.threshold == 0.35
        assert cfg.strategy == "stable-then-dedup"

    def test_rank_order_enforced(self):
        with pytest.raises(ValueError, match="ascending"):
            SelectionConfig(ranks=(40, 20))
        with pytest.raises(ValueError, match="ascending"):
            SelectionConfig(ranks=(20, 20))
        with pytest.raises(ValueError, match="non-empty"):
            SelectionConfig(ranks=())
        with pytest.raises(ValueError, match="positive"):
            SelectionConfig(ranks=(0, 5))

    def test_threshold_and_strategy_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            SelectionConfig(threshold=-0.1)
        with pytest.raises(ValueError, match="strategy"):
            SelectionConfig(strategy="always-keep")
        # above 1 is allowed: it disables deduplication
        assert SelectionConfig(threshold=1.5).threshold == 1.5


class TestRankSeed:
    def test_deterministic_and_rank_sensitive(self):
        assert rank_seed(3, 20) == rank_seed(3, 20)
        assert rank_seed(3, 20) != rank_seed(3, 40)
        assert rank_seed(4, 20) != rank_seed(3, 20)


class TestDecomposeEnsemble:
    def test_pool_size_is_rank_sum(self, rng):
        t = random_sparse(rng, (5, 4, 3, 4), 35)
        opts = AlsOptions(max_iters=3, seed=0)
        pool = decompose_ensemble(t, SelectionConfig(ranks=(2,)), opts)
        assert len(pool) == 2
        pool = decompose_ensemble(t, SelectionConfig(ranks=(2, 3)), opts)
        assert len(pool) == 5
        assert [c.origin_rank for c in pool] == [2, 2, 3, 3, 3]
        assert [c.index_in_model for c in pool] == [0, 1, 0, 1, 2]

    def test_thread_count_does_not_change_results(self, rng):
        t = random_sparse(rng, (5, 4, 3, 4), 35)
        opts = AlsOptions(max_iters=4, seed=9)
        cfg = SelectionConfig(ranks=(2, 3, 4))
        sequential = decompose_ensemble(t, cfg, opts, threads=1)
        threaded = decompose_ensemble(t, cfg, opts, threads=3)
        assert len(sequential) == len(threaded) == 9
        for a, b in zip(sequential, threaded):
            assert a.origin_rank == b.origin_rank
            assert a.weight == b.weight
            for fa, fb in zip(a.factor_slices, b.factor_slices):
                np.testing.assert_array_equal(fa, fb)

    def test_failing_rank_is_dropped_not_fatal(self, rng, monkeypatch):
        import tensortopics.ensemble as ensemble_mod
        from tensortopics import AlsDivergenceError

        t = random_sparse(rng, (4, 4, 4), 20)
        real_cp_als = ensemble_mod.cp_als

        def flaky(tensor, rank, opts):
            if rank == 3:
                raise AlsDivergenceError("non-finite factor update at iteration 1, mode 0")
            return real_cp_als(tensor, rank, opts)

        monkeypatch.setattr(ensemble_mod, "cp_als", flaky)
        pool = decompose_ensemble(t, SelectionConfig(ranks=(2, 3, 4)), AlsOptions(max_iters=2))
        assert sorted({c.origin_rank for c in pool}) == [2, 4]
        assert len(pool) == 6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_other_error_stops_the_ranks_not_yet_started(self, rng, monkeypatch, threads):
        import tensortopics.ensemble as ensemble_mod

        started = []

        def broken(tensor, rank, opts):
            started.append(rank)
            raise RuntimeError(f"rank {rank} broke")

        monkeypatch.setattr(ensemble_mod, "cp_als", broken)
        ranks = (2, 3, 4, 5)
        with pytest.raises(RuntimeError, match="rank 2 broke"):
            ensemble_models(random_sparse(rng, (4, 4, 4), 20), ranks, threads=threads)
        # only the ranks already handed to a worker when the first one failed ran
        assert 2 in started and set(started) <= set(ranks[:threads])

    def test_models_keyed_by_rank(self, rng):
        t = random_sparse(rng, (4, 4, 4), 20)
        models = ensemble_models(t, (2, 3), AlsOptions(max_iters=2, seed=1))
        assert sorted(models) == [2, 3]
        assert models[2].rank == 2 and models[3].rank == 3
        comps = components_from_model(models[3], 3)
        assert [c.index_in_model for c in comps] == [0, 1, 2]
        np.testing.assert_array_equal(comps[1].factor_slices[0], models[3].factors[0][:, 1])


    def test_log_names_the_stop_reason(self, rng, caplog):
        t = random_sparse(rng, (4, 4, 4), 20)
        opts = AlsOptions(max_iters=2, fit_tolerance=1e-12, seed=1)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="tensortopics.ensemble"):
            ensemble_models(t, (2,), opts)
        (message,) = [r.getMessage() for r in caplog.records]
        assert re.fullmatch(r"rank 2: fit -?[0-9.]+ after 2 sweep\(s\), stopped: max_iters", message)

    def test_fit_decrease_logged_as_warning(self, rng, caplog, monkeypatch):
        import tensortopics.ensemble as ensemble_mod

        model = ensemble_models(random_sparse(rng, (3, 3), 5), (1,), AlsOptions(max_iters=1))[1]
        monkeypatch.setattr(ensemble_mod, "cp_als", lambda tensor, rank, opts: (model, [0.5, 0.4]))
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="tensortopics.ensemble"):
            ensemble_models(random_sparse(rng, (3, 3), 5), (1,))
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == "rank 1: fit 0.400000 after 2 sweep(s), stopped: fit_decreased"


class TestCosine:
    def test_parallel_is_one(self):
        assert cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_opposed_is_minus_one(self):
        assert cosine([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_distinct_error(self):
        with pytest.raises(ZeroVectorError):
            cosine([0.0, 0.0], [1.0, 2.0])
        with pytest.raises(ZeroVectorError):
            cosine([1.0, 2.0], [0.0, 0.0])
        assert issubclass(ZeroVectorError, ValueError)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine([1.0], [1.0, 2.0])


class TestSelectComponents:
    def test_cross_rank_duplicates_collapse_to_one(self):
        vec = [1.0, 2.0, 3.0, 0.0, 0.0]
        pool = [
            make_component(2, 0, 5.0, vec),
            make_component(3, 0, 4.0, vec),
        ]
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35)
        kept = select_components_detailed(pool, cfg, WORD_MODE).kept
        assert len(kept) == 1
        assert kept[0] is pool[0]  # higher weight wins

    def test_orthogonal_pool_all_kept_under_greedy(self):
        pool = [
            make_component(2, i, float(5 - i), basis(6, i)) for i in range(4)
        ]
        cfg = SelectionConfig(ranks=(2,), threshold=0.35, strategy="greedy-dedup")
        kept = select_components_detailed(pool, cfg, WORD_MODE).kept
        assert len(kept) == 4

    def test_orthogonal_pool_nothing_stable(self):
        pool = [
            make_component(2, 0, 3.0, basis(6, 0)),
            make_component(3, 0, 2.0, basis(6, 1)),
        ]
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35)
        assert select_components_detailed(pool, cfg, WORD_MODE).kept == []

    def test_constructed_pool_keeps_exactly_the_recurring_topics(self):
        dim = 10
        topic_a = basis(dim, 0)
        topic_b = basis(dim, 1)
        pool = [
            make_component(20, 0, 10.0, topic_a * 2.0),
            make_component(40, 0, 9.0, topic_a * 1.5),
            make_component(60, 0, 8.0, topic_a),
            make_component(40, 1, 7.0, topic_b * 3.0),
            make_component(60, 1, 6.0, topic_b),
            make_component(20, 1, 5.0, basis(dim, 2)),
            make_component(40, 2, 4.0, basis(dim, 3)),
            make_component(60, 2, 3.0, basis(dim, 4)),
            make_component(80, 0, 2.0, basis(dim, 5)),
            make_component(100, 0, 1.0, basis(dim, 6)),
        ]
        cfg = SelectionConfig(ranks=(20, 40, 60, 80, 100), threshold=0.35)
        result = select_components_detailed(pool, cfg, WORD_MODE)
        assert result.pooled_count == 10
        assert result.stable_count == 5
        assert len(result.kept) == 2
        assert result.kept[0] is pool[0] and result.kept[1] is pool[3]
        # stability witnesses name the cross-rank partners
        assert result.partners[0] == [(40, 0), (60, 0)]
        assert result.partners[1] == [(60, 1)]
        # kept pair is dissimilar
        sims = similarity_matrix(word_rows(result.kept, WORD_MODE))
        assert abs(sims[0, 1]) < cfg.threshold

    def test_kept_pairs_always_below_threshold(self, rng):
        for trial in range(10):
            pool = [
                make_component(2 + (i % 3), i, float(rng.uniform(0.5, 5.0)),
                               rng.standard_normal(8))
                for i in range(15)
            ]
            cfg = SelectionConfig(
                ranks=(2, 3, 4), threshold=0.35, strategy="greedy-dedup"
            )
            kept = select_components_detailed(pool, cfg, WORD_MODE).kept
            assert kept
            sims = similarity_matrix(word_rows(kept, WORD_MODE))
            off_diag = sims[~np.eye(len(kept), dtype=bool)]
            assert np.all(off_diag < cfg.threshold)

    def test_threshold_above_one_disables_dedup(self, rng):
        pool = [
            make_component(2, i, float(i + 1), rng.standard_normal(5)) for i in range(6)
        ]
        cfg = SelectionConfig(ranks=(2,), threshold=1.0 + 1e-9, strategy="greedy-dedup")
        assert len(select_components_detailed(pool, cfg, WORD_MODE).kept) == 6

    def test_threshold_zero_keeps_exactly_one(self, rng):
        pool = [
            make_component(2, i, float(i + 1), rng.uniform(0.1, 1.0, size=5))
            for i in range(6)
        ]
        cfg = SelectionConfig(ranks=(2,), threshold=0.0, strategy="greedy-dedup")
        kept = select_components_detailed(pool, cfg, WORD_MODE).kept
        assert len(kept) == 1
        assert kept[0] is pool[-1]  # the heaviest

    def test_scaling_word_vectors_changes_nothing(self, rng):
        vectors = [rng.standard_normal(7) for _ in range(8)]
        pool_a = [make_component(2 + i % 2, i, float(8 - i), v) for i, v in enumerate(vectors)]
        pool_b = [
            make_component(2 + i % 2, i, float(8 - i), v * (10.0 ** (i % 3)))
            for i, v in enumerate(vectors)
        ]
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35)
        kept_a = select_components_detailed(pool_a, cfg, WORD_MODE).kept
        kept_b = select_components_detailed(pool_b, cfg, WORD_MODE).kept
        assert [(c.origin_rank, c.index_in_model) for c in kept_a] == [
            (c.origin_rank, c.index_in_model) for c in kept_b
        ]

    def test_weight_tie_breaks_by_rank_then_index(self):
        vec_a = basis(4, 0)
        vec_b = basis(4, 1)
        pool = [
            make_component(3, 1, 2.0, vec_a),
            make_component(3, 0, 2.0, vec_b),
            make_component(2, 0, 2.0, vec_a),
            make_component(2, 1, 2.0, vec_b),
        ]
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35)
        kept = select_components_detailed(pool, cfg, WORD_MODE).kept
        assert [(c.origin_rank, c.index_in_model) for c in kept] == [(2, 0), (2, 1)]

    def test_empty_pool(self):
        cfg = SelectionConfig(ranks=(2,), threshold=0.35)
        result = select_components_detailed([], cfg, WORD_MODE)
        assert result.kept == [] and result.pooled_count == 0

    @pytest.mark.parametrize(
        "pool",
        [[], [make_component(2, 0, 5.0, np.zeros(4)), make_component(3, 0, 1.0, np.zeros(4))]],
        ids=["empty", "all_zero_word_slices"],
    )
    @pytest.mark.parametrize("strategy,stable", [("stable-then-dedup", 0), ("greedy-dedup", None)])
    def test_stable_count_when_nothing_is_comparable(self, pool, strategy, stable):
        # greedy-dedup has no stability gate, so it counts no stable candidates
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35, strategy=strategy)
        result = select_components_detailed(pool, cfg, WORD_MODE)
        assert (result.kept, result.partners) == ([], [])
        assert (result.pooled_count, result.stable_count) == (len(pool), stable)

    def test_negative_weight_ranked_by_magnitude(self):
        vec = basis(4, 0)
        pool = [
            make_component(2, 0, -5.0, vec),
            make_component(3, 0, 2.0, vec),
        ]
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35)
        kept = select_components_detailed(pool, cfg, WORD_MODE).kept
        assert len(kept) == 1 and kept[0].weight == -5.0

    def test_zero_word_slice_components_are_excluded(self):
        pool = [
            make_component(2, 0, 5.0, np.zeros(4)),
            make_component(2, 1, 1.0, basis(4, 0)),
            make_component(3, 0, 1.0, basis(4, 0)),
        ]
        cfg = SelectionConfig(ranks=(2, 3), threshold=0.35)
        kept = select_components_detailed(pool, cfg, WORD_MODE).kept
        assert [(c.origin_rank, c.index_in_model) for c in kept] == [(2, 1)]


    def test_witnesses_match_pairwise_loop(self, rng):
        # Reference: the stable-witness search written as a loop over pairs.
        pool = [
            make_component(rank, i, float(rng.uniform(0.1, 2.0)), rng.random(6) ** 4)
            for rank in (2, 3, 5)
            for i in range(rank)
        ]
        for threshold in (0.5, 0.8, 0.95):
            cfg = SelectionConfig(ranks=(2, 3, 5), threshold=threshold)
            result = select_components_detailed(pool, cfg, WORD_MODE)
            sims = similarity_matrix(word_rows(pool, WORD_MODE))
            stable = 0
            witnesses = {}
            for i, c in enumerate(pool):
                found = sorted(
                    (o.origin_rank, o.index_in_model)
                    for j, o in enumerate(pool)
                    if o.origin_rank != c.origin_rank and sims[i, j] >= threshold
                )
                stable += bool(found)
                witnesses[(c.origin_rank, c.index_in_model)] = found
            assert result.stable_count == stable
            for c, partners in zip(result.kept, result.partners):
                assert partners == witnesses[(c.origin_rank, c.index_in_model)]
                assert all(type(x) is int for p in partners for x in p)


def pairwise_selection(pool, cfg):
    """Reference selection written as loops over pairs with cosine():
    stable iff some other-rank component is within the threshold, then kept
    iff the cosine to every earlier kept component is < threshold."""
    pool = [c for c in pool if np.any(c.word_slice(WORD_MODE) != 0.0)]

    def cos(a, b):
        return cosine(a.word_slice(WORD_MODE), b.word_slice(WORD_MODE))

    def witnesses(c):
        return sorted(
            (o.origin_rank, o.index_in_model)
            for o in pool
            if o.origin_rank != c.origin_rank and cos(c, o) >= cfg.threshold
        )

    if cfg.strategy == "stable-then-dedup":
        candidates = [c for c in pool if witnesses(c)]
    else:
        candidates = list(pool)
    candidates.sort(key=lambda c: (-abs(c.weight), c.origin_rank, c.index_in_model))
    kept = []
    for c in candidates:
        if all(cos(c, k) < cfg.threshold for k in kept):
            kept.append(c)
    partners = [witnesses(c) if cfg.strategy == "stable-then-dedup" else [] for c in kept]
    return kept, partners


class TestSelectionMatchesPairwiseOracle:
    @pytest.mark.parametrize("strategy", ["stable-then-dedup", "greedy-dedup"])
    def test_random_pools(self, rng, strategy):
        for trial in range(6):
            pool = [
                make_component(rank, i, float(rng.uniform(-3.0, 3.0)), rng.random(12) ** 3)
                for rank in (2, 3, 5)
                for i in range(rank)
            ]
            pool.append(make_component(7, 0, 9.0, np.zeros(12)))
            for threshold in (0.0, 0.2, 0.35, 0.6, 0.8, 0.95, 1.5):
                cfg = SelectionConfig(ranks=(2, 3, 5, 7), threshold=threshold, strategy=strategy)
                result = select_components_detailed(pool, cfg, WORD_MODE)
                kept, partners = pairwise_selection(pool, cfg)
                assert [(c.origin_rank, c.index_in_model) for c in result.kept] == [
                    (c.origin_rank, c.index_in_model) for c in kept
                ]
                assert result.partners == partners

    @pytest.mark.parametrize("strategy", ["stable-then-dedup", "greedy-dedup"])
    def test_pair_exactly_at_threshold(self, strategy):
        # cosine((1,0,0,0), (1,1,1,1)) is exactly 0.5 in floating point.
        pool = [
            make_component(2, 0, 3.0, [1.0, 0.0, 0.0, 0.0]),
            make_component(3, 0, 2.0, [1.0, 1.0, 1.0, 1.0]),
        ]
        assert similarity_matrix(word_rows(pool, WORD_MODE))[0, 1] == 0.5
        for threshold in (0.5, np.nextafter(0.5, 1.0)):
            cfg = SelectionConfig(ranks=(2, 3), threshold=threshold, strategy=strategy)
            result = select_components_detailed(pool, cfg, WORD_MODE)
            kept, partners = pairwise_selection(pool, cfg)
            assert result.kept == kept
            assert result.partners == partners
        at = select_components_detailed(
            pool, SelectionConfig(ranks=(2, 3), threshold=0.5, strategy=strategy), WORD_MODE
        )
        # at the threshold the pair counts as similar: the lighter one is blocked
        assert at.kept == [pool[0]]
        if strategy == "stable-then-dedup":
            assert at.partners == [[(3, 0)]]


class TestSimilarityMatrix:
    def test_matches_pairwise_cosine(self, rng):
        pool = [make_component(2, i, 1.0, rng.standard_normal(6)) for i in range(5)]
        sims = similarity_matrix(word_rows(pool, WORD_MODE))
        assert sims.shape == (5, 5)
        np.testing.assert_allclose(sims, sims.T, atol=1e-15)
        np.testing.assert_array_equal(np.diag(sims), np.ones(5))
        for i in range(5):
            for j in range(5):
                want = cosine(pool[i].word_slice(WORD_MODE), pool[j].word_slice(WORD_MODE))
                assert sims[i, j] == pytest.approx(want, abs=1e-12)

    def test_zero_vector_rejected(self):
        pool = [make_component(2, 0, 1.0, np.zeros(3))]
        with pytest.raises(ZeroVectorError):
            similarity_matrix(word_rows(pool, WORD_MODE))

    def test_names_the_first_zero_word_slice(self):
        pool = [make_component(2, i, 1.0, np.ones(3) * (i % 2 == 0)) for i in range(4)]
        with pytest.raises(ZeroVectorError, match=r"row 1 is an all-zero word slice"):
            similarity_matrix(word_rows(pool, WORD_MODE))

    def test_equals_per_row_construction_bitwise(self, rng):
        model = KruskalModel(rng.random(9), [rng.random((n, 9)) for n in (2, 3, 2, 300)])
        pool = components_from_model(model, 9)
        pool += [make_component(3, i, 1.0, rng.standard_normal(300)) for i in range(6)]
        rows = []
        for c in pool:
            v = c.word_slice(WORD_MODE)
            rows.append(v / math.sqrt(float(np.dot(v, v))))
        mat = np.array(rows)
        want = mat @ mat.T
        want = (want + want.T) / 2.0
        np.fill_diagonal(want, 1.0)
        assert np.array_equal(similarity_matrix(word_rows(pool, WORD_MODE)), want)
        # A model's word factor, whose columns select hands over as strided rows.
        want = similarity_matrix_oracle(pool[:9], WORD_MODE)
        assert np.array_equal(similarity_matrix(model.factors[WORD_MODE].T), want)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            similarity_matrix(np.empty((0, 5)))
