"""Rank-ensemble factorization and cosine-similarity component selection.

One CP model is fit per rank in a configured set, every component from every
model is pooled, and a word-factor cosine criterion picks a deduplicated
subset to report. Fitting the same data at several ranks and keeping only
components that recur across ranks (the stable-then-dedup strategy) trades
redundant compute for robustness to any single rank choice.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

# The settings types are defined in config and importable from here too.
from .config import DEFAULT_RANKS, STRATEGIES, SelectionConfig
from .cp_als import AlsDivergenceError, AlsOptions, KruskalModel, cp_als, stop_reason
from .sparse_tensor import SparseTensorCOO

logger = logging.getLogger(__name__)


class ZeroVectorError(ValueError):
    """Raised when a cosine similarity is requested against a zero vector."""


@dataclass
class Component:
    """One rank-one term lifted out of a model, tagged with its origin."""

    origin_rank: int
    index_in_model: int
    weight: float
    factor_slices: list[np.ndarray]

    def word_slice(self, word_mode: int) -> np.ndarray:
        return self.factor_slices[word_mode]


@dataclass
class SelectionResult:
    """Kept components plus the evidence behind the decision.

    kept lists the kept components in kept order: their pool positions from
    select_pool, the Components themselves from select_components_detailed.
    partners[i] lists (origin_rank, index_in_model) of the cross-rank
    components that certified kept[i] as stable; empty under greedy-dedup.
    stable_count is the number of stable candidates, None under greedy-dedup.
    similarities holds the word-slice cosines the selection used, in pool
    order, with NaN in the row and column of each excluded component.
    """

    kept: list
    partners: list[list[tuple[int, int]]]
    pooled_count: int
    stable_count: int | None = None
    similarities: np.ndarray | None = None


def rank_seed(base_seed: int, rank: int) -> int:
    """Deterministic per-rank seed derived from (base_seed, rank)."""
    return int(np.random.SeedSequence([int(base_seed), int(rank)]).generate_state(1)[0])


def components_from_model(model: KruskalModel, origin_rank: int) -> list[Component]:
    """Split a model into per-component column slices. Each column is copied,
    so the model can be freed while its components live."""
    return [
        Component(origin_rank, r, float(model.weights[r]), [np.array(f[:, r]) for f in model.factors])
        for r in range(model.rank)
    ]


def ensemble_models(
    tensor: SparseTensorCOO,
    ranks,
    opts: AlsOptions | None = None,
    threads: int = 1,
    on_model=None,
) -> dict:
    """Fit one CP model per rank. Returns {rank: model}, or with on_model
    {rank: on_model(rank, model)}.

    Each rank runs with its own seed derived from (opts.seed, rank), so the
    result does not depend on execution order and thread count cannot change
    it. Ranks run on `threads` worker threads. Each model is handed over (to
    on_model, if given) in rank order, as soon as it and every lower rank are
    done, and only then is the next rank submitted: at most `threads` fits
    are in flight, and a caller whose on_model saves and drops each model
    holds at most `threads` of them at once. A rank whose solve diverges is
    logged and dropped, and the next rank is submitted in its place; the
    rest of the ensemble still returns. Any other error is raised once the
    fits already in flight end, and the ranks not yet submitted never run.
    Each rank logs its final fit, its sweep count and why it stopped (see
    stop_reason), at WARNING when the fit went down. Before any fit, each
    rank at or above the tensor's F last-mode fibers is logged at WARNING:
    one rank-one term per fiber reproduces the tensor exactly, so F bounds
    its CP rank.
    """
    from concurrent.futures import ThreadPoolExecutor  # only factorize fits, so only it loads this

    if opts is None:
        opts = AlsOptions()
    waiting = deque(ranks)
    fibers = tensor.fibers.coords.shape[0]
    for rank in waiting:
        if rank >= fibers:
            logger.warning(
                "rank %d is at or above the tensor's %d last-mode fibers, which bound its CP rank",
                rank, fibers,
            )

    def fit_one(rank: int):
        return cp_als(tensor, rank, replace(opts, seed=rank_seed(opts.seed, rank)))

    in_flight = deque()
    results = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        while waiting or in_flight:
            while waiting and len(in_flight) < threads:
                rank = waiting.popleft()
                in_flight.append((rank, pool.submit(fit_one, rank)))
            # The popped future holds the model: it must not outlive the
            # hand-over, so it is never bound here.
            _hand_over(*in_flight.popleft(), opts.fit_tolerance, on_model, results)
    return results


def _hand_over(rank: int, future, fit_tolerance: float, on_model, results: dict) -> None:
    """Wait for one rank's fit, log it, and store on_model's result for it,
    or the model without on_model; a diverged rank is logged and left out,
    and a rank whose fit runs out of memory raises a ValueError naming it."""
    try:
        model, fit_history = future.result()
    except AlsDivergenceError as exc:
        logger.warning("dropping rank %d: %s", rank, exc)
        return
    except MemoryError as exc:
        # A rank too large for memory is an input error, not a crash.
        raise ValueError(f"rank {rank}: {exc}") from exc
    reason = stop_reason(fit_history, fit_tolerance)
    logger.log(
        logging.WARNING if reason == "fit_decreased" else logging.INFO,
        "rank %d: fit %.6f after %d sweep(s), stopped: %s",
        rank, fit_history[-1], len(fit_history), reason,
    )
    results[rank] = model if on_model is None else on_model(rank, model)


def decompose_ensemble(
    tensor: SparseTensorCOO,
    cfg: SelectionConfig,
    opts: AlsOptions | None = None,
    threads: int = 1,
) -> list[Component]:
    """Fit one CP model per configured rank and pool all components in rank
    order, splitting each model into components as it is handed over."""
    split = ensemble_models(
        tensor, cfg.ranks, opts, threads, on_model=lambda rank, model: components_from_model(model, rank)
    )
    return [c for components in split.values() for c in components]


def cosine(u, v) -> float:
    """Cosine similarity of two equal-length vectors; zero vectors are rejected."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if u.shape != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape[0]} vs {v.shape[0]}")
    nu, nv = math.sqrt(float(np.dot(u, u))), math.sqrt(float(np.dot(v, v)))
    if nu == 0.0 or nv == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    return float(np.dot(u, v)) / (nu * nv)


def _rows(words) -> tuple[np.ndarray, np.ndarray]:
    """A C-ordered float64 copy of the (items, words) matrix `words`, and the
    2-norm of each of its rows."""
    rows = np.array(words, dtype=np.float64, order="C")
    return rows, np.sqrt([np.dot(row, row) for row in rows])


def _cosines(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The cosine matrix of `rows`, whose 2-norms `norms` are nonzero; the
    rows are normalized in place. rows @ rows.T is one syrk call, which
    mirrors one triangle, so the matrix is exactly symmetric."""
    rows /= norms[:, None]
    sims = rows @ rows.T
    np.fill_diagonal(sims, 1.0)
    return sims


def similarity_matrix(words) -> np.ndarray:
    """Pairwise cosines of the rows of the (items, words) matrix `words`, one
    word slice per row: symmetric, unit diagonal. An all-zero row has no
    direction and raises ZeroVectorError naming it."""
    rows, norms = _rows(words)
    if rows.shape[0] == 0:
        raise ValueError("similarity_matrix requires at least one row")
    zero = np.flatnonzero(norms == 0.0)
    if zero.shape[0]:
        raise ZeroVectorError(f"row {zero[0]} is an all-zero word slice")
    return _cosines(rows, norms)


def select_pool(weights, words, ids, cfg: SelectionConfig) -> SelectionResult:
    """Select a deduplicated subset of a component pool by word-factor cosine
    similarity. Pool item j is weights[j], row j of the (pool, words) matrix
    `words`, and ids[j], its (origin_rank, index_in_model); the result's kept
    lists the kept items' pool positions.

    stable-then-dedup: an item is a candidate only if some item from a
    DIFFERENT rank matches it at cosine >= threshold (cross-rank recurrence
    as evidence it is not an artifact of one rank choice); candidates are then
    greedily deduplicated. greedy-dedup: all items are candidates.

    Either way, candidates are visited in descending |weight| order (ties by
    (origin_rank, index_in_model)) and kept iff their cosine to every
    already-kept item is < threshold. Items with all-zero word slices cannot
    be compared and are excluded up front with a warning.
    """
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    ids = np.asarray(ids, dtype=np.int64).reshape(-1, 2)
    rows, norms = _rows(words)
    n = rows.shape[0]
    at = np.flatnonzero(norms != 0.0)
    dropped = n - at.shape[0]
    if dropped:
        logger.warning("excluded %d component(s) with all-zero word slices", dropped)
        rows = rows[at]
    sims = _cosines(rows, norms[at])
    similarities = sims
    if dropped:
        similarities = np.full((n, n), np.nan)
        similarities[np.ix_(at, at)] = sims

    origin, index, magnitude = ids[at, 0], ids[at, 1], np.abs(weights[at])
    if cfg.strategy == "stable-then-dedup":
        witness = (sims >= cfg.threshold) & (origin[:, None] != origin[None, :])
        candidates = np.flatnonzero(witness.any(axis=1))
        stable_count = int(candidates.shape[0])
    else:
        witness = np.zeros(sims.shape, dtype=bool)
        candidates = np.arange(at.shape[0])
        stable_count = None

    candidates = candidates[np.lexsort((index[candidates], origin[candidates], -magnitude[candidates]))]
    # sims is symmetric, so row i of a kept item is its column: a candidate
    # is blocked iff some kept item is within the threshold.
    blocked = np.zeros(at.shape[0], dtype=bool)
    kept: list[int] = []
    for i in candidates.tolist():
        if not blocked[i]:
            kept.append(i)
            blocked |= sims[i] >= cfg.threshold

    partners = [sorted(map(tuple, ids[at[witness[i]]].tolist())) for i in kept]
    return SelectionResult(at[kept].tolist(), partners, n, stable_count, similarities)


def select_components_detailed(
    components, cfg: SelectionConfig, word_mode: int
) -> SelectionResult:
    """select_pool on a list of Components, comparing their word_mode
    slices; the result's kept lists the kept Components themselves."""
    components = list(components)
    words = [c.word_slice(word_mode) for c in components]
    result = select_pool(
        [c.weight for c in components],
        np.array(words, dtype=np.float64) if words else np.empty((0, 0)),
        [(c.origin_rank, c.index_in_model) for c in components],
        cfg,
    )
    return replace(result, kept=[components[i] for i in result.kept])
