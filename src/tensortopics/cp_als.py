"""CP decomposition of sparse tensors by alternating least squares.

The model is the usual weighted sum of rank-one terms: weights lambda_r and
one unit-normalized factor column per mode. Sweeps normalize columns by
2-norm for numerical safety; arrange() converts a finished model to the
reporting convention where every factor column sums to 1 and the absorbed
scale lives in the weights.

There is one MTTKRP kernel, grouped by last-mode fibers (compressed sparse
fiber storage, Smith & Karypis 2015): the public mttkrp() and every sweep of
cp_als() run it. Within a sweep the last factor changes only at the last
mode, so cp_als() computes the per-fiber leaf sums once and reuses them for
every other mode (partial-product reuse, Phan, Tichavsky & Cichocki 2013).
Every pass runs in bands of components through one buffer allocated once
per fit, and the fiber products are built in place: no rank x nnz array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import gram, hadamard_all, normalize_columns_l1, solve_gram
from .sparse_tensor import Segments, SparseTensorCOO


class AlsDivergenceError(RuntimeError):
    """Raised when an ALS update produces non-finite values."""


@dataclass(frozen=True)
class AlsOptions:
    """Solver options: sweep cap, relative fit-improvement stop, and rng seed."""

    max_iters: int = 100
    fit_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.fit_tolerance > 0.0) or not math.isfinite(self.fit_tolerance):
            raise ValueError(f"fit_tolerance must be positive, got {self.fit_tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class KruskalModel:
    """Weighted rank-one sum: weights (rank,) and one (extent, rank) factor per mode."""

    weights: np.ndarray
    factors: list[np.ndarray]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if not self.factors:
            raise ValueError("a model needs at least one factor matrix")
        rank = self.weights.shape[0]
        for k, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(
                    f"factor {k} must have {rank} columns, got shape {f.shape}"
                )

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


def init_factors(shape, rank: int, seed: int) -> list[np.ndarray]:
    """Uniform(0, 1) factor matrices, one per mode, seeded by (seed, mode).

    The per-mode seeding makes every matrix reproducible on its own and
    independent of the order the modes are drawn in.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    factors = []
    for mode, extent in enumerate(shape):
        rng = np.random.default_rng([int(seed), mode])
        factors.append(rng.random((int(extent), rank)))
    return factors


def mttkrp(tensor: SparseTensorCOO, factors, mode: int) -> np.ndarray:
    """Matricized tensor times Khatri-Rao product, computed on last-mode fibers.

    The nonzeros that share their first d-1 coordinates form a fiber (see
    SparseTensorCOO.fibers). For a mode before the last, the value-weighted
    last-factor rows are summed within each fiber, multiplied by the fiber's
    other leading factor rows, and summed into the target rows: the scatter
    runs over fibers, not nonzeros. For the last mode, each nonzero takes its
    fiber's product of leading factor rows times its value, summed per
    last-mode index. Every sum is an np.add.reduceat over a fixed stable
    order, so the result is deterministic. The factor supplied for `mode` is
    ignored.
    """
    d = tensor.order
    if d < 2:
        raise ValueError("mttkrp requires a tensor of order 2 or higher")
    if not 0 <= mode < d:
        raise ValueError(f"mode {mode} out of range for an order-{d} tensor")
    if len(factors) != d:
        raise ValueError(f"expected {d} factor matrices, got {len(factors)}")
    ranks = {f.shape[1] for k, f in enumerate(factors) if k != mode}
    if len(ranks) != 1:
        raise ValueError(f"factor column counts disagree: {sorted(ranks)}")
    rank = ranks.pop()
    for k, f in enumerate(factors):
        if k != mode and f.shape[0] != tensor.shape[k]:
            raise ValueError(
                f"factor for mode {k} has {f.shape[0]} rows, "
                f"tensor extent is {tensor.shape[k]}"
            )

    if tensor.nnz == 0:
        return np.zeros((tensor.shape[mode], rank))
    buffer = _buffer(tensor, rank)
    leaf_sums = None if mode == d - 1 else _leaf_sums(tensor, factors[-1], buffer)
    return _fiber_mttkrp(tensor, factors, mode, leaf_sums, buffer)


# The kernel works rank-major, on (rank, n) arrays: each gather and each
# segment sum then runs along contiguous memory, which makes np.add.reduceat
# several times faster than on (n, rank) rows. Every pass gathers a band of
# rows (components) at a time into one band x nnz buffer: band rows over every
# nonzero for the leaf sums and the last mode, as many rows over every fiber
# as fit for the other modes. So working memory is max(BLOCK_BYTES, 8 nnz)
# bytes at any rank, never rank x nnz (cache blocking, as in SPLATT, Smith et
# al. 2015). A band is as many rows as fit BLOCK_BYTES, at least one: larger
# bands cost memory, smaller ones a Python-level step each.
BLOCK_BYTES = 2 * 1024 * 1024


def _buffer(tensor: SparseTensorCOO, rank: int) -> np.ndarray:
    """The gather buffer of every pass over a nonempty tensor at `rank`:
    band x nnz floats."""
    band = max(1, min(rank, BLOCK_BYTES // (8 * tensor.nnz)))
    return np.empty((band, tensor.nnz))


def _sums(buffer: np.ndarray, columns: np.ndarray, segments: Segments, out: np.ndarray) -> np.ndarray:
    """Run the pass `segments` over the rows of `columns`, as many as `buffer`
    holds at a time: gather columns[rows][:, index], scale it, and write its
    run sums to out[targets, rows]. Each run is summed whole, by one
    np.add.reduceat along a contiguous row, so the bands change no bit."""
    rank, n = columns.shape[0], len(segments.index)
    band = buffer.size // n
    for start in range(0, rank, band):
        rows = slice(start, min(start + band, rank))
        cols = buffer.reshape(-1)[: (rows.stop - start) * n].reshape(-1, n)
        # take's default mode="raise" fills a hidden copy of the band; the
        # pass's index is in range, so "clip" changes nothing.
        columns[rows].take(segments.index, axis=1, out=cols, mode="clip")
        if segments.scale is not None:
            cols *= segments.scale
        # Band by band: one (runs, rank) transpose would be as large as out.
        out[segments.targets, rows] = np.add.reduceat(cols, segments.starts, axis=1).T
    return out


def _columns(factor: np.ndarray, index: np.ndarray) -> np.ndarray:
    """factor[index].T as a contiguous (rank, len(index)) array."""
    return np.ascontiguousarray(factor.T).take(index, axis=1)


def _leaf_sums(tensor: SparseTensorCOO, last_factor: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """(rank, fibers): per fiber, the sum of value * last-factor row."""
    fibers = tensor.fibers
    out = np.empty((last_factor.shape[1], fibers.coords.shape[0]))
    # Written through the transposed view, so the sums stay rank-major.
    _sums(buffer, np.ascontiguousarray(last_factor.T), fibers.leaf_pass, out.T)
    return out


def _fiber_mttkrp(tensor, factors, mode: int, leaf_sums, buffer: np.ndarray) -> np.ndarray:
    """MTTKRP for `mode` of a nonempty tensor, in bands through `buffer`.
    leaf_sums is _leaf_sums() of the current last factor; the last mode does
    not use it, and its pass scales the fiber products per nonzero."""
    fibers = tensor.fibers
    last = tensor.order - 1
    cols = None if mode == last else leaf_sums
    for k in range(last):
        if k != mode:
            # Into the fresh gather, so leaf_sums is never written.
            part = _columns(factors[k], fibers.coords[:, k])
            cols = part if cols is None else np.multiply(part, cols, out=part)
    out = np.zeros((tensor.shape[mode], cols.shape[0]))
    return _sums(buffer, cols, fibers.segments[mode], out)


def _model_norm_sq(weights: np.ndarray, grams) -> float:
    return float(weights @ hadamard_all(grams) @ weights)


def _fit_value(norm_x: float, weights: np.ndarray, grams, inner: float) -> float:
    """1 - ||X - M|| / ||X||, from ||X - M||^2 = ||X||^2 + ||M||^2 - 2 <X, M>
    clamped at zero, so that an exact fit cannot go NaN."""
    residual_sq = max(norm_x * norm_x + _model_norm_sq(weights, grams) - 2.0 * inner, 0.0)
    return 1.0 - math.sqrt(residual_sq) / norm_x


def cp_als(
    tensor: SparseTensorCOO, rank: int, opts: AlsOptions | None = None
) -> tuple[KruskalModel, list[float]]:
    """Fit a rank-`rank` CP model to a sparse tensor.

    Runs alternating least-squares sweeps from a seeded uniform init and
    records the fit (1 - relative residual norm) once per sweep, reusing the
    last mode's MTTKRP so no dense reconstruction is ever formed. Stops when
    the fit improves by less than opts.fit_tolerance (a decrease included)
    or max_iters is reached; stop_reason() tells which. Returns the arranged
    model and the per-sweep fit history.
    """
    if opts is None:
        opts = AlsOptions()
    if tensor.nnz == 0:
        raise ValueError("cannot factorize a tensor with no entries")
    if tensor.order < 2:
        raise ValueError("cp_als requires a tensor of order 2 or higher")

    d = tensor.order
    factors = init_factors(tensor.shape, rank, opts.seed)
    grams = [gram(f) for f in factors]
    norm_x = tensor.frobenius_norm()
    weights = np.ones(rank)
    fit_history: list[float] = []

    projected = solved = None
    buffer = _buffer(tensor, rank)
    for iteration in range(1, opts.max_iters + 1):
        # The last factor changes only at the last mode, so one set of leaf
        # sums serves every other mode of the sweep.
        leaf_sums = _leaf_sums(tensor, factors[-1], buffer)
        for mode in range(d):
            projected = _fiber_mttkrp(tensor, factors, mode, leaf_sums, buffer)
            gram_others = hadamard_all(
                [grams[k] for k in range(d) if k != mode]
            )
            solved = solve_gram(gram_others, projected)
            if not np.all(np.isfinite(solved)):
                raise AlsDivergenceError(
                    f"non-finite factor update at iteration {iteration}, mode {mode}"
                )
            weights = np.sqrt(np.einsum("ir,ir->r", solved, solved))
            factors[mode] = solved / np.where(weights > 0.0, weights, 1.0)
            grams[mode] = gram(factors[mode])

        # After the final mode update, <X, M> = sum(projected * solved) because
        # `solved` still carries the weights and `projected` is that mode's MTTKRP.
        inner = float(np.sum(projected * solved))
        fit_history.append(_fit_value(norm_x, weights, grams, inner))
        if stop_reason(fit_history, opts.fit_tolerance) != "max_iters":
            break

    # Free the sweep's working arrays before arrange copies the factors.
    del buffer, leaf_sums, projected, solved, gram_others
    model = arrange(KruskalModel(weights=weights, factors=factors))
    return model, fit_history


def stop_reason(fit_history, fit_tolerance: float) -> str:
    """Why cp_als stopped, read off its fit history.

    "fit_decreased" if the last sweep lowered the fit, "tolerance" if it
    gained less than fit_tolerance, otherwise "max_iters" (the sweep cap
    ended a fit that was still improving).
    """
    if len(fit_history) > 1:
        gain = fit_history[-1] - fit_history[-2]
        if gain < 0.0:
            return "fit_decreased"
        if gain < fit_tolerance:
            return "tolerance"
    return "max_iters"


def fit(tensor: SparseTensorCOO, model: KruskalModel) -> float:
    """1 - ||X - M||_F / ||X||_F, evaluated without densifying: <X, M> is
    computed from a single mode-0 MTTKRP."""
    if model.order != tensor.order or model.shape != tensor.shape:
        raise ValueError(
            f"model shape {model.shape} does not match tensor shape {tensor.shape}"
        )
    norm_x = tensor.frobenius_norm()
    if norm_x == 0.0:
        raise ValueError("fit is undefined for a tensor with zero norm")
    grams = [gram(f) for f in model.factors]
    projected = mttkrp(tensor, model.factors, 0)
    inner = float(
        model.weights @ np.einsum("ir,ir->r", projected, model.factors[0])
    )
    return _fit_value(norm_x, model.weights, grams, inner)


def arrange(model: KruskalModel) -> KruskalModel:
    """Normalize a model to the reporting convention.

    Flips factor columns with negative sums (folding the sign into the
    weight), scales every column to sum to 1 with the absorbed sums moved
    into the weights, and sorts components by descending absolute weight,
    ties broken by original position. A weight that ends up negative after
    the flips is kept and reported as-is.
    Represents the same tensor as the input and is idempotent bit for bit:
    a second pass leaves every column whose sum is 1 to within the rounding
    of summing it, with weight 1.
    """
    weights = np.array(model.weights, dtype=np.float64)
    factors = []
    # Copy, flip and normalize one factor at a time; rebinding f frees each
    # copy. A flip negates exactly, so its place among the products changes no bit.
    for f in model.factors:
        f = np.array(f, dtype=np.float64)
        flip = f.sum(axis=0) < 0.0
        if np.any(flip):
            f[:, flip] = -f[:, flip]
            weights[flip] = -weights[flip]
        f, absorbed = normalize_columns_l1(f)
        factors.append(f)
        weights = weights * absorbed
    order = np.argsort(-np.abs(weights), kind="stable")
    weights = weights[order]
    # One factor at a time, each old copy freed as its new one is made; take keeps C order.
    for k in range(len(factors)):
        factors[k] = np.take(factors[k], order, axis=1)
    return KruskalModel(weights=weights, factors=factors)
