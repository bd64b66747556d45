"""Order-d sparse tensors in coordinate (COO) format.

Coordinates are kept lexicographically sorted and coalesced so that every
downstream kernel (MTTKRP in particular) accumulates in a fixed order and
reruns are bitwise reproducible. The sort also makes each last-mode fiber
(the nonzeros sharing their first d-1 coordinates) a contiguous run, over
which FiberIndex runs the MTTKRP kernel. The on-disk container is written
and read by the artifacts module.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class AxisMap:
    """Label <-> index mapping for one tensor mode.

    Labels are unique strings; index order is insertion order.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[str]):
        self.labels: list[str] = [str(label) for label in labels]
        if len(set(self.labels)) != len(self.labels):
            seen: set[str] = set()
            for label in self.labels:
                if label in seen:
                    raise ValueError(f"duplicate axis label {label!r}")
                seen.add(label)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, AxisMap) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"AxisMap({len(self.labels)} labels)"


class Segments(NamedTuple):
    """One summation pass: gathered rows grouped by a key, for np.add.reduceat.

    index[i] is the column that supplies the i-th row in summation order,
    scaled by scale[i] (None: unscaled); the rows of each run
    starts[j]:starts[j + 1] share the key targets[j].
    """

    index: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    scale: np.ndarray | None = None

    def band(self, rank: int) -> int:
        """Rows of a (rank, n) pass gathered at a time: as many as fit
        BLOCK_BYTES, and at least one (larger bands cost memory, smaller
        ones a step each)."""
        return max(1, min(rank, BLOCK_BYTES // (8 * len(self.index))))

    def sums(self, columns: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Run this pass over the rows of `columns`, a band at a time: gather
        columns[rows][:, index], scale it, and write its run sums to
        out[targets, rows]. Each run is summed whole, by one np.add.reduceat
        along a contiguous row, so the bands change no bit."""
        rank = columns.shape[0]
        band = self.band(rank)
        buffer = np.empty((band, len(self.index)))
        for start in range(0, rank, band):
            rows = slice(start, min(start + band, rank))
            cols = buffer[: rows.stop - start]
            # take's default mode="raise" fills a hidden copy of the band; the
            # pass's index is in range, so "clip" changes nothing.
            columns[rows].take(self.index, axis=1, out=cols, mode="clip")
            if self.scale is not None:
                cols *= self.scale
            # Band by band: one (runs, rank) transpose would be as large as out.
            out[self.targets, rows] = np.add.reduceat(cols, self.starts, axis=1).T
        return out


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Start index of each run of equal consecutive rows (or elements)."""
    changed = rows[1:] != rows[:-1]
    if rows.ndim == 2:
        changed = np.any(changed, axis=1)
    return np.flatnonzero(np.r_[rows.shape[0] > 0, changed])


def _segments(keys: np.ndarray, index: np.ndarray, scale=None) -> Segments:
    """The pass that sums `index`'s rows, scaled, per key in keys' stable order."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return Segments(index[order], starts, keys[starts], None if scale is None else scale[order])


# The working memory of the fiber products, in bytes: the largest gather
# buffer, and the largest fiber-value matrix kept dense.
BLOCK_BYTES = 2 * 1024 * 1024
# kappa: the fiber-value matrix is kept dense when at least 1/kappa of it is
# nonzero. One leaf pass plus one last-mode pass through BLAS took 0.3x to
# 0.94x the banded passes' time at 3% full, and 1.2x to 2.1x at 0.5% full at
# the larger two of F x J = 20 x 200, 100 x 2,500 and 400 x 600 (ranks 20 and
# 200, one BLAS thread, one core of an x86-64 VM).
MAX_DENSE_SPARSITY = 32


@dataclass(frozen=True)
class FiberIndex:
    """The last-mode fibers of a sorted tensor of `shape` (one level of
    compressed sparse fiber, CSF, storage) and the MTTKRP over them. Only
    this class knows how the fiber values are stored.

    coords : (F, d-1) each fiber's leading coordinates. segments[k] is mode
    k < d-1's pass, over the F fibers grouped by their mode-k coordinate.
    The MTTKRP reaches the F x J fiber values X (X[f, j]: fiber f's value at
    last coordinate j) only through the products W_last^T X^T (leaf_sums)
    and X^T P (mttkrp's last mode). build stores X in one of two forms:
    - dense: X itself, where it fits BLOCK_BYTES and at least
      1/MAX_DENSE_SPARSITY of it is nonzero. Both products are BLAS matrix
      products, deterministic for one BLAS kernel and thread count.
    - banded: dense is None; leaf_pass sums each fiber's nonzeros in storage
      order (last coordinates scaled by values, one run per fiber), and
      last_pass is the last mode's pass over the nonzeros, stably sorted by
      last coordinate and scaled by their values.
    Passes run rank-major, on (rank, n) arrays, so that each gather and each
    np.add.reduceat runs along contiguous memory (several times faster than
    on (n, rank) rows), in bands of components through a buffer that each
    pass sizes to its own n (Segments.band) and frees when it returns.
    Working memory is max(BLOCK_BYTES, 8 nnz) bytes at any rank, never rank
    x nnz (cache blocking, as in SPLATT, Smith et al. 2015).
    """

    shape: tuple[int, ...]
    coords: np.ndarray
    segments: tuple[Segments, ...]
    dense: np.ndarray | None
    leaf_pass: Segments | None
    last_pass: Segments | None

    @classmethod
    def build(cls, coords: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> "FiberIndex":
        """The index of sorted `coords` and `values` of a tensor of `shape`."""
        lead = coords[:, :-1]
        starts = _run_starts(lead)
        fiber_coords = lead[starts]
        fiber_ids = np.arange(starts.shape[0])
        segments = tuple(_segments(fiber_coords[:, k], fiber_ids) for k in range(lead.shape[1]))
        fiber_of = np.repeat(fiber_ids, np.diff(np.r_[starts, coords.shape[0]]))
        leaf = np.ascontiguousarray(coords[:, -1])
        cells = starts.shape[0] * shape[-1]
        if 0 < 8 * cells <= BLOCK_BYTES and values.shape[0] * MAX_DENSE_SPARSITY >= cells:
            dense = np.zeros((starts.shape[0], shape[-1]))
            dense[fiber_of, leaf] = values
            return cls(shape, fiber_coords, segments, dense, None, None)
        leaf_pass = Segments(leaf, starts, fiber_ids, values)
        return cls(shape, fiber_coords, segments, None, leaf_pass, _segments(leaf, fiber_of, values))

    def leaf_sums(self, last_factor: np.ndarray) -> np.ndarray:
        """W_last^T X^T as (rank, F): per fiber, the sum of value * last-factor row."""
        if self.dense is not None:
            return last_factor.T @ self.dense.T
        out = np.empty((last_factor.shape[1], self.coords.shape[0]))
        # Written through the transposed view, so the sums stay rank-major.
        self.leaf_pass.sums(np.ascontiguousarray(last_factor.T), out.T)
        return out

    def mttkrp(self, factors, mode: int, leaf_sums: np.ndarray | None) -> np.ndarray:
        """MTTKRP for `mode` of a nonempty tensor: the fibers' (rank, F)
        products P^T of leading factor rows, times `leaf_sums` (leaf_sums of
        the current last factor, which is never written) for a leading mode,
        summed by that mode's pass; for the last mode X^T P, per last-mode
        index the sum of value * its fiber's product, and leaf_sums unused."""
        last = len(self.shape) - 1
        cols = None if mode == last else leaf_sums
        for k in range(last):
            if k != mode:
                # Into the fresh gather, so leaf_sums is never written.
                part = np.ascontiguousarray(factors[k].T).take(self.coords[:, k], axis=1)
                cols = part if cols is None else np.multiply(part, cols, out=part)
        if mode == last and self.dense is not None:
            return self.dense.T @ cols.T
        segments = self.last_pass if mode == last else self.segments[mode]
        return segments.sums(cols, np.zeros((self.shape[mode], cols.shape[0])))

    def __str__(self) -> str:
        if self.dense is None:
            return f"banded passes over {len(self.leaf_pass.index)} nonzeros"
        nnz = np.count_nonzero(self.dense)
        return f"dense {self.dense.shape[0]} x {self.dense.shape[1]} ({100.0 * nnz / self.dense.size:.1f}% full)"


class SparseTensorCOO:
    """Immutable sparse tensor with sorted, coalesced, strictly positive entries.

    Attributes
    ----------
    shape : tuple[int, ...]
        Extent of each mode, all positive.
    coords : np.ndarray
        (nnz, d) int64 coordinates in lexicographic row order.
    values : np.ndarray
        (nnz,) float64 values, finite and > 0, aligned with coords.

    Construction sorts, coalesces duplicates by summation, and drops exact
    zeros, so the same logical entries always produce the same arrays.
    Rows that are already strictly increasing (as a saved container's and
    build_counts' are) skip the sort and the coalescing, which would leave
    them unchanged; any other rows are lexsorted.
    The arrays are marked read-only; instances are safe to share across
    threads.
    """

    __slots__ = ("shape", "coords", "values", "_fibers")

    def __init__(self, coords, values, shape: Sequence[int]):
        shape = tuple(int(n) for n in shape)
        if len(shape) == 0:
            raise ValueError("tensor order must be at least 1")
        if any(n <= 0 for n in shape):
            raise ValueError(f"shape must have positive extents, got {shape}")
        d = len(shape)

        coords = np.array(coords, dtype=np.int64)
        if coords.size == 0:
            coords = coords.reshape(0, d)
        if coords.ndim != 2 or coords.shape[1] != d:
            raise ValueError(
                f"coords must be (nnz, {d}) for an order-{d} tensor, got {coords.shape}"
            )
        values = np.array(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != coords.shape[0]:
            raise ValueError(
                f"{coords.shape[0]} coordinates but {values.shape[0]} values"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("tensor values must be finite")

        for k in range(d):
            col = coords[:, k]
            if col.size and (col.min() < 0 or col.max() >= shape[k]):
                bad = int(col[(col < 0) | (col >= shape[k])][0])
                raise ValueError(
                    f"coordinate {bad} out of bounds for mode {k} (extent {shape[k]})"
                )

        # From the last column to the first, consecutive rows are in order if
        # column k rises, or holds while the later columns are in order.
        prev, nxt = coords[:-1], coords[1:]
        rising = nxt[:, -1] > prev[:, -1]
        for k in range(d - 2, -1, -1):
            rising = (nxt[:, k] > prev[:, k]) | ((nxt[:, k] == prev[:, k]) & rising)
        if not rising.all():
            # lexsort is stable, so bincount sums each run of duplicates in
            # input order: coalescing is deterministic (and equal to
            # np.unique(axis=0) plus bincount), at any shape.
            order = np.lexsort(coords.T[::-1])
            coords = coords[order]
            starts = _run_starts(coords)
            run_of = np.repeat(np.arange(starts.shape[0]), np.diff(np.r_[starts, coords.shape[0]]))
            values = np.bincount(run_of, weights=values[order], minlength=starts.shape[0])
            coords = coords[starts]
        keep = values != 0.0
        if not keep.all():
            coords, values = coords[keep], values[keep]
        if np.any(values <= 0.0):
            raise ValueError("tensor values must be positive after coalescing")

        coords.setflags(write=False)
        values.setflags(write=False)
        self.shape = shape
        self.coords = coords
        self.values = values
        self._fibers = None

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def fibers(self) -> FiberIndex:
        """The last-mode fiber index, built on first use and then cached.

        The tensor is immutable, so the index never goes stale. Threads that
        race on the first use each build the same index; either one is kept.
        """
        if self._fibers is None:
            self._fibers = FiberIndex.build(self.coords, self.values, self.shape)
        return self._fibers

    def frobenius_norm(self) -> float:
        """Square root of the sum of squared stored values; a ValueError,
        without numpy's RuntimeWarning, where that sum overflows float64, or
        underflows to zero although values are stored."""
        with np.errstate(over="ignore"):
            norm_sq = float(np.dot(self.values, self.values))
        if math.isinf(norm_sq):
            raise ValueError("the tensor's norm overflows float64: its squared values sum past the largest double")
        if norm_sq == 0.0 and self.nnz:
            raise ValueError("the tensor's norm underflows float64: its squared values sum to zero")
        return math.sqrt(norm_sq)

    def entries(self):
        """Yield (coordinate tuple, value) pairs in sorted order."""
        for row, value in zip(self.coords, self.values):
            yield tuple(int(c) for c in row), float(value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensorCOO)
            and self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"SparseTensorCOO(shape={self.shape}, nnz={self.nnz})"

