"""Order-d sparse tensors in coordinate (COO) format.

Coordinates are kept lexicographically sorted and coalesced so that every
downstream kernel (MTTKRP in particular) accumulates in a fixed order and
reruns are bitwise reproducible. The sort also makes each last-mode fiber
(the nonzeros sharing their first d-1 coordinates) a contiguous run, which
FiberIndex records for the MTTKRP kernel. The on-disk container is
written and read by the artifacts module.
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
    """Rows grouped by a key, for summing with np.add.reduceat.

    fibers[i] is the fiber that supplies the i-th row in summation order;
    the rows of each run starts[j]:starts[j + 1] share the key targets[j].
    """

    fibers: np.ndarray
    starts: np.ndarray
    targets: np.ndarray


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Start index of each run of equal consecutive rows (or elements)."""
    changed = rows[1:] != rows[:-1]
    if rows.ndim == 2:
        changed = np.any(changed, axis=1)
    return np.flatnonzero(np.r_[rows.shape[0] > 0, changed])


def _segments(keys: np.ndarray, fibers: np.ndarray) -> tuple[np.ndarray, Segments]:
    """Stable sort order of `keys` and the Segments it induces on `fibers`."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = _run_starts(keys)
    return order, Segments(fibers[order], starts, keys[starts])


@dataclass(frozen=True)
class FiberIndex:
    """The last-mode fibers of a sorted tensor: one level of compressed sparse
    fiber (CSF) storage.

    starts : (S,) first nonzero of each fiber; coords : (S, d-1) its leading
    coordinates; leaf : (nnz,) each nonzero's last coordinate, contiguous for
    fast gathers. segments[k] groups rows by their mode-k coordinate: the S
    fibers for k < d-1, the nonzeros (stably sorted by last coordinate) for
    the last mode, whose values in that order are leaf_values.
    """

    starts: np.ndarray
    coords: np.ndarray
    leaf: np.ndarray
    segments: tuple[Segments, ...]
    leaf_values: np.ndarray

    @classmethod
    def build(cls, coords: np.ndarray, values: np.ndarray) -> "FiberIndex":
        lead = coords[:, :-1]
        starts = _run_starts(lead)
        fiber_coords = lead[starts]
        fiber_ids = np.arange(starts.shape[0])
        segments = [_segments(fiber_coords[:, k], fiber_ids)[1] for k in range(lead.shape[1])]
        fiber_of = np.repeat(fiber_ids, np.diff(np.r_[starts, coords.shape[0]]))
        leaf = np.ascontiguousarray(coords[:, -1])
        order, by_leaf = _segments(leaf, fiber_of)
        return cls(starts, fiber_coords, leaf, (*segments, by_leaf), values[order])


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
            self._fibers = FiberIndex.build(self.coords, self.values)
        return self._fibers

    def frobenius_norm(self) -> float:
        """Square root of the sum of squared stored values; a ValueError,
        without numpy's RuntimeWarning, where that sum overflows float64."""
        with np.errstate(over="ignore"):
            norm_sq = float(np.dot(self.values, self.values))
        if math.isinf(norm_sq):
            raise ValueError("the tensor's norm overflows float64: its squared values sum past the largest double")
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

