"""Dense factor-matrix helpers for CP-ALS.

Factor matrices are plain float64 ndarrays of shape (extent, rank); one
column per component.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def gram(a: np.ndarray) -> np.ndarray:
    """A^T A for a factor matrix A."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("gram expects a matrix")
    return a.T @ a


def hadamard_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise product of same-shaped matrices. The list must be non-empty."""
    if len(mats) == 0:
        raise ValueError("hadamard_all requires at least one matrix")
    out = np.array(mats[0], dtype=np.float64)
    for m in mats[1:]:
        m = np.asarray(m, dtype=np.float64)
        if m.shape != out.shape:
            raise ValueError(f"shape mismatch: {m.shape} vs {out.shape}")
        out *= m
    return out


def solve_gram(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve X G = RHS for X, where G is a symmetric gram-product matrix.

    If a Cholesky probe finds G positive definite, X is one LU solve of
    G X^T = RHS^T when RHS has fewer rows than G (2/3 R^3 + 2 I R^2 flops,
    backward stable), and RHS @ inv(G) otherwise (8/3 R^3 + 2 I R^2 flops, but
    one matrix product, which is faster than LU with as many right-hand
    sides). Otherwise G gets a ridge of 1e-12 * trace(G) / R on its diagonal
    and an LU solve; if that fails too, or the ridge is zero, X is the
    minimum-norm least-squares solution. Never aborts on singular input.
    """
    g = np.asarray(g, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"gram matrix must be square, got {g.shape}")
    if rhs.ndim != 2 or rhs.shape[1] != g.shape[0]:
        raise ValueError(
            f"right-hand side must have {g.shape[0]} columns, got {rhs.shape}"
        )
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(rhs))):
        raise ValueError("solve_gram requires finite inputs")

    try:
        np.linalg.cholesky(g)
        if rhs.shape[0] < g.shape[0]:
            return np.linalg.solve(g, rhs.T).T
        return rhs @ np.linalg.inv(g)
    except np.linalg.LinAlgError:
        pass
    r = g.shape[0]
    ridge = 1e-12 * float(np.trace(g)) / r
    if ridge > 0.0:
        try:
            return np.linalg.solve(g + ridge * np.eye(r), rhs.T).T
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(g, rhs.T, rcond=None)[0].T


def normalize_columns_l1(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each column to sum to 1, returning (normalized, absorbed sums).

    Column r of the result is a[:, r] / sum(a[:, r]) and weights[r] is the
    absorbed sum, so normalized * weights reconstructs the input. A column
    whose sum is zero to within the rounding error of summing it cannot be
    normalized: the sum's sign and size are noise, and dividing by it would
    only blow the entries up. Such a column is left unchanged with weight 1,
    or weight 0 if it is all zero (callers treat that as a dead component).
    A column whose sum is 1 to within that error is left unchanged with
    weight 1 too, so a second pass gives the same bits as the first.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("normalize_columns_l1 expects a matrix")
    col_sums = a.sum(axis=0)
    # n roundings of the absolute sum bound the error of the computed sum.
    noise = a.shape[0] * np.finfo(np.float64).eps * np.abs(a).sum(axis=0)
    summed = (np.abs(col_sums) > noise) & (np.abs(col_sums - 1.0) > noise)
    normalized = a / np.where(summed, col_sums, 1.0)
    weights = np.where(summed, col_sums, np.any(a != 0.0, axis=0)).astype(np.float64)
    return normalized, weights
