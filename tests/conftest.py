"""Shared oracles and builders.

The oracles here are deliberately independent of the library's sparse
kernels: dense arrays, nested loops, np.kron, and a coordinate-order
gather/scatter over the nonzeros.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from tensortopics import from_entries

DATA_DIR = Path(__file__).parent / "data"

# Child processes import the package from this checkout too, so the suite
# runs without an install (pyproject's pytest `pythonpath` covers this process).
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p
)


def to_dense(tensor):
    """Scatter a sparse tensor into a dense ndarray."""
    dense = np.zeros(tensor.shape)
    for coord, value in tensor.entries():
        dense[coord] = value
    return dense


def kr_columnwise(a, b):
    """Khatri-Rao oracle: per-column np.kron."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1]))
    for r in range(a.shape[1]):
        out[:, r] = np.kron(a[:, r], b[:, r])
    return out


def dense_mttkrp(dense, factors, mode):
    """MTTKRP oracle: unfold the dense tensor, multiply by the chained Khatri-Rao."""
    d = dense.ndim
    others = [factors[k] for k in range(d) if k != mode]
    kr = others[0]
    for f in others[1:]:
        kr = kr_columnwise(kr, f)
    unfolding = np.moveaxis(dense, mode, 0).reshape(dense.shape[mode], -1)
    return unfolding @ kr


def coo_mttkrp(tensor, factors, mode):
    """MTTKRP oracle on COO storage: gather the other factors' rows at every
    nonzero, scale by the value, and scatter-add into the target rows."""
    rank = factors[(mode + 1) % tensor.order].shape[1]
    acc = np.tile(tensor.values[:, None], (1, rank))
    for k in range(tensor.order):
        if k != mode:
            acc *= factors[k][tensor.coords[:, k], :]
    out = np.zeros((tensor.shape[mode], rank))
    np.add.at(out, tensor.coords[:, mode], acc)
    return out


def dense_from_model(model):
    """Densify a CP model by summing explicit outer products."""
    dense = np.zeros(model.shape)
    for r in range(model.rank):
        term = model.weights[r]
        block = model.factors[0][:, r]
        for f in model.factors[1:]:
            block = np.multiply.outer(block, f[:, r])
        dense = dense + term * block
    return dense


def random_sparse(rng, shape, nnz, low=0.1, high=1.1):
    """Random positive sparse tensor; duplicate coordinates coalesce."""
    coords = [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(nnz)]
    values = rng.uniform(low, high, size=nnz)
    return from_entries(list(zip(coords, values)), shape)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
