"""Reference implementations that only the tests call.

Each is the direct, unoptimized form of a quantity the package computes
another way, kept here as an oracle for the tests that check it.
"""

import numpy as np

from hrscluster.clustering import _column_space_basis, _standardize, pf_similarity
from hrscluster.errors import DegenerateInputError
from hrscluster.partitions import Partition


def projection_matrix(H_j: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column space of a full-column-rank matrix."""
    H_j = np.asarray(H_j)
    if H_j.ndim != 2 or H_j.shape[1] > H_j.shape[0]:
        raise DegenerateInputError(f"need a tall matrix, got shape {H_j.shape}")
    basis = _column_space_basis(H_j)
    return basis @ basis.conj().T


def normalized_similarity(H_k: np.ndarray, H_j: np.ndarray) -> float:
    """Standardized similarity when applicable, raw similarity otherwise."""
    return _standardize(pf_similarity(H_k, H_j), H_k.shape[0], H_k.shape[1], H_j.shape[1])


def relabeled(partition: Partition, perm: np.ndarray) -> Partition:
    """``partition`` after renaming user ``u`` to ``perm[u-1] + 1``."""
    return Partition.from_blocks([[int(perm[u - 1]) + 1 for u in b] for b in partition.blocks])


def bell_number(n: int) -> int:
    """Number of set partitions of n elements (Bell triangle recurrence)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def raw_features(sample) -> np.ndarray:
    """Interleaved (re, im) column-major flattening of a sample's channel estimate."""
    flat = np.asarray(sample.H_hat).flatten(order="F")
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out
