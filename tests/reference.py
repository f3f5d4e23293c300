"""Reference implementations that only the tests call.

Each is the direct, unoptimized form of a quantity the package computes
another way, kept here as an oracle for the tests that check it.
"""

import numpy as np

from hrscluster import mlp
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


def backward(model, x: np.ndarray, labels: np.ndarray):
    """``mlp.backward``'s gradients in expression form, every product a fresh array."""
    activations, h = [x], x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w
        z += b
        if i < last:
            h = np.maximum(z, 0.0, out=z)
            activations.append(h)
        else:
            z -= z.max(axis=1, keepdims=True)
            delta = np.exp(z, out=z)
            delta /= delta.sum(axis=1, keepdims=True)
    n = len(x)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w, grads_b = [None] * len(model.weights), [None] * len(model.biases)
    for i in range(last, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= activations[i] > 0
    return grads_w, grads_b


def adam_step(model, state, grads) -> None:
    """``mlp.adam_step`` in expression form, on whole parameters; uses only
    ``state``'s moments and step count."""
    grads_w, grads_b = grads
    state.step += 1
    correct1 = 1.0 - mlp.ADAM_BETA1**state.step
    correct2 = 1.0 - mlp.ADAM_BETA2**state.step
    for p, g, m, v in zip(model.weights + model.biases, [*grads_w, *grads_b], state.m, state.v):
        m *= mlp.ADAM_BETA1
        m += (1.0 - mlp.ADAM_BETA1) * g
        v *= mlp.ADAM_BETA2
        v += (1.0 - mlp.ADAM_BETA2) * g * g
        p -= mlp.LEARNING_RATE * (m / correct1) / (np.sqrt(v / correct2) + mlp.ADAM_EPS)
