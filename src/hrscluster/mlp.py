"""Shallow softmax classifier trained from scratch in float64.

Architecture: input 2*N*M + N(N-1)/2 (the estimated channel, real/imaginary
interleaved, followed by the projection-Frobenius similarity of every user
pair; all standardized per feature) -> 256 ReLU -> 128 ReLU -> softmax over
the partition classes. The pair similarities are the quantities
agglomeration starts from; they are phase-invariant fourth-order functions
of the estimate that the network would otherwise have to learn from the
draws. Trained with mini-batch Adam on the mean categorical cross entropy.
Everything is plain numpy so training is bit-reproducible for a fixed seed
and platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _binio
from .data import DatasetSplit, Sample
from .errors import ConfigurationError, DataFormatError, NumericalConsistencyError

MODEL_MAGIC = b"HRSMLP01"
MODEL_VERSION = 2  # 2: inputs gained the user-pair similarities

STD_FLOOR = 1e-8
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature standardization constants, fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(features: np.ndarray) -> "FeatureStats":
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        return FeatureStats(mean, np.maximum(std, STD_FLOOR))


def feature_count(users: int, antennas: int) -> int:
    """Classifier input width: 2*N*M raw entries, then N(N-1)/2 pair similarities."""
    return 2 * users * antennas + users * (users - 1) // 2


def raw_features(sample: Sample) -> np.ndarray:
    """Interleaved (re, im) column-major flattening of the channel estimate.

    Only the estimate enters the classifier; the true channel is never read.
    """
    flat = np.asarray(sample.H_hat).flatten(order="F")
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


@lru_cache(maxsize=None)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (i, j), i < j, index arrays; cached, as building them costs
    more than the similarities of one sample."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def pair_similarities(h_hat: np.ndarray) -> np.ndarray:
    """Projection-Frobenius similarity of every user pair, per stacked estimate.

    ``h_hat`` is (S, M, N); the result is (S, N(N-1)/2), row-major over the
    upper triangle of the column-normalized |Gram|^2, i.e.
    |h_i^H h_j|^2 / (|h_i|^2 |h_j|^2) for i < j. That equals
    ``clustering.pf_similarity`` of the two single columns; a pair with a
    zero column scores 0.
    """
    rows, cols = _upper_pairs(h_hat.shape[2])
    gram = np.swapaxes(h_hat.conj(), 1, 2) @ h_hat
    overlap = np.abs(gram[:, rows, cols]) ** 2
    power = np.diagonal(gram, axis1=1, axis2=2).real
    norms = power[:, rows] * power[:, cols]
    return np.divide(overlap, norms, out=np.zeros_like(overlap), where=norms > 0)


def _features(samples) -> np.ndarray:
    """Unstandardized classifier inputs, one row per sample.

    Each row holds ``raw_features`` of the sample, then its pair
    similarities; the whole list is computed in stacked array operations.
    """
    h_hat = np.stack([np.asarray(s.H_hat, dtype=complex) for s in samples])
    num, m, n = h_hat.shape
    flat = np.swapaxes(h_hat, 1, 2).reshape(num, m * n)  # column-major per sample
    out = np.empty((num, feature_count(n, m)))
    out[:, 0 : 2 * m * n : 2] = flat.real
    out[:, 1 : 2 * m * n : 2] = flat.imag
    out[:, 2 * m * n :] = pair_similarities(h_hat)
    return out


def featurize(sample: Sample, stats: FeatureStats) -> np.ndarray:
    return featurize_all([sample], stats)[0]


def featurize_all(samples, stats: FeatureStats) -> np.ndarray:
    if not samples:
        return np.zeros((0, stats.mean.size))
    x = _features(samples)
    if x.shape[1] != stats.mean.size:
        raise ConfigurationError(
            f"sample has {x.shape[1]} features, model expects {stats.mean.size}"
        )
    return (x - stats.mean) / stats.std


@dataclass
class MlpModel:
    weights: list[np.ndarray]  # (fan_in, fan_out) per layer
    biases: list[np.ndarray]
    feature_stats: FeatureStats
    class_labels: tuple[str, ...]

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]


def init_model(
    input_dim: int,
    hidden: tuple[int, ...],
    class_labels,
    stats: FeatureStats,
    rng: np.random.Generator,
) -> MlpModel:
    """He-style uniform initialization, suited to ReLU hidden layers."""
    dims = [input_dim, *hidden, len(class_labels)]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, stats, tuple(class_labels))


def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Class probabilities; rows sum to one."""
    probs, _ = _forward_cached(model, batch)
    return probs


def _forward_cached(model: MlpModel, batch: np.ndarray):
    x = np.atleast_2d(np.asarray(batch, dtype=float))
    if x.shape[1] != model.weights[0].shape[0]:
        raise ConfigurationError(
            f"batch width {x.shape[1]} does not match input layer {model.weights[0].shape[0]}"
        )
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        if not np.all(np.isfinite(z)):
            raise NumericalConsistencyError(f"non-finite activations at layer {i}")
        if i < last:
            h = np.maximum(z, 0.0)
            activations.append(h)
        else:
            z -= z.max(axis=1, keepdims=True)  # shift-invariant, avoids overflow
            e = np.exp(z)
            probs = e / e.sum(axis=1, keepdims=True)
    return probs, activations


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross entropy over the batch."""
    probs = np.atleast_2d(probs)
    labels = np.asarray(labels, dtype=int)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= probs.shape[1]:
        raise ConfigurationError("label index out of range")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def backward(model: MlpModel, batch: np.ndarray, labels: np.ndarray):
    """Analytic gradients of the mean loss for every weight and bias.

    Returns ((weight grads, bias grads), mean loss); the loss comes from the
    same forward pass as the gradients. Softmax and cross entropy fuse to
    (probs - onehot) / batch_size at the output; ReLU passes gradient only
    where its input was positive.
    """
    probs, activations = _forward_cached(model, batch)
    batch_loss = loss(probs, labels)
    labels = np.asarray(labels, dtype=int)
    n = probs.shape[0]
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0)
    return (grads_w, grads_b), batch_loss


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m_w: list[np.ndarray] = field(default_factory=list)
    v_w: list[np.ndarray] = field(default_factory=list)
    m_b: list[np.ndarray] = field(default_factory=list)
    v_b: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def for_model(model: MlpModel, lr: float = 1e-3) -> "AdamState":
        return AdamState(
            lr=lr,
            m_w=[np.zeros_like(w) for w in model.weights],
            v_w=[np.zeros_like(w) for w in model.weights],
            m_b=[np.zeros_like(b) for b in model.biases],
            v_b=[np.zeros_like(b) for b in model.biases],
        )


def adam_step(model: MlpModel, state: AdamState, grads) -> MlpModel:
    """One bias-corrected Adam update, in place."""
    grads_w, grads_b = grads
    state.step += 1
    t = state.step
    correct1 = 1.0 - state.beta1**t
    correct2 = 1.0 - state.beta2**t
    for params, gs, ms, vs in (
        (model.weights, grads_w, state.m_w, state.v_w),
        (model.biases, grads_b, state.m_b, state.v_b),
    ):
        for p, g, m, v in zip(params, gs, ms, vs):
            m *= state.beta1
            m += (1.0 - state.beta1) * g
            v *= state.beta2
            v += (1.0 - state.beta2) * g * g
            p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)
    return model


@dataclass(frozen=True)
class TrainingHyper:
    hidden: tuple[int, ...] = (256, 128)
    learning_rate: float = 1e-3
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch size must be at least 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigurationError(f"learning rate must be positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    train_loss: list[float]
    val_top1: list[float]
    test_top1: float
    test_top3: float
    test_top5: float


def train(dataset: DatasetSplit, hyper: TrainingHyper = TrainingHyper()) -> tuple[MlpModel, TrainReport]:
    """Mini-batch Adam training; the final model is the last epoch's."""
    if not dataset.train:
        raise ConfigurationError("training split is empty")
    labels_sorted = sorted(dataset.class_index, key=dataset.class_index.get)
    stats = FeatureStats.fit(_features(dataset.train))
    x_train = featurize_all(dataset.train, stats)
    y_train = np.array([dataset.class_index[s.label] for s in dataset.train])
    x_val = featurize_all(dataset.validation, stats)
    y_val = np.array([dataset.class_index[s.label] for s in dataset.validation])

    rng = np.random.default_rng(hyper.seed)
    model = init_model(x_train.shape[1], hyper.hidden, labels_sorted, stats, rng)
    state = AdamState.for_model(model, hyper.learning_rate)

    n = len(x_train)
    epoch_losses, epoch_val = [], []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            grads, batch_loss = backward(model, xb, yb)
            total += batch_loss * len(idx)
            adam_step(model, state, grads)
        epoch_losses.append(total / n)
        if len(x_val):
            epoch_val.append(_top1(model, x_val, y_val))
        else:
            epoch_val.append(float("nan"))

    if dataset.test:
        # saturate k at the class count; top-k is 1.0 beyond it anyway
        ks = tuple(min(k, model.num_classes) for k in (1, 3, 5))
        topk = evaluate_topk(model, dataset.test, ks)
        accs = [topk[k] for k in ks]
    else:
        accs = [0.0, 0.0, 0.0]
    report = TrainReport(epoch_losses, epoch_val, *accs)
    return model, report


def _top1(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    return float((forward(model, x).argmax(axis=1) == y).mean())


def predict_labels(model: MlpModel, samples) -> list[str]:
    """Most probable partition key per sample."""
    x = featurize_all(samples, model.feature_stats)
    best = forward(model, x).argmax(axis=1)
    return [model.class_labels[i] for i in best]


def evaluate_topk(model: MlpModel, samples, k_list) -> dict[int, float]:
    """Fraction of samples whose class is among the k most probable ones.

    Probability ties resolve toward the smaller class index. Classes a model
    never saw cannot be credited; a sample labeled outside the model's
    classes counts as a miss.
    """
    k_list = tuple(int(k) for k in k_list)
    if any(k < 1 or k > model.num_classes for k in k_list):
        raise ConfigurationError(
            f"k must lie in [1, {model.num_classes}], got {k_list}"
        )
    if not samples:
        return {k: 0.0 for k in k_list}
    index = {label: i for i, label in enumerate(model.class_labels)}
    x = featurize_all(samples, model.feature_stats)
    probs = forward(model, x)
    ranking = np.argsort(-probs, axis=1, kind="stable")
    out = {}
    truth = np.array([index.get(s.label, -1) for s in samples])
    for k in k_list:
        hits = (ranking[:, :k] == truth[:, None]).any(axis=1)
        out[k] = float(hits.mean())
    return out


def save_model(model: MlpModel, path) -> None:
    header = {
        "format_version": MODEL_VERSION,
        "layer_dims": model.layer_dims,
        "feature_mean": model.feature_stats.mean.tolist(),
        "feature_std": model.feature_stats.std.tolist(),
        "class_labels": list(model.class_labels),
    }
    blob = b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for pair in zip(model.weights, model.biases)
        for arr in pair
    )
    _binio.write_container(path, MODEL_MAGIC, header, blob)


def load_model(path) -> MlpModel:
    header, blob = _binio.read_container(path, MODEL_MAGIC)
    version = header.get("format_version")
    if version != MODEL_VERSION:
        raise DataFormatError(
            f"{path}: model format version {version} is not supported "
            f"(expected {MODEL_VERSION}); retrain the model"
        )
    dims = header["layer_dims"]
    weights, biases = [], []
    cursor = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w_bytes = fan_in * fan_out * 8
        weights.append(
            np.frombuffer(blob[cursor : cursor + w_bytes], dtype="<f8").reshape(fan_in, fan_out).copy()
        )
        cursor += w_bytes
        biases.append(np.frombuffer(blob[cursor : cursor + fan_out * 8], dtype="<f8").copy())
        cursor += fan_out * 8
    if cursor != len(blob):
        raise DataFormatError(f"{path}: parameter blob has {len(blob) - cursor} trailing bytes")
    stats = FeatureStats(np.array(header["feature_mean"]), np.array(header["feature_std"]))
    return MlpModel(weights, biases, stats, tuple(header["class_labels"]))
