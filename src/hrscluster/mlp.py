"""Shallow softmax classifier trained from scratch in float64.

Architecture: input 2*N*M + N(N-1)/2 (the estimated channel, real/imaginary
interleaved, followed by the projection-Frobenius similarity of every user
pair; all standardized per feature) -> 256 ReLU -> 128 ReLU -> softmax over
the partition classes. The pair similarities are the quantities
agglomeration starts from; they are phase-invariant fourth-order functions
of the estimate that the network would otherwise have to learn from the
draws. Standardization is fitted on the training split. Trained with
mini-batch Adam on the mean categorical cross entropy; the recipe
(``HIDDEN``, ``BATCH_SIZE``, ``LEARNING_RATE``, Adam's betas and eps) has no
knob, a run sets its epochs and seed. All plain numpy, so training is
bit-reproducible for a fixed seed and platform. ``evaluate_topk`` is the one
top-k rule: k is capped at the class count and an empty sample list reads NaN.

A split is a ``data.Records``; ``data.estimate_rows`` and ``data.class_ids``
read its estimates and its class ids. ``predict_labels`` also takes a list
of ``data.Sample``, as the benchmark's one-record decisions pass it.

No pass holds a whole split's features. ``train`` computes the pair
similarities of the train and validation splits once each, ``ROW_BLOCK``
samples at a time, and keeps them: (S, N(N-1)/2) floats, 3.3 MB for the
n8m8 train split, whose feature matrix would take 18.5 MB.
``FeatureStats.fit`` sums the train features, then their squared
deviations, over ``ROW_BLOCK`` rows at a time in row order, so the mean and
std are bit for bit numpy's of the stacked matrix. Every training step
writes its mini-batch into one (``BATCH_SIZE``, F) buffer: the raw entries
gathered from the split's store by (draw, user order), the similarities
from the kept array; it is then standardized in place. The rows are the
same floats as those of the standardized whole matrix, so the checkpoint is
too. The inference passes (``_top1``, ``predict_labels``,
``evaluate_topk``) featurize and run ``forward`` on ``BATCH_SIZE`` samples at
a time, so no probability matrix holds more rows than a training batch.
The forward pass works in place on each layer's pre-activation (bias, ReLU,
exp and normalization), and ``backward`` turns the probabilities into the
output delta in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import _binio
from .data import DatasetSplit, class_ids, estimate_rows
from .errors import ConfigurationError, DataFormatError, NumericalConsistencyError
from .partitions import first_non_canonical

MODEL_MAGIC = b"HRSMLP01"
MODEL_VERSION = 2  # 2: inputs gained the user-pair similarities

STD_FLOOR = 1e-8
PROB_FLOOR = 1e-12

# The training recipe.
HIDDEN = (256, 128)
BATCH_SIZE = 128
LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per block of the pair similarities and of the feature statistics.
ROW_BLOCK = 512

# JSON types of the checkpoint header's fields.
_HEADER_FIELDS = {"layer_dims": (list, int), "feature_mean": (list, float), "feature_std": (list, float),
                  "class_labels": (list, str)}


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature standardization constants, fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(features, count: int) -> "FeatureStats":
        """Column means and standard deviations, floored at ``STD_FLOOR``, of
        ``count`` feature rows, of which ``features(rows)`` gives those of the
        slice ``rows``; it is asked for ``ROW_BLOCK`` rows at a time, twice.

        The features and then their squared deviations are summed down the
        rows in order, a block's sum starting from the previous blocks' total,
        as ``x.mean(axis=0)`` and ``x.std(axis=0)`` sum a C-ordered ``x``; so
        the result is bit for bit theirs for the rows stacked, floored,
        without any whole-split array.
        """
        blocks = [slice(start, start + ROW_BLOCK) for start in range(0, count, ROW_BLOCK)]
        mean = _row_sum(map(features, blocks)) / count
        squares = _row_sum(np.square(features(rows) - mean) for rows in blocks)
        return FeatureStats(mean, np.maximum(np.sqrt(squares / count), STD_FLOOR))

    def standardize(self, features: np.ndarray) -> np.ndarray:
        """Standardize unstandardized features in place; returns them."""
        features -= self.mean
        features /= self.std
        return features


def _row_sum(blocks) -> np.ndarray:
    """Column sums of the rows of ``blocks`` stacked, added in row order."""
    total = None
    for block in blocks:
        total = (block if total is None else np.vstack((total, block))).sum(axis=0)
    return total


def feature_count(users: int, antennas: int) -> int:
    """Classifier input width: 2*N*M raw entries, then N(N-1)/2 pair similarities."""
    return 2 * users * antennas + users * (users - 1) // 2


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


def _similarities(samples) -> np.ndarray:
    """``pair_similarities`` of every sample, computed ``ROW_BLOCK`` samples at a time."""
    users = np.shape(samples[0].H_hat)[1]
    out = np.empty((len(samples), users * (users - 1) // 2))
    for start in range(0, len(samples), ROW_BLOCK):
        rows = estimate_rows(samples[start : start + ROW_BLOCK])
        out[start : start + len(rows)] = pair_similarities(np.ascontiguousarray(rows.transpose(0, 2, 1)))
    return out


def _features(samples, sims=None, out=None) -> np.ndarray:
    """Unstandardized classifier inputs, one row per sample, written into
    ``out`` when it is given.

    Each row holds the estimate's entries, column-major with (re, im)
    interleaved, then its pair similarities: those of ``sims`` when it is
    given, else ``_similarities`` of the samples. Only the estimate enters the
    classifier. A sample's (N, M) estimate rows, viewed as float64, are its
    entries in that order, so they are copied in one assignment.
    """
    rows = estimate_rows(samples)
    count, n, m = rows.shape
    if out is None:
        out = np.empty((count, feature_count(n, m)))
    out[:, : 2 * n * m] = rows.view(rows.real.dtype).reshape(count, 2 * n * m)
    out[:, 2 * n * m :] = _similarities(samples) if sims is None else sims
    return out


def featurize_all(samples, stats: FeatureStats, sims=None) -> np.ndarray:
    """Standardized classifier inputs of ``samples``; ``sims``, when given,
    holds their pair similarities."""
    if not samples:
        return np.zeros((0, stats.mean.size))
    x = _features(samples, sims)
    if x.shape[1] != stats.mean.size:
        raise ConfigurationError(
            f"sample has {x.shape[1]} features, model expects {stats.mean.size}"
        )
    return stats.standardize(x)


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
        z = h @ w
        z += b
        if not np.all(np.isfinite(z)):
            raise NumericalConsistencyError(f"non-finite activations at layer {i}")
        if i < last:
            h = np.maximum(z, 0.0, out=z)
            activations.append(h)
        else:
            z -= z.max(axis=1, keepdims=True)  # shift-invariant, avoids overflow
            probs = np.exp(z, out=z)
            probs /= probs.sum(axis=1, keepdims=True)
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
    (probs - onehot) / batch_size at the output, computed in the
    probabilities' own array; ReLU passes gradient only where its input was
    positive.
    """
    probs, activations = _forward_cached(model, batch)
    batch_loss = loss(probs, labels)
    labels = np.asarray(labels, dtype=int)
    n = probs.shape[0]
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            delta *= activations[i] > 0
    return (grads_w, grads_b), batch_loss


@dataclass
class AdamState:
    """Step count, and the moments m[i], v[i] of (weights + biases)[i]."""

    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def for_model(model: MlpModel) -> "AdamState":
        params = model.weights + model.biases
        return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(model: MlpModel, state: AdamState, grads) -> MlpModel:
    """One bias-corrected Adam update, in place."""
    grads_w, grads_b = grads
    state.step += 1
    correct1 = 1.0 - ADAM_BETA1**state.step
    correct2 = 1.0 - ADAM_BETA2**state.step
    for p, g, m, v in zip(model.weights + model.biases, [*grads_w, *grads_b], state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= LEARNING_RATE * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPS)
    return model


@dataclass(frozen=True)
class TrainingHyper:
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be at least 1, got {self.epochs}")
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
    train_part, val_part = dataset.train, dataset.validation
    if not train_part:
        raise ConfigurationError("training split is empty")
    labels_sorted = sorted(dataset.class_index, key=dataset.class_index.get)
    sims = _similarities(train_part)
    stats = FeatureStats.fit(lambda rows: _features(train_part[rows], sims[rows]), len(train_part))
    y_train = class_ids(train_part, dataset.class_index)
    val_sims = _similarities(val_part) if val_part else None
    y_val = class_ids(val_part, dataset.class_index)

    rng = np.random.default_rng(hyper.seed)
    model = init_model(stats.mean.size, HIDDEN, labels_sorted, stats, rng)
    state = AdamState.for_model(model)

    n = len(train_part)
    batch = np.empty((BATCH_SIZE, stats.mean.size))  # every step's inputs, overwritten in place
    epoch_losses, epoch_val = [], []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            xb = stats.standardize(_features(train_part[idx], sims[idx], batch[: len(idx)]))
            grads, batch_loss = backward(model, xb, y_train[idx])
            total += batch_loss * len(idx)
            adam_step(model, state, grads)
        epoch_losses.append(total / n)
        epoch_val.append(_top1(model, val_part, y_val, val_sims) if val_part else float("nan"))

    topk = evaluate_topk(model, dataset.test, (1, 3, 5))
    return model, TrainReport(epoch_losses, epoch_val, topk[1], topk[3], topk[5])


def _ranking(model: MlpModel, samples, depth: int, sims=None) -> np.ndarray:
    """The ``depth`` most probable class indices of each of ``samples``, most
    probable first, ties toward the smaller index; ``sims``, when given,
    holds the samples' pair similarities. The samples are featurized and run
    through ``forward`` ``BATCH_SIZE`` at a time. Each rank is one pass over a
    block's probabilities: every row's ``argmax`` (the first of tied maxima),
    which is then overwritten with -inf."""
    ranking = np.empty((len(samples), depth), dtype=np.intp)
    for start in range(0, len(samples), BATCH_SIZE):
        block = slice(start, start + BATCH_SIZE)
        x = featurize_all(samples[block], model.feature_stats, None if sims is None else sims[block])
        probs = forward(model, x)
        rows = np.arange(len(probs))
        for best in ranking[start : start + len(probs)].T:
            best[:] = probs.argmax(axis=1)
            probs[rows, best] = -np.inf
        del probs  # before the next block's are allocated
    return ranking


def _top1(model: MlpModel, samples, y: np.ndarray, sims=None) -> float:
    return float((_ranking(model, samples, 1, sims)[:, 0] == y).mean())


def predict_labels(model: MlpModel, samples) -> list[str]:
    """Most probable partition key per sample."""
    return [model.class_labels[i] for i in _ranking(model, samples, 1)[:, 0]]


def evaluate_topk(model: MlpModel, samples, k_list) -> dict[int, float]:
    """Fraction of samples whose class is among the k most probable ones, for
    each k of ``k_list``; NaN for an empty sample list. ``k_list`` must hold at
    least one k, each at least 1, whether or not there are samples.

    k saturates at the class count: with C classes top-k for k >= C is
    top-C, which is 1.0 up to samples labeled outside the model's classes.
    Probability ties resolve toward the smaller class index. Classes a model
    never saw cannot be credited; a sample labeled outside the model's
    classes counts as a miss.
    """
    k_list = tuple(int(k) for k in k_list)
    if not k_list or min(k_list) < 1:
        raise ConfigurationError(f"k_list must hold at least one k, each at least 1, got {k_list}")
    if not samples:
        return {k: float("nan") for k in k_list}
    ranking = _ranking(model, samples, min(max(k_list), model.num_classes))
    out = {}
    truth = class_ids(samples, {label: i for i, label in enumerate(model.class_labels)})
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
    tensors = (
        np.ascontiguousarray(arr, dtype="<f8").tobytes()
        for pair in zip(model.weights, model.biases)
        for arr in pair
    )
    _binio.write_container(path, MODEL_MAGIC, header, tensors)


def load_model(path) -> MlpModel:
    (dims, stats, labels), blob = _binio.read_container(path, MODEL_MAGIC, MODEL_VERSION, partial(_layout, path))
    params = np.frombuffer(blob, dtype="<f8")
    weights, biases, cursor = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(params[cursor : cursor + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        biases.append(params[cursor + fan_in * fan_out : cursor + (fan_in + 1) * fan_out].copy())
        cursor += (fan_in + 1) * fan_out
    return MlpModel(weights, biases, stats, labels)


def _layout(path, header: dict, blob_size: int):
    """Check a checkpoint header against its blob's size; returns ``(layer_dims,
    feature statistics, class labels)``."""
    _binio.require(header, _HEADER_FIELDS, path)
    dims = header["layer_dims"]
    if len(dims) < 2 or min(dims) < 1:
        raise DataFormatError(f"{path}: layer_dims {dims} is not a list of at least two positive integers")
    expected = 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if blob_size != expected:
        raise DataFormatError(f"{path}: parameter blob has {blob_size} bytes, layer_dims {dims} need {expected}")
    for key, count in (("feature_mean", dims[0]), ("feature_std", dims[0]), ("class_labels", dims[-1])):
        if len(header[key]) != count:
            raise DataFormatError(f"{path}: {key} has {len(header[key])} entries, layer_dims need {count}")
    labels = header["class_labels"]
    users = len(labels[0].replace("|", ",").split(","))  # a canonical key names each of its users once
    label = first_non_canonical(labels, users)
    if label is not None:
        raise DataFormatError(f"{path}: class_labels entry {label!r} is not a canonical partition key "
                              f"of {users} users")
    if len(set(labels)) != len(labels):
        raise DataFormatError(f"{path}: class_labels holds a label more than once")
    # FeatureStats.fit floors every std at STD_FLOOR, so no checkpoint train writes holds less
    constants = []
    for key, floor in (("feature_mean", -np.inf), ("feature_std", STD_FLOOR)):
        try:
            values = np.array(header[key], dtype=float)
        except OverflowError:
            raise DataFormatError(f"{path}: {key} holds an integer beyond the float64 range") from None
        good = np.isfinite(values) & (values >= floor)
        if not good.all():
            i = np.flatnonzero(~good)[0]
            raise DataFormatError(f"{path}: {key}[{i}] is {values[i].tolist()!r}, which is not a finite number"
                                  + (f" >= STD_FLOOR ({STD_FLOOR})" if key == "feature_std" else ""))
        constants.append(values)
    return dims, FeatureStats(*constants), tuple(labels)
