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

No pass holds a whole split's features: every pass works ``BATCH_SIZE``
rows at a time. Only the train split keeps its pair similarities, as its
mini-batches are random gathers every epoch: ``train`` computes them once
and keeps (S, N(N-1)/2) floats, 3.3 MB for the n8m8 train split, whose
feature matrix would take 18.5 MB. ``FeatureStats.fit`` sums the train
features, then their squared deviations, a block at a time in row order,
so the mean and std are bit for bit numpy's of the stacked matrix. Every
training step writes its mini-batch into one (``BATCH_SIZE``, F) buffer:
the raw entries gathered from the split's store by (draw, user order), the
similarities from the kept array; it is then standardized in place. The
rows are the same floats as those of the standardized whole matrix, so the
checkpoint is too. The inference passes (``_top1``, ``predict_labels``,
``evaluate_topk``) gather each block's estimates once, compute its
similarities from them and run ``forward`` on it, so no probability matrix
holds more rows than a training batch.

A run allocates its working arrays once, so a step allocates nothing of
parameter size: every step and validation block of ``train`` writes into one
``Buffers`` set of ``BATCH_SIZE`` rows, and ``adam_step`` updates in place
through the scratch pair ``AdamState`` holds, ``ADAM_CHUNK`` elements at a
time. ``predict_labels`` and ``evaluate_topk`` build one forward-only set per
call; a ``forward`` or ``backward`` given no buffers builds them for its batch.
Each product and update is the expression form's, in its order, written
through ``out=``, so the floats are too.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# Parameter elements per block of an Adam update, the size of its scratch pair.
ADAM_CHUNK = 16384

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
        slice ``rows``; it is asked for ``BATCH_SIZE`` rows at a time, twice.

        The features and then their squared deviations are summed down the
        rows in order, a block's sum starting from the previous blocks' total,
        as ``x.mean(axis=0)`` and ``x.std(axis=0)`` sum a C-ordered ``x``; so
        the result is bit for bit theirs for the rows stacked, floored,
        without any whole-split array.
        """
        blocks = _blocks(count)
        mean = _row_sum(map(features, blocks)) / count
        squares = _row_sum(np.square(features(rows) - mean) for rows in blocks)
        return FeatureStats(mean, np.maximum(np.sqrt(squares / count), STD_FLOOR))

    def standardize(self, features: np.ndarray) -> np.ndarray:
        """Standardize unstandardized features in place; returns them."""
        features -= self.mean
        features /= self.std
        return features


def _blocks(count: int) -> list[slice]:
    """The ``BATCH_SIZE``-row slices of ``count`` rows, in order."""
    return [slice(start, start + BATCH_SIZE) for start in range(0, count, BATCH_SIZE)]


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


def _similarities(rows: np.ndarray) -> np.ndarray:
    """``pair_similarities`` of (S, N, M) ``estimate_rows``."""
    return pair_similarities(np.ascontiguousarray(rows.transpose(0, 2, 1)))


def _features(samples, sims=None, out=None) -> np.ndarray:
    """Unstandardized classifier inputs, one row per sample, written into
    ``out`` when it is given.

    Each row holds the estimate's entries, column-major with (re, im)
    interleaved, then its pair similarities: those of ``sims`` when it is
    given (the train split keeps its own), else those of the gathered
    estimates. Only the estimate enters the classifier. A sample's (N, M)
    estimate rows, viewed as float64, are its entries in that order, so they
    are copied in one assignment.
    """
    rows = estimate_rows(samples)
    count, n, m = rows.shape
    if out is None:
        out = np.empty((count, feature_count(n, m)))
    out[:, : 2 * n * m] = rows.view(rows.real.dtype).reshape(count, 2 * n * m)
    out[:, 2 * n * m :] = _similarities(rows) if sims is None else sims
    return out


def featurize_all(samples, stats: FeatureStats, out=None) -> np.ndarray:
    """Standardized classifier inputs of ``samples``, written into ``out`` when
    it is given."""
    if not samples:
        return np.zeros((0, stats.mean.size))
    antennas, users = np.shape(samples[0].H_hat)
    if feature_count(users, antennas) != stats.mean.size:
        raise ConfigurationError(
            f"sample has {feature_count(users, antennas)} features, model expects {stats.mean.size}"
        )
    return stats.standardize(_features(samples, out=out))


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


class Buffers:
    """Every array a pass over a batch of up to ``rows`` rows writes, allocated
    once and overwritten by each pass: the batch's inputs, each layer's
    pre-activation (which becomes its ReLU output or the probabilities) and
    one bool array per layer (its finiteness test, then ``backward``'s ReLU
    mask). With ``grads``, also ``backward``'s delta of each hidden layer and
    the gradients, one array per weight and per bias."""

    def __init__(self, model: MlpModel, rows: int, grads: bool = True):
        widths = [w.shape[1] for w in model.weights]
        self.inputs = np.empty((rows, model.weights[0].shape[0]))
        self.z = [np.empty((rows, width)) for width in widths]
        self.flags = [np.empty((rows, width), dtype=bool) for width in widths]
        if grads:
            self.deltas = [np.empty((rows, width)) for width in widths[:-1]]
            self.grads = ([np.empty(w.shape) for w in model.weights], [np.empty(b.shape) for b in model.biases])


def forward(model: MlpModel, batch: np.ndarray, buffers: Buffers | None = None) -> np.ndarray:
    """Class probabilities; rows sum to one. They live in ``buffers``, or in
    fresh forward-only ones sized to the batch."""
    probs, _ = _forward_cached(model, batch, buffers)
    return probs


def _forward_cached(model: MlpModel, batch: np.ndarray, buffers: Buffers | None = None):
    x = np.atleast_2d(np.asarray(batch, dtype=float))
    if x.shape[1] != model.weights[0].shape[0]:
        raise ConfigurationError(
            f"batch width {x.shape[1]} does not match input layer {model.weights[0].shape[0]}"
        )
    rows = len(x)
    if buffers is None:
        buffers = Buffers(model, rows, grads=False)
    activations = [x]
    last = len(model.weights) - 1
    for i, (w, b, z, finite) in enumerate(zip(model.weights, model.biases, buffers.z, buffers.flags)):
        z = np.matmul(activations[-1], w, out=z[:rows])
        z += b
        if not np.isfinite(z, out=finite[:rows]).all():
            raise NumericalConsistencyError(f"non-finite activations at layer {i}")
        if i < last:
            activations.append(np.maximum(z, 0.0, out=z))
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


def backward(model: MlpModel, batch: np.ndarray, labels: np.ndarray, buffers: Buffers | None = None):
    """Analytic gradients of the mean loss for every weight and bias.

    Returns ((weight grads, bias grads), mean loss); the loss comes from the
    same forward pass as the gradients. Softmax and cross entropy fuse to
    (probs - onehot) / batch_size at the output, computed in the
    probabilities' own array; ReLU passes gradient only where its input was
    positive. Every array lives in ``buffers`` (so the gradients are
    overwritten by its next pass), or in fresh ones sized to the batch.
    """
    if buffers is None:
        buffers = Buffers(model, len(np.atleast_2d(batch)))
    probs, activations = _forward_cached(model, batch, buffers)
    batch_loss = loss(probs, labels)
    labels = np.asarray(labels, dtype=int)
    n = probs.shape[0]
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w, grads_b = buffers.grads
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = np.matmul(delta, model.weights[i].T, out=buffers.deltas[i - 1][:n])
            delta *= np.greater(activations[i], 0, out=buffers.flags[i - 1][:n])
    return buffers.grads, batch_loss


@dataclass
class AdamState:
    """The moments m[i], v[i] of (weights + biases)[i], the step count, and
    the scratch pair ``adam_step`` works through: (2, n), n elements at a time."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: np.ndarray
    step: int = 0

    @staticmethod
    def for_model(model: MlpModel) -> "AdamState":
        params = model.weights + model.biases
        chunk = max(ADAM_CHUNK, *(p[0].size for p in params))  # at least one row of every parameter
        return AdamState([np.zeros(p.shape) for p in params], [np.zeros(p.shape) for p in params],
                         np.empty((2, chunk)))


def adam_step(model: MlpModel, state: AdamState, grads) -> MlpModel:
    """One bias-corrected Adam update, in place.

    Each parameter is updated a block of rows at a time, as many as
    ``state.scratch`` holds, through its two rows; the operations and their
    order are those of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr (m / c1) / (sqrt(v / c2) + eps), so the floats are too. The
    gradients are only read.
    """
    grads_w, grads_b = grads
    state.step += 1
    correct1 = 1.0 - ADAM_BETA1**state.step
    correct2 = 1.0 - ADAM_BETA2**state.step
    for param, grad, moment1, moment2 in zip(model.weights + model.biases, [*grads_w, *grads_b], state.m, state.v):
        block = state.scratch.shape[1] // param[0].size
        for start in range(0, len(param), block):
            rows = slice(start, start + block)
            p, g, m, v = param[rows], grad[rows], moment1[rows], moment2[rows]
            x, y = (s[: p.size].reshape(p.shape) for s in state.scratch)
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, out=x)
            m += x
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=x)
            x *= g
            v += x
            np.divide(m, correct1, out=x)
            x *= LEARNING_RATE
            np.divide(v, correct2, out=y)
            np.sqrt(y, out=y)
            y += ADAM_EPS
            x /= y
            p -= x
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
    n, users = train_part.orders.shape
    blocks = _blocks(n)
    sims = np.empty((n, users * (users - 1) // 2))  # the train split's, kept for its mini-batches
    for rows in blocks:
        sims[rows] = _similarities(estimate_rows(train_part[rows]))
    stats = FeatureStats.fit(lambda rows: _features(train_part[rows], sims[rows]), n)
    y_train = class_ids(train_part, dataset.class_index)
    y_val = class_ids(val_part, dataset.class_index)

    rng = np.random.default_rng(hyper.seed)
    model = init_model(stats.mean.size, HIDDEN, labels_sorted, stats, rng)
    state = AdamState.for_model(model)

    buffers = Buffers(model, BATCH_SIZE)  # every step's and validation block's arrays
    epoch_losses, epoch_val = [], []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        total = 0.0
        for rows in blocks:
            idx = order[rows]
            xb = stats.standardize(_features(train_part[idx], sims[idx], buffers.inputs[: len(idx)]))
            grads, batch_loss = backward(model, xb, y_train[idx], buffers)
            total += batch_loss * len(idx)
            adam_step(model, state, grads)
        epoch_losses.append(total / n)
        epoch_val.append(_top1(model, val_part, y_val, buffers) if val_part else float("nan"))
    del buffers  # before the test ranking builds its own

    topk = evaluate_topk(model, dataset.test, (1, 3, 5))
    return model, TrainReport(epoch_losses, epoch_val, topk[1], topk[3], topk[5])


def _ranking(model: MlpModel, samples, depth: int, buffers: Buffers | None = None) -> np.ndarray:
    """The ``depth`` most probable class indices of each of ``samples``, most
    probable first, ties toward the smaller index. The samples are featurized
    and run through ``forward`` ``BATCH_SIZE`` at a time, in ``buffers`` of at
    least that many rows, or in one forward-only set built for the call. Each
    rank is one pass over a block's probabilities: every row's ``argmax`` (the
    first of tied maxima), which is then overwritten with -inf."""
    if buffers is None:
        buffers = Buffers(model, min(BATCH_SIZE, len(samples)), grads=False)
    ranking = np.empty((len(samples), depth), dtype=np.intp)
    for block in _blocks(len(samples)):
        part = samples[block]
        probs = forward(model, featurize_all(part, model.feature_stats, buffers.inputs[: len(part)]), buffers)
        rows = np.arange(len(probs))
        for best in ranking[block].T:
            best[:] = probs.argmax(axis=1)
            probs[rows, best] = -np.inf
    return ranking


def _top1(model: MlpModel, samples, y: np.ndarray, buffers: Buffers | None = None) -> float:
    return float((_ranking(model, samples, 1, buffers)[:, 0] == y).mean())


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
