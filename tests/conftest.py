import numpy as np
import pytest

from hrscluster import data, hrs, mlp


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def kink_free_batch(model, rng, width, margin=1e-3):
    """Random batch whose hidden pre-activations stay clear of the ReLU kink.

    Central differences are only a valid oracle where the loss is smooth, so
    inputs landing within ``margin`` of a kink are redrawn.
    """
    for _ in range(200):
        x = rng.standard_normal((width, model.weights[0].shape[0]))
        h = x
        clear = True
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            z = h @ w + b
            if np.abs(z).min() < margin:
                clear = False
                break
            h = np.maximum(z, 0.0)
        if clear:
            return x
    raise AssertionError("could not find a kink-free batch")


def finite_difference_grads(model, x, y, h=1e-5):
    """Central-difference loss gradients, parameter by parameter."""
    grads_w, grads_b = [], []
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for p in params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = mlp.loss(mlp.forward(model, x), y)
                p[idx] = orig - h
                down = mlp.loss(mlp.forward(model, x), y)
                p[idx] = orig
                g[idx] = (up - down) / (2 * h)
                it.iternext()
            grads.append(g)
    return grads_w, grads_b


def random_channelset(m, n, seed, tau=0.0):
    """Uncorrelated Rayleigh channels wrapped in a ChannelSet."""
    from hrscluster.channel import CovarianceMatrix, corrupt_csi, sample_channels

    cov = CovarianceMatrix.from_matrix(np.eye(m))
    channels = sample_channels([cov], [0] * n, seed)
    if tau > 0:
        channels = corrupt_csi(channels, tau, seed + 1)
    return channels


@pytest.fixture(scope="session")
def tiny_config():
    return data.ScenarioConfig(users=4, antennas=8, samples=30, seed=11)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config):
    return data.build_dataset(tiny_config)


@pytest.fixture(scope="session")
def tiny_model(tiny_dataset):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mlp, "HIDDEN", (32, 16))
        model, report = mlp.train(tiny_dataset, mlp.TrainingHyper(epochs=10, seed=3))
    return model


def outer_precoders(groups):
    """``hrs.compute_outer_precoders`` of one candidate, handed each group's
    dominant basis as ``hrs.evaluate_partitions`` decomposes it (None for a
    one-group candidate)."""
    dominant = hrs._dominant_bases(groups) if len(groups) > 1 else None
    return hrs.compute_outer_precoders([groups], [dominant])[0]


def as_records(samples):
    """``samples`` (a list of ``data.Sample``) as one ``data.Records``, each
    sample its own draw of a store laid out as in the dataset blob, its users
    in the drawn order; an empty list gives zero records of the 8 x 4
    matrices of ``tiny_config``."""
    m, n = samples[0].H_true.shape if samples else (8, 4)
    matrices = np.empty((len(samples), 2, n, m), dtype=complex)
    for row, s in zip(matrices, samples):
        row[0], row[1] = s.H_true.T, s.H_hat.T
    labels = tuple(dict.fromkeys(s.label for s in samples))
    ids = np.array([labels.index(s.label) for s in samples], dtype=np.int64)
    rates = np.array([s.label_rate for s in samples], dtype=float)
    assignments = np.array([s.cov_assignment for s in samples], dtype=np.int64)
    assignments = assignments.reshape(len(samples), -1 if samples else n)
    orders = np.tile(np.arange(n), (len(samples), 1))
    return data.Records(data.Store(matrices, rates, assignments), np.arange(len(samples)), orders, ids, labels)
