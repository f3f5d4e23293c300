import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from hrscluster import _binio, data, mlp
from hrscluster.clustering import pf_similarity
from hrscluster.errors import ConfigurationError, DataFormatError


from conftest import as_records, finite_difference_grads, kink_free_batch
import reference
from reference import raw_features


def toy_model(dims, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    stats = mlp.FeatureStats(np.zeros(dims[0]), np.ones(dims[0]))
    labels = labels or tuple(f"c{i}" for i in range(dims[-1]))
    return mlp.init_model(dims[0], tuple(dims[1:-1]), labels, stats, rng)


# ------------------------------------------------------------------- features


def test_raw_features_interleave_column_major():
    h = np.array([[1 + 2j, 5 + 6j], [3 + 4j, 7 + 8j]])
    s = data.Sample(np.zeros_like(h), h, "1,2", 1.0, (0, 0))
    assert np.allclose(raw_features(s), [1, 2, 3, 4, 5, 6, 7, 8])


def test_featurize_standardizes_training_set(tiny_dataset, tiny_model):
    x = mlp.featurize_all(tiny_dataset.train, tiny_model.feature_stats)
    assert np.abs(x.mean(axis=0)).max() < 1e-9
    assert np.abs(x.std(axis=0) - 1.0).max() < 1e-6


def test_zero_matrix_featurizes_to_centered_values():
    stats = mlp.FeatureStats(np.full(9, 2.0), np.full(9, 4.0))
    s = data.Sample(np.zeros((2, 2), complex), np.zeros((2, 2), complex), "1,2", 1.0, (0, 0))
    assert np.allclose(mlp.featurize_all([s], stats)[0], -0.5)


def test_true_channel_never_read():
    rng = np.random.default_rng(1)
    h_hat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = data.Sample(np.zeros((2, 2), complex), h_hat, "1,2", 1.0, (0, 0))
    b = data.Sample(np.full((2, 2), 9 + 9j), h_hat, "1,2", 1.0, (0, 0))
    assert np.array_equal(raw_features(a), raw_features(b))
    stats = mlp.FeatureStats(np.zeros(9), np.ones(9))
    assert np.array_equal(mlp.featurize_all([a], stats)[0], mlp.featurize_all([b], stats)[0])


def _estimates(rng, num, m, n):
    samples = []
    for _ in range(num):
        h_hat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        samples.append(data.Sample(np.zeros((m, n), complex), h_hat, "x", 1.0, (0,) * n))
    return samples


def _unit_stats(m, n):
    width = mlp.feature_count(n, m)
    return mlp.FeatureStats(np.zeros(width), np.ones(width))


def _pair_block(samples):
    m, n = samples[0].H_hat.shape
    return mlp.featurize_all(samples, _unit_stats(m, n))[:, 2 * m * n :]


def test_pair_block_is_single_column_pf_similarity(rng):
    samples = _estimates(rng, 5, 6, 5)
    block = _pair_block(samples)
    rows, cols = np.triu_indices(5, 1)
    for s, got in zip(samples, block):
        want = [pf_similarity(s.H_hat[:, [i]], s.H_hat[:, [j]]) for i, j in zip(rows, cols)]
        assert np.abs(got - want).max() <= 1e-12


def test_pair_block_ignores_per_user_phase(rng):
    samples = _estimates(rng, 4, 8, 6)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 6)))
    rotated = [data.Sample(s.H_true, s.H_hat * p, s.label, 1.0, s.cov_assignment) for s, p in zip(samples, phases)]
    assert np.abs(_pair_block(samples) - _pair_block(rotated)).max() <= 1e-12


def test_pair_block_follows_user_permutation(rng):
    n = 6
    samples = _estimates(rng, 3, 4, n)
    perm = rng.permutation(n)
    permuted = [data.Sample(s.H_true, s.H_hat[:, perm], s.label, 1.0, s.cov_assignment) for s in samples]
    rows, cols = np.triu_indices(n, 1)
    sim = np.zeros((len(samples), n, n))
    sim[:, rows, cols] = _pair_block(samples)
    sim += np.swapaxes(sim, 1, 2)
    want = sim[:, perm][:, :, perm][:, rows, cols]
    assert np.abs(_pair_block(permuted) - want).max() <= 1e-12


def test_zero_column_scores_zero_without_warning(rng):
    s = _estimates(rng, 1, 4, 3)[0]
    s.H_hat[:, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = _pair_block([s])[0]
    assert block[0] == 0.0 and block[2] == 0.0  # pairs (1,2) and (2,3)
    assert block[1] == pytest.approx(pf_similarity(s.H_hat[:, [0]], s.H_hat[:, [2]]), abs=1e-12)


def test_features_start_with_raw_entries(rng):
    samples = _estimates(rng, 4, 3, 5)
    x = mlp.featurize_all(samples, _unit_stats(3, 5))
    assert x.shape == (4, 2 * 3 * 5 + 10)
    for s, row in zip(samples, x):
        assert np.array_equal(row[: 2 * 3 * 5], raw_features(s))


def test_each_feature_row_is_its_samples_own_and_matches_the_references(rng):
    m, n = 3, 4
    samples = _estimates(rng, 2 * mlp.BATCH_SIZE + 3, m, n)
    features = mlp._features(samples)
    rows, cols = np.triu_indices(n, 1)
    for s, row in zip(samples, features):
        assert row.tobytes() == mlp._features([s])[0].tobytes()
        assert row[: 2 * m * n].tobytes() == raw_features(s).tobytes()
        want = [pf_similarity(s.H_hat[:, [i]], s.H_hat[:, [j]]) for i, j in zip(rows, cols)]
        assert np.abs(row[2 * m * n :] - want).max() <= 1e-12


def test_feature_stats_are_blind_to_row_blocks(rng):
    x = rng.standard_normal((2 * mlp.BATCH_SIZE + 3, 6)) * [1e-3, 1.0, 1e3, 1.0, 7.0, 1.0] + [0, 5, -2e4, 3, 0, 1]
    x[:, 3] = 3.0  # a constant column, whose std is floored
    stats = mlp.FeatureStats.fit(x.__getitem__, len(x))
    assert stats.mean.tobytes() == x.mean(axis=0).tobytes()
    assert stats.std.tobytes() == np.maximum(x.std(axis=0), mlp.STD_FLOOR).tobytes()
    assert stats.std[3] == mlp.STD_FLOOR


def test_inference_is_blind_to_row_blocks(rng, monkeypatch):
    m, n = 2, 3
    model = toy_model([mlp.feature_count(n, m), 8, 6], seed=17)
    model.weights[-1][:, 2] = model.weights[-1][:, 0]  # classes 0 and 2 tie on every row
    records = as_records([data.Sample(s.H_true, s.H_hat, model.class_labels[i % 6], 1.0, s.cov_assignment)
                          for i, s in enumerate(_estimates(rng, 2 * mlp.BATCH_SIZE + 3, m, n))])
    y = data.class_ids(records, {label: i for i, label in enumerate(model.class_labels)})
    results = []
    for block in (1, len(records)):
        monkeypatch.setattr(mlp, "BATCH_SIZE", block)
        results.append((mlp._top1(model, records, y), mlp.predict_labels(model, records),
                        mlp.evaluate_topk(model, records, (1, 2, 3, 7))))
    assert results[0] == results[1]
    top1, predicted, topk = results[0]
    assert top1 == topk[1]
    assert predicted.count(model.class_labels[2]) == 0  # its ties go to class 0


def test_inference_memory_is_one_block_not_the_split(rng):
    classes = 4000
    model = toy_model([2, 4, classes], seed=18)
    samples = [data.Sample(np.zeros((1, 1), complex), h, "c0", 1.0, (0,))
               for h in rng.standard_normal((8 * mlp.BATCH_SIZE, 1, 1)) + 0j]
    records = as_records(samples)
    block = mlp.BATCH_SIZE * classes * np.dtype(float).itemsize  # bytes of one block's probabilities
    tracemalloc.start()
    try:
        mlp.evaluate_topk(model, records, (1, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * block  # the split's probabilities alone would take 8 blocks


def test_one_record_prediction_allocates_no_gradient_buffers():
    model = toy_model([2, 64, 4000], seed=21)
    sample = data.Sample(np.zeros((1, 1), complex), np.ones((1, 1), complex), "c0", 1.0, (0,))
    tracemalloc.start()
    try:
        mlp.predict_labels(model, [sample])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.weights[-1].nbytes / 4  # the output weight's gradient alone would exceed it


def test_featurize_rejects_width_mismatch():
    stats = mlp.FeatureStats(np.zeros(4), np.ones(4))
    s = data.Sample(np.zeros((2, 2), complex), np.zeros((2, 2), complex), "1,2", 1.0, (0, 0))
    with pytest.raises(ConfigurationError):
        mlp.featurize_all([s], stats)


# -------------------------------------------------------------------- forward


def test_zero_weights_give_uniform_probabilities():
    model = toy_model([4, 3, 5])
    for w in model.weights:
        w[:] = 0.0
    probs = mlp.forward(model, np.ones((2, 4)))
    assert np.allclose(probs, 1 / 5)


def test_softmax_rows_sum_to_one(rng):
    model = toy_model([6, 8, 4], seed=2)
    probs = mlp.forward(model, rng.standard_normal((32, 6)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert probs.min() > 0.0
    assert probs.max() < 1.0


def test_softmax_shift_invariance(rng):
    model = toy_model([5, 4, 3], seed=3)
    x = rng.standard_normal((8, 5))
    base = mlp.forward(model, x)
    model.biases[-1] += 123.456  # constant shift of every logit
    shifted = mlp.forward(model, x)
    assert np.abs(base - shifted).max() < 1e-12


def test_softmax_stable_for_huge_logit():
    model = toy_model([2, 2, 3], seed=4)
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = [1000.0, 0.0, 0.0]
    probs = mlp.forward(model, np.zeros((1, 2)))
    assert np.isfinite(probs).all()
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------- loss


def test_perfect_prediction_zero_loss():
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert mlp.loss(probs, [0, 2]) == pytest.approx(0.0, abs=1e-12)


def test_uniform_prediction_loss_is_log_classes():
    probs = np.full((4, 50), 1 / 50)
    assert mlp.loss(probs, [0, 7, 13, 49]) == pytest.approx(np.log(50), abs=1e-12)


def test_loss_nonnegative_and_rejects_bad_labels(rng):
    model = toy_model([3, 4, 4], seed=5)
    probs = mlp.forward(model, rng.standard_normal((16, 3)))
    labels = rng.integers(0, 4, 16)
    assert mlp.loss(probs, labels) >= 0.0
    with pytest.raises(ConfigurationError):
        mlp.loss(probs, [4])


# ------------------------------------------------------------------ gradients


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    model = toy_model([4, 3, 2], seed=6)
    for b in model.biases:
        b += rng.normal(0.0, 0.1, b.shape)
    x = kink_free_batch(model, rng, 5)
    y = rng.integers(0, 2, 5)
    (analytic_w, analytic_b), _ = mlp.backward(model, x, y)
    numeric_w, numeric_b = finite_difference_grads(model, x, y)
    for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
        scale = np.maximum(np.abs(n), 1e-8)
        assert (np.abs(a - n) / scale).max() < 1e-4


def test_backward_returns_the_forward_loss():
    rng = np.random.default_rng(9)
    model = toy_model([4, 3, 2], seed=9)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 2, 5)
    _, batch_loss = mlp.backward(model, x, y)
    assert batch_loss == mlp.loss(mlp.forward(model, x), y)
    with pytest.raises(ConfigurationError):
        mlp.backward(model, x, [0, 1, 2, 0, 1])


def test_dead_relu_units_get_zero_gradient():
    model = toy_model([2, 3, 2], seed=7)
    model.biases[0][:] = -100.0  # all hidden pre-activations negative
    x = np.array([[0.1, -0.2]])
    (grads_w, grads_b), _ = mlp.backward(model, x, [0])
    assert np.all(grads_w[0] == 0.0)
    assert np.all(grads_b[0] == 0.0)


def test_duplicate_sample_leaves_mean_gradient_unchanged():
    rng = np.random.default_rng(8)
    model = toy_model([3, 4, 2], seed=8)
    x = rng.standard_normal((3, 3))
    y = [0, 1, 0]
    (gw1, gb1), _ = mlp.backward(model, x, y)
    x2 = np.vstack([x, x])
    (gw2, gb2), _ = mlp.backward(model, x2, y + y)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        assert np.abs(a - b).max() < 1e-12


# ----------------------------------------------------------------------- adam


def test_adam_zero_gradient_keeps_parameters():
    model = toy_model([3, 3, 2], seed=9)
    before = [w.copy() for w in model.weights]
    state = mlp.AdamState.for_model(model)
    zeros = ([np.zeros_like(w) for w in model.weights], [np.zeros_like(b) for b in model.biases])
    mlp.adam_step(model, state, zeros)
    for w, prev in zip(model.weights, before):
        assert np.array_equal(w, prev)


def test_adam_first_step_is_signed_learning_rate():
    model = toy_model([2, 2, 2], seed=10)
    before = [w.copy() for w in model.weights]
    state = mlp.AdamState.for_model(model)
    grads_w = [np.full_like(w, 0.5) * np.sign(np.arange(w.size).reshape(w.shape) - 1.5 + 1e-9) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    mlp.adam_step(model, state, (grads_w, grads_b))
    for w, prev, g in zip(model.weights, before, grads_w):
        step = prev - w
        assert np.allclose(step, mlp.LEARNING_RATE * np.sign(g), atol=1e-7)


def test_adam_deterministic_over_steps():
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(11)
        model = toy_model([3, 4, 2], seed=11)
        state = mlp.AdamState.for_model(model)
        for _ in range(10):
            x = rng.standard_normal((4, 3))
            y = rng.integers(0, 2, 4)
            grads, _ = mlp.backward(model, x, y)
            mlp.adam_step(model, state, grads)
        runs.append([w.tobytes() for w in model.weights])
    assert runs[0] == runs[1]


def test_training_steps_equal_the_expression_form_byte_for_byte(rng, monkeypatch):
    monkeypatch.setattr(mlp, "ADAM_CHUNK", 40)
    model = toy_model([12, 9, 7, 5], seed=19)
    oracle = copy.deepcopy(model)
    state, oracle_state = mlp.AdamState.for_model(model), mlp.AdamState.for_model(oracle)
    assert model.weights[0].size > 2 * state.scratch.shape[1]  # updated in three chunks
    buffers = mlp.Buffers(model, 8)
    for step in range(20):
        rows = 8 if step % 3 else 5  # full and partial batches
        x = rng.standard_normal((rows, 12))
        y = rng.integers(0, 5, rows)
        grads, _ = mlp.backward(model, x, y, buffers if step % 4 else None)  # reused and fresh buffers
        expected = reference.backward(oracle, x, y)
        mlp.adam_step(model, state, grads)
        reference.adam_step(oracle, oracle_state, expected)
        for got, want in zip([*grads[0], *grads[1]], [*expected[0], *expected[1]]):
            assert got.tobytes() == want.tobytes()  # also: the update left the gradients as they were
        for got, want in ((model.weights + model.biases, oracle.weights + oracle.biases),
                          (state.m, oracle_state.m), (state.v, oracle_state.v)):
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


# ------------------------------------------------------------------- training


def _toy_split(n=60, seed=12):
    # two linearly separable clouds in a 2x1 complex "channel"
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = "1,2" if i % 2 == 0 else "1|2"
        shift = 3.0 if label == "1,2" else -3.0
        h = (rng.standard_normal((1, 2)) + shift) + 1j * (rng.standard_normal((1, 2)) + shift)
        samples.append(data.Sample(np.zeros((1, 2), complex), h, label, 1.0, (0, 0)))
    cfg = data.ScenarioConfig(users=2, antennas=1, samples=n, seed=seed)
    records = as_records(samples)  # one store, which every split indexes
    *picks, index = data.split(records, np.arange(n), seed)
    return data.DatasetSplit(*(records[pick] for pick in picks), index, cfg)


def test_training_learns_separable_toy_problem(monkeypatch):
    split = _toy_split()
    monkeypatch.setattr(mlp, "HIDDEN", (8, 4))
    monkeypatch.setattr(mlp, "BATCH_SIZE", 8)
    monkeypatch.setattr(mlp, "LEARNING_RATE", 1e-2)
    model, report = mlp.train(split, mlp.TrainingHyper(epochs=100, seed=13))
    x = mlp.featurize_all(split.train, model.feature_stats)
    y = np.array([split.class_index[s.label] for s in split.train])
    acc = float((mlp.forward(model, x).argmax(axis=1) == y).mean())
    assert acc == 1.0
    assert report.train_loss[-1] < report.train_loss[0]


def test_training_beats_chance_on_validation(tiny_dataset, tiny_model, monkeypatch):
    chance = 1.0 / tiny_dataset.num_classes
    n_val = len(tiny_dataset.validation)
    sigma = np.sqrt(chance * (1 - chance) / n_val)
    monkeypatch.setattr(mlp, "HIDDEN", (32, 16))
    _, report = mlp.train(tiny_dataset, mlp.TrainingHyper(epochs=10, seed=3))
    assert report.val_top1[-1] >= chance - 3 * sigma


def test_training_computes_the_train_splits_pair_similarities_once(tiny_dataset, monkeypatch):
    # every estimate whose similarities are computed, and every step, in call order
    events = []
    real_similarities, real_backward = mlp.pair_similarities, mlp.backward

    def similarities(h_hat):
        events.append(h_hat.copy())
        return real_similarities(h_hat)

    def backward(model, batch, labels, buffers):
        events.append(None)
        return real_backward(model, batch, labels, buffers)

    monkeypatch.setattr(mlp, "pair_similarities", similarities)
    monkeypatch.setattr(mlp, "backward", backward)
    monkeypatch.setattr(mlp, "HIDDEN", (8,))
    monkeypatch.setattr(mlp, "BATCH_SIZE", 64)
    assert len(tiny_dataset.train) > 2 * mlp.BATCH_SIZE
    epochs = 3
    mlp.train(tiny_dataset, mlp.TrainingHyper(epochs=epochs, seed=2))
    # the estimates computed between one epoch's steps and the next's
    between = [[]]
    for event in events:
        if event is not None:
            between[-1].append(event)
        elif between[-1]:
            between.append([])
    train, val, test = (np.swapaxes(data.estimate_rows(part), 1, 2) for _, part in tiny_dataset.parts())
    # the train split once, before the first step; the validation split after each epoch; the test split once
    want = [train] + [val] * (epochs - 1) + [np.concatenate([val, test])]
    assert [np.concatenate(seen).tobytes() for seen in between] == [split.tobytes() for split in want]


def test_inference_gathers_each_estimate_once(rng, monkeypatch):
    m, n = 2, 3
    model = toy_model([mlp.feature_count(n, m), 8, 6], seed=19)
    records = as_records([data.Sample(s.H_true, s.H_hat, model.class_labels[i % 6], 1.0, s.cov_assignment)
                          for i, s in enumerate(_estimates(rng, 2 * mlp.BATCH_SIZE + 3, m, n))])
    gathers = []
    real = mlp.estimate_rows

    def counting(samples):
        gathers.append(len(samples))
        return real(samples)

    monkeypatch.setattr(mlp, "estimate_rows", counting)
    mlp.evaluate_topk(model, records, (1, 3))
    assert gathers == [mlp.BATCH_SIZE, mlp.BATCH_SIZE, 3]  # one gather per block


@pytest.fixture(params=["generated", "loaded"])
def train_split(request, tiny_dataset, tmp_path):
    """``tiny_dataset`` as generated (owned int64 columns), or written and loaded (<i4 columns in the blob)."""
    if request.param == "generated":
        return tiny_dataset
    data.serialize(tiny_dataset, tmp_path / "ds.hrsdat")
    return data.load(tmp_path / "ds.hrsdat")


def test_training_batches_and_statistics_equal_those_of_the_full_feature_matrix(train_split, monkeypatch):
    monkeypatch.setattr(mlp, "HIDDEN", (8,))
    monkeypatch.setattr(mlp, "BATCH_SIZE", 64)
    train = train_split.train
    n, users = len(train), train.orders.shape[1]
    assert n > 2 * mlp.BATCH_SIZE and n % mlp.BATCH_SIZE  # several row blocks, a partial last batch
    assert (train.orders != np.arange(users)).any()  # augmented records: user orders other than the drawn one
    steps = []
    real = mlp.backward

    def recording(model, batch, labels, buffers):
        steps.append((batch.copy(), labels.copy()))
        return real(model, batch, labels, buffers)

    monkeypatch.setattr(mlp, "backward", recording)
    hyper = mlp.TrainingHyper(epochs=2, seed=4)
    model, _ = mlp.train(train_split, hyper)
    # the statistics of the whole-split matrix, bit for bit, as numpy computes them
    full = mlp._features(train)
    stats = model.feature_stats
    assert stats.mean.tobytes() == full.mean(axis=0).tobytes()
    assert stats.std.tobytes() == np.maximum(full.std(axis=0), mlp.STD_FLOOR).tobytes()
    full = stats.standardize(full)
    # each step's batch is its rows of the standardized matrix, in train's row order
    rng = np.random.default_rng(hyper.seed)
    mlp.init_model(full.shape[1], mlp.HIDDEN, model.class_labels, stats, rng)
    rows = [order[start : start + mlp.BATCH_SIZE] for order in (rng.permutation(n) for _ in range(hyper.epochs))
            for start in range(0, n, mlp.BATCH_SIZE)]
    assert len(steps) == len(rows) and len(rows[-1]) < mlp.BATCH_SIZE
    y = data.class_ids(train, train_split.class_index)
    for (batch, labels), idx in zip(steps, rows):
        assert batch.tobytes() == full[idx].tobytes()
        assert np.array_equal(labels, y[idx])


def test_training_memory_stays_below_the_train_feature_matrix(rng, monkeypatch):
    users, antennas, draws, records = 4, 16, 400, 8000
    matrices = rng.standard_normal((draws, 2, users, antennas)) + 1j * rng.standard_normal((draws, 2, users, antennas))
    labels = ("1,2,3,4", "1|2|3|4")
    store = data.Store(matrices, np.ones(draws), rng.integers(0, 2, draws), np.zeros((draws, users), dtype=np.int64),
                       labels)

    def part(count):
        orders = np.argsort(rng.random((count, users)), axis=1)
        return data.Records(store, rng.integers(0, draws, count), orders)

    cfg = data.ScenarioConfig(users=users, antennas=antennas)
    dataset = data.DatasetSplit(part(records), part(300), part(300), {label: i for i, label in enumerate(labels)}, cfg)
    matrix = records * mlp.feature_count(users, antennas) * np.dtype(float).itemsize  # the whole-split features
    monkeypatch.setattr(mlp, "HIDDEN", (8,))
    tracemalloc.start()
    try:
        mlp.train(dataset, mlp.TrainingHyper(epochs=1, seed=6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix / 2  # 2.1 MB of 8.6; holding the matrix would exceed it alone


def test_training_steps_allocate_nothing_of_parameter_size(tiny_dataset, monkeypatch):
    # traced bytes a step (backward start to the end of its Adam update) allocates beyond what it started with
    peaks = []
    real_backward, real_adam_step = mlp.backward, mlp.adam_step

    def backward(*args):
        peaks.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return real_backward(*args)

    def adam_step(*args):
        result = real_adam_step(*args)
        peaks[-1] = tracemalloc.get_traced_memory()[1] - peaks[-1]
        return result

    monkeypatch.setattr(mlp, "backward", backward)
    monkeypatch.setattr(mlp, "adam_step", adam_step)
    tracemalloc.start()
    try:
        model, _ = mlp.train(tiny_dataset, mlp.TrainingHyper(epochs=1, seed=5))
    finally:
        tracemalloc.stop()
    params = sum(p.nbytes for p in model.weights + model.biases)
    assert len(peaks) > 2
    assert max(peaks[1:]) < params / 4  # the gradients alone take all of them


def test_training_deterministic(tiny_dataset, monkeypatch):
    monkeypatch.setattr(mlp, "HIDDEN", (16, 8))
    hyper = mlp.TrainingHyper(epochs=3, seed=21)
    m1, r1 = mlp.train(tiny_dataset, hyper)
    m2, r2 = mlp.train(tiny_dataset, hyper)
    assert r1.train_loss == r2.train_loss
    for a, b in zip(m1.weights, m2.weights):
        assert a.tobytes() == b.tobytes()


def test_training_from_generated_and_from_loaded_records_writes_the_same_checkpoint(tiny_dataset, tmp_path,
                                                                                   monkeypatch):
    # generation owns its draws' int64 class ids; a load views the blob's <i4 ids and <f8 columns
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    loaded = data.load(path)
    assert all(isinstance(part, data.Records) for _, part in (*tiny_dataset.parts(), *loaded.parts()))
    assert tiny_dataset.train.store.ids.dtype == np.int64 and loaded.train.store.ids.dtype == np.dtype("<i4")
    assert not loaded.train.store.ids.flags.writeable and tiny_dataset.train.store.ids.flags.owndata
    monkeypatch.setattr(mlp, "HIDDEN", (16, 8))
    hyper = mlp.TrainingHyper(epochs=2, seed=5)
    written = []
    for dataset in (tiny_dataset, loaded):
        model, report = mlp.train(dataset, hyper)
        written.append(tmp_path / f"model{len(written)}.hrsmlp")
        mlp.save_model(model, written[-1])
    assert written[0].read_bytes() == written[1].read_bytes()


# ------------------------------------------------------------------ accuracy


def test_topk_full_width_is_one(tiny_dataset, tiny_model):
    g = tiny_model.num_classes
    out = mlp.evaluate_topk(tiny_model, tiny_dataset.test, (g,))
    assert out[g] == 1.0


def test_topk_monotone(tiny_dataset, tiny_model):
    ks = [k for k in (1, 2, 3, 5) if k <= tiny_model.num_classes]
    out = mlp.evaluate_topk(tiny_model, tiny_dataset.test, ks)
    vals = [out[k] for k in ks]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_topk_rejects_bad_k(tiny_dataset, tiny_model):
    for k in (0, -1):
        with pytest.raises(ConfigurationError, match="at least 1"):
            mlp.evaluate_topk(tiny_model, tiny_dataset.test, (1, k))


@pytest.mark.parametrize("with_samples", [True, False], ids=["samples", "no-samples"])
def test_topk_rejects_an_empty_k_list(tiny_dataset, tiny_model, with_samples):
    samples = tiny_dataset.test if with_samples else []
    with pytest.raises(ConfigurationError, match="at least one k"):
        mlp.evaluate_topk(tiny_model, samples, ())


def test_topk_saturates_at_class_count(tiny_dataset, tiny_model):
    c = tiny_model.num_classes
    out = mlp.evaluate_topk(tiny_model, tiny_dataset.test, (c, c + 1, c + 5))
    assert out[c + 1] == out[c] and out[c + 5] == out[c]


def test_topk_of_no_samples_is_nan(tiny_model):
    out = mlp.evaluate_topk(tiny_model, [], (1, 3))
    assert list(out) == [1, 3] and all(np.isnan(v) for v in out.values())


def test_topk_tie_breaks_toward_lower_class_index():
    model = toy_model([2, 2, 3], seed=14, labels=("a", "b", "c"))
    for w in model.weights:
        w[:] = 0.0  # uniform probabilities: ties everywhere
    samples = [data.Sample(np.zeros((1, 1), complex), np.zeros((1, 1), complex), lab, 1.0, (0,)) for lab in ("a", "b", "c")]
    model.feature_stats = mlp.FeatureStats(np.zeros(2), np.ones(2))
    out = mlp.evaluate_topk(model, as_records(samples), (1, 2))
    assert out[1] == pytest.approx(1 / 3)  # only class index 0 wins ties
    assert out[2] == pytest.approx(2 / 3)


def test_topk_ranks_row_blocks_like_one_full_ranking(rng):
    model = toy_model([2, 4, 5], seed=16)
    model.weights[-1][:, 2] = model.weights[-1][:, 0]  # classes 0 and 2 tie on every row
    samples = [
        data.Sample(np.zeros((1, 1), complex), h, f"c{i % 5}", 1.0, (0,))
        for i, h in enumerate(rng.standard_normal((mlp.BATCH_SIZE + 1, 1, 1)) + 0j)
    ]
    probs = mlp.forward(model, mlp.featurize_all(samples, model.feature_stats))
    assert np.all(probs[:, 0] == probs[:, 2])
    ranking = np.argsort(-probs, axis=1, kind="stable")
    truth = np.array([model.class_labels.index(s.label) for s in samples])
    ks = (1, 2, 3, 7)
    want = {k: float((ranking[:, :k] == truth[:, None]).any(axis=1).mean()) for k in ks}
    assert mlp.evaluate_topk(model, as_records(samples), ks) == want


def test_class_permutation_leaves_accuracy_unchanged(tiny_dataset, tiny_model):
    rng = np.random.default_rng(15)
    perm = rng.permutation(tiny_model.num_classes)
    permuted = mlp.MlpModel(
        [w.copy() for w in tiny_model.weights],
        [b.copy() for b in tiny_model.biases],
        tiny_model.feature_stats,
        tuple(tiny_model.class_labels[i] for i in perm),
    )
    permuted.weights[-1][:] = permuted.weights[-1][:, perm]
    permuted.biases[-1][:] = permuted.biases[-1][perm]
    ks = [k for k in (1, 3) if k <= tiny_model.num_classes]
    base = mlp.evaluate_topk(tiny_model, tiny_dataset.test, ks)
    after = mlp.evaluate_topk(permuted, tiny_dataset.test, ks)
    for k in ks:
        assert base[k] == pytest.approx(after[k], abs=1e-12)


# ---------------------------------------------------------------- checkpoints


def test_model_round_trip_bit_exact(tiny_model, tmp_path):
    path = tmp_path / "model.hrsmlp"
    mlp.save_model(tiny_model, path)
    loaded = mlp.load_model(path)
    assert loaded.class_labels == tiny_model.class_labels
    assert loaded.layer_dims == tiny_model.layer_dims
    for a, b in zip(loaded.weights, tiny_model.weights):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(loaded.feature_stats.mean, tiny_model.feature_stats.mean)
    path2 = tmp_path / "again.hrsmlp"
    mlp.save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_version_one_checkpoint_rejected(tiny_model, tmp_path):
    # a version-1 model read only the 2*N*M raw entries
    path = tmp_path / "old.hrsmlp"
    mlp.save_model(tiny_model, path)
    header, blob = _binio.read_container(path, mlp.MODEL_MAGIC, mlp.MODEL_VERSION)
    header["format_version"] = 1
    _binio.write_container(path, mlp.MODEL_MAGIC, header, (blob,))
    with pytest.raises(DataFormatError, match="version 1"):
        mlp.load_model(path)


def test_model_corruption_rejected(tiny_model, tmp_path):
    from hrscluster.errors import DataFormatError

    path = tmp_path / "model.hrsmlp"
    mlp.save_model(tiny_model, path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        mlp.load_model(path)
