"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavyweight artifacts (the n8m8 scenario at 2000 samples and its trained
classifier, plus the n8m4 scenario at 500 samples) are built once per
session and shared.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import finite_difference_grads, kink_free_batch
from hrscluster import cli, data, evaluation, mlp
from hrscluster.channel import corrupt_csi, sample_channels
from hrscluster.clustering import (
    SimilarityCalibration,
    agglomerate,
    best_partition,
    calibrate_similarity,
    exhaustive_best,
    pf_similarity,
    projection_matrix,
)
from hrscluster.errors import DataFormatError
from hrscluster.hrs import (
    HrsConfig,
    compute_inner_precoders,
    compute_outer_precoders,
    split_power,
)
from hrscluster.partitions import Partition


def _report(ok: bool, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {message}")
    assert ok, message


def _random_partition(rng, n):
    users = list(rng.permutation(np.arange(1, n + 1)))
    blocks = []
    while users:
        take = int(rng.integers(1, len(users) + 1))
        blocks.append([int(u) for u in users[:take]])
        users = users[take:]
    return Partition.from_blocks(blocks)


def _complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@pytest.fixture(scope="session")
def n8m8_run(tmp_path_factory):
    """Criterion 5/6 artifacts: full pipeline at N=8, M=8, S=2000."""
    cfg = data.ScenarioConfig(users=8, antennas=8, samples=2000, seed=20240801)
    t0 = time.time()
    dataset = data.build_dataset(cfg)
    model, report = mlp.train(dataset, mlp.TrainingHyper(seed=cfg.seed))
    results = evaluation.run_baselines(dataset, model)
    elapsed = time.time() - t0
    return dataset, model, report, results, elapsed


@pytest.fixture(scope="session")
def n8m4_samples():
    """Criterion 6 artifact: N=8, M=4 scenario at 500 raw samples."""
    cfg = data.ScenarioConfig(users=8, antennas=4, samples=500, seed=20240802)
    return cfg, data.generate_samples(cfg)


# --------------------------------------------------------------- criterion 1


def test_criterion_1_numerical_invariants():
    start = time.time()
    rng = np.random.default_rng(101)

    for _ in range(1000):  # power conservation at <= 1e-9 relative
        n = int(rng.integers(1, 10))
        part = _random_partition(rng, n)
        alpha = float(rng.uniform(1e-4, 1.0))
        beta = float(rng.uniform(1e-4, 1.0))
        power = float(rng.uniform(0.5, 300.0))
        p_oc, p_ic, p_priv = split_power(np.array([alpha]), np.array([beta]), power, part)
        total = p_oc[0] + p_ic[0].sum() + p_priv[0].sum()
        assert abs(total - p_oc[0] / alpha) / (p_oc[0] / alpha) <= 1e-9

    cfg = HrsConfig(total_power=60.0)
    count = 0
    while count < 1000:  # precoder unit norms at <= 1e-9
        sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        m = 8
        groups = [_complex(rng, (m, s)) for s in sizes]
        (b,) = compute_outer_precoders([groups])
        (pre,) = compute_inner_precoders([b], [groups], cfg)
        for w in pre.private:
            for norm in np.linalg.norm(w, axis=0):
                assert abs(norm - 1.0) <= 1e-9
                count += 1
        for w in pre.inner:
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
            count += 1
        assert abs(np.linalg.norm(pre.w_oc) - 1.0) <= 1e-9
        count += 1

    for _ in range(1000):  # projector idempotence at <= 1e-8
        h = _complex(rng, (8, int(rng.integers(1, 5))))
        p = projection_matrix(h)
        assert np.abs(p @ p - p).max() <= 1e-8

    stats = mlp.FeatureStats(np.zeros(6), np.ones(6))
    model = mlp.init_model(6, (16, 8), tuple(f"c{i}" for i in range(5)), stats, rng)
    for _ in range(1000):  # softmax normalization at <= 1e-9
        probs = mlp.forward(model, rng.standard_normal((4, 6)) * rng.uniform(0.1, 50))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9

    elapsed = time.time() - start
    _report(elapsed < 60, f"criterion 1: invariant suite green over 1000+ instances each ({elapsed:.1f}s < 60s)")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_gradient_oracle():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for net in range(20):
        dims = [int(rng.integers(2, 7)) for _ in range(4)]
        stats = mlp.FeatureStats(np.zeros(dims[0]), np.ones(dims[0]))
        labels = tuple(f"c{i}" for i in range(dims[-1]))
        model = mlp.init_model(dims[0], tuple(dims[1:-1]), labels, stats, rng)
        for b in model.biases:
            b += rng.normal(0.0, 0.1, b.shape)
        x = kink_free_batch(model, rng, int(rng.integers(2, 7)))
        y = rng.integers(0, dims[-1], x.shape[0])
        (analytic_w, analytic_b), _ = mlp.backward(model, x, y)
        numeric_w, numeric_b = finite_difference_grads(model, x, y)
        for a, n in zip(analytic_w + analytic_b, numeric_w + numeric_b):
            rel = np.abs(a - n) / np.maximum(np.abs(n), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4
    elapsed = time.time() - start
    _report(
        elapsed < 60 and worst < 1e-4,
        f"criterion 2: analytic gradients match central differences on 20 nets "
        f"(worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 60s)",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_3_similarity_statistics():
    start = time.time()
    rng = np.random.default_rng(303)
    cases = ((8, 1, 1), (8, 2, 2), (12, 2, 3))
    for m, nk, nj in cases:
        analytic = nk * nj / (m * min(nk, nj))
        vals = np.empty(10_000)
        for i in range(vals.size):
            vals[i] = pf_similarity(_complex(rng, (m, nk)), _complex(rng, (m, nj)))
        assert abs(vals.mean() - analytic) <= 0.02 * analytic, (m, nk, nj, vals.mean())
    elapsed = time.time() - start
    _report(
        elapsed < 120,
        f"criterion 3: Monte Carlo similarity means within 2% of analytic for "
        f"{cases} ({elapsed:.1f}s < 120s)",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_oracle_equivalence():
    start = time.time()
    cfg = data.ScenarioConfig(users=5, antennas=8, samples=100, seed=404)
    covs = cfg.covariances()
    calib = cfg.calibration()
    hrs = cfg.hrs_config()
    hc_rates, oracle_rates = [], []
    for i in range(100):
        assignment = data.draw_assignment(cfg, i)
        channels = sample_channels(covs, assignment, (cfg.seed, i, 1))
        channels = corrupt_csi(channels, cfg.tau, (cfg.seed, i, 2))
        dendro = agglomerate(channels.H_hat, calib)
        _, hc = best_partition(channels.H_true, channels.H_hat, dendro, hrs)
        _, oracle = exhaustive_best(channels.H_true, channels.H_hat, hrs)
        assert oracle.R_total >= hc.R_total - 1e-12, f"instance {i}: oracle below dendrogram"
        hc_rates.append(hc.R_total)
        oracle_rates.append(oracle.R_total)
    ratio = float(np.mean(hc_rates) / np.mean(oracle_rates))
    elapsed = time.time() - start
    _report(
        ratio >= 0.90 and elapsed < 1200,
        f"criterion 4: dendrogram selection reaches {ratio:.1%} of the exhaustive "
        f"optimum over 100 instances with hard dominance ({elapsed:.0f}s < 1200s)",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_scaled_paper_scenario(n8m8_run):
    dataset, model, report, results, elapsed = n8m8_run
    rel = evaluation.relative_rate(results)
    ok = report.test_top1 >= 0.60 and report.test_top5 >= 0.85 and rel.ratio >= 0.95
    _report(
        ok and elapsed < 7200,
        f"criterion 5: n8m8 at S=2000 -> test top-1 {report.test_top1:.1%} (>= 60%), "
        f"top-5 {report.test_top5:.1%} (>= 85%), relative rate {rel.ratio:.1%} (>= 95%), "
        f"{elapsed:.0f}s < 7200s",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_method_ordering(n8m8_run, n8m4_samples):
    start = time.time()
    _, _, _, results, _ = n8m8_run
    medians = {r.method: r.summary.median for r in results}
    ordering_ok = (
        medians["HC"] >= medians["UNI"] - 1e-9
        and medians["HC"] >= medians["SING"] - 1e-9
        and medians["NN"] >= 0.9 * medians["HC"]
    )

    cfg, samples = n8m4_samples
    hrs = cfg.hrs_config()
    sing = Partition.singletons(cfg.users)
    sing_zero = True
    for s in samples:
        out = evaluation.evaluate_partition(s.H_true, s.H_hat, sing, hrs)
        if out.feasible or out.R_total != 0.0:
            sing_zero = False
            break
    elapsed = time.time() - start
    _report(
        ordering_ok and sing_zero and elapsed < 3600,
        "criterion 6: median ordering HC "
        f"{medians['HC']:.2f} >= UNI {medians['UNI']:.2f}, >= SING {medians['SING']:.2f}, "
        f"NN {medians['NN']:.2f} >= 0.9*HC; n8m4 singleton rate 0 on all 500 samples "
        f"({elapsed:.0f}s < 3600s)",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_end_to_end_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"name": "det", "users": 5, "antennas": 8, "samples": 30, "seed": 77}'
    )
    outputs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        for args in (
            ["gen-dataset", "--config", str(cfg_path), "--out", str(d / "data.hrsdat")],
            [
                "train",
                "--data",
                str(d / "data.hrsdat"),
                "--out",
                str(d / "model.hrsmlp"),
                "--epochs",
                "8",
            ],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "hrscluster.cli", *args],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
        outputs.append(
            ((d / "data.hrsdat").read_bytes(), (d / "model.hrsmlp").read_bytes())
        )
    identical = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
    _report(
        identical,
        "criterion 7: two seeded gen-dataset + train runs produce bit-identical "
        "dataset files and model checkpoints",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_round_trip_and_corruption(tiny_dataset, tiny_model, tmp_path):
    ds_path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, ds_path)
    reloaded = data.load(ds_path)
    again = tmp_path / "ds2.hrsdat"
    data.serialize(reloaded, again)
    dataset_ok = ds_path.read_bytes() == again.read_bytes()

    model_path = tmp_path / "m.hrsmlp"
    mlp.save_model(tiny_model, model_path)
    model_again = tmp_path / "m2.hrsmlp"
    mlp.save_model(mlp.load_model(model_path), model_again)
    model_ok = model_path.read_bytes() == model_again.read_bytes()

    corrupted = bytearray(ds_path.read_bytes())
    corrupted[len(corrupted) // 3] ^= 0x42
    bad_path = tmp_path / "bad.hrsdat"
    bad_path.write_bytes(bytes(corrupted))
    with pytest.raises(DataFormatError):
        data.load(bad_path)
    exit_code = cli.run(["train", "--data", str(bad_path), "--out", str(tmp_path / "x")])

    _report(
        dataset_ok and model_ok and exit_code == 3,
        "criterion 8: dataset and checkpoint round trips are byte-exact; corrupted "
        f"files are rejected with exit code {exit_code} (documented: 3)",
    )
