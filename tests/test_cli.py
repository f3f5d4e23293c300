import json

import numpy as np
import pytest

from hrscluster import _binio, cli, data, mlp


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny gen + train run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "name": "clitiny",
        "users": 4,
        "antennas": 8,
        "samples": 20,
        "seed": 31,
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    dataset_path = root / "data.hrsdat"
    model_path = root / "model.hrsmlp"
    assert cli.run(["gen-dataset", "--config", str(cfg_path), "--out", str(dataset_path)]) == 0
    assert (
        cli.run(
            [
                "train",
                "--data",
                str(dataset_path),
                "--out",
                str(model_path),
                "--epochs",
                "4",
                "--report",
                str(root / "train.json"),
            ]
        )
        == 0
    )
    return root


def test_gen_dataset_writes_loadable_file(workdir):
    ds = data.load(workdir / "data.hrsdat")
    assert ds.config.name == "clitiny"
    assert len(ds.all_samples()) > 0


def test_train_writes_model_and_report(workdir):
    model = mlp.load_model(workdir / "model.hrsmlp")
    assert model.layer_dims[0] == 2 * 4 * 8 + 4 * 3 // 2
    report = json.loads((workdir / "train.json").read_text())
    assert len(report["train_loss"]) == 4


def test_compare_produces_reports(workdir, capsys):
    out = workdir / "report"
    rc = cli.run(
        [
            "compare",
            "--data",
            str(workdir / "data.hrsdat"),
            "--model",
            str(workdir / "model.hrsmlp"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "clitiny_summary.csv").exists()
    assert (out / "clitiny_boxplot.svg").exists()
    printed = capsys.readouterr().out
    assert "test top-1" in printed and "top-5" in printed and "relative rate" in printed
    for method in ("HC", "NN", "UNI", "SING"):
        assert method in printed


def test_csv_export_flag(workdir, tmp_path):
    rc = cli.run(
        [
            "gen-dataset",
            "--config",
            str(workdir / "cfg.json"),
            "--out",
            str(tmp_path / "d.hrsdat"),
            "--csv",
            str(tmp_path / "labels.csv"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "labels.csv").read_text().startswith("label,rate,scenario,split")


@pytest.mark.parametrize(
    "bad_keys",
    [
        pytest.param({"tau_sq": 7.0}, id="tau_sq"),
        pytest.param({"seed": -3}, id="negative-seed"),
        pytest.param({"num_covs": 0}, id="no-covariances"),
        pytest.param({"azimuths": [0.0, "north", 1.0, 2.0]}, id="non-numeric-azimuth"),
        pytest.param({"seed": 1.5}, id="fractional-seed"),
        pytest.param({"num_beta": 2.5}, id="fractional-num-beta"),
        pytest.param({"integration_points": 100.5}, id="fractional-integration-points"),
        pytest.param({"samples": True}, id="boolean-samples"),
        pytest.param({"spread": "x"}, id="non-numeric-spread"),
        pytest.param({"total_power": None}, id="null-power"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, bad_keys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"users": 4, "antennas": 8, **bad_keys}))
    rc = cli.run(["gen-dataset", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["gen-dataset", "train"])
def test_negative_seed_flag_exits_2(workdir, tmp_path, capsys, command):
    out = tmp_path / "out"
    source = ("--config", "cfg.json") if command == "gen-dataset" else ("--data", "data.hrsdat")
    rc = cli.run(["--seed", "-1", command, source[0], str(workdir / source[1]), "--out", str(out)])
    assert rc == 2
    assert "error: seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("power", ["nan", "inf"])
def test_non_finite_power_flag_exits_2(workdir, tmp_path, capsys, power):
    out = tmp_path / "out"
    rc = cli.run(["--power", power, "gen-dataset", "--config", str(workdir / "cfg.json"), "--out", str(out)])
    assert rc == 2
    assert "error: total_power must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    rc = cli.run(["gen-dataset", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [("--epochs", "0", "epochs"), ("--batch-size", "0", "batch size"), ("--learning-rate", "0", "learning rate")],
)
def test_bad_training_hyperparameters_exit_2(workdir, tmp_path, capsys, flag, value, message):
    model = tmp_path / "m.hrsmlp"
    rc = cli.run(["train", "--data", str(workdir / "data.hrsdat"), "--out", str(model), flag, value])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not model.exists()


def test_corrupt_dataset_exits_3(workdir, tmp_path):
    corrupted = tmp_path / "corrupt.hrsdat"
    raw = bytearray((workdir / "data.hrsdat").read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    corrupted.write_bytes(bytes(raw))
    rc = cli.run(["train", "--data", str(corrupted), "--out", str(tmp_path / "m")])
    assert rc == 3


# the workdir model is n4m8; n5m6 has the same input width, 2 * 5 * 6 + 5 * 4 // 2 = 70
@pytest.mark.parametrize("users, antennas", [(3, 6), (5, 6)])
def test_scenario_model_mismatch_exits_2(workdir, tmp_path, capsys, users, antennas):
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps({"users": users, "antennas": antennas, "samples": 12, "seed": 5}))
    other_data = tmp_path / "other.hrsdat"
    assert cli.run(["gen-dataset", "--config", str(other_cfg), "--out", str(other_data)]) == 0
    rc = cli.run(
        [
            "compare",
            "--data",
            str(other_data),
            "--model",
            str(workdir / "model.hrsmlp"),
            "--out",
            str(tmp_path / "r"),
        ]
    )
    assert rc == 2
    assert "scenario/model mismatch" in capsys.readouterr().err


def test_version_one_checkpoint_exits_3(workdir, tmp_path, capsys):
    # a version-1 checkpoint read only the 2*N*M raw entries of the estimate
    width = 2 * 4 * 8
    stats = mlp.FeatureStats(np.zeros(width), np.ones(width))
    old = mlp.init_model(width, (4,), ("1,2,3,4",), stats, np.random.default_rng(0))
    path = tmp_path / "old.hrsmlp"
    mlp.save_model(old, path)
    header, blob = _binio.read_container(path, mlp.MODEL_MAGIC)
    header["format_version"] = 1
    _binio.write_container(path, mlp.MODEL_MAGIC, header, blob)
    rc = cli.run(
        ["compare", "--data", str(workdir / "data.hrsdat"), "--model", str(path), "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert "version 1" in capsys.readouterr().err


def test_version_one_dataset_exits_3(workdir, tmp_path, capsys):
    # a version-1 dataset was labelled with Monte Carlo similarity constants
    # and its config carried their draw count
    path = tmp_path / "old.hrsdat"
    header, blob = _binio.read_container(workdir / "data.hrsdat", data.DATASET_MAGIC)
    header["format_version"] = 1
    header["config"]["calibration_draws"] = 2000
    _binio.write_container(path, data.DATASET_MAGIC, header, blob)
    rc = cli.run(["train", "--data", str(path), "--out", str(tmp_path / "m")])
    assert rc == 3
    assert "version 1" in capsys.readouterr().err


def test_seed_override_changes_dataset(workdir, tmp_path):
    out1 = tmp_path / "a.hrsdat"
    out2 = tmp_path / "b.hrsdat"
    base = ["gen-dataset", "--config", str(workdir / "cfg.json")]
    assert cli.run(["--seed", "99", *base, "--out", str(out1)]) == 0
    assert cli.run(["--seed", "100", *base, "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()
    assert data.load(out1).config.seed == 99


def test_sweep_runs_all_configs(tmp_path):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for name, seed in (("s1", 1), ("s2", 2)):
        (cfg_dir / f"{name}.json").write_text(
            json.dumps({"name": name, "users": 3, "antennas": 6, "samples": 12, "seed": seed})
        )
    out = tmp_path / "out"
    rc = cli.run(["sweep", "--configs", str(cfg_dir), "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("scenario,")
    assert len(summary) == 3
    for name, row in zip(("s1", "s2"), summary[1:]):
        assert (out / name / "dataset.hrsdat").exists()
        assert (out / name / "model.hrsmlp").exists()
        assert (out / name / f"{name}_boxplot.svg").exists()
        per_scenario = (out / name / f"{name}_summary.csv").read_text().splitlines()
        assert per_scenario[0] == summary[0]
        assert row == per_scenario[1]


def test_threads_flag_preserves_determinism(workdir, tmp_path):
    serial = tmp_path / "serial.hrsdat"
    parallel = tmp_path / "parallel.hrsdat"
    base = ["gen-dataset", "--config", str(workdir / "cfg.json")]
    assert cli.run([*base, "--out", str(serial)]) == 0
    assert cli.run(["--threads", "2", *base, "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
