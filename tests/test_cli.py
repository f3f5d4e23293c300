import json
import os

import numpy as np
import pytest

from hrscluster import _binio, cli, data, evaluation, mlp


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
        pytest.param({"azimuths": [0.0, 10**400, 1.0, 2.0]}, id="overflowing-azimuth"),
        pytest.param({"azimuths": 5}, id="non-list-azimuths"),
        pytest.param({"azimuths": None}, id="null-azimuths"),
        pytest.param({"tau_sq": 10**400}, id="overflowing-tau-sq"),
        pytest.param({"spread": 10**400}, id="overflowing-spread"),
        pytest.param({"seed": 1.5}, id="fractional-seed"),
        pytest.param({"num_beta": 2.5}, id="fractional-num-beta"),
        pytest.param({"integration_points": 100.5}, id="fractional-integration-points"),
        pytest.param({"samples": True}, id="boolean-samples"),
        pytest.param({"spread": "x"}, id="non-numeric-spread"),
        pytest.param({"total_power": None}, id="null-power"),
        pytest.param({"total_power": 0}, id="zero-power"),
        pytest.param({"total_power": -5}, id="negative-power"),
        pytest.param({"num_alpha": -2}, id="negative-num-alpha"),
        pytest.param({"num_alpha": 0}, id="zero-num-alpha"),
        pytest.param({"num_beta": 0}, id="zero-num-beta"),
        # keys the config no longer has, refused as unknown
        pytest.param({"num_alpha": 10}, id="removed-num-alpha"),
        pytest.param({"name": 5}, id="non-string-name"),
        pytest.param({"name": "a/b"}, id="name-with-slash"),
        pytest.param({"name": ".."}, id="parent-dir-name"),
        pytest.param({"name": "."}, id="current-dir-name"),
        pytest.param({"name": "a\0b"}, id="name-with-nul"),
        pytest.param({"num_shuffles": 0}, id="zero-num-shuffles"),
        pytest.param({"min_class_samples": 0}, id="zero-min-class-samples"),
        pytest.param({"max_class_samples": -1}, id="negative-max-class-samples"),
        pytest.param({"rate_floor_frac": 0}, id="zero-rate-floor-frac"),
        pytest.param({"azimuths": []}, id="no-azimuths"),
        # the dataset recipe is fixed and num_covs is len(azimuths): keys the config no longer has
        pytest.param({"rate_floor_frac": 0.25}, id="removed-rate-floor-frac"),
        pytest.param({"min_class_samples": 50}, id="removed-min-class-samples"),
        pytest.param({"max_class_samples": 200}, id="removed-max-class-samples"),
        pytest.param({"num_shuffles": 10}, id="removed-num-shuffles"),
        pytest.param({"num_covs": 4}, id="removed-num-covs"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, bad_keys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"users": 4, "antennas": 8, **bad_keys}))
    rc = cli.run(["gen-dataset", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert all(key in err for key in bad_keys)
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
    # there is no --power flag: total_power is set in the config alone, so
    # the parser refuses the flag before any value is looked at
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.run(["--power", power, "gen-dataset", "--config", str(workdir / "cfg.json"), "--out", str(out)])
    assert exc.value.code == 2
    assert "hrscluster: error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2(tmp_path):
    rc = cli.run(["gen-dataset", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--data"), ("compare", "--data"), ("compare", "--model")],
)
def test_missing_input_file_exits_2(workdir, tmp_path, capsys, command, flag):
    inputs = {"--data": str(workdir / "data.hrsdat"), "--model": str(workdir / "model.hrsmlp")}
    inputs[flag] = str(tmp_path / "nope")
    argv = [command, "--data", inputs["--data"], "--out", str(tmp_path / "out")]
    if command == "compare":
        argv += ["--model", inputs["--model"]]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"error: cannot open {tmp_path / 'nope'}: No such file or directory\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, message", [("--epochs", "0", "epochs")])
def test_bad_training_hyperparameters_exit_2(workdir, tmp_path, capsys, flag, value, message):
    model = tmp_path / "m.hrsmlp"
    rc = cli.run(["train", "--data", str(workdir / "data.hrsdat"), "--out", str(model), flag, value])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("flag, value", [("--batch-size", "64"), ("--learning-rate", "0.01")])
def test_removed_training_flags_exit_2(workdir, tmp_path, capsys, flag, value):
    # the batch size and learning rate are mlp constants, so the parser
    # refuses the flags as unknown arguments
    model = tmp_path / "m.hrsmlp"
    with pytest.raises(SystemExit) as exc:
        cli.run(["train", "--data", str(workdir / "data.hrsdat"), "--out", str(model), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-dataset", "--config", "{cfg}", "--out", "{missing}"],
        ["gen-dataset", "--config", "{cfg}", "--out", "{out}", "--csv", "{missing}"],
        ["train", "--data", "{data}", "--out", "{missing}", "--epochs", "1"],
        ["train", "--data", "{data}", "--out", "{out}", "--epochs", "1", "--report", "{missing}"],
        # an output file cannot be written over a directory
        ["gen-dataset", "--config", "{cfg}", "--out", "{dir}"],
        ["gen-dataset", "--config", "{cfg}", "--out", "{out}", "--csv", "{dir}"],
        ["train", "--data", "{data}", "--out", "{dir}", "--epochs", "1"],
        ["train", "--data", "{data}", "--out", "{out}", "--epochs", "1", "--report", "{dir}"],
        # compare writes into a directory, which cannot be made over a file or under one
        ["compare", "--data", "{data}", "--model", "{model}", "--out", "{file}"],
        ["compare", "--data", "{data}", "--model", "{model}", "--out", "{file}/sub"],
    ],
    ids=["gen-dataset--out", "gen-dataset--csv", "train--out", "train--report", "gen-dataset--out-dir",
         "gen-dataset--csv-dir", "train--out-dir", "train--report-dir", "compare--out", "compare--out-under-file"],
)
def test_unwritable_output_exits_2(workdir, tmp_path, capsys, monkeypatch, argv):
    paths = {"cfg": workdir / "cfg.json", "data": workdir / "data.hrsdat", "model": workdir / "model.hrsmlp",
             "out": tmp_path / "out", "missing": tmp_path / "missing" / "out", "file": tmp_path / "a-file",
             "dir": tmp_path / "a-dir"}
    paths["file"].write_text("")
    paths["dir"].mkdir()
    # an unwritable output is refused before any generation, training or scoring
    monkeypatch.setattr(data, "build_dataset", lambda *args, **kwargs: pytest.fail("build_dataset ran"))
    monkeypatch.setattr(mlp, "train", lambda *args, **kwargs: pytest.fail("train ran"))
    monkeypatch.setattr(evaluation, "run_baselines", lambda *args, **kwargs: pytest.fail("run_baselines ran"))
    assert cli.run([arg.format(**paths) for arg in argv]) == 2
    reasons = {
        "{missing}": (paths["missing"], "No such file or directory"),
        "{file}": (paths["file"], "File exists"),
        "{file}/sub": (paths["file"] / "sub", "Not a directory"),
        "{dir}": (paths["dir"], "Is a directory"),
    }
    bad, reason = next(reasons[arg] for arg in argv if arg in reasons)
    assert capsys.readouterr().err == f"error: cannot open {bad}: {reason}\n"
    assert not paths["out"].exists()
    assert not any(paths["dir"].iterdir())


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["gen-dataset", "--config", "{cfg}", "--out", "{cfg}"], ("--out", "--config")),
        (["gen-dataset", "--config", "{cfg}", "--out", "{out}", "--csv", "{out}"], ("--csv", "--out")),
        # one file spelled two ways, before it exists
        (["gen-dataset", "--config", "{cfg}", "--out", "{out}", "--csv", "{dir}/../out"], ("--csv", "--out")),
        (["train", "--data", "{data}", "--out", "{data}", "--epochs", "1"], ("--out", "--data")),
        # a hard link: another path, the same file
        (["train", "--data", "{data}", "--out", "{link}", "--epochs", "1"], ("--out", "--data")),
        (["train", "--data", "{data}", "--out", "{out}", "--epochs", "1", "--report", "{data}"],
         ("--report", "--data")),
        (["train", "--data", "{data}", "--out", "{out}", "--epochs", "1", "--report", "{out}"],
         ("--report", "--out")),
    ],
    ids=["gen-dataset--out-config", "gen-dataset--csv-out", "gen-dataset--csv-out-spelled", "train--out-data",
         "train--out-data-link", "train--report-data", "train--report-out"],
)
def test_output_over_an_input_or_output_exits_2(workdir, tmp_path, capsys, monkeypatch, argv, flags):
    paths = {"cfg": tmp_path / "cfg.json", "data": tmp_path / "data.hrsdat", "link": tmp_path / "link.hrsdat",
             "out": tmp_path / "out", "dir": tmp_path / "a-dir"}
    for name in ("cfg", "data"):
        paths[name].write_bytes((workdir / paths[name].name).read_bytes())
    os.link(paths["data"], paths["link"])
    paths["dir"].mkdir()
    inputs = {name: paths[name].read_bytes() for name in ("cfg", "data")}
    monkeypatch.setattr(data, "build_dataset", lambda *args, **kwargs: pytest.fail("build_dataset ran"))
    monkeypatch.setattr(mlp, "train", lambda *args, **kwargs: pytest.fail("train ran"))
    argv = [arg.format(**paths) for arg in argv]
    assert cli.run(argv) == 2
    output, other = (argv[argv.index(flag) + 1] for flag in flags)
    assert capsys.readouterr().err == f"error: {flags[0]} {output} is the same file as {flags[1]} {other}\n"
    assert {name: paths[name].read_bytes() for name in ("cfg", "data")} == inputs
    assert not paths["out"].exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exits_2(workdir, tmp_path, capsys, threads):
    out = tmp_path / "out"
    rc = cli.run(["--threads", threads, "gen-dataset", "--config", str(workdir / "cfg.json"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
    assert not out.exists()


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
    header, blob = _binio.read_container(path, mlp.MODEL_MAGIC, mlp.MODEL_VERSION)
    header["format_version"] = 1
    _binio.write_container(path, mlp.MODEL_MAGIC, header, (blob,))
    rc = cli.run(
        ["compare", "--data", str(workdir / "data.hrsdat"), "--model", str(path), "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert "version 1" in capsys.readouterr().err


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_version_one_dataset_exits_3(workdir, tmp_path, capsys, version):
    # a version-1 dataset was labelled with Monte Carlo similarity constants
    # and its config carried their draw count; version 2 kept its records in
    # the header; version 3's config carried the sweep grid and quadrature sizes;
    # version 4's config carried the dataset recipe and num_covs; version 5
    # stored every record's matrices, each augmented copy of a draw again
    path = tmp_path / "old.hrsdat"
    header, blob = _binio.read_container(workdir / "data.hrsdat", data.DATASET_MAGIC, data.DATASET_VERSION)
    header["format_version"] = version
    if version == 1:
        header["config"]["calibration_draws"] = 2000
    _binio.write_container(path, data.DATASET_MAGIC, header, (blob,))
    rc = cli.run(["train", "--data", str(path), "--out", str(tmp_path / "m")])
    assert rc == 3
    err = capsys.readouterr().err
    assert f"version {version}" in err and "regenerate" in err


def _shorter_blob(header, blob):
    return header, blob[: len(blob) // 2]


def _one_class_label_fewer(header, blob):
    header["class_labels"].pop()
    return header, blob


def _no_layer_dims(header, blob):
    del header["layer_dims"]
    return header, blob


def _record_columns(header, blob):
    """A writable copy of a dataset blob, and views of its per-draw rate and
    covariance columns and its per-record draw, user order and label id columns."""
    cfg, draws, count = header["config"], header["draws"], sum(header["split_sizes"])
    blob, n = bytearray(blob), cfg["users"]
    start = draws * 2 * cfg["antennas"] * n * 16
    records = start + draws * (8 + 4 * n)
    return blob, {
        "label_rate": np.frombuffer(blob, "<f8", draws, start),
        "cov_assignment": np.frombuffer(blob, "<i4", draws * n, start + 8 * draws).reshape(draws, n),
        "draw": np.frombuffer(blob, "<i4", count, records),
        "order": np.frombuffer(blob, "<i4", count * n, records + 4 * count).reshape(count, n),
        "label": np.frombuffer(blob, "<i4", count, records + 4 * (n + 1) * count),
    }


def _label_outside_class_index(header, blob):
    blob, columns = _record_columns(header, blob)
    columns["label"][0] = len(header["class_index"])
    return header, blob


def _class_index_as_list(header, blob):
    header["class_index"] = list(header["class_index"])
    return header, blob


def _header_as_list(header, blob):
    return [header], blob


def _set_record(key, row, value):
    """An edit that sets entry ``row`` of the blob column ``key``; the value
    ``"draws"`` stands for the header's draw count."""
    def edit(header, blob):
        blob, columns = _record_columns(header, blob)
        columns[key][row] = header["draws"] if value == "draws" else value
        return header, blob

    return edit


def _set_first_record(key, value):
    edit = _set_record(key, 0, value)
    edit.__name__ = f"_{key}_{json.dumps(value)}"
    return edit


def _one_record_short(header, blob):
    record = 4 + 4 * header["config"]["users"] + 4  # its draw, user order and label id
    return header, blob[:-record]


def _trailing_bytes(header, blob):
    return header, bytes(blob) + bytes(16)


def _config_as_int(header, blob):
    header["config"] = 5
    return header, blob


def _config_with_unknown_key(header, blob):
    header["config"]["colour"] = "blue"
    return header, blob


def _set_first_class_index(value):
    def edit(header, blob):
        first = next(iter(header["class_index"]))
        header["class_index"][first] = value
        return header, blob

    edit.__name__ = f"_class_index_{json.dumps(value)}"
    return edit


def _repeated_class_index(header, blob):
    for label, index in header["class_index"].items():
        if index == 1:
            header["class_index"][label] = 0
    return header, blob


def _rename_first_label(key):
    def edit(header, blob):
        first = next(iter(header["class_index"]))
        header["class_index"][key] = header["class_index"].pop(first)
        return header, blob

    edit.__name__ = f"_class_index_key_{json.dumps(key)}"
    return edit


def _split_sizes_as_int(header, blob):
    header["split_sizes"] = sum(header["split_sizes"])
    return header, blob


def _two_split_sizes(header, blob):
    header["split_sizes"].pop()
    return header, blob


def _negative_split_size(header, blob):
    # the sum, and so the expected blob length, stays the same
    train, validation, test = header["split_sizes"]
    header["split_sizes"] = [train + validation + 1, -1, test]
    return header, blob


def _class_labels_as_ints(header, blob):
    header["class_labels"] = list(range(len(header["class_labels"])))
    return header, blob


def _feature_mean_as_strings(header, blob):
    header["feature_mean"] = [repr(v) for v in header["feature_mean"]]
    return header, blob


def _true_in_feature_std(header, blob):
    header["feature_std"][0] = True
    return header, blob


def _huge_integer_in_feature_mean(header, blob):
    header["feature_mean"][0] = 10**400
    return header, blob


def _overflowing_config_spread(header, blob):
    header["config"]["spread"] = 10**400
    return header, blob


def _negative_spread(header, blob):
    header["config"]["spread"] = -1.0
    return header, blob


def _repeated_class_label(header, blob):
    header["class_labels"][1] = header["class_labels"][0]
    return header, blob


def _set_first_entry(key, value):
    def edit(header, blob):
        header[key][0] = value
        return header, blob

    edit.__name__ = f"_{key}_{json.dumps(value)}"
    return edit


@pytest.mark.parametrize(
    "kind, field, edit",
    [
        ("model", "layer_dims", _shorter_blob),
        ("model", "class_labels", _one_class_label_fewer),
        ("model", "layer_dims", _no_layer_dims),
        # fields of the wrong type
        ("dataset", "class_index", _class_index_as_list),
        ("dataset", "split_sizes", _split_sizes_as_int),
        # headers that used to load silently or end in a traceback
        ("model", "header", _header_as_list),
        ("dataset", "header", _header_as_list),
        ("dataset", "config", _config_as_int),
        ("dataset", "config", _config_with_unknown_key),
        ("dataset", "class_index", _set_first_class_index("0")),
        ("dataset", "class_index", _set_first_class_index(2.7)),
        ("dataset", "class_index", _repeated_class_index),
        ("model", "class_labels", _class_labels_as_ints),
        ("model", "feature_mean", _feature_mean_as_strings),
        ("model", "feature_std", _true_in_feature_std),
        ("dataset", "split_sizes", _two_split_sizes),
        ("dataset", "split_sizes", _negative_split_size),
        # record columns that hold values out of range
        ("dataset", "label", _label_outside_class_index),
        ("dataset", "label", _set_first_record("label", -1)),
        ("dataset", "label_rate", _set_first_record("label_rate", float("nan"))),
        ("dataset", "label_rate", _set_first_record("label_rate", float("inf"))),
        ("dataset", "label_rate", _set_first_record("label_rate", float("-inf"))),
        ("dataset", "cov_assignment", _set_first_record("cov_assignment", [9])),
        ("dataset", "cov_assignment", _set_first_record("cov_assignment", 4)),
        ("dataset", "blob", _one_record_short),
        ("dataset", "blob", _trailing_bytes),
        # a class that is no partition of the scenario's users
        ("dataset", "class_index", _rename_first_label("2,1")),
        ("dataset", "class_index", _rename_first_label("1|2|3")),
        # checkpoint constants that train never writes
        ("model", "feature_std", _set_first_entry("feature_std", float("nan"))),
        ("model", "feature_std", _set_first_entry("feature_std", 0.0)),
        ("model", "feature_std", _set_first_entry("feature_std", -1.0)),
        ("model", "feature_mean", _set_first_entry("feature_mean", float("inf"))),
        ("model", "feature_mean", _huge_integer_in_feature_mean),
        # values that raised OverflowError or loaded silently
        ("dataset", "config", _overflowing_config_spread),
        ("dataset", "config", _negative_spread),
        ("model", "class_labels", _set_first_entry("class_labels", "4,3,2,1")),
        ("model", "class_labels", _repeated_class_label),
    ],
)
def test_inconsistent_header_exits_3(workdir, tmp_path, capsys, kind, field, edit):
    # each container keeps a valid CRC; only its header or its record columns disagree
    source, magic, version = {
        "model": (workdir / "model.hrsmlp", mlp.MODEL_MAGIC, mlp.MODEL_VERSION),
        "dataset": (workdir / "data.hrsdat", data.DATASET_MAGIC, data.DATASET_VERSION),
    }[kind]
    header, blob = edit(*_binio.read_container(source, magic, version))
    path = tmp_path / source.name
    _binio.write_container(path, magic, header, (blob,))
    if kind == "model":
        argv = ["compare", "--data", str(workdir / "data.hrsdat"), "--model", str(path), "--out", str(tmp_path / "r")]
    else:
        argv = ["train", "--data", str(path), "--out", str(tmp_path / "m")]
    assert cli.run(argv) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("fault, message", [("flipped byte", "CRC mismatch"), ("label id", "label id")])
def test_compare_refuses_a_fault_in_the_train_records_it_does_not_score(workdir, tmp_path, capsys, fault, message):
    source = workdir / "data.hrsdat"
    path = tmp_path / "data.hrsdat"
    assert data.load(source).train  # so record 0, the one spoilt below, is a train record
    if fault == "flipped byte":
        raw = bytearray(source.read_bytes())
        raw[16 + int.from_bytes(raw[8:16], "little") + 100] ^= 0xFF  # inside draw 0's H_true
        path.write_bytes(bytes(raw))
    else:
        header, blob = _label_outside_class_index(
            *_binio.read_container(source, data.DATASET_MAGIC, data.DATASET_VERSION))
        _binio.write_container(path, data.DATASET_MAGIC, header, (blob,))
    argv = ["compare", "--data", str(path), "--model", str(workdir / "model.hrsmlp"), "--out", str(tmp_path / "r")]
    assert cli.run(argv) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set_record("draw", 3, "draws"), "record 3 has draw ", id="draw-past-the-store"),
        pytest.param(_set_record("draw", 3, -1), "record 3 has draw -1,", id="negative-draw"),
        pytest.param(_set_record("order", 3, [0, 0, 2, 3]), "record 3 has order [0, 0, 2, 3],", id="order-repeats"),
        pytest.param(_set_record("order", 3, [1, 2, 3, 4]), "record 3 has order [1, 2, 3, 4],", id="order-past-n"),
        pytest.param(_set_record("cov_assignment", 2, [0, 1, 2, 4]), "draw 2 has cov_assignment [0, 1, 2, 4],",
                     id="cov-assignment-out-of-range"),
        pytest.param(_set_record("label_rate", 2, float("nan")), "draw 2 has label_rate nan,", id="nan-rate"),
        pytest.param(_set_record("label_rate", 2, float("inf")), "draw 2 has label_rate inf,", id="inf-rate"),
    ],
)
def test_bad_draw_or_record_column_exits_3_naming_it(workdir, tmp_path, capsys, edit, message):
    # each column is checked with one array predicate; the message names the field and the first bad entry
    header, blob = edit(*_binio.read_container(workdir / "data.hrsdat", data.DATASET_MAGIC, data.DATASET_VERSION))
    path = tmp_path / "data.hrsdat"
    _binio.write_container(path, data.DATASET_MAGIC, header, (blob,))
    for argv in (["train", "--data", str(path), "--out", str(tmp_path / "m")],
                 ["compare", "--data", str(path), "--model", str(workdir / "model.hrsmlp"),
                  "--out", str(tmp_path / "r")]):
        assert cli.run(argv) == 3
        assert message in capsys.readouterr().err
    assert not (tmp_path / "m").exists() and not (tmp_path / "r").exists()


def _directory(path):
    path.mkdir()


def _latin1(path):
    path.write_bytes('{"users": 4, "antennas": 8, "name": "caf\xe9"}'.encode("latin-1"))


@pytest.mark.parametrize("make, message", [(_directory, "cannot open config file"), (_latin1, "UTF-8")])
@pytest.mark.parametrize("command", ["gen-dataset", "sweep"])
def test_unreadable_config_exits_2(tmp_path, capsys, make, message, command):
    # a directory named like a config, or a config that is not UTF-8, is refused as a missing one is
    configs = tmp_path / "configs"
    configs.mkdir()
    make(configs / "bad.json")
    out = tmp_path / "out"
    if command == "gen-dataset":
        argv = ["gen-dataset", "--config", str(configs / "bad.json"), "--out", str(out)]
    else:
        argv = ["sweep", "--configs", str(configs), "--out", str(out)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(configs / "bad.json") in err
    assert not out.exists()


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


def test_sweep_refuses_two_configs_of_one_name_before_writing(tmp_path, capsys):
    # neither config names its scenario, so both resolve to n4m8 and would share one output directory
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for seed in (11, 12):
        (cfg_dir / f"s{seed}.json").write_text(json.dumps({"users": 4, "antennas": 8, "samples": 30, "seed": seed}))
    out = tmp_path / "out"
    assert cli.run(["sweep", "--configs", str(cfg_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg_dir / "s11.json") in err and str(cfg_dir / "s12.json") in err and "'n4m8'" in err
    assert not out.exists()


def test_threads_flag_preserves_determinism(workdir, tmp_path):
    serial = tmp_path / "serial.hrsdat"
    parallel = tmp_path / "parallel.hrsdat"
    base = ["gen-dataset", "--config", str(workdir / "cfg.json")]
    assert cli.run([*base, "--out", str(serial)]) == 0
    assert cli.run(["--threads", "2", *base, "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
