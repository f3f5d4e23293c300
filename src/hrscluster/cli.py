"""Command-line harness.

Subcommands:

    gen-dataset --config F --out D     generate and store a labeled dataset
    train       --data D --out M       train the classifier on a dataset
    compare     --data D --model M [--out R]  accuracy, relative rate and baselines
    sweep       --configs DIR --out R  full pipeline for every config file

Global flags: ``--seed`` overrides the config seed, ``--threads`` (at least 1)
sets the generation worker count.
Exit codes: 0 success, 2 configuration error (an input that cannot be read,
an output that cannot be written and an output over an input or over
another output among them), 3 data-format error, 4 numerical-consistency
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import stat
import sys
from pathlib import Path

from . import data, evaluation, mlp
from .errors import ConfigurationError, HrsError
from .partitions import Partition


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrscluster",
        description="Rate-splitting user clustering: datasets, training, evaluation.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker processes for generation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a labeled dataset")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--csv", default=None, help="also export a (label, rate, scenario) CSV")

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="output model checkpoint")
    p.add_argument("--report", default=None, help="optional JSON training report")
    p.add_argument("--epochs", type=int, default=mlp.TrainingHyper.epochs)

    p = sub.add_parser("compare", help="accuracy, relative rate and the four clustering baselines")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("sweep", help="gen + train + compare per config")
    p.add_argument("--configs", required=True, help="directory of scenario config JSON files")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _apply_overrides(cfg: data.ScenarioConfig, args) -> data.ScenarioConfig:
    return cfg if args.seed is None else dataclasses.replace(cfg, seed=args.seed)


def _check_outputs(args, inputs, outputs) -> None:
    """Refuse, before any work, the file of each set flag of ``outputs``:
    raise the ``OSError`` that writing it would meet at its directory or at a
    directory of its name, or a ``ConfigurationError`` if it is the file of a
    flag of ``inputs`` or of an earlier output."""
    named = [(flag, getattr(args, flag)) for flag in inputs]
    for flag in outputs:
        path = getattr(args, flag)
        if not path:
            continue
        try:
            in_dir = stat.S_ISDIR(os.stat(Path(path).parent).st_mode)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        if not in_dir or os.path.isdir(path):
            code = errno.EISDIR if in_dir else errno.ENOTDIR
            raise OSError(code, os.strerror(code), path)
        for other, other_path in named:
            try:
                same = os.path.samefile(path, other_path)
            except OSError:  # one of them does not exist (yet)
                same = Path(path).resolve() == Path(other_path).resolve()
            if same:
                raise ConfigurationError(f"--{flag} {path} is the same file as --{other} {other_path}")
        named.append((flag, path))


def _check_out_dir(path, files=()) -> None:
    """Raise, before any work, the ``OSError`` that making directory ``path``
    and its parents would meet at an existing file, or that writing one of
    ``files`` in it would meet at a directory of that name."""
    existing = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == Path(path) else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)
    for file in files:
        if (Path(path) / file).is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(Path(path) / file))


def _cmd_gen_dataset(args) -> int:
    _check_outputs(args, ("config",), ("out", "csv"))
    cfg = _apply_overrides(data.ScenarioConfig.from_file(args.config), args)
    dataset = data.build_dataset(cfg, threads=args.threads)
    data.serialize(dataset, args.out)
    if args.csv:
        data.export_labels_csv(dataset, args.csv)
    print(
        f"{cfg.name}: {len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)} "
        f"train/val/test samples across {dataset.num_classes} classes -> {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    _check_outputs(args, ("data",), ("out", "report"))
    dataset = data.load(args.data)
    seed = args.seed if args.seed is not None else dataset.config.seed
    hyper = mlp.TrainingHyper(epochs=args.epochs, seed=seed)
    model, rep = mlp.train(dataset, hyper)
    mlp.save_model(model, args.out)
    if args.report:
        Path(args.report).write_text(json.dumps(dataclasses.asdict(rep), indent=2))
    print(
        f"trained on {len(dataset.train)} samples: final loss {rep.train_loss[-1]:.4f}, "
        f"val top-1 {rep.val_top1[-1]:.3f}, test top-1 {rep.test_top1:.3f} -> {args.out}"
    )
    return 0


def _cmd_compare(args) -> int:
    _check_out_dir(args.out)
    dataset = data.load(args.data)
    _check_out_dir(args.out, evaluation.report_files(dataset.config.name))
    model = mlp.load_model(args.model)
    _check_compatible(dataset, model)
    _evaluate(dataset, model, args.out)
    print(f"plots and records -> {Path(args.out)}")
    return 0


def _cmd_sweep(args) -> int:
    config_dir = Path(args.configs)
    configs = sorted(config_dir.glob("*.json"))
    if not configs:
        raise ConfigurationError(f"no *.json configs under {config_dir}")
    out_root = Path(args.out)
    scenarios = {}  # name -> (config file, config); every config is checked before anything is written
    for cfg_path in configs:
        cfg = _apply_overrides(data.ScenarioConfig.from_file(cfg_path), args)
        if cfg.name in scenarios:
            raise ConfigurationError(f"{scenarios[cfg.name][0]} and {cfg_path} both name the scenario {cfg.name!r}")
        scenarios[cfg.name] = cfg_path, cfg
    summary = out_root / "summary.csv"
    for name in scenarios:  # every file the runs write, checked before the first run
        if name == summary.name:  # its directory would take the summary's path
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), str(summary))
        _check_out_dir(out_root / name, ("dataset.hrsdat", "model.hrsmlp", *evaluation.report_files(name)))
    _check_out_dir(out_root, (summary.name,))
    rows = []
    for _, cfg in scenarios.values():
        scdir = out_root / cfg.name
        scdir.mkdir(parents=True, exist_ok=True)
        dataset = data.build_dataset(cfg, threads=args.threads)
        data.serialize(dataset, scdir / "dataset.hrsdat")
        hyper = mlp.TrainingHyper(seed=cfg.seed)  # cfg carries the --seed override
        model, rep = mlp.train(dataset, hyper)
        mlp.save_model(model, scdir / "model.hrsmlp")
        rows.append(_evaluate(dataset, model, scdir))
    evaluation.write_summary_csv(rows, summary)
    print(f"summary -> {summary}")
    return 0


def _evaluate(dataset: data.DatasetSplit, model: mlp.MlpModel, out_dir) -> dict:
    """Score the baselines and accuracies, write the reports and print them;
    returns the summary row."""
    results = evaluation.run_baselines(dataset, model)
    metrics = evaluation.accuracy_metrics(dataset, model)
    row = evaluation.report(results, metrics, dataset.config.name, out_dir)
    print(
        f"{row['scenario']}: test top-1 {row['test_top1']:.3f}, "
        f"top-3 {row['test_top3']:.3f}, top-5 {row['test_top5']:.3f}, "
        f"relative rate {row['relative_rate']:.3f}"
    )
    for res in results:
        print(
            f"{res.method:>4}: median {res.summary.median:.3f} "
            f"[{res.summary.p25:.3f}, {res.summary.p75:.3f}] bps/Hz"
        )
    return row


def _check_compatible(dataset: data.DatasetSplit, model: mlp.MlpModel) -> None:
    users = dataset.config.users
    expected = mlp.feature_count(users, dataset.config.antennas)
    if model.layer_dims[0] != expected:
        raise ConfigurationError(f"model expects {model.layer_dims[0]} features but the dataset "
                                 f"provides {expected}; scenario/model mismatch")
    # two scenarios can share an input width (n4m8 and n5m6 both give 70);
    # load_model has checked that every class partitions as many users as the first
    if Partition.from_key(model.class_labels[0]).num_users != users:
        raise ConfigurationError(f"model classes do not partition the dataset's {users} users; "
                                 "scenario/model mismatch")


_COMMANDS = {"gen-dataset": _cmd_gen_dataset, "train": _cmd_train, "compare": _cmd_compare, "sweep": _cmd_sweep}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigurationError(f"--threads must be at least 1, got {args.threads}")
        return _COMMANDS[args.command](args)
    except OSError as exc:  # an output that cannot be written; the readers refuse their inputs themselves
        if exc.filename is None:
            raise
        error = ConfigurationError(f"cannot open {exc.filename}: {exc.strerror}")
    except HrsError as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return error.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
