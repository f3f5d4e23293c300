"""Command-line harness.

Subcommands:

    gen-dataset --config F --out D     generate and store a labeled dataset
    train       --data D --out M       train the classifier on a dataset
    compare     --data D --model M [--out R]  accuracy, relative rate and baselines
    sweep       --configs DIR --out R  full pipeline for every config file

Global flags ``--seed``, ``--threads``, ``--power`` override the config.
Exit codes: 0 success, 2 configuration error, 3 data-format error,
4 numerical-consistency error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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
    parser.add_argument("--power", type=float, default=None, help="override total transmit power")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a labeled dataset")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--csv", default=None, help="also export a (label, rate, scenario) CSV")

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="output model checkpoint")
    p.add_argument("--report", default=None, help="optional JSON training report")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--learning-rate", type=float, default=1e-3)

    p = sub.add_parser("compare", help="accuracy, relative rate and the four clustering baselines")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("sweep", help="gen + train + compare per config")
    p.add_argument("--configs", required=True, help="directory of scenario config JSON files")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _load_config(args) -> data.ScenarioConfig:
    cfg = data.ScenarioConfig.from_file(args.config)
    return _apply_overrides(cfg, args)


def _apply_overrides(cfg: data.ScenarioConfig, args) -> data.ScenarioConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.power is not None:
        updates["total_power"] = args.power
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_gen_dataset(args) -> int:
    cfg = _load_config(args)
    dataset = data.build_dataset(cfg, threads=max(args.threads, 1))
    data.serialize(dataset, args.out)
    if args.csv:
        data.export_labels_csv(dataset, args.csv)
    print(
        f"{cfg.name}: {len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)} "
        f"train/val/test samples across {dataset.num_classes} classes -> {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    dataset = data.load(args.data)
    hyper = mlp.TrainingHyper(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed if args.seed is not None else dataset.config.seed,
    )
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
    dataset = data.load(args.data)
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
    rows = []
    for cfg_path in configs:
        cfg = _apply_overrides(data.ScenarioConfig.from_file(cfg_path), args)
        scdir = out_root / cfg.name
        scdir.mkdir(parents=True, exist_ok=True)
        dataset = data.build_dataset(cfg, threads=max(args.threads, 1))
        data.serialize(dataset, scdir / "dataset.hrsdat")
        hyper = mlp.TrainingHyper(seed=args.seed if args.seed is not None else cfg.seed)
        model, rep = mlp.train(dataset, hyper)
        mlp.save_model(model, scdir / "model.hrsmlp")
        rows.append(_evaluate(dataset, model, scdir))
    evaluation.write_summary_csv(rows, out_root / "summary.csv")
    print(f"summary -> {out_root / 'summary.csv'}")
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
        raise ConfigurationError(
            f"model expects {model.layer_dims[0]} features but the dataset "
            f"provides {expected}; scenario/model mismatch"
        )
    # two scenarios can share an input width (n4m8 and n5m6 both give 70)
    if any(Partition.from_key(label).num_users != users for label in model.class_labels):
        raise ConfigurationError(
            f"model classes do not partition the dataset's {users} users; scenario/model mismatch"
        )


_COMMANDS = {
    "gen-dataset": _cmd_gen_dataset,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
