"""The three workloads and the hooks that time them.

Every workload is a closed loop: one caller in one process repeats one
``hrscluster.cli.run`` command until the run's time is spent, then checks
what the commands wrote. A plain run installs only the few timestamp hooks
its end-to-end metrics need; a traced run installs every hook in ``HOOKS``.

    label-n12m12   gen-dataset on the (12, 12) reference scenario
    train-n8m8     train on the n8m8 acceptance dataset
    compare-n8m8   compare on that dataset's test split, plus one-sample
                   NN decisions through ``mlp.predict_labels``
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import metrics
import spans
from hrscluster import cli, clustering, data, evaluation, hrs, mlp
from hrscluster.errors import HrsError
from hrscluster.partitions import Partition

# Relative slack of the per-sample check HC >= max(UNI, SING).
RATE_RTOL = 1e-9
COUNT = "count"


def _file_bytes(args, result):
    return Path(args[1]).stat().st_size


def _loaded(args, result):
    return {
        "bytes": Path(args[0]).stat().st_size,
        "train": len(result.train),
        "validation": len(result.validation),
        "test": len(result.test),
    }


# (span name, owner, attribute, observe). The owner is the module whose
# global the calling layer looks up, so e.g. clustering's and evaluation's
# calls into hrs.evaluate_partition are wrapped separately under one name.
# COUNT marks hot leaf calls that are counted instead of spanned.
HOOKS = (
    ("channel.covariances", data.ScenarioConfig, "covariances", None),
    ("clustering.calibration", data.ScenarioConfig, "calibration", None),
    ("data.generate_samples", data, "generate_samples", None),
    ("channel.sample", data, "sample_channels", None),
    ("channel.sample", data, "corrupt_csi", None),
    ("clustering.agglomerate", data, "agglomerate", None),
    ("clustering.best_partition", data, "best_partition",
     lambda args, result: (result[0].key(), result[1].R_total)),
    ("clustering.pf_similarity", clustering, "pf_similarity", COUNT),
    ("linalg.svd", np.linalg, "svd", COUNT),
    ("hrs.evaluate_partition", clustering, "evaluate_partition", lambda a, r: r.feasible),
    ("hrs.evaluate_partition", evaluation, "evaluate_partition", lambda a, r: r.feasible),
    ("hrs.compute_outer_precoders", hrs, "compute_outer_precoders", None),
    ("hrs.compute_inner_precoders", hrs, "compute_inner_precoders", None),
    ("data.balance", data, "balance", None),
    ("data.augment", data, "augment", None),
    ("data.split", data, "split", None),
    ("data.serialize", data, "serialize", _file_bytes),
    ("data.load", data, "load", _loaded),
    ("mlp.train", mlp, "train", lambda args, result: result[0].layer_dims),
    ("mlp.init_model", mlp, "init_model", None),
    ("mlp.featurize_all", mlp, "featurize_all", None),
    ("mlp.forward", mlp, "forward", None),
    ("mlp.backward", mlp, "backward", None),
    ("mlp.adam_step", mlp, "adam_step", None),
    ("mlp.epoch_end", mlp, "_top1", None),  # the per-epoch validation pass
    ("mlp.evaluate_topk", mlp, "evaluate_topk", None),
    ("mlp.evaluate_topk", evaluation, "evaluate_topk", None),
    ("mlp.predict_labels", mlp, "predict_labels", None),
    ("mlp.predict_labels", evaluation, "predict_labels", None),
    ("mlp.save_model", mlp, "save_model", None),
    ("mlp.load_model", mlp, "load_model", None),
    ("evaluation.run_baselines", evaluation, "run_baselines", lambda args, result: result),
    ("evaluation.accuracy_metrics", evaluation, "accuracy_metrics", None),
    ("evaluation.report", evaluation, "report", lambda args, result: args[1]),
)


def hooks(rec: spans.Recorder, names=None):
    """Wrappers for every hook, or only for those whose span name is in ``names``."""
    out = []
    for name, owner, attr, observe in HOOKS:
        if names is not None and name not in names:
            continue
        original = owner.__dict__[attr]
        wrapper = rec.counter(name, original) if observe == COUNT else rec.span(name, original, observe)
        out.append((owner, attr, wrapper))
    return out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def canonical(key: str, users: int) -> bool:
    try:
        partition = Partition.from_key(key)
    except HrsError:
        return False
    return partition.key() == key and partition.num_users == users


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def interval(span) -> tuple[float, float]:
    return (span[1], span[2])


@dataclass
class Invocation:
    """One CLI command and what the end-to-end metrics need from it.

    Times are kept as (start, end) intervals, so that they can be measured
    both raw and scaled to the host's speed (``hostspeed``).
    """

    wall: tuple[float, float]
    units: int  # work done: draws, sample-epochs or test samples
    ops: int  # operations attempted: draws, epochs or test samples
    setup: list[tuple[float, float]]
    items: list[list[tuple[float, float]]]  # one timed latency item: its intervals
    outputs: dict = field(default_factory=dict)


class Workload:
    name = ""
    command = ""
    stamps: frozenset = frozenset()  # hooks a plain run installs
    stamps_per_latency = 0  # hooked calls inside one timed latency item
    speed_kernel = "svd"  # hostspeed kernel of the same kind of work
    sample_points: tuple = ()  # (owner, attr) after which the host speed is sampled
    aliases: dict = {}  # end-to-end metric -> this workload's own name for it

    def __init__(self, work: Path, inputs_dir: Path, tiny: bool):
        self.work = work
        self.inputs_dir = inputs_dir
        self.tiny = tiny
        self.details: dict = {}

    def prepare(self) -> None:
        """Work outside the timed loop that the workload needs first."""

    def invoke(self, rec: spans.Recorder, hook_list, seed: int, index: int, tag: str) -> Invocation:
        raise NotImplementedError

    def check(self, invocations) -> int:
        """Number of operations whose outputs are wrong."""
        return sum(self._check_one(inv) for inv in invocations)

    def _check_one(self, inv: Invocation) -> int:
        raise NotImplementedError

    def finish(self, invocations) -> None:
        """Record quality outputs and hashes in ``details``."""

    def _run_cli(self, rec, hook_list, argv):
        since = len(rec.spans)
        with spans.installed(hook_list):
            rc, root = rec.root(f"cli.{self.command}", cli.run, argv)
        return rc, interval(rec.spans[root]), rec.spans[since:]


def _named(span_list, *names):
    return [s for s in span_list if s[0] in names]


class Label(Workload):
    name = "label-n12m12"
    command = "gen-dataset"
    stamps = frozenset(
        {"channel.covariances", "clustering.calibration", "clustering.agglomerate", "clustering.best_partition"}
    )
    stamps_per_latency = 2
    sample_points = ((data, "best_partition"), (clustering, "calibrate_similarity"))
    aliases = {
        "throughput_per_s": "label_draws_per_s",
        "latency_ms_p50": "hc_decide_ms_p50",
        "latency_ms_tail": "hc_decide_ms_tail",
    }
    # Calibration, a fixed cost of every gen-dataset, takes about half of a
    # 100-draw command; 100 draws give three commands in a 30 s run.
    CONFIG = {"users": 12, "antennas": 12, "samples": 100}
    TINY = {"users": 4, "antennas": 8, "samples": 12}

    def invoke(self, rec, hook_list, seed, index, tag):
        cfg = dict(self.TINY if self.tiny else self.CONFIG, seed=seed * 1000 + index)
        cfg_path = self.work / f"label-{tag}{index}.json"
        out = self.work / f"label-{tag}{index}.hrsdat"
        cfg_path.write_text(json.dumps(cfg))
        rc, wall, mine = self._run_cli(rec, hook_list, ["gen-dataset", "--config", str(cfg_path), "--out", str(out)])
        agg = _named(mine, "clustering.agglomerate")
        best = _named(mine, "clustering.best_partition")
        return Invocation(
            wall=wall,
            units=cfg["samples"],
            ops=cfg["samples"],
            setup=[interval(s) for s in _named(mine, "channel.covariances", "clustering.calibration")],
            items=[[interval(a), interval(b)] for a, b in zip(agg, best)],
            outputs={"rc": rc, "path": out, "users": cfg["users"], "draws": [s[4] for s in best]},
        )

    def _check_one(self, inv):
        out = inv.outputs
        if out["rc"] != 0 or len(out["draws"]) != inv.ops:
            return inv.ops
        bad = sum(1 for key, rate in out["draws"] if not (canonical(key, out["users"]) and finite(rate)))
        dataset = data.load(out["path"])
        copy = out["path"].with_suffix(".copy")
        data.serialize(dataset, copy)
        stored_ok = all(
            canonical(s.label, out["users"]) and finite(s.label_rate) for s in dataset.all_samples()
        )
        if copy.read_bytes() != out["path"].read_bytes() or not stored_ok:
            return inv.ops
        out["sha256"] = sha256(out["path"])
        return bad

    def finish(self, invocations):
        rates = [rate for inv in invocations for _, rate in inv.outputs["draws"]]
        self.details["quality"] = {"hc_rate_mean_bps": float(np.mean(rates)) if rates else float("nan")}
        self.details["first_dataset_sha256"] = invocations[0].outputs.get("sha256")


class Train(Workload):
    name = "train-n8m8"
    command = "train"
    stamps = frozenset({"data.load", "mlp.backward", "mlp.adam_step"})
    stamps_per_latency = 2
    speed_kernel = "gemm"
    sample_points = ((mlp, "adam_step"),)
    aliases = {
        "throughput_per_s": "train_samples_per_s",
        "latency_ms_p50": "train_step_ms_p50",
        "latency_ms_tail": "train_step_ms_tail",
    }
    EPOCHS = 5
    TINY_EPOCHS = 1

    def prepare(self):
        self.dataset = self.inputs_dir / inputs.DATASET

    def invoke(self, rec, hook_list, seed, index, tag):
        epochs = self.TINY_EPOCHS if self.tiny else self.EPOCHS
        out = self.work / f"model-{tag}{index}.hrsmlp"
        report = self.work / f"train-{tag}{index}.json"
        argv = ["--seed", str(seed * 1000 + index), "train", "--data", str(self.dataset),
                "--out", str(out), "--report", str(report), "--epochs", str(epochs)]
        rc, wall, mine = self._run_cli(rec, hook_list, argv)
        load = _named(mine, "data.load")
        n_train = load[0][4]["train"] if load else 0
        # one mini-batch step: backward start to the end of its Adam update
        steps = [[(b[1], a[2])] for b, a in zip(_named(mine, "mlp.backward"), _named(mine, "mlp.adam_step"))]
        return Invocation(
            wall=wall,
            units=n_train * epochs,
            ops=epochs,
            setup=[interval(s) for s in load],
            items=steps,
            outputs={"rc": rc, "path": out, "report": report},
        )

    def _check_one(self, inv):
        out = inv.outputs
        if out["rc"] != 0:
            return inv.ops
        rep = json.loads(out["report"].read_text())
        losses = rep["train_loss"]
        bad = inv.ops - len(losses) + sum(1 for v in losses if not finite(v))
        model = mlp.load_model(out["path"])
        copy = out["path"].with_suffix(".copy")
        mlp.save_model(model, copy)
        users = inputs.recipe(self.tiny)["config"]["users"]
        labels_ok = all(canonical(k, users) for k in model.class_labels)
        if copy.read_bytes() != out["path"].read_bytes() or not labels_ok or not finite(*rep["val_top1"]):
            return inv.ops
        out["sha256"] = sha256(out["path"])
        return bad

    def finish(self, invocations):
        self.details["dataset_sha256"] = sha256(self.dataset)
        self.details["first_model_sha256"] = invocations[0].outputs.get("sha256")


class Compare(Workload):
    name = "compare-n8m8"
    command = "compare"
    stamps = frozenset(
        {"data.load", "mlp.load_model", "evaluation.run_baselines", "evaluation.report", "hrs.evaluate_partition"}
    )
    stamps_per_latency = 3
    sample_points = ((evaluation, "evaluate_partition"),)
    aliases = {
        "throughput_per_s": "compare_samples_per_s",
        "latency_ms_p50": "baseline_rates_ms_p50",
        "latency_ms_tail": "baseline_rates_ms_tail",
    }

    def prepare(self):
        self.dataset_path = self.inputs_dir / inputs.DATASET
        self.model_path = self.inputs_dir / inputs.MODEL
        # The benchmark's own copies, for the one-sample NN decisions.
        self.dataset = data.load(self.dataset_path)
        self.model = mlp.load_model(self.model_path)

    def invoke(self, rec, hook_list, seed, index, tag):
        out_dir = self.work / f"compare-{tag}{index}"
        argv = ["compare", "--data", str(self.dataset_path), "--model", str(self.model_path), "--out", str(out_dir)]
        rc, wall, mine = self._run_cli(rec, hook_list, argv)
        # run_baselines evaluates the NN, UNI and SING partitions of each test
        # sample in turn: one latency item is the three evaluations of a sample.
        evals = [interval(s) for s in _named(mine, "hrs.evaluate_partition")]
        per_sample = [evals[i : i + 3] for i in range(0, len(evals) - 2, 3)]
        test = self.dataset.test
        order = np.random.default_rng((seed, index)).permutation(len(test))
        clock = time.perf_counter
        latencies, decisions = [], []
        with spans.installed(hook_list):
            for j in order:
                t0 = clock()
                label = mlp.predict_labels(self.model, [test[j]])[0]
                latencies.append(clock() - t0)
                decisions.append(label)
        baselines = _named(mine, "evaluation.run_baselines")
        reports = _named(mine, "evaluation.report")
        return Invocation(
            wall=wall,
            units=len(test),
            ops=len(test),
            setup=[interval(s) for s in _named(mine, "data.load", "mlp.load_model")],
            items=per_sample,
            outputs={
                "rc": rc,
                "nn_decide_s": latencies,
                "results": baselines[0][4] if baselines else None,
                "accuracy": reports[0][4] if reports else None,
                "decisions": decisions,
            },
        )

    def check(self, invocations):
        data_copy = self.work / "dataset.copy"
        model_copy = self.work / "model.copy"
        data.serialize(data.load(self.dataset_path), data_copy)
        mlp.save_model(mlp.load_model(self.model_path), model_copy)
        if (data_copy.read_bytes() != self.dataset_path.read_bytes()
                or model_copy.read_bytes() != self.model_path.read_bytes()):
            return sum(inv.ops for inv in invocations)
        return super().check(invocations)

    def _check_one(self, inv):
        out = inv.outputs
        if out["rc"] != 0 or out["results"] is None:
            return inv.ops
        rates = {r.method: r.rates for r in out["results"]}
        bad_rates = sum(
            1
            for hc, nn, uni, sing in zip(*(rates[m] for m in ("HC", "NN", "UNI", "SING")))
            if not (finite(hc, nn, uni, sing) and hc >= max(uni, sing) * (1.0 - RATE_RTOL))
        )
        users = self.dataset.config.users
        known = set(self.model.class_labels)
        bad_decisions = sum(1 for k in out["decisions"] if not (canonical(k, users) and k in known))
        return min(inv.ops, bad_rates + bad_decisions)

    def finish(self, invocations):
        first = invocations[0].outputs
        if first["results"] is not None and first["accuracy"] is not None:
            self.details["quality"] = {
                "test_top1": first["accuracy"]["test_top1"],
                "test_top5": first["accuracy"]["test_top5"],
                "relative_rate": evaluation.relative_rate(first["results"]).ratio,
            }
        self.details["dataset_sha256"] = sha256(self.dataset_path)
        self.details["model_sha256"] = sha256(self.model_path)
        # One-sample NN decisions are timed but not gated: at about 0.1 ms
        # their ten-run spread reached 41-46% on a shared two-vCPU host.
        decide_ms = np.array([x for inv in invocations for x in inv.outputs["nn_decide_s"]]) * 1e3
        if len(decide_ms):
            tail = metrics.tail_percentile(len(decide_ms))
            self.details["nn_decide_ms_p50"] = float(np.percentile(decide_ms, 50))
            self.details[f"nn_decide_ms_p{tail:g}"] = float(np.percentile(decide_ms, tail))


WORKLOADS = {w.name: w for w in (Label, Train, Compare)}
