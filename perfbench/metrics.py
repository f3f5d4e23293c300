"""End-to-end metrics of a plain run and per-layer metrics of a traced run."""

from __future__ import annotations

import resource

import numpy as np

import spans

# Fixed ladder for the tail percentile, so the reported percentile stays the
# same from run to run while the sample count moves a little.
TAIL_LADDER = (50.0, 75.0, 90.0)
MIB = 2.0**20


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of ``n`` samples beyond it."""
    fitting = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10.0]
    return fitting[-1] if fitting else TAIL_LADDER[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB


def end_to_end(invocations, rss_mb: float, speed):
    """(metrics, facts): metrics as name -> (value, unit); facts explain them.

    Every time is scaled to the host's speed (``hostspeed``); ``facts["raw"]``
    holds the same metrics unscaled.
    """

    def timed(measure):
        items = np.array([sum(measure(*iv) for iv in item) for inv in invocations for item in inv.items]) * 1e3
        return {
            "setup_s": spans.median([sum(measure(*iv) for iv in inv.setup) for inv in invocations]),
            "throughput_per_s": sum(inv.units for inv in invocations)
            / sum(measure(*inv.wall) for inv in invocations),
            "latency_ms_p50": float(np.percentile(items, 50)) if len(items) else 0.0,
            "latency_ms_tail": float(np.percentile(items, tail)) if len(items) else 0.0,
        }

    samples = sum(len(inv.items) for inv in invocations)
    tail = tail_percentile(samples)
    units = {"setup_s": "s", "throughput_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms"}
    metrics = {name: (value, units[name]) for name, value in timed(speed.scaled).items()}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    facts = {
        "commands": len(invocations),
        "latency_samples": samples,
        "tail_percentile": tail,
        "raw": timed(speed.busy),
        "host_speed": speed.summary(),
    }
    return metrics, facts


def _epochs(rec: spans.Recorder):
    """(start, end) of every training epoch.

    An epoch starts when the model is initialised or the previous epoch's
    validation pass ends, and ends when its own validation pass ends.
    """
    windows, start = [], None
    for name, _, end, _, _ in rec.spans:
        if name == "mlp.init_model":
            start = end
        elif name == "mlp.epoch_end" and start is not None:
            windows.append((start, end))
            start = end
    return windows


def _gflop_per_epoch(dims, n_train: int, n_val: int) -> float:
    """Matrix-multiply flops of one epoch, computed from the layer widths.

    Per training sample: the forward pass inside backward, the weight
    gradients, the deltas sent back to every layer but the input, and the
    separate forward pass for the loss; per validation sample one forward.
    """
    pairs = list(zip(dims[:-1], dims[1:]))
    fwd = sum(2.0 * a * b for a, b in pairs)
    per_train = 4.0 * fwd - 2.0 * pairs[0][0] * pairs[0][1]
    return (n_train * per_train + n_val * fwd) / 1e9


def per_layer(rec: spans.Recorder, commands: int):
    """Per-layer metrics of a traced run, each summed per traced CLI command."""
    own = rec.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(rec.spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(spans.duration(rec.spans[i]) for i in idx(name)) / commands

    def self_sum(name):
        return sum(own[i] for i in idx(name)) / commands

    def self_ms_p50(name):
        return 1e3 * spans.median([own[i] for i in idx(name)])

    def per_command(count):
        return count / commands

    draws = len(idx("clustering.agglomerate"))
    svd_in_draws = rec.count("linalg.svd", under={"clustering.agglomerate", "clustering.best_partition"})
    feasible = [rec.spans[i][4] for i in idx("hrs.evaluate_partition")]

    epochs = _epochs(rec)
    forwards = [rec.spans[i][1] for i in idx("mlp.forward")]
    forwards_in_epochs = sum(1 for t in forwards for lo, hi in epochs if lo < t <= hi)
    epoch_s = spans.median([hi - lo for lo, hi in epochs])
    trained = [rec.spans[i] for i in idx("mlp.train")]
    loads = [rec.spans[i][4] for i in idx("data.load") if rec.spans[i][4]]
    gflop = 0.0
    if trained and loads and trained[0][4]:
        gflop = _gflop_per_epoch(trained[0][4], loads[0]["train"], loads[0]["validation"])

    def cli_wall(command):
        return spans.median([spans.duration(rec.spans[i]) for i in idx(f"cli.{command}")])

    return {
        "clustering.agglomerate.busy_s": (busy("clustering.agglomerate"), "s"),
        "clustering.agglomerate.self_ms_p50": (self_ms_p50("clustering.agglomerate"), "ms"),
        "clustering.pf_similarity.calls": (per_command(rec.count("clustering.pf_similarity")), "count"),
        "linalg.svd.calls_per_draw": (svd_in_draws / draws if draws else 0.0, "count"),
        "hrs.evaluate_partition.calls": (per_command(len(feasible)), "count"),
        "hrs.evaluate_partition.busy_s": (busy("hrs.evaluate_partition"), "s"),
        "hrs.evaluate_partition.self_ms_p50": (self_ms_p50("hrs.evaluate_partition"), "ms"),
        "hrs.evaluate_partition.feasible_ratio": (
            sum(map(bool, feasible)) / len(feasible) if feasible else 0.0,
            "ratio",
        ),
        "hrs.compute_outer_precoders.busy_s": (busy("hrs.compute_outer_precoders"), "s"),
        "hrs.compute_inner_precoders.busy_s": (busy("hrs.compute_inner_precoders"), "s"),
        "clustering.best_partition.self_s": (self_sum("clustering.best_partition"), "s"),
        "clustering.calibration.busy_s": (busy("clustering.calibration"), "s"),
        "channel.sample.busy_s": (busy("channel.sample"), "s"),
        "data.balance.busy_s": (busy("data.balance"), "s"),
        "data.augment.busy_s": (busy("data.augment"), "s"),
        "data.split.busy_s": (busy("data.split"), "s"),
        "data.serialize.busy_s": (busy("data.serialize"), "s"),
        "data.serialize.mb": (
            per_command(sum(rec.spans[i][4] or 0 for i in idx("data.serialize"))) / MIB,
            "MB",
        ),
        "data.load.busy_s": (busy("data.load"), "s"),
        "data.load.mb": (per_command(sum(n["bytes"] for n in loads)) / MIB, "MB"),
        "mlp.forward.calls_per_epoch": (forwards_in_epochs / len(epochs) if epochs else 0.0, "count"),
        "mlp.forward.busy_s": (busy("mlp.forward"), "s"),
        "mlp.backward.busy_s": (busy("mlp.backward"), "s"),
        "mlp.adam_step.busy_s": (busy("mlp.adam_step"), "s"),
        "mlp.featurize_all.busy_s": (busy("mlp.featurize_all"), "s"),
        "mlp.epoch_s": (epoch_s, "s"),
        "mlp.gflop_per_epoch": (gflop, "GFLOP-computed"),
        "mlp.gflops": (gflop / epoch_s if epoch_s else 0.0, "GFLOP/s"),
        "mlp.predict_labels.busy_s": (busy("mlp.predict_labels"), "s"),
        "evaluation.run_baselines.self_s": (self_sum("evaluation.run_baselines"), "s"),
        "evaluation.report.busy_s": (busy("evaluation.report"), "s"),
        "cli.gen-dataset.wall_s": (cli_wall("gen-dataset"), "s"),
        "cli.train.wall_s": (cli_wall("train"), "s"),
        "cli.compare.wall_s": (cli_wall("compare"), "s"),
    }


def self_time_table(rec: spans.Recorder, commands: int):
    """name -> (calls, busy s, self s), each per traced CLI command."""
    own = rec.self_times()
    table: dict[str, list[float]] = {}
    for i, s in enumerate(rec.spans):
        row = table.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += spans.duration(s)
        row[2] += own[i]
    return {k: (c / commands, b / commands, o / commands) for k, (c, b, o) in table.items()}
