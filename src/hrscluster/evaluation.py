"""Baseline comparison and reporting.

Four clustering policies are scored on the same test channels:

    HC    rate of the dendrogram level picked by hierarchical clustering
    NN    rate of the partition the classifier predicts from the estimate
    UNI   one universal cluster
    SING  one singleton cluster per user (zero when infeasible)

Summaries use boxplot statistics (median, quartiles, 1st/99th percentiles by
linear interpolation, points outside the 1-99 band as outliers). Reports are
JSON-lines raw records, a CSV summary row per scenario, and an SVG boxplot.
Accuracies are the validation top-1 and the test top-1/3/5 of
``mlp.evaluate_topk``, k capped at the class count; an empty split reads NaN.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetSplit
from .errors import ConfigurationError
from .hrs import evaluate_partition
from .mlp import MlpModel, evaluate_topk, predict_labels
from .partitions import Partition

METHODS = ("HC", "NN", "UNI", "SING")

CSV_COLUMNS = ("scenario", "val_top1", "test_top1", "test_top3", "test_top5", "relative_rate")


@dataclass(frozen=True)
class BoxplotSummary:
    p1: float
    p25: float
    median: float
    p75: float
    p99: float
    outliers: tuple[float, ...]


@dataclass
class MethodResult:
    method: str
    rates: list[float]
    summary: BoxplotSummary


@dataclass(frozen=True)
class RelativeRateMetric:
    """Mean NN-predicted rate over mean HC rate on the test set; a partition
    off the dendrogram can beat HC, so the ratio may exceed 1."""

    ratio: float


def boxplot_stats(values) -> BoxplotSummary:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot summarize an empty value list")
    p1, p25, med, p75, p99 = np.percentile(arr, [1, 25, 50, 75, 99])
    outliers = tuple(float(v) for v in arr[(arr < p1) | (arr > p99)])
    return BoxplotSummary(float(p1), float(p25), float(med), float(p75), float(p99), outliers)


def run_baselines(dataset: DatasetSplit, model: MlpModel) -> list[MethodResult]:
    """Score the four policies per test sample."""
    samples = dataset.test
    if not samples:
        empty = BoxplotSummary(0.0, 0.0, 0.0, 0.0, 0.0, ())
        return [MethodResult(m, [], empty) for m in METHODS]
    power = dataset.config.total_power
    n = dataset.config.users
    predicted = predict_labels(model, samples)
    # one Partition per distinct key, so each builds its layout once
    nn = {key: Partition.from_key(key) for key in dict.fromkeys(predicted)}
    universal, singletons = Partition.universal(n), Partition.singletons(n)
    rates = {m: [] for m in METHODS}
    for s, pred in zip(samples, predicted):
        rates["HC"].append(s.label_rate)
        rates["NN"].append(evaluate_partition(s.H_true, s.H_hat, nn[pred], power).R_total)
        rates["UNI"].append(evaluate_partition(s.H_true, s.H_hat, universal, power).R_total)
        rates["SING"].append(evaluate_partition(s.H_true, s.H_hat, singletons, power).R_total)
    return [MethodResult(m, rates[m], boxplot_stats(rates[m])) for m in METHODS]


def relative_rate(results: list[MethodResult]) -> RelativeRateMetric:
    by_method = {r.method: r for r in results}
    hc = np.mean(by_method["HC"].rates) if by_method["HC"].rates else float("nan")
    nn = np.mean(by_method["NN"].rates) if by_method["NN"].rates else float("nan")
    ratio = float(nn / hc) if hc else float("nan")
    return RelativeRateMetric(ratio)


def accuracy_metrics(dataset: DatasetSplit, model: MlpModel) -> dict:
    """Validation top-1 plus the test top-1/3/5, as in the ``mlp.train``
    report; NaN for an empty split."""
    val = evaluate_topk(model, dataset.validation, (1,))[1]
    test = evaluate_topk(model, dataset.test, (1, 3, 5))
    return {"val_top1": val, "test_top1": test[1], "test_top3": test[3], "test_top5": test[5]}


def write_records_jsonl(results: list[MethodResult], scenario: str, path) -> None:
    """One record per (sample, method)."""
    with open(path, "w") as fh:
        for res in results:
            for i, rate in enumerate(res.rates):
                fh.write(
                    json.dumps(
                        {"scenario": scenario, "method": res.method, "sample": i, "rate": rate}
                    )
                    + "\n"
                )


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([str(row.get(c, "")) for c in CSV_COLUMNS] for row in rows)


def write_boxplot_svg(results: list[MethodResult], scenario: str, path) -> None:
    """Minimal standalone SVG: one box group per method, fixed order."""
    width, height = 480, 320
    margin, plot_h = 50, 230
    finite = [v for r in results for v in (r.summary.p1, r.summary.p99, *r.summary.outliers)]
    lo = min(finite, default=0.0)
    hi = max(finite, default=1.0)
    if hi <= lo:
        hi = lo + 1.0

    def y(v: float) -> float:
        return margin + plot_h * (1.0 - (v - lo) / (hi - lo))

    slot = (width - 2 * margin) / max(len(results), 1)
    # the title is XML character data; xml.sax.saxutils.escape would cost every command its import (about 7 MB)
    title = scenario.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{margin}" y1="{margin + plot_h}" x2="{width - margin}" y2="{margin + plot_h}" stroke="black"/>',
    ]
    for i, res in enumerate(results):
        cx = margin + slot * (i + 0.5)
        s = res.summary
        half = slot * 0.22
        parts.append(f'<g id="box-{res.method}">')
        parts.append(
            f'<line x1="{cx}" y1="{y(s.p99)}" x2="{cx}" y2="{y(s.p75)}" stroke="black" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<line x1="{cx}" y1="{y(s.p25)}" x2="{cx}" y2="{y(s.p1)}" stroke="black" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<rect x="{cx - half}" y="{y(s.p75)}" width="{2 * half}" height="{max(y(s.p25) - y(s.p75), 0.5)}" fill="none" stroke="blue"/>'
        )
        parts.append(
            f'<line x1="{cx - half}" y1="{y(s.median)}" x2="{cx + half}" y2="{y(s.median)}" stroke="red"/>'
        )
        for v in s.outliers:
            parts.append(
                f'<path d="M {cx - 3} {y(v)} h 6 M {cx} {y(v) - 3} v 6" stroke="red" fill="none"/>'
            )
        parts.append(
            f'<text x="{cx}" y="{margin + plot_h + 18}" text-anchor="middle" font-size="12">{res.method}</text>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


def report_files(scenario: str) -> tuple[str, str, str]:
    """The names of the records, summary and boxplot files ``report`` writes."""
    return f"{scenario}_rates.jsonl", f"{scenario}_summary.csv", f"{scenario}_boxplot.svg"


def report(
    results: list[MethodResult],
    metrics: dict,
    scenario: str,
    out_dir,
) -> dict:
    """Write the ``report_files`` of ``scenario`` under ``out_dir``; returns
    the summary row."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records, summary, boxplot = (out / name for name in report_files(scenario))
    write_records_jsonl(results, scenario, records)
    row = {"scenario": scenario, "relative_rate": relative_rate(results).ratio, **metrics}
    write_summary_csv([row], summary)
    write_boxplot_svg(results, scenario, boxplot)
    return row
