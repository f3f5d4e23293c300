import csv
import dataclasses
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import as_records
from hrscluster import data, evaluation, hrs, mlp
from hrscluster.clustering import agglomerate
from hrscluster.errors import ConfigurationError
from hrscluster.partitions import Partition


# ------------------------------------------------------------- boxplot stats


def test_boxplot_constant_list():
    s = evaluation.boxplot_stats([3.0] * 10)
    assert s.p1 == s.p25 == s.median == s.p75 == s.p99 == 3.0
    assert s.outliers == ()


def test_boxplot_linear_interpolation_convention():
    s = evaluation.boxplot_stats(range(1, 101))
    assert s.median == pytest.approx(50.5)
    assert s.p25 == pytest.approx(25.75)
    assert s.p75 == pytest.approx(75.25)
    assert s.p1 == pytest.approx(1.99)
    assert s.p99 == pytest.approx(99.01)
    assert set(s.outliers) == {1.0, 100.0}


def test_boxplot_ordering_invariant(rng):
    for _ in range(25):
        vals = rng.standard_normal(int(rng.integers(3, 200))) * rng.uniform(0.1, 10)
        s = evaluation.boxplot_stats(vals)
        assert s.p1 <= s.p25 <= s.median <= s.p75 <= s.p99
        assert all(v < s.p1 or v > s.p99 for v in s.outliers)


def test_boxplot_rejects_empty():
    with pytest.raises(ConfigurationError):
        evaluation.boxplot_stats([])


# ------------------------------------------------------------------ baselines


def test_baseline_relations(tiny_dataset, tiny_model):
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    assert [r.method for r in results] == ["HC", "NN", "UNI", "SING"]
    by = {r.method: r for r in results}
    n = len(tiny_dataset.test)
    assert all(len(r.rates) == n for r in results)
    # HC dominates UNI sample by sample: the universal cluster is always a
    # dendrogram level
    for hc, uni in zip(by["HC"].rates, by["UNI"].rates):
        assert hc >= uni - 1e-9


def test_nn_rate_bounded_by_hc_when_prediction_on_dendrogram(tiny_dataset, tiny_model):
    predictions = mlp.predict_labels(tiny_model, tiny_dataset.test)
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    by = {r.method: r for r in results}
    checked = 0
    for i, (s, pred) in enumerate(zip(tiny_dataset.test, predictions)):
        dendro = agglomerate(s.H_hat)
        if pred in {p.key() for p in dendro.levels}:
            assert by["NN"].rates[i] <= by["HC"].rates[i] + 1e-9
            checked += 1
    assert checked > 0


def test_singleton_baseline_zero_when_users_exceed_antennas(tiny_model):
    # fabricate a dataset whose antenna count cannot serve singletons
    cfg = data.ScenarioConfig(users=4, antennas=2, samples=4, seed=1)
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(6):
        h = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        samples.append(data.Sample(h, h, "1,2,3,4", 1.0, (0,) * 4))
    records = as_records(samples)
    ds = data.DatasetSplit(records[:4], records[4:5], records[5:], {"1,2,3,4": 0}, cfg)
    stats = mlp.FeatureStats(np.zeros(22), np.ones(22))
    rng2 = np.random.default_rng(1)
    model = mlp.init_model(22, (4,), ("1,2,3,4",), stats, rng2)
    results = evaluation.run_baselines(ds, model)
    by = {r.method: r for r in results}
    assert by["SING"].summary.median == 0.0
    assert all(r == 0.0 for r in by["SING"].rates)
    assert all(r > 0.0 for r in by["UNI"].rates)


def test_baselines_match_fresh_partitions_in_three_calls_per_sample(tiny_dataset, tiny_model, monkeypatch):
    power = tiny_dataset.config.total_power
    n = tiny_dataset.config.users
    predicted = mlp.predict_labels(tiny_model, tiny_dataset.test)
    want = {"NN": [], "UNI": [], "SING": []}
    for s, pred in zip(tiny_dataset.test, predicted):
        for method, partition in (
            ("NN", Partition.from_key(pred)), ("UNI", Partition.universal(n)), ("SING", Partition.singletons(n))
        ):
            want[method].append(hrs.evaluate_partition(s.H_true, s.H_hat, partition, power).R_total)
    # the benchmark times each test sample as these three calls, looked up on evaluation
    calls = []
    original = evaluation.evaluate_partition
    monkeypatch.setattr(
        evaluation, "evaluate_partition", lambda *a: calls.append(a[2].key()) or original(*a)
    )
    by = {r.method: r.rates for r in evaluation.run_baselines(tiny_dataset, tiny_model)}
    assert all(by[method] == rates for method, rates in want.items())
    fixed = (Partition.universal(n).key(), Partition.singletons(n).key())
    assert calls == [key for pred in predicted for key in (pred, *fixed)]


def test_baselines_follow_the_scenario_power(tiny_config, tiny_model):
    # UNI and SING are scored at the dataset's power, not at the default 100
    dataset = data.build_dataset(dataclasses.replace(tiny_config, total_power=10.0))
    by = {r.method: r.rates for r in evaluation.run_baselines(dataset, tiny_model)}
    n = dataset.config.users
    assert len(dataset.test) > 0
    for method, partition in (("UNI", Partition.universal(n)), ("SING", Partition.singletons(n))):
        for s, got in zip(dataset.test, by[method], strict=True):
            assert got == hrs.evaluate_partition(s.H_true, s.H_hat, partition, 10.0).R_total
            assert got != hrs.evaluate_partition(s.H_true, s.H_hat, partition, 100.0).R_total


def test_relative_rate_consistent_with_raw_records(tiny_dataset, tiny_model, tmp_path):
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    metric = evaluation.relative_rate(results)
    path = tmp_path / "rates.jsonl"
    evaluation.write_records_jsonl(results, "t", path)
    rates = {"HC": [], "NN": []}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["method"] in rates:
            rates[rec["method"]].append(rec["rate"])
    recomputed = np.mean(rates["NN"]) / np.mean(rates["HC"])
    assert metric.ratio == pytest.approx(recomputed, rel=1e-12)


# -------------------------------------------------------------------- reports


def test_report_files_and_csv_schema(tiny_dataset, tiny_model, tmp_path):
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    metrics = evaluation.accuracy_metrics(tiny_dataset, tiny_model)
    row = evaluation.report(results, metrics, "scn", tmp_path)
    header = (tmp_path / "scn_summary.csv").read_text().splitlines()[0]
    assert header == "scenario,val_top1,test_top1,test_top3,test_top5,relative_rate"
    rows = (tmp_path / "scn_summary.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].startswith("scn,")
    # the returned row is the one written
    assert rows[1] == ",".join(str(row[c]) for c in evaluation.CSV_COLUMNS)
    assert row["relative_rate"] == evaluation.relative_rate(results).ratio
    lines = (tmp_path / "scn_rates.jsonl").read_text().splitlines()
    assert len(lines) == 4 * len(tiny_dataset.test)


def test_empty_results_produce_valid_files(tmp_path):
    results = [
        evaluation.MethodResult(m, [], evaluation.BoxplotSummary(0, 0, 0, 0, 0, ()))
        for m in evaluation.METHODS
    ]
    evaluation.report(results, {"val_top1": 0.0}, "empty", tmp_path)
    assert (tmp_path / "empty_rates.jsonl").read_text() == ""
    assert len((tmp_path / "empty_summary.csv").read_text().splitlines()) == 2
    assert "<svg" in (tmp_path / "empty_boxplot.svg").read_text()


def test_reports_hold_a_scenario_name_with_csv_and_xml_specials(tiny_dataset, tiny_model, tmp_path):
    name = 'n8m8,tau=0.4&x<y "q"'
    data.ScenarioConfig(users=4, antennas=8, name=name)  # a name the config accepts
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    row = evaluation.report(results, {"val_top1": 0.5}, name, tmp_path)
    with open(tmp_path / f"{name}_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(evaluation.CSV_COLUMNS), [str(row.get(c, "")) for c in evaluation.CSV_COLUMNS]]
    assert rows[1][0] == name
    svg = ElementTree.parse(tmp_path / f"{name}_boxplot.svg").getroot()
    assert svg.find("{http://www.w3.org/2000/svg}text").text == name


def test_svg_box_groups_in_method_order(tiny_dataset, tiny_model, tmp_path):
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    evaluation.write_boxplot_svg(results, "scn", tmp_path / "p.svg")
    text = (tmp_path / "p.svg").read_text()
    positions = [text.index(f'id="box-{m}"') for m in ("HC", "NN", "UNI", "SING")]
    assert positions == sorted(positions)
    assert text.count("<g id=") == 4


def test_method_medians_follow_expected_ordering(tiny_dataset, tiny_model):
    results = evaluation.run_baselines(tiny_dataset, tiny_model)
    by = {r.method: r.summary.median for r in results}
    assert by["HC"] >= by["UNI"] - 1e-9
    assert by["HC"] >= by["SING"] - 1e-9


def test_topk_saturates_at_class_count_as_in_training():
    # two classes: top-3 and top-5 are top-2, in compare as in train
    cfg = data.ScenarioConfig(users=2, antennas=8, samples=60, seed=5)
    dataset = data.build_dataset(cfg)
    assert dataset.num_classes == 2
    model, report = mlp.train(dataset, mlp.TrainingHyper(epochs=3, seed=cfg.seed))
    metrics = evaluation.accuracy_metrics(dataset, model)
    assert metrics["test_top1"] == report.test_top1
    assert metrics["test_top3"] == report.test_top3
    assert metrics["test_top5"] == report.test_top5
    assert metrics["test_top5"] == 1.0


def test_empty_test_split_reads_nan_in_train_and_compare(tiny_dataset, monkeypatch):
    empty = dataclasses.replace(tiny_dataset, test=[])
    monkeypatch.setattr(mlp, "HIDDEN", (8,))
    model, report = mlp.train(empty, mlp.TrainingHyper(epochs=1, seed=2))
    metrics = evaluation.accuracy_metrics(empty, model)
    for key in ("test_top1", "test_top3", "test_top5"):
        assert np.isnan(getattr(report, key))
        assert np.isnan(metrics[key])
