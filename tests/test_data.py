import dataclasses
import gc
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import as_records
from hrscluster import _binio, data, mlp
from hrscluster.clustering import agglomerate, best_partition
from hrscluster.errors import ConfigurationError, DataFormatError, StratificationError
from hrscluster.hrs import ALPHA_GRID, BETA_GRID
from hrscluster.partitions import Partition


def make_sample(label, rate, n=4, m=8, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return data.Sample(h, g, label, rate, (0,) * n)


def balanced(samples):
    """The samples ``data.balance`` keeps, in its order."""
    return [samples[i] for i in data.balance(as_records(samples))]


def augmented(samples, cfg):
    """``data.augment`` of every one of ``samples`` under ``cfg``'s seed, as a list of ``data.Sample``."""
    records = as_records(samples)
    return list(records.take(*data.augment(records, np.arange(len(records)), cfg.seed)))


def stored_values(samples):
    """Every stored value of ``samples``, with the Python type of each scalar."""
    return [(s.H_true.tobytes(), s.H_hat.tobytes(), s.label, s.label_rate, type(s.label_rate),
             s.cov_assignment, tuple(map(type, s.cov_assignment))) for s in samples]


def split_samples(samples, seed):
    """``data.split`` of every one of ``samples``, its three parts as lists of ``data.Sample``."""
    *picks, index = data.split(as_records(samples), np.arange(len(samples)), seed)
    return (*([samples[i] for i in pick] for pick in picks), index)


# --------------------------------------------------------------------- config


def test_config_defaults_and_paper_scenarios():
    for n, m in data.REFERENCE_SCENARIOS:
        cfg = data.ScenarioConfig(users=n, antennas=m)
        assert cfg.tau_sq == 0.4
        assert cfg.num_covs == 4
        assert cfg.spread == pytest.approx(np.pi / 6)
        assert cfg.azimuths[0] == pytest.approx(-np.pi / 2)
        assert np.allclose(np.diff(cfg.azimuths), np.pi / 3)
        assert cfg.name == f"n{n}m{m}"


def test_config_round_trip_and_validation(tmp_path):
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=10, seed=3)
    again = data.ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    path = tmp_path / "cfg.json"
    import json

    path.write_text(json.dumps(cfg.to_dict()))
    assert data.ScenarioConfig.from_file(path) == cfg
    with pytest.raises(ConfigurationError):
        data.ScenarioConfig.from_dict({"users": 4})
    with pytest.raises(ConfigurationError):
        data.ScenarioConfig.from_dict({"users": 4, "antennas": 8, "tau_sq": 1.5})
    with pytest.raises(ConfigurationError):
        data.ScenarioConfig.from_dict({"users": 4, "antennas": 8, "bogus": 1})


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    schema = readme.split("### Scenario config schema", 1)[1]
    example = schema.split("```json\n", 1)[1].split("```", 1)[0]
    import json

    raw = json.loads(example)
    # the example lists every setting, and only settings the config has
    assert set(raw) == {f.name for f in dataclasses.fields(data.ScenarioConfig)}
    cfg = data.ScenarioConfig.from_dict(raw)
    assert (cfg.name, cfg.users, cfg.antennas, cfg.num_covs) == ("n8m8", 8, 8, 4)


def test_alpha_beta_grids():
    assert len(ALPHA_GRID) == 11
    assert ALPHA_GRID[0] == pytest.approx(1e-3)
    assert ALPHA_GRID[1:] == tuple((i + 1) / 10 for i in range(10))
    assert len(BETA_GRID) == 10
    # the power fractions' domain
    assert all(0.0 < v <= 1.0 for v in ALPHA_GRID + BETA_GRID)


INT_FIELDS = ("users", "antennas", "samples", "seed")
FLOAT_FIELDS = ("tau_sq", "total_power", "spread")


@pytest.mark.parametrize("name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, None])
def test_config_rejects_non_integer_fields(name, value):
    raw = {"users": 4, "antennas": 8, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        data.ScenarioConfig(**raw)


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), "0.5", False, None, pytest.param(10**400, id="10**400")]
)
def test_config_rejects_non_finite_float_fields(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be a finite number"):
        data.ScenarioConfig(users=4, antennas=8, **{name: value})


@pytest.mark.parametrize("value", [float("nan"), "north", True, pytest.param(10**400, id="10**400")])
def test_config_rejects_non_finite_azimuths(value):
    with pytest.raises(ConfigurationError, match="azimuths must be finite real numbers"):
        data.ScenarioConfig(users=4, antennas=8, azimuths=(0.0, 1.0, value, 2.0))


@pytest.mark.parametrize("value", [5, None])
def test_config_rejects_azimuths_that_are_not_a_tuple(value):
    with pytest.raises(ConfigurationError, match="azimuths must be a tuple of numbers"):
        data.ScenarioConfig(users=4, antennas=8, azimuths=value)


def test_config_accepts_integers_in_float_fields():
    cfg = data.ScenarioConfig(users=4, antennas=8, total_power=50, spread=1, tau_sq=0)
    assert cfg.total_power == 50


# ----------------------------------------------------------------- generation


def test_single_sample_has_valid_canonical_label(tiny_config):
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=1, seed=5)
    samples = data.generate_samples(cfg)
    assert len(samples) == 1
    s = samples[0]
    part = Partition.from_key(s.label)
    assert part.num_users == 4
    assert part.key() == s.label
    assert s.label_rate > 0


def test_generation_deterministic(tiny_config):
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=6, seed=6)
    a = data.generate_samples(cfg)
    b = data.generate_samples(cfg)
    assert [s.label for s in a] == [s.label for s in b]
    assert all(x.H_true.tobytes() == y.H_true.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("samples, threads, workers", [(12, 8, 2), (17, 8, 3), (40, 2, 2), (5, 3, 1)])
def test_generation_starts_no_more_workers_than_chunks(monkeypatch, samples, threads, workers):
    # the recorder maps in this process, so no worker process is started
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return [fn(i) for i in items]

    monkeypatch.setattr(data, "Pool", RecordingPool)
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=samples, seed=6)
    serial = [s.label for s in data.generate_samples(cfg)]
    # nor more than the host has CPUs; an unknown CPU count reads as one
    for cpus in (64, 2, None):
        monkeypatch.setattr(data.os, "cpu_count", lambda: cpus)
        started.clear()
        pooled = data.generate_samples(cfg, threads=threads)
        assert started == [min(workers, cpus or 1)]
        assert [s.label for s in pooled] == serial


@pytest.mark.parametrize("threads", [0, -4])
def test_generation_refuses_threads_below_one(monkeypatch, threads):
    monkeypatch.setattr(data, "_generate_one", lambda *args: pytest.fail("a draw was made"))
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=2, seed=6)
    for build in (data.generate_samples, data.build_dataset):
        with pytest.raises(ConfigurationError, match=f"threads must be at least 1, got {threads}"):
            build(cfg, threads=threads)


# (label, label_rate) of draws 0..29 at seed 20240801, recorded from the
# unoptimized HC path: every cluster pair rescored from its stacked columns at
# every merge, and the power grid built one (alpha, beta) point at a time.
N8M8 = (
    ('1,2,3,4,5,7,8|6', 10.39758791694035),
    ('1,2,3,4,5,6,7,8', 11.722285687333347),
    ('1,5,6,8|2|3|4|7', 7.326939403726152),
    ('1,2,3,4,5,6,7|8', 10.711573148641904),
    ('1,2|3|4,8|5|6|7', 11.03833865958665),
    ('1,2,3,4,5,6,7,8', 7.842725441465617),
    ('1,5,6,7,8|2|3|4', 12.753859689344385),
    ('1|2,5|3|4,7,8|6', 9.973681758115852),
    ('1|2|3|4,5,6|7|8', 5.514171055351572),
    ('1,7|2,3,4,5,8|6', 10.765079056200863),
    ('1,2,5|3,4|6|7|8', 8.314016818738299),
    ('1,2,3,4,5,6,7,8', 11.706587860337663),
    ('1|2,3,4,5,6,7,8', 10.531851542371992),
    ('1,5,6|2|3|4,7|8', 14.348540906047834),
    ('1,2,3,4,5,6,7,8', 11.621032981593503),
    ('1,2,3,4,5,6,7,8', 8.621284430884833),
    ('1|2,4,5|3|6|7|8', 11.184523940599174),
    ('1,5,6,7,8|2,3|4', 8.627598638282361),
    ('1|2|3|4|5|6|7,8', 9.527224576636273),
    ('1,3,5|2,7|4|6|8', 7.269019946140505),
    ('1|2|3,5|4|6,7|8', 10.63768589979677),
    ('1,3,4,5,6,8|2,7', 5.61933093419122),
    ('1,2,3,5,6,7,8|4', 10.077268478068737),
    ('1,3,4,5,6,7,8|2', 9.7301216993174),
    ('1,2,3,4,5,6,7,8', 6.61817194765047),
    ('1,2,3,4,5,6,7,8', 9.519435817628374),
    ('1|2,3|4|5|6|7|8', 8.014785939163488),
    ('1,2,3,4,5,6,7,8', 12.715699761792866),
    ('1,4|2|3,6,8|5|7', 8.944232742342958),
    ('1,2,3,4,6,7|5|8', 8.591748938748923),
)
N12M12 = (
    ('1,2,3,7,9,11|4,8,12|5,6|10', 10.394172693703025),
    ('1,2,8,10,11|3,5,7|4,9|6|12', 14.086691740543523),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 10.490064605796611),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 12.913321434172062),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 11.003539421147881),
    ('1,9|2,11|3,10|4|5|6|7|8|12', 11.990145125791368),
    ('1,5,6,7,8,10,11|2|3|4|9|12', 12.906142220543012),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 16.87168545718965),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 10.56407177365203),
    ('1,2,3,4,5,6,8,9,10,11,12|7', 12.117684622536636),
    ('1,2,3,4,5,6,8,11,12|7,10|9', 13.82416606702726),
    ('1,6|2|3,9|4,12|5,10|7|8|11', 13.495065910972205),
    ('1|2,9,10,12|3|4|5|6|7,11|8', 13.075656269761511),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 9.62097522461803),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 8.192813700547289),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 10.166011507253215),
    ('1,3,11|2,4,5,6,7,9,10,12|8', 8.174377418383335),
    ('1,9|2,3|4,11|5|6,7,10|8|12', 12.702367352557978),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 11.303040449905831),
    ('1,2,3,4,5,6,7,8,9,11,12|10', 13.203361255738994),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 12.258583676787747),
    ('1,2,3,4,6,7,8,10,11,12|5,9', 7.342081728891815),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 9.127633905829773),
    ('1|2,7|3,8,9,11|4|5|6|10|12', 10.47936956009874),
    ('1|2,10|3,11|4,6|5,8|7|9,12', 10.586836863149054),
    ('1,2,3,10|4,7|5,8|6|9|11|12', 14.752941383204835),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 10.159794207472082),
    ('1,4,6,9,12|2,5,8,11|3,7|10', 12.169235106559606),
    ('1|2,3,6,8,10|4|5|7|9|11|12', 9.974701492245494),
    ('1,3,4,6,7,10,12|2|5|8|9|11', 10.401723937075168),
)


# Same draws at (12, 16) and (6, 12), recorded before the precoders were
# designed on the dendrogram's bases with stacked LAPACK calls.
N12M16 = (
    ('1,2,3,7,9,11|4|5|6|8,12|10', 11.569012684241143),
    ('1,2,3,4,5,6,7,8,9,10,11|12', 14.587788672632994),
    ('1,5,8,9,12|2,4|3,10|6|7|11', 11.136792890089934),
    ('1,2,3,4,5,6,7,8,9,10,12|11', 10.273055609997312),
    ('1|2,7|3|4,12|5|6|8,10|9|11', 16.28042313869853),
    ('1,2,9,11|3,6,7|4,12|5|8|10', 16.696640047975436),
    ('1,5,6,7,8,10|2|3|4|9|11|12', 13.796848280638423),
    ('1,12|2,3,4,5,6,7,8,9,10,11', 15.179899420773388),
    ('1,3,4,5,6,7,11,12|2,9,10|8', 8.859538208940148),
    ('1|2,3,5,9,10,12|4,6,8,11|7', 13.720773913332225),
    ('1,2,3,4,5,6,8,11,12|7,10|9', 14.031942854641208),
    ('1,6,7|2,3,5,8,9,10,11|4,12', 11.575881202621403),
    ('1,3|2,4,9,10,12|5,7,11|6,8', 12.765310480676252),
    ('1,6,11|2|3|4|5|7,12|8|9|10', 15.83703266589684),
    ('1|2|3|4,8|5|6|7|9|10,11|12', 14.83575109082651),
    ('1|2,3,4,6,12|5,7,8,9,10|11', 14.46252799866924),
    ('1,2,3,4,5,6,7,8,9,10,12|11', 9.654059682937854),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 13.638048851769215),
    ('1,6,9,12|2,3|4|5|7,8,10|11', 11.919993955037777),
    ('1,3,4,5,12|2,7,8,9,11|6|10', 12.555521860831476),
    ('1,2,3,4,5,6,7,8,9,10,11,12', 12.903159843035017),
    ('1,3,4,5,6,8,10,11,12|2|7,9', 14.844374805265922),
    ('1|2,7|3,8|4|5|6,12|9|10|11', 11.779269309477918),
    ('1,6|2|3,5,8,9,10,11,12|4|7', 8.62565967287501),
    ('1,6|2,3,7,10,11|4|5|8|9|12', 11.838961443609493),
    ('1,2,3,4,5,7,8,9,10,11,12|6', 14.691872047904726),
    ('1|2,3|4,8|5,9|6|7|10|11|12', 12.357768352143628),
    ('1,2,3,4,5,6,7,8,9,11,12|10', 13.57891814611904),
    ('1|2,3,6,8,9,10|4|5|7|11|12', 14.24414324103064),
    ('1,3,6,7,10,12|2|4|5|8|9|11', 12.969371542126503),
)
N6M12 = (
    ('1,2,3|4|5|6', 10.749170154617431),
    ('1,2,3,4,5,6', 11.000881283256117),
    ('1,2,4,5,6|3', 11.514461761144545),
    ('1,2,4|3,5,6', 6.342367483303379),
    ('1,2,5|3,6|4', 14.921696965719828),
    ('1,2|3,4,5,6', 11.486518816806143),
    ('1,6|2|3|4|5', 17.115936228173585),
    ('1|2,4,5,6|3', 14.582104739905846),
    ('1|2|3|4|5,6', 15.901818729097798),
    ('1|2,3,5|4,6', 12.758950903814554),
    ('1,3,4,5|2|6', 5.941096529858257),
    ('1,6|2|3,4|5', 15.368459918590341),
    ('1,2,3,4,5,6', 20.36870987116375),
    ('1,5,6|2|3|4', 15.850943757767803),
    ('1,3,6|2,5|4', 15.852810180667902),
    ('1|2,3|4|5|6', 11.013882286732244),
    ('1,3|2,4,5,6', 6.025647645159696),
    ('1,6|2|3|4|5', 10.980702409051249),
    ('1|2|3|4,5|6', 10.73723983293214),
    ('1|2|3|4|5|6', 7.565687193466823),
    ('1|2,5|3|4|6', 10.988210525857369),
    ('1,3,4,6|2|5', 9.679221409828319),
    ('1,2,3,4,5,6', 8.802113313384645),
    ('1,6|2|3,5|4', 11.472535564796065),
    ('1,2,3,4,6|5', 11.825574586573833),
    ('1,2|3|4|5|6', 12.28341122006965),
    ('1|2,3|4|5,6', 14.535665161588582),
    ('1,2,4,5,6|3', 11.057930986479471),
    ('1,4|2,3,6|5', 14.661746284016003),
    ('1,2,3,4,6|5', 7.759902241628694),
)


# Same draws at (8, 4), recorded before the level sweep designed every level
# in one set of stacked calls; the dendrogram's finest levels have G > M and
# are infeasible.
N8M4 = (
    ('1,2,3,4,7,8|5,6', 6.0961731202583325),
    ('1,2,4,6,8|3,5,7', 5.61150800257421),
    ('1,2,3,4,5,6,7,8', 4.214666249859253),
    ('1,2,3,4,5,6,7|8', 5.804941209243212),
    ('1,2,3,4,5,6,7,8', 5.1538356835001),
    ('1,2,3,4,5,6,7,8', 3.519485748773967),
    ('1,4,6,7|2|3,5,8', 6.955278887046975),
    ('1|2,3,4,5,6,7,8', 6.251444497646356),
    ('1,4,5,6,7|2,3,8', 4.259657538276727),
    ('1,2,3,4,5,6,7,8', 6.445681217224091),
    ('1,2,3,4,5,8|6,7', 6.263993659906266),
    ('1,2,4,5,6,7|3,8', 5.5288423540469935),
    ('1,2,3,4,5,6,7,8', 5.544620320193194),
    ('1,3,4,5,6,7|2,8', 6.676370474073779),
    ('1,2,3,4,5,6,7|8', 7.765991479225339),
    ('1,4,5|2,3,7|6|8', 6.527812537839663),
    ('1,3,7|2,4|5,6|8', 6.446216640154313),
    ('1,3,7|2,5,8|4|6', 4.562516018689289),
    ('1|2|3,4,6,7,8|5', 6.766758735417526),
    ('1,2,3,4,5,6,7,8', 6.8115626868482835),
    ('1,6,7,8|2,3,5|4', 7.940118697945851),
    ('1,2,3,4,5,6,7,8', 5.271749484922566),
    ('1,2,3,4,5,6,7,8', 4.610447260507683),
    ('1,4,6|2,3,5,7,8', 6.797766214169346),
    ('1,4,6|2,3,7|5|8', 6.201187477755425),
    ('1,2,3,4,5,7,8|6', 6.655473906158362),
    ('1,2,3,4,5,6,7,8', 6.127020262406439),
    ('1,4,6|2,5|3,7|8', 7.404381954282578),
    ('1,2,3,4,5,6,7,8', 5.6635545031949555),
    ('1,3,4,5,6,7|2,8', 5.376657085167546),
)


@pytest.mark.parametrize(
    "users, antennas, recorded", [(8, 8, N8M8), (12, 12, N12M12), (12, 16, N12M16), (6, 12, N6M12), (8, 4, N8M4)]
)
def test_labels_match_recorded_values(users, antennas, recorded):
    # a fast path must leave the labels as they were; rates may move by rounding only
    cfg = data.ScenarioConfig(users=users, antennas=antennas, samples=len(recorded), seed=20240801)
    samples = data.generate_samples(cfg)
    assert [s.label for s in samples] == [label for label, _ in recorded]
    for s, (_, rate) in zip(samples, recorded):
        assert s.label_rate == pytest.approx(rate, rel=1e-12, abs=0)


def test_covariance_assignment_uniformity():
    # chi-square over 1e4 sampled assignments at the 1 % level
    cfg = data.ScenarioConfig(users=8, antennas=8, samples=10_000, seed=7)
    counts = np.zeros(cfg.num_covs)
    for i in range(cfg.samples):
        for a in data.draw_assignment(cfg, i):
            counts[a] += 1
    expected = counts.sum() / cfg.num_covs
    stat = ((counts - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(0.99, cfg.num_covs - 1)


def test_label_rate_reproducible_from_stored_channels(tiny_dataset):
    cfg = tiny_dataset.config
    for s in tiny_dataset.train[:3]:
        dendro = agglomerate(s.H_hat)
        part, rate = best_partition(s.H_true, s.H_hat, dendro, cfg.total_power)
        assert part.key() == s.label
        assert rate.R_total == pytest.approx(s.label_rate, abs=1e-9)


def test_label_rate_follows_the_scenario_power(tiny_config):
    # a draw is labeled at its config's power, not at the default 100
    cfg = dataclasses.replace(tiny_config, samples=5, total_power=10.0)
    for s in data.generate_samples(cfg):
        dendro = agglomerate(s.H_hat)
        part, rate = best_partition(s.H_true, s.H_hat, dendro, 10.0)
        assert (part.key(), rate.R_total) == (s.label, s.label_rate)
        assert best_partition(s.H_true, s.H_hat, dendro, 100.0)[1].R_total != s.label_rate


# ------------------------------------------------------------------ balancing


def test_balance_caps_class_size():
    samples = [make_sample("1,2|3,4", 10.0, seed=i) for i in range(300)]
    out = balanced(samples)
    assert len(out) == 200


def test_balance_keeps_small_strong_class():
    strong = [make_sample("1|2|3|4", 10.0, seed=i) for i in range(60)]
    bulk = [make_sample("1,2,3,4", 10.0, seed=100 + i) for i in range(100)]
    out = balanced(strong + bulk)
    assert sum(1 for s in out if s.label == "1|2|3|4") == 60


def test_balance_drops_weak_rare_class_only():
    bulk = [make_sample("1,2,3,4", 10.0, seed=i) for i in range(100)]
    weak_rare = [make_sample("1|2|3|4", 0.1, seed=200 + i) for i in range(10)]
    weak_common = [make_sample("1,2|3,4", 0.1, seed=300 + i) for i in range(60)]
    out = balanced(bulk + weak_rare + weak_common)
    labels = {s.label for s in out}
    assert "1|2|3|4" not in labels  # below both thresholds
    assert "1,2|3,4" in labels  # rare condition not met
    assert "1,2,3,4" in labels


def test_balance_noop_on_uniform_classes():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(100)]
    out = balanced(samples)
    assert len(out) == 100


def test_balance_rejects_empty():
    with pytest.raises(ConfigurationError):
        data.balance(as_records([]))


# --------------------------------------------------------------- augmentation


def test_augment_counts_and_label_invariance(tiny_config):
    samples = [make_sample("1,3|2,4", 5.0, seed=1), make_sample("1|2|3|4", 4.0, seed=2)]
    out = augmented(samples, tiny_config)
    assert len(out) == 2 * (1 + data.NUM_SHUFFLES)
    assert all(s.label in ("1,3|2,4", "1|2|3|4") for s in out)
    for original, copies in ((samples[0], out[1:11]), (samples[1], out[12:])):
        for c in copies:
            assert c.label == original.label
            assert c.label_rate == original.label_rate


def test_augment_singleton_label_copies_identical(tiny_config):
    s = make_sample("1|2|3|4", 4.0, seed=3)
    out = augmented([s], tiny_config)
    for c in out:
        assert c.H_true.tobytes() == s.H_true.tobytes()


def test_augment_permutes_within_blocks_only(tiny_config):
    s = make_sample("1,2|3,4", 4.0, seed=4)
    out = augmented([s], tiny_config)

    def column_set(h, cols):
        return {np.ascontiguousarray(h[:, c]).tobytes() for c in cols}

    for c in out[1:]:
        # each block's column set is preserved, columns may swap inside it
        assert column_set(c.H_true, range(2)) == column_set(s.H_true, range(2))
        assert column_set(c.H_true, range(2, 4)) == column_set(s.H_true, range(2, 4))
        assert column_set(c.H_hat, range(2)) == column_set(s.H_hat, range(2))


def test_augmented_sample_rate_matches_on_reevaluation(tiny_dataset):
    # permuting users within blocks cannot change the achievable rate
    from hrscluster.hrs import evaluate_partition

    cfg = tiny_dataset.config
    seen = 0
    for s in tiny_dataset.train:
        out = evaluate_partition(s.H_true, s.H_hat, Partition.from_key(s.label), cfg.total_power)
        assert out.R_total == pytest.approx(s.label_rate, abs=1e-9)
        seen += 1
        if seen >= 6:
            break


# -------------------------------------------------------------------- splits


def test_split_proportions_single_class():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(100)]
    train, val, test, index = split_samples(samples, seed=1)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    assert index == {"1,2,3,4": 0}


def test_split_stratification_and_coverage():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(40)] + [
        make_sample("1|2|3|4", 5.0, seed=100 + i) for i in range(10)
    ]
    train, val, test, index = split_samples(samples, seed=2)
    train_labels = {s.label for s in train}
    assert {s.label for s in test} <= train_labels
    assert set(index) == {"1,2,3,4", "1|2|3|4"}
    assert len(train) + len(val) + len(test) == 50


def test_split_seed_changes_membership_not_proportions():
    records = as_records([make_sample("1,2,3,4", 5.0, seed=i) for i in range(50)])
    rows = np.arange(len(records))
    t1, v1, s1, _ = data.split(records, rows, seed=1)
    t2, v2, s2, _ = data.split(records, rows, seed=2)
    assert (len(t1), len(v1), len(s1)) == (len(t2), len(v2), len(s2))
    assert set(v1.tolist()) != set(v2.tolist())


def test_split_rejects_tiny_class():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(10)] + [
        make_sample("1|2|3|4", 5.0, seed=50)
    ]
    with pytest.raises(StratificationError, match=r"1\|2\|3\|4"):
        split_samples(samples, seed=3)


def test_split_union_is_disjoint_partition(tiny_config):
    raw = data.generate_samples(tiny_config)
    rows, _ = data.augment(raw, data.balance(raw), tiny_config.seed)
    train, val, test, class_index = data.split(raw, rows, tiny_config.seed)
    # every augmented row lands in exactly one split, and each split lists its rows ascending
    assert np.array_equal(np.sort(np.concatenate([train, val, test])), np.arange(len(rows)))
    assert all(np.all(np.diff(part) > 0) for part in (train, val, test))
    assert {raw.labels[i] for i in raw.ids[rows].tolist()} == set(class_index)


# ------------------------------------------------------------- serialization


def test_round_trip_bit_identical(tiny_dataset, tmp_path):
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    loaded = data.load(path)
    assert loaded.config == tiny_dataset.config
    assert loaded.class_index == tiny_dataset.class_index
    for part in ("train", "validation", "test"):
        for a, b in zip(getattr(tiny_dataset, part), getattr(loaded, part)):
            assert a.H_true.tobytes() == b.H_true.tobytes()
            assert a.H_hat.tobytes() == b.H_hat.tobytes()
            assert a.label == b.label
            assert a.label_rate == b.label_rate
            assert a.cov_assignment == b.cov_assignment
            # Python scalars, not numpy ones: export_labels_csv writes repr(label_rate)
            assert type(b.label_rate) is float
            assert type(b.cov_assignment) is tuple and all(type(c) is int for c in b.cov_assignment)
    # a second write of the loaded dataset yields the same bytes
    path2 = tmp_path / "ds2.hrsdat"
    data.serialize(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_corrupted_magic_rejected(tiny_dataset, tmp_path):
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        data.load(path)


def test_corrupted_payload_rejected_by_crc(tiny_dataset, tmp_path):
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        data.load(path)


def test_truncated_file_rejected(tiny_dataset, tmp_path):
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(DataFormatError):
        data.load(path)


def test_serialize_peak_memory_stays_below_twice_the_file(tmp_path):
    # the blob is streamed to the file, never joined in memory
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=2200)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((cfg.samples, 2, 8, 4)) + 1j * rng.standard_normal((cfg.samples, 2, 8, 4))
    samples = [data.Sample(h[i, 0], h[i, 1], "1,2,3,4", float(i), (0, 1, 2, 3)) for i in range(cfg.samples)]
    train = as_records(samples)
    dataset = data.DatasetSplit(train, train[:0], train[:0], {"1,2,3,4": 0}, cfg)
    path = tmp_path / "big.hrsdat"
    tracemalloc.start()
    try:
        data.serialize(dataset, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def test_serialize_rejects_a_misshapen_sample_before_writing(tiny_dataset, tmp_path):
    good = tiny_dataset.test[0]
    bad = data.Sample(good.H_true[:, :-1], good.H_hat[:, :-1], good.label, good.label_rate, good.cov_assignment)
    dataset = data.DatasetSplit(tiny_dataset.train, tiny_dataset.validation[:0], as_records([bad]),
                                tiny_dataset.class_index, tiny_dataset.config)
    path = tmp_path / "bad.hrsdat"
    with pytest.raises(DataFormatError, match="shape"):
        data.serialize(dataset, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("label_rate", float("nan"), "label_rate", id="nan"),
        pytest.param("label_rate", float("inf"), "label_rate", id="inf"),
        pytest.param("label_rate", float("-inf"), "label_rate", id="-inf"),
        pytest.param("label", "1,2,3,4,5,6,7,8,9", "class_index", id="label-outside-class_index"),
        pytest.param("cov_assignment", (0, 1, 2, 99), "cov_assignment", id="cov_assignment-out-of-range"),
        pytest.param("cov_assignment", (0, -1, 2, 3), "cov_assignment", id="cov_assignment-negative"),
        pytest.param("cov_assignment", (0, 1), "covariance indices", id="cov_assignment-too-short"),
    ],
)
def test_serialize_rejects_a_non_finite_label_rate_before_writing(tiny_dataset, tmp_path, field, value, message):
    # a label or covariance indices that the record columns cannot hold are refused the same way
    bad = dataclasses.replace(tiny_dataset.test[0], **{field: value})
    dataset = data.DatasetSplit(tiny_dataset.train, tiny_dataset.validation[:0], as_records([bad]),
                                tiny_dataset.class_index, tiny_dataset.config)
    path = tmp_path / "bad.hrsdat"
    with pytest.raises(DataFormatError, match=message):
        data.serialize(dataset, path)
    assert not path.exists()


def test_loaded_matrices_are_read_only_column_major_views_of_one_buffer(tiny_dataset, tmp_path):
    # every split indexes one store, and the store and every record column view the blob: the load copies nothing
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    loaded = data.load(path)
    store = loaded.train.store
    assert loaded.validation.store is store and loaded.test.store is store
    columns = (*store, *(getattr(part, name) for _, part in loaded.parts() for name in ("draws", "orders", "ids")))
    assert all(not column.flags.writeable for column in columns)
    blob = _binio.read_container(path, data.DATASET_MAGIC, data.DATASET_VERSION)[1]

    def owner(array):
        """The object whose memory ``array`` views."""
        while isinstance(array, np.ndarray):
            array = array.base
        return array.obj if isinstance(array, memoryview) else array

    assert len({id(owner(column)) for column in columns}) == 1
    assert len(owner(store.matrices)) == len(blob)
    assert store.matrices.tobytes() == bytes(blob[: store.matrices.nbytes])
    m, n = tiny_dataset.config.antennas, tiny_dataset.config.users
    assert store.matrices.shape == (len(store.rates), 2, n, m)


def test_records_gather_their_draw_with_the_users_in_their_order(tiny_dataset, tmp_path):
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    loaded = data.load(path)
    store, m = loaded.train.store, tiny_dataset.config.antennas
    copies = {}
    for (_, written), (_, part) in zip(tiny_dataset.parts(), loaded.parts()):
        for r, (sample, draw, order) in enumerate(zip(part, part.draws.tolist(), part.orders)):
            # the oracle: the draw's stored matrices, (N, M) each, their user rows taken in the record's order
            h_true, h_hat = (np.array(store.matrices[draw, k])[order].T for k in range(2))
            assert sample.H_true.tobytes() == h_true.tobytes() and sample.H_hat.tobytes() == h_hat.tobytes()
            for h in (sample.H_true, sample.H_hat):
                assert h.strides == (16, 16 * m) and not h.flags.writeable
            # and every value the in-memory record holds, with its scalar types
            assert stored_values([sample]) == stored_values([written[r]])
            copies.setdefault(draw, []).append((sample, order))
    # the augmented copies of a draw share its rate and label, each with its covariance indices in its own user order
    assert max(map(len, copies.values())) == 1 + data.NUM_SHUFFLES
    for draw, group in copies.items():
        assert {(s.label, s.label_rate) for s, _ in group} == {(group[0][0].label, float(store.rates[draw]))}
        for s, order in group:
            assert s.cov_assignment == tuple(store.assignments[draw][order].tolist())
    assert sorted(copies) == list(range(len(store.rates)))  # the file stores each draw a record uses, once


def _flip_train_matrix_byte(raw, header_end):
    raw[header_end + 100] ^= 0xFF


def _flip_header_byte(raw, header_end):
    raw[20] ^= 0xFF  # corruption is named as such, not as the unreadable header it leaves


def _bad_magic(raw, header_end):
    raw[:8] = b"NOTMAGIC"


def _truncate(raw, header_end):
    del raw[40:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_flip_train_matrix_byte, "CRC mismatch"),
        (_flip_header_byte, "CRC mismatch"),
        (_bad_magic, "bad magic"),
        (_truncate, "CRC mismatch"),
    ],
)
def test_every_load_refuses_a_corrupted_file(tiny_dataset, tmp_path, edit, message):
    path = tmp_path / "ds.hrsdat"
    data.serialize(tiny_dataset, path)
    raw = bytearray(path.read_bytes())
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    edit(raw, header_end)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match=message):
        data.load(path)


def _synthetic_dataset(n_train, n_val=40, n_test=40, seed=0):
    """Random 4-user, 8-antenna records with two labels and varied rates and covariance indices."""
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=1)
    rng = np.random.default_rng(seed)
    count = n_train + n_val + n_test
    h = rng.standard_normal((count, 2, 8, 4)) + 1j * rng.standard_normal((count, 2, 8, 4))
    labels = ("1,2,3,4", "1|2|3|4")
    samples = [data.Sample(h[i, 0], h[i, 1], labels[i % 2], float(rng.uniform(1, 9)),
                           tuple(int(c) for c in rng.integers(0, 4, 4))) for i in range(count)]
    records = as_records(samples)
    parts = records[:n_train], records[n_train : n_train + n_val], records[n_train + n_val :]
    return data.DatasetSplit(*parts, {label: i for i, label in enumerate(labels)}, cfg)


def test_load_allocates_no_object_per_record(tmp_path):
    # the train splits differ 10x in record count; the blocks a full load leaves allocated do not
    growth = []
    for n_train in (100, 1000):
        path = tmp_path / f"train{n_train}.hrsdat"
        data.serialize(_synthetic_dataset(n_train), path)
        data.load(path)  # warm every cache a first load fills
        gc.collect()
        before = sys.getallocatedblocks()
        loaded = data.load(path)
        growth.append(sys.getallocatedblocks() - before)
        assert len(loaded.train) == n_train
        del loaded
    assert abs(growth[1] - growth[0]) <= 10, growth


def test_loaded_split_is_a_read_only_column_backed_sequence(tmp_path):
    dataset = _synthetic_dataset(1100)
    path = tmp_path / "ds.hrsdat"
    data.serialize(dataset, path)
    loaded = data.load(path)
    for name, written in dataset.parts():
        records = getattr(loaded, name)
        assert isinstance(records, data.Records) and len(records) == len(written)
        for column in (*records.store, records.draws, records.orders, records.ids):
            assert not column.flags.writeable
    train, written = loaded.train, dataset.train
    # every stored value and the Python type of every scalar, field by field
    assert stored_values(train) == stored_values(written)
    assert stored_values([train[0], train[-1]]) == stored_values([written[0], written[-1]])
    assert stored_values([train[-len(train)]]) == stored_values([written[0]])
    for index in (len(train), -len(train) - 1):
        with pytest.raises(IndexError):
            train[index]
    with pytest.raises(TypeError):
        train[1.0]
    part = train[5:700:3]
    assert isinstance(part, data.Records) and len(part) == len(written[5:700:3])
    assert stored_values(part) == stored_values(written[5:700:3])
    assert stored_values(list(iter(train))) == stored_values(written)
    sample = train[7]
    assert type(sample) is data.Sample and not sample.H_true.flags.writeable and not sample.H_hat.flags.writeable
    assert type(sample.label_rate) is float and all(type(c) is int for c in sample.cov_assignment)
    # features of the columns, in several row blocks, equal those of the samples bit for bit
    assert len(train) > 2 * mlp.BATCH_SIZE
    assert mlp._features(train).tobytes() == mlp._features(list(train)).tobytes()
    assert mlp._features(part).tobytes() == mlp._features(list(part)).tobytes()
    assert np.array_equal(data.class_ids(train, dataset.class_index),
                          [dataset.class_index[s.label] for s in written])
    # a strided slice writes the bytes its samples write, gathered into a store of their own
    for name, split in (("records", part), ("store", as_records(list(part)))):
        data.serialize(data.DatasetSplit(split, split[:0], split[:0], dataset.class_index, dataset.config),
                       tmp_path / name)
    assert (tmp_path / "records").read_bytes() == (tmp_path / "store").read_bytes()


def test_serialize_refuses_loaded_records_that_do_not_fit_the_dataset(tmp_path):
    path = tmp_path / "ds.hrsdat"
    data.serialize(_synthetic_dataset(10, 2, 2), path)
    loaded = data.load(path)
    narrow = dataclasses.replace(loaded.config, antennas=4)
    cases = [
        (data.DatasetSplit(loaded.train, loaded.train[:0], loaded.train[:0], loaded.class_index, narrow), "shape"),
        (data.DatasetSplit(loaded.train, loaded.train[:0], loaded.train[:0], {"1,2,3,4": 0}, loaded.config),
         "'1|2|3|4' is not a key"),
    ]
    for dataset, message in cases:
        with pytest.raises(DataFormatError, match=message):
            data.serialize(dataset, tmp_path / "bad.hrsdat")
        assert not (tmp_path / "bad.hrsdat").exists()


def test_empty_dataset_round_trip(tmp_path):
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=1)
    empty = data.DatasetSplit(as_records([]), as_records([]), as_records([]), {}, cfg)
    path = tmp_path / "empty.hrsdat"
    data.serialize(empty, path)
    loaded = data.load(path)
    assert loaded.all_samples() == []
    assert loaded.class_index == {}


def test_csv_export(tiny_dataset, tmp_path):
    path = tmp_path / "labels.csv"
    data.export_labels_csv(tiny_dataset, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,rate,scenario,split"
    assert len(lines) == 1 + len(tiny_dataset.all_samples())
