import numpy as np
import pytest
from scipy.stats import chi2

from hrscluster import data
from hrscluster.clustering import agglomerate, best_partition
from hrscluster.errors import ConfigurationError, DataFormatError, StratificationError
from hrscluster.partitions import Partition


def make_sample(label, rate, n=4, m=8, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return data.Sample(h, g, label, rate, (0,) * n)


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


def test_alpha_beta_grids():
    cfg = data.ScenarioConfig(users=4, antennas=8)
    hrs = cfg.hrs_config()
    assert len(hrs.alpha_grid) == 11
    assert hrs.alpha_grid[0] == pytest.approx(1e-3)
    assert hrs.alpha_grid[1:] == tuple((i + 1) / 10 for i in range(10))
    assert len(hrs.beta_grid) == 10


INT_FIELDS = (
    "users", "antennas", "samples", "seed", "num_covs", "integration_points",
    "num_alpha", "num_beta", "min_class_samples", "max_class_samples", "num_shuffles",
)
FLOAT_FIELDS = ("tau_sq", "total_power", "spread", "rate_floor_frac")


@pytest.mark.parametrize("name", INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True, None])
def test_config_rejects_non_integer_fields(name, value):
    raw = {"users": 4, "antennas": 8, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        data.ScenarioConfig(**raw)


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "0.5", False, None])
def test_config_rejects_non_finite_float_fields(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be a finite number"):
        data.ScenarioConfig(users=4, antennas=8, **{name: value})


def test_config_accepts_integers_in_float_fields():
    cfg = data.ScenarioConfig(users=4, antennas=8, total_power=50, spread=1, tau_sq=0, rate_floor_frac=1)
    assert cfg.hrs_config().total_power == 50


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
    calib = cfg.calibration()
    hrs = cfg.hrs_config()
    for s in tiny_dataset.train[:3]:
        dendro = agglomerate(s.H_hat, calib)
        part, rate = best_partition(s.H_true, s.H_hat, dendro, hrs)
        assert part.key() == s.label
        assert rate.R_total == pytest.approx(s.label_rate, abs=1e-9)


# ------------------------------------------------------------------ balancing


def test_balance_caps_class_size():
    cfg = data.ScenarioConfig(users=4, antennas=8, max_class_samples=200)
    samples = [make_sample("1,2|3,4", 10.0, seed=i) for i in range(300)]
    out = data.balance(samples, cfg)
    assert len(out) == 200


def test_balance_keeps_small_strong_class():
    cfg = data.ScenarioConfig(users=4, antennas=8)
    strong = [make_sample("1|2|3|4", 10.0, seed=i) for i in range(60)]
    bulk = [make_sample("1,2,3,4", 10.0, seed=100 + i) for i in range(100)]
    out = data.balance(strong + bulk, cfg)
    assert sum(1 for s in out if s.label == "1|2|3|4") == 60


def test_balance_drops_weak_rare_class_only():
    cfg = data.ScenarioConfig(users=4, antennas=8)
    bulk = [make_sample("1,2,3,4", 10.0, seed=i) for i in range(100)]
    weak_rare = [make_sample("1|2|3|4", 0.1, seed=200 + i) for i in range(10)]
    weak_common = [make_sample("1,2|3,4", 0.1, seed=300 + i) for i in range(60)]
    out = data.balance(bulk + weak_rare + weak_common, cfg)
    labels = {s.label for s in out}
    assert "1|2|3|4" not in labels  # below both thresholds
    assert "1,2|3,4" in labels  # rare condition not met
    assert "1,2,3,4" in labels


def test_balance_noop_on_uniform_classes():
    cfg = data.ScenarioConfig(users=4, antennas=8)
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(100)]
    out = data.balance(samples, cfg)
    assert len(out) == 100


def test_balance_rejects_empty():
    cfg = data.ScenarioConfig(users=4, antennas=8)
    with pytest.raises(ConfigurationError):
        data.balance([], cfg)


# --------------------------------------------------------------- augmentation


def test_augment_counts_and_label_invariance(tiny_config):
    samples = [make_sample("1,3|2,4", 5.0, seed=1), make_sample("1|2|3|4", 4.0, seed=2)]
    out = data.augment(samples, tiny_config)
    assert len(out) == 2 * (1 + tiny_config.num_shuffles)
    assert all(s.label in ("1,3|2,4", "1|2|3|4") for s in out)
    for original, copies in ((samples[0], out[1:11]), (samples[1], out[12:])):
        for c in copies:
            assert c.label == original.label
            assert c.label_rate == original.label_rate


def test_augment_singleton_label_copies_identical(tiny_config):
    s = make_sample("1|2|3|4", 4.0, seed=3)
    out = data.augment([s], tiny_config)
    for c in out:
        assert c.H_true.tobytes() == s.H_true.tobytes()


def test_augment_permutes_within_blocks_only(tiny_config):
    s = make_sample("1,2|3,4", 4.0, seed=4)
    out = data.augment([s], tiny_config)

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
    hrs = cfg.hrs_config()
    seen = 0
    for s in tiny_dataset.train:
        out = evaluate_partition(s.H_true, s.H_hat, Partition.from_key(s.label), hrs)
        assert out.R_total == pytest.approx(s.label_rate, abs=1e-9)
        seen += 1
        if seen >= 6:
            break


# -------------------------------------------------------------------- splits


def test_split_proportions_single_class():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(100)]
    train, val, test, index = data.split(samples, seed=1)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    assert index == {"1,2,3,4": 0}


def test_split_stratification_and_coverage():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(40)] + [
        make_sample("1|2|3|4", 5.0, seed=100 + i) for i in range(10)
    ]
    train, val, test, index = data.split(samples, seed=2)
    train_labels = {s.label for s in train}
    assert {s.label for s in test} <= train_labels
    assert set(index) == {"1,2,3,4", "1|2|3|4"}
    assert len(train) + len(val) + len(test) == 50


def test_split_seed_changes_membership_not_proportions():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(50)]
    t1, v1, s1, _ = data.split(samples, seed=1)
    t2, v2, s2, _ = data.split(samples, seed=2)
    assert (len(t1), len(v1), len(s1)) == (len(t2), len(v2), len(s2))
    assert {id(x) for x in v1} != {id(x) for x in v2}


def test_split_rejects_tiny_class():
    samples = [make_sample("1,2,3,4", 5.0, seed=i) for i in range(10)] + [
        make_sample("1|2|3|4", 5.0, seed=50)
    ]
    with pytest.raises(StratificationError, match=r"1\|2\|3\|4"):
        data.split(samples, seed=3)


def test_split_union_is_disjoint_partition(tiny_dataset):
    ids = [id(s) for s in tiny_dataset.all_samples()]
    assert len(ids) == len(set(ids))
    assert len(ids) == len(tiny_dataset.train) + len(tiny_dataset.validation) + len(
        tiny_dataset.test
    )
    assert all(s.label in tiny_dataset.class_index for s in tiny_dataset.all_samples())


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


def test_empty_dataset_round_trip(tmp_path):
    cfg = data.ScenarioConfig(users=4, antennas=8, samples=1)
    empty = data.DatasetSplit([], [], [], {}, cfg)
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
