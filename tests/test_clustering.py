import numpy as np
import pytest

from conftest import random_channelset
from hrscluster.channel import ArrayGeometry, ChannelSet, build_covariance, sample_channels
from hrscluster.clustering import (
    Dendrogram,
    SimilarityCalibration,
    agglomerate,
    best_partition,
    calibrate_similarity,
    exhaustive_best,
    normalized_similarity,
    pf_similarity,
    projection_matrix,
)
from hrscluster.errors import CalibrationError, DegenerateInputError, ResourceLimitError
from hrscluster.hrs import HrsConfig, evaluate_partition
from hrscluster.partitions import Partition


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------------------------ projector


def test_rank_one_projector():
    e1 = np.zeros((4, 1), dtype=complex)
    e1[0, 0] = 1.0
    p = projection_matrix(e1)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    assert np.allclose(p, expected)


def test_projector_axioms(rng):
    for cols in (1, 2, 3):
        h = complex_gaussian(rng, (6, cols))
        p = projection_matrix(h)
        assert np.abs(p @ p - p).max() <= 1e-8
        assert np.abs(p - p.conj().T).max() <= 1e-8
        assert np.trace(p).real == pytest.approx(cols, abs=1e-8)
        # projects the columns onto themselves
        assert np.abs(p @ h - h).max() <= 1e-8


def test_projector_rejects_rank_deficiency():
    h = np.ones((4, 2), dtype=complex)  # two identical columns
    with pytest.raises(DegenerateInputError):
        projection_matrix(h)


# ----------------------------------------------------------------- similarity


def test_similarity_of_identical_subspaces_is_one(rng):
    h = complex_gaussian(rng, (6, 2))
    assert pf_similarity(h, h) == pytest.approx(1.0, abs=1e-9)
    # any basis change of the same column space scores 1 as well
    mix = complex_gaussian(rng, (2, 2))
    assert pf_similarity(h, h @ mix) == pytest.approx(1.0, abs=1e-8)


def test_similarity_of_orthogonal_subspaces_is_zero():
    h1 = np.eye(6, dtype=complex)[:, :2]
    h2 = np.eye(6, dtype=complex)[:, 2:4]
    assert pf_similarity(h1, h2) == pytest.approx(0.0, abs=1e-12)


def test_similarity_range_and_symmetry(rng):
    for _ in range(50):
        h1 = complex_gaussian(rng, (8, int(rng.integers(1, 4))))
        h2 = complex_gaussian(rng, (8, int(rng.integers(1, 4))))
        s = pf_similarity(h1, h2)
        assert 0.0 <= s <= 1.0 + 1e-12
        assert s == pytest.approx(pf_similarity(h2, h1), abs=1e-12)


def test_similarity_agrees_with_projector_trace(rng):
    h1 = complex_gaussian(rng, (7, 2))
    h2 = complex_gaussian(rng, (7, 3))
    via_trace = np.trace(projection_matrix(h1) @ projection_matrix(h2)).real / 2
    assert pf_similarity(h1, h2) == pytest.approx(via_trace, abs=1e-10)


def test_mean_similarity_of_random_pairs_matches_analytic():
    # E[s] for independent isotropic subspaces is Nk*Nj / (M * min(Nk, Nj));
    # Monte Carlo with 1e4 draws must land within 0.01 of 4/16 = 0.25
    rng = np.random.default_rng(77)
    vals = [
        pf_similarity(complex_gaussian(rng, (8, 2)), complex_gaussian(rng, (8, 2)))
        for _ in range(10_000)
    ]
    assert np.mean(vals) == pytest.approx(0.25, abs=0.01)


# ---------------------------------------------------------------- calibration


@pytest.mark.parametrize("m, n_k, n_j", [(8, 1, 1), (8, 2, 3), (12, 2, 5), (12, 3, 3)])
def test_calibration_matches_monte_carlo(m, n_k, n_j):
    # sample mean and variance of the similarity of independent Gaussian
    # subspaces land within 4 standard errors of the closed form
    rng = np.random.default_rng((m, n_k, n_j))
    n = 4000
    vals = np.array(
        [pf_similarity(complex_gaussian(rng, (m, n_k)), complex_gaussian(rng, (m, n_j))) for _ in range(n)]
    )
    eta, sigma = calibrate_similarity(m, n_k, n_j)
    assert abs(vals.mean() - eta) < 4 * sigma / np.sqrt(n)
    sq_dev = (vals - eta) ** 2
    assert abs(sq_dev.mean() - sigma**2) < 4 * sq_dev.std() / np.sqrt(n)


@pytest.mark.parametrize("m", [3, 8, 12])
def test_single_user_calibration_is_beta(m):
    # |u^H v|^2 of independent isotropic unit vectors in C^M is Beta(1, M - 1)
    eta, sigma = calibrate_similarity(m, 1, 1)
    assert eta == pytest.approx(1 / m, rel=1e-15)
    assert sigma**2 == pytest.approx((m - 1) / (m * m * (m + 1)), rel=1e-12)


def test_calibration_rejects_small_geometry():
    with pytest.raises(CalibrationError):
        calibrate_similarity(4, 2, 2)


def test_scenario_calibration_covers_needed_keys():
    calib = SimilarityCalibration.for_scenario(8, 4)
    assert (8, 1, 1) in calib.table
    assert (8, 2, 2) in calib.table
    assert (8, 1, 3) in calib.table
    with pytest.raises(CalibrationError):
        calib.lookup(8, 4, 4)


def test_normalized_similarity_branches(rng):
    calib = SimilarityCalibration.for_scenario(8, 4)
    # wide geometry: standardized score; centered value maps near zero
    h1 = complex_gaussian(rng, (8, 1))
    h2 = complex_gaussian(rng, (8, 1))
    eta, sigma = calib.lookup(8, 1, 1)
    s_raw = pf_similarity(h1, h2)
    assert normalized_similarity(h1, h2, calib) == pytest.approx((s_raw - eta) / sigma, abs=1e-12)
    # identical single-user subspaces achieve the top of the calibrated scale
    top = normalized_similarity(h1, h1, calib)
    assert top == pytest.approx((1.0 - eta) / sigma, abs=1e-9)
    assert top > 0
    # narrow geometry falls back to the raw score
    g1 = complex_gaussian(rng, (4, 2))
    g2 = complex_gaussian(rng, (4, 2))
    assert normalized_similarity(g1, g2, None) == pytest.approx(pf_similarity(g1, g2), abs=1e-12)


# -------------------------------------------------------------- agglomeration


def test_two_user_dendrogram():
    channels = random_channelset(4, 2, seed=30)
    calib = SimilarityCalibration.for_scenario(4, 2)
    d = agglomerate(channels.H_hat, calib)
    assert [p.key() for p in d.levels] == ["1|2", "1,2"]
    assert len(d.merge_trace) == 1


def test_dendrogram_structure(rng):
    channels = random_channelset(8, 6, seed=31)
    calib = SimilarityCalibration.for_scenario(8, 6)
    d = agglomerate(channels.H_hat, calib)
    assert len(d.levels) == 6
    assert d.levels[0] == Partition.singletons(6)
    assert d.levels[-1] == Partition.universal(6)
    for a, b in zip(d.levels, d.levels[1:]):
        assert b.num_groups == a.num_groups - 1
        # refinement: every block of the finer level sits inside one block
        for block in a.blocks:
            assert any(set(block) <= set(coarse) for coarse in b.blocks)


def test_first_merge_attains_level_zero_maximum():
    channels = random_channelset(8, 5, seed=32)
    calib = SimilarityCalibration.for_scenario(8, 5)
    d = agglomerate(channels.H_hat, calib)
    first = d.merge_trace[0]
    h = channels.H_hat
    pair_scores = [
        normalized_similarity(h[:, [i]], h[:, [j]], calib)
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    assert first.similarity >= max(pair_scores) - 1e-12


def test_recovers_two_separated_angular_groups():
    # users 1,2 come from one angular sector, 3,4 from a well-separated one;
    # with perfect estimates the G=2 level must match that split
    geom = ArrayGeometry.uca(8)
    c1 = build_covariance(geom, -np.pi / 2, np.pi / 6)
    c2 = build_covariance(geom, np.pi / 2, np.pi / 6)
    channels = sample_channels([c1, c2], [0, 0, 1, 1], rng_seed=33)
    calib = SimilarityCalibration.for_scenario(8, 4)
    d = agglomerate(channels.H_hat, calib)
    level_g2 = next(p for p in d.levels if p.num_groups == 2)
    assert level_g2.key() == "1,2|3,4"


def test_merge_sequence_invariant_under_common_unitary(rng):
    channels = random_channelset(8, 5, seed=34, tau=0.4)
    calib = SimilarityCalibration.for_scenario(8, 5)
    q, _ = np.linalg.qr(complex_gaussian(rng, (8, 8)))
    d1 = agglomerate(channels.H_hat, calib)
    d2 = agglomerate(q @ channels.H_hat, calib)
    assert [p.key() for p in d1.levels] == [p.key() for p in d2.levels]
    for s1, s2 in zip(d1.merge_trace, d2.merge_trace):
        assert s1.similarity == pytest.approx(s2.similarity, abs=1e-9)


# ------------------------------------------------------------ rate selection


def test_single_user_best_partition():
    channels = random_channelset(4, 1, seed=35)
    d = agglomerate(channels.H_hat, None)
    part, rate = best_partition(channels, d, HrsConfig(total_power=10.0))
    assert part.key() == "1"
    assert rate.feasible and rate.R_total > 0


def test_best_partition_dominates_universal():
    cfg = HrsConfig(total_power=20.0)
    calib = SimilarityCalibration.for_scenario(8, 5)
    for seed in range(36, 41):
        channels = random_channelset(8, 5, seed=seed, tau=0.6)
        d = agglomerate(channels.H_hat, calib)
        part, rate = best_partition(channels, d, cfg)
        uni = evaluate_partition(channels, Partition.universal(5), cfg)
        assert rate.R_total >= uni.R_total - 1e-12


def test_exhaustive_dominates_dendrogram_selection():
    cfg = HrsConfig(total_power=20.0)
    calib = SimilarityCalibration.for_scenario(8, 4)
    for seed in range(41, 51):
        channels = random_channelset(8, 4, seed=seed, tau=0.6)
        d = agglomerate(channels.H_hat, calib)
        _, hc = best_partition(channels, d, cfg)
        _, oracle = exhaustive_best(channels, cfg)
        assert oracle.R_total >= hc.R_total - 1e-12


def test_aligned_channels_prefer_universal():
    # nearly parallel channels cannot be separated; single common stream wins
    base = np.array([1.0, 0.5 + 0.2j, -0.3j, 0.1], dtype=complex)
    h = np.stack([base, base * (1 + 1e-3), base * (1 - 1e-3)], axis=1)
    channels = ChannelSet(h, h, (0,) * 3, 0.0, h.copy(), ())
    part, _ = exhaustive_best(channels, HrsConfig(total_power=10.0))
    assert part == Partition.universal(3)


def test_orthogonal_channels_prefer_singletons():
    h = np.eye(4, dtype=complex)[:, :2]
    channels = ChannelSet(h, h, (0, 0), 0.0, h.copy(), ())
    part, _ = exhaustive_best(channels, HrsConfig(total_power=10.0))
    assert part == Partition.singletons(2)


def test_exhaustive_guard():
    channels = random_channelset(8, 7, seed=51)
    with pytest.raises(ResourceLimitError):
        exhaustive_best(channels, HrsConfig())
