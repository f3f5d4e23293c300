import numpy as np
import pytest

from conftest import random_channelset
from hrscluster import clustering
from hrscluster.channel import ArrayGeometry, build_covariance, sample_channels
from hrscluster.clustering import (
    Dendrogram,
    agglomerate,
    best_partition,
    calibrate_similarity,
    exhaustive_best,
    pf_similarity,
)
from hrscluster.errors import CalibrationError, DegenerateInputError, NoFeasiblePartitionError, ResourceLimitError
from hrscluster.hrs import RateBreakdown, evaluate_partition
from hrscluster.partitions import Partition, enumerate_partitions
from reference import normalized_similarity, projection_matrix


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


def test_calibration_is_bit_symmetric_in_the_two_sizes():
    # _standardize passes the sizes in scan order, unsorted
    for m in range(3, 17):
        for a in range(1, m):
            for b in range(1, m - a):
                assert calibrate_similarity(m, a, b) == calibrate_similarity(m, b, a)


def test_normalized_similarity_branches(rng):
    # wide geometry: standardized score; centered value maps near zero
    h1 = complex_gaussian(rng, (8, 1))
    h2 = complex_gaussian(rng, (8, 1))
    eta, sigma = calibrate_similarity(8, 1, 1)
    s_raw = pf_similarity(h1, h2)
    assert normalized_similarity(h1, h2) == pytest.approx((s_raw - eta) / sigma, abs=1e-12)
    # identical single-user subspaces achieve the top of the calibrated scale
    top = normalized_similarity(h1, h1)
    assert top == pytest.approx((1.0 - eta) / sigma, abs=1e-9)
    assert top > 0
    # narrow geometry falls back to the raw score
    g1 = complex_gaussian(rng, (4, 2))
    g2 = complex_gaussian(rng, (4, 2))
    assert normalized_similarity(g1, g2) == pytest.approx(pf_similarity(g1, g2), abs=1e-12)


# -------------------------------------------------------------- agglomeration


def test_two_user_dendrogram():
    channels = random_channelset(4, 2, seed=30)
    d = agglomerate(channels.H_hat)
    assert [p.key() for p in d.levels] == ["1|2", "1,2"]
    assert len(d.merge_trace) == 1


def test_dendrogram_structure(rng):
    channels = random_channelset(8, 6, seed=31)
    d = agglomerate(channels.H_hat)
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
    d = agglomerate(channels.H_hat)
    first = d.merge_trace[0]
    h = channels.H_hat
    pair_scores = [
        normalized_similarity(h[:, [i]], h[:, [j]])
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
    d = agglomerate(channels.H_hat)
    level_g2 = next(p for p in d.levels if p.num_groups == 2)
    assert level_g2.key() == "1,2|3,4"


def test_merge_sequence_invariant_under_common_unitary(rng):
    channels = random_channelset(8, 5, seed=34, tau=0.4)
    q, _ = np.linalg.qr(complex_gaussian(rng, (8, 8)))
    d1 = agglomerate(channels.H_hat)
    d2 = agglomerate(q @ channels.H_hat)
    assert [p.key() for p in d1.levels] == [p.key() for p in d2.levels]
    for s1, s2 in zip(d1.merge_trace, d2.merge_trace):
        assert s1.similarity == pytest.approx(s2.similarity, abs=1e-9)


def _rescoring_agglomerate(h):
    """Reference merge order: every pair rescored from its stacked columns at every step."""
    blocks = [(u,) for u in range(1, h.shape[1] + 1)]
    keys, trace = [Partition(tuple(blocks)).key()], []
    while len(blocks) > 1:
        best, pair = -np.inf, None
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                cols_i, cols_j = np.asarray(blocks[i]) - 1, np.asarray(blocks[j]) - 1
                s = normalized_similarity(h[:, cols_i], h[:, cols_j])
                if s > best:
                    best, pair = s, (i, j)
        i, j = pair
        trace.append(((blocks[i], blocks[j]), float(best)))
        merged = tuple(sorted(blocks[i] + blocks[j]))
        blocks = sorted([b for k, b in enumerate(blocks) if k not in pair] + [merged])
        keys.append(Partition(tuple(blocks)).key())
    return keys, trace


def _assert_matches_rescoring(h):
    d = agglomerate(h)
    keys, trace = _rescoring_agglomerate(h)
    assert [p.key() for p in d.levels] == keys
    assert [(step.merged, step.similarity) for step in d.merge_trace] == trace
    return d


@pytest.mark.parametrize("m, n", [(8, 8), (12, 12), (6, 12)])
def test_agglomerate_matches_rescoring_reference(m, n):
    covs = [build_covariance(ArrayGeometry.uca(m), az, np.pi / 6) for az in (-np.pi / 2, 0.0, np.pi / 2)]
    for seed in range(6):
        _assert_matches_rescoring(random_channelset(m, n, seed=60 + seed, tau=0.4).H_hat)
        assignment = [(seed + u) % len(covs) for u in range(n)]
        _assert_matches_rescoring(sample_channels(covs, assignment, rng_seed=70 + seed).H_hat)


def test_agglomerate_tie_merges_smallest_block_minima_first():
    # orthonormal users: every singleton pair scores the same, so (1, 2)
    # merges first, then (3, 4) beats the pairs of unequal sizes
    h = np.eye(8, dtype=complex)[:, :4]
    d = _assert_matches_rescoring(h)
    assert len({normalized_similarity(h[:, [i]], h[:, [j]]) for i in range(4) for j in range(i + 1, 4)}) == 1
    assert [step.merged for step in d.merge_trace[:2]] == [((1,), (2,)), ((3,), (4,))]


def test_agglomerate_never_decomposes_the_universal_cluster():
    # two parallel users: the merged cluster is rank deficient, but it is
    # the universal cluster and is never scored
    h = np.array([[1.0, 2.0], [0.5j, 1.0j], [0.2, 0.4], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateInputError):
        pf_similarity(h, h[:, :1])
    d = agglomerate(h)
    assert [p.key() for p in d.levels] == ["1|2", "1,2"]


def test_agglomerate_rejects_a_zero_user_column_as_one_decomposition_would():
    h = random_channelset(8, 5, seed=55).H_hat.copy()
    h[:, 2] = 0.0
    h[:, 4] = 0.0
    with pytest.raises(DegenerateInputError) as alone:
        pf_similarity(h[:, [0]], h[:, [2]])
    with pytest.raises(DegenerateInputError) as err:
        agglomerate(h)
    assert str(err.value) == str(alone.value) == "matrix is numerically rank deficient (condition 0.00e+00)"
    # a lone user is the universal cluster, which is never decomposed
    assert [p.key() for p in agglomerate(np.zeros((8, 1), dtype=complex)).levels] == ["1"]


def test_dendrogram_keeps_the_bases_of_every_non_universal_block():
    for m, n, seed in ((8, 6, 52), (12, 12, 53), (6, 12, 54)):
        h = random_channelset(m, n, seed=seed, tau=0.4).H_hat
        d = agglomerate(h)
        blocks = {block for level in d.levels for block in level.blocks}
        assert set(d.bases) == blocks - {tuple(range(1, n + 1))}
        for block, basis in d.bases.items():
            cols = np.asarray(block) - 1
            assert np.array_equal(basis, np.linalg.svd(h[:, cols], full_matrices=False)[0])


# ------------------------------------------------------------ rate selection


def test_single_user_best_partition():
    channels = random_channelset(4, 1, seed=35)
    d = agglomerate(channels.H_hat)
    part, rate = best_partition(channels.H_true, channels.H_hat, d, 10.0)
    assert part.key() == "1"
    assert rate.feasible and rate.R_total > 0


def test_best_partition_dominates_universal():
    power = 20.0
    for seed in range(36, 41):
        channels = random_channelset(8, 5, seed=seed, tau=0.6)
        d = agglomerate(channels.H_hat)
        part, rate = best_partition(channels.H_true, channels.H_hat, d, power)
        uni = evaluate_partition(channels.H_true, channels.H_hat, Partition.universal(5), power)
        assert rate.R_total >= uni.R_total - 1e-12


def test_exhaustive_dominates_dendrogram_selection():
    power = 20.0
    for seed in range(41, 51):
        channels = random_channelset(8, 4, seed=seed, tau=0.6)
        d = agglomerate(channels.H_hat)
        _, hc = best_partition(channels.H_true, channels.H_hat, d, power)
        _, oracle = exhaustive_best(channels.H_true, channels.H_hat, power)
        assert oracle.R_total >= hc.R_total - 1e-12


def _enumerated_best(h_true, h_hat, total_power):
    """Every partition evaluated on its own, with no shared bases."""
    best = None
    for partition in enumerate_partitions(h_hat.shape[1]):
        result = evaluate_partition(h_true, h_hat, partition, total_power)
        if result.feasible and (
            best is None
            or result.R_total > best[1].R_total
            or (result.R_total == best[1].R_total and partition.num_groups < best[0].num_groups)
        ):
            best = (partition, result)
    return best


def test_exhaustive_with_shared_bases_matches_independent_evaluations():
    power = 20.0
    for seed in range(41, 51):
        channels = random_channelset(8, 4, seed=seed, tau=0.6)
        assert exhaustive_best(channels.H_true, channels.H_hat, power) == _enumerated_best(
            channels.H_true, channels.H_hat, power
        )


def _crafted_search(monkeypatch, keys, rates, feasible):
    """``_best_feasible`` over the partitions of ``keys``, each evaluated to
    the crafted rate and feasibility at its position; returns the candidates,
    their breakdowns and the search's result."""
    candidates = [Partition.from_key(key) for key in keys]
    breakdowns = [RateBreakdown(0.0, 0.0, r, r, 0.5, 0.5, ok) for r, ok in zip(rates, feasible)]

    def crafted(h_true, h_hat, partitions, total_power, bases):
        assert partitions == candidates
        return breakdowns

    monkeypatch.setattr(clustering, "evaluate_partitions", crafted)
    return candidates, breakdowns, clustering._best_feasible(None, None, iter(candidates), 1.0, None)


@pytest.mark.parametrize(
    "keys, rates, feasible, want",
    [
        (["1,2,3", "1|2|3"], [1.0, 1.5], [True, True], 1),  # the higher rate, whatever its group count
        (["1|2|3", "1,2|3"], [2.0, 2.0], [True, True], 1),  # equal rates: fewer groups, even when later
        (["1,2|3", "1,3|2"], [2.0, 2.0], [True, True], 0),  # equal rates and group counts: the earlier
        (["1,3|2", "1,2|3"], [2.0, 2.0], [True, True], 0),
        (["1,2,3", "1,2|3", "1|2|3"], [9.0, 1.0, 0.5], [False, True, True], 1),  # infeasible is skipped
    ],
    ids=["rate", "fewer-groups", "earlier", "earlier-swapped", "infeasible-skipped"],
)
def test_best_feasible_keeps_rate_then_fewer_groups_then_the_earlier(monkeypatch, keys, rates, feasible, want):
    candidates, breakdowns, best = _crafted_search(monkeypatch, keys, rates, feasible)
    assert best[0] is candidates[want] and best[1] is breakdowns[want]


def test_best_feasible_refuses_all_infeasible_candidates(monkeypatch):
    with pytest.raises(NoFeasiblePartitionError):
        _crafted_search(monkeypatch, ["1,2", "1|2"], [3.0, 2.0], [False, False])


def test_aligned_channels_prefer_universal():
    # nearly parallel channels cannot be separated; single common stream wins
    base = np.array([1.0, 0.5 + 0.2j, -0.3j, 0.1], dtype=complex)
    h = np.stack([base, base * (1 + 1e-3), base * (1 - 1e-3)], axis=1)
    part, _ = exhaustive_best(h, h, 10.0)
    assert part == Partition.universal(3)


def test_orthogonal_channels_prefer_singletons():
    h = np.eye(4, dtype=complex)[:, :2]
    part, _ = exhaustive_best(h, h, 10.0)
    assert part == Partition.singletons(2)


def test_exhaustive_guard():
    channels = random_channelset(8, 7, seed=51)
    with pytest.raises(ResourceLimitError):
        exhaustive_best(channels.H_true, channels.H_hat, 100.0)
