import numpy as np
import pytest
from scipy.linalg import null_space

from conftest import random_channelset
from hrscluster.errors import FeasibilityError
from hrscluster.hrs import (
    HrsConfig,
    PowerAllocation,
    PrecoderSet,
    check_feasibility,
    compute_inner_precoders,
    compute_outer_precoders,
    compute_sinr_and_rate,
    evaluate_partition,
)
from hrscluster.partitions import Partition


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# ---------------------------------------------------------------- power split


def test_power_allocation_formulas():
    p = Partition.from_blocks([[1, 2], [3]])
    alloc = PowerAllocation.for_partition(0.3, 0.5, 100.0, p)
    assert alloc.p_oc == pytest.approx(30.0)
    assert alloc.p_ic == pytest.approx([0.7 * 0.5 * 100 / 2] * 2)
    # private budget splits equally over groups, then over group members
    assert alloc.p_priv[0] == pytest.approx(0.7 * 0.5 * 100 / (2 * 2))
    assert alloc.p_priv[2] == pytest.approx(0.7 * 0.5 * 100 / (2 * 1))


def test_power_conservation_randomized(rng):
    for _ in range(200):
        n = int(rng.integers(1, 9))
        blocks, users = [], list(range(1, n + 1))
        while users:
            take = int(rng.integers(1, len(users) + 1))
            blocks.append(users[:take])
            users = users[take:]
        p = Partition.from_blocks(blocks)
        alpha = float(rng.uniform(1e-6, 1.0))
        beta = float(rng.uniform(1e-6, 1.0))
        power = float(rng.uniform(0.1, 500.0))
        alloc = PowerAllocation.for_partition(alpha, beta, power, p)
        assert alloc.total() == pytest.approx(power, rel=1e-9)


def test_power_allocation_domain():
    p = Partition.singletons(2)
    for alpha, beta in ((0.0, 0.5), (0.5, 0.0), (1.2, 0.5), (0.5, -0.1)):
        with pytest.raises(FeasibilityError):
            PowerAllocation.for_partition(alpha, beta, 1.0, p)


# ------------------------------------------------------------ outer precoders


def test_single_group_uses_identity_columns():
    cfg = HrsConfig(total_power=10.0)
    h = complex_gaussian(np.random.default_rng(0), (4, 3))
    (b1,) = compute_outer_precoders([h], cfg)
    assert np.allclose(b1, np.eye(4))


def test_fully_orthogonal_groups_are_nulled_exactly():
    # group channels live on disjoint identity columns
    h1 = np.eye(4, dtype=complex)[:, :2]
    h2 = np.eye(4, dtype=complex)[:, 2:]
    cfg = HrsConfig(total_power=10.0)
    b = compute_outer_precoders([h1, h2], cfg)
    assert np.abs(b[0].conj().T @ h2).max() < 1e-8
    assert np.abs(b[1].conj().T @ h1).max() < 1e-8
    # own group passes through untouched by the projection
    assert np.linalg.norm(b[0] @ (b[0].conj().T @ h1) - h1) < 1e-8


def test_outer_precoder_nulls_dominant_directions_of_other_group(rng):
    # oracle: null space of the stacked dominant directions, computed with
    # scipy, must contain every column of B_g
    m = 8
    cfg = HrsConfig(total_power=100.0)
    for trial in range(10):
        h1 = complex_gaussian(rng, (m, 3))
        h2 = complex_gaussian(rng, (m, 4))
        b = compute_outer_precoders([h1, h2], cfg)  # b_g = r_g = 4
        for g, other in ((0, h2), (1, h1)):
            u, _, _ = np.linalg.svd(other, full_matrices=False)
            dominant = u[:, :4]
            for col in range(b[g].shape[1]):
                assert np.abs(dominant.conj().T @ b[g][:, col]).max() <= 1e-8
            z = null_space(dominant.conj().T)
            residual = b[g] - z @ (z.conj().T @ b[g])
            assert np.abs(residual).max() <= 1e-8


def test_outer_precoders_are_semi_unitary(rng):
    cfg = HrsConfig(total_power=100.0)
    h = [complex_gaussian(rng, (8, 2)) for _ in range(3)]
    for b in compute_outer_precoders(h, cfg):
        gram = b.conj().T @ b
        assert np.abs(gram - np.eye(b.shape[1])).max() < 1e-8


def test_feasibility_rules():
    cfg = HrsConfig()
    # more groups than antennas: floor(M/G) = 0
    with pytest.raises(FeasibilityError):
        check_feasibility(4, *cfg.group_dims(4, 8))
    # explicit oversize request
    bad = HrsConfig(b=(3, 3), r=(3, 3))
    with pytest.raises(FeasibilityError):
        check_feasibility(4, *bad.group_dims(4, 2))
    # a group without users
    with pytest.raises(FeasibilityError, match="at least one user"):
        compute_outer_precoders([np.ones((4, 1)), np.zeros((4, 0))], cfg)


# ------------------------------------------------------------ inner precoders


def test_single_user_rzf_is_matched_filter():
    cfg = HrsConfig(total_power=2.0)
    b = [np.eye(2, dtype=complex)]
    h = [np.array([[1.0], [0.0]], dtype=complex)]
    pre = compute_inner_precoders(b, h, cfg)
    assert np.allclose(pre.W[0][:, 0], [1.0, 0.0])
    assert np.allclose(pre.w_ic[0], [1.0, 0.0])
    assert np.allclose(pre.w_oc, [1.0, 0.0])


def test_all_precoders_unit_norm(rng):
    cfg = HrsConfig(total_power=50.0)
    for _ in range(20):
        groups = [complex_gaussian(rng, (8, k)) for k in (2, 3)]
        b = compute_outer_precoders(groups, cfg)
        pre = compute_inner_precoders(b, groups, cfg)
        for w in pre.W:
            assert np.abs(np.linalg.norm(w, axis=0) - 1.0).max() <= 1e-9
        for w in pre.w_ic:
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
        assert abs(np.linalg.norm(pre.w_oc) - 1.0) <= 1e-9


def test_large_regularization_approaches_matched_filter(rng):
    cfg = HrsConfig(total_power=10.0)
    h = [complex_gaussian(rng, (4, 3))]
    b = [np.eye(4, dtype=complex)]
    pre = compute_inner_precoders(b, h, cfg, epsilon=1e6)
    mf = h[0] / np.linalg.norm(h[0], axis=0)
    assert np.abs(pre.W[0] - mf).max() < 1e-4


# ------------------------------------------------------------------ SINR/rate


def _precoders_for(channels, partition, cfg):
    groups = [channels.H_hat[:, partition.block_columns(g)] for g in range(partition.num_groups)]
    b = compute_outer_precoders(groups, cfg)
    return compute_inner_precoders(b, groups, cfg)


def test_scalar_awgn_channel_rate():
    # single antenna, single user, unit channel, all power private
    h = np.ones((1, 1), dtype=complex)
    partition = Partition.universal(1)
    pre = PrecoderSet(
        (np.eye(1, dtype=complex),),
        (np.ones((1, 1), dtype=complex),),
        (np.ones(1, dtype=complex),),
        np.ones(1, dtype=complex),
    )
    tiny = 1e-12
    alloc = PowerAllocation.for_partition(tiny, tiny, 1.0, partition)
    out = compute_sinr_and_rate(h, partition, pre, alloc)
    assert out.R_p == pytest.approx(1.0, abs=1e-9)
    assert out.R_total == pytest.approx(1.0, abs=1e-9)


def test_rate_total_is_sum_of_layers(rng):
    channels = random_channelset(4, 4, seed=21)
    partition = Partition.from_blocks([[1, 2], [3, 4]])
    cfg = HrsConfig(total_power=20.0)
    pre = _precoders_for(channels, partition, cfg)
    alloc = PowerAllocation.for_partition(0.4, 0.6, 20.0, partition)
    out = compute_sinr_and_rate(channels.H_true, partition, pre, alloc)
    assert out.R_total == pytest.approx(out.R_oc + out.R_ic + out.R_p, abs=1e-9)
    assert min(out.R_oc, out.R_ic, out.R_p) >= 0.0


def test_two_orthogonal_users_hand_computed_private_rate():
    # perfect CSI, orthogonal unit channels, negligible common power:
    # each user gets p = 10/2 with zero leakage, so R_p = 2 log2(1 + 5)
    from hrscluster.channel import ChannelSet

    h = np.eye(2, dtype=complex)
    channels = ChannelSet(h, h, (0, 0), 0.0, h.copy(), ())
    partition = Partition.singletons(2)
    cfg = HrsConfig(total_power=10.0)
    pre = _precoders_for(channels, partition, cfg)
    tiny = 1e-12
    alloc = PowerAllocation.for_partition(tiny, tiny, 10.0, partition)
    out = compute_sinr_and_rate(channels.H_true, partition, pre, alloc)
    assert out.R_p == pytest.approx(2 * np.log2(1 + 5.0), abs=1e-9)


def test_sic_denominators_ordered(rng):
    # inner-common and private denominators never exceed the outer one
    from hrscluster.hrs import _LinkGains

    channels = random_channelset(6, 5, seed=22)
    partition = Partition.from_blocks([[1, 2], [3, 4, 5]])
    cfg = HrsConfig(total_power=30.0)
    pre = _precoders_for(channels, partition, cfg)
    gains = _LinkGains(channels.H_true, partition, pre)
    alloc = PowerAllocation.for_partition(0.25, 0.5, 30.0, partition)
    users = np.arange(5)
    interference = alloc.p_ic @ gains.common.T + alloc.p_priv @ gains.private.T
    self_ic = alloc.p_ic[gains.group_of_user] * gains.common[users, gains.group_of_user]
    self_p = alloc.p_priv * gains.private[users, users]
    assert np.all(self_ic >= -1e-12)
    assert np.all(self_p >= -1e-12)
    assert np.all(interference - self_ic - self_p >= -1e-12)


def test_rate_monotone_in_power_for_fixed_precoders():
    channels = random_channelset(4, 4, seed=23)
    partition = Partition.from_blocks([[1, 3], [2, 4]])
    cfg = HrsConfig(total_power=10.0)
    pre = _precoders_for(channels, partition, cfg)
    for alpha, beta in ((0.2, 0.3), (0.7, 0.9), (1e-3, 0.1)):
        lo = compute_sinr_and_rate(
            channels.H_true, partition, pre, PowerAllocation.for_partition(alpha, beta, 10.0, partition)
        )
        hi = compute_sinr_and_rate(
            channels.H_true, partition, pre, PowerAllocation.for_partition(alpha, beta, 20.0, partition)
        )
        assert hi.R_total >= lo.R_total - 1e-12


# ----------------------------------------------------------- grid evaluation


def test_singleton_partition_infeasible_when_users_exceed_antennas():
    channels = random_channelset(4, 8, seed=24)
    out = evaluate_partition(channels, Partition.singletons(8), HrsConfig())
    assert not out.feasible
    assert out.R_total == 0.0


def test_grid_search_dominates_every_grid_point():
    channels = random_channelset(4, 4, seed=25, tau=0.3)
    partition = Partition.from_blocks([[1, 2], [3, 4]])
    cfg = HrsConfig(total_power=25.0)
    best = evaluate_partition(channels, partition, cfg)
    pre = _precoders_for(channels, partition, cfg)
    for alpha in cfg.alpha_grid:
        for beta in cfg.beta_grid:
            point = compute_sinr_and_rate(
                channels.H_true,
                partition,
                pre,
                PowerAllocation.for_partition(alpha, beta, 25.0, partition),
            )
            assert best.R_total >= point.R_total - 1e-9
    # and the reported maximizer reproduces its own rate
    again = compute_sinr_and_rate(
        channels.H_true,
        partition,
        pre,
        PowerAllocation.for_partition(best.best_alpha, best.best_beta, 25.0, partition),
    )
    assert again.R_total == pytest.approx(best.R_total, abs=1e-9)


def test_orthogonal_groups_prefer_minimal_outer_common():
    # with zero inter-group leakage the outer common layer only burns power,
    # so the total rate is non-increasing in alpha
    from hrscluster.channel import ChannelSet

    h = np.eye(4, dtype=complex)
    channels = ChannelSet(h, h, (0,) * 4, 0.0, h.copy(), ())
    partition = Partition.from_blocks([[1, 2], [3, 4]])
    cfg = HrsConfig(total_power=40.0)
    pre = _precoders_for(channels, partition, cfg)
    rates = []
    for alpha in cfg.alpha_grid:
        out = compute_sinr_and_rate(
            channels.H_true, partition, pre, PowerAllocation.for_partition(alpha, 0.5, 40.0, partition)
        )
        rates.append(out.R_total)
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    best = evaluate_partition(channels, partition, cfg)
    assert best.best_alpha == min(cfg.alpha_grid)


def test_single_group_pins_alpha_at_grid_minimum():
    channels = random_channelset(4, 3, seed=26)
    out = evaluate_partition(channels, Partition.universal(3), HrsConfig(total_power=10.0))
    assert out.feasible
    assert out.best_alpha == pytest.approx(1e-3)


def test_permutation_equivariance(rng):
    channels = random_channelset(6, 5, seed=27, tau=0.5)
    partition = Partition.from_blocks([[1, 4], [2, 3], [5]])
    cfg = HrsConfig(total_power=15.0)
    base = evaluate_partition(channels, partition, cfg)
    perm = rng.permutation(5)
    from hrscluster.channel import ChannelSet

    inv = np.empty(5, dtype=int)
    inv[perm] = np.arange(5)
    permuted = ChannelSet(
        channels.H_true[:, perm],
        channels.H_hat[:, perm],
        tuple(channels.cov_assignment[p] for p in perm),
        channels.tau,
        channels.innovations[:, perm],
        channels.covariances,
    )
    relabeled = partition.relabeled(inv)
    out = evaluate_partition(permuted, relabeled, cfg)
    assert out.R_total == pytest.approx(base.R_total, abs=1e-9)
