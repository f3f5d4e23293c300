import dataclasses

import numpy as np
import pytest
from scipy.linalg import null_space

from conftest import outer_precoders, random_channelset
from hrscluster import data, hrs
from hrscluster.clustering import agglomerate, best_partition, exhaustive_best
from hrscluster.errors import FeasibilityError
from hrscluster.hrs import (
    RANK_TOL_REL,
    PrecoderSet,
    RateBreakdown,
    compute_inner_precoders,
    compute_outer_precoders,
    evaluate_partition,
    evaluate_partitions,
    rate,
    split_power,
)
from hrscluster.partitions import Partition, enumerate_partitions
from reference import relabeled


def complex_gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


# ---------------------------------------------------------------- power split


def _one_split(alpha, beta, total_power, partition):
    p_oc, p_ic, p_priv = split_power(np.array([alpha]), np.array([beta]), total_power, partition)
    return p_oc[0], p_ic[0], p_priv[0]


def test_power_allocation_formulas():
    p = Partition.from_blocks([[1, 2], [3]])
    p_oc, p_ic, p_priv = _one_split(0.3, 0.5, 100.0, p)
    assert p_oc == pytest.approx(30.0)
    assert p_ic == pytest.approx([0.7 * 0.5 * 100 / 2] * 2)
    # private budget splits equally over groups, then over group members
    assert p_priv[0] == pytest.approx(0.7 * 0.5 * 100 / (2 * 2))
    assert p_priv[2] == pytest.approx(0.7 * 0.5 * 100 / (2 * 1))


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
        p_oc, p_ic, p_priv = _one_split(alpha, beta, power, p)
        assert p_oc + p_ic.sum() + p_priv.sum() == pytest.approx(power, rel=1e-9)


def test_config_rejects_out_of_domain_power():
    channels = random_channelset(2, 2, seed=20)
    partition = Partition.universal(2)
    for power in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(FeasibilityError, match="total power must be finite and positive"):
            evaluate_partition(channels.H_true, channels.H_hat, partition, power)
    assert evaluate_partition(channels.H_true, channels.H_hat, partition, 1e-9).feasible  # any finite positive power


# ------------------------------------------------------------ outer precoders


def test_single_group_uses_identity_columns():
    h = complex_gaussian(np.random.default_rng(0), (4, 3))
    (b1,) = outer_precoders([h])
    assert np.allclose(b1, np.eye(4))


def test_fully_orthogonal_groups_are_nulled_exactly():
    # group channels live on disjoint identity columns
    h1 = np.eye(4, dtype=complex)[:, :2]
    h2 = np.eye(4, dtype=complex)[:, 2:]
    b = outer_precoders([h1, h2])
    assert np.abs(b[0].conj().T @ h2).max() < 1e-8
    assert np.abs(b[1].conj().T @ h1).max() < 1e-8
    # own group passes through untouched by the projection
    assert np.linalg.norm(b[0] @ (b[0].conj().T @ h1) - h1) < 1e-8


def test_outer_precoder_nulls_dominant_directions_of_other_group(rng):
    # oracle: null space of the stacked dominant directions, computed with
    # scipy, must contain every column of B_g
    m = 8
    for trial in range(10):
        h1 = complex_gaussian(rng, (m, 3))
        h2 = complex_gaussian(rng, (m, 4))
        b = outer_precoders([h1, h2])  # d = 8 // 2 = 4
        for g, other in ((0, h2), (1, h1)):
            u, _, _ = np.linalg.svd(other, full_matrices=False)
            dominant = u[:, :4]
            for col in range(b[g].shape[1]):
                assert np.abs(dominant.conj().T @ b[g][:, col]).max() <= 1e-8
            z = null_space(dominant.conj().T)
            residual = b[g] - z @ (z.conj().T @ b[g])
            assert np.abs(residual).max() <= 1e-8


def test_outer_precoders_are_semi_unitary(rng):
    h = [complex_gaussian(rng, (8, 2)) for _ in range(3)]
    for b in outer_precoders(h):
        gram = b.conj().T @ b
        assert np.abs(gram - np.eye(b.shape[1])).max() < 1e-8


def test_feasibility_rules():
    # more groups than antennas: floor(M/G) = 0
    with pytest.raises(FeasibilityError, match="exceed"):
        outer_precoders([np.ones((4, 1))] * 8)
    # a group without users
    with pytest.raises(FeasibilityError, match="at least one user"):
        outer_precoders([np.ones((4, 1)), np.zeros((4, 0))])
    with pytest.raises(FeasibilityError, match="antenna count"):
        outer_precoders([np.ones((4, 1)), np.ones((3, 1))])


# ------------------------------------------------------------ inner precoders


def test_single_user_rzf_is_matched_filter():
    power = 2.0
    b = [np.eye(2, dtype=complex)]
    h = [np.array([[1.0], [0.0]], dtype=complex)]
    (pre,) = compute_inner_precoders([b], [h], power)
    assert np.allclose(pre.private[0][:, 0], [1.0, 0.0])
    assert np.allclose(pre.inner[0], [1.0, 0.0])
    assert np.allclose(pre.w_oc, [1.0, 0.0])


def test_all_precoders_unit_norm(rng):
    power = 50.0
    for _ in range(20):
        groups = [complex_gaussian(rng, (8, k)) for k in (2, 3)]
        b = outer_precoders(groups)
        (pre,) = compute_inner_precoders([b], [groups], power)
        for w in pre.private:
            assert np.abs(np.linalg.norm(w, axis=0) - 1.0).max() <= 1e-9
        for w in pre.inner:
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
        assert abs(np.linalg.norm(pre.w_oc) - 1.0) <= 1e-9


def test_large_regularization_approaches_matched_filter(rng):
    power = 3e-6  # eps = N_g / P = 3 / 3e-6 = 1e6
    h = [complex_gaussian(rng, (4, 3))]
    b = [np.eye(4, dtype=complex)]
    (pre,) = compute_inner_precoders([b], [h], power)
    mf = h[0] / np.linalg.norm(h[0], axis=0)
    assert np.abs(pre.private[0] - mf).max() < 1e-4


# ------------------------------------------- stacked design, bit for bit


def _looped_outer(groups):
    """The one-group-at-a-time outer design, plus the rank of each group's stack."""
    m, g_count = groups[0].shape[0], len(groups)
    if g_count == 1:
        return [np.eye(m, dtype=complex)], []
    d = m // g_count
    dominant = [np.linalg.svd(h, full_matrices=False)[0][:, :d] for h in groups]
    outer, ranks = [], []
    for g in range(g_count):
        stack = np.concatenate([dominant[l] for l in range(g_count) if l != g], axis=1)
        u_full, s_full, _ = np.linalg.svd(stack, full_matrices=True)
        rank = int(np.sum(s_full > s_full[0] * RANK_TOL_REL))
        basis = u_full[:, rank:]
        u_r, _, _ = np.linalg.svd(basis.conj().T @ groups[g], full_matrices=True)
        outer.append(basis @ u_r[:, :d])
        ranks.append(rank)
    return outer, ranks


def _looped_inner(B, groups, total_power):
    """The one-group-at-a-time inner design: (W, w_ic, w_oc), W and w_ic in
    the reduced space."""
    w_priv, w_ic = [], []
    w_oc = np.zeros(B[0].shape[0], dtype=complex)
    for b_g, h_g in zip(B, groups):
        h_eff = b_g.conj().T @ h_g
        eps = h_eff.shape[1] / total_power
        gram = h_eff @ h_eff.conj().T + eps * np.eye(h_eff.shape[0])
        w = np.linalg.solve(gram, h_eff)
        w = w / np.linalg.norm(w, axis=0)
        combined = w.sum(axis=1)
        w_priv.append(w)
        w_ic.append(combined / np.linalg.norm(combined))
        w_oc += (b_g @ h_eff).sum(axis=1)
    return w_priv, w_ic, w_oc / np.linalg.norm(w_oc)


def _assert_stacked_design_matches_loops(groups, dominant=None):
    power = 100.0
    want_b, ranks = _looped_outer(groups)
    got_b = outer_precoders(groups) if dominant is None else compute_outer_precoders([groups], [dominant])[0]
    assert len(got_b) == len(want_b)
    assert all(np.array_equal(x, y) for x, y in zip(got_b, want_b))
    want_w, want_ic, want_oc = _looped_inner(want_b, groups, power)
    (got,) = compute_inner_precoders([got_b], [groups], power)
    assert len(got.private) == len(want_w) and len(got.inner) == len(want_ic)
    # the lift to the full array, one group at a time
    assert all(np.array_equal(x, b @ w) for x, b, w in zip(got.private, want_b, want_w))
    assert all(np.array_equal(x, b @ w) for x, b, w in zip(got.inner, want_b, want_ic))
    assert np.array_equal(got.w_oc, want_oc)
    return ranks


def test_stacked_design_matches_group_loops_on_every_small_partition():
    for m in (1, 2, 3, 4, 5, 6, 8):
        for n in range(1, 7):
            h = random_channelset(m, n, seed=100 * m + n, tau=0.3).H_hat
            for partition in enumerate_partitions(n):
                if partition.num_groups <= m:
                    groups = [h[:, cols] for cols in partition.layout.columns]
                    _assert_stacked_design_matches_loops(groups)


@pytest.mark.parametrize("users, antennas", [(12, 12), (12, 16)])
def test_stacked_design_matches_group_loops_on_dendrogram_levels(users, antennas):
    # the level sweep's path: dominant bases read from the dendrogram
    cfg = data.ScenarioConfig(users=users, antennas=antennas, samples=10, seed=3)
    for s in data.generate_samples(cfg):
        dendrogram = agglomerate(s.H_hat)
        for level in dendrogram.levels:
            groups = [s.H_hat[:, cols] for cols in level.layout.columns]
            dominant = [dendrogram.bases[b] for b in level.blocks] if level.num_groups > 1 else None
            _assert_stacked_design_matches_loops(groups, dominant)


def test_stacked_design_matches_group_loops_with_unequal_complement_ranks():
    # groups 1 and 2 hold parallel users, so their dominant directions
    # coincide and group 3's (4, 2) stack has rank 1 where the other two
    # stacks of that shape have rank 2; all three groups have two users
    rng = np.random.default_rng(7)
    a = complex_gaussian(rng, (4, 2))
    c = complex_gaussian(rng, (4, 2))
    groups = [a, (1.5 - 0.5j) * a[:, ::-1], c]
    assert _assert_stacked_design_matches_loops(groups) == [2, 2, 1]


# ------------------------------------------- every candidate in one pass


def _assert_same_breakdowns(got, want):
    # field by field and bit for bit; an infeasible breakdown's NaN equals NaN
    assert len(got) == len(want)
    for x, y in zip(got, want):
        for name in RateBreakdown.__dataclass_fields__:
            a, b = getattr(x, name), getattr(y, name)
            assert a == b or (np.isnan(a) and np.isnan(b)), (name, a, b)


def test_stacked_candidates_match_one_at_a_time_on_every_small_partition():
    power = 100.0
    for m in (1, 2, 3, 4, 5, 6, 8):
        for n in range(1, 7):
            channels = random_channelset(m, n, seed=100 * m + n, tau=0.3)
            partitions = enumerate_partitions(n)
            got = evaluate_partitions(channels.H_true, channels.H_hat, partitions, power)
            want = [evaluate_partition(channels.H_true, channels.H_hat, p, power) for p in partitions]
            _assert_same_breakdowns(got, want)


@pytest.mark.parametrize("users, antennas", [(12, 12), (12, 16), (8, 4)])
def test_stacked_candidates_match_one_at_a_time_on_dendrogram_levels(users, antennas):
    # the level sweep's path, on the dendrogram's bases, against fresh SVDs
    cfg = data.ScenarioConfig(users=users, antennas=antennas, samples=10, seed=3)
    infeasible = 0
    for s in data.generate_samples(cfg):
        dendrogram = agglomerate(s.H_hat)
        got = evaluate_partitions(s.H_true, s.H_hat, dendrogram.levels, cfg.total_power, dendrogram.bases)
        want = [evaluate_partition(s.H_true, s.H_hat, p, cfg.total_power) for p in dendrogram.levels]
        _assert_same_breakdowns(got, want)
        infeasible += sum(not r.feasible for r in got)
    assert (infeasible > 0) == (users > antennas)


def test_searches_design_every_candidate_in_one_pass(monkeypatch):
    cfg = data.ScenarioConfig(users=6, antennas=4, samples=1, seed=3)
    (s,) = data.generate_samples(cfg)
    calls = []
    for name in ("compute_outer_precoders", "compute_inner_precoders"):
        original = getattr(hrs, name)
        monkeypatch.setattr(hrs, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    best_partition(s.H_true, s.H_hat, agglomerate(s.H_hat), cfg.total_power)
    exhaustive_best(s.H_true, s.H_hat, cfg.total_power)
    assert calls == ["compute_outer_precoders", "compute_inner_precoders"] * 2


# ------------------------------------------------------------------ SINR/rate


def _precoders_for(H_hat, partition, total_power):
    groups = [H_hat[:, cols] for cols in partition.layout.columns]
    b = outer_precoders(groups)
    return compute_inner_precoders([b], [groups], total_power)[0]


def _reference_split_power(alpha, beta, total_power, partition):
    """``split_power`` with the block sizes and groups rebuilt from ``blocks``."""
    g_count = partition.num_groups
    sizes = np.array([len(blk) for blk in partition.blocks])
    group_of_user = np.empty(partition.num_users, dtype=int)
    for g, block in enumerate(partition.blocks):
        group_of_user[np.asarray(block) - 1] = g
    per_user_scale = 1.0 / (g_count * sizes[group_of_user])
    p_ic = (1.0 - alpha) * beta * total_power / g_count
    p_priv = (1.0 - alpha) * (1.0 - beta) * total_power
    return alpha * total_power, np.repeat(p_ic[:, None], g_count, axis=1), p_priv[:, None] * per_user_scale


def _reference_rate(H_true, partition, precoders, alpha, beta, total_power):
    """``rate`` with every index rebuilt from ``blocks``, the per-block
    minima summed by a Python ``sum`` and the minima taken along rows."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    blocks = [np.asarray(block, dtype=int) - 1 for block in partition.blocks]
    group_of_user = np.empty(partition.num_users, dtype=int)
    for g, cols in enumerate(blocks):
        group_of_user[cols] = g
    v_priv = np.empty(H_true.shape, dtype=complex)
    v_priv[:, np.concatenate(blocks)] = np.concatenate(precoders.private, axis=1)
    ht = H_true.conj().T
    common = np.abs(ht @ np.stack(precoders.inner, axis=1)) ** 2
    private = np.abs(ht @ v_priv) ** 2
    outer = np.abs(ht @ precoders.w_oc) ** 2
    p_oc, p_ic, p_priv = _reference_split_power(alpha, beta, total_power, partition)
    users = np.arange(H_true.shape[1])
    interference = p_ic @ common.T + p_priv @ private.T
    self_ic = p_ic[:, group_of_user] * common[users, group_of_user]
    self_priv = p_priv * private[users, users]
    den_oc = 1.0 + interference
    den_ic = den_oc - self_ic
    den_p = den_ic - self_priv
    gamma_oc = p_oc[:, None] * outer[None, :] / den_oc
    gamma_ic = self_ic / np.maximum(den_ic, np.finfo(float).tiny)
    gamma_p = self_priv / np.maximum(den_p, np.finfo(float).tiny)
    r_oc = np.log2(1.0 + gamma_oc).min(axis=1)
    r_ic_users = np.log2(1.0 + gamma_ic)
    r_ic = sum(r_ic_users[:, cols].min(axis=1) for cols in blocks)
    r_p = np.log2(1.0 + gamma_p).sum(axis=1)
    totals = r_oc + r_ic + r_p
    best = int(np.argmax(totals))
    return RateBreakdown(
        float(r_oc[best]), float(r_ic[best]), float(r_p[best]), float(totals[best]),
        float(alpha[best]), float(beta[best]), True,
    )


def _random_partitions(rng, n, count):
    """The universal and the singleton partition of n users, then ``count``
    partitions with a random number of groups."""
    out = [Partition.universal(n), Partition.singletons(n)]
    for _ in range(count):
        labels = rng.integers(0, rng.integers(1, n + 1), n)
        out.append(Partition.from_blocks([np.nonzero(labels == g)[0] + 1 for g in np.unique(labels)]))
    return out


def test_rate_matches_the_per_block_reference_bit_for_bit():
    rng = np.random.default_rng(41)
    power = 30.0
    grids = [
        hrs._SPLITS,
        hrs._ONE_GROUP_SPLITS,
        (np.array([0.3]), np.array([0.7])),
    ]
    for n in range(1, 13):
        channels = random_channelset(12, n, seed=400 + n, tau=0.4)
        for partition in _random_partitions(rng, n, 4):
            pre = _precoders_for(channels.H_hat, partition, power)
            for alpha, beta in grids:
                got = rate(channels.H_true, partition, pre, alpha, beta, power)
                want = _reference_rate(channels.H_true, partition, pre, alpha, beta, power)
                for field in dataclasses.fields(RateBreakdown):
                    assert getattr(got, field.name) == getattr(want, field.name), (partition.key(), field.name)
                ref = _reference_split_power(alpha, beta, power, partition)
                for got_part, want_part in zip(split_power(alpha, beta, power, partition), ref):
                    assert np.array_equal(got_part, want_part)


def test_inline_norms_match_numpy_bit_for_bit(rng):
    for _ in range(300):
        k, n = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        x = complex_gaussian(rng, (k, n)) * 10.0 ** rng.uniform(-6, 6)
        assert hrs.norm(x) == np.linalg.norm(x)
        assert hrs.norm(x[0]) == np.linalg.norm(x[0])
        # the inner-common and outer-common vectors are normalized this way
        assert np.array_equal(hrs._row_norms(x), [np.linalg.norm(row) for row in x])


def test_scalar_awgn_channel_rate():
    # single antenna, single user, unit channel, all power private
    h = np.ones((1, 1), dtype=complex)
    partition = Partition.universal(1)
    pre = PrecoderSet((np.ones((1, 1), dtype=complex),), (np.ones(1, dtype=complex),), np.ones(1, dtype=complex))
    tiny = 1e-12
    out = rate(h, partition, pre, [tiny], [tiny], 1.0)
    assert out.R_p == pytest.approx(1.0, abs=1e-9)
    assert out.R_total == pytest.approx(1.0, abs=1e-9)


def test_rate_total_is_sum_of_layers(rng):
    channels = random_channelset(4, 4, seed=21)
    partition = Partition.from_blocks([[1, 2], [3, 4]])
    power = 20.0
    pre = _precoders_for(channels.H_hat, partition, power)
    out = rate(channels.H_true, partition, pre, [0.4], [0.6], 20.0)
    assert out.R_total == pytest.approx(out.R_oc + out.R_ic + out.R_p, abs=1e-9)
    assert min(out.R_oc, out.R_ic, out.R_p) >= 0.0


def test_two_orthogonal_users_hand_computed_private_rate():
    # perfect CSI, orthogonal unit channels, negligible common power:
    # each user gets p = 10/2 with zero leakage, so R_p = 2 log2(1 + 5)
    h = np.eye(2, dtype=complex)
    partition = Partition.singletons(2)
    power = 10.0
    pre = _precoders_for(h, partition, power)
    tiny = 1e-12
    out = rate(h, partition, pre, [tiny], [tiny], 10.0)
    assert out.R_p == pytest.approx(2 * np.log2(1 + 5.0), abs=1e-9)


def test_sic_denominators_ordered(rng):
    # inner-common and private denominators never exceed the outer one
    channels = random_channelset(6, 5, seed=22)
    partition = Partition.from_blocks([[1, 2], [3, 4, 5]])
    power = 30.0
    pre = _precoders_for(channels.H_hat, partition, power)
    ht = channels.H_true.conj().T
    common = np.abs(ht @ np.stack(pre.inner, axis=1)) ** 2  # (N, G)
    private = np.abs(ht @ np.concatenate(pre.private, axis=1)) ** 2  # blocks are in user order here
    _, p_ic, p_priv = _one_split(0.25, 0.5, 30.0, partition)
    users = np.arange(5)
    group_of_user = partition.layout.group
    interference = p_ic @ common.T + p_priv @ private.T
    self_ic = p_ic[group_of_user] * common[users, group_of_user]
    self_p = p_priv * private[users, users]
    assert np.all(self_ic >= -1e-12)
    assert np.all(self_p >= -1e-12)
    assert np.all(interference - self_ic - self_p >= -1e-12)


def test_rate_monotone_in_power_for_fixed_precoders():
    channels = random_channelset(4, 4, seed=23)
    partition = Partition.from_blocks([[1, 3], [2, 4]])
    power = 10.0
    pre = _precoders_for(channels.H_hat, partition, power)
    for alpha, beta in ((0.2, 0.3), (0.7, 0.9), (1e-3, 0.1)):
        lo = rate(channels.H_true, partition, pre, [alpha], [beta], 10.0)
        hi = rate(channels.H_true, partition, pre, [alpha], [beta], 20.0)
        assert hi.R_total >= lo.R_total - 1e-12


# ----------------------------------------------------------- grid evaluation


def test_feasibility_table():
    # with d = floor(M/G) per group, a partition is servable exactly when
    # G <= M, and each group's outer precoder is (M, d) (the identity alone)
    power = 100.0
    for m in (1, 2, 3, 4, 5, 6, 8):
        for n in range(1, 7):
            channels = random_channelset(m, n, seed=100 * m + n, tau=0.3)
            for partition in enumerate_partitions(n):
                g_count = partition.num_groups
                out = evaluate_partition(channels.H_true, channels.H_hat, partition, power)
                assert out.feasible == (g_count <= m)
                groups = [channels.H_hat[:, cols] for cols in partition.layout.columns]
                if out.feasible:
                    outer = outer_precoders(groups)
                    assert [b.shape for b in outer] == [(m, m // g_count)] * g_count
                else:
                    with pytest.raises(FeasibilityError, match="exceed"):
                        outer_precoders(groups)


def test_singleton_partition_infeasible_when_users_exceed_antennas():
    channels = random_channelset(4, 8, seed=24)
    out = evaluate_partition(channels.H_true, channels.H_hat, Partition.singletons(8), 100.0)
    assert not out.feasible
    assert out.R_total == 0.0


def test_grid_search_dominates_every_grid_point():
    channels = random_channelset(4, 4, seed=25, tau=0.3)
    partition = Partition.from_blocks([[1, 2], [3, 4]])
    power = 25.0
    best = evaluate_partition(channels.H_true, channels.H_hat, partition, power)
    pre = _precoders_for(channels.H_hat, partition, power)
    for alpha in hrs.ALPHA_GRID:
        for beta in hrs.BETA_GRID:
            point = rate(channels.H_true, partition, pre, [alpha], [beta], 25.0)
            assert best.R_total >= point.R_total - 1e-9
    # and the reported maximizer reproduces its own rate
    again = rate(channels.H_true, partition, pre, [best.best_alpha], [best.best_beta], 25.0)
    assert again.R_total == pytest.approx(best.R_total, abs=1e-9)


@pytest.mark.parametrize("blocks", [[[1, 2, 3], [4], [5, 6]], [[1, 2, 3, 4, 5, 6]]])
def test_power_grid_rows_are_one_row_splits(blocks):
    partition = Partition.from_blocks(blocks)
    g_count = partition.num_groups
    power = 25.0
    alphas = (min(hrs.ALPHA_GRID),) if g_count == 1 else hrs.ALPHA_GRID
    alpha = np.repeat(alphas, len(hrs.BETA_GRID))
    beta = np.tile(hrs.BETA_GRID, len(alphas))
    p_oc, p_ic, p_priv = split_power(alpha, beta, 25.0, partition)
    for k in range(len(alpha)):
        a, b = float(alpha[k]), float(beta[k])
        one_oc, one_ic, one_priv = _one_split(a, b, 25.0, partition)
        assert one_oc == p_oc[k]
        assert np.array_equal(one_ic, p_ic[k]) and np.array_equal(one_priv, p_priv[k])
        # the scalar expressions of the former per-grid-point loop
        assert p_oc[k] == a * 25.0
        assert np.all(p_ic[k] == (1.0 - a) * b * 25.0 / g_count)
        for g, block in enumerate(partition.blocks):
            want = (1.0 - a) * (1.0 - b) * 25.0 * (1.0 / (g_count * len(block)))
            assert np.all(p_priv[k, partition.layout.columns[g]] == want)

    channels = random_channelset(8, 6, seed=26, tau=0.3)
    best = evaluate_partition(channels.H_true, channels.H_hat, partition, power)
    assert best.best_alpha in alphas and best.best_beta in hrs.BETA_GRID
    pre = _precoders_for(channels.H_hat, partition, power)
    again = rate(channels.H_true, partition, pre, [best.best_alpha], [best.best_beta], 25.0)
    # not bit-equal: numpy hands a one-row matmul to BLAS gemv and the grid's
    # to gemm, which sum the interference terms in different orders
    assert again.R_total == pytest.approx(best.R_total, rel=64 * np.finfo(float).eps, abs=0)


def test_orthogonal_groups_prefer_minimal_outer_common():
    # with zero inter-group leakage the outer common layer only burns power,
    # so the total rate is non-increasing in alpha
    h = np.eye(4, dtype=complex)
    partition = Partition.from_blocks([[1, 2], [3, 4]])
    power = 40.0
    pre = _precoders_for(h, partition, power)
    rates = []
    for alpha in hrs.ALPHA_GRID:
        rates.append(rate(h, partition, pre, [alpha], [0.5], 40.0).R_total)
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
    best = evaluate_partition(h, h, partition, power)
    assert best.best_alpha == min(hrs.ALPHA_GRID)


def test_single_group_pins_alpha_at_grid_minimum():
    channels = random_channelset(4, 3, seed=26)
    out = evaluate_partition(channels.H_true, channels.H_hat, Partition.universal(3), 10.0)
    assert out.feasible
    assert out.best_alpha == pytest.approx(1e-3)


def test_permutation_equivariance(rng):
    channels = random_channelset(6, 5, seed=27, tau=0.5)
    partition = Partition.from_blocks([[1, 4], [2, 3], [5]])
    power = 15.0
    base = evaluate_partition(channels.H_true, channels.H_hat, partition, power)
    perm = rng.permutation(5)
    inv = np.empty(5, dtype=int)
    inv[perm] = np.arange(5)
    out = evaluate_partition(channels.H_true[:, perm], channels.H_hat[:, perm], relabeled(partition, inv), power)
    assert out.R_total == pytest.approx(base.R_total, abs=1e-9)
