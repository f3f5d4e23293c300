"""Two-layer hierarchical rate splitting: precoders, power split, rates.

For a partition of the users into G groups, each user decodes three layers by
successive interference cancellation: an outer common message shared by all
users, an inner common message shared within its group, and a private
message. Group transmissions pass through a tall semi-unitary outer precoder
B_g that steers away from the other groups' dominant channel directions;
private messages use regularized zero forcing inside the reduced space, and
the common messages use matched-beamforming combinations of those columns.

Power is controlled by two fractions alpha, beta in (0, 1]:

    p_oc   = alpha * P                       (outer common)
    p_ic,g = (1 - alpha) * beta * P / G      (inner common, per group)
    p_gk   = (1 - alpha) * (1 - beta) * P / (G * N_g)   (private, per user)

so the three layers always sum to P. Rates are evaluated against the true
channel while every precoder is designed from the (possibly imperfect)
estimate; a brute-force sweep over an (alpha, beta) grid picks the best
split per channel realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .errors import FeasibilityError, NumericalConsistencyError
from .partitions import Partition

RANK_TOL_REL = 1e-12
DENOMINATOR_GUARD = -1e-12


def uniform_alpha_grid(points: int = 10) -> tuple[float, ...]:
    # `points` uniform points on (0, 1] plus a near-zero entry that
    # effectively switches the outer common layer off.
    return (1e-3,) + tuple((i + 1) / points for i in range(points))


def uniform_beta_grid(points: int = 10) -> tuple[float, ...]:
    return tuple((i + 1) / points for i in range(points))


@dataclass(frozen=True)
class HrsConfig:
    """Precoder dimensioning and power-sweep parameters.

    ``b`` (reduced subspace size) and ``r`` (interference directions nulled
    per group) default to floor(M / G) for every group when left unset.
    """

    total_power: float = 100.0
    alpha_grid: tuple[float, ...] = uniform_alpha_grid()
    beta_grid: tuple[float, ...] = uniform_beta_grid()
    b: tuple[int, ...] | None = None
    r: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.total_power <= 0:
            raise FeasibilityError("total power must be positive")
        for name, grid in (("alpha", self.alpha_grid), ("beta", self.beta_grid)):
            if not grid or any(not 0.0 < v <= 1.0 for v in grid):
                raise FeasibilityError(f"{name} grid values must lie in (0, 1]")

    def group_dims(self, m: int, num_groups: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if self.b is not None and self.r is not None:
            if len(self.b) != num_groups or len(self.r) != num_groups:
                raise FeasibilityError(
                    f"explicit b/r must have one entry per group ({num_groups})"
                )
            return tuple(self.b), tuple(self.r)
        d = m // num_groups
        return (d,) * num_groups, (d,) * num_groups


def check_feasibility(m: int, b, r) -> None:
    """Raise FeasibilityError unless every group gets a workable precoder.

    ``b`` and ``r`` hold one entry per group. Requires b_g >= 1 (a group
    with no reduced dimensions cannot carry any message, which is what rules
    out all-singleton serving when G > M) and b_g + sum of the other groups'
    nulled directions <= M.
    """
    g_count = len(b)
    for g in range(g_count):
        if b[g] < 1:
            raise FeasibilityError(
                f"group {g} has b={b[g]} < 1 (G={g_count} groups exceed what "
                f"M={m} antennas can separate)",
                constraint="b_g >= 1",
            )
        r_star = sum(r[l] for l in range(g_count) if l != g)
        if b[g] + r_star > m:
            raise FeasibilityError(
                f"group {g}: b={b[g]} plus {r_star} nulled directions exceeds M={m}",
                constraint="b_g <= M - r*",
            )


@dataclass(frozen=True)
class PrecoderSet:
    """All precoders for one partition: outer B_g, private columns W_g,
    inner-common w_ic per group, and the global outer-common vector."""

    B: tuple[np.ndarray, ...]
    W: tuple[np.ndarray, ...]
    w_ic: tuple[np.ndarray, ...]
    w_oc: np.ndarray


@dataclass(frozen=True)
class PowerAllocation:
    alpha: float
    beta: float
    p_oc: float
    p_ic: np.ndarray  # per group
    p_priv: np.ndarray  # per user, indexed by 0-based user column

    @staticmethod
    def for_partition(alpha: float, beta: float, total_power: float, partition: Partition) -> "PowerAllocation":
        if not 0.0 < alpha <= 1.0 or not 0.0 < beta <= 1.0:
            raise FeasibilityError("alpha and beta must lie in (0, 1]")
        g_count = partition.num_groups
        p_oc = alpha * total_power
        p_ic = np.full(g_count, (1.0 - alpha) * beta * total_power / g_count)
        p_priv = np.empty(partition.num_users)
        for g, block in enumerate(partition.blocks):
            p_priv[partition.block_columns(g)] = (
                (1.0 - alpha) * (1.0 - beta) * total_power / (g_count * len(block))
            )
        return PowerAllocation(alpha, beta, p_oc, p_ic, p_priv)

    def total(self) -> float:
        return self.p_oc + self.p_ic.sum() + self.p_priv.sum()


@dataclass(frozen=True)
class RateBreakdown:
    """Achievable rate split into its three layers, in bps/Hz."""

    R_oc: float
    R_ic: float
    R_p: float
    R_total: float
    best_alpha: float
    best_beta: float
    feasible: bool

    @staticmethod
    def infeasible() -> "RateBreakdown":
        return RateBreakdown(0.0, 0.0, 0.0, 0.0, float("nan"), float("nan"), False)


def compute_outer_precoders(H_hat_grouped, config: HrsConfig, m: int | None = None) -> list[np.ndarray]:
    """Per-group semi-unitary precoders that null the other groups' dominant
    channel directions.

    For group g the r_l dominant left singular vectors of every other group's
    estimated channel are stacked; B_g is built from the dominant directions
    of group g's channel inside the orthogonal complement of that stack, so
    every column of B_g is orthogonal to every retained interference
    direction. A single group needs no nulling and uses the leading identity
    columns.
    """
    groups = [np.asarray(h) for h in H_hat_grouped]
    if m is None:
        m = groups[0].shape[0]
    if any(h.shape[0] != m for h in groups):
        raise FeasibilityError("grouped channels disagree on antenna count")
    if any(h.shape[1] < 1 for h in groups):
        raise FeasibilityError("every group must contain at least one user")
    g_count = len(groups)
    b, r = config.group_dims(m, g_count)
    check_feasibility(m, b, r)

    if g_count == 1:
        return [np.eye(m, dtype=complex)[:, : min(m, b[0])]]

    dominant = []
    for l in range(g_count):
        if r[l] == 0:
            dominant.append(np.zeros((m, 0), dtype=complex))
            continue
        u_l, _, _ = np.linalg.svd(groups[l], full_matrices=False)
        dominant.append(u_l[:, : r[l]])

    outer = []
    for g in range(g_count):
        stack = np.concatenate([dominant[l] for l in range(g_count) if l != g], axis=1)
        if stack.shape[1] == 0:
            basis = np.eye(m, dtype=complex)
        else:
            u_full, s_full, _ = np.linalg.svd(stack, full_matrices=True)
            rank = int(np.sum(s_full > s_full[0] * RANK_TOL_REL)) if s_full.size else 0
            basis = u_full[:, rank:]  # orthonormal complement of the stack
        reduced = basis.conj().T @ groups[g]
        u_r, _, _ = np.linalg.svd(reduced, full_matrices=True)
        if u_r.shape[1] < b[g]:
            raise FeasibilityError(
                f"group {g}: complement of the interference directions has only "
                f"{u_r.shape[1]} dimensions, need b={b[g]}"
            )
        outer.append(basis @ u_r[:, : b[g]])
    return outer


def compute_inner_precoders(
    B, H_hat_grouped, config: HrsConfig, epsilon: float | None = None
) -> PrecoderSet:
    """Private RZF columns plus the two matched-beamforming common precoders.

    Inside each reduced space the private precoder is
    (H_eff H_eff^H + eps I)^-1 H_eff with eps = N_g / P unless overridden,
    each column renormalized to unit norm so the per-user power split is
    exact. The inner common vector is the normalized sum of a group's
    private columns; the outer common vector is the normalized sum of every
    user's effective channel lifted back to the full array.
    """
    B = tuple(np.asarray(x) for x in B)
    groups = [np.asarray(h) for h in H_hat_grouped]
    m = B[0].shape[0]
    w_priv, w_ic = [], []
    w_oc = np.zeros(m, dtype=complex)
    for b_g, h_g in zip(B, groups):
        h_eff = b_g.conj().T @ h_g  # (b, N_g)
        n_g = h_eff.shape[1]
        eps = (n_g / config.total_power) if epsilon is None else float(epsilon)
        if eps <= 0:
            gram = h_eff @ h_eff.conj().T
            if np.linalg.matrix_rank(gram) < gram.shape[0]:
                raise NumericalConsistencyError(
                    "zero regularization with a rank-deficient effective channel"
                )
        gram = h_eff @ h_eff.conj().T + eps * np.eye(h_eff.shape[0])
        w = np.linalg.solve(gram, h_eff)
        norms = np.linalg.norm(w, axis=0)
        if np.any(norms == 0.0):
            raise NumericalConsistencyError("RZF produced a zero private column")
        w = w / norms
        combined = w.sum(axis=1)
        combined_norm = np.linalg.norm(combined)
        if combined_norm == 0.0:
            raise NumericalConsistencyError("inner-common combination vanished")
        w_priv.append(w)
        w_ic.append(combined / combined_norm)
        w_oc += (b_g @ h_eff).sum(axis=1)
    oc_norm = np.linalg.norm(w_oc)
    if oc_norm == 0.0:
        raise NumericalConsistencyError("outer-common combination vanished")
    return PrecoderSet(B, tuple(w_priv), tuple(w_ic), w_oc / oc_norm)


class _LinkGains:
    """|h^H v|^2 tables against the true channel, shared by every grid point."""

    def __init__(self, H_true: np.ndarray, partition: Partition, precoders: PrecoderSet):
        n = H_true.shape[1]
        g_count = partition.num_groups
        m = H_true.shape[0]
        v_ic = np.stack(
            [precoders.B[g] @ precoders.w_ic[g] for g in range(g_count)], axis=1
        )
        v_priv = np.empty((m, n), dtype=complex)
        for g in range(g_count):
            cols = partition.block_columns(g)
            v_priv[:, cols] = precoders.B[g] @ precoders.W[g]
        ht = H_true.conj().T
        self.common = np.abs(ht @ v_ic) ** 2  # (N, G)
        self.private = np.abs(ht @ v_priv) ** 2  # (N, N)
        self.outer = np.abs(ht @ precoders.w_oc) ** 2  # (N,)
        self.group_of_user = partition.group_of_user()
        self.blocks = [partition.block_columns(g) for g in range(g_count)]
        self.n = n


def _layer_rates(gains: _LinkGains, p_oc, p_ic, p_priv):
    """Rates for a batch of K power allocations.

    p_oc: (K,), p_ic: (K, G), p_priv: (K, N). Returns (K,) arrays
    (R_oc, R_ic, R_p). The interference seen by a user sums the inner-common
    and private leakage of every group and every user; the user's own terms
    are then subtracted in the lower SIC layers.
    """
    users = np.arange(gains.n)
    interference = p_ic @ gains.common.T + p_priv @ gains.private.T  # (K, N)
    self_ic = p_ic[:, gains.group_of_user] * gains.common[users, gains.group_of_user]
    self_priv = p_priv * gains.private[users, users]

    den_oc = 1.0 + interference
    den_ic = den_oc - self_ic
    den_p = den_ic - self_priv
    worst = min(den_ic.min(), den_p.min())
    if worst < DENOMINATOR_GUARD:
        raise NumericalConsistencyError(
            f"SIC denominator fell to {worst:.3e}; self-terms exceed total interference"
        )

    gamma_oc = p_oc[:, None] * gains.outer[None, :] / den_oc
    gamma_ic = self_ic / np.maximum(den_ic, np.finfo(float).tiny)
    gamma_p = self_priv / np.maximum(den_p, np.finfo(float).tiny)

    r_oc = np.log2(1.0 + gamma_oc).min(axis=1)
    r_ic_users = np.log2(1.0 + gamma_ic)
    r_ic = sum(r_ic_users[:, cols].min(axis=1) for cols in gains.blocks)
    r_p = np.log2(1.0 + gamma_p).sum(axis=1)
    return r_oc, r_ic, r_p


def compute_sinr_and_rate(
    H_true: np.ndarray,
    partition: Partition,
    precoders: PrecoderSet,
    power: PowerAllocation,
) -> RateBreakdown:
    """Exact layer rates for one power allocation against the true channel."""
    gains = _LinkGains(H_true, partition, precoders)
    r_oc, r_ic, r_p = _layer_rates(
        gains,
        np.array([power.p_oc]),
        power.p_ic[None, :],
        power.p_priv[None, :],
    )
    return RateBreakdown(
        float(r_oc[0]),
        float(r_ic[0]),
        float(r_p[0]),
        float(r_oc[0] + r_ic[0] + r_p[0]),
        power.alpha,
        power.beta,
        True,
    )


def evaluate_partition(
    channels: ChannelSet, partition: Partition, config: HrsConfig
) -> RateBreakdown:
    """Best achievable rate for one partition over the (alpha, beta) grid.

    Precoders are designed once from the channel estimate; the grid sweep
    only rescales powers. Partitions that cannot be served return a zero,
    infeasible breakdown. A single group never benefits from the outer
    common layer, so alpha is pinned at the grid minimum there.
    """
    g_count = partition.num_groups
    m = channels.num_antennas
    b, r = config.group_dims(m, g_count)
    try:
        check_feasibility(m, b, r)
    except FeasibilityError:
        return RateBreakdown.infeasible()

    grouped = [channels.H_hat[:, partition.block_columns(g)] for g in range(g_count)]
    outer = compute_outer_precoders(grouped, config, m)
    precoders = compute_inner_precoders(outer, grouped, config)
    gains = _LinkGains(channels.H_true, partition, precoders)

    alphas = (min(config.alpha_grid),) if g_count == 1 else config.alpha_grid
    betas = config.beta_grid
    p = config.total_power
    combos = [(a, bb) for a in alphas for bb in betas]
    k = len(combos)
    p_oc = np.array([a * p for a, _ in combos])
    p_ic = np.empty((k, g_count))
    p_priv = np.empty((k, partition.num_users))
    sizes = np.array([len(blk) for blk in partition.blocks])
    per_user_scale = np.empty(partition.num_users)
    for g in range(g_count):
        per_user_scale[partition.block_columns(g)] = 1.0 / (g_count * sizes[g])
    for i, (a, bb) in enumerate(combos):
        p_ic[i] = (1.0 - a) * bb * p / g_count
        p_priv[i] = (1.0 - a) * (1.0 - bb) * p * per_user_scale

    r_oc, r_ic, r_p = _layer_rates(gains, p_oc, p_ic, p_priv)
    totals = r_oc + r_ic + r_p
    best = int(np.argmax(totals))  # first maximizer; combo order is fixed
    a, bb = combos[best]
    return RateBreakdown(
        float(r_oc[best]), float(r_ic[best]), float(r_p[best]), float(totals[best]), a, bb, True
    )
