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

so the three layers always sum to P. ``evaluate_partition(H_true, H_hat,
partition, config)`` takes rates against the true channel H_true while every
precoder is designed from the (possibly imperfect) estimate H_hat; a
brute-force sweep over an (alpha, beta) grid picks the best split per
channel realization.

Precoder design is batched: groups whose matrices share a shape go through
one stacked LAPACK call (SVD, solve) and one stacked matmul per step, which
give the one-group calls' results bit for bit. A search over many
partitions of one draw passes a block -> basis dict, so no block's dominant
SVD runs twice; the level sweep reads it from the dendrogram. At N = M = 12
a draw then takes about 66 SVD calls (22 in the agglomeration, about 44 in
the 12-level sweep) where one call per group took 253.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Total transmit power and the (alpha, beta) sweep grids.

    Precoder dimensions are fixed by the JSDM rule: with G groups on M
    antennas every group gets d = floor(M / G) reduced dimensions and nulls d
    dominant directions of every other group, so a partition can be served
    exactly when G <= M.
    """

    total_power: float = 100.0
    alpha_grid: tuple[float, ...] = uniform_alpha_grid()
    beta_grid: tuple[float, ...] = uniform_beta_grid()

    def __post_init__(self):
        if self.total_power <= 0:
            raise FeasibilityError("total power must be positive")
        for name, grid in (("alpha", self.alpha_grid), ("beta", self.beta_grid)):
            if not grid or any(not 0.0 < v <= 1.0 for v in grid):
                raise FeasibilityError(f"{name} grid values must lie in (0, 1]")


@dataclass(frozen=True)
class PrecoderSet:
    """All precoders for one partition: outer B_g, private columns W_g,
    inner-common w_ic per group, and the global outer-common vector."""

    B: tuple[np.ndarray, ...]
    W: tuple[np.ndarray, ...]
    w_ic: tuple[np.ndarray, ...]
    w_oc: np.ndarray


def split_power(alpha: np.ndarray, beta: np.ndarray, total_power: float, partition: Partition):
    """p_oc (K,), p_ic (K, G) and p_priv (K, N) for K (alpha, beta) pairs given as two (K,) arrays."""
    g_count = partition.num_groups
    sizes = np.array([len(blk) for blk in partition.blocks])
    per_user_scale = 1.0 / (g_count * sizes[partition.group_of_user()])
    p_ic = (1.0 - alpha) * beta * total_power / g_count
    p_priv = (1.0 - alpha) * (1.0 - beta) * total_power
    return alpha * total_power, np.repeat(p_ic[:, None], g_count, axis=1), p_priv[:, None] * per_user_scale


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


def _classes(keys) -> dict:
    """Indices of equal keys, in first-seen order: the members of one stacked call."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _stacked(arrays, members) -> np.ndarray:
    # np.stack keeps each item's memory layout (np.array would make it C
    # order), so BLAS sees the same operands as it would one group at a time
    return np.stack([arrays[i] for i in members])


def _dominant_bases(H_hat_grouped) -> list[np.ndarray]:
    """Left singular vectors of each group's channel (thin SVD), one stacked
    SVD per group shape."""
    groups = [np.asarray(h) for h in H_hat_grouped]
    out: list = [None] * len(groups)
    for members in _classes(h.shape for h in groups).values():
        u = np.linalg.svd(_stacked(groups, members), full_matrices=False)[0]
        for i, u_i in zip(members, u):
            out[i] = u_i
    return out


def compute_outer_precoders(H_hat_grouped, dominant=None) -> list[np.ndarray]:
    """Per-group semi-unitary (M, d) precoders, d = floor(M / G), that null
    the other groups' dominant channel directions.

    For group g the d dominant left singular vectors of every other group's
    estimated channel are stacked; B_g holds the d dominant directions of
    group g's channel inside the orthogonal complement of that stack, which
    has at least M - (G - 1) d >= d dimensions, so every column of B_g is
    orthogonal to every retained interference direction. A single group
    needs no nulling and uses the (M, M) identity. More groups than antennas
    raise FeasibilityError.

    ``dominant`` may give each group's left singular vectors (as from
    ``_dominant_bases``, or the bases an agglomeration cached); otherwise
    they are computed here. The complement SVDs run as one stacked call per
    stack shape and the reduced SVDs as one per (complement width, N_g),
    since a rank-deficient stack widens its complement.
    """
    groups = [np.asarray(h) for h in H_hat_grouped]
    m = groups[0].shape[0]
    if any(h.shape[0] != m for h in groups):
        raise FeasibilityError("grouped channels disagree on antenna count")
    if any(h.shape[1] < 1 for h in groups):
        raise FeasibilityError("every group must contain at least one user")
    g_count = len(groups)
    if g_count > m:
        raise FeasibilityError(f"G={g_count} groups exceed what M={m} antennas can separate")
    if g_count == 1:
        return [np.eye(m, dtype=complex)]

    d = m // g_count
    if dominant is None:
        dominant = _dominant_bases(groups)
    dominant = [u[:, :d] for u in dominant]
    widths = [u.shape[1] for u in dominant]
    every = np.concatenate(dominant, axis=1)
    owner = np.repeat(np.arange(g_count), widths)
    u_full: list = [None] * g_count
    # group g's stack is every other group's dominant columns, in group order
    for members in _classes(widths).values():
        cols = np.nonzero(owner != np.array(members)[:, None])[1].reshape(len(members), -1)
        u, s, _ = np.linalg.svd(every[:, cols].transpose(1, 0, 2), full_matrices=True)
        ranks = np.sum(s > s[:, :1] * RANK_TOL_REL, axis=1)
        for g, u_g, rank in zip(members, u, ranks):
            u_full[g] = u_g[:, rank:]  # orthonormal complement of the stack
    outer: list = [None] * g_count
    for members in _classes((u.shape[1], h.shape[1]) for u, h in zip(u_full, groups)).values():
        basis = _stacked(u_full, members)
        u_r = np.linalg.svd(basis.conj().transpose(0, 2, 1) @ _stacked(groups, members), full_matrices=True)[0]
        for g, b_g in zip(members, basis @ u_r[:, :, :d]):
            outer[g] = b_g
    return outer


def compute_inner_precoders(B, H_hat_grouped, config: HrsConfig) -> PrecoderSet:
    """Private RZF columns plus the two matched-beamforming common precoders.

    Inside each reduced space the private precoder is
    (H_eff H_eff^H + eps I)^-1 H_eff with eps = N_g / P, each column
    renormalized to unit norm so the per-user power split is exact. The
    inner common vector is the normalized sum of a group's private columns;
    the outer common vector is the normalized sum of every user's effective
    channel lifted back to the full array. Groups of one size share each
    product, solve and norm as one stacked call.
    """
    B = tuple(np.asarray(x) for x in B)
    groups = [np.asarray(h) for h in H_hat_grouped]
    g_count = len(groups)
    w_priv, w_ic, lifted = [None] * g_count, [None] * g_count, [None] * g_count
    for members in _classes((b.shape, h.shape) for b, h in zip(B, groups)).values():
        b = _stacked(B, members)
        h_eff = b.conj().transpose(0, 2, 1) @ _stacked(groups, members)  # (K, d, N_g)
        eps = h_eff.shape[2] / config.total_power
        gram = h_eff @ h_eff.conj().transpose(0, 2, 1) + eps * np.eye(h_eff.shape[1])
        w = np.linalg.solve(gram, h_eff)
        norms = np.linalg.norm(w, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise NumericalConsistencyError("RZF produced a zero private column")
        w = w / norms
        ic_sums, lifts = w.sum(axis=2), (b @ h_eff).sum(axis=2)
        for k, g in enumerate(members):
            w_priv[g], w_ic[g], lifted[g] = w[k], ic_sums[k], lifts[k]
    for g, combined in enumerate(w_ic):
        # the 1-D norm, not the axis= form: they round differently
        combined_norm = np.linalg.norm(combined)
        if combined_norm == 0.0:
            raise NumericalConsistencyError("inner-common combination vanished")
        w_ic[g] = combined / combined_norm
    w_oc = np.zeros(B[0].shape[0], dtype=complex)
    for v in lifted:  # in group order
        w_oc += v
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


def rate(
    H_true: np.ndarray, partition: Partition, precoders: PrecoderSet, alpha, beta, total_power: float
) -> RateBreakdown:
    """Layer rates against the true channel at the best of K power splits.

    ``alpha`` and ``beta`` are (K,) arrays; the first maximizer wins. The
    interference seen by a user sums the inner-common and private leakage of
    every group and every user; the user's own terms are then subtracted in
    the lower SIC layers.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    gains = _LinkGains(H_true, partition, precoders)
    p_oc, p_ic, p_priv = split_power(alpha, beta, total_power, partition)
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
    totals = r_oc + r_ic + r_p
    best = int(np.argmax(totals))
    return RateBreakdown(
        float(r_oc[best]), float(r_ic[best]), float(r_p[best]), float(totals[best]),
        float(alpha[best]), float(beta[best]), True,
    )


def evaluate_partition(
    H_true: np.ndarray, H_hat: np.ndarray, partition: Partition, config: HrsConfig, bases=None
) -> RateBreakdown:
    """Best achievable rate for one partition over the (alpha, beta) grid.

    Both matrices are (M, N). Precoders are designed once from the estimate
    H_hat with d = floor(M / G) dimensions per group and rates are taken
    against H_true; the grid sweep only rescales powers. A partition with
    more groups than antennas (G > M) cannot be served and returns a zero,
    infeasible breakdown. A single group never benefits from the outer
    common layer, so alpha is pinned at the grid minimum there.

    ``bases`` is an optional block -> thin-SVD basis dict of H_hat's column
    blocks, shared by the partitions of one search: blocks found there are
    not decomposed again, and missing ones are added.
    """
    g_count = partition.num_groups
    if g_count > H_hat.shape[0]:
        return RateBreakdown.infeasible()

    grouped = [H_hat[:, partition.block_columns(g)] for g in range(g_count)]
    dominant = None
    if bases is not None and g_count > 1:
        missing = [g for g, block in enumerate(partition.blocks) if block not in bases]
        for g, u in zip(missing, _dominant_bases([grouped[g] for g in missing])):
            bases[partition.blocks[g]] = u
        dominant = [bases[block] for block in partition.blocks]
    outer = compute_outer_precoders(grouped, dominant)
    precoders = compute_inner_precoders(outer, grouped, config)

    alphas = (min(config.alpha_grid),) if g_count == 1 else config.alpha_grid
    betas = config.beta_grid
    # alpha-major, so the first maximizer is the smallest alpha, then beta
    alpha, beta = np.repeat(alphas, len(betas)), np.tile(betas, len(alphas))
    return rate(H_true, partition, precoders, alpha, beta, config.total_power)
