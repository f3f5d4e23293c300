"""Two-layer hierarchical rate splitting: precoders, power split, rates.

For a partition of the users into G groups, each user decodes three layers by
successive interference cancellation: an outer common message shared by all
users, an inner common message shared within its group, and a private
message. Group transmissions pass through a tall semi-unitary outer precoder
B_g that steers away from the other groups' dominant channel directions;
private messages use regularized zero forcing inside the reduced space, and
the common messages use matched-beamforming combinations of those columns.
The rates depend on the precoders only through the full-array beams: user k
sees |h_k^H B_g W_g|^2, |h_k^H B_g w_ic,g|^2 and |h_k^H w_oc|^2, so the
design hands ``rate`` those beams and no reduced-space piece.

Power is controlled by two fractions alpha, beta in (0, 1]:

    p_oc   = alpha * P                       (outer common)
    p_ic,g = (1 - alpha) * beta * P / G      (inner common, per group)
    p_gk   = (1 - alpha) * (1 - beta) * P / (G * N_g)   (private, per user)

so the three layers always sum to P. ``evaluate_partitions(H_true, H_hat,
partitions, total_power)`` takes rates against the true channel H_true while
every precoder is designed from the (possibly imperfect) estimate H_hat; a
brute-force sweep over the fixed grid ALPHA_GRID x BETA_GRID, as in Dai et
al. 2016, picks the best split per candidate. ``evaluate_partition`` is its
one-candidate call.

Precoder design is batched over every group of every candidate partition of
a draw: groups whose matrices share a shape go through one stacked LAPACK
call (SVD, solve) and one stacked matmul per step, which give the one-group
calls' results bit for bit. A search may pass a block -> basis dict (the
level sweep passes the dendrogram's); ``evaluate_partitions`` decomposes
each missing block once and hands ``compute_outer_precoders`` every basis.
At N = M = 12 a draw then takes about 46 SVD calls (11 in the
agglomeration, about 35 in the 12-level sweep), where one design pass per
level took about 66 and one call per group 253.

What a call costs beyond those LAPACK calls is kept small: the index arrays
of a partition are built once per ``Partition`` (its ``layout``), the
per-block minima of ``rate`` are one ``reduceat`` summed left to right, and
the norms spell out the operations ``np.linalg.norm`` runs, which keeps
every result the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import FeasibilityError, NumericalConsistencyError
from .partitions import Partition

RANK_TOL_REL = 1e-12
DENOMINATOR_GUARD = -1e-12
_TINY = np.finfo(float).tiny


# The power-split sweep: ten uniform points on (0, 1] per fraction, plus a
# near-zero alpha that effectively switches the outer common layer off.
ALPHA_GRID = (1e-3,) + tuple((i + 1) / 10 for i in range(10))
BETA_GRID = tuple((i + 1) / 10 for i in range(10))


def _pairs(alphas: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Every (alpha, beta) pair of ``alphas`` x BETA_GRID as two read-only
    (K,) arrays, alpha-major, so the first maximizer is the smallest alpha,
    then beta."""
    alpha, beta = np.repeat(alphas, len(BETA_GRID)), np.tile(BETA_GRID, len(alphas))
    alpha.flags.writeable = beta.flags.writeable = False
    return alpha, beta


# The splits a candidate sweeps: the full grid, or for a single group alpha
# pinned at the grid minimum (see ``evaluate_partitions``).
_SPLITS = _pairs(ALPHA_GRID)
_ONE_GROUP_SPLITS = _pairs(ALPHA_GRID[:1])


@dataclass(frozen=True)
class PrecoderSet:
    """The full-array beams of one partition, each column of unit norm: per
    group the (M, N_g) private beams B_g W_g (columns in block order) and the
    (M,) inner-common beam B_g w_ic,g, and the (M,) outer-common vector."""

    private: tuple[np.ndarray, ...]
    inner: tuple[np.ndarray, ...]
    w_oc: np.ndarray


def split_power(alpha: np.ndarray, beta: np.ndarray, total_power: float, partition: Partition):
    """p_oc (K,), p_ic (K, G) and p_priv (K, N) for K (alpha, beta) pairs given as two (K,) arrays."""
    g_count = partition.num_groups
    per_user_scale = 1.0 / (g_count * partition.layout.size)
    below_oc = 1.0 - alpha  # the share the outer common layer leaves
    p_ic = below_oc * beta * total_power / g_count
    p_priv = below_oc * (1.0 - beta) * total_power
    return alpha * total_power, p_ic[:, None].repeat(g_count, axis=1), p_priv[:, None] * per_user_scale


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


@cache
def _identity(n: int, dtype=float) -> np.ndarray:
    """Read-only (n, n) identity, built once per size and dtype."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


def norm(x: np.ndarray):
    """``np.linalg.norm(x)`` of a complex array, the same operations without
    the wrapper's dispatch, so it gives the same bits."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``norm`` of each row of a (K, n) complex array whose rows are
    contiguous. A (1, n) @ (n, 1) matmul runs the same BLAS dot as the 1-D
    ``dot`` in ``norm``, so one stacked matmul per part gives the same bits."""
    re, im = x.real, x.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _classes(keys) -> dict:
    """Indices of equal keys, in first-seen order: the members of one stacked call."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _stacked(arrays, members) -> np.ndarray:
    # np.stack's own concatenate, without its checks: it keeps each item's
    # memory layout (np.array would make it C order), so BLAS sees the same
    # operands as it would one group at a time
    return np.concatenate([arrays[i][None] for i in members])


def _dominant_bases(H_hat_grouped) -> list[np.ndarray]:
    """Left singular vectors of each group's channel (thin SVD), one stacked
    SVD per group shape."""
    groups = list(H_hat_grouped)
    out: list = [None] * len(groups)
    for members in _classes(h.shape for h in groups).values():
        u = np.linalg.svd(_stacked(groups, members), full_matrices=False)[0]
        for i, u_i in zip(members, u):
            out[i] = u_i
    return out


def compute_outer_precoders(grouped, dominant) -> list[list[np.ndarray]]:
    """Per-group semi-unitary (M, d) precoders, d = floor(M / G), that null
    the other groups' dominant channel directions, for every candidate
    partition in ``grouped`` (one list of group channels per candidate).

    For group g the d dominant left singular vectors of every other group's
    estimated channel are stacked; B_g holds the d dominant directions of
    group g's channel inside the orthogonal complement of that stack, which
    has at least M - (G - 1) d >= d dimensions, so every column of B_g is
    orthogonal to every retained interference direction. A single group
    needs no nulling and uses the (M, M) identity. More groups than antennas
    raise FeasibilityError.

    ``dominant`` gives each candidate's per-group left singular vectors (as
    from ``_dominant_bases``, or the bases an agglomeration cached; None for
    a one-group candidate). Across all candidates the complement SVDs run as
    one stacked call per stack shape and the reduced SVDs as one per
    (complement width, N_g, d), since a rank-deficient stack widens its
    complement.
    """
    for groups in grouped:
        m = groups[0].shape[0]
        if any(h.shape[0] != m for h in groups):
            raise FeasibilityError("grouped channels disagree on antenna count")
        if any(h.shape[1] < 1 for h in groups):
            raise FeasibilityError("every group must contain at least one user")
        if len(groups) > m:
            raise FeasibilityError(f"G={len(groups)} groups exceed what M={m} antennas can separate")

    outer = [[None] * len(groups) for groups in grouped]
    stacks: dict = {}  # stack width -> ((candidate, group, d) triples, (K, M, width) stacks)
    for c, groups in enumerate(grouped):
        m, g_count = groups[0].shape[0], len(groups)
        if g_count == 1:
            outer[c][0] = _identity(m, complex)
            continue
        d = m // g_count
        bases = [u[:, :d] for u in dominant[c]]
        widths = [u.shape[1] for u in bases]
        every = np.concatenate(bases, axis=1)
        owner = np.repeat(np.arange(g_count), widths)
        # group g's stack is every other group's dominant columns, in group order
        for members in _classes(widths).values():
            cols = np.nonzero(owner != np.array(members)[:, None])[1].reshape(len(members), -1)
            owners, arrays = stacks.setdefault(cols.shape[1], ([], []))
            owners += [(c, g, d) for g in members]
            arrays.append(every[:, cols].transpose(1, 0, 2))
    triples, complements = [], []
    for owners, arrays in stacks.values():
        u, s, _ = np.linalg.svd(arrays[0] if len(arrays) == 1 else np.concatenate(arrays), full_matrices=True)
        ranks = (s > s[:, :1] * RANK_TOL_REL).sum(axis=1)
        triples += owners
        complements += [u_g[:, rank:] for u_g, rank in zip(u, ranks.tolist())]  # orthonormal complement of the stack
    channels = [grouped[c][g] for c, g, _ in triples]
    shapes = [(u.shape[1], h.shape[1], t[2]) for u, h, t in zip(complements, channels, triples)]
    for (_, _, d), members in _classes(shapes).items():
        basis = _stacked(complements, members)
        u_r = np.linalg.svd(basis.conj().transpose(0, 2, 1) @ _stacked(channels, members), full_matrices=True)[0]
        for k, b_g in zip(members, basis @ u_r[:, :, :d]):
            c, g, _ = triples[k]
            outer[c][g] = b_g
    return outer


def compute_inner_precoders(B, grouped, total_power: float) -> list[PrecoderSet]:
    """Private RZF columns plus the two matched-beamforming common precoders,
    lifted to the full array, for every candidate partition: ``B`` and
    ``grouped`` hold one list of outer precoders and one of group channels
    per candidate.

    Inside each reduced space the private precoder is
    (H_eff H_eff^H + eps I)^-1 H_eff with eps = N_g / P, each column
    renormalized to unit norm so the per-user power split is exact. The
    inner common vector is the normalized sum of a group's private columns;
    the outer common vector is the normalized sum of every user's effective
    channel lifted back to the full array, summed in group order. Groups of
    one (B_g, H_g) shape, across all candidates, share each product, solve,
    norm and lift as one stacked call.
    """
    sizes = [len(groups) for groups in grouped]
    flat_b = [b for bs in B for b in bs]
    flat_h = [h for groups in grouped for h in groups]
    private, inner, lifted = [None] * len(flat_h), [None] * len(flat_h), [None] * len(flat_h)
    for members in _classes((b.shape, h.shape) for b, h in zip(flat_b, flat_h)).values():
        b = _stacked(flat_b, members)
        h_eff = b.conj().transpose(0, 2, 1) @ _stacked(flat_h, members)  # (K, d, N_g)
        eps = h_eff.shape[2] / total_power
        gram = h_eff @ h_eff.conj().transpose(0, 2, 1) + eps * _identity(h_eff.shape[1])
        w = np.linalg.solve(gram, h_eff)
        # np.linalg.norm(w, axis=1, keepdims=True), spelled out
        norms = np.sqrt(np.add.reduce((w.conj() * w).real, axis=1, keepdims=True))
        if (norms == 0.0).any():
            raise NumericalConsistencyError("RZF produced a zero private column")
        w = w / norms
        w_ic = w.sum(axis=2)
        # the 1-D norm of each row, not the axis= form: they round differently
        ic_norms = _row_norms(w_ic)
        if (ic_norms == 0.0).any():
            raise NumericalConsistencyError("inner-common combination vanished")
        w_ic /= ic_norms[:, None]
        beams, ic_beams, lifts = b @ w, (b @ w_ic[..., None])[:, :, 0], (b @ h_eff).sum(axis=2)
        for i, beam, ic_beam, lift in zip(members, beams, ic_beams, lifts):
            private[i], inner[i], lifted[i] = beam, ic_beam, lift
    out, start = [], 0
    for size in sizes:
        stop = start + size
        w_oc = np.zeros(flat_b[start].shape[0], dtype=complex)
        for v in lifted[start:stop]:  # in group order
            w_oc += v
        oc_norm = norm(w_oc)
        if oc_norm == 0.0:
            raise NumericalConsistencyError("outer-common combination vanished")
        out.append(PrecoderSet(tuple(private[start:stop]), tuple(inner[start:stop]), w_oc / oc_norm))
        start = stop
    return out


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
    layout = partition.layout
    v_priv = np.empty(H_true.shape, dtype=complex)
    v_priv[:, layout.order] = np.concatenate(precoders.private, axis=1)
    ht = H_true.conj().T  # |h^H v|^2 tables against the true channel, shared by every grid point
    # np.stack(precoders.inner, axis=1) without its checks
    common = np.abs(ht @ np.concatenate([v[:, None] for v in precoders.inner], axis=1)) ** 2  # (N, G)
    private = np.abs(ht @ v_priv) ** 2  # (N, N)
    outer = np.abs(ht @ precoders.w_oc) ** 2  # (N,)
    p_oc, p_ic, p_priv = split_power(alpha, beta, total_power, partition)
    interference = p_ic @ common.T + p_priv @ private.T  # (K, N)
    # every group gets the same inner-common power, so column 0 serves every user
    self_ic = p_ic[:, :1] * common[np.arange(H_true.shape[1]), layout.group]
    self_priv = p_priv * private.diagonal()

    den_oc = 1.0 + interference
    den_ic = den_oc - self_ic
    den_p = den_ic - self_priv
    worst = min(den_ic.min(), den_p.min())
    if worst < DENOMINATOR_GUARD:
        raise NumericalConsistencyError(
            f"SIC denominator fell to {worst:.3e}; self-terms exceed total interference"
        )

    gamma_oc = p_oc[:, None] * outer[None, :] / den_oc
    gamma_ic = self_ic / np.maximum(den_ic, _TINY)
    gamma_p = self_priv / np.maximum(den_p, _TINY)

    # minima over users down the rows of a transposed copy, which numpy
    # runs elementwise rather than one short row at a time
    r_oc = np.log2(1.0 + gamma_oc).T.copy().min(axis=0)
    r_ic_users = np.log2(1.0 + gamma_ic)
    # per-block minima, summed left to right in block order
    block_min = np.minimum.reduceat(r_ic_users[:, layout.order], layout.starts, axis=1)
    r_ic = np.add.accumulate(block_min, axis=1)[:, -1]
    r_p = np.log2(1.0 + gamma_p).sum(axis=1)
    totals = r_oc + r_ic + r_p
    best = int(np.argmax(totals))
    return RateBreakdown(
        float(r_oc[best]), float(r_ic[best]), float(r_p[best]), float(totals[best]),
        float(alpha[best]), float(beta[best]), True,
    )


def evaluate_partitions(
    H_true: np.ndarray, H_hat: np.ndarray, partitions, total_power: float, bases=None
) -> list[RateBreakdown]:
    """Best achievable rate of each candidate partition of one draw over the
    (alpha, beta) grid.

    Both matrices are (M, N). Precoders are designed from the estimate H_hat
    by the JSDM rule, d = floor(M / G) reduced dimensions per group, each
    nulling d dominant directions of every other group, and rates are taken
    against H_true; the grid sweep only rescales powers. A partition with
    more groups than antennas (G > M) cannot be served and gets a zero,
    infeasible breakdown; a ``total_power`` that is not finite and positive
    raises FeasibilityError. A single group never benefits from the outer
    common layer, so alpha is pinned at the grid minimum there.

    Every candidate is designed in one pass: the blocks' dominant SVDs, the
    outer and the inner design each run as stacked calls over all the
    candidates' groups, and only ``rate`` runs once per candidate. ``bases``
    is an optional block -> thin-SVD basis dict of H_hat's column blocks
    (the dendrogram's); blocks found there are not decomposed again.
    """
    if not math.isfinite(total_power) or total_power <= 0:
        raise FeasibilityError(f"total power must be finite and positive, got {total_power!r}")
    partitions = list(partitions)
    feasible = [p for p in partitions if p.num_groups <= H_hat.shape[0]]
    columns = {}
    for p in feasible:
        # one gather per candidate; a block's slice of it has the strides a
        # gather of the block alone would have
        gathered = H_hat[:, p.layout.order]
        for block, start in zip(p.blocks, p.layout.starts.tolist()):
            columns.setdefault(block, gathered[:, start : start + len(block)])
    grouped = [[columns[block] for block in p.blocks] for p in feasible]
    bases = dict(bases or {})
    missing = list(dict.fromkeys(b for p in feasible if p.num_groups > 1 for b in p.blocks if b not in bases))
    bases.update(zip(missing, _dominant_bases([columns[block] for block in missing])))
    dominant = [[bases[b] for b in p.blocks] if p.num_groups > 1 else None for p in feasible]
    precoders = iter(compute_inner_precoders(compute_outer_precoders(grouped, dominant), grouped, total_power))
    return [
        rate(H_true, p, next(precoders), *(_SPLITS if p.num_groups > 1 else _ONE_GROUP_SPLITS), total_power)
        if p.num_groups <= H_hat.shape[0]
        else RateBreakdown.infeasible()
        for p in partitions
    ]


def evaluate_partition(
    H_true: np.ndarray, H_hat: np.ndarray, partition: Partition, total_power: float
) -> RateBreakdown:
    """``evaluate_partitions`` of a single candidate."""
    return evaluate_partitions(H_true, H_hat, [partition], total_power)[0]
