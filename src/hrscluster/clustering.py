"""Subspace-similarity user clustering and rate-based partition selection.

Two user groups are similar when their estimated channel column spaces share
principal directions. The projection-Frobenius score

    s(H_k, H_j) = trace(P_k P_j) / min(N_k, N_j)

(with P the orthogonal projector onto a column space) is the mean squared
cosine of the principal angles and lives in [0, 1]. For well-separated
cluster sizes the raw score is biased, so it is standardized against the
mean and deviation it takes on independent isotropic subspaces of the same
sizes; those constants have a closed form (see ``calibrate_similarity``)
and are tabulated once per scenario. Standardization needs M > N_k + N_j,
otherwise the raw score is used as is.

A bottom-up agglomeration of the estimate H_hat merges the most similar pair
of clusters one step at a time, yielding N nested partitions from
all-singletons to a single universal cluster; it decomposes each cluster's
basis once and scores each pair of clusters once, 2N - 2 SVDs per draw.
The dendrogram keeps those bases, and the level sweep designs its precoders
on them instead of decomposing the blocks again (see ``hrs``).
``best_partition(H_true, H_hat, dendrogram, config)`` picks the level with
the best achievable rate as the clustering decision; for small N
``exhaustive_best(H_true, H_hat, config)`` sweeps all set partitions as the
optimality reference. Both keep the highest rate, then the fewest groups,
and each evaluates all its candidates in one ``hrs.evaluate_partitions``
pass: at N = M = 12 the level sweep makes about 35 stacked SVD calls per
draw, on top of the agglomeration's 22.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import (
    CalibrationError,
    DegenerateInputError,
    NoFeasiblePartitionError,
    ResourceLimitError,
)
# evaluate_partition stays bound here for the callers that look it up on this
# module (perfbench wraps it on clustering as on evaluation)
from .hrs import HrsConfig, RateBreakdown, evaluate_partition, evaluate_partitions  # noqa: F401
from .partitions import Partition, enumerate_partitions

CONDITION_LIMIT = 1e12
EXHAUSTIVE_USER_LIMIT = 6


def projection_matrix(H_j: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column space of a full-column-rank matrix."""
    H_j = np.asarray(H_j)
    if H_j.ndim != 2 or H_j.shape[1] > H_j.shape[0]:
        raise DegenerateInputError(f"need a tall matrix, got shape {H_j.shape}")
    basis = _column_space_basis(H_j)
    return basis @ basis.conj().T


def _column_space_basis(H: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, at most min(M, N) vectors.

    Clusters stacked wider than the antenna count generically span the whole
    array space; their projector is built from the min(M, N) leading singular
    vectors. A genuinely rank-deficient column set is rejected.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[1] < 1:
        raise DegenerateInputError(f"need a nonempty matrix, got shape {H.shape}")
    u, s, _ = np.linalg.svd(H, full_matrices=False)
    if s[-1] == 0.0 or s[0] / s[-1] > CONDITION_LIMIT:
        raise DegenerateInputError(
            f"matrix is numerically rank deficient (condition {s[0] / max(s[-1], np.finfo(float).tiny):.2e})"
        )
    return u


def pf_similarity(H_k: np.ndarray, H_j: np.ndarray) -> float:
    """Projection-Frobenius similarity of two channel column spaces.

    trace(P_k P_j) equals the squared Frobenius norm of U_k^H U_j for
    orthonormal bases U, which avoids forming the M x M projectors. The
    denominator stays min(N_k, N_j) even when a stack exceeds the antenna
    count and its column space saturates.
    """
    return _overlap(_column_space_basis(H_k), _column_space_basis(H_j), H_k.shape[1], H_j.shape[1])


def _overlap(u_k: np.ndarray, u_j: np.ndarray, n_k: int, n_j: int) -> float:
    """trace(P_k P_j) / min(N_k, N_j) from orthonormal bases."""
    return float(np.linalg.norm(u_k.conj().T @ u_j) ** 2 / min(n_k, n_j))


def _standardize(s: float, m: int, n_k: int, n_j: int, calib: SimilarityCalibration | None) -> float:
    """(s - eta) / sigma when M > N_k + N_j, the raw score otherwise."""
    if m > n_k + n_j:
        if calib is None:
            raise CalibrationError("calibration required for M > N_k + N_j")
        eta, sigma = calib.lookup(m, n_k, n_j)
        return (s - eta) / sigma
    return s


@dataclass
class SimilarityCalibration:
    """Mean/deviation of the similarity of independent random subspaces.

    Keys are (M, N_small, N_large); the score is symmetric so sizes are
    stored sorted.
    """

    table: dict[tuple[int, int, int], tuple[float, float]]

    @staticmethod
    def for_scenario(m: int, n_users: int) -> "SimilarityCalibration":
        """Every size pair an agglomeration over n_users can standardize."""
        return SimilarityCalibration(
            {
                (m, small, large): calibrate_similarity(m, small, large)
                for small in range(1, n_users)
                for large in range(small, n_users - small + 1)
                if m > small + large
            }
        )

    def lookup(self, m: int, n_k: int, n_j: int) -> tuple[float, float]:
        key = (m, min(n_k, n_j), max(n_k, n_j))
        if key not in self.table:
            raise CalibrationError(f"no calibration entry for (M, N_k, N_j) = {key}")
        return self.table[key]


def calibrate_similarity(m: int, n_k: int, n_j: int) -> tuple[float, float]:
    """Exact mean and deviation of the similarity under independence.

    For independent isotropic subspaces of dimensions a and b in C^M the
    Weingarten calculus (Collins & Sniady 2006) gives E[trace(P_a P_b)] = ab/M
    and Var = ab(M-a)(M-b) / (M^2 (M^2-1)); the mean and the deviation are
    divided by min(a, b).
    """
    if m <= n_k + n_j:
        raise CalibrationError(
            f"standardization needs M > N_k + N_j, got M={m}, sizes ({n_k}, {n_j})"
        )
    ab = n_k * n_j
    variance = ab * (m - n_k) * (m - n_j) / (m * m * (m * m - 1))
    scale = min(n_k, n_j)
    return ab / (m * scale), float(np.sqrt(variance)) / scale


def normalized_similarity(
    H_k: np.ndarray, H_j: np.ndarray, calib: SimilarityCalibration | None
) -> float:
    """Standardized similarity when applicable, raw similarity otherwise."""
    return _standardize(pf_similarity(H_k, H_j), H_k.shape[0], H_k.shape[1], H_j.shape[1], calib)


class MergeStep(NamedTuple):
    level: int  # index of the level the merge produced
    merged: tuple[tuple[int, ...], tuple[int, ...]]
    similarity: float


@dataclass(frozen=True)
class Dendrogram:
    """Nested partitions from all-singletons (level 0) to universal.

    ``bases`` maps every block of every level but the universal one to the
    thin-SVD left singular vectors of its H_hat columns, the bases the
    merges were scored on; the level sweep designs its precoders from them.
    """

    levels: tuple[Partition, ...]
    merge_trace: tuple[MergeStep, ...]
    bases: dict[tuple[int, ...], np.ndarray] = field(compare=False, repr=False)


def agglomerate(H_hat: np.ndarray, calib: SimilarityCalibration | None) -> Dendrogram:
    """Greedy bottom-up clustering of users by channel-subspace similarity.

    At each step every pair of current clusters is scored on the stacked
    channel columns and the highest-scoring pair merges; ties go to the
    lexicographically smallest pair of block minima, which makes the merge
    order reproducible. Scores and bases are cached per block, and a basis is
    decomposed the first time its cluster is scored: 2N - 2 SVDs, as the
    universal cluster is never scored. The dendrogram keeps those bases.
    """
    m, n = H_hat.shape
    if n < 1:
        raise DegenerateInputError("need at least one user")

    @cache
    def basis(block):
        return _column_space_basis(H_hat[:, np.asarray(block, dtype=int) - 1])

    @cache
    def score(a, b):  # not bit-symmetric; the scan passes the smaller minimum first
        return _standardize(_overlap(basis(a), basis(b), len(a), len(b)), m, len(a), len(b), calib)

    blocks = [(u,) for u in range(1, n + 1)]
    levels = [Partition(tuple(blocks))]
    trace: list[MergeStep] = []
    while len(blocks) > 1:
        best_score, best_pair = -np.inf, None
        for i, a in enumerate(blocks):
            for b in blocks[i + 1 :]:
                s = score(a, b)
                if s > best_score:
                    best_score, best_pair = s, (a, b)
        trace.append(MergeStep(len(levels), best_pair, float(best_score)))
        merged = tuple(sorted(best_pair[0] + best_pair[1]))
        blocks = sorted([b for b in blocks if b not in best_pair] + [merged])  # by block minimum
        levels.append(Partition(tuple(blocks)))
    bases = {block: basis(block) for level in levels[:-1] for block in level.blocks}
    return Dendrogram(tuple(levels), tuple(trace), bases)


def best_partition(
    H_true: np.ndarray, H_hat: np.ndarray, dendrogram: Dendrogram, config: HrsConfig
) -> tuple[Partition, RateBreakdown]:
    """Best-rate dendrogram level; ties prefer fewer groups."""
    levels = reversed(dendrogram.levels)  # universal first
    return _best_feasible(H_true, H_hat, levels, config, dendrogram.bases)


def exhaustive_best(
    H_true: np.ndarray, H_hat: np.ndarray, config: HrsConfig
) -> tuple[Partition, RateBreakdown]:
    """Global best partition by full enumeration (small N only)."""
    n = H_hat.shape[1]
    if n > EXHAUSTIVE_USER_LIMIT:
        raise ResourceLimitError(
            f"exhaustive search is guarded at {EXHAUSTIVE_USER_LIMIT} users, got {n}"
        )
    return _best_feasible(H_true, H_hat, enumerate_partitions(n), config, None)


def _best_feasible(H_true, H_hat, partitions, config: HrsConfig, bases) -> tuple[Partition, RateBreakdown]:
    """Highest R_total; on a tie fewer groups, then the earlier partition.

    Every candidate is evaluated in one ``evaluate_partitions`` pass, so each
    block of H_hat is decomposed at most once per search and the candidates'
    precoders share their stacked calls.
    """
    partitions = list(partitions)
    best: tuple[Partition, RateBreakdown] | None = None
    for partition, result in zip(partitions, evaluate_partitions(H_true, H_hat, partitions, config, bases)):
        if not result.feasible:
            continue
        if (
            best is None
            or result.R_total > best[1].R_total
            or (
                result.R_total == best[1].R_total
                and partition.num_groups < best[0].num_groups
            )
        ):
            best = (partition, result)
    if best is None:
        raise NoFeasiblePartitionError("every candidate partition is infeasible")
    return best
