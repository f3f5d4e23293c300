"""Set partitions of user indices.

A partition groups the users ``{1..N}`` into disjoint nonempty blocks. The
canonical form (blocks ordered by their smallest member, members ascending)
doubles as the classification label, serialized as ``"1,3|2,4"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

# Bell(10); enumerating anything larger is guarded off.
MAX_ENUMERATION_SIZE = 10


@dataclass(frozen=True)
class Partition:
    """Canonical grouping of users 1..N into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(blocks) -> "Partition":
        """Canonicalize and validate an iterable of blocks of 1-based users."""
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        flat = [u for b in canon for u in b]
        n = len(flat)
        if n == 0:
            raise ConfigurationError("partition must contain at least one user")
        if any(len(b) == 0 for b in canon):
            raise ConfigurationError("partition blocks must be nonempty")
        if sorted(flat) != list(range(1, n + 1)):
            raise ConfigurationError(
                f"partition blocks must cover 1..{n} exactly once, got {sorted(flat)}"
            )
        return Partition(canon)

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition(tuple((u,) for u in range(1, n + 1)))

    @staticmethod
    def universal(n: int) -> "Partition":
        return Partition((tuple(range(1, n + 1)),))

    @staticmethod
    def from_key(key: str) -> "Partition":
        try:
            blocks = [[int(u) for u in part.split(",")] for part in key.split("|")]
        except ValueError as exc:
            raise ConfigurationError(f"malformed partition key {key!r}") from exc
        return Partition.from_blocks(blocks)

    @property
    def num_users(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_groups(self) -> int:
        return len(self.blocks)

    def key(self) -> str:
        return "|".join(",".join(str(u) for u in b) for b in self.blocks)

    def block_columns(self, g: int) -> np.ndarray:
        """0-based column indices of the users in block ``g``."""
        return np.asarray(self.blocks[g], dtype=int) - 1

    def group_of_user(self) -> np.ndarray:
        """Array mapping 0-based user column to its block index."""
        out = [0] * self.num_users
        for g, block in enumerate(self.blocks):
            for u in block:  # a Python loop: one numpy call per block costs more
                out[u - 1] = g
        return np.array(out)

    def relabeled(self, perm: np.ndarray) -> "Partition":
        """Partition after renaming user ``u`` to ``perm[u-1] + 1``."""
        return Partition.from_blocks(
            [[int(perm[u - 1]) + 1 for u in b] for b in self.blocks]
        )

    def __str__(self) -> str:
        return self.key()


def bell_number(n: int) -> int:
    """Number of set partitions of n elements (Bell triangle recurrence)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def enumerate_partitions(n: int) -> list[Partition]:
    """All set partitions of ``{1..n}`` in canonical order.

    Enumerates restricted-growth strings: user 1 opens block 0 and each later
    user joins an existing block or opens the next one. Guarded at n = 10
    (Bell(10) = 115975).
    """
    if n < 1:
        raise ConfigurationError("need at least one user")
    if n > MAX_ENUMERATION_SIZE:
        raise ResourceLimitError(
            f"refusing to enumerate partitions of {n} users "
            f"(limit {MAX_ENUMERATION_SIZE}, Bell({MAX_ENUMERATION_SIZE}) = {bell_number(MAX_ENUMERATION_SIZE)})"
        )
    out: list[Partition] = []
    assignment = [0] * n

    def grow(user: int, num_blocks: int):
        if user == n:
            blocks: list[list[int]] = [[] for _ in range(num_blocks)]
            for u, b in enumerate(assignment):
                blocks[b].append(u + 1)
            out.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        for b in range(num_blocks + 1):
            assignment[user] = b
            grow(user + 1, max(num_blocks, b + 1))

    grow(0, 0)
    return out
