"""Set partitions of user indices.

A partition groups the users ``{1..N}`` into disjoint nonempty blocks. The
canonical form (blocks ordered by their smallest member, members ascending)
doubles as the classification label, serialized as ``"1,3|2,4"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

# Bell(10); enumerating anything larger is guarded off.
MAX_ENUMERATION_SIZE = 10


class Layout(NamedTuple):
    """Index arrays of one partition, each read-only and 0-based."""

    columns: tuple[np.ndarray, ...]  # the users of each block, a view of ``order``
    order: np.ndarray  # every block's columns, concatenated in block order
    starts: np.ndarray  # where each block begins in ``order``
    group: np.ndarray  # the block of each user
    size: np.ndarray  # the block size of each user


@dataclass(frozen=True)
class Partition:
    """Canonical grouping of users 1..N into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __reduce__(self):
        # pickle the blocks alone; the unpickled copy builds its own layout
        return Partition, (self.blocks,)

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

    @cached_property
    def layout(self) -> Layout:
        """The partition's index arrays, built on first use and kept on the
        instance, so every rate of one partition reuses them."""
        n, g_count = self.num_users, self.num_groups
        order, group, size, starts = [], [0] * n, [0] * n, []
        for g, block in enumerate(self.blocks):
            starts.append(len(order))
            for u in block:
                order.append(u - 1)
                group[u - 1], size[u - 1] = g, len(block)
        table = np.array([order, group, size, starts + [0] * (n - g_count)])  # one conversion
        table.flags.writeable = False
        order = table[0]
        columns = tuple(order[a : a + len(b)] for a, b in zip(starts, self.blocks))
        return Layout(columns, order, table[3, :g_count], table[1], table[2])


def first_non_canonical(keys, users: int) -> str | None:
    """The first of ``keys`` that is not the canonical key of a partition of
    ``users`` users, or None when every one is. A canonical key names each of
    1..users once, and its blocks, each ascending, are in the order of their
    first users.

    The table is checked at once: one pattern per key admits the syntax with
    exactly ``users`` user numbers, none with more digits than ``users`` (so
    each fits an int64), then array predicates over the (key, position)
    numbers check the rest.
    """
    number = f"[1-9][0-9]{{0,{len(str(users)) - 1}}}"
    syntax = re.compile(f"{number}(?:[,|]{number}){{{users - 1}}}")
    good = np.array([syntax.fullmatch(key) is not None for key in keys], dtype=bool)
    parsed = [key for key, ok in zip(keys, good) if ok]
    if parsed:
        count = len(parsed)
        named = np.array(",".join(parsed).replace("|", ",").split(","), dtype=np.int64).reshape(count, users)
        separators = np.frombuffer(re.sub("[0-9]", "", "".join(parsed)).encode(), np.uint8)
        opens = np.ones((count, users), dtype=bool)  # whether each position begins a block
        opens[:, 1:] = separators.reshape(count, users - 1) == ord("|")
        starts = np.maximum.accumulate(np.where(opens, np.arange(users), 0), axis=1)
        block_first = np.take_along_axis(named, starts, axis=1)
        # each user above the one before it in its block, each block's first above the previous block's
        rising = named[:, 1:] > np.where(opens[:, 1:], block_first[:, :-1], named[:, :-1])
        good[good] = rising.all(axis=1) & (np.sort(named, axis=1) == np.arange(1, users + 1)).all(axis=1)
    return None if good.all() else keys[int(np.argmin(good))]


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
            f"(limit {MAX_ENUMERATION_SIZE}, Bell({MAX_ENUMERATION_SIZE}) = 115975)"
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
