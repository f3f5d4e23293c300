import pickle

import numpy as np
import pytest

from hrscluster.errors import ConfigurationError, ResourceLimitError
from hrscluster.partitions import Partition, enumerate_partitions, first_non_canonical
from reference import bell_number, relabeled


def test_canonical_form_sorts_blocks_by_minimum():
    p = Partition.from_blocks([[4, 2], [3, 1]])
    assert p.blocks == ((1, 3), (2, 4))
    assert p.key() == "1,3|2,4"


def test_key_round_trip():
    p = Partition.from_blocks([[5], [1, 3], [2, 4]])
    assert Partition.from_key(p.key()) == p


def _round_trips(key, users):
    """The reference rule: the key parses to a partition of ``users`` users whose key it is."""
    try:
        partition = Partition.from_key(key)
    except ConfigurationError:
        return False
    return partition.key() == key and partition.num_users == users


def _mutated(key, rng, alphabet=tuple("0123456789,| +-")):
    """``key`` with one character replaced, inserted or deleted, or two swapped."""
    chars, i = list(key), int(rng.integers(len(key)))
    op = int(rng.integers(4))
    if op == 0:
        chars[i] = rng.choice(alphabet)
    elif op == 1:
        chars.insert(i, rng.choice(alphabet))
    elif op == 2:
        del chars[i]
    else:
        j = int(rng.integers(len(key)))
        chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)


def _is_canonical(key, users):
    return first_non_canonical([key], users) is None


def test_canonical_key_check_agrees_with_the_key_round_trip():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for partition in enumerate_partitions(n):
            key = partition.key()
            assert _is_canonical(key, n)
            for _ in range(20):
                mutated = _mutated(key, rng)
                for users in (n - 1, n, n + 1):
                    assert _is_canonical(mutated, users) == _round_trips(mutated, users)
    for key in ("", "1|", "|1", "01", "1,01", " 1", "+1", "2|1", "1|3,2", "1,1", "1,2|2"):
        assert not _is_canonical(key, len(key.replace("|", ",").split(",")))


def test_label_table_check_names_the_first_key_the_per_key_rule_refuses():
    rng = np.random.default_rng(9)
    keys = [partition.key() for partition in enumerate_partitions(6)]
    assert len(keys) == bell_number(6) and first_non_canonical(keys, 6) is None
    assert first_non_canonical(list(rng.permutation(keys)), 6) is None
    assert first_non_canonical([], 6) is None
    for users in (5, 7):
        assert first_non_canonical(keys, users) == keys[0]
    # a user number beyond int64 is refused, not parsed
    for huge in ("1,2,3,4,5|99999999999999999999", "99999999999999999999999999|1,2,3,4,5,6"):
        assert first_non_canonical([*keys, huge], 6) == huge
    for _ in range(300):  # tables mixing canonical, mutated and shuffled keys
        table = []
        for key in rng.choice(keys, int(rng.integers(1, 12))):
            pick = int(rng.integers(3))
            if pick == 1:
                key = _mutated(key, rng)
            elif pick == 2:
                key = "".join(rng.permutation(list(key)))
            table.append(str(key))
        first_bad = next((key for key in table if not _round_trips(key, 6)), None)
        assert first_non_canonical(table, 6) == first_bad


def test_rejects_non_covering_blocks():
    with pytest.raises(ConfigurationError):
        Partition.from_blocks([[1, 2], [4]])
    with pytest.raises(ConfigurationError):
        Partition.from_blocks([[1], [1, 2]])
    with pytest.raises(ConfigurationError):
        Partition.from_blocks([[1], []])


def test_singletons_and_universal():
    assert Partition.singletons(3).key() == "1|2|3"
    assert Partition.universal(3).key() == "1,2,3"


def test_group_of_user_matches_blocks():
    p = Partition.from_blocks([[1, 4], [2], [3]])
    assert list(p.layout.group) == [0, 1, 2, 0]
    assert list(p.layout.columns[0]) == [0, 3]


def test_layout_agrees_with_blocks_is_read_only_and_survives_pickling():
    for p in [Partition.universal(1), Partition.singletons(5), Partition.from_blocks([[1, 4], [2], [3, 6, 5]])]:
        layout = p.layout
        assert layout is p.layout  # built once per instance
        for g, block in enumerate(p.blocks):
            assert list(layout.columns[g]) == [u - 1 for u in block]
        assert list(layout.order) == [u - 1 for block in p.blocks for u in block]
        assert list(layout.starts) == [sum(len(b) for b in p.blocks[:g]) for g in range(p.num_groups)]
        users = range(1, p.num_users + 1)
        assert list(layout.group) == [next(g for g, b in enumerate(p.blocks) if u in b) for u in users]
        assert list(layout.size) == [len(p.blocks[g]) for g in layout.group]
        for a in (*layout.columns, layout.order, layout.starts, layout.group, layout.size):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flags.writeable = True
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and hash(copy) == hash(p)
        for got, want in zip(copy.layout[1:], layout[1:]):
            assert np.array_equal(got, want) and not got.flags.writeable
        assert all(np.array_equal(a, b) for a, b in zip(copy.layout.columns, layout.columns))


def test_bell_numbers():
    assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert bell_number(10) == 115975


def test_enumerate_count_matches_bell():
    assert len(enumerate_partitions(3)) == 5
    assert len(enumerate_partitions(5)) == 52


def test_enumerate_all_distinct_and_canonical():
    parts = enumerate_partitions(6)
    keys = [p.key() for p in parts]
    assert len(set(keys)) == len(keys) == bell_number(6)
    for p in parts:
        assert Partition.from_blocks(p.blocks) == p


def test_enumerate_brute_force_cross_check():
    # independent count: every map {1..n} -> block ids, deduplicated by the
    # partition it induces
    n = 4
    seen = set()
    for code in range(n**n):
        assignment = [(code // n**i) % n for i in range(n)]
        blocks = {}
        for user, b in enumerate(assignment, start=1):
            blocks.setdefault(b, []).append(user)
        seen.add(tuple(sorted(tuple(b) for b in blocks.values())))
    assert len(seen) == len(enumerate_partitions(n)) == bell_number(4)


def test_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_partitions(11)


def test_relabeled_permutes_users():
    p = Partition.from_blocks([[1, 2], [3]])
    perm = np.array([2, 0, 1])  # user 1 -> 3, user 2 -> 1, user 3 -> 2
    assert relabeled(p, perm).key() == "1,3|2"
