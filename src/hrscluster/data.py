"""Labeled dataset generation: sampling, balancing, augmentation, splitting.

Each sample pairs a true and an estimated channel matrix with the partition
key that maximizes the achievable rate among the dendrogram levels of that
realization. Class balancing drops groupings that are both rare and weak,
then caps class sizes; augmentation shuffles users within their labeled
blocks (the label is invariant to such reorderings); the stratified
80/10/10 split keeps every surviving class represented in training.

Every split, generated or loaded, is one ``Records``: index columns over a
``Store`` that holds each draw once (its matrices, laid out as in the blob,
its label rate and its covariance indices). A record names its draw, the
order of its users and its class id. Generation fills the store; balancing,
augmentation and the split are index maps over it, which ``build_dataset``
composes into each split's columns, copying no matrix. Indexing or
iterating ``Records`` gathers the record's ``Sample``: its draw's matrices
and covariance indices with the users in the record's order.

Datasets are stored in a binary container (magic ``HRSDAT01``, format
version 6) whose header holds the generating configuration, the class
index, the number of stored draws and the three split sizes. Its blob holds
the store, every draw a record uses once (matrices, then label rates, then
covariance indices), then each record's draw, user order and class id, in
storage order (train, validation, test); every column is fixed-width.
``load`` reads and CRC-checks the whole file in one pass, checks every
column with one array predicate each, and views the store and the record
columns in the blob, read-only, copying nothing.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import accumulate
from multiprocessing import Pool
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _binio
from .channel import ArrayGeometry, CovarianceMatrix, build_covariance, corrupt_csi, sample_channels
from .clustering import agglomerate, best_partition, calibrate_similarity
from .errors import ConfigurationError, DataFormatError, StratificationError
from .partitions import Partition, first_non_canonical

DATASET_MAGIC = b"HRSDAT01"
DATASET_VERSION = 6

REFERENCE_SCENARIOS = ((8, 4), (8, 8), (8, 12), (12, 6), (12, 12), (12, 16))
# The default sector centres, -pi/2 + pi/3 * g for g = 0..3: one covariance each.
REFERENCE_AZIMUTHS = tuple(-np.pi / 2 + np.pi / 3 * g for g in range(4))

# The dataset recipe, fixed for every scenario: ``balance``'s thresholds and ``augment``'s shuffles per record.
RATE_FLOOR_FRAC = 0.25
MIN_CLASS_SAMPLES = 50
MAX_CLASS_SAMPLES = 200
NUM_SHUFFLES = 10

# Salts keeping the per-stage random streams disjoint.
_SALT_SAMPLE = 1
_SALT_CSI = 2
_SALT_AUGMENT = 3
_SALT_SPLIT = 4

# DatasetSplit's splits, in storage order.
SPLITS = ("train", "validation", "test")

# JSON types of the dataset header's fields.
_HEADER_FIELDS = {"config": dict, "class_index": (dict, int), "draws": int, "split_sizes": (list, int)}

# Draws per task of the generation pool; workers beyond the task count would idle.
_GEN_CHUNK = 8


def _is_finite_real(value) -> bool:
    """Whether ``value`` is a number, not a bool, that float64 holds as a finite value."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float64 range
        return False


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to regenerate one scenario deterministically."""

    users: int
    antennas: int
    samples: int = 2000
    seed: int = 0
    name: str = ""
    tau_sq: float = 0.4
    total_power: float = 100.0
    azimuths: tuple[float, ...] = REFERENCE_AZIMUTHS
    spread: float = float(np.pi / 6)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_finite_real(value):
                raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "str" and not isinstance(value, str):
                raise ConfigurationError(f"{f.name} must be a string, got {value!r}")
        if "/" in self.name or "\0" in self.name or self.name in (".", ".."):
            raise ConfigurationError(f"name must be a plain file name, got {self.name!r}")
        for key in ("users", "antennas", "samples"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.tau_sq <= 1.0:
            raise ConfigurationError(f"tau_sq must lie in [0, 1], got {self.tau_sq}")
        if self.total_power <= 0:
            raise ConfigurationError(f"total_power must be positive, got {self.total_power}")
        if self.spread <= 0:
            raise ConfigurationError(f"spread must be positive, got {self.spread}")
        if type(self.azimuths) is not tuple:
            raise ConfigurationError(f"azimuths must be a tuple of numbers, got {self.azimuths!r}")
        if not self.azimuths:
            raise ConfigurationError("azimuths must name at least one sector, got none")
        if not all(_is_finite_real(az) for az in self.azimuths):
            raise ConfigurationError(f"azimuths must be finite real numbers, got {list(self.azimuths)}")
        if not self.name:
            object.__setattr__(self, "name", f"n{self.users}m{self.antennas}")

    @property
    def num_covs(self) -> int:
        return len(self.azimuths)  # one covariance per azimuth

    @property
    def tau(self) -> float:
        return float(np.sqrt(self.tau_sq))

    def covariances(self) -> tuple[CovarianceMatrix, ...]:
        geometry = ArrayGeometry.uca(self.antennas)
        return tuple(build_covariance(geometry, az, self.spread) for az in self.azimuths)

    # no src caller; the benchmark's clustering.calibration hook looks it up by name
    def calibration(self) -> dict[tuple[int, int, int], tuple[float, float]]:
        """Similarity constants of every size pair the scenario can standardize."""
        m, n = self.antennas, self.users
        return {(m, a, b): calibrate_similarity(m, a, b)
                for a in range(1, n) for b in range(a, n - a + 1) if m > a + b}

    def to_dict(self) -> dict:
        return {**asdict(self), "azimuths": list(self.azimuths)}

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        azimuths = raw.get("azimuths", list(REFERENCE_AZIMUTHS))
        if not isinstance(azimuths, list):
            raise ConfigurationError(f"azimuths must be a list of numbers, got {azimuths!r}")
        # a missing or unknown key raises TypeError naming it
        try:
            return ScenarioConfig(**{**raw, "azimuths": tuple(azimuths)})
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_bytes())
        except OSError as exc:  # missing, a directory, unreadable
            raise ConfigurationError(f"cannot open config file {path}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigurationError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must contain a JSON object")
        return ScenarioConfig.from_dict(raw)


@dataclass(frozen=True)
class Sample:
    H_true: np.ndarray
    H_hat: np.ndarray
    label: str
    label_rate: float
    cov_assignment: tuple[int, ...]


class Store(NamedTuple):
    """Draws, each held once and laid out as in the blob: ``matrices`` is (D, 2,
    N, M), each draw's ``H_true`` then ``H_hat``, transposed; ``rates`` the
    draws' label rates; ``assignments`` their (D, N) covariance indices, in
    each draw's own user order."""

    matrices: np.ndarray
    rates: np.ndarray
    assignments: np.ndarray


class Records(Sequence):
    """A split as index columns over a ``Store``; both are owned (generation,
    ``take``) or viewed read-only in the blob (``load``).

    Record r is draw ``draws[r]`` of ``store`` with its users in the order
    ``orders[r]`` (its user j is the draw's user ``orders[r, j]``); its class
    id ``ids[r]`` names its label in ``labels``. An integer index yields the
    record's ``Sample``, gathered from the store; a slice or an integer array
    the ``Records`` of the records it selects, over the same store.
    """

    def __init__(self, store: Store, draws, orders, ids, labels: tuple[str, ...]):
        self.store, self.draws, self.orders, self.ids, self.labels = store, draws, orders, ids, labels

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return Records(self.store, self.draws[index], self.orders[index], self.ids[index], self.labels)
        index = operator.index(index)
        draw, order = self.draws[index], self.orders[index]
        pair = self.store.matrices[draw].take(order, axis=1)  # (2, N, M), C-contiguous
        pair.flags.writeable = False
        h_true, h_hat = pair.transpose(0, 2, 1)  # (M, N) each, column-major: strides (16, 16 M)
        return Sample(h_true, h_hat, self.labels[self.ids[index]], float(self.store.rates[draw]),
                      tuple(self.store.assignments[draw, order].tolist()))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def rates(self) -> np.ndarray:
        """Each record's label rate, its draw's."""
        return self.store.rates[self.draws]

    def take(self, rows, orders) -> "Records":
        """The records ``rows``, the users of each reordered by its row of
        ``orders``; the index maps are composed, no matrix is copied."""
        return Records(self.store, self.draws[rows], np.take_along_axis(self.orders[rows], orders, axis=1),
                       self.ids[rows], self.labels)


def estimate_rows(samples) -> np.ndarray:
    """The estimates of ``samples`` as one C-contiguous (S, N, M) complex array,
    each transposed as the store holds it: row j is the sample's user j.
    ``samples`` is a ``Records``, gathered from its store by (draw, user
    order), or a list of ``Sample`` as ``predict_labels(model, [records[j]])`` passes."""
    if isinstance(samples, Records):
        return samples.store.matrices[samples.draws[:, None], 1, samples.orders]
    return np.array([np.asarray(s.H_hat).T for s in samples], dtype=complex)


def class_ids(records: Records, class_index: dict[str, int]) -> np.ndarray:
    """The ``class_index`` id of each record's label, -1 where it has none."""
    return np.array([class_index.get(label, -1) for label in records.labels], dtype=np.int64)[records.ids]


@dataclass
class DatasetSplit:
    train: Records
    validation: Records
    test: Records
    class_index: dict[str, int]
    config: ScenarioConfig

    def parts(self) -> list[tuple[str, Records]]:
        """(split name, records) pairs in storage order."""
        return [(name, getattr(self, name)) for name in SPLITS]

    def all_samples(self) -> list[Sample]:
        return [s for _, part in self.parts() for s in part]

    @property
    def num_classes(self) -> int:
        return len(self.class_index)


def draw_assignment(cfg: ScenarioConfig, index: int) -> tuple[int, ...]:
    """Uniform covariance index per user for sample ``index``."""
    rng = np.random.default_rng((cfg.seed, index, _SALT_SAMPLE))
    return tuple(int(a) for a in rng.integers(0, cfg.num_covs, cfg.users))


def _generate_one(cfg: ScenarioConfig, covariances: tuple[CovarianceMatrix, ...], index: int):
    """``(H_true, H_hat, label, label rate, covariance indices)`` of draw ``index``."""
    assignment = draw_assignment(cfg, index)
    channels = sample_channels(covariances, assignment, (cfg.seed, index, _SALT_SAMPLE, 1))
    channels = corrupt_csi(channels, cfg.tau, (cfg.seed, index, _SALT_CSI))
    dendrogram = agglomerate(channels.H_hat)
    partition, rate = best_partition(channels.H_true, channels.H_hat, dendrogram, cfg.total_power)
    return channels.H_true, channels.H_hat, partition.key(), rate.R_total, assignment


def generate_samples(cfg: ScenarioConfig, threads: int = 1) -> Records:
    """Draw ``cfg.samples`` labeled realizations; deterministic per seed.

    Every sample owns a child seed derived from (master seed, index), so the
    result is identical whether generated serially or across workers, of
    which at most ``os.cpu_count()`` are started. The draws fill one store,
    each record its draw with its users as drawn; labels are numbered in the
    order they are first drawn. ``threads`` must be at least 1.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be at least 1, got {threads}")
    one = partial(_generate_one, cfg, cfg.covariances())
    indices = range(cfg.samples)
    if threads == 1:
        draws = map(one, indices)
    else:
        with Pool(min(threads, os.cpu_count() or 1, -(-cfg.samples // _GEN_CHUNK))) as pool:
            draws = pool.map(one, indices, chunksize=_GEN_CHUNK)
    store = Store(np.empty((cfg.samples, 2, cfg.users, cfg.antennas), dtype=complex), np.empty(cfg.samples),
                  np.empty((cfg.samples, cfg.users), dtype=np.int64))
    ids, labels = np.empty(cfg.samples, dtype=np.int64), {}
    for i, (h_true, h_hat, label, rate, assignment) in enumerate(draws):
        store.matrices[i, 0], store.matrices[i, 1] = h_true.T, h_hat.T
        ids[i], store.rates[i], store.assignments[i] = labels.setdefault(label, len(labels)), rate, assignment
    orders = np.tile(np.arange(cfg.users), (cfg.samples, 1))
    return Records(store, np.arange(cfg.samples), orders, ids, tuple(labels))


def _classes(ids) -> list[np.ndarray]:
    """The positions in ``ids`` of each class id it holds, ascending, ids ascending."""
    order = np.argsort(ids, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(ids[order])) + 1) if len(ids) else []


def balance(records: Records) -> np.ndarray:
    """Drop classes that are both weak and rare, then cap class sizes;
    returns the surviving records' indices.

    A class is removed only when its mean rate falls below
    ``RATE_FLOOR_FRAC`` of the overall mean rate AND it holds fewer than
    ``MIN_CLASS_SAMPLES`` samples; surviving classes, in the order of their
    first record, keep their first ``MAX_CLASS_SAMPLES`` records in
    generation order.
    """
    if not len(records):
        raise ConfigurationError("cannot balance an empty sample list")
    floor = RATE_FLOOR_FRAC * float(np.mean(records.rates))
    survivors = [members[:MAX_CLASS_SAMPLES]
                 for members in sorted(_classes(records.ids), key=lambda members: members[0])
                 if not (float(np.mean(records.rates[members])) < floor and len(members) < MIN_CLASS_SAMPLES)]
    if not survivors:
        raise ConfigurationError("balancing removed every class; the scenario is degenerate")
    return np.concatenate(survivors)


def augment(records: Records, rows, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(row, user order)`` of each augmented sample: every record of ``rows``
    as drawn, then ``NUM_SHUFFLES`` copies with its users shuffled inside its
    labeled blocks.

    A shuffle inside blocks maps every block onto itself, so each copy keeps
    the record's canonical label. The k-th of ``rows`` draws its shuffles
    from the stream ``(seed, k, _SALT_AUGMENT)``.
    """
    copies = 1 + NUM_SHUFFLES
    orders = np.tile(np.arange(records.orders.shape[1]), (len(rows) * copies, 1))
    for position, row in enumerate(rows.tolist()):
        columns = Partition.from_key(records.labels[records.ids[row]]).layout.columns
        rng = np.random.default_rng((seed, position, _SALT_AUGMENT))
        for perm in orders[position * copies + 1 : (position + 1) * copies]:
            for cols in columns:
                perm[cols] = rng.permutation(perm[cols])
    return np.repeat(rows, copies), orders


def split(records: Records, rows, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int]]:
    """Stratified 80/10/10 split of the records ``rows``; every class lands in
    the training set.

    Returns the train, validation and test positions in ``rows``, each
    ascending, and the class index, which numbers the labels in sorted order.
    """
    ids = records.ids[rows]
    by_label = {records.labels[ids[members[0]]]: members for members in _classes(ids)}
    labels = sorted(by_label)
    rng = np.random.default_rng((seed, _SALT_SPLIT))
    part = np.zeros(len(rows), dtype=np.int8)  # 0 train, 1 validation, 2 test
    for label in labels:
        idx = by_label[label]
        if len(idx) < 3:
            raise StratificationError(f"class {label!r} has only {len(idx)} samples, need >= 3")
        rng.shuffle(idx)
        n_val = n_test = max(1, len(idx) // 10)
        part[idx[:n_val]] = 1
        part[idx[n_val : n_val + n_test]] = 2
    train, val, test = (np.flatnonzero(part == k) for k in range(3))
    return train, val, test, {label: i for i, label in enumerate(labels)}


def build_dataset(cfg: ScenarioConfig, threads: int = 1) -> DatasetSplit:
    """Full pipeline: generate, then balance, augment and stratify as index maps
    over the generation store, which every split's records index."""
    raw = generate_samples(cfg, threads=threads)
    rows, orders = augment(raw, balance(raw), cfg.seed)
    *picks, class_index = split(raw, rows, cfg.seed)
    # the generation records, ids numbered as in class_index; a class balancing dropped reads -1 and is never taken
    named = Records(raw.store, raw.draws, raw.orders, class_ids(raw, class_index), tuple(class_index))
    return DatasetSplit(*(named.take(rows[pick], orders[pick]) for pick in picks), class_index, cfg)


def _blob_layout(draws: int, records: int, m: int, n: int) -> tuple:
    """``(dtype, shape)`` of each blob column in blob order: per draw its
    matrices, label rate and covariance indices, then per record its draw,
    user order and class id."""
    return (("<c16", (draws, 2, n, m)), ("<f8", (draws,)), ("<i4", (draws, n)),
            ("<i4", (records,)), ("<i4", (records, n)), ("<i4", (records,)))


def _nbytes(column) -> int:
    dtype, shape = column
    return np.dtype(dtype).itemsize * math.prod(shape)


def serialize(dataset: DatasetSplit, path) -> None:
    """Write the dataset container; byte-exact and reloadable.

    Every split is checked before the file is opened. The store written holds
    each draw some record uses once, in the order of the splits' stores and
    of the draws in each, so a loaded dataset writes its own bytes again.
    """
    cfg, parts = dataset.config, [part for _, part in dataset.parts()]
    ids = [_columns(f"{name} split: ", part, dataset.class_index, cfg) for name, part in dataset.parts()]
    store, draws = _stored(parts)
    header = {
        "format_version": DATASET_VERSION,
        "config": cfg.to_dict(),
        "class_index": dataset.class_index,
        "draws": len(store.rates),
        "split_sizes": [len(part) for part in parts],
    }
    columns = (*store, draws, np.concatenate([part.orders for part in parts]), np.concatenate(ids))
    layout = _blob_layout(len(store.rates), len(draws), cfg.antennas, cfg.users)
    _binio.write_container(path, DATASET_MAGIC, header,
                           (np.ascontiguousarray(column, dtype) for column, (dtype, _) in zip(columns, layout)))


def _columns(where: str, records: Records, class_index: dict[str, int], cfg: ScenarioConfig) -> np.ndarray:
    """The ``class_index`` id of each of ``records``, refused unless its
    matrices are M x N, its draws have N covariance indices and its records
    N users, every label is in ``class_index`` and its columns pass
    ``_check_columns``."""
    m, n, store = cfg.antennas, cfg.users, records.store
    shape, count, users = store.matrices.shape[:1:-1], store.assignments.shape[1], records.orders.shape[1]
    if (shape, count, users) != ((m, n), n, n):
        raise DataFormatError(f"sample matrices have shape {shape}, {count} covariance indices and {users} "
                              f"users, expected {(m, n)}, {n} and {n}")
    ids = class_ids(records, class_index)
    if (ids < 0).any():
        label = records.labels[records.ids[np.argmax(ids < 0)]]
        raise DataFormatError(f"sample label {label!r} is not a key of class_index")
    _check_columns(where, store, records.draws, records.orders, ids, len(class_index), cfg.num_covs)
    return ids


def _stored(parts) -> tuple[Store, np.ndarray]:
    """One store of the draws the records of ``parts`` use, each once, in the
    order of their stores and of the draws in each, and each record's draw in it."""
    stores = list({id(part.store): part.store for part in parts}.values())
    starts = dict(zip(map(id, stores), accumulate((len(store.rates) for store in stores), initial=0)))
    store = stores[0] if len(stores) == 1 else Store(*map(np.concatenate, zip(*stores)))
    used, draws = np.unique(np.concatenate([part.draws + starts[id(part.store)] for part in parts]),
                            return_inverse=True)
    if len(used) < len(store.rates):
        store = Store(*(column[used] for column in store))
    return store, draws


def load(path) -> DatasetSplit:
    """Read a dataset container, viewing its store and record columns in the blob.

    Every byte is CRC-checked and every column checked with one array
    predicate; nothing is copied.
    """
    (cfg, class_index, labels, sizes, layout), blob = _binio.read_container(
        path, DATASET_MAGIC, DATASET_VERSION, partial(_layout, path))
    offsets = accumulate(map(_nbytes, layout), initial=0)
    matrices, rates, assignments, draws, orders, ids = (
        np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape)
        for (dtype, shape), offset in zip(layout, offsets))
    store = Store(matrices, rates, assignments)
    _check_columns(f"{path}: ", store, draws, orders, ids, len(labels), cfg.num_covs)
    bounds = list(accumulate(sizes, initial=0))
    parts = [Records(store, draws[lo:hi], orders[lo:hi], ids[lo:hi], labels) for lo, hi in zip(bounds, bounds[1:])]
    return DatasetSplit(*parts, class_index, cfg)


def _layout(path, header: dict, blob_size: int):
    """Check a dataset header against its blob's size; returns ``(config,
    class_index, its labels in id order, split sizes, blob layout)``."""
    _binio.require(header, _HEADER_FIELDS, path)
    try:
        cfg = ScenarioConfig.from_dict(header["config"])
    except ConfigurationError as exc:
        raise DataFormatError(f"{path}: config is refused ({exc})") from exc
    class_index = header["class_index"]
    labels = tuple(sorted(class_index, key=class_index.get))
    if [class_index[label] for label in labels] != list(range(len(labels))):
        raise DataFormatError(f"{path}: class_index must number its labels 0..{len(labels) - 1}, each once")
    label = first_non_canonical(labels, cfg.users)
    if label is not None:
        raise DataFormatError(f"{path}: class_index key {label!r} is not a canonical partition key "
                              f"of {cfg.users} users")
    sizes, draws = header["split_sizes"], header["draws"]
    if len(sizes) != len(SPLITS) or min(sizes) < 0:
        raise DataFormatError(f"{path}: split_sizes {sizes} is not {len(SPLITS)} record counts, each >= 0")
    if draws < 0:
        raise DataFormatError(f"{path}: draws {draws} is not a count >= 0")
    layout = _blob_layout(draws, sum(sizes), cfg.antennas, cfg.users)
    expected = sum(map(_nbytes, layout))
    if blob_size != expected:
        raise DataFormatError(f"{path}: blob holds {blob_size} bytes, not the {expected} of its {draws} draws "
                              f"and {sum(sizes)} records")
    return cfg, class_index, labels, sizes, layout


def _check_columns(where: str, store: Store, draws, orders, ids, num_classes: int, num_covs: int) -> None:
    """Refuse, naming the first bad draw or record, a label rate that is not
    finite, a covariance index outside [0, num_covs), a record's draw outside
    the store, a user order that is no permutation, or a class id outside
    [0, num_classes)."""
    count, n = len(store.rates), orders.shape[1]
    assignments = store.assignments
    checks = (
        ("draw", "label_rate", store.rates, ~np.isfinite(store.rates), "a finite number"),
        ("draw", "cov_assignment", assignments, ((assignments < 0) | (assignments >= num_covs)).any(axis=1),
         f"{n} indices in [0, {num_covs})"),
        ("record", "draw", draws, (draws < 0) | (draws >= count), f"in [0, {count}), the stored draws"),
        ("record", "order", orders, (np.sort(orders, axis=1) != np.arange(n)).any(axis=1),
         f"a permutation of 0..{n - 1}"),
        ("record", "label id", ids, (ids < 0) | (ids >= num_classes), f"in [0, {num_classes}), the ids of class_index"),
    )
    for unit, name, column, bad, rule in checks:
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise DataFormatError(f"{where}{unit} {i} has {name} {column[i].tolist()!r}, which is not {rule}")


def export_labels_csv(dataset: DatasetSplit, path) -> None:
    """Flat (label, rate, scenario, split) table for external analysis."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "rate", "scenario", "split"])
        for split_name, part in dataset.parts():
            writer.writerows([part.labels[i], repr(rate), dataset.config.name, split_name]
                             for i, rate in zip(part.ids.tolist(), part.rates.tolist()))
