"""Labeled dataset generation: sampling, balancing, augmentation, splitting.

Each sample pairs a true and an estimated channel matrix with the partition
key that maximizes the achievable rate among the dendrogram levels of that
realization. Class balancing drops groupings that are both rare and weak,
then caps class sizes; augmentation shuffles users within their labeled
blocks (the label is invariant to such reorderings); the stratified
80/10/10 split keeps every surviving class represented in training.

Datasets are stored in a binary container (magic ``HRSDAT01``, format
version 5) whose header holds the generating configuration, the class index
and the three split sizes. Its blob holds every record's matrices back to
back in storage order (train, validation, test), then the records' class
ids, label rates and covariance indices as fixed-width columns. ``load``
reads the file in one streamed pass that CRC-checks every byte, keeps the
blob from the first wanted split's matrices on in one read-only buffer,
checks every record's columns with one array predicate each, and views the
kept matrices in one strided array over that buffer, copying none.
``compare`` asks for the validation and test splits alone, so the train
matrices, most of the file, are read past a chunk at a time and never held.

Every split, generated or loaded, is one ``Records``: columns of its
records (the matrices, the class ids with their labels, the rates and the
covariance indices), with no Python object per record. Generation fills one
store laid out as in the blob; balancing, augmentation and the split map
indices into it, and ``build_dataset`` gathers each split's matrices from
it once, in the augmented user orders. A loaded split views the blob,
read-only. Indexing or iterating ``Records`` yields a ``Sample`` of the
same values and scalar types.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import accumulate, chain
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import _binio
from .channel import ArrayGeometry, CovarianceMatrix, build_covariance, corrupt_csi, sample_channels
from .clustering import agglomerate, best_partition, calibrate_similarity
from .errors import ConfigurationError, DataFormatError, StratificationError
from .hrs import HrsConfig
from .partitions import Partition, is_canonical_key

DATASET_MAGIC = b"HRSDAT01"
DATASET_VERSION = 5

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
_HEADER_FIELDS = {"config": dict, "class_index": (dict, int), "split_sizes": (list, int)}

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
            raise ConfigurationError("tau_sq must lie in [0, 1]")
        if self.total_power <= 0:
            raise ConfigurationError("total power must be positive")
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

    def hrs_config(self) -> HrsConfig:
        return HrsConfig(self.total_power)

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
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigurationError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
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


class Records(Sequence):
    """A split as columns of its records, owned (generation, ``take``) or viewed read-only in the blob (``load``).

    ``matrices`` is (S, 2, M, N), each record's ``H_true`` then ``H_hat``, a
    view of an (S, 2, N, M) store laid out as in the blob; ``ids`` the class
    ids, which name their labels in ``labels``; ``rates`` the label rates;
    ``assignments`` the (S, N) covariance indices. An integer index yields
    the record's ``Sample``, a slice the ``Records`` of the slice's records.
    """

    def __init__(self, matrices, ids, labels: tuple[str, ...], rates, assignments):
        self.matrices, self.ids, self.labels, self.rates, self.assignments = matrices, ids, labels, rates, assignments
        self.H_true, self.H_hat = matrices[:, 0], matrices[:, 1]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Records(self.matrices[index], self.ids[index], self.labels, self.rates[index],
                           self.assignments[index])
        index = operator.index(index)
        return Sample(self.H_true[index], self.H_hat[index], self.labels[self.ids[index]],
                      float(self.rates[index]), tuple(self.assignments[index].tolist()))

    def __iter__(self):
        return map(Sample, self.H_true, self.H_hat, [self.labels[i] for i in self.ids.tolist()],
                   self.rates.tolist(), map(tuple, self.assignments.tolist()))

    def take(self, rows, orders) -> "Records":
        """The records ``rows``, the users of each in the order of its row of
        ``orders`` (matrices and covariance indices alike); the matrices are
        gathered into a store laid out as in the blob, in one indexing pass."""
        store = self.matrices.transpose(0, 1, 3, 2)
        matrices = store[rows[:, None, None], np.arange(2)[:, None], orders[:, None, :]]
        return Records(matrices.transpose(0, 1, 3, 2), self.ids[rows], self.labels, self.rates[rows],
                       self.assignments[rows[:, None], orders])


def h_hat_stack(samples) -> np.ndarray:
    """The estimates of ``samples`` as one C-contiguous (S, M, N) complex array; ``samples``
    is a ``Records``, or a list of ``Sample`` as ``predict_labels(model, [records[j]])`` passes."""
    if isinstance(samples, Records):
        return np.ascontiguousarray(samples.H_hat, dtype=complex)
    return np.stack([np.asarray(s.H_hat, dtype=complex) for s in samples])


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


def _generate_one(cfg: ScenarioConfig, covariances: tuple[CovarianceMatrix, ...], hrs: HrsConfig, index: int):
    """``(H_true, H_hat, label, label rate, covariance indices)`` of draw ``index``."""
    assignment = draw_assignment(cfg, index)
    channels = sample_channels(covariances, assignment, (cfg.seed, index, _SALT_SAMPLE, 1))
    channels = corrupt_csi(channels, cfg.tau, (cfg.seed, index, _SALT_CSI))
    dendrogram = agglomerate(channels.H_hat)
    partition, rate = best_partition(channels.H_true, channels.H_hat, dendrogram, hrs)
    return channels.H_true, channels.H_hat, partition.key(), rate.R_total, assignment


def generate_samples(cfg: ScenarioConfig, threads: int = 1) -> Records:
    """Draw ``cfg.samples`` labeled realizations; deterministic per seed.

    Every sample owns a child seed derived from (master seed, index), so the
    result is identical whether generated serially or across workers. The
    draws fill one store laid out as in the blob; labels are numbered in the
    order they are first drawn.
    """
    one = partial(_generate_one, cfg, cfg.covariances(), cfg.hrs_config())
    indices = range(cfg.samples)
    if threads <= 1:
        draws = map(one, indices)
    else:
        with Pool(min(threads, -(-cfg.samples // _GEN_CHUNK))) as pool:
            draws = pool.map(one, indices, chunksize=_GEN_CHUNK)
    store = np.empty((cfg.samples, 2, cfg.users, cfg.antennas), dtype=complex)
    ids, labels = np.empty(cfg.samples, dtype=np.int64), {}
    rates, assignments = np.empty(cfg.samples), np.empty((cfg.samples, cfg.users), dtype=np.int64)
    for i, (h_true, h_hat, label, rate, assignment) in enumerate(draws):
        store[i, 0], store[i, 1] = h_true.T, h_hat.T
        ids[i], rates[i], assignments[i] = labels.setdefault(label, len(labels)), rate, assignment
    return Records(store.transpose(0, 1, 3, 2), ids, tuple(labels), rates, assignments)


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
    orders = np.tile(np.arange(records.assignments.shape[1]), (len(rows) * copies, 1))
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
    over the generation store, from which each split's records are taken once."""
    raw = generate_samples(cfg, threads=threads)
    rows, orders = augment(raw, balance(raw), cfg.seed)
    *picks, class_index = split(raw, rows, cfg.seed)
    # the generation store, its ids numbered as in class_index; a class balancing dropped reads -1 and is never taken
    named = Records(raw.matrices, class_ids(raw, class_index), tuple(class_index), raw.rates, raw.assignments)
    return DatasetSplit(*(named.take(rows[pick], orders[pick]) for pick in picks), class_index, cfg)


def serialize(dataset: DatasetSplit, path) -> None:
    """Write the dataset container; byte-exact and reloadable.

    Every split is checked before the file is opened; then each split's
    matrices are written as one part straight from its store, followed by
    the record columns.
    """
    cfg = dataset.config
    matrices, ids, rates, assignments = zip(*(_columns(part, dataset.class_index, cfg.antennas, cfg.users)
                                              for _, part in dataset.parts()))
    ids, rates, assignments = np.concatenate(ids), np.concatenate(rates), np.concatenate(assignments)
    _check_columns("sample", ids, rates, assignments, len(dataset.class_index), cfg.num_covs)
    header = {
        "format_version": DATASET_VERSION,
        "config": cfg.to_dict(),
        "class_index": dataset.class_index,
        "split_sizes": [len(part) for _, part in dataset.parts()],
    }
    tail = (ids.astype("<i4").tobytes(), rates.astype("<f8").tobytes(), assignments.astype("<i4").tobytes())
    _binio.write_container(path, DATASET_MAGIC, header, chain(matrices, tail))


def _columns(records: Records, class_index: dict[str, int], m: int, n: int):
    """``(matrices laid out as in the blob, class_index ids, label rates, (S, n)
    covariance indices)`` of one split, refused unless its matrices are m x n,
    every record has n covariance indices and every label is in
    ``class_index``."""
    shape, count = records.matrices.shape[2:], records.assignments.shape[1]
    if shape != (m, n) or count != n:
        raise DataFormatError(f"sample matrices have shape {shape} and {count} "
                              f"covariance indices, expected {(m, n)} and {n}")
    ids = class_ids(records, class_index)
    if (ids < 0).any():
        label = records.labels[records.ids[np.argmax(ids < 0)]]
        raise DataFormatError(f"sample label {label!r} is not a key of class_index")
    # the blob's bytes: each matrix stored transposed, in C order; a store already is
    matrices = np.ascontiguousarray(records.matrices.transpose(0, 1, 3, 2), dtype="<c16")
    return matrices, ids, records.rates, records.assignments


def load(path, splits=SPLITS) -> DatasetSplit:
    """Read a dataset container, viewing the records of ``splits`` as ``Records``;
    the others are zero-row ``Records``.

    Every byte is CRC-checked and every record column checked with one array
    predicate; the matrices of records before the first wanted split are read
    past, never held.
    """
    if not set(splits) <= set(SPLITS):
        raise ValueError(f"splits must be among {SPLITS}, got {splits!r}")
    (cfg, class_index, labels, bounds, first), kept = _binio.read_container(
        path, DATASET_MAGIC, DATASET_VERSION, partial(_layout, path, splits))
    m, n, count = cfg.antennas, cfg.users, bounds[-1]
    span = 2 * m * n * 16
    # the kept bytes run from record ``first``'s matrices to the end of the blob
    base = first * span
    matrices = np.frombuffer(kept, "<c16", (count - first) * 2 * m * n).reshape(-1, 2, n, m).transpose(0, 1, 3, 2)
    ids = np.frombuffer(kept, "<i4", count, count * span - base)
    rates = np.frombuffer(kept, "<f8", count, count * (span + 4) - base)
    assignments = np.frombuffer(kept, "<i4", count * n, count * (span + 12) - base).reshape(count, n)
    _check_columns(f"{path}: record", ids, rates, assignments, len(labels), cfg.num_covs)
    ranges = [(lo, hi) if name in splits else (first, first) for name, lo, hi in zip(SPLITS, bounds, bounds[1:])]
    parts = [Records(matrices[lo - first : hi - first], ids[lo:hi], labels, rates[lo:hi], assignments[lo:hi])
             for lo, hi in ranges]
    return DatasetSplit(*parts, class_index, cfg)


def _layout(path, splits, header: dict, blob_size: int):
    """Check a dataset header against its blob's size; returns ``((config, class_index,
    its labels in id order, split bounds, first wanted record), blob offset of that record)``."""
    _binio.require(header, _HEADER_FIELDS, path)
    try:
        cfg = ScenarioConfig.from_dict(header["config"])
    except ConfigurationError as exc:
        raise DataFormatError(f"{path}: config is refused ({exc})") from exc
    class_index = header["class_index"]
    labels = tuple(sorted(class_index, key=class_index.get))
    if [class_index[label] for label in labels] != list(range(len(labels))):
        raise DataFormatError(f"{path}: class_index must number its labels 0..{len(labels) - 1}, each once")
    for label in labels:
        if not is_canonical_key(label, cfg.users):
            raise DataFormatError(f"{path}: class_index key {label!r} is not a canonical partition key "
                                  f"of {cfg.users} users")
    sizes = header["split_sizes"]
    if len(sizes) != len(SPLITS) or min(sizes) < 0:
        raise DataFormatError(f"{path}: split_sizes {sizes} is not {len(SPLITS)} record counts, each >= 0")
    bounds = list(accumulate(sizes, initial=0))
    span, count = 2 * cfg.antennas * cfg.users * 16, bounds[-1]
    # per record: two <c16 matrices, then a <i4 class id, a <f8 rate and n <i4 covariance indices
    record = span + 12 + 4 * cfg.users
    if blob_size != count * record:
        raise DataFormatError(f"{path}: blob holds {blob_size} bytes, not the {count} x {record} "
                              f"of its {count} records")
    first = min((bounds[SPLITS.index(name)] for name in splits), default=count)
    return (cfg, class_index, labels, bounds, first), first * span


def _check_columns(where: str, ids, rates, assignments, num_classes: int, num_covs: int) -> None:
    """Refuse, naming the first bad record, a class id outside [0, num_classes),
    a rate that is not finite, or a covariance index outside [0, num_covs)."""
    checks = (
        ("label id", ids, (ids < 0) | (ids >= num_classes), f"in [0, {num_classes}), the ids of class_index"),
        ("label_rate", rates, ~np.isfinite(rates), "a finite number"),
        ("cov_assignment", assignments, ((assignments < 0) | (assignments >= num_covs)).any(axis=1),
         f"{assignments.shape[1]} indices in [0, {num_covs})"),
    )
    for name, column, bad, rule in checks:
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise DataFormatError(f"{where} {i} has {name} {column[i].tolist()!r}, which is not {rule}")


def export_labels_csv(dataset: DatasetSplit, path) -> None:
    """Flat (label, rate, scenario, split) table for external analysis."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "rate", "scenario", "split"])
        for split_name, part in dataset.parts():
            writer.writerows([part.labels[i], repr(rate), dataset.config.name, split_name]
                             for i, rate in zip(part.ids.tolist(), part.rates.tolist()))
