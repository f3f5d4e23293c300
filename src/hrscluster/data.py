"""Labeled dataset generation: sampling, balancing, augmentation, splitting.

Each sample pairs a true and an estimated channel matrix with the partition
key that maximizes the achievable rate among the dendrogram levels of that
realization. Class balancing drops groupings that are both rare and weak,
then caps class sizes; augmentation shuffles users within their labeled
blocks (the label is invariant to such reorderings); the stratified
80/10/10 split keeps every surviving class represented in training.

Datasets are stored in a binary container (magic ``HRSDAT01``) holding the
generating configuration, the class index, per-record metadata, and the raw
complex matrices, protected by a CRC32 trailer. The records' matrices lie
back to back in storage order, so ``load`` checks the record fields one
column at a time and views every matrix in one strided array over the
file's bytes, copying none.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import chain
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import _binio
from .channel import ArrayGeometry, CovarianceMatrix, build_covariance, corrupt_csi, sample_channels
from .clustering import SimilarityCalibration, agglomerate, best_partition
from .errors import ConfigurationError, DataFormatError, StratificationError
from .hrs import HrsConfig, uniform_alpha_grid, uniform_beta_grid
from .partitions import Partition

DATASET_MAGIC = b"HRSDAT01"
DATASET_VERSION = 2

REFERENCE_SCENARIOS = ((8, 4), (8, 8), (8, 12), (12, 6), (12, 12), (12, 16))

# Salts keeping the per-stage random streams disjoint.
_SALT_SAMPLE = 1
_SALT_CSI = 2
_SALT_AUGMENT = 3
_SALT_SPLIT = 4

# DatasetSplit's sample lists, in storage order.
SPLITS = ("train", "validation", "test")

# JSON types of the dataset header's fields and of each of its records.
_HEADER_FIELDS = {"config": dict, "class_index": (dict, int), "num_records": int, "records": (list, dict)}
_RECORD_FIELDS = {"split": str, "label": str, "label_rate": float, "cov_assignment": (list, int),
                  "offset": int, "nbytes": int}

# Draws per task of the generation pool; workers beyond the task count would idle.
_GEN_CHUNK = 8


def default_azimuths(num_covs: int) -> tuple[float, ...]:
    return tuple(-np.pi / 2 + np.pi / 3 * g for g in range(num_covs))


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
    num_covs: int = 4
    azimuths: tuple[float, ...] = ()
    spread: float = float(np.pi / 6)
    integration_points: int = 512
    num_alpha: int = 10
    num_beta: int = 10
    rate_floor_frac: float = 0.25
    min_class_samples: int = 50
    max_class_samples: int = 200
    num_shuffles: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ConfigurationError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and (
                isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value)
            ):
                raise ConfigurationError(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "str" and not isinstance(value, str):
                raise ConfigurationError(f"{f.name} must be a string, got {value!r}")
        if "/" in self.name or "\0" in self.name or self.name in (".", ".."):
            raise ConfigurationError(f"name must be a plain file name, got {self.name!r}")
        for key in ("users", "antennas", "samples", "num_covs", "num_alpha", "num_beta",
                    "min_class_samples", "max_class_samples", "num_shuffles"):
            if getattr(self, key) < 1:
                raise ConfigurationError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.tau_sq <= 1.0:
            raise ConfigurationError("tau_sq must lie in [0, 1]")
        if self.total_power <= 0:
            raise ConfigurationError("total power must be positive")
        if self.rate_floor_frac <= 0:
            raise ConfigurationError(f"rate_floor_frac must be positive, got {self.rate_floor_frac}")
        if not self.azimuths:
            object.__setattr__(self, "azimuths", default_azimuths(self.num_covs))
        if len(self.azimuths) != self.num_covs:
            raise ConfigurationError("need one azimuth per covariance")
        if not all(isinstance(az, numbers.Real) and math.isfinite(az) for az in self.azimuths):
            raise ConfigurationError(f"azimuths must be finite real numbers, got {list(self.azimuths)}")
        if not self.name:
            object.__setattr__(self, "name", f"n{self.users}m{self.antennas}")

    @property
    def tau(self) -> float:
        return float(np.sqrt(self.tau_sq))

    def hrs_config(self) -> HrsConfig:
        return HrsConfig(
            total_power=self.total_power,
            alpha_grid=uniform_alpha_grid(self.num_alpha),
            beta_grid=uniform_beta_grid(self.num_beta),
        )

    def covariances(self) -> tuple[CovarianceMatrix, ...]:
        geometry = ArrayGeometry.uca(self.antennas)
        return tuple(
            build_covariance(geometry, az, self.spread, self.integration_points)
            for az in self.azimuths
        )

    def calibration(self) -> SimilarityCalibration:
        return SimilarityCalibration.for_scenario(self.antennas, self.users)

    def to_dict(self) -> dict:
        return {**asdict(self), "azimuths": list(self.azimuths)}

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        # a missing or unknown key raises TypeError naming it
        try:
            return ScenarioConfig(**{**raw, "azimuths": tuple(raw.get("azimuths", ()))})
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


@dataclass
class DatasetSplit:
    train: list[Sample]
    validation: list[Sample]
    test: list[Sample]
    class_index: dict[str, int]
    config: ScenarioConfig

    def parts(self) -> list[tuple[str, list[Sample]]]:
        """(split name, samples) pairs in storage order."""
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


def _generate_one(
    cfg: ScenarioConfig,
    covariances: tuple[CovarianceMatrix, ...],
    calibration: SimilarityCalibration,
    hrs: HrsConfig,
    index: int,
) -> Sample:
    assignment = draw_assignment(cfg, index)
    channels = sample_channels(covariances, assignment, (cfg.seed, index, _SALT_SAMPLE, 1))
    channels = corrupt_csi(channels, cfg.tau, (cfg.seed, index, _SALT_CSI))
    dendrogram = agglomerate(channels.H_hat, calibration)
    partition, rate = best_partition(channels.H_true, channels.H_hat, dendrogram, hrs)
    return Sample(
        channels.H_true, channels.H_hat, partition.key(), rate.R_total, assignment
    )


def generate_samples(cfg: ScenarioConfig, threads: int = 1) -> list[Sample]:
    """Draw ``cfg.samples`` labeled realizations; deterministic per seed.

    Every sample owns a child seed derived from (master seed, index), so the
    result is identical whether generated serially or across workers.
    """
    one = partial(_generate_one, cfg, cfg.covariances(), cfg.calibration(), cfg.hrs_config())
    indices = range(cfg.samples)
    if threads <= 1:
        return [one(i) for i in indices]
    with Pool(min(threads, -(-cfg.samples // _GEN_CHUNK))) as pool:
        return pool.map(one, indices, chunksize=_GEN_CHUNK)


def balance(samples: list[Sample], cfg: ScenarioConfig) -> list[Sample]:
    """Drop classes that are both weak and rare, then cap class sizes.

    A class is removed only when its mean rate falls below
    ``rate_floor_frac`` of the scenario's overall mean rate AND it holds
    fewer than ``min_class_samples`` samples; surviving classes keep their
    first ``max_class_samples`` samples in generation order.
    """
    if not samples:
        raise ConfigurationError("cannot balance an empty sample list")
    scenario_mean = float(np.mean([s.label_rate for s in samples]))
    by_class: dict[str, list[Sample]] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s)
    survivors: list[Sample] = []
    floor = cfg.rate_floor_frac * scenario_mean
    for label, members in by_class.items():
        class_mean = float(np.mean([s.label_rate for s in members]))
        if class_mean < floor and len(members) < cfg.min_class_samples:
            continue
        survivors.extend(members[: cfg.max_class_samples])
    if not survivors:
        raise ConfigurationError(
            "balancing removed every class; the scenario is degenerate"
        )
    return survivors


def augment(samples: list[Sample], cfg: ScenarioConfig) -> list[Sample]:
    """Append ``num_shuffles`` copies of each sample with users shuffled
    inside their labeled blocks; both matrices are permuted identically. A
    shuffle inside blocks maps every block onto itself, so each copy keeps
    the sample's canonical label."""
    out: list[Sample] = []
    for index, s in enumerate(samples):
        out.append(s)
        partition = Partition.from_key(s.label)
        rng = np.random.default_rng((cfg.seed, index, _SALT_AUGMENT))
        n = s.H_true.shape[1]
        for _ in range(cfg.num_shuffles):
            perm = np.arange(n)
            for g in range(partition.num_groups):
                cols = partition.block_columns(g)
                perm[cols] = rng.permutation(perm[cols])
            out.append(
                Sample(
                    s.H_true[:, perm],
                    s.H_hat[:, perm],
                    s.label,
                    s.label_rate,
                    tuple(int(s.cov_assignment[p]) for p in perm),
                )
            )
    return out


def split(samples: list[Sample], seed: int) -> tuple[list[Sample], list[Sample], list[Sample], dict[str, int]]:
    """Stratified 80/10/10 split; every class lands in the training set."""
    by_class: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    labels = sorted(by_class)
    for label in labels:
        if len(by_class[label]) < 3:
            raise StratificationError(
                f"class {label!r} has only {len(by_class[label])} samples, need >= 3"
            )
    rng = np.random.default_rng((seed, _SALT_SPLIT))
    train_idx, val_idx, test_idx = [], [], []
    for label in labels:
        idx = np.array(by_class[label])
        rng.shuffle(idx)
        n = len(idx)
        n_val = max(1, n // 10)
        n_test = max(1, n // 10)
        val_idx.extend(idx[:n_val])
        test_idx.extend(idx[n_val : n_val + n_test])
        train_idx.extend(idx[n_val + n_test :])
    class_index = {label: i for i, label in enumerate(labels)}
    return (
        [samples[i] for i in sorted(train_idx)],
        [samples[i] for i in sorted(val_idx)],
        [samples[i] for i in sorted(test_idx)],
        class_index,
    )


def build_dataset(cfg: ScenarioConfig, threads: int = 1) -> DatasetSplit:
    """Full pipeline: generate, balance, augment, stratify."""
    raw = generate_samples(cfg, threads=threads)
    balanced = balance(raw, cfg)
    augmented = augment(balanced, cfg)
    train, val, test, class_index = split(augmented, cfg.seed)
    return DatasetSplit(train, val, test, class_index, cfg)


def serialize(dataset: DatasetSplit, path) -> None:
    """Write the dataset container; byte-exact and reloadable.

    Every sample's shape and label rate are checked before the file is
    opened, then the matrices are streamed to it one record at a time.
    """
    m = dataset.config.antennas
    n = dataset.config.users
    nbytes = 2 * m * n * 16
    records = []
    for part_name, part in dataset.parts():
        for s in part:
            if s.H_true.shape != (m, n) or s.H_hat.shape != (m, n):
                raise DataFormatError(
                    f"sample matrices have shape {s.H_true.shape}, expected {(m, n)}"
                )
            if not _all_finite((s.label_rate,)):
                raise DataFormatError(f"sample label_rate {s.label_rate!r} is not a finite number")
            records.append(
                {
                    "split": part_name,
                    "label": s.label,
                    "label_rate": s.label_rate,
                    "cov_assignment": list(s.cov_assignment),
                    "offset": len(records) * nbytes,
                    "nbytes": nbytes,
                }
            )
    header = {
        "format_version": DATASET_VERSION,
        "config": dataset.config.to_dict(),
        "class_index": dataset.class_index,
        "num_records": len(records),
        "records": records,
    }
    payloads = (
        np.asfortranarray(h, dtype="<c16").tobytes(order="F")
        for s in dataset.all_samples()
        for h in (s.H_true, s.H_hat)
    )
    _binio.write_container(path, DATASET_MAGIC, header, payloads)


def load(path) -> DatasetSplit:
    """Read a dataset container. Each record check runs once over a whole
    column; only a failed check walks the records to name the first bad one."""
    header, blob = _binio.read_container(path, DATASET_MAGIC, DATASET_VERSION)
    _binio.require(header, _HEADER_FIELDS, path)
    try:
        cfg = ScenarioConfig.from_dict(header["config"])
    except ConfigurationError as exc:
        raise DataFormatError(f"{path}: config is refused ({exc})") from exc
    class_index = header["class_index"]
    if sorted(class_index.values()) != list(range(len(class_index))):
        raise DataFormatError(f"{path}: class_index must number its labels 0..{len(class_index) - 1}, each once")
    records = header["records"]
    count = len(records)
    if header["num_records"] != count:
        raise DataFormatError(f"{path}: num_records is {header['num_records']}, but records holds {count}")
    col = _binio.require_all(records, _RECORD_FIELDS, path, "record")
    offsets, sizes, labels, splits, rates = (col[k] for k in ("offset", "nbytes", "label", "split", "label_rate"))
    assignments = list(map(tuple, col["cov_assignment"]))
    m, n = cfg.antennas, cfg.users
    span = 2 * m * n * 16
    covs = set(range(cfg.num_covs))
    # (holds for records lo..hi-1, message for a record i that fails it)
    checks = (
        (lambda lo, hi: offsets[lo:hi] == list(range(lo * span, hi * span, span)) and set(sizes[lo:hi]) <= {span},
         lambda i: f"has offset {offsets[i]} and nbytes {sizes[i]}, not {i * span} and {span}: "
                   "records lie back to back in the blob"),
        (lambda lo, hi: class_index.keys() >= set(labels[lo:hi]),
         lambda i: f"has label {labels[i]!r}, which class_index lacks"),
        (lambda lo, hi: set(SPLITS) >= set(splits[lo:hi]),
         lambda i: f"has unknown split {splits[i]!r}"),
        (lambda lo, hi: _all_finite(rates[lo:hi]),
         lambda i: f"has label_rate {rates[i]!r}, which is not a finite number"),
        (lambda lo, hi: set(map(len, assignments[lo:hi])) <= {n}
         and covs.issuperset(chain.from_iterable(assignments[lo:hi])),
         lambda i: f"cov_assignment {list(assignments[i])} is not {n} indices < {cfg.num_covs}"),
    )
    for holds, message in checks:
        if not holds(0, count):
            bad = next(i for i in range(count) if not holds(i, i + 1))
            raise DataFormatError(f"{path}: record {bad} {message(bad)}")
    if len(blob) != count * span:
        raise DataFormatError(f"{path}: blob holds {len(blob)} bytes, not the {count} x {span} of its records")
    matrices = np.frombuffer(blob, dtype="<c16").reshape(count, 2, n, m).transpose(0, 1, 3, 2)
    parts: dict[str, list[Sample]] = {name: [] for name in SPLITS}
    for h_true, h_hat, part, label, rate, assignment in zip(
        matrices[:, 0], matrices[:, 1], splits, labels, rates, assignments
    ):
        parts[part].append(Sample(h_true, h_hat, label, rate, assignment))
    return DatasetSplit(*parts.values(), class_index, cfg)


def _all_finite(values: list) -> bool:
    """Whether every value is a finite float64; an integer past its range is not."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def export_labels_csv(dataset: DatasetSplit, path) -> None:
    """Flat (label, rate, scenario, split) table for external analysis."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "rate", "scenario", "split"])
        for split_name, part in dataset.parts():
            for s in part:
                writer.writerow([s.label, repr(s.label_rate), dataset.config.name, split_name])
