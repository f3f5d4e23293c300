"""Labeled dataset generation: sampling, balancing, augmentation, splitting.

Each sample pairs a true and an estimated channel matrix with the partition
key that maximizes the achievable rate among the dendrogram levels of that
realization. Class balancing drops groupings that are both rare and weak,
then caps class sizes; augmentation shuffles users within their labeled
blocks (the label is invariant to such reorderings); the stratified
80/10/10 split keeps every surviving class represented in training.

Datasets are stored in a binary container (magic ``HRSDAT01``) holding the
generating configuration, the class index, per-record metadata, and the raw
complex matrices, protected by a CRC32 trailer.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from functools import partial
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
        if self.users < 1 or self.antennas < 1:
            raise ConfigurationError("users and antennas must be positive")
        if self.samples < 1:
            raise ConfigurationError("samples must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if self.num_covs < 1:
            raise ConfigurationError(f"num_covs must be at least 1, got {self.num_covs}")
        if not 0.0 <= self.tau_sq <= 1.0:
            raise ConfigurationError("tau_sq must lie in [0, 1]")
        if self.total_power <= 0:
            raise ConfigurationError("total power must be positive")
        for thr in (self.rate_floor_frac, self.min_class_samples, self.max_class_samples, self.num_shuffles):
            if thr <= 0:
                raise ConfigurationError("balance and augmentation thresholds must be positive")
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
        if "users" not in raw or "antennas" not in raw:
            raise ConfigurationError("config requires 'users' and 'antennas'")
        known = {f for f in ScenarioConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        try:
            if "azimuths" in kwargs:
                kwargs["azimuths"] = tuple(kwargs["azimuths"])
            return ScenarioConfig(**kwargs)
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

    def all_samples(self) -> list[Sample]:
        return self.train + self.validation + self.test

    @property
    def num_classes(self) -> int:
        return len(self.class_index)


@dataclass(frozen=True)
class _GenContext:
    config: ScenarioConfig
    covariances: tuple[CovarianceMatrix, ...]
    calibration: SimilarityCalibration
    hrs: HrsConfig


def draw_assignment(cfg: ScenarioConfig, index: int) -> tuple[int, ...]:
    """Uniform covariance index per user for sample ``index``."""
    rng = np.random.default_rng((cfg.seed, index, _SALT_SAMPLE))
    return tuple(int(a) for a in rng.integers(0, cfg.num_covs, cfg.users))


def _generate_one(ctx: _GenContext, index: int) -> Sample:
    cfg = ctx.config
    assignment = draw_assignment(cfg, index)
    channels = sample_channels(ctx.covariances, assignment, (cfg.seed, index, _SALT_SAMPLE, 1))
    channels = corrupt_csi(channels, cfg.tau, (cfg.seed, index, _SALT_CSI))
    dendrogram = agglomerate(channels.H_hat, ctx.calibration)
    partition, rate = best_partition(channels.H_true, channels.H_hat, dendrogram, ctx.hrs)
    return Sample(
        channels.H_true, channels.H_hat, partition.key(), rate.R_total, assignment
    )


def generate_samples(cfg: ScenarioConfig, threads: int = 1) -> list[Sample]:
    """Draw ``cfg.samples`` labeled realizations; deterministic per seed.

    Every sample owns a child seed derived from (master seed, index), so the
    result is identical whether generated serially or across workers.
    """
    one = partial(_generate_one, _GenContext(cfg, cfg.covariances(), cfg.calibration(), cfg.hrs_config()))
    indices = range(cfg.samples)
    if threads <= 1:
        return [one(i) for i in indices]
    with Pool(threads) as pool:
        return pool.map(one, indices, chunksize=8)


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
    """Write the dataset container; byte-exact and reloadable."""
    records = []
    blob_parts = []
    offset = 0
    m = dataset.config.antennas
    n = dataset.config.users
    for part_name, part in (
        ("train", dataset.train),
        ("validation", dataset.validation),
        ("test", dataset.test),
    ):
        for s in part:
            if s.H_true.shape != (m, n) or s.H_hat.shape != (m, n):
                raise DataFormatError(
                    f"sample matrices have shape {s.H_true.shape}, expected {(m, n)}"
                )
            payload = (
                np.asfortranarray(s.H_true, dtype="<c16").tobytes(order="F")
                + np.asfortranarray(s.H_hat, dtype="<c16").tobytes(order="F")
            )
            records.append(
                {
                    "split": part_name,
                    "label": s.label,
                    "label_rate": s.label_rate,
                    "cov_assignment": list(s.cov_assignment),
                    "offset": offset,
                    "nbytes": len(payload),
                }
            )
            blob_parts.append(payload)
            offset += len(payload)
    header = {
        "format_version": DATASET_VERSION,
        "config": dataset.config.to_dict(),
        "class_index": dataset.class_index,
        "num_records": len(records),
        "records": records,
    }
    _binio.write_container(path, DATASET_MAGIC, header, b"".join(blob_parts))


def load(path) -> DatasetSplit:
    header, blob = _binio.read_container(path, DATASET_MAGIC)
    if header.get("format_version") != DATASET_VERSION:
        raise DataFormatError(
            f"{path}: unsupported dataset version {header.get('format_version')}"
        )
    cfg = ScenarioConfig.from_dict(header["config"])
    m, n = cfg.antennas, cfg.users
    matrix_bytes = m * n * 16
    parts: dict[str, list[Sample]] = {"train": [], "validation": [], "test": []}
    for rec in header["records"]:
        start, nbytes = rec["offset"], rec["nbytes"]
        if nbytes != 2 * matrix_bytes or start + nbytes > len(blob):
            raise DataFormatError(f"{path}: record at offset {start} is malformed")
        raw = blob[start : start + nbytes]
        h_true = np.frombuffer(raw[:matrix_bytes], dtype="<c16").reshape((m, n), order="F")
        h_hat = np.frombuffer(raw[matrix_bytes:], dtype="<c16").reshape((m, n), order="F")
        if rec["split"] not in parts:
            raise DataFormatError(f"{path}: unknown split {rec['split']!r}")
        parts[rec["split"]].append(
            Sample(
                h_true,
                h_hat,
                rec["label"],
                float(rec["label_rate"]),
                tuple(int(a) for a in rec["cov_assignment"]),
            )
        )
    return DatasetSplit(
        parts["train"],
        parts["validation"],
        parts["test"],
        {k: int(v) for k, v in header["class_index"].items()},
        cfg,
    )


def export_labels_csv(dataset: DatasetSplit, path) -> None:
    """Flat (label, rate, scenario, split) table for external analysis."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "rate", "scenario", "split"])
        for split_name, part in (
            ("train", dataset.train),
            ("validation", dataset.validation),
            ("test", dataset.test),
        ):
            for s in part:
                writer.writerow([s.label, repr(s.label_rate), dataset.config.name, split_name])
