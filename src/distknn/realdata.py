"""Census-income (UCI adult) ingestion and the real-data evaluation pipeline.

The raw file is comma-separated with no header; the six numeric columns age,
fnlwgt, education-num, capital-gain, capital-loss and hours-per-week form the
feature vector and the income column maps to 1 for ">50K". A row is dropped
when any of those used columns carries the "?" missing marker; malformed rows
are skipped and counted. The census pipeline (``distknn adult``) min-max
scales the features to [0, 1] with the ranges of the whole file, before the
train/test split, so every value is already inside [0, 1]; the clamp in
``apply_scaling`` only acts on ``distknn classify`` query rows that fall
outside the training file's ranges.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .adaptive import StoppingConfig
from .engine import evaluate_queries
from .neighbors import Shard
from .simharness import (
    ExperimentResult,
    GridConfig,
    partition_proportional,
    partition_uniform,
    shard_count,
)

__all__ = [
    "DatasetSplit",
    "FeatureScaling",
    "ingest_adult",
    "fit_scaling",
    "apply_scaling",
    "train_test_split",
    "evaluate_real",
]

logger = logging.getLogger(__name__)

# Column positions in the raw adult schema (15 fields per row).
_ADULT_FIELD_COUNT = 15
_FEATURE_COLUMNS = {
    "age": 0,
    "fnlwgt": 2,
    "education_num": 4,
    "capital_gain": 10,
    "capital_loss": 11,
    "hours_per_week": 12,
}
_INCOME_COLUMN = 14
_MISSING = "?"


def ingest_adult(path) -> tuple[np.ndarray, np.ndarray]:
    """Load the raw census file as (features, labels), dropping missing/malformed rows.

    Features are the ``_FEATURE_COLUMNS`` in that order, unscaled, and labels
    are 1 for ">50K". The missing-value rule applies to the used columns only:
    the "?" marker appears in categorical columns this pipeline never reads,
    and those rows stay in. A file with no usable row is rejected.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != _ADULT_FIELD_COUNT:
                skipped += 1
                continue
            used = [fields[c] for c in _FEATURE_COLUMNS.values()] + [fields[_INCOME_COLUMN]]
            if _MISSING in used:
                skipped += 1
                continue
            income = fields[_INCOME_COLUMN].rstrip(".")
            if income == ">50K":
                label = 1
            elif income == "<=50K":
                label = 0
            else:
                skipped += 1
                continue
            try:
                values = [float(fields[c]) for c in _FEATURE_COLUMNS.values()]
            except ValueError:
                skipped += 1
                continue
            if not all(np.isfinite(values)):
                skipped += 1
                continue
            rows.append(values)
            labels.append(label)
    if skipped:
        logger.info("ingest: kept %d records, skipped %d rows", len(rows), skipped)
    if not rows:
        raise ValueError(f"{path}: no usable census rows")
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


@dataclass(frozen=True)
class FeatureScaling:
    """Per-column min-max parameters of the rows they were fitted on."""

    mins: np.ndarray
    maxs: np.ndarray


def fit_scaling(features: np.ndarray) -> FeatureScaling:
    if features.size == 0:
        raise ValueError("cannot fit scaling on empty data")
    return FeatureScaling(mins=features.min(axis=0), maxs=features.max(axis=0))


def apply_scaling(features: np.ndarray, scaling: FeatureScaling) -> np.ndarray:
    """Map each column through the fitted range and clamp into [0, 1].

    Constant training columns map to 0.
    """
    span = scaling.maxs - scaling.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (features - scaling.mins) / safe
    scaled[:, span == 0] = 0.0
    return np.clip(scaled, 0.0, 1.0)


@dataclass(frozen=True)
class DatasetSplit:
    train: Shard
    test: Shard


def train_test_split(shard: Shard, test_fraction: float, rng: np.random.Generator) -> DatasetSplit:
    """Random permutation split; the training side gets ceil(N*(1-f)) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction={test_fraction} outside (0, 1)")
    n = shard.size
    n_train = int(np.ceil(n * (1.0 - test_fraction)))
    if n_train == n:
        raise ValueError("test split is empty; lower the test fraction")
    perm = rng.permutation(n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    return DatasetSplit(
        train=Shard(1, shard.features[train_idx], shard.labels[train_idx]),
        test=Shard(2, shard.features[test_idx], shard.labels[test_idx]),
    )


def evaluate_real(
    train: Shard,
    test: Shard,
    cfg: GridConfig,
    workers: int = 1,
) -> ExperimentResult:
    """Score every enabled classifier on the test set across the epsilon grid.

    For each epsilon the training set is partitioned once (m = ceil(N^eps),
    split mode from the config) and every test point is classified. Rows
    report agreement with the true test labels, so the misclassification rate
    is 1 - agreement_rate.
    """
    if train.dim != test.dim:
        raise ValueError("train and test dimensions differ")
    n_train = train.size
    stopping = StoppingConfig(N=n_train, d=train.dim, include_log_in_bound=cfg.include_log_in_bound)
    result = ExperimentResult(config=cfg, rows=[])
    for eps_idx, eps in enumerate(cfg.epsilons):
        m = shard_count(n_train, eps)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(eps_idx,)))
        # this module's names, looked up at call time, so the benchmark's tracer can wrap them here
        part = (partition_uniform if cfg.split == "uniform" else partition_proportional)(train, m, rng)
        for kind in cfg.classifiers:
            start = time.perf_counter()
            labels, k1s, _ = evaluate_queries(part, test.features, kind, stopping, workers=workers)
            elapsed = time.perf_counter() - start
            agree = (labels == test.labels).astype(np.int8)
            result.add_row(kind.value, eps, m, agree, k1s, elapsed)
    return result
