"""Census-income (UCI adult) ingestion and the real-data evaluation pipeline.

The raw file is comma-separated with no header; the six numeric columns age,
fnlwgt, education-num, capital-gain, capital-loss and hours-per-week form the
feature vector and the income column maps to 1 for ">50K". A row is kept
when it has 15 fields, a known income label and six finite numbers, so one
with the "?" missing marker in a used column is skipped and counted like any
other malformed row. The census pipeline (``distknn adult``) min-max
scales the features to [0, 1] with the ranges of the whole file, before the
train/test split, so every value is already inside [0, 1]; the clamp in
``apply_scaling`` only acts on ``distknn classify`` query rows that fall
outside the training file's ranges.
"""

from __future__ import annotations

import io
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Shard, StoppingConfig, _check_number, evaluate_queries, partition_pool
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
    "read_text",
    "ingest_adult",
    "fit_scaling",
    "apply_scaling",
    "train_test_split",
    "evaluate_real",
]

logger = logging.getLogger(__name__)

# Column positions in the raw adult schema (15 fields per row, the income last).
_ADULT_FIELD_COUNT = 15
_FEATURE_COLUMNS = {
    "age": 0,
    "fnlwgt": 2,
    "education_num": 4,
    "capital_gain": 10,
    "capital_loss": 11,
    "hours_per_week": 12,
}


def read_text(path) -> str:
    """A file's text, read as UTF-8 after its byte-order mark if it has one.

    A byte that is not UTF-8 is an error naming the file and the byte's line,
    where a CR LF pair, a lone CR and a lone LF each end a line, as they do
    for the readers that split this text into lines.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as err:  # err.object and its offsets start after the mark
        head = err.object[: err.start]
        byte, line = err.object[err.start], head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"{path}: line {line}: byte {byte:#04x} is not UTF-8 ({err.reason})") from None


def ingest_adult(path) -> tuple[np.ndarray, np.ndarray]:
    """Load the raw census file as (features, labels), skipping malformed rows.

    Features are the ``_FEATURE_COLUMNS`` in that order, unscaled, and labels
    are 1 for ">50K". A row is kept when it has ``_ADULT_FIELD_COUNT`` fields,
    an income of ">50K" or "<=50K" (a trailing period allowed) and six finite
    numbers; any other row is skipped and counted, and a blank line is no row.
    The "?" marker fails as a number or a label, so it drops a row only in a
    used column: it appears in categorical columns this pipeline never reads,
    and those rows stay in. A file with no usable row is rejected.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    skipped = 0
    for line in io.StringIO(read_text(path), newline=None):
        fields = [f.strip() for f in line.split(",")]
        if fields == [""]:
            continue
        income = fields[-1].rstrip(".")
        try:
            values = [float(fields[c]) for c in _FEATURE_COLUMNS.values()]
        except (IndexError, ValueError):
            values = [np.nan]
        if len(fields) == _ADULT_FIELD_COUNT and income in (">50K", "<=50K") and np.isfinite(values).all():
            rows.append(values)
            labels.append(int(income == ">50K"))
        else:
            skipped += 1
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
    """Random permutation split; the training side gets ceil(N*(1-f)) rows.

    Both sides must be usable: a test side with no row, or a training side
    with fewer than 2 (the least the stopping config takes), is rejected.
    """
    _check_number("test_fraction", test_fraction)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction={test_fraction} outside (0, 1)")
    n = shard.size
    n_train = int(np.ceil(n * (1.0 - test_fraction)))
    if n_train == n:
        raise ValueError("test split is empty; lower the test fraction")
    if n_train < 2:
        raise ValueError(f"test_fraction={test_fraction} leaves {n_train} of {n} rows for training; "
                         "at least 2 are needed")
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
    split mode from the config) and every test point is classified. Where
    ``workers`` > 1 takes a pool, the epsilon's classifiers share one whose
    workers hold the partition (``partition_pool``); it shuts down before the
    next epsilon. Rows report agreement with the true test labels, so the
    misclassification rate is 1 - agreement_rate.
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
        with partition_pool(part):  # started inside the first classifier's timing, so it pays the start
            for kind in cfg.classifiers:
                start = time.perf_counter()
                labels, k1s, _ = evaluate_queries(part, test.features, kind, stopping, workers=workers)
                elapsed = time.perf_counter() - start
                agree = (labels == test.labels).astype(np.int8)
                result.add_row(kind.value, eps, m, agree, k1s, elapsed)
    return result
