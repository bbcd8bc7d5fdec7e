"""The classifier taxonomy and each classifier's depth rule.

Every classifier forms the same pooled estimate, the fraction of 1-labels
over each shard's k_j nearest neighbors, and differs only in how the per-shard
depths k_j are chosen: the adaptive classifier walks k1 up to its search
bound, the variant without early stopping walks k1 up to n_1, and the
fixed-depth distributed NN and distributed 1-NN take a single step.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .adaptive import StoppingConfig, depth_matrix, k1_bound

__all__ = ["ClassifierKind", "depths"]


class ClassifierKind(Enum):
    """The four classifiers exercised by the benchmark harness."""

    DANN = "dann"
    DANN_NES = "dann_nes"
    DNN_QIAO = "dnn_qiao"
    D1NN = "d1nn"

    @classmethod
    def parse(cls, name: str) -> "ClassifierKind":
        key = name.strip().lower()
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown classifier {name!r}; expected one of "
                         f"{[k.value for k in cls]}")


def depths(kind: ClassifierKind, sizes: np.ndarray, cfg: StoppingConfig) -> np.ndarray:
    """Per-step shard depths of a classifier, shape (steps, m).

    Row b holds the depths k_j of step b; the last row is the deepest, so it
    is how far each shard's neighbor profile must reach. ``sizes`` is sorted
    nonincreasing. ``dann`` walks k1 = 1 .. min(k1_bound(n_1), n_1) and
    ``dann_nes`` walks k1 = 1 .. n_1, both with k_j = ceil(k1 n_j / n_1).
    ``dnn_qiao`` takes one step at k_j = ceil(n_j N^(-d/(2+d))) clamped to
    [1, n_j], and ``d1nn`` one step at k_j = 1.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n1 = int(sizes[0])
    if kind is ClassifierKind.DANN:
        # For very small N at low dimension the bound formula can exceed n_1;
        # past n_1 every shard is already at full depth, so the walk is cut there.
        return depth_matrix(min(k1_bound(n1, cfg), n1), sizes)
    if kind is ClassifierKind.DANN_NES:
        return depth_matrix(n1, sizes)
    if kind is ClassifierKind.DNN_QIAO:
        k = np.ceil(sizes * cfg.N ** (-cfg.d / (2 + cfg.d))).astype(np.int64)
        return np.clip(k, 1, sizes)[None, :]
    if kind is ClassifierKind.D1NN:
        return np.ones((1, sizes.size), dtype=np.int64)
    raise ValueError(f"unhandled classifier kind {kind!r}")
