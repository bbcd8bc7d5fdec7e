"""Each classifier's depth rule, and the adaptive walk's early stopping.

Every classifier pools the fraction of 1-labels over each shard's k_j nearest
neighbors and differs only in its depths (``depths``). The adaptive walk steps
k1 = 1, 2, ... and slaves every other shard's depth to k1 through
k_j = ceil(k1 * n_j / n_1). At each step the statistic
r = sqrt(2 * sum k_j) * |eta - 1/2| is compared against sqrt((d + 2) * log N).
``dann`` stops at the first crossing, or at the search bound
ceil(n_1 * N^(-d/(2+d)) * log N) if no k1 crosses; ``dann_nes`` walks on to
n_1. The fixed-depth distributed NN and distributed 1-NN take a single step.

The loop is evaluated as a vectorized scan over the whole k1 range followed
by a first-crossing lookup; this is decision-for-decision identical to the
sequential loop because the per-step statistics do not depend on earlier
stopping decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ClassifierKind",
    "StoppingConfig",
    "k1_bound",
    "stopping_threshold",
    "depth_matrix",
    "depths",
    "scan_first_crossing",
]


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


@dataclass(frozen=True)
class StoppingConfig:
    """Total sample size and dimension as used by the stopping rule.

    ``include_log_in_bound`` selects between the two bound variants: with the
    log(N) factor (the default) or without it. Natural log throughout.
    """

    N: int
    d: int
    include_log_in_bound: bool = True

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("N must be >= 2")
        if self.d < 1:
            raise ValueError("d must be >= 1")


def k1_bound(n1: int, cfg: StoppingConfig) -> int:
    """Search bound for k1: max(1, ceil(n1 * N^(-d/(2+d)) [* log N]))."""
    if not 1 <= n1 <= cfg.N:
        raise ValueError(f"n1={n1} outside [1, N={cfg.N}]")
    value = n1 * cfg.N ** (-cfg.d / (2 + cfg.d))
    if cfg.include_log_in_bound:
        value *= math.log(cfg.N)
    return max(1, math.ceil(value))


def stopping_threshold(cfg: StoppingConfig) -> float:
    """Crossing level sqrt((d + 2) * log N)."""
    return math.sqrt((cfg.d + 2) * math.log(cfg.N))


def depth_matrix(cap: int, sizes: np.ndarray) -> np.ndarray:
    """Per-step shard depths: row b is (min(ceil((b+1) n_j / n_1), n_j))_j, shape (cap, m)."""
    k1s = np.arange(1, cap + 1, dtype=np.int64)[:, None]
    nj = np.asarray(sizes, dtype=np.int64)[None, :]
    n1 = int(sizes[0])
    return np.minimum((k1s * nj + n1 - 1) // n1, nj)


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


def scan_first_crossing(
    prefix: np.ndarray, kj: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the whole k1 walk and locate the first threshold crossing.

    ``kj`` has shape (cap, m) with 1-based depths per step; ``prefix`` has
    shape (..., sum_j kj[-1, j]): each shard's label prefix sums to its last
    depth, back to back (``engine.build_prefix_tensor``). Returns the 0-based
    stop index (first crossing, else cap-1), the pooled eta at every step
    (shape (..., cap)) and the crossed flag, broadcast over leading axes.
    Another length, or a step past the last in a shard, raises ``IndexError``.
    """
    cap, _ = kj.shape
    last = kj[-1]
    if prefix.shape[-1] != last.sum():
        raise IndexError(f"profiles of length {prefix.shape[-1]} do not hold the last step's {last.sum()} entries")
    if (kj > last).any():
        raise IndexError("a step reads some shard deeper than the last step does")
    # step b reads shard j's prefix at (kj[b, j] - 1) + the depths of the
    # shards before j. Laid out (m, cap), both sums run over contiguous rows.
    at = kj.T.copy()  # a copy even where kj.T is already contiguous, as at cap = 1
    total = at.sum(axis=0)  # (cap,)
    at += (np.cumsum(last) - last - 1)[:, None]
    counts = np.take(prefix, at, axis=-1).sum(axis=-2)  # (..., cap)
    eta = counts / total
    r = eta - 0.5  # r = |eta - 1/2| sqrt(2 total), in place
    np.abs(r, out=r)
    scale = 2.0 * total
    r *= np.sqrt(scale, out=scale)
    crossed_steps = r > threshold
    any_crossed = crossed_steps.any(axis=-1)
    first = np.argmax(crossed_steps, axis=-1)
    stop = np.where(any_crossed, first, cap - 1)
    return stop, eta, any_crossed
