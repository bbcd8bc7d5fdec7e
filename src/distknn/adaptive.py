"""Data-driven choice of per-shard neighbor counts with early stopping.

The search walks k1 = 1, 2, ... and slaves every other shard's depth to k1
through k_j = ceil(k1 * n_j / n_1). At each step the pooled estimate is
formed and the signal statistic r = sqrt(2 * sum k_j) * |eta - 1/2| is
compared against sqrt((d + 2) * log N). The walk stops at the first crossing,
or at the search bound ceil(n_1 * N^(-d/(2+d)) * log N) if no k1 crosses.

The loop is evaluated as a vectorized scan over the whole k1 range followed
by a first-crossing lookup; this is decision-for-decision identical to the
sequential loop because the per-step statistics do not depend on earlier
stopping decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StoppingConfig",
    "k1_bound",
    "stopping_threshold",
    "depth_matrix",
    "scan_first_crossing",
]


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
    cap, m = kj.shape
    last = kj[-1]
    if prefix.shape[-1] != last.sum():
        raise IndexError(f"profiles of length {prefix.shape[-1]} do not hold the last step's {last.sum()} entries")
    if m == 1:
        total = kj[:, 0]
        counts = np.take(prefix, total - 1, axis=-1)  # (..., cap); a step past the last raises
    else:
        at = kj.T.copy()  # a copy even where kj.T is already contiguous, as at cap = 1
        if ((at > last[:, None]) if cap > m else (kj > last)).any():  # compared along the longer axis
            raise IndexError("a step reads some shard deeper than the last step does")
        # step b reads shard j's prefix at (kj[b, j] - 1) + the depths of the
        # shards before j. Laid out (m, cap), both sums run over contiguous rows.
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
