"""The classifiers end to end: depth rules, exact neighbor search and the walk.

Every classifier pools the fraction of 1-labels over each shard's k_j nearest
neighbors and differs only in its depths (``depths``). The adaptive walk steps
k1 = 1, 2, ... and slaves every other shard's depth to k1 through
k_j = ceil(k1 * n_j / n_1). At each step the statistic
r = sqrt(2 * sum k_j) * |eta - 1/2| is compared against sqrt((d + 2) * log N).
``dann`` stops at the first crossing, or at the search bound
ceil(n_1 * N^(-d/(2+d)) * log N) if no k1 crosses; ``dann_nes`` walks on to
n_1. The fixed-depth distributed NN and distributed 1-NN take a single step.

Neighbors are ordered by (distance, point index within the shard): ties in
distance are broken by ascending index, so every search result is
deterministic and bit-for-bit reproducible. Distances come from one kernel
(``query_distance_matrix``), ``k_smallest_rows`` selects in that order, and
the two profile builders turn each shard's pick into label prefix sums.
``oracle.py`` follows the same contract with plain loops, so the two agree bit
for bit at every dimension.

A Partition keeps all shards of one split in two flat read-only arrays, shards
laid out contiguously in nonincreasing size order; a Shard, one machine's
labeled points, is a Partition of one shard. Because equal-sized shards sit
next to each other, neighbor search vectorizes across whole runs of shards
that share a size and a depth (and across query batches): the Python loop is
over runs, never over shards. Where those runs are many per query row, as on a
proportional split's middle epsilons (``SEGMENT_RUNS_PER_ROW``), the profiles
instead come from one sort of each distance row's candidates. Either way, a
query's profiles are one row: the shards' label prefix sums back to back.

``scan_first_crossing`` evaluates the walk over such rows as a vectorized scan
of the whole k1 range followed by a first-crossing lookup; this is
decision-for-decision identical to the sequential loop because the per-step
statistics do not depend on earlier stopping decisions.

Every classification goes through ``_classify_chunk``, which classifies a
chunk in blocks of query rows whose distance matrix stays within
``BLOCK_BYTES``. So the temporaries of ``evaluate_queries`` follow that budget
(or one row, 8 N bytes, if larger), not ``chunk_size`` x N; ``chunk_size`` only
sets how the queries are split into pool tasks. The pool's workers receive the
partition once, as they start, and each task only its query chunk; a
``partition_pool`` block keeps one pool for every call on its partition, as
``realdata.evaluate_real`` does for an epsilon's classifiers. Each block's
distances are computed once, the kernel making its passes over column tiles
of about ``TILE_BYTES`` so that they stay in cache, and its walks run in
stages (``_stage_caps``): ``dann_nes`` with n_1 > ``STAGE_STEPS`` x
``STAGE_GROWTH`` first builds and scans 16 steps' profiles, and only the rows
that have not crossed go on to 4 times as many steps, and so on up to n_1;
every other walk is a single stage. Because a
step's statistic does not depend on earlier decisions, a stage that stops a
row stops it where the whole walk would, so only the rows that never cross
read every shard to its end.

A block of at least ``SCREEN_ROWS`` query rows in a single-stage walk screens
its leading shards of at least ``SCREEN_WIDTH`` points whose depth is short of
the whole shard (``_screened_points``): their neighbors are selected on
float32 squared distances from the same kernel, run on the partition's
float32 copy (``Partition.screen_copy``, built once per partition in each
process at its first screened block, so one-row blocks never pay for it).
One check per block then finds every (query, shard) pair whose float32 pick
may differ from the exact one, by a rigorous bound on the float32 error
(``_settle_screen``), and redoes it in float64; every other pick is exact and
is put in (float64 distance, index) order. Only the picks are corrected: the
run loop then turns every pick, screened or not, into label sums the same
way. The rest of the row, full sorts, the candidate sort and smaller blocks
stay on float64, and every output is the float64 path's bit for bit.

Importing this module sets glibc's malloc thresholds for the whole process
(see ``_keep_temporaries_on_heap``); elsewhere it changes nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "ClassifierKind", "StoppingConfig", "k1_bound", "stopping_threshold", "depth_matrix", "depths",
    "Shard", "Partition", "query_distance_matrix", "k_smallest_rows", "scan_first_crossing",
    "evaluate_query", "evaluate_queries", "partition_pool",
]

# Full sorts of rows at least this wide take the unstable (SIMD) argsort and a
# tie check; below it the stable argsort is as fast or faster.
SORT_WIDTH = 32

# Picks of 2 to ROUNDS_K entries per row, short of the whole row, take one
# round of argmin each; beyond it argpartition's per-row cost is the smaller.
# Up to 12 the rounds won on blocks with rows 53 to 26049 entries wide; a
# single 20000-entry row crossed over at k = 13 to 14.
ROUNDS_K = 12

# Byte budget of one block's distance matrix in ``_classify_chunk``. Smaller
# blocks stay in cache, but each repeats the run loop of ``_run_profiles``,
# which many distinct shard sizes make costly; on census-scale chunks 2 MiB was
# never slower than one unblocked chunk and within a few percent of the best
# budget.
BLOCK_BYTES = 2 << 20

# Byte budget of one tile of ``query_distance_matrix``: the points of a tile
# take their d passes (subtract, square, add) while its (rows, tile) slab is in
# cache. Kernel alone, tiled against whole rows, medians of 41 interleaved
# ratios, bit-identical outputs, 2-core Xeon (2 MiB L2 per core): 0.71-0.74 at
# 10 rows x 26049 points (d = 6, a census block, 4 tiles), 0.75-0.78 at 4 x
# 60000 (d = 3), 0.81 at 13 x 20000, 0.88-0.93 at 5 x 26049, 1.00-1.02 at one
# row (one tile up to 65536 points) and at blocks of at most 8192 points (one
# tile). Minimum times at 10 x 26049: 128 KiB tiles 2.6x the 512 KiB time, 1
# MiB tiles 1.13x, 2 MiB (whole rows) 1.43x.
TILE_BYTES = 512 << 10

# ``build_prefix_tensor`` sorts each row's candidates (``_segmented_profiles``)
# where a block has at least SEGMENT_RUNS_PER_ROW runs of equal (size, depth)
# shards per query row. A row's candidates are cut at its K-th smallest
# distance, K = CANDIDATE_FACTOR x the summed profile depth, so the sort's cost
# follows the depths, not N, while the run loop's grows with the runs.
# Census-scale blocks (10 rows, N = 26049, d = 6, at most 116 runs) stay below
# the rule; there the loop beat a sort of whole rows at every eps.
# Medians of build_prefix_tensor with its distances (query_distance_matrix, then
# the builder), one query row, N = 60000, d = 3, proportional split, eps 0.4-0.6
# (82-245 runs), 2-core Xeon:
# - dann 0.96-1.39 ms, against 2.6-3.7 ms for a sort of the whole row;
# - dnn_qiao 1.03-1.27 and d1nn 1.00-1.27 ms, against the run loop's 1.59-2.80
#   and 0.96-2.21 ms;
# - factor 2 gave dann 1.01-1.29 ms but dnn_qiao and d1nn 1.07-1.35 ms, factor
#   8 gave 1.22-1.52 and 0.86-1.26 ms, and factor 4 1.12-1.24 and 0.87-1.22 ms.
SEGMENT_RUNS_PER_ROW = 64
CANDIDATE_FACTOR = 4

# Blocks of at least SCREEN_ROWS query rows select the neighbors of shards of
# at least SCREEN_WIDTH points on float32 squared distances and then make the
# picks exact in float64 (``_settle_screen``). The float32 kernel takes about
# 0.41 of the float64 one (0.66 against 1.61 ms at 10 x 26049, d = 6), while
# the check costs a pass over the screened distances and a fixed part per
# block, and float32 argmin is slower on short rows (2.7x at 58 points).
# _classify_chunk screened against the float64 path, medians of 7-11
# interleaved pairs, 2-core Xeon:
# - rows: on the census stand-in (N = 26049, d = 6) 2-row blocks read d1nn
#   0.70/0.83/1.01 and dann 0.91/0.89/1.00 at eps 0/0.3/0.6, 3-row blocks
#   0.77/0.68/0.91 and 0.90/0.84/0.96; on d = 3 grid partitions (N = 20000
#   uniform, eps 0/0.3/0.5) 2-row blocks lost, d1nn 1.03-1.25 and dann
#   1.15-1.31, and 3-row blocks dann 1.08-1.24, while 4-row blocks read d1nn
#   0.75-0.80 and dann 0.96-1.08, and 13-row blocks 0.73-0.83 and 0.94-0.98;
# - width: census uniform splits into shards of n points (10-row blocks) read
#   1.15 at n = 8, 0.94 at 16, 0.88 at 32 and 0.73 at 64; at d = 3 (13-row
#   blocks) shards of 32 read 1.19-1.22, of 48 1.07-1.27 and of 64
#   0.90-1.05. The census stand-in's proportional split at eps 0.6 (shards of
#   up to 116 points) read 0.89-0.90 with 32 or 64.
SCREEN_ROWS = 4
SCREEN_WIDTH = 64

# ``dann_nes`` walks in stages where n_1 > STAGE_STEPS x STAGE_GROWTH
# (``_stage_caps``): the first STAGE_STEPS steps, then only the rows that have
# not crossed on to STAGE_GROWTH times as many steps, and so on, the last stage
# capped at n_1. Each stage selects over the whole distance row again, so a
# shallow cap pays for two selections where one sort did: n_1 <= 64 stays
# whole. ``_classify_chunk`` of dann_nes against one unstaged walk, one query
# row, 3 partitions per eps 0-0.9, medians of 7 interleaved pairs, summed over
# eps, 2-core Xeon: 16 x 4 took 0.685 of the unstaged time at N = 60000
# (proportional) and 0.905 at N = 20000 (uniform); 16 x 8 took 0.692 and
# 0.903, 16 x 16 0.812 and 0.951, 8 x 4 0.800 and 0.927, 32 x 4 0.789 and
# 0.895. Single eps cells at N = 60000 read 0.25-0.64 at eps 0.4-0.6 over two
# seeds, and up to 1.6 where walks run to k1 in the thousands (eps <= 0.3).
STAGE_STEPS = 16
STAGE_GROWTH = 4

# float32's largest value: a screened pair's limit stays below half of it (``_settle_screen``)
_F32_MAX = float(np.finfo(np.float32).max)

# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _keep_temporaries_on_heap() -> None:
    """Serve temporaries up to 2 x ``BLOCK_BYTES`` from one heap that is kept.

    Under glibc's self-adjusting defaults, each grid run's 0.1-1.5 MB
    temporaries (sample, partition, distance row, depth tensors) go back to
    the kernel when freed and fault in again page by page in the next run.
    Fixed thresholds keep them on the heap, and freed heap up to 32 MiB stays
    with the process; setting either one turns the adjustment off, so both
    are set. One arena stops the process pool's feeder thread, which pickles
    every task, from keeping 32 MiB of its own. The setting is process-wide
    (every allocation from import on, inherited by forked pool workers) and
    moves only where memory is placed, never a value. Without a C library
    that exports ``mallopt`` (macOS, Windows) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 2 * BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 16 * BLOCK_BYTES)
    mallopt(_M_ARENA_MAX, 1)


_keep_temporaries_on_heap()


# The one rule for a count, a number or a flag at every boundary of the package:
# a bool, although an int, is never a count or a number.
def _check_integer(name: str, value, low: int | None = None) -> None:
    """Reject ``value`` unless it is a Python or numpy integer, and at least ``low`` if given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_number(name: str, value) -> None:
    """Reject ``value`` unless it is a Python or numpy integer or float."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _check_bool(name: str, value) -> None:
    """Reject ``value`` unless it is a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


class ClassifierKind(Enum):
    """The four classifiers exercised by the benchmark harness."""

    DANN = "dann"
    DANN_NES = "dann_nes"
    DNN_QIAO = "dnn_qiao"
    D1NN = "d1nn"

    @classmethod
    def parse(cls, name: str) -> "ClassifierKind":
        key = name.strip().lower() if isinstance(name, str) else None
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
        _check_integer("N", self.N, 2)
        _check_integer("d", self.d, 1)
        _check_bool("include_log_in_bound", self.include_log_in_bound)


def k1_bound(n1: int, cfg: StoppingConfig) -> int:
    """Search bound for k1: ceil(n1 * N^(-d/(2+d)) [* log N]), at least 1 as n1 >= 1 and N >= 2."""
    if not 1 <= n1 <= cfg.N:
        raise ValueError(f"n1={n1} outside [1, N={cfg.N}]")
    value = n1 * cfg.N ** (-cfg.d / (2 + cfg.d))
    if cfg.include_log_in_bound:
        value *= math.log(cfg.N)
    return math.ceil(value)


def stopping_threshold(cfg: StoppingConfig) -> float:
    """Crossing level sqrt((d + 2) * log N)."""
    return math.sqrt((cfg.d + 2) * math.log(cfg.N))


def depth_matrix(cap: int, sizes: np.ndarray) -> np.ndarray:
    """Per-step shard depths: row b is (ceil((b+1) n_j / n_1))_j, shape (cap, m).

    ``sizes`` is sorted nonincreasing. A walk of 1 <= cap <= n_1 steps keeps
    every k_j within [1, n_j]; another cap is rejected.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n1 = int(sizes[0])
    _check_integer("a walk's step count", cap)
    if not 1 <= cap <= n1:
        raise ValueError(f"a walk of {cap} steps is outside [1, n_1 = {n1}]")
    kj = np.arange(1, cap + 1, dtype=np.int64)[:, None] * sizes
    kj += n1 - 1
    kj //= n1
    return kj


def depths(kind: ClassifierKind, sizes: np.ndarray, cfg: StoppingConfig) -> np.ndarray:
    """Per-step shard depths of a classifier, shape (steps, m).

    Row b holds the depths k_j of step b; the last row is the deepest, so it
    is how far each shard's neighbor profile must reach. ``sizes`` is sorted
    nonincreasing. ``dann`` walks k1 = 1 .. min(k1_bound(n_1), n_1) and
    ``dann_nes`` walks k1 = 1 .. n_1, both with k_j = ceil(k1 n_j / n_1).
    ``dnn_qiao`` takes one step at k_j = ceil(n_j N^(-d/(2+d))), which lies
    in [1, n_j] because N >= 2 and d >= 1 put N^(-d/(2+d)) in (0, 0.8], and
    ``d1nn`` one step at k_j = 1.
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
        return np.ceil(sizes * cfg.N ** (-cfg.d / (2 + cfg.d))).astype(np.int64)[None, :]
    if kind is ClassifierKind.D1NN:
        return np.ones((1, sizes.size), dtype=np.int64)
    raise ValueError(f"unhandled classifier kind {kind!r}")


@dataclass(eq=False)
class Partition:
    """Shards of one dataset, stored contiguously and read-only, largest first.

    It checks what it is given: ``features`` must be a nonempty (N, d) array
    of finite points, ``labels`` N values of 0 or 1 (kept as int64), and
    ``sizes`` whole numbers of at least 1, nonincreasing and summing to N.
    A ``Shard`` is a Partition of one shard, and these are its checks too.
    """

    features: np.ndarray  # (N, d), shard j in rows offsets[j]:offsets[j+1]; column-major from from_shard
    labels: np.ndarray  # (N,)
    sizes: np.ndarray  # (m,) nonincreasing
    offsets: np.ndarray = field(init=False)  # (m + 1,) cumulative sizes from 0

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64).view()  # float64 kept as given, layout included
        features, labels = self.features, np.asarray(self.labels)
        if features.ndim != 2 or features.size == 0:
            raise ValueError(f"features must be a nonempty (n, d) array, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be a vector matching the point count")
        if not np.isfinite(features).all():
            row = int(np.argmin(np.isfinite(features).all(axis=1)))
            raise ValueError(f"features must be finite: row {row} is {features[row].tolist()}")
        # checked before the int64 cast, which would round 0.5 to 0
        bad = (labels != 0) & (labels != 1)
        if bad.any():
            row = int(np.argmax(bad))
            raise ValueError(f"labels must be 0 or 1: row {row} is {labels[row].item()!r}")
        self.labels = np.ascontiguousarray(labels, dtype=np.int64).view()
        raw = np.asarray(self.sizes)
        if raw.ndim != 1 or raw.dtype.kind not in "iuf":
            raise ValueError(f"shard sizes must be a 1-D array of numbers, got {raw.dtype} of shape {raw.shape}")
        bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.floor(raw)))
        if bad.size:
            raise ValueError(f"shard {int(bad[0])}: size {raw[bad[0]]} is not a whole number")
        sizes = raw.astype(np.int64)
        bad = np.flatnonzero(sizes < 1)
        if bad.size:
            raise ValueError(f"shard {int(bad[0])}: size {sizes[bad[0]]} is below 1")
        if int(sizes.sum()) != self.features.shape[0]:
            raise ValueError("shard sizes must sum to the data size")
        if np.any(np.diff(sizes) > 0):
            raise ValueError("shard sizes must be nonincreasing")
        self.sizes = sizes
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        for array in (self.features, self.labels, self.sizes, self.offsets):  # views: the caller's stay writeable
            array.setflags(write=False)

    @staticmethod
    def from_shard(data: Shard, sizes: np.ndarray, rng: np.random.Generator) -> "Partition":
        perm = rng.permutation(data.size)
        labels = data.labels[perm]
        # Gathered straight into column-major order, so that the distance kernel
        # reads each coordinate contiguously. Coordinate c of point i sits at
        # i * d + c of the row-major features; turning ``perm`` into those flat
        # indices in place keeps the gather free of data-sized temporaries
        # ("clip" only skips numpy's buffered copy of ``out``: all are in range).
        columns = np.empty((data.dim, data.size))
        flat = data.features.ravel()
        perm *= data.dim
        for c in range(data.dim):
            np.take(flat, perm, out=columns[c], mode="clip")
            perm += 1
        return Partition(columns.T, labels, sizes)

    def __len__(self) -> int:
        return self.sizes.shape[0]

    @property
    def total(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def screen_copy(self) -> tuple[np.ndarray, np.ndarray]:
        """The points in float32, column-major and read-only, and each column's largest |x|, for the float32 screen.

        Built at the first screened block (``_screened_points``), once per
        partition in each process: blocks that are never screened, as every
        grid's one-row blocks, never pay for it.
        """
        with np.errstate(over="ignore"):  # a coordinate past float32's range is inf, and its pairs are redone
            single = np.asfortranarray(self.features, dtype=np.float32)
        single.setflags(write=False)
        return single, np.abs(self.features).max(axis=0)

    def size_runs(self, shard_depths: np.ndarray) -> list[tuple[int, int, int]]:
        """(first_shard, last_shard_exclusive, size) for each run of shards of one size and one depth."""
        change = (self.sizes[1:] != self.sizes[:-1]) | (shard_depths[1:] != shard_depths[:-1])
        starts = np.concatenate([[0], np.flatnonzero(change) + 1])
        stops = np.append(starts[1:], len(self.sizes))
        return list(zip(starts.tolist(), stops.tolist(), self.sizes[starts].tolist()))


class Shard(Partition):
    """One machine's sub-sample: a one-shard Partition, its points in the order given, with an integer id >= 1."""

    def __init__(self, shard_id: int, features: np.ndarray, labels: np.ndarray):
        _check_integer("shard id", shard_id, 1)
        self.id = int(shard_id)
        super().__init__(features, labels, np.shape(features)[:1])

    size = Partition.total

    def __repr__(self) -> str:
        return f"Shard(id={self.id}, size={self.size}, dim={self.dim})"


def query_distance_matrix(features: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Distances from each query (rows) to each point (columns), in the points' precision.

    Squared differences are added column by column (``_add_squares``) and then
    square-rooted, at every dimension; the oracle repeats this order, which
    keeps the two bit for bit equal. Float32 points (a Partition's
    ``screen_copy``) give the float32 screen's values instead: the queries are
    rounded to float32, the same loop runs in float32 with its overflow left
    silent, and the squared distances are returned without the square root.
    Either precision fills the output in one loop over tiles of points whose
    (rows, tile) slab takes about ``TILE_BYTES``: tiles of even width, none
    narrower than numpy's ufunc buffer (8192 points by default), or one tile
    where that covers the row. So the d passes over a tile (and the float64
    square root) stay in cache, and every element still takes the same
    operations in the same order. Each tile's sum is built in the output,
    with one reused (rows, tile) scratch buffer. Column reads are contiguous
    when ``features`` is column-major, as a Partition's is. Points with no
    coordinate (d = 0), and queries that are not rows of the points' d
    coordinates, are rejected.
    """
    n, d = features.shape
    if d == 0:
        raise ValueError("points need at least one coordinate, got d = 0")
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries of shape {queries.shape} do not match points of shape {features.shape}")
    single = features.dtype == np.float32
    nq = queries.shape[0]
    out = np.empty((nq, n), dtype=np.float32 if single else np.float64)
    width = max(1, TILE_BYTES // (out.itemsize * max(nq, 1)))
    if width < n:
        # numpy runs a 2-D operation whose rows are shorter than about a third
        # of its ufunc buffer through that buffer, at about 4x the cost per
        # element, so tiles are at least a buffer wide before they are evened out
        tiles = -(-n // max(width, np.getbufsize()))
        width = -(-n // tiles)
    scratch = np.empty((nq, min(width, n)), dtype=out.dtype)
    # float32 overflows past 3.4e38, where a screened value is inf or nan and
    # its pair is redone in float64 (``_settle_screen``): no warning there
    with np.errstate(over="ignore", invalid="ignore") if single else contextlib.nullcontext():
        columns = queries.T.astype(out.dtype, copy=False)[:, :, None]
        for a in range(0, n, width):
            acc = out[:, a : a + width]
            _add_squares(acc, scratch, columns, features[a : a + width].T)
            if not single:
                np.sqrt(acc, out=acc)
    return out


def _add_squares(acc: np.ndarray, diff: np.ndarray, queries: np.ndarray, points: np.ndarray) -> None:
    """Write the sum over c of (queries[c] - points[c])^2 into ``acc``, column by column.

    The one operation order of every distance: the first coordinate's square
    is written to ``acc`` (0 + x == x exactly), and each later one is
    subtracted and squared in ``diff`` and then added. The leading axis of
    ``queries`` and ``points`` is the coordinate; the rest broadcast to
    ``acc``'s shape, and ``diff`` may be wider than ``acc`` in its last axis.
    """
    diff = diff[..., : acc.shape[-1]]  # a tile's scratch may be wider than its last tile
    for c in range(points.shape[0]):
        buf = acc if c == 0 else diff
        np.subtract(queries[c], points[c], out=buf)
        np.multiply(buf, buf, out=buf)
        if c:
            acc += diff


def k_smallest_rows(dist: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries per row, ordered by (value, index).

    ``dist`` has shape (rows, n) and k >= 1, where a k of n or more returns the whole row
    sorted; the result, shape (rows, min(k, n)), equals ``np.argsort(dist, axis=1, kind="stable")[:, :k]``.
    ``dist`` is left as it was, and a k below 1 raises ``ValueError``. The
    work follows k and the row width n, not the number of rows, through one
    of five paths:

    - k == 1: ``argmin``, whose first minimum is the lowest index among ties.
    - k >= n on rows narrower than ``SORT_WIDTH``: the stable argsort.
    - k >= n on wider rows: ``_sorted_rows``, an unstable argsort that then
      orders the indices inside each run of equal values.
    - k <= ``ROUNDS_K``: ``_argmin_rounds``, one ``argmin`` per pick.
    - otherwise: ``argpartition`` picks k entries per row, whose largest is
      the row's k-th smallest value t. Only a row where t also occurs outside
      the pick is ambiguous; such rows are redone by taking every entry below
      t and then the lowest-index entries equal to t. The k picked entries of
      every row are then ordered by (value, index).
    """
    rows, n = dist.shape
    if k == 1:
        return dist.argmin(axis=1, keepdims=True)
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k >= n:
        return dist.argsort(axis=1, kind="stable") if n < SORT_WIDTH else _sorted_rows(dist)
    if k <= ROUNDS_K:
        return _argmin_rounds(dist, k)
    row = np.arange(rows)[:, None]
    idx = dist.argpartition(k - 1, axis=1)[:, :k]
    vals = dist[row, idx]
    thresh = vals[:, -1:]  # argpartition leaves the k-th smallest value last
    # every entry outside the pick is >= thresh, so the pick is the (value,
    # index) top k unless one of them equals thresh: more than k are <= thresh
    ambiguous = np.flatnonzero((dist <= thresh).sum(axis=1) > k)
    if ambiguous.size:
        sub, t = dist[ambiguous], thresh[ambiguous]
        strict = sub < t
        ties = sub == t
        need = k - strict.sum(axis=1, keepdims=True)
        chosen = strict | (ties & (np.cumsum(ties, axis=1) <= need))
        fixed = np.nonzero(chosen)[1].reshape(ambiguous.size, k)
        idx[ambiguous] = fixed
        vals[ambiguous] = np.take_along_axis(sub, fixed, axis=1)
    return idx[row, np.lexsort((idx, vals))]


def _argmin_rounds(dist: np.ndarray, k: int) -> np.ndarray:
    """The k smallest per row, by k rounds of ``argmin``.

    Each round masks its pick with ``inf``, in ``dist`` itself, and the picks'
    values are put back before returning, on error too; a read-only or
    non-contiguous ``dist`` is masked in a copy. ``argmin`` returns the lowest
    index among equal minima, so while a round's minimum is finite its pick
    is the next entry in (value, index) order, with no sort. Once a row's
    minimum is ``inf``, a round may pick an entry masked earlier: only the
    rows whose last round found ``inf`` are redone, with the stable argsort.
    """
    rows, n = dist.shape
    work = dist if dist.flags.writeable and dist.flags.c_contiguous else dist.copy()
    flat = work.reshape(-1)  # a view, as ``work`` is contiguous
    start = np.arange(0, rows * n, n)  # flat index of each row's column 0
    idx = np.empty((rows, k), dtype=np.intp)
    masked = np.empty((k - 1, rows), dtype=np.intp)  # flat index of each masked pick
    saved = np.empty((k - 1, rows), dtype=dist.dtype)
    rounds = 0
    try:
        for j in range(k):
            pick = work.argmin(axis=1)
            idx[:, j] = pick
            pick += start
            if j < k - 1:
                masked[j] = pick
                saved[j] = flat[pick]
                flat[pick] = np.inf
                rounds += 1
        redo = np.flatnonzero(flat[pick] == np.inf)
    finally:
        # in reverse, so an entry picked twice gets its first value back
        for j in reversed(range(rounds)):
            flat[masked[j]] = saved[j]
    if redo.size:
        idx[redo] = dist[redo].argsort(axis=1, kind="stable")[:, :k]
    return idx


def _sorted_rows(dist: np.ndarray) -> np.ndarray:
    """``np.argsort(dist, axis=1, kind="stable")``, through the unstable argsort.

    Sorted by value alone, the rows are in (value, index) order except inside
    runs of equal values (``inf == inf`` counts). Only the indices in those
    runs are put in ascending order, so a row with one pair of equal values
    costs two more entries to sort, not a second sort of the row.
    """
    rows, n = dist.shape
    order = dist.argsort(axis=1)
    vals = np.take_along_axis(dist, order, axis=1)
    tie = np.zeros((rows, n), dtype=bool)  # tie[:, i]: position i equals i - 1
    np.equal(vals[:, 1:], vals[:, :-1], out=tie[:, 1:])
    in_run = tie.copy()
    in_run[:, :-1] |= tie[:, 1:]
    at = np.flatnonzero(in_run)  # entries of runs, flat over (rows, n)
    if at.size:
        # a run opens at each entry unequal to the one before it, and column 0
        # opens one in every row. Sorting the keys run * n + index orders the
        # indices inside each run and leaves every run where it is; the keys
        # stay below (rows * n) * n / 2 + n, within int64 for any block of
        # fewer than 4e9 entries
        base = np.cumsum(~tie.reshape(-1)[at]) * n
        flat = order.reshape(-1)
        key = base + flat[at]
        key.sort()
        flat[at] = key - base
    return order


class _Screen(NamedTuple):
    """A block's float32 screen: its query rows, and their float32 squared distances to the partition's first points."""

    queries: np.ndarray  # (q, d) float64
    near: np.ndarray  # (q, n) float32, the first n points (``_screened_points``)


def build_prefix_tensor(
    partition: Partition, dist: np.ndarray, shard_depths: np.ndarray, screen: _Screen | None = None
) -> np.ndarray:
    """Every shard's label prefix sums back to back, one row per query: shape (q, sum_j k_j).

    ``dist`` is a block of distances, shape (q, N), from q queries to the
    partition's points (``query_distance_matrix``); it is read, never
    written, and another shape is rejected. Shard j's k_j =
    ``shard_depths[j]`` sums, k_j in [1, n_j], start at k_0 + ... + k_{j-1}.
    They come from one of two strategies: the run loop
    (``_run_profiles``), which selects neighbors once per run of shards that
    share a size and a depth, with all of the run's (query, shard) rows in one
    ``k_smallest_rows`` call, or one sort of each query row's candidates
    (``_segmented_profiles``). The loop pays a fixed Python cost per run; the
    sort pays for a number of entries that follows the summed depths. So the
    sort is taken where the runs are many per query row
    (``SEGMENT_RUNS_PER_ROW``). Both give the same rows.

    With a ``screen``, the first n points, n = ``screen.near.shape[1]``, are
    read from its float32 squared distances, ``dist`` holds the distances to
    the other N - n points (none when n = N), and the block takes the run
    loop. The screened runs' picks are corrected as ``_settle_screen``
    describes before any label is read, so the rows are the same.
    """
    sizes = partition.sizes
    shard_depths = np.asarray(shard_depths, dtype=np.int64)
    if shard_depths.shape != sizes.shape:
        raise ValueError(f"need one depth per shard: {shard_depths.shape} depths for {sizes.size} shards")
    bad = np.flatnonzero((shard_depths < 1) | (shard_depths > sizes))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"shard {j}: depth {shard_depths[j]} outside [1, shard size {sizes[j]}]")
    far = partition.total - (0 if screen is None else screen.near.shape[1])
    if dist.ndim != 2 or dist.shape[1] != far:
        raise ValueError(f"distances of shape {dist.shape} do not match points of shape {partition.features.shape}")
    nq = dist.shape[0]
    out = np.empty((nq, int(shard_depths.sum())), dtype=np.int64)  # every entry is written
    runs = partition.size_runs(shard_depths)
    if screen is None and len(runs) >= SEGMENT_RUNS_PER_ROW * nq:
        _segmented_profiles(partition, dist, shard_depths, out)
    else:
        _run_profiles(partition, dist, shard_depths, runs, out, screen)
    return out


def _run_profiles(
    partition: Partition,
    dist: np.ndarray,
    shard_depths: np.ndarray,
    runs: list[tuple[int, int, int]],
    out: np.ndarray,
    screen: _Screen | None = None,
) -> None:
    """Fill ``out`` one run of equal (size, depth) shards at a time, a slab of every row.

    Each run's picks, one ``k_smallest_rows`` call over all of its (query,
    shard) rows, go into one (q, sum_j k_j) array of partition-wide indices,
    laid out as ``out``. A run of the ``screen``'s points selects on its
    float32 values, and ``_settle_screen`` then corrects those picks. The
    labels of every pick are then gathered into ``out`` at once, and each
    run deeper than one point is summed along its picks.
    """
    nq = dist.shape[0]
    offsets = partition.offsets
    near = 0 if screen is None else screen.near.shape[1]
    picks = np.empty(out.shape, dtype=np.intp)
    deep = []  # the slabs of ``out`` of runs deeper than one point
    start = 0
    for first, last, size in runs:
        depth = int(shard_depths[first])
        a, b = int(offsets[first]), int(offsets[last])
        # a run never straddles the screen's end (``_screened_points``)
        slab = screen.near[:, a:b] if b <= near else dist[:, a - near : b - near]
        stop = start + (last - first) * depth
        view = picks[:, start:stop].reshape(nq, last - first, depth)  # a view: splits a contiguous axis
        np.add(k_smallest_rows(slab.reshape(-1, size), depth).reshape(view.shape), offsets[first:last, None], out=view)
        if depth > 1:
            deep.append(out[:, start:stop].reshape(view.shape))
        start = stop
    if near:
        screened = int(np.searchsorted(offsets, near))  # shards, as offsets[screened] == near
        _settle_screen(partition, screen, picks, shard_depths[:screened])
    np.take(partition.labels, picks, out=out, mode="clip")  # "clip" skips the buffered copy of ``out``
    for sums in deep:
        np.cumsum(sums, axis=2, out=sums)


def _screened_points(partition: Partition, shard_depths: np.ndarray, rows: int) -> int:
    """How many of the partition's first points a block of ``rows`` query rows screens in float32, or 0.

    A block is screened when it has at least ``SCREEN_ROWS`` rows and takes
    the run loop (fewer than ``SEGMENT_RUNS_PER_ROW`` runs per row). Its
    screened shards are the leading ones of at least ``SCREEN_WIDTH`` points
    whose depth is short of the whole shard: full sorts gain too little from
    float32, and narrow rows select slower in it. As sizes are nonincreasing
    and a run shares one size and one depth, the screened points end where a
    run does.
    """
    if rows < SCREEN_ROWS:
        return 0
    keep = (partition.sizes >= SCREEN_WIDTH) & (shard_depths < partition.sizes)
    if not keep[0] or len(partition.size_runs(shard_depths)) >= SEGMENT_RUNS_PER_ROW * rows:
        return 0
    return int(partition.offsets[keep.size if keep.all() else int(keep.argmin())])


def _settle_screen(partition: Partition, screen: _Screen, picks: np.ndarray, pick_depths: np.ndarray) -> None:
    """Correct the float32 picks of the screened shards in place: picks in, exact picks out.

    ``picks`` holds each query's partition-wide picks, shard by shard, as in
    a row of ``build_prefix_tensor``; its first sum(``pick_depths``) columns
    are the screened shards' float32 picks, each in float32 (value, index)
    order, and the other columns are left as they are. A pick's k-th point,
    at its start + k - 1, has the float32 value t. The pairs are checked at
    once, against the bound below, the unsure ones are redone, and the rows
    whose exact picks are out of (float64 distance, index) order are sorted.

    Let S be an entry's exact squared distance, S64 the float64 kernel's sum
    (before its square root) and S32 the screen's float32 value. With u =
    2^-24, u' = u (1 + u), gamma = (d + 1) u / (1 - (d + 1) u), M_c = |q_c| +
    max_i |x_ic| + 2^-125 (the column maxima of ``screen_copy``) and Q = sum_c
    M_c^2, every entry with S <= s has |S32 - S| <= B(s), where

        B(s) = err + gamma (s + err) + d 2^-148,
        err = u (2 + u) s + 2 u' (1 + u) sqrt(s Q) + u'^2 Q.

    Rounding a coordinate v to float32 errs by at most u (|v| + 2^-126), so
    coordinate c's float32 difference is D_c + e_c, D_c = q_c - x_c, with
    |e_c| <= u |D_c| + u' M_c after the subtraction's own rounding. Then
    sum_c (D_c + e_c)^2 - S = sum_c (2 D_c e_c + e_c^2) is at most err in
    size, by sum_c |D_c| M_c <= sqrt(S Q) (Cauchy-Schwarz). The d squares and
    d - 1 additions in float32 add at most gamma times the sum, and squares
    that underflow at most d 2^-149.

    Let k be the pair's depth, gamma64 = (d + 1) 2^-53 / (1 - (d + 1) 2^-53)
    the float64 kernel's bound on |S64 - S| / S, and kappa = 3 gamma64 +
    2^-45. Writing B((1 + kappa) s) + kappa s as a + b sqrt(s) + c s, the
    margin delta = x^2, with x = beta + sqrt(beta^2 + (a + b sqrt(t) + c t) /
    (1 - c)) and beta = b / (2 (1 - c)) the positive root of (1 - c) x^2 - b
    x - (a + b sqrt(t) + c t), satisfies delta >= B((1 + kappa) y) + kappa y
    at y = t + delta, since sqrt(t + delta) <= sqrt(t) + sqrt(delta). The
    pair is sure when exactly k of its float32 values are at most t + 2 delta
    and that limit is below half of float32's largest value. An entry with S
    at most (1 + kappa) y then has float32 squares summing to at most the
    limit, so none of its float32 operations overflows. Then:

    - Each of the k picks has S <= y. Its S32 <= t, and S - B(S), read as a
      function of sqrt(S), is increasing past sqrt(delta) >= b / (1 - c) and
      at least t at S = y.
    - Every other entry has S > (1 + kappa) y: one with S at most that would
      have S32 <= (1 + kappa) y + B((1 + kappa) y) <= t + 2 delta.
    - So its S64 > (1 + kappa)(1 - gamma64) y >= (1 + 2^-50) (1 + gamma64) y,
      which is at least (1 + 2^-50) times every pick's S64, and its float64
      distance, the square root rounded, exceeds every pick's. The picks
      are the k nearest in (distance, index) order whatever their indices,
      and their float64 distances, added in the kernel's order
      (``_add_squares``), put them in that order. The 2^-45 in kappa also
      covers float64 underflow, as delta >= d 2^-148.

    delta is raised by 2^-7 of itself, which covers the float64 rounding of
    the margin and of t + 2 delta (delta >= c t >= 2^-45 t), and the limit is
    compared with the float32 values after rounding it to float32, which can
    only count more of them. Every other pair is redone: its shard's float64
    distances to those rows come from ``query_distance_matrix`` and its pick
    from ``k_smallest_rows``, as an unscreened block's would.
    """
    queries, near = screen
    nq, m = picks.shape[0], pick_depths.size
    width = int(pick_depths.sum())
    starts = np.cumsum(pick_depths) - pick_depths  # where each shard's pick starts in a row
    d = partition.dim
    u = 2.0**-24
    u1 = u * (1 + u)
    gamma = (d + 1) * u / (1 - (d + 1) * u)
    gamma64 = (d + 1) * 2.0**-53 / (1 - (d + 1) * 2.0**-53)
    kappa = 3 * gamma64 + 2.0**-45
    c = ((1 + gamma) * u * (2 + u) + gamma) * (1 + kappa) + kappa
    spread = np.square(np.abs(queries) + (partition.screen_copy[1] + 2.0**-125)).sum(axis=1, keepdims=True)  # Q
    a = ((1 + gamma) * u1 * u1 * spread + d * 2.0**-148) / (1 - c)  # a and b over 1 - c
    b = (1 + gamma) * 2 * u1 * (1 + u) / (1 - c) * np.sqrt((1 + kappa) * spread)
    t = near[np.arange(nq)[:, None], picks[:, starts + pick_depths - 1]].astype(np.float64)
    x = b / 2 + np.sqrt(b * b / 4 + a + b * np.sqrt(t) + c / (1 - c) * t)
    limit = t + (2 + 2.0**-6) * x * x
    within = near <= np.repeat(np.minimum(limit, _F32_MAX).astype(np.float32), partition.sizes[:m], axis=1)
    count = np.add.reduceat(within.view(np.int8), partition.offsets[:m], axis=1, dtype=np.int32)
    unsure = (count != pick_depths) | ~(limit < _F32_MAX / 2)
    for j in np.flatnonzero(unsure.any(axis=0)):
        rows = np.flatnonzero(unsure[:, j])
        lo, hi, k = int(partition.offsets[j]), int(partition.offsets[j + 1]), int(pick_depths[j])
        idx = k_smallest_rows(query_distance_matrix(partition.features[lo:hi], queries[rows]), k)
        picks[rows[:, None], starts[j] + np.arange(k)] = idx + lo
    if width == m:  # every pick is one point
        return
    screened = picks[:, :width]
    exact = np.empty(screened.shape)
    _add_squares(exact, np.empty_like(exact), queries.T[:, :, None], np.take(partition.features.T, screened, axis=1))
    np.sqrt(exact, out=exact)
    # the float32 order is the exact one unless two neighbours in a shard's
    # pick are out of (distance, index) order; only those rows are sorted
    step = np.diff(exact, axis=1)
    wrong = (step < 0) | ((step == 0) & (screened[:, 1:] < screened[:, :-1]))
    wrong[:, starts[1:] - 1] = False  # the last point of a shard and the first of the next
    rows = np.flatnonzero(wrong.any(axis=1))
    if rows.size:
        sub = screened[rows]
        shard = np.broadcast_to(np.repeat(np.arange(m), pick_depths), sub.shape)
        screened[rows] = np.take_along_axis(sub, np.lexsort((sub, exact[rows], shard)), axis=1)


def _segmented_profiles(partition: Partition, dist: np.ndarray, shard_depths: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` from one sort of each row's candidates.

    A row's candidates are every point at or below its K-th smallest distance
    (the cut), K = ``rank`` = ``CANDIDATE_FACTOR`` x the summed depths, and
    every point of a shard with fewer than its depth at or below the cut.
    That keeps each shard's first ``shard_depths[j]`` entries in (distance,
    index) order: a shard kept whole has them all, and any other shard has
    at least its depth of points at or below the cut, so its entry at that
    depth is at or below the cut too, and ``<=`` keeps every point that ties
    with the cut, whatever its index. K is capped at the row's length, where
    the cut is the row's largest distance and every point is a candidate.

    The candidates are in index order, so sorting them by (distance,
    position) puts them in (distance, partition-wide index) order, which
    holds each shard's points in (distance, index within the shard) order,
    since a shard's indices are consecutive. A stable argsort of the shard ids
    then lays them out shard by shard, and one cumulative sum of the labels in
    that order gives every profile: shard j's count at depth t + 1 is the sum
    at ``start[j] + t`` minus the sum before ``start[j]``, where ``start[j]``
    counts the candidates of the shards before j.
    """
    nq, n = dist.shape
    m = len(partition)
    sizes, offsets = partition.sizes, partition.offsets
    # each point's key is 2 x its shard id + its label: one gather in sorted
    # order brings both, and int16 keys take numpy's radix sort
    key = np.repeat(np.arange(m, dtype=np.int16 if m < 1 << 14 else np.int32) << 1, sizes)
    key |= partition.labels.astype(key.dtype)
    # entry t < shard_depths[j] of shard j, at each position of the output row
    step = np.arange(out.shape[1]) - np.repeat(np.cumsum(shard_depths) - shard_depths, shard_depths)
    rank = min(CANDIDATE_FACTOR * int(shard_depths.sum()), n)
    keep = dist <= np.partition(dist, rank - 1, axis=1)[:, rank - 1 : rank]
    count = np.add.reduceat(keep, offsets[:-1], axis=1, dtype=np.int64)  # (nq, m) at or below the cut
    short = count < shard_depths
    keep |= np.repeat(short, sizes, axis=1)
    count = np.where(short, sizes, count)
    starts = np.cumsum(count, axis=1) - count
    for i in range(nq):
        cand = np.flatnonzero(keep[i])
        row_key = key[cand[k_smallest_rows(dist[i, cand][None, :], cand.size)[0]]]
        start = np.repeat(starts[i], shard_depths)
        grouped = row_key[(row_key >> 1).argsort(kind="stable")]
        sums = np.zeros(grouped.size + 1, dtype=np.int64)  # sums[p + 1]: labels at positions 0..p
        np.cumsum(grouped & 1, out=sums[1:])
        out[i] = sums[start + step + 1] - sums[start]


def scan_first_crossing(
    prefix: np.ndarray, kj: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the whole k1 walk and locate the first threshold crossing.

    ``kj`` has shape (cap, m) with 1-based depths per step; ``prefix`` has
    shape (..., sum_j kj[-1, j]): each shard's label prefix sums to its last
    depth, back to back (``build_prefix_tensor``). Returns the 0-based
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
    total = kj.sum(axis=1)  # (cap,)
    at = kj.T.copy()  # a copy even where kj.T is already contiguous, as at cap = 1
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


def _stage_caps(kind: ClassifierKind, n1: int) -> list[int]:
    """Walk lengths of a classifier's stages before its last, which takes every depth row.

    Only ``dann_nes`` with n_1 > STAGE_STEPS x STAGE_GROWTH is staged: STAGE_STEPS
    steps, then STAGE_GROWTH times as many each stage, up to the first length
    that would reach n_1. Every other walk is one stage.
    """
    if kind is not ClassifierKind.DANN_NES or n1 <= STAGE_STEPS * STAGE_GROWTH:
        return []
    caps = [STAGE_STEPS]
    while caps[-1] * STAGE_GROWTH < n1:
        caps.append(caps[-1] * STAGE_GROWTH)
    return caps


def _classify_chunk(
    partition: Partition,
    queries: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels, k1 choices (-1 where not applicable) and etas for a query chunk.

    Every classifier is a walk over its depth rows; a fixed-depth classifier
    has one row, a walk that stops at its only step whatever the threshold.
    The chunk is classified in blocks of rows whose distances take at most
    ``BLOCK_BYTES`` (one row at least), each block's distances computed once.

    A walk runs in stages (``_stage_caps``). Each stage builds the profiles
    of the rows still walking only as deep as its last step and scans its
    steps; a row that crossed there has stopped, and the others go on to the
    next stage. The last stage takes the classifier's
    ``depths`` and stops every row left. This is exact: a step's statistic
    does not depend on earlier decisions, and the first c rows of
    ``depths(DANN_NES)`` are ``depth_matrix(c)``. Each stage's depth rows are
    built when a row first reaches it, at most once per chunk, so a chunk
    whose walks all stop early never builds the deeper ones. The block's
    distances are dropped before the last stage's scan.

    A single-stage walk's block may be screened (``_screened_points``): the
    distances to its leading wide shards then come in float32 from the
    partition's ``screen_copy``, and the rest in float64.
    """
    sizes = partition.sizes
    caps = _stage_caps(kind, int(sizes[0]))
    # a staged walk's last stage reads every shard whole, so only single-stage
    # walks are screened, and their one stage's depths are needed up front
    stage_rows: list[np.ndarray] = [] if caps else [depths(kind, sizes, cfg)]
    adaptive = kind in (ClassifierKind.DANN, ClassifierKind.DANN_NES)
    threshold = stopping_threshold(cfg)
    nq = queries.shape[0]
    stop = np.empty(nq, dtype=np.int64)
    eta_hat = np.empty(nq, dtype=np.float64)
    rows = max(1, BLOCK_BYTES // (8 * partition.total))
    for i in range(0, nq, rows):
        block = queries[i : i + rows]
        near = 0 if caps else _screened_points(partition, stage_rows[0][-1], block.shape[0])
        screen = _Screen(block, query_distance_matrix(partition.screen_copy[0][:near], block)) if near else None
        dist = query_distance_matrix(partition.features[near:], block)  # (q, 0) when the screen takes every point
        walking = slice(i, i + rows)  # the chunk rows of ``dist``, as indices once some have stopped
        for s in range(len(caps) + 1):
            if s == len(stage_rows):
                stage_rows.append(depth_matrix(caps[s], sizes) if s < len(caps) else depths(kind, sizes, cfg))
            kj = stage_rows[s]
            prefix = build_prefix_tensor(partition, dist, kj[-1], screen)
            last = s == len(caps)
            if last:
                del dist
            block_stop, eta, crossed = scan_first_crossing(prefix, kj, threshold)
            # each row's outcome so far; the next stage rewrites the rows it walks on
            stop[walking] = block_stop
            eta_hat[walking] = np.take_along_axis(eta, block_stop[:, None], axis=1)[:, 0]
            if last:
                break
            if crossed.any():
                walking, dist = np.arange(nq)[walking][~crossed], dist[~crossed]
                if not dist.shape[0]:
                    break
    k1_hat = stop + 1 if adaptive else np.full(nq, -1, dtype=np.int64)
    labels = (eta_hat >= 0.5).astype(np.int64)
    return labels, k1_hat, eta_hat


def evaluate_query(
    partition: Partition,
    query: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
) -> tuple[int, int, float]:
    """Classify one query point; returns (label, k1_hat or -1 where not applicable, eta).

    The point goes through ``evaluate_queries`` as its row 0."""
    labels, k1s, etas = evaluate_queries(partition, np.asarray(query)[None, :], kind, cfg)
    return int(labels[0]), int(k1s[0]), float(etas[0])


# The partition a pool worker classifies against, set once by ``_hold_partition``
# when the worker starts; None in every process that is not a pool worker.
_worker_partition: Partition | None = None


def _hold_partition(partition: Partition) -> None:
    global _worker_partition
    _worker_partition = partition


def _eval_chunk_worker(args):
    # Module level and not among bench/tracing.py's wrapped layers, so the pool
    # can pickle it by name even while ``_classify_chunk`` is wrapped.
    return _classify_chunk(_worker_partition, *args)


class _PartitionPool:
    """A process pool whose workers hold one partition, started at its first use."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.closing = contextlib.ExitStack()
        self._pool: ProcessPoolExecutor | None = None

    def map(self, tasks: list, workers: int) -> list:
        """``_eval_chunk_worker`` over the tasks; the first call sizes the pool at ``workers``."""
        if self._pool is None:
            self._pool = self.closing.enter_context(ProcessPoolExecutor(
                max_workers=workers, initializer=_hold_partition, initargs=(self.partition,)))
        return list(self._pool.map(_eval_chunk_worker, tasks))


_open_pool: contextvars.ContextVar[_PartitionPool | None] = contextvars.ContextVar("_open_pool", default=None)


@contextlib.contextmanager
def partition_pool(partition: Partition):
    """Let every ``evaluate_queries`` call on ``partition`` in the block share one pool.

    The pool starts at the first call that needs one, sized as that call's
    would be (``workers``, and no more than its chunks), and each worker gets
    the partition once, as it starts: under fork, with no pickling. Each task
    then carries only its query chunk. The pool shuts down, its workers
    joined, when the block ends, on error too. A call outside any block, or on
    another partition, starts a pool of its own for the call; a block inside a
    block on the same partition uses the outer block's pool.
    """
    outer = _open_pool.get()
    if outer is not None and outer.partition is partition:
        yield outer
        return
    scope = _PartitionPool(partition)
    token = _open_pool.set(scope)
    try:
        with scope.closing:
            yield scope
    finally:
        _open_pool.reset(token)


def evaluate_queries(
    partition: Partition,
    queries: np.ndarray,
    kind: ClassifierKind,
    cfg: StoppingConfig,
    workers: int = 1,
    chunk_size: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify many query points; parallelizes over query chunks.

    Output is independent of ``workers`` and ``chunk_size``: chunks are pure
    functions of their inputs and are reassembled in input order. At most
    ``workers`` processes start, and no more than there are chunks; one worker
    or one chunk classifies every row here in one call. Inside a
    ``partition_pool`` block on this partition the call uses the block's pool;
    otherwise it starts one for the call and shuts it down before returning.
    Either way the workers hold the partition and each task carries only its
    chunk. ``chunk_size`` only sets the pool's task split; rows are classified
    in blocks of ``BLOCK_BYTES``. ``queries`` must be (n, d) with the
    partition's d, and a row with a non-finite coordinate is rejected, naming
    the first such row (0-based). ``cfg`` must hold the partition's N and d,
    and ``workers`` be at least 1. No query rows give three empty arrays.
    """
    _check_integer("workers", workers, 1)
    _check_integer("chunk_size", chunk_size, 1)
    if (cfg.N, cfg.d) != (partition.total, partition.dim):
        raise ValueError(f"stopping config has N={cfg.N}, d={cfg.d}; "
                         f"the partition has N={partition.total}, d={partition.dim}")
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != partition.dim:
        raise ValueError(f"queries must be (n, d) with the partition's dimension d = {partition.dim}, "
                         f"got shape {queries.shape}")
    bad = ~np.isfinite(queries).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"query row {row} is not finite: {queries[row].tolist()}")
    if workers <= 1 or queries.shape[0] <= chunk_size:
        return _classify_chunk(partition, queries, kind, cfg)
    chunks = [queries[i : i + chunk_size] for i in range(0, queries.shape[0], chunk_size)]
    with partition_pool(partition) as pool:
        parts = pool.map([(c, kind, cfg) for c in chunks], min(workers, len(chunks)))
    return tuple(np.concatenate(p) for p in zip(*parts))
