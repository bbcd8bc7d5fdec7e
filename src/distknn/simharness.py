"""Synthetic benchmark harness: data model, splitting schemes, and the
classifier-accuracy grid.

Features are uniform on [0, 1]^3 and labels are Bernoulli draws from
eta(x) = max{(5/3)(1 - |x|/sqrt(3)), kappa}, clipped at 1 so the generative
model is well defined near the origin. The grid runs every enabled classifier
over a range of shard counts m = ceil(N^eps), scoring each run by agreement
with the oracle rule 1{eta(x) >= 1/2} and recording per-classifier wall time.

Every run draws its random stream from (seed, eps_index, run_index), so runs
can execute in any order or in parallel without changing any result.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from .adaptive import ClassifierKind, StoppingConfig
from .engine import Partition, Shard, evaluate_query, query_distance_matrix

__all__ = [
    "SyntheticModel",
    "GridConfig",
    "ExperimentConfig",
    "ResultRow",
    "ExperimentResult",
    "generate_sample",
    "partition_uniform",
    "partition_proportional",
    "shard_count",
    "run_experiment",
]

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class SyntheticModel:
    """Conditional-probability model on [0, 1]^3 with signal floor kappa.

    The benchmark uses kappa in {0.55, 0.60, 0.65}; any kappa in (0, 1] is
    accepted so the decision boundary itself can be exercised.
    """

    kappa: float

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa={self.kappa} outside (0, 1]")


def eta_batch(points: np.ndarray, model: SyntheticModel) -> np.ndarray:
    """Vectorized eta over rows of ``points``, shape (..., 3)."""
    x, y, z = np.moveaxis(points, -1, 0)
    # (x^2 + y^2) + z^2, column by column: the order of a numpy row sum
    norms = x * x
    norms += y * y
    norms += z * z
    np.sqrt(norms, out=norms)
    linear = (5.0 / 3.0) * (1.0 - norms / _SQRT3)
    return np.minimum(1.0, np.maximum(linear, model.kappa))


def generate_sample(n: int, model: SyntheticModel, rng: np.random.Generator) -> Shard:
    """n i.i.d. points uniform on [0, 1]^3 with Bernoulli(eta) labels."""
    if n < 1:
        raise ValueError("n must be >= 1")
    feats = rng.random((n, 3))
    labels = (rng.random(n) < eta_batch(feats, model)).astype(np.int64)
    return Shard(1, feats, labels)


def partition_uniform(data: Shard, m: int, rng: np.random.Generator) -> Partition:
    """Random split into m shards whose sizes differ by at most one."""
    if not 1 <= m <= data.size:
        raise ValueError(f"m={m} outside [1, {data.size}]")
    base, rem = divmod(data.size, m)
    sizes = np.full(m, base, dtype=np.int64)
    sizes[:rem] += 1
    return Partition.from_shard(data, sizes, rng)


def partition_proportional(data: Shard, m: int, rng: np.random.Generator) -> Partition:
    """Random split into m shards with sizes close to the ratio 1:2:...:m.

    Sizes come from largest-remainder apportionment of the quotas
    N*j / (1 + ... + m); every shard is kept nonempty by shaving the largest
    shards when small quotas round to zero.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > data.size:
        raise ValueError(f"m={m} too large for every shard to be nonempty (N={data.size})")
    ranks = np.arange(1, m + 1, dtype=np.int64)
    quota = data.size * ranks / (m * (m + 1) // 2)
    sizes = np.floor(quota).astype(np.int64)
    remainder = quota - sizes
    leftover = data.size - int(sizes.sum())
    order = np.lexsort((-ranks, -remainder))
    sizes[order[:leftover]] += 1
    lifted = int((sizes == 0).sum())
    sizes[sizes == 0] = 1
    while lifted > 0:
        top = int(sizes.max())
        candidates = np.flatnonzero(sizes == top)
        take = min(lifted, candidates.size)
        sizes[candidates[-take:]] -= 1
        lifted -= take
    sizes = np.sort(sizes)[::-1].copy()
    return Partition.from_shard(data, sizes, rng)


def shard_count(N: int, eps: float) -> int:
    """Number of shards m = ceil(N^eps), with eps read as the decimal it is written as.

    With eps = p/q, q <= 1000, an integer r with r**q == N**p is returned as it is:
    the float power can land just above r (1024**0.8 is 256.00000000000006).
    """
    ratio = Fraction(repr(float(eps)))
    root = round(N**eps)
    exact = ratio.denominator <= 1000 and root**ratio.denominator == N**ratio.numerator
    return root if exact else math.ceil(N**eps)


@dataclass(frozen=True, kw_only=True)
class GridConfig:
    """The (classifier, epsilon) grid: the settings the synthetic and census grids share.

    Epsilons become floats and classifiers kinds. A key listed twice after
    normalising (``0``/``0.0``, ``dann``/``DANN``) is rejected, naming it.
    """

    epsilons: tuple[float, ...]
    split: str = "uniform"
    seed: int = 0
    classifiers: tuple[ClassifierKind, ...] = tuple(ClassifierKind)
    include_log_in_bound: bool = True

    def __post_init__(self) -> None:
        if self.split not in ("uniform", "proportional"):
            raise ValueError(f"split must be 'uniform' or 'proportional', got {self.split!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        eps = tuple(float(e) for e in self.epsilons)
        kinds = tuple(k if isinstance(k, ClassifierKind) else ClassifierKind.parse(k) for k in self.classifiers)
        for what, keys in (("epsilon", eps), ("classifier", [k.value for k in kinds])):
            if not keys:
                raise ValueError(f"need at least one {what}")
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ValueError(f"{what} {key!r} is listed twice")
        for e in eps:
            if not 0.0 <= e < 1.0:
                raise ValueError(f"epsilon {e} outside [0, 1)")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "classifiers", kinds)

    def to_dict(self) -> dict:
        """Every field by name, with the epsilons as a list and the classifiers by name."""
        return {**asdict(self), "epsilons": list(self.epsilons), "classifiers": [k.value for k in self.classifiers]}


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(GridConfig):
    """The synthetic benchmark's grid: its sample size, signal floor and runs."""

    N: int
    kappa: float
    runs: int = 500
    queries_per_run: int = 1

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("N must be >= 2")
        SyntheticModel(self.kappa)  # its range check, before any run
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.queries_per_run < 1:
            raise ValueError("queries_per_run must be >= 1")
        super().__post_init__()


@dataclass
class ResultRow:
    """Aggregated outcome for one (classifier, epsilon) cell."""

    classifier: str
    epsilon: float
    m: int
    agreement_rate: float
    mc_stderr: float
    mean_runtime_s: float
    k1_min: int | None = None
    k1_med: float | None = None
    k1_max: int | None = None


@dataclass
class ExperimentResult:
    """Grid output: one row per (classifier, epsilon) plus per-run samples.

    ``agreement_samples[(classifier, eps)]`` holds the 0/1 agreement
    indicators in run-major order; indicators for different classifiers are
    paired (same run, same data, same query).
    """

    config: GridConfig
    rows: list[ResultRow]
    agreement_samples: dict = field(default_factory=dict)
    k1_samples: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def add_row(
        self, classifier: str, epsilon: float, m: int, agree: np.ndarray, k1s: np.ndarray, runtime_s: float
    ) -> None:
        """Append one (classifier, epsilon) row and keep its samples.

        ``agree`` holds the 0/1 agreement indicators and ``k1s`` the int64 k1
        choices; the -1 entries of the fixed-depth classifiers are dropped here.
        """
        k1s = k1s[k1s >= 0]
        rate = float(agree.mean())
        self.rows.append(
            ResultRow(
                classifier=classifier,
                epsilon=epsilon,
                m=m,
                agreement_rate=rate,
                mc_stderr=math.sqrt(rate * (1.0 - rate) / agree.size),
                mean_runtime_s=runtime_s,
                k1_min=int(k1s.min()) if k1s.size else None,
                k1_med=float(np.median(k1s)) if k1s.size else None,
                k1_max=int(k1s.max()) if k1s.size else None,
            )
        )
        self.agreement_samples[(classifier, epsilon)] = agree
        if k1s.size:
            self.k1_samples[(classifier, epsilon)] = k1s

    def row(self, classifier: ClassifierKind | str, eps: float) -> ResultRow:
        name = classifier.value if isinstance(classifier, ClassifierKind) else classifier
        for r in self.rows:
            if r.classifier == name and r.epsilon == eps:
                return r
        raise KeyError((name, eps))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(f.name for f in fields(ResultRow))
        # csv writes None as an empty cell and a float as str(), which is its
        # shortest round-trip repr
        writer.writerows(astuple(r) for r in self.rows)
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [asdict(r) for r in self.rows],
            "failures": [list(f) for f in self.failures],
        }


def _partition_for(split: str, data: Shard, m: int, rng: np.random.Generator) -> Partition:
    """Split ``data`` into m shards by the split name, 'uniform' or 'proportional'."""
    # looked up at call time, so a wrapped partition function is the one called
    return (partition_uniform if split == "uniform" else partition_proportional)(data, m, rng)


def _simulate_run(args: tuple[ExperimentConfig, int, int]):
    """One simulation run: fresh sample, one partition, one query batch.

    Returns (eps_idx, run_idx, [(agree_bits, k1s, elapsed) per classifier of
    the config]) or an error marker; never raises, so a bad run cannot abort
    the grid.
    """
    cfg, eps_idx, run_idx = args
    try:
        eps = cfg.epsilons[eps_idx]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(eps_idx, run_idx)))
        model = SyntheticModel(cfg.kappa)
        data = generate_sample(cfg.N, model, rng)
        m = shard_count(cfg.N, eps)
        part = _partition_for(cfg.split, data, m, rng)
        queries = rng.random((cfg.queries_per_run, 3))
        oracle = (eta_batch(queries, model) >= 0.5).astype(np.int64)
        stopping = StoppingConfig(N=cfg.N, d=3, include_log_in_bound=cfg.include_log_in_bound)
        # untimed warm-up so the first classifier measured is not also charged
        # for pulling the fresh partition into cache
        query_distance_matrix(part.features, queries[:1])
        part.labels.sum()
        out = []
        for kind in cfg.classifiers:
            start = time.perf_counter()
            labels = np.empty(cfg.queries_per_run, dtype=np.int64)
            k1s = np.empty(cfg.queries_per_run, dtype=np.int64)
            for qi in range(cfg.queries_per_run):
                labels[qi], k1s[qi], _ = evaluate_query(part, queries[qi], kind, stopping)
            elapsed = time.perf_counter() - start
            out.append(((labels == oracle).astype(np.int8), k1s, elapsed))
        return eps_idx, run_idx, out
    except Exception as exc:  # recorded, not raised
        return eps_idx, run_idx, f"{type(exc).__name__}: {exc}"


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Execute the full (classifier x epsilon) grid of ``cfg``.

    ``workers`` > 1 distributes runs over at most that many processes, and no
    more than there are runs; results are identical to the single-process run
    because every run owns an independent seed stream and the outcomes come
    back in task order. A run that raises is listed in ``failures``; an
    epsilon whose every run does has no rows.
    """
    tasks = [(cfg, ei, ri) for ei in range(len(cfg.epsilons)) for ri in range(cfg.runs)]
    workers = min(workers, len(tasks))
    if workers <= 1:
        outcomes = [_simulate_run(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_simulate_run, tasks, chunksize=max(1, len(tasks) // (workers * 8))))

    result = ExperimentResult(config=cfg, rows=[])
    for eps_idx, group in groupby(outcomes, key=itemgetter(0)):
        eps = cfg.epsilons[eps_idx]
        payloads = []
        for _, run_idx, payload in group:
            if isinstance(payload, str):
                result.failures.append((eps, run_idx, payload))
            else:
                payloads.append(payload)
        # zip(*payloads) pairs each classifier with its outcome in every run
        for kind, cells in zip(cfg.classifiers, zip(*payloads)):
            agree, k1s, times = zip(*cells)
            result.add_row(kind.value, eps, shard_count(cfg.N, eps), np.concatenate(agree),
                           np.concatenate(k1s), float(np.mean(times)))
    return result
