"""Distributed adaptive nearest-neighbor classification toolkit.

Exact per-shard neighbor search, weighted cross-shard aggregation, a
data-driven choice of neighbor counts with an early-stopping search rule, the
standard comparison classifiers, a plain-loop reference oracle, and a
benchmark harness for synthetic and census-income experiments.
"""

from .adaptive import StoppingConfig, k1_bound, stopping_threshold
from .baselines import ClassifierKind, depths
from .engine import Partition, evaluate_queries, evaluate_query
from .neighbors import Shard
from .realdata import (
    DatasetSplit,
    evaluate_real,
    ingest_adult,
    train_test_split,
)
from .simharness import (
    ExperimentConfig,
    ExperimentResult,
    GridConfig,
    ResultRow,
    SyntheticModel,
    generate_sample,
    partition_proportional,
    partition_uniform,
    run_experiment,
    shard_count,
)

__version__ = "0.1.0"
