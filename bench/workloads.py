"""The benchmark's workloads: their inputs, one round of work, and oracle cases.

A round is one call of a public end-to-end entry point. ``prepare`` builds a
workload's inputs from the seed as a short list of slots, each the input of
one round; a run cycles through the slots, so every slot is timed several
times and its results must repeat exactly. Rounds are short so that each
slot's median is taken over several rounds. Grid configs carry the values of
``configs/sim_desk.cfg`` and ``configs/sim_full.cfg``; only the runs are
split over the slots, each slot with its own seed. They are built here with
the seed passed explicitly, not through the command line (whose config-file
seed handling is separate work).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

import census

ALL_CLASSIFIERS = ("dann", "dann_nes", "dnn_qiao", "d1nn")
GRID_EPSILONS = tuple(i / 10 for i in range(10))
CENSUS_EPSILONS = (0.0, 0.3, 0.6, 0.9)
CENSUS_QUERIES = 512  # test rows classified per round: two 256-query chunks, one per pool worker
ORACLE_QUERIES = 2  # queries checked against the oracle per epsilon and classifier


@dataclass(frozen=True)
class GridWorkload:
    """A synthetic grid through ``simharness.run_experiment``."""

    name: str
    n: int
    kappa: float
    split: str
    runs: int  # per slot
    slots: int
    workers: int

    def prepare(self, seed: int) -> list:
        """One config per slot; slot seeds are drawn from the workload seed."""
        from distknn import ExperimentConfig

        return [
            ExperimentConfig(
                N=self.n,
                kappa=self.kappa,
                epsilons=GRID_EPSILONS,
                split=self.split,
                runs=self.runs,
                seed=int(slot_seed),
                classifiers=ALL_CLASSIFIERS,
                queries_per_run=1,
                include_log_in_bound=True,
            )
            for slot_seed in np.random.SeedSequence(seed).generate_state(self.slots)
        ]

    def run(self, cfg, workers: int):
        """One round: the grid of one slot's config."""
        from distknn import run_experiment

        return run_experiment(cfg, workers=workers)

    def warm_up(self, slots: list, workers: int) -> None:
        self.run(dataclasses.replace(slots[0], runs=1), workers)

    def queries_per_timing(self, slots: list) -> int:
        """Queries covered by one ``mean_runtime_s`` value."""
        return slots[0].queries_per_run

    def oracle_cases(self, slots: list, rng: np.random.Generator):
        """(partition, queries, N, d) per epsilon, drawn like the grid's runs."""
        from distknn import SyntheticModel, generate_sample, partition_proportional, partition_uniform, shard_count

        cfg = slots[0]
        split = partition_uniform if cfg.split == "uniform" else partition_proportional
        for eps in cfg.epsilons:
            data = generate_sample(cfg.N, SyntheticModel(cfg.kappa), rng)
            part = split(data, shard_count(cfg.N, eps), rng)
            yield part, rng.random((ORACLE_QUERIES, 3)), cfg.N, 3


@dataclass(frozen=True)
class CensusInputs:
    train: object
    test: object
    cfg: object


@dataclass(frozen=True)
class CensusWorkload:
    """The census stand-in through ``realdata.evaluate_real``, one epsilon per slot."""

    name: str
    workers: int

    def prepare(self, seed: int) -> list[CensusInputs]:
        from distknn import ExperimentConfig, Shard, train_test_split
        from distknn.realdata import apply_scaling, fit_scaling

        rng = np.random.default_rng(seed)
        features, labels = census.stand_in(rng)
        full = Shard(1, apply_scaling(features, fit_scaling(features)), labels)
        split = train_test_split(full, 0.2, rng)
        test = Shard(2, split.test.features[:CENSUS_QUERIES], split.test.labels[:CENSUS_QUERIES])
        return [
            CensusInputs(
                split.train,
                test,
                ExperimentConfig(
                    N=split.train.size,
                    kappa=0.6,  # unused by the real-data path
                    epsilons=(eps,),
                    split="proportional",
                    runs=1,
                    seed=seed,
                    classifiers=ALL_CLASSIFIERS,
                    include_log_in_bound=True,
                ),
            )
            for eps in CENSUS_EPSILONS
        ]

    def run(self, inputs: CensusInputs, workers: int):
        """One round: every classifier at the slot's epsilon on the test rows."""
        from distknn import evaluate_real

        return evaluate_real(inputs.train, inputs.test, inputs.cfg, workers=workers)

    def warm_up(self, slots: list[CensusInputs], workers: int) -> None:
        from distknn import ClassifierKind, Shard, StoppingConfig, evaluate_queries, partition_proportional

        inputs = slots[0]
        few = Shard(2, inputs.test.features[:8], inputs.test.labels[:8])
        for slot in slots:
            self.run(CensusInputs(slot.train, few, slot.cfg), workers)
        # one pooled call, so the pool's first start is paid here too
        part = partition_proportional(inputs.train, 1, np.random.default_rng(0))
        stopping = StoppingConfig(N=inputs.train.size, d=inputs.train.dim)
        evaluate_queries(part, few.features, ClassifierKind.D1NN, stopping, workers=workers, chunk_size=4)

    def queries_per_timing(self, slots: list[CensusInputs]) -> int:
        return slots[0].test.size

    def oracle_cases(self, slots: list[CensusInputs], rng: np.random.Generator):
        from distknn import partition_proportional, shard_count

        train, test = slots[0].train, slots[0].test
        for eps in CENSUS_EPSILONS:
            part = partition_proportional(train, shard_count(train.size, eps), rng)
            pick = rng.choice(test.size, ORACLE_QUERIES, replace=False)
            yield part, test.features[pick], train.size, train.dim


WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload("grid_uniform", n=20000, kappa=0.60, split="uniform", runs=10, slots=6, workers=1),
        GridWorkload("grid_proportional", n=60000, kappa=0.55, split="proportional", runs=4, slots=5, workers=2),
        CensusWorkload("census_batch", workers=2),
    )
}
