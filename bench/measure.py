"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``. It imports the library from the checkout's ``src``,
builds the workload's inputs from the seed, makes an untimed warm-up, and
prints ``ready`` once that set-up is done. With ``--setup-only`` it stops
there. Otherwise it measures rounds for the given seconds, checks the outputs
against the brute-force oracle, and prints one JSON line with the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import distknn  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import ALL_CLASSIFIERS, WORKLOADS  # noqa: E402


def run_signature(result) -> tuple:
    """Every result column except runtime, plus failures: what a round must repeat."""
    rows = tuple(
        (r.classifier, r.epsilon, r.m, r.agreement_rate, r.mc_stderr, r.k1_min, r.k1_med, r.k1_max) for r in result.rows
    )
    return rows, tuple(tuple(f) for f in result.failures)


def classifications(result) -> int:
    return sum(sample.size for sample in result.agreement_samples.values())


class Rounds:
    """Runs rounds over a workload's slots and checks that each slot repeats."""

    def __init__(self, workload, slots: list) -> None:
        self.workload = workload
        self.slots = slots
        self.references: dict[int, tuple] = {}
        self.failures: list[str] = []
        self.classifications = 0
        self.durations: list[float] = []

    def run(self, slot: int, workers: int, tracer: tracing.Tracer | None = None, spans=None):
        """One round of ``slot``, traced when a tracer is given; (result, seconds)."""
        with tracer.installed(spans) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            result = self.workload.run(self.slots[slot], workers)
            elapsed = time.perf_counter() - start
        self.durations.append(elapsed)
        self.classifications += classifications(result)
        for eps, run_idx, message in result.failures:
            self.failures.append(f"slot {slot} eps={eps} run={run_idx}: {message}")
        signature = run_signature(result)
        if self.references.setdefault(slot, signature) != signature:
            self.failures.append(f"slot {slot} at workers={workers} traced={bool(tracer)} differs from its first round")
        return result, elapsed

    def cycle(self, workers: int, tracer: tracing.Tracer | None = None, spans=None) -> list:
        """One round of every slot: [(result, seconds)] in slot order."""
        return [self.run(slot, workers, tracer, spans) for slot in range(len(self.slots))]


def agreement_rate(results: list) -> float:
    return float(np.concatenate([s for r in results for s in r.agreement_samples.values()]).mean())


def ms_per_query(result, classifier: str, queries: int) -> float:
    """Mean over the result's rows of the classifier's ``mean_runtime_s``, per query."""
    times = [r.mean_runtime_s for r in result.rows if r.classifier == classifier]
    return 1e3 * sum(times) / len(times) / queries


def rate(rounds: list) -> float:
    """Classifications per second over [(result, seconds)]."""
    return sum(classifications(r) for r, _ in rounds) / sum(t for _, t in rounds)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and of its finished pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(rounds: Rounds, workers: int, seconds: float) -> dict:
    """End-to-end metrics: per slot the median over its rounds, then over slots.

    Rounds cycle through the slots, at least twice, and go on while another
    round fits in ``seconds``.
    """
    n_slots = len(rounds.slots)
    samples: list[list] = [[] for _ in range(n_slots)]
    start, done, last = time.perf_counter(), 0, 0.0
    while done < 2 * n_slots or time.perf_counter() - start + last <= seconds:
        result, last = rounds.run(done % n_slots, workers)
        samples[done % n_slots].append((result, last))
        done += 1
    per_query = rounds.workload.queries_per_timing(rounds.slots)
    slot_time = sum(statistics.median(t for _, t in s) for s in samples)
    metrics = {
        "classifications_per_s": (sum(classifications(s[0][0]) for s in samples) / slot_time, "1/s"),
        "agreement_rate": (agreement_rate([s[0][0] for s in samples]), "share"),
    }
    for kind in ALL_CLASSIFIERS:
        per_slot = [statistics.median(ms_per_query(r, kind, per_query) for r, _ in s) for s in samples]
        metrics[f"{kind}_ms_per_query"] = (statistics.fmean(per_slot), "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def measure_traced(rounds: Rounds, workers: int, seconds: float) -> dict:
    """Per-layer metrics of one cycle through the slots, median over cycles.

    Each cycle runs untraced and traced in this process (workers=1), and
    again untraced at the workload's worker count when that is above one, for
    the pool overheads. Cycles go on while another fits in ``seconds``.
    """
    plain, traced, pooled = [], [], []
    start, last = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - start + last <= seconds:
        cycle_start = time.perf_counter()
        plain.append(rate(rounds.cycle(1)))
        tracer = tracing.Tracer()
        cycle = rounds.cycle(1, tracer)
        traced.append((tracer, sum(t for _, t in cycle), rate(cycle)))
        if workers > 1:
            pool_tracer = tracing.Tracer()
            cycle = rounds.cycle(workers, pool_tracer, {"engine.batch"})
            pooled.append((pool_tracer, sum(t for _, t in cycle)))
        last = time.perf_counter() - cycle_start

    def median_over_traced(fn) -> float:
        return statistics.median(fn(t, wall) for t, wall, _ in traced)

    def self_s(name: str) -> float:
        return median_over_traced(lambda t, _: t.self_times().get(name, 0.0))

    def grid_pool_overhead(t: tracing.Tracer, wall: float) -> float:
        """run_experiment wall minus summed run time / workers (0 where no grid runs)."""
        run_time = t.total("simharness.run")
        if run_time == 0.0:
            return 0.0
        if not pooled:
            return wall - run_time
        return statistics.median(w for _, w in pooled) - run_time / workers

    def batch_pool_overhead() -> float:
        """evaluate_queries wall minus traced chunk compute / workers (0 without a pool)."""
        if not pooled:
            return 0.0
        wall = statistics.median(p.total("engine.batch") for p, _ in pooled)
        return wall - median_over_traced(lambda t, _: t.child_total("engine.batch")) / workers

    counts = traced[0][0].counts
    n_class = counts["classifications"]
    return {
        "simharness.sample.self_s": (self_s("simharness.sample"), "s"),
        "simharness.partition.self_s": (self_s("simharness.partition"), "s"),
        "simharness.pool.overhead_s": (median_over_traced(grid_pool_overhead), "s"),
        "engine.classify.self_s": (self_s("engine.classify"), "s"),
        "engine.distance.self_s": (self_s("engine.distance"), "s"),
        "engine.distance.elements": (counts["distance.elements"], "count"),
        "engine.distance.elements_per_classification": (counts["distance.elements"] / n_class, "count"),
        "neighbors.select.self_s": (self_s("neighbors.select"), "s"),
        "neighbors.select.elements": (counts["select.elements"], "count"),
        "neighbors.select.depth1_rows": (counts["select.depth1_rows"], "count"),
        "engine.gather.self_s": (self_s("engine.gather"), "s"),
        "engine.gather.prefix_bytes": (counts["gather.prefix_bytes"], "bytes"),
        "engine.size_runs_per_classification": (counts["size_run_classifications"] / n_class, "count"),
        "adaptive.scan.self_s": (self_s("adaptive.scan"), "s"),
        "adaptive.scan.steps": (counts["scan.steps"], "count"),
        "adaptive.scan.useful_ratio": (counts["scan.useful_steps"] / counts["scan.steps"], "ratio"),
        "engine.pool.overhead_s": (batch_pool_overhead(), "s"),
        "engine.pool.bytes_sent": (pooled[0][0].counts["pool.bytes_sent"] if pooled else 0, "bytes"),
        "trace_overhead": (statistics.median(plain) / statistics.median(r for _, _, r in traced), "ratio"),
    }


def check_with_oracle(workload, slots: list, seed: int) -> tuple[int, list[str]]:
    """Compare evaluate_queries with the oracle on a seeded sample: (checked, mismatches)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x0AC1E,)))
    checked, mismatches = 0, []
    for part, queries, N, d in workload.oracle_cases(slots, rng):
        stopping = distknn.StoppingConfig(N=N, d=d)
        for kind in distknn.ClassifierKind:
            labels, k1s, etas = distknn.evaluate_queries(part, queries, kind, stopping)
            for qi, query in enumerate(queries):
                got = (int(labels[qi]), int(k1s[qi]), float(etas[qi]).hex())
                label, k1, eta = oracle.classify(part, query, kind.value, N, d)
                want = (label, k1, float(eta).hex())
                checked += 1
                if got != want:
                    mismatches.append(f"{kind.value} m={len(part)} query={query.tolist()}: engine {got} != oracle {want}")
    return checked, mismatches


def run_record(workers: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "workers": workers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    slots = workload.prepare(args.seed)
    workload.warm_up(slots, workers)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rounds = Rounds(workload, slots)
    if args.trace:
        metrics = measure_traced(rounds, workers, args.seconds)
    else:
        metrics = measure(rounds, workers, args.seconds)
    checked, mismatches = check_with_oracle(workload, slots, args.seed)
    failures = rounds.failures + mismatches
    print(json.dumps({
        "correct": not failures,
        "attempted": rounds.classifications + checked,
        "failed": len(failures),
        "failures": failures,
        "record": {**run_record(workers), "round_seconds": rounds.durations},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
