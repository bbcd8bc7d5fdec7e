"""The benchmark calls the library through a frozen API; keep it working.

``bench/tracing.py`` lists every wrapped (module, attribute) pair in its
``LAYERS`` table and binds ``evaluate_queries`` arguments by name, and
``bench/workloads.py`` builds each workload's inputs and runs its rounds
through the public entry points. A change that breaks any of them fails here
instead of in a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("bench_tracing", BENCH / "tracing.py")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))  # workloads.py imports census.py by its bare name
    try:
        return load("bench_workloads", BENCH / "workloads.py")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_layer_resolves(tracing):
    assert tracing.LAYERS
    for layer in tracing.LAYERS:
        module = importlib.import_module(layer.module)
        assert callable(getattr(module, layer.attribute, None)), f"{layer.module}.{layer.attribute}"


def test_evaluate_queries_binds_traced_arguments():
    from distknn import engine

    call = inspect.signature(engine.evaluate_queries).bind(None, None, None, None)
    call.apply_defaults()
    assert {"partition", "queries", "workers", "chunk_size"} <= set(call.arguments)


def test_evaluate_queries_returns_three_arrays_of_the_query_count():
    """``bench/measure.py``'s oracle check unpacks ``labels, k1s, etas = distknn.evaluate_queries(...)``."""
    import numpy as np

    import distknn

    rng = np.random.default_rng(0)
    part = distknn.partition_proportional(distknn.Shard(1, rng.random((40, 2)), rng.integers(0, 2, 40)), 3, rng)
    for kind in distknn.ClassifierKind:
        result = distknn.evaluate_queries(part, rng.random((5, 2)), kind, distknn.StoppingConfig(N=40, d=2))
        assert isinstance(result, tuple) and len(result) == 3, kind
        assert all(isinstance(a, np.ndarray) and a.shape == (5,) for a in result), kind


def reduced_round(workloads, name):
    """A workload and the inputs of one of its rounds, cut down to a fraction of a second.

    One run, or one query chunk: the pools start no process. Also returns the
    number of result rows the round gives.
    """
    from distknn import Shard

    workload = workloads.WORKLOADS[name]
    slots = workload.prepare(1)
    assert slots
    if isinstance(workload, workloads.GridWorkload):
        inputs = dataclasses.replace(slots[0], runs=1, epsilons=(0.0,))
        return workload, inputs, len(inputs.classifiers)
    few = Shard(2, slots[0].test.features[:8], slots[0].test.labels[:8])
    inputs = workloads.CensusInputs(slots[0].train, few, slots[0].cfg)
    return workload, inputs, len(inputs.cfg.classifiers) * len(inputs.cfg.epsilons)


WORKLOAD_NAMES = ["grid_uniform", "grid_proportional", "census_batch"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_prepares_and_runs_a_reduced_round(workloads, name):
    """``prepare(seed)`` and one round per workload."""
    workload, inputs, expected_rows = reduced_round(workloads, name)
    result = workload.run(inputs, workload.workers)
    assert result.failures == []
    assert len(result.rows) == expected_rows
    assert all(0.0 <= row.agreement_rate <= 1.0 for row in result.rows)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_round_reaches_every_layer(tracing, workloads, name):
    """A traced round times and counts each layer, as a ``--trace 1`` run reads them.

    A partition function bound before the tracer patches it, or a traced
    function whose arguments changed, fails here rather than only in a traced
    benchmark run.
    """
    workload, inputs, _ = reduced_round(workloads, name)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = workload.run(inputs, 1)
    assert result.failures == []
    self_times = tracer.self_times()
    for span in ("simharness.partition", "engine.distance", "neighbors.select", "engine.gather", "adaptive.scan"):
        assert self_times.get(span, 0.0) > 0.0, span
    for count in ("classifications", "distance.elements", "select.elements", "scan.steps"):
        assert tracer.counts[count] > 0, count


def test_traced_round_takes_the_segmented_sort(tracing, workloads, monkeypatch):
    """A traced ``grid_proportional`` run at eps = 0.5, where every classifier sorts each row's candidates.

    m = 245 shards of nearly as many sizes; the reduced rounds above run at
    eps = 0 (one shard) and never reach that strategy. The counts must equal
    what the traced functions returned: ``select.elements`` is the sum of the
    candidate rows that ``k_smallest_rows`` was given, not m x N.
    """
    from distknn import engine

    workload = workloads.WORKLOADS["grid_proportional"]
    inputs = dataclasses.replace(workload.prepare(1)[0], runs=1, epsilons=(0.5,))
    sorted_rows, selected, prefix_bytes, steps, useful = [], [], [], [], []

    def spy(name, record):
        fn = getattr(engine, name)

        def wrapper(*args):
            result = fn(*args)
            record(args, result)
            return result

        monkeypatch.setattr(engine, name, wrapper)

    def on_scan(args, result):
        stop = result[0]
        steps.append(args[1].shape[0] * stop.size)
        useful.append(int(stop.sum()) + stop.size)

    spy("_segmented_profiles", lambda args, result: sorted_rows.append(args[1].shape[0]))
    spy("k_smallest_rows", lambda args, result: selected.append(args[0].size))
    spy("build_prefix_tensor", lambda args, result: prefix_bytes.append(result.nbytes))
    spy("scan_first_crossing", on_scan)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = workload.run(inputs, 1)
    assert result.failures == []
    assert sorted_rows == [1, 1, 1, 1]  # each classifier, one query each
    self_times = tracer.self_times()
    for span in ("engine.gather", "neighbors.select"):
        assert self_times.get(span, 0.0) > 0.0, span
    assert tracer.counts["classifications"] == len(inputs.classifiers)
    assert len(selected) == len(inputs.classifiers)  # one sort of one row's candidates each
    assert tracer.counts["select.elements"] == sum(selected)
    assert tracer.counts["gather.prefix_bytes"] == max(prefix_bytes) > 0
    assert tracer.counts["scan.steps"] == sum(steps) > 0
    assert tracer.counts["scan.useful_steps"] == sum(useful) > 0
