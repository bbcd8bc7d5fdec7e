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


@pytest.mark.parametrize("name", ["grid_uniform", "grid_proportional", "census_batch"])
def test_workload_prepares_and_runs_a_reduced_round(workloads, name):
    """``prepare(seed)`` and one round per workload, cut down to a fraction of a second."""
    from distknn import Shard

    workload = workloads.WORKLOADS[name]
    slots = workload.prepare(1)
    assert slots
    if isinstance(workload, workloads.GridWorkload):
        inputs = dataclasses.replace(slots[0], runs=1, epsilons=(0.0,))
        expected_rows = len(inputs.classifiers)
    else:
        few = Shard(2, slots[0].test.features[:8], slots[0].test.labels[:8])
        inputs = workloads.CensusInputs(slots[0].train, few, slots[0].cfg)
        expected_rows = len(inputs.cfg.classifiers) * len(inputs.cfg.epsilons)
    # one run, or one query chunk: the pools start no process
    result = workload.run(inputs, workload.workers)
    assert result.failures == []
    assert len(result.rows) == expected_rows
    assert all(0.0 <= row.agreement_rate <= 1.0 for row in result.rows)
