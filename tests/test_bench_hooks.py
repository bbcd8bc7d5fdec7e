"""The traced benchmark patches library functions by name; keep those names alive.

``bench/tracing.py`` lists every wrapped (module, attribute) pair in its
``LAYERS`` table and binds ``evaluate_queries`` arguments by name. A rename
that breaks either fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
