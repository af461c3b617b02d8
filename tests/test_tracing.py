"""The benchmark tracer's wrap points against the package.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``WRAP_POINTS`` for the traced run, and each workload must call the functions
its ``WORKS_IN`` names.  An attribute that a change deletes or renames, or a
call site that it moves, would otherwise fail only the traced benchmark step,
so these checks read the tracer's tables (without editing ``perfbench/``),
resolve every point and run one step of each workload under the tracer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves(tracing):
    assert tracing.WRAP_POINTS
    for module_name, attr, _ in tracing.WRAP_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_expected_function_is_traced(tracing):
    for workload, names in tracing.WORKS_IN.items():
        assert set(names) <= set(tracing.FUNCTIONS), (workload, set(names) - set(tracing.FUNCTIONS))


@pytest.fixture
def worker(monkeypatch):
    """``perfbench/worker.py``, which imports its siblings by their bare
    names; they leave ``sys.modules`` again when the test ends."""
    monkeypatch.syspath_prepend(str(_PATH.parent))
    yield importlib.import_module("worker")
    for name in ("worker", "tracing", "hostspeed"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["design", "robustness", "characterize"])
def test_one_step_of_each_workload_calls_what_works_in_expects(name, worker, tmp_path):
    workload = worker.WORKLOADS[name](np.random.default_rng(1), tmp_path)
    tracer = worker.Tracer()
    tracer.install()
    try:
        step = workload.step()
    finally:
        tracer.remove()
    assert step.failed == 0
    assert tracer.self_check(name) == []
