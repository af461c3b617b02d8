"""The benchmark tracer's wrap points against the package.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``WRAP_POINTS`` for the traced run, and each workload must call the functions
its ``WORKS_IN`` names.  An attribute that a change deletes or renames would
otherwise fail only the traced benchmark step, so these checks read the
tracer's tables (without importing its package or editing it) and resolve
every point.
"""

import importlib
import importlib.util
from pathlib import Path

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
