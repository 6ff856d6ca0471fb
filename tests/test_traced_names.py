"""Every function the benchmark's tracer wraps by name exists in mftrack.

`benchmark/tracing.py` records a target it cannot find as absent, and the
benchmark self-test then fails; this test names the missing function.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module, attr", _targets(), ids=lambda v: v)
def test_traced_target_is_a_function(module, attr):
    owner = importlib.import_module(f"mftrack.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert inspect.isfunction(vars(owner).get(leaf)), f"mftrack.{module}.{attr} is not a function"
