"""Every function the benchmark's tracer wraps by name exists in mftrack,
with every parameter its hooks read by name.

`benchmark/tracing.py` records a target it cannot find as absent, and the
benchmark self-test then fails; this test names the missing function.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


# the parameters the tracer's hooks read by name; a renamed one makes its
# count (engine.match_frame.pairs_scored, kalman.correct.measured_calls)
# absent, which reads 0 and passes the benchmark self-test unnoticed
_HOOKED_PARAMETERS = [("engine", "match_frame", "tracks"), ("engine", "match_frame", "detections"),
                      ("kalman", "correct", "measured")]


@pytest.mark.parametrize("module, attr", _tracing().TARGETS, ids=lambda v: v)
def test_traced_target_is_a_function(module, attr):
    owner = importlib.import_module(f"mftrack.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert inspect.isfunction(vars(owner).get(leaf)), f"mftrack.{module}.{attr} is not a function"


@pytest.mark.parametrize("module, attr, name", _HOOKED_PARAMETERS, ids=lambda v: v)
def test_hooked_parameter_exists(module, attr, name):
    fn = getattr(importlib.import_module(f"mftrack.{module}"), attr)
    assert _tracing()._arg_getter(fn, name) is not None, f"mftrack.{module}.{attr} has no {name}"
