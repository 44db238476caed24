import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced_names():
    """(module, name) of every function ``bench/tracer.py`` wraps, read from
    its ``TRACED`` table."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [pytest.param(home, name, id=f"{home}.{name}")
            for home, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("home, name", _traced_names())
def test_traced_name_resolves(home, name):
    """The benchmark's tracer wraps these functions by name, so each must
    stay a callable of its pupilcover module."""
    assert callable(getattr(importlib.import_module(f"pupilcover.{home}"), name, None))


def test_tracer_degenerate_triple_imports():
    from pupilcover.apollonius import DegenerateTriple

    assert issubclass(DegenerateTriple, ValueError)
