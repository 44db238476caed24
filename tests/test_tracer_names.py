import importlib
import importlib.util
import pkgutil
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


#: Public names retired from the package; their test references live in
#: ``tests/reference.py`` (the bisector, ``delta``, ``minkowski_diff`` and
#: ``relocation_objective``) or in the rim stage ``_rim_witnesses``
#: (``boundary_crossings``).  ``Unbounded`` left with the tableau simplex:
#: ``LinearProgram`` admits no unbounded program.
_RETIRED = ("Bisector", "ConcentricDisks", "EmptyBisector", "Unbounded", "bisector",
            "bisector_point", "boundary_crossings", "delta", "minkowski_diff",
            "relocation_objective")

_MODULES = [m.name for m in pkgutil.iter_modules(importlib.import_module("pupilcover").__path__)]


def test_star_import_binds_exactly_the_export_list():
    import pupilcover

    names: dict = {}
    exec("from pupilcover import *", names)
    assert set(names) - {"__builtins__"} == set(pupilcover.__all__)
    assert all(getattr(pupilcover, name, None) is not None for name in pupilcover.__all__)


def test_export_list_is_sorted_without_duplicates():
    import pupilcover

    assert pupilcover.__all__ == sorted(set(pupilcover.__all__))


@pytest.mark.parametrize("home", ("", *_MODULES))
def test_retired_names_are_gone(home):
    module = importlib.import_module(f"pupilcover.{home}" if home else "pupilcover")
    assert [name for name in _RETIRED if hasattr(module, name)] == []
