"""Every entry point that the benchmark's tracer wraps still exists.

``bench/tracer.py`` names the layer boundaries it times as ``(module,
dotted attribute)`` pairs in its ``PHASES``, ``CALLS`` and ``READERS``
lists, and a traced run stops when one of them is gone.  Resolving them
here makes a rename fail the test suite instead of a traced benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
LISTS = ("PHASES", "CALLS", "READERS")

# run_path compiles the file without leaving bytecode next to it
tracer = runpy.run_path(str(TRACER))
ENTRY_POINTS = [(module, dotted) for name in LISTS for module, dotted in tracer[name]]


def test_every_list_names_entry_points():
    assert all(tracer[name] for name in LISTS)


@pytest.mark.parametrize("module, dotted", ENTRY_POINTS, ids=[f"{m}.{d}" for m, d in ENTRY_POINTS])
def test_entry_point_resolves_on_debias(module, dotted):
    target = importlib.import_module(f"debias.{module}")
    for part in dotted.split("."):
        target = getattr(target, part)
    assert callable(target)
