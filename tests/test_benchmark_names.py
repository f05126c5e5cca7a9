"""Every library name the benchmark's tracer reaches must resolve.

``perfbench/`` sits outside ``testpaths``, so a deleted name it traces would
pass this suite and then break ``perfbench/run.py --trace 1``.  The tracer
file is parsed, not imported or changed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from fracharm.grid import GridFunction
from fracharm.maximal import MaximalConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names():
    """The (module, qualname) pairs of the TRACED tuple in the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"no TRACED tuple in {TRACER}")


TRACED = _traced_names()


@pytest.mark.parametrize("module, qualname", TRACED,
                         ids=[f"{m}.{q}" for m, q in TRACED])
def test_traced_name_resolves(module, qualname):
    obj = importlib.import_module(f"fracharm.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_maximal_rung_probe_runs():
    # the tracer's rung count: MaximalConfig.for_grid(f).cell_lengths(f.h)
    f = GridFunction(((-1.0, 1.0),), 2.0 ** -5, np.ones(64))
    rungs = MaximalConfig.for_grid(f).cell_lengths(f.h)
    assert len(rungs) > 0
