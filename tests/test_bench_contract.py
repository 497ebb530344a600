"""The names the benchmark's tracer wraps still exist where it looks for them.

perfbench/tracing.py rebinds functions by name (LAYERS, SMITH) when a run
is traced; a deleted or renamed one would stop `run.py --trace 1` at
install time. The file is loaded by path and left unchanged.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TRACED = tracing.LAYERS + (tracing.SMITH,)


@pytest.mark.parametrize("span, home, names, _sizes", TRACED, ids=[span for span, *_ in TRACED])
def test_traced_names_exist(span, home, names, _sizes):
    module = importlib.import_module(home)
    for name in names:
        assert callable(getattr(module, name, None)), f"{span}: {home}.{name} is gone"
