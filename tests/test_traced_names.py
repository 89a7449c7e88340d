"""The names the per-layer profiler wraps all exist in evoclust.

``perfbench/spans.py`` swaps functions by their ``module.function`` name; a
rename or a deletion in the package breaks every traced run, so each name is
checked here against the live package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.mark.skipif(not SPANS.is_file(), reason="perfbench/spans.py is absent")
def test_every_traced_name_is_an_evoclust_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib only: it imports nothing of evoclust
    assert spans.TRACED
    for name in spans.TRACED:
        module, attr = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"evoclust.{module}"), attr, None)
        assert callable(target), name
