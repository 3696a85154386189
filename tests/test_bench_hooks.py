"""The benchmark's tracer hooks library names by attribute; each must exist.

Deleting or renaming a hooked name would otherwise surface only in a traced
benchmark run.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
        points = tracing._points(tracing.Tracer())
    finally:
        sys.modules.pop("tracing", None)
    assert points
    missing = [(owner.__name__, attr) for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []
