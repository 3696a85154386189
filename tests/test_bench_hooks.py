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


def test_factors_word_is_one_distinct_factors_span(monkeypatch, capsys):
    # the CLI counts a word through the name that the tracer wraps, so
    # factors.distinct_factors_s reads the count and not cli.self_s
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)
    from ebwt import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["factors", "abaab"]) == 0
    finally:
        tracer.uninstall(1.0)
    assert capsys.readouterr().out == "11\n"
    names = [name for _, _, _, name, _, _ in tracer.spans]
    assert names.count("factors.distinct_factors") == 1
