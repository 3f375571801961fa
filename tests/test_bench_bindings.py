"""The benchmark's traced replay wraps package functions by name; a
renamed or deleted function must fail here, not first in a traced run."""

import importlib
from pathlib import Path

import actseg

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    missing = [f"{module}.{attr}" for module, attrs in spans.BINDINGS.items()
               for attr in attrs if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_package_exports_resolve():
    assert [name for name in actseg.__all__ if not hasattr(actseg, name)] == []
