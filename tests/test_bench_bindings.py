"""The benchmark's traced replay wraps package functions by name; a
renamed or deleted function must fail here, not first in a traced run."""

import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("kind", ["detect", "correct"])
def test_traced_replay_runs(monkeypatch, tmp_path, kind):
    """The replay also depends on call signatures: run each chain kind on a
    tiny corpus with every binding wrapped."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    chain = ({"b_intrv": 10} if kind == "detect"
             else {"perturb": 2, "fragments": 1, "fragment_len": 2})
    workload = workloads.Workload(f"tiny_{kind}", videos=2, segments=3,
                                  length_range=(40, 60), sigma=0.035, **chain)
    assert workload.kind == kind
    corpus = workloads.corpus(workload, 1, tmp_path / "cache")
    with spans.SpanRecorder().installed() as recorder:
        result = spans.replay(workload, corpus, tmp_path / "out")
    assert len(result.quality) == 6
    assert all(0.0 <= value <= 100.0 for value in result.quality.values()), result.quality
    assert "similarity.kmeans" in {name for name, *_ in recorder.spans}
