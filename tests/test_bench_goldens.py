"""The benchmark's golden digests, checked through the CLI at seed 1.

Runs each workload's chain exactly as `bench/run.py` does (the bench's own
corpus builder and chain runner, imported read-only) and compares the output
digest with `bench/goldens.json`. The digests were recorded with NumPy on
scipy-openblas 0.3.31 and BLAS pinned to one thread; another BLAS may round
k-means' matrix products differently, so the test skips there.
"""

import importlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _blas() -> str:
    try:  # mode= is NumPy 1.25+
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "an unknown BLAS"
    return f"{blas.get('name')} {blas.get('version')}"


@pytest.mark.skipif(not _blas().startswith("scipy-openblas 0.3.31"),
                    reason=f"goldens were recorded on scipy-openblas 0.3.31, not {_blas()}")
@pytest.mark.parametrize("name", ["correct_gtea", "detect_salads"])
def test_seed_1_chain_matches_golden(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCH))
    for key, value in PINNED.items():
        monkeypatch.setenv(key, value)
    workloads = importlib.import_module("workloads")
    chain = importlib.import_module("chain")
    workload = workloads.WORKLOADS[name]
    corpus = workloads.corpus(workload, 1, tmp_path / "cache")
    runner = chain.Runner(SRC, tmp_path / "chain.log", time.monotonic() + 170)
    result = chain.run_chain(runner, workload, corpus, tmp_path / "out")
    assert result.problems == [], (tmp_path / "chain.log").read_text()
    goldens = json.loads((BENCH / "goldens.json").read_text())
    assert result.digest == goldens[name]["1"]
