"""Run a workload's CLI chain as child processes and check what it wrote.

Every call runs ``python -m actseg.cli`` from the checkout's ``src`` with
BLAS pinned to one thread, one call at a time. Wall time, CPU time and
max RSS are read per child with ``os.wait4``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import JOBS, SEED, Workload

QUALITY = ("acc", "edit", "f1_10", "f1_25", "f1_50", "boundary_f1")


@dataclass
class Call:
    step: str
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    ok: bool
    stdout: str


@dataclass
class ChainResult:
    calls: list[Call] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    def wall(self, *steps: str) -> float:
        return sum(c.wall_s for c in self.calls if not steps or c.step in steps)


class Runner:
    """Starts CLI children one at a time and records their resource use."""

    def __init__(self, src: Path, log_path: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.log_path = log_path
        self.deadline = deadline

    def call(self, step: str, args: list[str]) -> Call:
        out_path = self.log_path.with_suffix(".out")
        with open(out_path, "wb") as out, open(self.log_path, "ab") as err:
            err.write(f"$ actseg {' '.join(args)}\n".encode())
            err.flush()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "actseg.cli", *args],
                                    stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        return Call(step, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    proc.returncode == 0, stdout)


def cli_steps(workload: Workload, corpus: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The workload's chain as (step, argv) pairs."""
    common = ["--seed", str(SEED), "--jobs", str(JOBS)]
    mapping = str(corpus / "mapping.txt")
    gt = str(corpus / "groundTruth")
    if workload.kind == "detect":
        return [
            ("detect", ["detect", str(corpus / "features"),
                        "--num-classes", str(workload.segments), "--dim-reduce", "64",
                        "--b-intrv", str(workload.b_intrv),
                        "--out-bounds", str(out / "bounds"),
                        "--out-labels", str(out / "labels"), *common]),
            ("eval", ["eval", str(out / "labels"), gt, "--mapping", mapping,
                      "--pred-format", "ids", "--label-match", "hungarian", *common]),
        ]
    return [
        ("correct", ["correct", str(corpus / "features"), str(corpus / "predictions"),
                     "--mapping", mapping, "--b-win", "16", "--b-seg", "4",
                     "--out", str(out / "corrected"), "--report", str(out / "report"),
                     *common]),
        ("smooth", ["smooth", str(out / "corrected"), "--s-win", "4", "--mapping", mapping,
                    "--out", str(out / "smoothed"), *common]),
        ("eval", ["eval", str(out / "smoothed"), gt, "--mapping", mapping,
                  "--splits", str(corpus / "split.txt"), *common]),
    ]


def parse_quality(stdout: str) -> dict[str, float]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in QUALITY:
            fields[key] = float(value)
    return fields


def quality_lines(quality: dict[str, float]) -> str:
    return "".join(f"{k}={quality.get(k)!r}\n" for k in QUALITY)


def digest(out: Path, quality: dict[str, float]) -> str:
    """SHA-256 over every output file (by relative path) and the eval fields."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    h.update(quality_lines(quality).encode())
    return h.hexdigest()


def _lines(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.is_file() else []


def check_outputs(workload: Workload, corpus: Path, out: Path,
                  quality: dict[str, float]) -> list[tuple[str, str]]:
    """(step, problem) pairs for the chain's outputs; empty when well formed."""
    problems = []
    names = {line.split()[1] for line in _lines(corpus / "mapping.txt")}
    for gt in sorted((corpus / "groundTruth").glob("*.txt")):
        vid, frames = gt.stem, len(_lines(gt))
        if workload.kind == "detect":
            labels = _lines(out / "labels" / f"{vid}.txt")
            if len(labels) != frames or not all(
                    x.isdigit() and int(x) < workload.segments for x in labels):
                problems.append(("detect", f"{vid}: detect labels missing, wrong length or bad ids"))
            bounds = _lines(out / "bounds" / f"{vid}.txt")
            try:
                idx = [int(x) for x in bounds]
            except ValueError:
                idx = [-1]
            if not idx or any(not 0 < b < frames for b in idx) or \
                    any(b <= a for a, b in zip(idx, idx[1:])):
                problems.append(("detect", f"{vid}: boundaries empty, out of range or not increasing"))
            continue
        for step, stage in (("correct", "corrected"), ("smooth", "smoothed")):
            labels = _lines(out / stage / f"{vid}.txt")
            if len(labels) != frames or not set(labels) <= names:
                problems.append((step, f"{vid}: {stage} labels missing, wrong length or unknown names"))
        try:
            rows = [tuple(map(int, line.split())) for line in _lines(out / "report" / f"{vid}.txt")]
        except ValueError:
            rows = [()]
        originals = [r[0] for r in rows if len(r) == 3]
        if len(originals) != len(rows) or any(not 0 < r[1] < frames or r[2] < 0 for r in rows) \
                or any(b <= a for a, b in zip(originals, originals[1:])):
            problems.append(("correct", f"{vid}: correction report malformed"))
    if set(quality) != set(QUALITY) or not all(0.0 <= v <= 100.0 for v in quality.values()):
        problems.append(("eval", f"eval fields missing or out of [0, 100]: {quality}"))
    return problems


def run_chain(runner: Runner, workload: Workload, corpus: Path, out: Path) -> ChainResult:
    """Run the chain once into a fresh `out`, then validate and digest it."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = ChainResult()
    for step, args in cli_steps(workload, corpus, out):
        call = runner.call(step, args)
        result.calls.append(call)
        if not call.ok:
            result.problems.append(f"{step}: unexpected exit status")
            return result
    result.quality = parse_quality(result.calls[-1].stdout)
    for step, problem in check_outputs(workload, corpus, out, result.quality):
        for call in result.calls:
            call.ok = call.ok and call.step != step
        result.problems.append(f"{step}: {problem}")
    result.digest = digest(out, result.quality)
    return result
