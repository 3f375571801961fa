"""In-process replay of a workload's chain with a span around each layer call.

The replay calls the public functions of ``dataio``, ``similarity``,
``detect``, ``correction``, ``postprocess`` and ``metrics`` the way the
CLI glue does and writes the same files, so its digest must equal the CLI
chain's. Spans are recorded from the benchmark's side by rebinding module
attributes: ``detect`` and ``correction`` import ``dtw``, ``kmeans`` and
``block_similarity`` by name, so each of those bindings is wrapped too.
Videos are processed one at a time, so self times are serial.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from actseg import CorrectionConfig, DetectConfig, Metric, SmoothConfig
from actseg.metrics import EvalOptions

from workloads import SEED, Workload

# module -> {attribute: span name}
BINDINGS = {
    "actseg.similarity": {"dtw": "similarity.dtw", "kmeans": "similarity.kmeans",
                          "block_similarity": "similarity.block"},
    "actseg.detect": {"dtw": "similarity.dtw", "kmeans": "similarity.kmeans",
                      "block_similarity": "similarity.block", "detect": "detect.self", "cluster_bounds": "detect.cluster",
                      "frame_scores": None, "segment_labels": "detect.segment_labels",
                      **{name: "detect.prune_merge" for name in
                         ("mean_filter", "remove_close", "merge_mean", "auto_b_intrv")}},
    "actseg.correction": {"kmeans": "similarity.kmeans",
                          "block_similarity": "similarity.block",
                          "correct_all": "correction.correct_all"},
    "actseg.postprocess": {"smooth": "postprocess.smooth"},
    "actseg.metrics": {"evaluate_batch": "metrics.eval", "mean_result": "metrics.eval",
                       "hungarian_label_match": "metrics.label_match"},
    "actseg.dataio": {"load_features": "dataio.load", "load_labels": "dataio.labels_load",
                      "load_mapping": "dataio.labels_load", "save_labels": "dataio.save",
                      "save_boundaries": "dataio.save"},
}


def _frame_scores_name(args, kwargs) -> str:
    metric = args[1] if len(args) > 1 else kwargs["metric"]
    return "detect.cosine" if metric is Metric.COSINE else "detect.dtw_scores"


class SpanRecorder:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(self.spans)
            self.spans.append([label, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
        return traced

    @contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attrs in BINDINGS.items():
                module = importlib.import_module(module_name)
                for attr, name in attrs.items():
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name or _frame_scores_name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time, call count)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[float, int]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            total, count = totals.get(name, (0.0, 0))
            totals[name] = (total + (end - start) - inner, count + 1)
        return totals

    def as_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


@dataclass
class Replay:
    wall_s: float = 0.0
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


def _mods():
    return {name.split(".")[1]: importlib.import_module(name) for name in BINDINGS}


def replay(workload: Workload, corpus: Path, out: Path) -> Replay:
    """Run the chain in process, writing what the CLI would write to `out`."""
    m = _mods()
    dataio, metrics = m["dataio"], m["metrics"]
    result = Replay()
    counts = result.counts
    counts["dataio.load_mb"] = 0.0
    features = sorted((corpus / "features").glob("*.npy"))
    mapping_path = corpus / "mapping.txt"
    start = time.perf_counter()
    if workload.kind == "detect":
        cfg = DetectConfig(num_classes=workload.segments, b_intrv=workload.b_intrv,
                           dim_reduce=64)
        (out / "bounds").mkdir(parents=True)
        (out / "labels").mkdir(parents=True)
        proposals = boundaries = 0
        for path in features:
            feat = dataio.load_features(path)
            counts["dataio.load_mb"] += path.stat().st_size / 2**20
            bounds, props = m["detect"].detect(feat, cfg, seed=SEED)
            labels = m["detect"].segment_labels(feat, bounds, cfg.num_classes, SEED)
            dataio.save_boundaries(out / "bounds" / f"{path.stem}.txt", bounds)
            dataio.save_labels(out / "labels" / f"{path.stem}.txt", labels)
            proposals += len(props.cosine_bounds) + len(props.dtw_bounds) + len(props.cluster_bounds)
            boundaries += len(bounds)
        counts.update({"detect.proposals": proposals, "detect.boundaries": boundaries,
                       "detect.kept_ratio": boundaries / proposals if proposals else 0.0})
        mapping = dataio.load_mapping(mapping_path)
        pairs = []
        for gt_path in sorted((corpus / "groundTruth").glob("*.txt")):
            gt = dataio.load_labels(gt_path, mapping)
            pred = dataio.load_labels(out / "labels" / gt_path.name, None)
            pairs.append((metrics.hungarian_label_match(pred, gt), gt))
        overall = metrics.evaluate_batch(pairs, EvalOptions(boundary_tolerance=5))
    else:
        mapping = dataio.load_mapping(mapping_path)
        cfg = CorrectionConfig(b_win=16, b_seg=4)
        for sub in ("corrected", "report", "smoothed"):
            (out / sub).mkdir(parents=True)
        records = moved = iterations = 0
        for path in features:
            feat = dataio.load_features(path)
            counts["dataio.load_mb"] += path.stat().st_size / 2**20
            labels = dataio.load_labels(corpus / "predictions" / f"{path.stem}.txt", mapping)
            corrected, report = m["correction"].correct_all(feat, labels, cfg, seed=SEED)
            dataio.save_labels(out / "corrected" / f"{path.stem}.txt", corrected, mapping)
            (out / "report" / f"{path.stem}.txt").write_text(
                "".join(f"{r.original} {r.corrected} {r.iterations}\n" for r in report.records))
            records += len(report.records)
            moved += report.moved()
            iterations += sum(r.iterations for r in report.records)
        counts.update({"correction.boundaries": records, "correction.moved": moved,
                       "correction.iterations": iterations,
                       "correction.moved_ratio": moved / records if records else 0.0})
        changed = 0
        for path in sorted((out / "corrected").glob("*.txt")):
            labels = dataio.load_labels(path, mapping)
            smoothed = m["postprocess"].smooth(labels, SmoothConfig(s_win=4))
            dataio.save_labels(out / "smoothed" / path.name, smoothed, mapping)
            changed += int((labels.labels != smoothed.labels).sum())
        counts["postprocess.frames_changed"] = changed
        pairs = []
        for vid in (corpus / "split.txt").read_text().split():
            gt = dataio.load_labels(corpus / "groundTruth" / f"{vid}.txt", mapping)
            pred = dataio.load_labels(out / "smoothed" / f"{vid}.txt", mapping)
            pairs.append((pred, gt))
        overall = metrics.mean_result([metrics.evaluate_batch(pairs, EvalOptions(boundary_tolerance=5))])
    result.wall_s = time.perf_counter() - start
    result.quality = overall.field_values()
    return result


def load_alloc_peak_mib(path: Path) -> float:
    """tracemalloc peak while loading one feature file."""
    dataio = importlib.import_module("actseg.dataio")
    tracemalloc.start()
    try:
        dataio.load_features(path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
