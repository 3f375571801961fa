"""Training-free boundary detection from frame-to-frame similarity.

Three methods each propose boundaries over the whole video: a global
k-means over frames (label changes), a cosine score between consecutive
frames (dips below the mean), and a DTW cost between consecutive frames
(peaks above the mean). Proposals are pruned by a minimum gap and merged
by averaging nearby survivors into the final boundary list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .core import AUTO, BoundarySet, DetectConfig, FeatureSequence, LabelSequence
# dtw is unused here but stays bound: bench/spans.py wraps actseg.detect.dtw
# by name.
from .similarity import Metric, block_similarity, dtw, kmeans  # noqa: F401

MeanSide = Literal["below", "above"]


@dataclass(frozen=True)
class MethodProposals:
    """Per-method boundary sets plus the raw frame-to-frame score series."""

    cosine_bounds: BoundarySet
    dtw_bounds: BoundarySet
    cluster_bounds: BoundarySet
    cosine_scores: np.ndarray  # (T-1,)
    dtw_scores: np.ndarray     # (T-1,)
    resolved_b_intrv: int | None = None


def frame_scores(feat: FeatureSequence, metric: Metric) -> np.ndarray:
    """Length-(T-1) series where score[i] compares frames i and i+1.

    Both run the consecutive-block kernel with one frame per block: cosine
    compares the two D-vectors directly, DTW treats each frame's D values
    as a 1-D series, so its cost per pair grows as D^2.
    """
    values = feat.values
    total = feat.frames
    if total < 2:
        raise ValueError(f"need at least 2 frames to score, got {total}")

    blocks = values[:, None, :] if metric is Metric.COSINE else values[:, :, None]
    return block_similarity(blocks, metric)


def mean_filter(scores: np.ndarray, keep: MeanSide) -> BoundarySet:
    """Boundaries from score positions strictly below or above the mean.

    Score index i maps to boundary i + 1: the later frame starts the new
    segment.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty score series")
    mean = scores.mean()
    if keep == "below":
        hits = np.flatnonzero(scores < mean)
    elif keep == "above":
        hits = np.flatnonzero(scores > mean)
    else:
        raise ValueError(f"keep must be 'below' or 'above', got {keep!r}")
    return BoundarySet(tuple(int(i) + 1 for i in hits))


def cluster_bounds(feat: FeatureSequence, num_classes: int, seed: int) -> BoundarySet:
    """Boundaries where the global k-means frame label changes."""
    if feat.frames < num_classes:
        raise ValueError(f"too few frames: {feat.frames} < num_classes {num_classes}")
    labels = kmeans(feat.values, num_classes, seed).labels
    return BoundarySet(tuple(int(i) for i in np.flatnonzero(labels[1:] != labels[:-1]) + 1))


def remove_close(bounds: BoundarySet, b_intrv: int) -> BoundarySet:
    """Greedy left-to-right pruning: keep a boundary only when its gap to
    the last kept one is at least b_intrv. The first boundary always stays."""
    kept: list[int] = []
    for b in bounds:
        if not kept or b - kept[-1] >= b_intrv:
            kept.append(b)
    return BoundarySet(tuple(kept))


def merge_mean(sets: Iterable[BoundarySet], b_intrv: int) -> BoundarySet:
    """Union all boundaries and replace each run of near neighbours
    (consecutive gaps < b_intrv) with the rounded mean of its members."""
    merged = sorted({b for s in sets for b in s})
    if not merged:
        return BoundarySet(())
    groups: list[list[int]] = [[merged[0]]]
    for b in merged[1:]:
        if b - groups[-1][-1] < b_intrv:
            groups[-1].append(b)
        else:
            groups.append([b])
    return BoundarySet(tuple(int(round(float(np.mean(g)))) for g in groups))


def auto_b_intrv(proposals: MethodProposals) -> int:
    """Minimum-gap threshold from the widest per-method boundary spacing.

    Takes the maximum consecutive gap of every method that produced at
    least two boundaries, then the maximum over methods, clamped to
    [2, T/2]. Falls back to T/8 when no method qualifies.
    """
    total = int(proposals.cosine_scores.size) + 1
    gaps = []
    for s in (proposals.cosine_bounds, proposals.dtw_bounds, proposals.cluster_bounds):
        if len(s) >= 2:
            gaps.append(int(np.diff(np.asarray(s.indices)).max()))
    if not gaps:
        return max(2, total // 8)
    return min(max(max(gaps), 2), max(2, total // 2))


def _project(values: np.ndarray, target_dim: int, seed: int) -> np.ndarray:
    # Untrained dimensionality reduction: a seeded random linear map.
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((values.shape[1], target_dim)) / np.sqrt(target_dim)
    return values @ basis


def detect(feat: FeatureSequence, cfg: DetectConfig,
           seed: int = 0) -> tuple[BoundarySet, MethodProposals]:
    """Full unsupervised detection pipeline for one video.

    Order: cluster boundaries, cosine dips, DTW peaks; each pruned by
    b_intrv; then merged with nearby survivors averaged. When cfg.b_intrv
    is AUTO it is resolved from the mean-filtered, pre-pruning proposals.
    """
    if feat.frames < max(2, cfg.num_classes):
        raise ValueError(f"too few frames ({feat.frames}) for detection")
    values = feat.values
    if cfg.dim_reduce is not None and cfg.dim_reduce < feat.dim:
        values = _project(values, cfg.dim_reduce, seed)
    work = FeatureSequence(values) if values is not feat.values else feat

    clu_raw = cluster_bounds(work, cfg.num_classes, seed)
    cos_scores = frame_scores(work, Metric.COSINE)
    cos_raw = mean_filter(cos_scores, "below")
    dtw_scores = frame_scores(work, Metric.DTW)
    dtw_raw = mean_filter(dtw_scores, "above")

    if cfg.b_intrv == AUTO:
        b_intrv = auto_b_intrv(MethodProposals(cos_raw, dtw_raw, clu_raw,
                                               cos_scores, dtw_scores))
    else:
        b_intrv = int(cfg.b_intrv)

    clu = remove_close(clu_raw, b_intrv)
    cos = remove_close(cos_raw, b_intrv)
    dt = remove_close(dtw_raw, b_intrv)
    final = merge_mean((cos, dt, clu), b_intrv)
    return final, MethodProposals(cos, dt, clu, cos_scores, dtw_scores, b_intrv)


def segment_labels(feat: FeatureSequence, bounds: BoundarySet, num_classes: int,
                   seed: int) -> LabelSequence:
    """Label each detected segment with its majority global cluster id.

    Gives detection output a frame-wise form that class-based metrics can
    score after optimal label matching. Adjacent segments may share an id.
    """
    assignment = kmeans(feat.values, num_classes, seed)
    edges = [0, *bounds.indices, feat.frames]
    out = np.empty(feat.frames, dtype=np.int64)
    for start, end in zip(edges[:-1], edges[1:]):
        out[start:end] = np.bincount(assignment.labels[start:end]).argmax()
    return LabelSequence(out, num_classes)
