"""Training-free boundary detection from frame-to-frame similarity.

Three methods each propose boundaries over the whole video: a global
k-means over frames (label changes), a cosine score between consecutive
frames (dips below the mean), and a DTW cost between consecutive frames
(peaks above the mean). Proposals are pruned by a minimum gap and merged
by averaging nearby survivors into the final boundary list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (AUTO, BoundarySet, DetectConfig, FeatureSequence, LabelSequence,
                   boundaries_of)
# dtw is unused here but stays bound: bench/spans.py wraps actseg.detect.dtw
# by name.
from .similarity import Metric, block_similarity, dtw, kmeans  # noqa: F401

# Bytes of float64 frames that detect widens and projects at a time (256
# frames at D = 2048), so it never holds a T x D float64 copy. Of blocks
# of 1 to 16 MiB timed on 5.5k-frame 2048-D videos, 4 and 8 MiB were the
# fastest; 4 MiB is also the smallest block whose 2-column product stays
# above OpenBLAS's small-matrix cutoff (see _project).
_PROJECT_BYTES = 4 << 20


@dataclass(frozen=True)
class MethodProposals:
    """Per-method boundary sets, the raw frame-to-frame score series, and
    the global k-means ids that detection clustered on (of the projected
    features when dim_reduce applies)."""

    cosine_bounds: BoundarySet
    dtw_bounds: BoundarySet
    cluster_bounds: BoundarySet
    cosine_scores: np.ndarray  # (T-1,)
    dtw_scores: np.ndarray     # (T-1,)
    clusters: np.ndarray       # (T,) int64
    resolved_b_intrv: int


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


def mean_filter(scores: np.ndarray) -> BoundarySet:
    """Boundaries from score positions strictly above the mean.

    Score index i maps to boundary i + 1: the later frame starts the new
    segment. The mean is kept inside [min, max], where rounding can push
    it out, so a series with no spread proposes nothing. Rounding is symmetric
    in sign, so `mean_filter(-x)` keeps exactly the positions below the mean of x.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty score series")
    mean = np.clip(scores.mean(), scores.min(), scores.max())
    return BoundarySet(tuple(int(i) + 1 for i in np.flatnonzero(scores > mean)))


def cluster_bounds(clusters: np.ndarray, num_classes: int) -> BoundarySet:
    """Boundaries where the global k-means frame label changes."""
    return boundaries_of(LabelSequence(clusters, num_classes))


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


def auto_b_intrv(sets: Iterable[BoundarySet], frames: int) -> int:
    """Minimum-gap threshold from the widest per-method boundary spacing.

    Takes the maximum consecutive gap of every method's pre-pruning
    boundary set with at least two boundaries, then the maximum over
    methods, clamped to [2, T/2] for a video of T `frames`. Falls back to
    T/8 when no method qualifies.
    """
    gaps = []
    for s in sets:
        if len(s) >= 2:
            gaps.append(int(np.diff(np.asarray(s.indices)).max()))
    if not gaps:
        return max(2, frames // 8)
    return min(max(max(gaps), 2), max(2, frames // 2))


def _project(values: np.ndarray, target_dim: int, seed: int) -> np.ndarray:
    """values @ basis for an untrained, seeded random (D, target_dim) basis,
    bit for bit the product of the whole array widened to float64 in C order.

    Returns a transposed view of a (target_dim, T) buffer, so each projected
    dimension is contiguous over the frames. The frames are widened and
    multiplied in near-equal blocks of about _PROJECT_BYTES, each read in
    the caller's layout. OpenBLAS packs the operands of a general matrix
    product into its own layout and sums each output value alone, so
    neither the block edges nor the layout change a bit. That does not hold
    below its small-matrix cutoff (10**6 multiply-adds) or for a one-column
    basis (a matrix-vector product), so a video under two blocks and a
    one-column basis are widened whole, in C order. Those products can
    also round identical rows differently by their position, so there each
    run of identical consecutive frames is projected once: a video without
    such runs gets the whole product, and identical neighbours project to
    identical rows.
    """
    rng = np.random.default_rng(seed)
    frames, dim = values.shape
    basis = rng.standard_normal((dim, target_dim)) / np.sqrt(target_dim)
    count = max(1, frames * dim * 8 // _PROJECT_BYTES) if target_dim > 1 else 1
    out = np.empty((target_dim, frames))
    if count == 1:
        wide = values.astype(np.float64, order="C")
        starts = np.ones(frames, dtype=bool)  # frames that differ from the one before
        starts[1:] = np.any(wide[1:] != wide[:-1], axis=1)
        distinct = wide if starts.all() else wide[starts]
        out[:] = (distinct @ basis)[np.cumsum(starts) - 1].T
        return out.T
    edges = [frames * i // count for i in range(count + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        out[:, start:stop] = (values[start:stop].astype(np.float64, order="K") @ basis).T
    return out.T


def detect(feat: FeatureSequence, cfg: DetectConfig,
           seed: int = 0) -> tuple[BoundarySet, MethodProposals]:
    """Full unsupervised detection pipeline for one video.

    Order: cluster boundaries, cosine dips, DTW peaks; each pruned by
    b_intrv; then merged with nearby survivors averaged. When cfg.b_intrv
    is AUTO it is resolved from the mean-filtered, pre-pruning proposals.
    """
    need = max(2, cfg.num_classes)
    if feat.frames < need:
        raise ValueError(f"too few frames ({feat.frames}) for detection: need at least "
                         f"{need} for num_classes {cfg.num_classes}")
    if cfg.projects(feat.dim):
        values = _project(feat.values, cfg.dim_reduce, seed)
    else:  # every frame is read at full width, so widen them all once
        values = np.ascontiguousarray(feat.values, dtype=np.float64)
    values.setflags(write=False)  # so FeatureSequence holds it uncopied
    work = FeatureSequence(values)

    clusters = kmeans(work.values, cfg.num_classes, seed)
    clu_raw = cluster_bounds(clusters, cfg.num_classes)
    cos_scores = frame_scores(work, Metric.COSINE)
    cos_raw = mean_filter(-cos_scores)
    dtw_scores = frame_scores(work, Metric.DTW)
    dtw_raw = mean_filter(dtw_scores)

    if cfg.b_intrv == AUTO:
        b_intrv = auto_b_intrv((cos_raw, dtw_raw, clu_raw), feat.frames)
    else:
        b_intrv = int(cfg.b_intrv)

    clu = remove_close(clu_raw, b_intrv)
    cos = remove_close(cos_raw, b_intrv)
    dt = remove_close(dtw_raw, b_intrv)
    final = merge_mean((cos, dt, clu), b_intrv)
    return final, MethodProposals(cos, dt, clu, cos_scores, dtw_scores, clusters, b_intrv)


def majority_labels(clusters: np.ndarray, bounds: BoundarySet,
                    num_classes: int) -> LabelSequence:
    """Label each detected segment with its most frequent cluster id.

    Gives detection output a frame-wise form that class-based metrics can
    score after optimal label matching. Adjacent segments may share an id;
    a tie goes to the lowest id. Every boundary must lie in [1, T - 1].
    """
    total = len(clusters)
    if bounds and bounds.indices[-1] >= total:
        raise ValueError(f"boundary {bounds.indices[-1]} outside [1, {total - 1}]")
    edges = [0, *bounds.indices, total]
    out = np.empty(total, dtype=np.int64)
    for start, end in zip(edges[:-1], edges[1:]):
        out[start:end] = np.bincount(clusters[start:end]).argmax()
    return LabelSequence(out, num_classes)


def segment_labels(feat: FeatureSequence, bounds: BoundarySet, num_classes: int,
                   seed: int) -> LabelSequence:
    """majority_labels over a fresh global k-means of `feat`.

    `detect` already returns the ids it clustered on as
    `MethodProposals.clusters`; label from those instead of clustering again.
    """
    return majority_labels(kmeans(feat.values, num_classes, seed), bounds, num_classes)
