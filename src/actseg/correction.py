"""Boundary correction: shrink a feature window around each predicted boundary
using three similarity votes until the true transition frame is isolated.

Per boundary, a window of frames is cut into equal sub-segments. Cosine
similarity (lowest wins), DTW cost (highest wins), and a binary clustering
of the window each nominate the sub-segment where the action changes; the
window is narrowed to the span of the nominations and the process repeats,
at most _MAX_ITERATIONS times. A final binary clustering of the surviving
frames pins the exact frame.

`correct_all` is the one correction path. Every window is computed from the
original boundaries and the features alone, so the corrected frame of one
boundary is its record in the report: `correct_all(...)[1].records[pos]`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AUTO, BoundarySet, CorrectionConfig, FeatureSequence,
                   LabelSequence, boundaries_of)
from .similarity import Metric, block_similarity, kmeans, transition_index

# Refinement steps per boundary; each step narrows the window or stops.
_MAX_ITERATIONS = 16


@dataclass(frozen=True)
class WindowState:
    """Half-open frame window under refinement, a whole number of b_seg wide."""

    start: int
    end: int


@dataclass(frozen=True)
class IterationProposals:
    """Sub-segment nominated by each method in one refinement step."""

    cosine: int
    dtw: int
    cluster: int | None


@dataclass(frozen=True)
class BoundaryRecord:
    original: int
    corrected: int
    proposals: tuple[IterationProposals, ...]
    window: WindowState | None = None  # clamped extent the rewrite was confined to

    @property
    def iterations(self) -> int:
        return len(self.proposals)


@dataclass(frozen=True)
class CorrectionReport:
    records: tuple[BoundaryRecord, ...]
    b_win: int  # the window sizes as resolved, AUTO replaced by numbers
    b_seg: int

    def moved(self) -> int:
        return sum(1 for r in self.records if r.corrected != r.original)


def auto_window_params(bounds: BoundarySet) -> tuple[int, int]:
    """Derive (b_win, b_seg) from the spread of consecutive boundary gaps.

    b_win is the largest-to-smallest gap ratio, clamped to [4, 64] and
    rounded down to even; b_seg is half of it.
    Falls back to the fixed defaults (16, 4) with fewer than two
    boundaries. On synthetic 256-D corpora shaped like GTEA, 50Salads and
    Breakfast (segment means 6 apart), with boundaries shifted up to 5
    frames, the fixed (16, 4) wins everywhere; with three spurious 1-3
    frame runs added, this heuristic wins on accuracy for GTEA (noise 5)
    and 50Salads, and on exact-boundary F1 for GTEA (noise 20).
    """
    idx = bounds.indices
    if len(idx) < 2:
        return 16, 4
    gaps = np.diff(np.asarray(idx))
    ratio = int(round(float(gaps.max()) / float(gaps.min())))
    b_win = min(64, max(4, ratio))
    b_win -= b_win % 2
    return b_win, b_win // 2


def resolve_window_params(cfg: CorrectionConfig, bounds: BoundarySet) -> tuple[int, int]:
    """(b_win, b_seg) of `cfg`, derived from `bounds` when both are AUTO."""
    if cfg.b_win == AUTO:
        return auto_window_params(bounds)
    return int(cfg.b_win), int(cfg.b_seg)


def _clamped_window(idx: tuple[int, ...], pos: int, total: int,
                    b_win: int, b_seg: int) -> WindowState | None:
    """Window around boundary idx[pos], kept inside the neighbour midpoints.

    Clamping to midpoints stops adjacent boundaries' windows from
    overlapping and swapping segment content. Returns None when the
    clamped extent is too narrow to refine or the boundary is not
    strictly inside it.
    """
    boundary = idx[pos]
    lo = 0 if pos == 0 else (idx[pos - 1] + boundary) // 2
    hi = total if pos + 1 == len(idx) else (boundary + idx[pos + 1]) // 2
    lo = max(lo, boundary - b_win // 2)
    hi = min(hi, boundary + b_win // 2)
    width = ((hi - lo) // b_seg) * b_seg
    if width < 2 * b_seg:
        return None
    start = min(max(boundary - width // 2, lo), hi - width)
    end = start + width
    if not start < boundary < end:
        return None
    return WindowState(start, end)


def _refine_window(values: np.ndarray, b_seg: int,
                   seed: int) -> tuple[int | None, tuple[IterationProposals, ...]]:
    """Shrink the window `values` around the likeliest transition sub-segment,
    then pin the transition frame with a k=2 clustering of what is left.

    The window is a whole number of b_seg wide, and it stays so: every step
    moves its ends by whole sub-segments. Stops when the window cannot be
    narrowed further (width <= 2 * b_seg with no progress) or after
    _MAX_ITERATIONS. Nominations index the first sub-segment of the new
    action, matching transition_index. Returns the frame's offset in
    `values` (None without a 0 -> 1 step) and the per-step proposals.

    Every step's window lies on the first window's sub-segment grid, and
    block_similarity scores each consecutive pair on its own, bit for bit,
    so the pairs are scored once here and each step reads a slice.
    """
    grid = values.reshape(-1, b_seg, values.shape[1])
    cosine = block_similarity(grid, Metric.COSINE)
    dtw = block_similarity(grid, Metric.DTW)
    start, end = 0, values.shape[0]
    history: list[IterationProposals] = []
    while end - start > b_seg and len(history) < _MAX_ITERATIONS:
        m = (end - start) // b_seg
        first = start // b_seg
        p_cos = int(np.argmin(cosine[first:first + m - 1])) + 1
        p_dtw = int(np.argmax(dtw[first:first + m - 1])) + 1
        # Each sub-segment's majority cluster; the k=2 ids are 0/1 and a tie goes to 0.
        clusters = kmeans(values[start:end], 2, seed)
        ones = clusters.reshape(m, b_seg).sum(axis=1)
        p_clu = transition_index(2 * ones > b_seg)
        history.append(IterationProposals(p_cos, p_dtw, p_clu))

        proposals = [p_cos, p_dtw] + ([p_clu] if p_clu is not None else [])
        lo, hi = min(proposals), max(proposals)
        new_start = start + max(lo - 1, 0) * b_seg
        new_end = start + (hi + 1) * b_seg
        if new_end - new_start < end - start:
            start, end = new_start, new_end
        elif end - start > 2 * b_seg:
            start, end = start + b_seg, end - b_seg
        else:  # the window stays: this step's labels are the final clustering
            break
    else:  # the window moved after its last clustering
        if end - start < 2:
            return None, tuple(history)
        clusters = kmeans(values[start:end], 2, seed)
    idx = transition_index(clusters)
    return (None if idx is None else start + idx), tuple(history)


def correct_all(feat: FeatureSequence, labels: LabelSequence,
                cfg: CorrectionConfig | None = None,
                seed: int = 0) -> tuple[LabelSequence, CorrectionReport]:
    """Correct every boundary of a prediction, left to right.

    Each boundary's rewrite is confined to its midpoint-clamped window, so
    segment count, order and classes are preserved and frames outside the
    windows are untouched.
    """
    cfg = cfg or CorrectionConfig()
    if len(labels) != feat.frames:
        raise ValueError(f"labels length {len(labels)} != feature frames {feat.frames}")
    bounds = boundaries_of(labels)
    b_win, b_seg = resolve_window_params(cfg, bounds)
    original = labels.labels
    out = original.copy()
    records: list[BoundaryRecord] = []
    for pos, boundary in enumerate(bounds.indices):
        window = _clamped_window(bounds.indices, pos, feat.frames, b_win, b_seg)
        if window is None:
            records.append(BoundaryRecord(boundary, boundary, ()))
            continue
        ws, we = window.start, window.end
        values = np.ascontiguousarray(feat.values[ws:we], dtype=np.float64)
        offset, history = _refine_window(values, b_seg, seed)
        corrected = boundary if offset is None else ws + offset
        records.append(BoundaryRecord(boundary, corrected, history, window))
        out[ws:corrected] = original[boundary - 1]
        out[corrected:we] = original[boundary]
    return (LabelSequence(out, labels.class_count),
            CorrectionReport(tuple(records), b_win, b_seg))
