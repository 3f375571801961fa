"""Evaluation suite: frame accuracy, segmental edit score, segmental F1 at
the IoU thresholds in THRESHOLDS, boundary-level F1, and optimal label
matching for unsupervised outputs.

`evaluate_batch` is the one scoring path: `evaluate` scores a single video
as a batch of one, so a video's score and its share of a corpus score are
computed by the same code.

Segmental F1 counts a predicted segment as a true positive when a maximum
one-to-one matching pairs it with a ground-truth segment of the same class
at IoU at or above the threshold; a maximum matching also makes F1
non-increasing in the threshold. With the threshold above 0 every feasible
pair overlaps, and each side's segments (also after `ignore`) are disjoint
and in time order, so feasible pairs never cross. Walking the predictions in
order, each taking the first feasible ground-truth segment after the last
match, therefore gives a maximum matching without an assignment solver.

Hungarian label matching does need one. It uses the rectangular shortest
augmenting path method of Crouse ("On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016), ported to NumPy in SciPy's order
of operations so that it also keeps SciPy's tie rule: at equal path cost
an unassigned column wins. Ties decide which id maps to which class, so
the port returns SciPy's assignment, not just an optimum of equal value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import BoundarySet, LabelSequence, Segment, boundaries_of, to_timeline

# IoU thresholds of the reported segmental F1 scores (F1@{10,25,50}).
THRESHOLDS = (0.10, 0.25, 0.50)

# Largest (pred ids x gt classes) overlap matrix hungarian_label_match builds:
# 80 MB of float64. Bare prediction ids are not compacted, since dropping the
# rows of absent ids would change the solver's choice among equal optima.
_MAX_OVERLAP_CELLS = 10**7


@dataclass(frozen=True)
class EvalOptions:
    """Scoring knobs: the frame tolerance for boundary F1, and class ids
    excluded from accuracy/edit/F1 (for background-style classes)."""

    boundary_tolerance: int = 5
    ignore: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.boundary_tolerance < 0:
            raise ValueError(f"boundary_tolerance must be >= 0, got {self.boundary_tolerance}")


@dataclass(frozen=True)
class EvalResult:
    acc: float
    edit: float
    f1: Mapping[float, float]  # IoU threshold -> percentage
    boundary_f1: float

    def field_values(self) -> dict[str, float]:
        """The six report fields in their canonical order."""
        out = {"acc": float(self.acc), "edit": float(self.edit)}
        for thr, value in self.f1.items():
            out[f"f1_{int(round(thr * 100))}"] = float(value)
        out["boundary_f1"] = float(self.boundary_f1)
        return out


def _check_lengths(pred: LabelSequence, gt: LabelSequence) -> None:
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: pred {len(pred)} vs gt {len(gt)}")


def _levenshtein(a: Sequence[int], b: Sequence[int]) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


def _segments(labels: LabelSequence, ignore: frozenset[int]) -> list[Segment]:
    return [seg for seg in to_timeline(labels) if seg.label not in ignore]


def edit_score(pred: LabelSequence, gt: LabelSequence,
               ignore: frozenset[int] = frozenset()) -> float:
    """Segmental edit score: 100 * (1 - normalised Levenshtein distance
    between the ordered segment-class strings).

    The strings hold the segments F1 matches: segments of an `ignore` class
    are dropped, and the same-class segments on either side of one stay
    apart, as in the MS-TCN evaluation code.
    """
    pred_runs = [seg.label for seg in _segments(pred, ignore)]
    gt_runs = [seg.label for seg in _segments(gt, ignore)]
    if not pred_runs and not gt_runs:
        return 100.0
    longest = max(len(pred_runs), len(gt_runs))
    distance = _levenshtein(pred_runs, gt_runs)
    return 100.0 * max(0.0, 1.0 - distance / longest)


def _iou(a: Segment, b: Segment) -> float:
    inter = max(0, min(a.end, b.end) - max(a.start, b.start))
    union = (a.end - a.start) + (b.end - b.start) - inter
    return inter / union


def segment_match_counts(pred: LabelSequence, gt: LabelSequence, threshold: float,
                         ignore: frozenset[int] = frozenset()) -> tuple[int, int, int]:
    """(TP, FP, FN) under a maximum one-to-one matching of (same class,
    IoU >= threshold) segment pairs, for a threshold in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1), got {threshold}")
    _check_lengths(pred, gt)
    pred_segs = _segments(pred, ignore)
    gt_segs = _segments(gt, ignore)
    # Feasible pairs never cross: for p1 < p2 and g1 < g2, a g1 overlapping p2
    # ends after p1 ends, so g2 cannot overlap p1. The first feasible g wins.
    tp = first = 0
    for ps in pred_segs:
        for j in range(first, len(gt_segs)):
            gs = gt_segs[j]
            if gs.start >= ps.end:
                break
            if gs.label == ps.label and _iou(ps, gs) >= threshold:
                tp, first = tp + 1, j + 1
                break
    return tp, len(pred_segs) - tp, len(gt_segs) - tp


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    if tp == 0 and fp == 0 and fn == 0:
        return 100.0
    return float(100.0 * 2 * tp / (2 * tp + fp + fn))


def f1_at(pred: LabelSequence, gt: LabelSequence, iou_threshold: float,
          ignore: frozenset[int] = frozenset()) -> float:
    """Segmental F1 at one IoU threshold in (0, 1), as a percentage."""
    return _f1_from_counts(*segment_match_counts(pred, gt, iou_threshold, ignore))


def boundary_match_counts(pred_bounds: BoundarySet, gt_bounds: BoundarySet,
                          tolerance: int) -> tuple[int, int, int]:
    """(TP, FP, FN) for one-to-one boundary matching within a frame tolerance.

    Predictions take, in order, the nearest still-unmatched ground-truth
    boundary within +-tolerance (ties go to the earlier one).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    available = list(gt_bounds.indices)
    tp = 0
    for p in pred_bounds:
        best = None
        for g in available:
            if abs(g - p) <= tolerance and (best is None or abs(g - p) < abs(best - p)):
                best = g
        if best is not None:
            available.remove(best)
            tp += 1
    return tp, len(pred_bounds) - tp, len(gt_bounds) - tp


def boundary_f1(pred_bounds: BoundarySet, gt_bounds: BoundarySet, tolerance: int) -> float:
    """Boundary-level F1 at a frame tolerance, as a percentage."""
    return _f1_from_counts(*boundary_match_counts(pred_bounds, gt_bounds, tolerance))


def _max_assignment(score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a maximum-total one-to-one assignment of a 2-D score
    matrix, equal to SciPy's `linear_sum_assignment(score, maximize=True)`.

    Each row adds one shortest augmenting path. As in SciPy, a matrix with
    fewer columns than rows is solved transposed, columns are scanned in
    `remaining` order with swap-remove, the reduced cost is summed in the
    same order, and at equal path cost the last unassigned column scanned
    wins, else the first column scanned.
    """
    cost = -np.asarray(score, dtype=np.float64)
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    u, v = np.zeros(nr), np.zeros(nc)
    col4row = np.full(nr, -1, dtype=np.int64)
    row4col = np.full(nc, -1, dtype=np.int64)
    path = np.full(nc, -1, dtype=np.int64)
    for cur in range(nr):
        dist = np.full(nc, np.inf)
        remaining = np.arange(nc - 1, -1, -1)  # reversed: a constant matrix gives the identity
        seen_rows, seen_cols = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            seen_rows.append(i)
            reduced = ((min_val + cost[i, remaining]) - u[i]) - v[remaining]
            shorter = reduced < dist[remaining]
            path[remaining[shorter]] = i
            dist[remaining[shorter]] = reduced[shorter]
            scan = dist[remaining]
            min_val = scan.min()
            at = np.flatnonzero(scan == min_val)
            free = at[row4col[remaining[at]] < 0]
            k = free[-1] if free.size else at[0]
            j = int(remaining[k])
            if row4col[j] < 0:
                sink = j
            else:
                i = int(row4col[j])
            seen_cols.append(j)
            remaining[k] = remaining[-1]
            remaining = remaining[:-1]
        u[cur] += min_val
        others = np.asarray(seen_rows[1:], dtype=np.int64)
        u[others] += min_val - dist[col4row[others]]
        v[seen_cols] -= min_val - dist[seen_cols]
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


def hungarian_label_match(pred: LabelSequence, gt: LabelSequence) -> LabelSequence:
    """Relabel arbitrary prediction ids by optimal one-to-one assignment to
    ground-truth classes, maximising total frame overlap.

    Prediction ids left without a partner map to a reserved extra class
    (gt.class_count), so the result never collides with a real class.
    Raises ValueError when the overlap matrix would exceed _MAX_OVERLAP_CELLS.
    """
    _check_lengths(pred, gt)
    if pred.class_count * gt.class_count > _MAX_OVERLAP_CELLS:
        raise ValueError(f"label matching needs a {pred.class_count} x {gt.class_count} "
                         f"overlap matrix, more than {_MAX_OVERLAP_CELLS} cells; "
                         f"prediction ids must be dense")
    overlap = np.zeros((pred.class_count, gt.class_count))  # frames per (pred id, gt class)
    np.add.at(overlap, (pred.labels, gt.labels), 1.0)
    rows, cols = _max_assignment(overlap)
    mapping = np.full(pred.class_count, gt.class_count, dtype=np.int64)
    mapping[rows] = cols
    return LabelSequence(mapping[pred.labels], gt.class_count + 1)


def evaluate(pred: LabelSequence, gt: LabelSequence,
             opts: EvalOptions | None = None) -> EvalResult:
    """Score one prediction against its ground truth (a batch of one)."""
    return evaluate_batch([(pred, gt)], opts)


def evaluate_batch(pairs: Sequence[tuple[LabelSequence, LabelSequence]],
                   opts: EvalOptions | None = None) -> EvalResult:
    """Aggregate scores over a list of (pred, gt) videos.

    Accuracy is frame-weighted over the corpus; edit is the mean of the
    per-video scores; segmental and boundary F1 pool their TP/FP/FN
    tallies before the final ratio. Raises ValueError when `opts.ignore`
    leaves no ground-truth frame of the batch to score.
    """
    opts = opts or EvalOptions()
    if not pairs:
        raise ValueError("nothing to evaluate")
    correct = 0
    frames = 0
    edits = []
    seg_counts = {thr: np.zeros(3, dtype=np.int64) for thr in THRESHOLDS}
    bound_counts = np.zeros(3, dtype=np.int64)
    for pred, gt in pairs:
        _check_lengths(pred, gt)
        keep = ~np.isin(gt.labels, list(opts.ignore))
        correct += int(np.count_nonzero((pred.labels == gt.labels) & keep))
        frames += int(keep.sum())
        edits.append(edit_score(pred, gt, opts.ignore))
        for thr in THRESHOLDS:
            seg_counts[thr] += segment_match_counts(pred, gt, thr, opts.ignore)
        bound_counts += boundary_match_counts(boundaries_of(pred), boundaries_of(gt),
                                              opts.boundary_tolerance)
    if not frames:
        raise ValueError("no ground-truth frame is left to score")
    acc = 100.0 * correct / frames
    f1 = {thr: _f1_from_counts(*seg_counts[thr]) for thr in THRESHOLDS}
    return EvalResult(acc=acc, edit=float(np.mean(edits)), f1=f1,
                      boundary_f1=_f1_from_counts(*bound_counts))


def mean_result(results: Sequence[EvalResult]) -> EvalResult:
    """Plain mean of already-aggregated results (e.g. across splits)."""
    if not results:
        raise ValueError("nothing to evaluate")
    return EvalResult(
        acc=float(np.mean([r.acc for r in results])),
        edit=float(np.mean([r.edit for r in results])),
        f1={t: float(np.mean([r.f1[t] for r in results])) for t in THRESHOLDS},
        boundary_f1=float(np.mean([r.boundary_f1 for r in results])),
    )
