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

Cosine, DTW and k-means read only inner products of a window's frames, so
a window's one D-wide step is its Gram matrix G = W Wᵀ, and the rest runs
on the Grams of all of a video's windows at once, one refinement step at a
time. G rounds differently from sums over the frames themselves, so scores
that tie in exact arithmetic may break differently from `block_similarity`
and `kmeans`; the votes, stopping rule and tie rules are theirs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AUTO, BoundarySet, CorrectionConfig, FeatureSequence,
                   LabelSequence, boundaries_of)
from .similarity import _KMEANS_MAX_ITER
# kmeans and block_similarity are unused here but stay bound: bench/spans.py
# wraps actseg.correction.kmeans and .block_similarity by name.
from .similarity import block_similarity, kmeans  # noqa: F401

# Refinement steps per boundary; each step narrows the window or stops.
_MAX_ITERATIONS = 16

# Budget of one lockstep batch of windows, in bytes of their float64 Grams
# at the batch's widest; k-means holds a few temporaries twice that size. A
# video's 16-frame windows (2 KiB each) share one batch. Windows hundreds
# of frames wide, which only an explicit --b-win makes, go a few at a time:
# `correct --b-win 2000 --b-seg 1` on two 5.9k-frame 2048-D videos peaked
# at 524 MiB with all of a video's windows in one batch, 145 MiB batched.
_BATCH_BYTES = 1 << 20


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


def _window_grams(values: np.ndarray, windows: list[WindowState]) -> list[np.ndarray]:
    """Float64 Gram matrix W Wᵀ of each window's frames W: all the D-wide
    work of a correction.

    Each window is widened once, as a D x width array. The frames of a
    D x T load are a transposed view, so that reads D runs of contiguous
    frames, not frames strided across the whole file.

    G is `cols.T @ cols.copy()`, a general matrix product. For
    `cols.T @ cols` NumPy runs the symmetric product (OpenBLAS syrk), which
    rounds an entry by where it falls in the output: equal frames got
    unequal rows of G in 239 of 3000 random windows, and k-means split
    windows of one repeated frame. The general product gave equal frames
    equal rows in all 3000, so they score and cluster as one frame.
    """
    grams = []
    for w in windows:
        cols = np.ascontiguousarray(values[w.start:w.end].T, dtype=np.float64)
        grams.append(cols.T @ cols.copy())
    return grams


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added one term at a time in index order, so
    neither trailing zero padding nor the batch a row is in changes a bit."""
    return np.add.accumulate(values, axis=-1)[..., -1]


def _pair_scores(gram: np.ndarray, widths: np.ndarray,
                 b_seg: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and DTW scores of every consecutive sub-segment pair of every
    window, from a zero-padded (N, n, n) stack of window Grams G.

    Column a of each (N, n // b_seg - 1) result compares sub-segments a and
    a + 1. Cosine is the sum of G over matching frame pairs over the block
    norms from diag(G); a zero-norm block scores 0.0, with one RuntimeWarning
    per window that has one. DTW aligns the blocks' frames at the cost
    sqrt(max(G_ii + G_jj - 2 G_ij, 0)). Pairs past a window's width score
    +inf on cosine and -inf on DTW, so no argmin or argmax picks them.
    """
    count, n, _ = gram.shape
    m = n // b_seg
    diag = np.diagonal(gram, axis1=1, axis2=2)
    left = np.arange(m - 1)[:, None] * b_seg + np.arange(b_seg)  # frame i of pair a's first block
    right = left + b_seg
    norms = np.sqrt(_ordered_sum(diag.reshape(count, m, b_seg)))
    denom = norms[:, :-1] * norms[:, 1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        cosine = _ordered_sum(gram[:, left, right]) / denom
    inside = np.arange(m - 1) < widths[:, None] // b_seg - 1
    zero = (denom == 0.0) & inside
    for _ in range(np.count_nonzero(zero.any(axis=1))):
        warnings.warn("zero-norm block in cosine similarity, scored 0.0",
                      RuntimeWarning, stacklevel=4)
    cosine[zero] = 0.0
    cosine[~inside] = np.inf

    cost = np.sqrt(np.maximum(diag[:, left][..., None] + diag[:, right][..., None, :]
                              - 2.0 * gram[:, left[:, :, None], right[:, None, :]], 0.0))
    # acc[..., i + 1, j + 1] is the accumulated cost of cell (i, j); +inf off the grid.
    acc = np.full((count, m - 1, b_seg + 1, b_seg + 1), np.inf)
    acc[..., 0, 0] = 0.0
    for k in range(2 * b_seg - 1):  # the anti-diagonal i + j = k
        i = np.arange(max(0, k - b_seg + 1), min(k, b_seg - 1) + 1)
        j = k - i
        acc[..., i + 1, j + 1] = cost[..., i, j] + np.minimum(
            np.minimum(acc[..., i, j], acc[..., i, j + 1]), acc[..., i + 1, j])
    dtw = acc[..., b_seg, b_seg]
    dtw[~inside] = -np.inf
    return cosine, dtw


def _sq_dists(diag: np.ndarray, dot: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """‖x_i - c‖² = G_ii + ‖c‖² - 2 x_i · c, clamped at 0."""
    return np.maximum(diag + sq - 2.0 * dot, 0.0)


def _kmeans2(gram: np.ndarray, widths: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """`kmeans(frames, 2, seed)` of every window at once, from its Gram.

    Window w holds the first widths[w] frames of its (n, n) Gram in the
    stack, and firsts[w] is its first farthest-point seed. The seeding,
    the Lloyd updates, the stopping rule and the tie rules are kmeans':
    ties go to cluster 0, an empty cluster keeps its centroid, and frame 0
    is cluster 0. A centroid c with weights v over the frames is held as
    x_i · c = (G v)_i and ‖c‖² = vᵀ G v. All windows take every update: a
    window whose labels repeat is a fixed point, so further updates leave
    it as it is. Returns (N, n) bools, True for cluster 1 and False past
    a window's width.
    """
    count, n, _ = gram.shape
    inside = np.arange(n) < widths[:, None]
    diag = np.diagonal(gram, axis1=1, axis2=2)
    rows = np.arange(count)
    to_first = _sq_dists(diag, gram[rows, :, firsts], gram[rows, firsts, firsts][:, None])
    seeds = np.stack([firsts, np.argmax(np.where(inside, to_first, -np.inf), axis=1)], axis=1)
    dot = gram[rows[:, None], :, seeds]  # (N, 2, n)
    sq = gram[rows[:, None], seeds, seeds]  # (N, 2)
    diag = diag[:, None]

    def nearest(dot, sq):
        return (np.argmin(_sq_dists(diag, dot, sq[..., None]), axis=1) == 1) & inside

    labels = nearest(dot, sq)
    for _ in range(_KMEANS_MAX_ITER):
        members = np.stack([inside & ~labels, labels], axis=1)
        size = members.sum(axis=2)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_dot = _ordered_sum(np.where(members[:, :, None], gram[:, None], 0.0)) / size[..., None]
            mean_sq = _ordered_sum(np.where(members, mean_dot, 0.0)) / size
        empty = size == 0
        dot = np.where(empty[..., None], dot, mean_dot)
        sq = np.where(empty, sq, mean_sq)
        new_labels = nearest(dot, sq)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return (labels ^ labels[:, :1]) & inside


def _transitions(seq: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`transition_index` of the first lengths[r] entries of each binary
    row, with -1 for None: where the ones start in the longest
    zeros-then-ones run (ties: earliest)."""
    count, n = seq.shape
    pos = np.arange(n + 1)
    x = np.full((count, n + 1), 2, dtype=np.int8)  # past the end: a run of its own
    x[:, :n] = np.where(pos[:n] < lengths[:, None], seq, 2)
    change = np.ones((count, n + 1), dtype=bool)
    change[:, 1:] = x[:, 1:] != x[:, :-1]
    run_start = np.maximum.accumulate(np.where(change, pos, 0), axis=1)
    next_start = np.minimum.accumulate(np.where(change, pos, n)[:, ::-1], axis=1)[:, ::-1]
    # A 0 -> 1 step at t spans the zeros run ending at t - 1 and the ones run from t.
    steps = (x[:, :n - 1] == 0) & (x[:, 1:n] == 1)
    span = np.where(steps, next_start[:, 2:] - run_start[:, :n - 1], 0)
    best = np.argmax(span, axis=1)
    return np.where(span[np.arange(count), best] > 0, best + 1, -1)


def _refine_all(grams: list[np.ndarray], b_seg: int,
                seed: int) -> list[tuple[int | None, list[IterationProposals]]]:
    """Shrink every window of a video around its likeliest transition
    sub-segment, all windows one step at a time, then pin each transition
    frame with a k=2 clustering of what is left.

    Each window is a whole number of b_seg wide, and it stays so: every
    step moves its ends by whole sub-segments, so every step's pairs are
    pairs of the first window's grid, scored once. A window stops when it
    cannot be narrowed further (width <= 2 * b_seg with no progress) or
    after _MAX_ITERATIONS steps. Nominations index the first sub-segment of
    the new action, as transition_index does. Returns, per window, the
    frame's offset in it (None without a 0 -> 1 step) and its proposals.

    Every step computes every window of the batch, each zero-padded to the
    batch's widest, and masks out the windows that have stopped.
    """
    count = len(grams)
    widths = np.array([len(g) for g in grams], dtype=np.int64)
    size = int(widths.max())
    gram = np.zeros((count, size, size))
    for padded, g in zip(gram, grams):
        padded[:len(g), :len(g)] = g
    cosine, dtw = _pair_scores(gram, widths, b_seg)
    rows = np.arange(count)[:, None, None]
    firsts = {0: 0}  # kmeans' first seed depends on the width alone

    def cluster(start, width):
        """k-means of frames [start, start + width) of each window; 0 wide for none."""
        for w in set(width.tolist()) - firsts.keys():
            firsts[w] = int(np.random.default_rng(seed).integers(w))
        frames = np.minimum(start[:, None] + np.arange(width.max()), size - 1)
        sub = gram[rows, frames[:, :, None], frames[:, None, :]]
        return _kmeans2(sub, width, np.array([firsts[w] for w in width.tolist()]))

    start = np.zeros_like(widths)
    end = widths.copy()
    offsets: list[int | None] = [None] * count
    history: list[list[IterationProposals]] = [[] for _ in grams]
    pairs = np.arange(cosine.shape[1])
    active = widths > 0  # windows still being narrowed
    reclustered = np.zeros_like(active)  # windows that moved after their last clustering
    for _ in range(_MAX_ITERATIONS):
        width = end - start
        first, m = start // b_seg, width // b_seg
        own = (pairs >= first[:, None]) & (pairs < (first + m - 1)[:, None])
        p_cos = np.argmin(np.where(own, cosine, np.inf), axis=1) - first + 1
        p_dtw = np.argmax(np.where(own, dtw, -np.inf), axis=1) - first + 1
        clusters = cluster(start, np.where(active, width, 0))
        # Each sub-segment's majority cluster; a tie goes to 0.
        ones = clusters.reshape(count, -1, b_seg).sum(axis=2)
        p_clu = _transitions(2 * ones > b_seg, m)
        votes = list(zip(p_cos.tolist(), p_dtw.tolist(), p_clu.tolist()))
        for w in np.flatnonzero(active).tolist():
            c, d, p = votes[w]
            history[w].append(IterationProposals(c, d, None if p < 0 else p))

        voted = p_clu >= 0
        low = np.minimum(np.minimum(p_cos, p_dtw), np.where(voted, p_clu, p_cos))
        high = np.maximum(np.maximum(p_cos, p_dtw), np.where(voted, p_clu, p_cos))
        new_start = start + np.maximum(low - 1, 0) * b_seg
        new_end = start + (high + 1) * b_seg
        narrowed = new_end - new_start < width
        shrunk = ~narrowed & (width > 2 * b_seg)
        moves = active & (narrowed | shrunk)
        # A window that stays keeps this step's labels as its final clustering.
        pins = _transitions(clusters, width).tolist()
        for w in np.flatnonzero(active & ~moves).tolist():
            offsets[w] = None if pins[w] < 0 else int(start[w]) + pins[w]
        start = np.where(moves, np.where(narrowed, new_start, start + b_seg), start)
        end = np.where(moves, np.where(narrowed, new_end, end - b_seg), end)
        active = moves & (end - start > b_seg)
        reclustered |= moves & ~active
        if not active.any():
            break
    width = np.where(reclustered | active, end - start, 0)
    last = width >= 2
    if last.any():
        pins = _transitions(cluster(start, np.where(last, width, 0)), width).tolist()
        for w in np.flatnonzero(last).tolist():
            offsets[w] = None if pins[w] < 0 else int(start[w]) + pins[w]
    return list(zip(offsets, history))


def _batches(windows: list[WindowState]) -> list[list[WindowState]]:
    """Consecutive runs of windows whose padded Gram stack fits _BATCH_BYTES
    (at least one window each)."""
    batches: list[list[WindowState]] = []
    widest = 0
    for w in windows:
        widest = max(widest, w.end - w.start)
        if batches and (len(batches[-1]) + 1) * widest ** 2 * 8 <= _BATCH_BYTES:
            batches[-1].append(w)
        else:
            batches.append([w])
            widest = w.end - w.start
    return batches


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
    idx = bounds.indices
    windows = [_clamped_window(idx, pos, feat.frames, b_win, b_seg) for pos in range(len(idx))]
    results = iter([result for batch in _batches([w for w in windows if w is not None])
                    for result in _refine_all(_window_grams(feat.values, batch), b_seg, seed)])
    original = labels.labels
    out = original.copy()
    records: list[BoundaryRecord] = []
    for boundary, window in zip(idx, windows):
        if window is None:
            records.append(BoundaryRecord(boundary, boundary, ()))
            continue
        offset, steps = next(results)
        corrected = boundary if offset is None else window.start + offset
        records.append(BoundaryRecord(boundary, corrected, tuple(steps), window))
        out[window.start:corrected] = original[boundary - 1]
        out[corrected:window.end] = original[boundary]
    return (LabelSequence(out, labels.class_count),
            CorrectionReport(tuple(records), b_win, b_seg))
