"""Similarity and grouping kernels shared by the correction and detection passes.

Four primitives: the consecutive-block similarity kernel (cosine or
dynamic time warping between each block and the next, which detection runs
over frames and correction over sub-segments of a window), seeded k-means,
the transition detector that locates the action change inside a binary
cluster labelling, and `dtw` on one pair of sequences, which runs the same
batched kernel. The kernel's independent references are `brute_force_dtw`
in tests/test_similarity.py and criterion 1's oracle in
tests/test_acceptance.py. All functions are pure and deterministic.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

from .core import runs

# Budget of the blocked kernels, in bytes of float64 cells: one step of
# block DTW (the differences of one anti-diagonal of the grid, at most one
# grid row long, across a chunk of pairs) and one block of k-means' squared
# norms. A DTW chunk holds 1024 frame pairs at D=64 and 32 at D=2048. On
# detect's dimension-major series, chunks of 256, 512 and 1024 pairs timed
# within a few percent of each other.
_BATCH_BYTES = 512 << 10

# k-means stops at the first centroid update that leaves its labels
# unchanged, or after _KMEANS_MAX_ITER updates.
_KMEANS_MAX_ITER = 100


class Metric(Enum):
    COSINE = "cosine"
    DTW = "dtw"


def _as_sequence(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"expected a sequence of vectors, got ndim={arr.ndim}")
    return arr


def dtw(a, b) -> float:
    """Accumulated dynamic time warping cost between two vector sequences.

    Per-step cost is the Euclidean distance between elements, with the
    classic recurrence D(i,j) = cost(i,j) + min(D(i-1,j), D(i,j-1),
    D(i-1,j-1)). Unnormalised; 0 for identical sequences; symmetric.
    """
    a = _as_sequence(a)
    b = _as_sequence(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("dtw: empty sequence")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dtw: element dims differ ({a.shape[1]} vs {b.shape[1]})")
    return float(_dtw_pairs(a[:, None], b[:, None])[0])


def _batch_rows(cells_per_row: int) -> int:
    """Rows of `cells_per_row` float64 cells that fit in _BATCH_BYTES (at
    least 1; a zero-width row counts as one cell)."""
    return max(1, _BATCH_BYTES // (8 * max(1, cells_per_row)))


def _dtw_pairs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Accumulated DTW cost of each pair p, aligning the sequence
    rows[:, p] (n, d) with cols[:, p] (m, d).

    The recurrence as written, one anti-diagonal i + j = k per step, over
    a chunk of pairs at a time, pairs on the last axis. Diagonal k holds
    the cells lo <= i < hi, which pair rows[i] with cols[k - i]: the rows
    in order and the columns through a reversed view. The buffers of the
    last two diagonals are indexed by i + 1 and hold +inf off the grid.
    """
    n, pairs, d = rows.shape
    m = cols.shape[0]
    chunk = min(pairs, _batch_rows(m * d))
    out = np.empty(pairs)
    cells = np.empty((min(n, m), chunk, d))
    back = cols[::-1]  # back[m - 1 - j] is cols[j]
    for start in range(0, pairs, chunk):
        stop = min(start + chunk, pairs)
        two, one, cur = np.full((3, n + 1, stop - start), np.inf)
        for k in range(n + m - 1):
            lo, hi = max(0, k - m + 1), min(k, n - 1) + 1
            diff = cells[:hi - lo, :stop - start]
            col, row = back[m - 1 - k + lo:m - 1 - k + hi, start:stop], rows[lo:hi, start:stop]
            if d == 1:  # |c - r|, as the root of the square over- or underflows
                cost = np.subtract(col[..., 0], row[..., 0], out=diff[..., 0])
                np.absolute(cost, out=cost)
            else:
                # A copy and an in-place subtract measured about 20% faster than
                # one out-of-place subtract on correction blocks at d = 2048.
                np.copyto(diff, col)
                np.subtract(diff, row, out=diff)
                np.square(diff, out=diff)
                cost = np.add.reduce(diff, axis=2)
                np.sqrt(cost, out=cost)
            acc = cur[lo + 1:hi + 1]
            if k == 0:
                acc[...] = cost  # every path starts at (0, 0)
            else:
                np.minimum(one[lo:hi], one[lo + 1:hi + 1], out=acc)
                np.minimum(acc, two[lo:hi], out=acc)
                np.add(acc, cost, out=acc)
            two, one, cur = one, cur, two
        out[start:stop] = one[n]
    return out


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Cluster ids of seeded Lloyd k-means with farthest-point initialisation.

    Returns an (n,) int64 array. Deterministic for a given (points, k,
    seed). Cluster ids are renumbered by order of first appearance, so
    labels[0] is always 0. Points are read in C order, so the result does
    not depend on how the caller's array is laid out in memory.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"too few points: n={n} < k={k}")
    return _relabel_first_occurrence(_lloyd(pts, k, np.random.default_rng(seed)))


def _lloyd(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm: each point takes its nearest farthest-point seed,
    then, up to _KMEANS_MAX_ITER times, the centroids move to their members'
    means and every point takes its nearest centroid. It stops at the first
    update that leaves the labels unchanged."""
    n = pts.shape[0]
    # Squared norms, fixed for every step, in row blocks: no n x D temporary.
    rows = _batch_rows(pts.shape[1])
    pt_sq = np.concatenate([np.square(pts[i:i + rows]).sum(axis=1)
                            for i in range(0, n, rows)])
    centroids = pts[_farthest_points(pts, pt_sq, int(rng.integers(n)), k)]
    labels = np.argmin(_sq_dists(pts, pt_sq, centroids), axis=1)
    for _ in range(_KMEANS_MAX_ITER):
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0]:  # empty clusters keep their previous centroid
                centroids[j] = members.mean(axis=0)
        new_labels = np.argmin(_sq_dists(pts, pt_sq, centroids), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def _farthest_points(pts: np.ndarray, pt_sq: np.ndarray, first: int, k: int) -> list[int]:
    """Row indices of k farthest-point seeds, starting from row `first`.

    Each further seed is the row whose squared distance to its nearest
    seed so far is largest (ties: lowest row).
    """
    nearest = np.full(pts.shape[0], np.inf)
    seeds = [first]
    for _ in range(1, k):
        np.minimum(nearest, _sq_dists(pts, pt_sq, pts[seeds[-1:]])[:, 0], out=nearest)
        seeds.append(int(np.argmax(nearest)))
    return seeds


def _sq_dists(pts: np.ndarray, pt_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (pt_sq[:, None] + (centroids ** 2).sum(axis=1)[None, :]
          - 2.0 * (pts @ centroids.T))
    np.maximum(d2, 0.0, out=d2)
    return d2


def _relabel_first_occurrence(labels: np.ndarray) -> np.ndarray:
    first_seen = dict.fromkeys(labels.tolist())  # ids in order of first appearance
    lookup = np.zeros(int(labels.max()) + 1, dtype=np.int64)
    lookup[list(first_seen)] = np.arange(len(first_seen))
    return lookup[labels]


def transition_index(binary_labels) -> int | None:
    """Index of the first 1 in the longest zeros-then-ones run.

    Scans maximal runs matching the pattern 0+1+ and returns the position
    where the ones start in the longest such run (ties: earliest run).
    None when the sequence contains no 0 -> 1 step.
    """
    seq = np.asarray(binary_labels).ravel()
    starts, ends = runs(seq)
    best_len = 0
    best_idx = None
    for i in range(len(starts) - 1):
        if seq[starts[i]] == 0 and seq[starts[i + 1]] == 1:
            run_len = int(ends[i + 1] - starts[i])
            if run_len > best_len:
                best_len = run_len
                best_idx = int(starts[i + 1])
    return best_idx


def block_similarity(blocks, metric: Metric) -> np.ndarray:
    """Scores of the m-1 consecutive pairs in an (m, s, d) stack of blocks.

    out[j] compares blocks[j] with blocks[j+1]. COSINE compares the two
    blocks flattened row-major; a zero-norm block scores 0.0 with one
    RuntimeWarning per call instead of aborting, so padded or silent
    frames do not kill a whole video. DTW aligns the blocks' s d-vectors
    and equals dtw(blocks[j], blocks[j+1]) bit for bit: the pairs run
    through the same recurrence, a chunk of pairs at a time, one
    anti-diagonal per step, each step holding at most _BATCH_BYTES of
    float64 difference cells unless one pair's grid row needs more.

    The stack may be in any memory layout; the scores do not depend on it.
    DTW reads each chunk of pairs in place, so a stack whose pair axis is
    contiguous (detect's dimension-major frames) is read contiguously.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[0] < 2 or 0 in blocks.shape:
        raise ValueError("block_similarity needs an (m, s, d) stack of equal blocks "
                         f"with m >= 2 and s, d >= 1, got shape {blocks.shape}")
    if metric is Metric.COSINE:
        flat = np.ascontiguousarray(blocks).reshape(blocks.shape[0], -1)
        norms = np.linalg.norm(flat, axis=1)
        denom = norms[:-1] * norms[1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            scores = np.einsum("ij,ij->i", flat[:-1], flat[1:]) / denom
        degenerate = denom == 0.0
        if degenerate.any():
            warnings.warn("zero-norm block in cosine similarity, scored 0.0",
                          RuntimeWarning, stacklevel=2)
            scores[degenerate] = 0.0
        return scores
    # t[i, j] is frame i of block j, so pair j is (t[:, j], t[:, j + 1]).
    t = blocks.transpose(1, 0, 2)
    return _dtw_pairs(t[:, :-1], t[:, 1:])
