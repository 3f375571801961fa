"""Similarity and grouping kernels shared by the correction and detection passes.

Four primitives: the consecutive-block similarity kernel (cosine or
dynamic time warping between each block and the next, which detection runs
over frames and correction over sub-segments of a window), seeded k-means,
the transition detector that locates the action change inside a binary
cluster labelling, and `dtw` on one pair of sequences, the reference the
batched kernel is tested against. All functions are pure and deterministic.
"""

from __future__ import annotations

import warnings
from enum import Enum

import numpy as np

# Working-set budget of block DTW: float64 difference cells per chunk of
# frame pairs. About 256 pairs per chunk at D=64 and one at D=2048.
_BATCH_BYTES = 8 << 20

# Lloyd iterations of k-means stop after _KMEANS_MAX_ITER steps, when the
# labels repeat, or when the inertia changes by less than _KMEANS_TOL.
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-4


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
    cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(_dtw_recurrence(cost[None])[0])


def _batch_rows(cells_per_row: int) -> int:
    """Rows of `cells_per_row` float64 cells that fit in _BATCH_BYTES (at least 1)."""
    return max(1, _BATCH_BYTES // (8 * cells_per_row))


def _dtw_recurrence(cost: np.ndarray) -> np.ndarray:
    """Accumulated cost at the far corner of each (n, m) grid of a
    (batch, n, m) step-cost array. Overwrites `cost` with row cumsums.

    Row-wise DP. Within a row the recurrence unrolls to a running minimum
    over "enter column k from above, then move right", which vectorises:
    D[i,j] = S[j] + cummin_k(min(prev[k], prev[k-1]) - S[k-1]), where S is
    the row's cumulative step cost. Column 0 reduces to prev[0].
    """
    sums = np.cumsum(cost, axis=2, out=cost)
    prev = sums[:, 0].copy()
    entry = np.empty_like(prev)
    for i in range(1, sums.shape[1]):
        s = sums[:, i]
        entry[:, 0] = prev[:, 0]
        np.minimum(prev[:, 1:], prev[:, :-1], out=entry[:, 1:])
        np.subtract(entry[:, 1:], s[:, :-1], out=entry[:, 1:])
        np.minimum.accumulate(entry, axis=1, out=entry)
        np.add(s, entry, out=prev)
    return prev[:, -1]


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
    """Nearest-centroid labels once they repeat, once the step before moved
    the inertia by less than _KMEANS_TOL, or after _KMEANS_MAX_ITER updates."""
    n = pts.shape[0]
    pt_sq = (pts ** 2).sum(axis=1)  # squared norms, fixed for every step
    centroids = pts[_farthest_points(pts, pt_sq, int(rng.integers(n)), k)]

    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    converged = False
    for updates in range(_KMEANS_MAX_ITER + 1):
        dists = _sq_dists(pts, pt_sq, centroids)
        new_labels = np.argmin(dists, axis=1)
        if converged or updates == _KMEANS_MAX_ITER or np.array_equal(new_labels, labels):
            break
        new_inertia = float(np.take_along_axis(dists, new_labels[:, None], axis=1).sum())
        converged = abs(inertia - new_inertia) < _KMEANS_TOL
        labels, inertia = new_labels, new_inertia
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0]:  # empty clusters keep their previous centroid
                centroids[j] = members.mean(axis=0)
    return new_labels


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
    if seq.size == 0:
        return None
    change = np.flatnonzero(seq[1:] != seq[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [seq.size]))
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
    through the same recurrence, a chunk of pairs at a time, each chunk
    holding about _BATCH_BYTES of float64 difference cells.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[0] < 2 or 0 in blocks.shape:
        raise ValueError("block_similarity needs an (m, s, d) stack of equal blocks "
                         f"with m >= 2 and s, d >= 1, got shape {blocks.shape}")
    if metric is Metric.COSINE:
        flat = blocks.reshape(blocks.shape[0], -1)
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
    m, s, d = blocks.shape
    pairs = m - 1
    chunk = _batch_rows(s * s * d)
    out = np.empty(pairs)
    diff = np.empty((min(chunk, pairs), s, s, d))
    for start in range(0, pairs, chunk):
        stop = min(start + chunk, pairs)
        cells = diff[:stop - start]
        np.subtract(blocks[start:stop, :, None], blocks[start + 1:stop + 1, None], out=cells)
        np.square(cells, out=cells)
        # Summing a length-1 axis changes no value but costs ~20% at d == 1.
        cost = cells[..., 0] if d == 1 else cells.sum(axis=3)
        # sqrt of the square, as dtw() computes it, not abs: they differ
        # where the square underflows.
        np.sqrt(cost, out=cost)
        out[start:stop] = _dtw_recurrence(cost)
    return out
