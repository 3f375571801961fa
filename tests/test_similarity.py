import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from actseg.similarity import (Metric, _batch_rows, _farthest_points,
                               _row_sq_dists, block_similarity, cosine, dtw, kmeans,
                               scalar_series_dtw, transition_index)


# ------------------------------------------------------------------ cosine

def test_cosine_identity():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1, 0], [0, 1]) == 0.0


def test_cosine_45_degrees():
    # closed form 1/sqrt(2), cross-checked against the raw dot/norm route
    a, b = np.array([1.0, 1.0]), np.array([1.0, 0.0])
    direct = float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
    assert cosine(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert cosine(a, b) == pytest.approx(direct, abs=1e-15)


def test_cosine_zero_vector_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning):
        assert cosine([0, 0], [1, 2]) == 0.0


def test_cosine_bounds_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = rng.normal(size=5)
        b = rng.normal(size=5)
        assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9


def test_cosine_rejects_mismatch():
    with pytest.raises(ValueError):
        cosine([1, 2], [1, 2, 3])


# ------------------------------------------------------------------ dtw

def brute_force_dtw(a, b):
    """Minimum cost over explicitly enumerated monotone alignment paths."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    n, m = len(a), len(b)
    best = [math.inf]

    def cost(i, j):
        return float(np.linalg.norm(a[i] - b[j]))

    def walk(i, j, acc):
        acc += cost(i, j)
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def test_dtw_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    assert dtw(x, x) == 0.0


def test_dtw_single_pair():
    assert dtw([0], [5]) == 5.0


def test_dtw_zero_cost_warp():
    assert dtw([1, 2, 3], [1, 2, 2, 3]) == 0.0
    assert brute_force_dtw([1, 2, 3], [1, 2, 2, 3]) == 0.0


def test_dtw_against_brute_force_small():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.integers(0, 4, size=rng.integers(1, 6))
        b = rng.integers(0, 4, size=rng.integers(1, 6))
        assert dtw(a, b) == brute_force_dtw(a, b)


def test_dtw_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.integers(0, 4, size=rng.integers(1, 7))
        b = rng.integers(0, 4, size=rng.integers(1, 7))
        assert dtw(a, b) == dtw(b, a)
    for _ in range(50):
        a = rng.normal(size=(rng.integers(1, 6), 3))
        b = rng.normal(size=(rng.integers(1, 6), 3))
        assert dtw(a, b) == pytest.approx(dtw(b, a), rel=1e-12)


def test_dtw_errors():
    with pytest.raises(ValueError, match="empty"):
        dtw([], [1])
    with pytest.raises(ValueError, match="dims"):
        dtw([[1, 2]], [[1, 2, 3]])


# ------------------------------------------------- batched scalar-series dtw

def test_dtw_chunk_sizes():
    assert _batch_rows(64 * 64) == 256
    assert _batch_rows(2048 * 2048) == 1


@st.composite
def row_pairs(draw):
    """(2, n, D) pairs; at D=256 and 362 (chunks of 16 and 8 pairs) n sits
    on either side of a chunk edge."""
    dim = draw(st.sampled_from([1, 3, 256, 362]))
    chunk = _batch_rows(dim * dim)
    sizes = [1, chunk - 1, chunk, chunk + 1] if chunk <= 16 else [1, 2, 5]
    n = draw(st.sampled_from(sizes))
    return draw(arrays(np.float64, (2, n, dim),
                       elements=st.floats(-1e3, 1e3, allow_nan=False)))


@settings(max_examples=40, deadline=None)
@given(row_pairs())
def test_scalar_series_dtw_equals_per_pair_dtw(pair):
    left, right = pair
    want = np.array([dtw(l[:, None], r[:, None]) for l, r in zip(left, right)])
    assert np.array_equal(scalar_series_dtw(left, right), want)


def test_scalar_series_dtw_rejects_mismatch():
    with pytest.raises(ValueError, match="equal"):
        scalar_series_dtw(np.zeros((3, 4)), np.zeros((3, 5)))


# ------------------------------------------------------------------ kmeans

def test_kmeans_separable():
    assignment = kmeans(np.array([[0], [0], [0], [5], [5]]), k=2, seed=4)
    assert assignment.labels.tolist() == [0, 0, 0, 1, 1]
    assert assignment.inertia == pytest.approx(0.0)


def test_kmeans_k1():
    assignment = kmeans(np.random.default_rng(0).normal(size=(7, 3)), k=1, seed=0)
    assert assignment.labels.tolist() == [0] * 7


def test_kmeans_alternating_optimal():
    # exhaustive check over 2-partitions: grouping by value minimises inertia
    pts = np.array([[0.0], [10.0], [0.0], [10.0]])
    best = None
    for assign in itertools.product([0, 1], repeat=4):
        groups = {}
        for label, p in zip(assign, pts[:, 0]):
            groups.setdefault(label, []).append(p)
        inertia = sum(((np.array(v) - np.mean(v)) ** 2).sum() for v in groups.values())
        if best is None or inertia < best[0]:
            best = (inertia, assign)
    assert best[1] in ((0, 1, 0, 1), (1, 0, 1, 0))
    assert kmeans(pts, k=2, seed=123).labels.tolist() == [0, 1, 0, 1]


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    a = kmeans(pts, 4, seed=9)
    b = kmeans(pts, 4, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_first_label_zero():
    rng = np.random.default_rng(3)
    for seed in range(20):
        pts = rng.normal(size=(15, 2))
        assert kmeans(pts, 3, seed=seed).labels[0] == 0


def test_kmeans_too_few_points():
    with pytest.raises(ValueError, match="too few points"):
        kmeans(np.zeros((2, 1)), 3, seed=0)


def test_kmeans_constant_points_no_crash():
    assignment = kmeans(np.ones((6, 2)), 2, seed=0)
    assert assignment.labels[0] == 0


def one_shot_seeds(pts, first, k):
    """Farthest-point seeding with full-size temporaries, as a reference."""
    seeds = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        seeds.append(int(np.argmax(d2)))
        d2 = np.minimum(d2, ((pts - pts[seeds[-1]]) ** 2).sum(axis=1))
    return seeds


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocked_seeding_matches_one_shot(offset):
    dim = 2048
    rows = _batch_rows(dim)  # 512
    n = rows + offset
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0, size=(n, 1))
    assert _farthest_points(pts, 7, 12) == one_shot_seeds(pts, 7, 12)
    got = np.empty(n)
    _row_sq_dists(pts, pts[3], np.empty((min(rows, n), dim)), got)
    assert np.array_equal(got, ((pts - pts[3]) ** 2).sum(axis=1))


# ------------------------------------------------------- transition_index

def brute_force_transition(seq):
    """All maximal 0+1+ runs by scanning every (zeros, ones) run pair."""
    runs = []
    start = 0
    for i in range(1, len(seq) + 1):
        if i == len(seq) or seq[i] != seq[start]:
            runs.append((seq[start], start, i))
            start = i
    best = None
    for (v1, s1, e1), (v2, s2, e2) in zip(runs, runs[1:]):
        if v1 == 0 and v2 == 1:
            length = e2 - s1
            if best is None or length > best[0]:
                best = (length, s2)
    return None if best is None else best[1]


def test_transition_examples():
    assert transition_index([0, 0, 1, 1, 1]) == 2
    assert transition_index([0, 1, 0, 0, 1, 1]) == 4
    assert transition_index([0, 0, 0]) is None


def test_transition_exhaustive_small():
    for length in range(1, 9):
        for bits in itertools.product([0, 1], repeat=length):
            assert transition_index(list(bits)) == brute_force_transition(list(bits)), bits


# --------------------------------------------------------- block_similarity

def test_block_identical_cosine():
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert block_similarity(block, block, Metric.COSINE) == pytest.approx(1.0)


def test_block_identical_dtw():
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert block_similarity(block, block, Metric.DTW) == 0.0


def test_block_orthogonal_single_frames():
    assert block_similarity([[1, 0]], [[0, 1]], Metric.COSINE) == 0.0


def test_block_flatten_needs_equal_lengths():
    with pytest.raises(ValueError, match="equal block lengths"):
        block_similarity([[1, 0]], [[0, 1], [1, 1]], Metric.COSINE)
