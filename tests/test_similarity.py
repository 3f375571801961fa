import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from actseg import similarity
from actseg.core import FeatureSequence
from actseg.detect import frame_scores
from actseg.similarity import (_KMEANS_MAX_ITER, _KMEANS_TOL, Metric, _batch_rows,
                               _farthest_points, _sq_dists, block_similarity, dtw, kmeans,
                               transition_index)


# ---------------------------------------------------- block_similarity cosine

def cosine(a, b):
    """Cosine score of one pair, through the block kernel."""
    pair = np.stack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])
    (score,) = block_similarity(pair[:, None, :], Metric.COSINE)
    return score


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
    scores = block_similarity(rng.normal(size=(300, 2, 5)), Metric.COSINE)
    assert scores.shape == (299,)
    assert np.all((-1.0 - 1e-9 <= scores) & (scores <= 1.0 + 1e-9))


def test_cosine_rejects_mismatch():
    with pytest.raises(ValueError):
        block_similarity([[[1, 2]], [[1, 2, 3]]], Metric.COSINE)


def test_zero_norm_frame_and_block_score_zero_with_one_warning():
    # a zero frame or block between live ones: both of its pairs score 0.0
    frames = FeatureSequence(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]]))
    blocks = np.array([[[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]],
                       [[3.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 2.0]]])
    for score, want_zero in ((lambda: frame_scores(frames, Metric.COSINE), [True, True]),
                             (lambda: block_similarity(blocks, Metric.COSINE),
                              [True, True, False])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores = score()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert list(scores == 0.0) == want_zero


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
    assert dtw(np.zeros((2, 0)), np.zeros((3, 0))) == 0.0  # zero-width vectors


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
    # Float scalar series: at d = 1 the brute force's costs are the kernel's
    # bits and each path sums in path order, so the recurrence must match
    # exactly, not only up to rounding.
    for _ in range(300):
        a = rng.normal(size=rng.integers(1, 6))
        b = rng.normal(size=rng.integers(1, 6))
        assert dtw(a, b) == brute_force_dtw(a, b), (a, b)


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


# ------------------------------------------------------- block_similarity dtw

def test_dtw_chunk_sizes():
    # pairs per chunk: one pair's grid row is s * d cells
    assert _batch_rows(64 * 1) == 1024  # frames as series at --dim-reduce 64
    assert _batch_rows(2048 * 1) == 32  # frames as series at full D
    assert _batch_rows(4 * 2048) == 8  # 4-frame correction blocks


# (s, d) block shapes: the frame-as-series blocks frame_scores passes, a
# block of frames as correction passes, and small odd ones.
BLOCK_SHAPES = [(1, 1), (3, 1), (64, 1), (2, 3), (4, 7), (16, 512)]


def chunk_cases(s, d):
    """(pairs per chunk, pair counts) to run an (s, d) block shape with: m - 1
    below one chunk and on either side of a chunk edge, for chunks of 1, 2
    and 3 pairs and, on narrow blocks, one of 256 pairs."""
    for chunk in [1, 2, 3] + ([256] if s * d <= 64 else []):
        yield chunk, [p for p in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1) if p >= 1]


def block_dtw_with_chunk(blocks, chunk):
    """block_similarity(blocks, DTW) under a budget of `chunk` pairs per chunk."""
    _, s, d = blocks.shape
    with mock.patch.object(similarity, "_BATCH_BYTES", 8 * s * d * chunk):
        return block_similarity(blocks, Metric.DTW)


def per_pair_dtw(blocks):
    return np.array([dtw(blocks[j], blocks[j + 1]) for j in range(len(blocks) - 1)])


@st.composite
def block_stacks(draw):
    """(chunk, blocks): an (m, s, d) stack and the pairs per chunk to run it with."""
    s, d = draw(st.sampled_from(BLOCK_SHAPES))
    chunk, pair_counts = draw(st.sampled_from(list(chunk_cases(s, d))))
    pairs = draw(st.sampled_from(pair_counts))
    blocks = draw(arrays(np.float64, (pairs + 1, s, d),
                         elements=st.floats(-1e3, 1e3, allow_nan=False)))
    return chunk, blocks


@settings(max_examples=60, deadline=None)
@given(block_stacks())
def test_block_dtw_equals_per_pair_dtw(stack):
    chunk, blocks = stack
    assert np.array_equal(block_dtw_with_chunk(blocks, chunk), per_pair_dtw(blocks))


def test_block_dtw_every_chunk_case():
    # Every case the strategy above samples from, so that each chunk edge
    # runs on every test run.
    rng = np.random.default_rng(9)
    for s, d in BLOCK_SHAPES:
        for chunk, pair_counts in chunk_cases(s, d):
            for pairs in pair_counts:
                blocks = rng.normal(scale=100.0, size=(pairs + 1, s, d))
                assert np.array_equal(block_dtw_with_chunk(blocks, chunk),
                                      per_pair_dtw(blocks)), (s, d, chunk, pairs)


def memory_layouts(blocks):
    """The same (m, s, d) values in C order, in F order (the pair axis
    contiguous, as detect's dimension-major frames give it) and as a view
    strided on every axis."""
    spaced = np.zeros(tuple(2 * n for n in blocks.shape))
    spaced[::2, ::2, ::2] = blocks
    return {"C": np.ascontiguousarray(blocks), "F": np.asfortranarray(blocks),
            "strided": spaced[::2, ::2, ::2]}


@pytest.mark.parametrize("shape, chunk", [((8, 64, 1), 3), ((5, 4, 512), 2)])
def test_block_similarity_ignores_memory_layout(shape, chunk):
    # (8, 64, 1): frames as series, 7 pairs in chunks of 3; (5, 4, 512): a
    # correction window of four-frame blocks, 4 pairs in chunks of 2.
    layouts = memory_layouts(np.random.default_rng(5).normal(scale=10.0, size=shape))
    want_dtw = block_dtw_with_chunk(layouts["C"], chunk)
    want_cos = block_similarity(layouts["C"], Metric.COSINE)
    for name, blocks in layouts.items():
        assert np.array_equal(block_dtw_with_chunk(blocks, chunk), want_dtw), name
        assert np.array_equal(block_similarity(blocks, Metric.COSINE), want_cos), name


def test_block_similarity_rejects_non_stack():
    for shape in [(4, 3), (1, 2, 2), (2, 0, 3), (2, 3, 0)]:
        for metric in Metric:
            with pytest.raises(ValueError, match="stack"):
                block_similarity(np.zeros(shape), metric)


# ------------------------------------------------------------------ kmeans

def test_kmeans_separable():
    labels = kmeans(np.array([[0], [0], [0], [5], [5]]), k=2, seed=4)
    assert labels.dtype == np.int64
    assert labels.tolist() == [0, 0, 0, 1, 1]


def test_kmeans_k1():
    assert kmeans(np.random.default_rng(0).normal(size=(7, 3)), k=1, seed=0).tolist() == [0] * 7


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
    assert kmeans(pts, k=2, seed=123).tolist() == [0, 1, 0, 1]


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    assert np.array_equal(kmeans(pts, 4, seed=9), kmeans(pts, 4, seed=9))


def test_kmeans_first_label_zero():
    rng = np.random.default_rng(3)
    for seed in range(20):
        pts = rng.normal(size=(15, 2))
        assert kmeans(pts, 3, seed=seed)[0] == 0


def test_kmeans_too_few_points():
    with pytest.raises(ValueError, match="too few points"):
        kmeans(np.zeros((2, 1)), 3, seed=0)


def test_kmeans_constant_points_no_crash():
    assert kmeans(np.ones((6, 2)), 2, seed=0).tolist() == [0] * 6
    assert kmeans(np.ones((6, 0)), 2, seed=0).tolist() == [0] * 6  # zero-width points


def reference_kmeans(points, k, seed):
    """k-means with a separate last distance pass: the Lloyd loop runs to
    its stop, the labels come from one more distance pass to the final
    centroids, then ids are renumbered by first appearance."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = pts.shape[0]
    pt_sq = (pts ** 2).sum(axis=1)
    centroids = pts[_farthest_points(pts, pt_sq, int(rng.integers(n)), k)]
    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        dists = _sq_dists(pts, pt_sq, centroids)
        new_labels = np.argmin(dists, axis=1)
        new_inertia = float(np.take_along_axis(dists, new_labels[:, None], axis=1).sum())
        if np.array_equal(new_labels, labels):
            break
        converged = abs(inertia - new_inertia) < _KMEANS_TOL
        labels, inertia = new_labels, new_inertia
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
        if converged:
            break
    labels = np.argmin(_sq_dists(pts, pt_sq, centroids), axis=1)
    mapping: dict[int, int] = {}
    for lab in labels.tolist():
        mapping.setdefault(lab, len(mapping))
    return np.array([mapping[lab] for lab in labels.tolist()], dtype=np.int64)


@st.composite
def kmeans_inputs(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "grid", "constant"]))
    if kind == "normal":
        pts = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    elif kind == "grid":  # few distinct values, so many duplicate points and ties
        pts = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        pts = np.full((n, d), rng.normal())
    return pts, k, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(kmeans_inputs())
def test_kmeans_equals_reference(case):
    pts, k, seed = case
    labels = kmeans(pts, k, seed)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, reference_kmeans(pts, k, seed))


def one_shot_seeds(pts, first, k):
    """Farthest-point seeding on exact differences, as a reference."""
    seeds = [first]
    d2 = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(1, k):
        seeds.append(int(np.argmax(d2)))
        d2 = np.minimum(d2, ((pts - pts[seeds[-1]]) ** 2).sum(axis=1))
    return seeds


@pytest.mark.parametrize("n", [511, 512, 513])
def test_farthest_points_matches_one_shot(n):
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(n, 2048)) * rng.uniform(0.5, 2.0, size=(n, 1))
    pt_sq = (pts ** 2).sum(axis=1)
    assert _farthest_points(pts, pt_sq, 7, 12) == one_shot_seeds(pts, 7, 12)


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
    assert block_similarity([block, block], Metric.COSINE)[0] == pytest.approx(1.0)


def test_block_identical_dtw():
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert block_similarity([block, block], Metric.DTW)[0] == 0.0


def test_block_orthogonal_single_frames():
    assert block_similarity([[[1, 0]], [[0, 1]]], Metric.COSINE)[0] == 0.0


def test_block_flatten_needs_equal_lengths():
    with pytest.raises(ValueError):
        block_similarity([[[1, 0]], [[0, 1], [1, 1]]], Metric.COSINE)


def test_block_cosine_flattens_row_major():
    # the blocks compare as the concatenations [1, 0, 0, 1] and [0, 1, 1, 0]
    blocks = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]],
                       [[1.0, 0.0], [1.0, 0.0]]])
    assert list(block_similarity(blocks, Metric.COSINE)) == \
        [0.0, pytest.approx(0.5)]
