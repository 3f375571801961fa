import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from actseg.core import AUTO, BoundarySet, DetectConfig, FeatureSequence
from actseg.detect import (_PROJECT_BYTES, _project, auto_b_intrv, cluster_bounds, detect,
                           frame_scores, majority_labels, mean_filter, merge_mean,
                           remove_close, segment_labels)
from actseg.similarity import Metric, kmeans
from actseg.synth import SynthSpec, generate


def step_features(lengths, dim=6, sigma=0.0, seed=0):
    feat, _, bounds = generate(SynthSpec(dim=dim, segment_lengths=tuple(lengths),
                                         noise_sigma=sigma, seed=seed))
    return feat, bounds


# ------------------------------------------------------------ frame_scores

def test_constant_sequence_scores():
    feat = FeatureSequence(np.tile([1.0, 2.0, 3.0], (10, 1)))
    cos = frame_scores(feat, Metric.COSINE)
    dtws = frame_scores(feat, Metric.DTW)
    assert cos.shape == (9,)
    assert np.all(cos == cos[0]) and cos[0] == pytest.approx(1.0)
    assert np.all(dtws == 0.0)


def test_step_extremes_at_change():
    feat, bounds = step_features([12, 14], seed=1)
    k = bounds.indices[0] - 1  # score index comparing frames k, k+1
    cos = frame_scores(feat, Metric.COSINE)
    dtws = frame_scores(feat, Metric.DTW)
    assert int(np.argmin(cos)) == k
    assert int(np.argmax(dtws)) == k


def test_two_frames_single_score():
    feat = FeatureSequence(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert frame_scores(feat, Metric.COSINE).shape == (1,)


def test_single_frame_errors():
    with pytest.raises(ValueError, match="at least 2 frames"):
        frame_scores(FeatureSequence(np.ones((1, 3))), Metric.COSINE)


# ------------------------------------------------------------- mean_filter

def test_mean_filter_below():
    # a dip below the mean is a peak of the negated series
    assert mean_filter(-np.array([1.0, 1.0, 0.0, 1.0])).indices == (3,)


def test_mean_filter_all_equal_empty():
    assert mean_filter(np.ones(5)).indices == ()
    assert mean_filter(-np.ones(5)).indices == ()


def test_mean_filter_above():
    assert mean_filter(np.array([0.0, 0.0, 9.0])).indices == (3,)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, min_size=1, max_size=40)
       | st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, 1e308]),
                  min_size=1, max_size=40)
       | st.builds(lambda value, count: [value] * count, _FINITE, st.integers(1, 40)))
def test_mean_filter_of_negation_keeps_positions_below_the_mean(values):
    x = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # a sum of large values may overflow to inf
        got = mean_filter(-x).indices
        mean = np.clip(x.mean(), x.min(), x.max())
    assert got == tuple(int(i) + 1 for i in np.flatnonzero(x < mean))


# ---------------------------------------------------------- cluster_bounds

def test_cluster_bounds_two_blobs():
    feat, bounds = step_features([15, 17], seed=3)
    assert cluster_bounds(kmeans(feat.values, 2, seed=0), 2).indices == bounds.indices


def test_cluster_bounds_constant_no_crash():
    got = cluster_bounds(kmeans(np.ones((20, 3)), 2, seed=0), 2)
    assert isinstance(got, BoundarySet)


def test_cluster_bounds_three_blobs():
    feat, bounds = step_features([15, 17, 20], seed=4)
    assert cluster_bounds(kmeans(feat.values, 3, seed=0), 3).indices == bounds.indices


def test_detect_too_few_frames():
    with pytest.raises(ValueError, match="too few frames .* num_classes 3"):
        detect(FeatureSequence(np.ones((2, 2))), DetectConfig(num_classes=3, b_intrv=10))


# ------------------------------------------------------------ remove_close

def test_remove_close_greedy():
    assert remove_close(BoundarySet((10, 12, 50)), 20).indices == (10, 50)


def test_remove_close_empty():
    assert remove_close(BoundarySet(()), 7).indices == ()


def test_remove_close_exact_gaps_survive():
    assert remove_close(BoundarySet((5, 25, 45)), 20).indices == (5, 25, 45)


def test_remove_close_gap_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        raw = np.unique(rng.integers(1, 400, size=rng.integers(1, 30)))
        b_intrv = int(rng.integers(1, 60))
        kept = remove_close(BoundarySet(tuple(int(x) for x in raw)), b_intrv).indices
        assert all(b - a >= b_intrv for a, b in zip(kept, kept[1:]))


# -------------------------------------------------------------- merge_mean

def test_merge_mean_groups_average():
    got = merge_mean((BoundarySet((98,)), BoundarySet((102,)), BoundarySet(())), 20)
    assert got.indices == (100,)


def test_merge_mean_identical_sets_collapse():
    s = BoundarySet((10, 60, 200))
    assert merge_mean((s, s, s), 20).indices == (10, 60, 200)


def test_merge_mean_far_apart_kept():
    got = merge_mean((BoundarySet((10,)), BoundarySet((200,)), BoundarySet(())), 20)
    assert got.indices == (10, 200)


def test_merge_mean_gap_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        sets = []
        for _ in range(3):
            raw = np.unique(rng.integers(1, 300, size=rng.integers(0, 12)))
            sets.append(BoundarySet(tuple(int(x) for x in raw)))
        b_intrv = int(rng.integers(2, 40))
        merged = merge_mean(sets, b_intrv).indices
        assert all(b - a >= b_intrv for a, b in zip(merged, merged[1:]))


# ------------------------------------------------------------ auto_b_intrv

def test_auto_b_intrv_max_over_methods():
    sets = (BoundarySet((10, 50)), BoundarySet((15, 70)), BoundarySet((5, 35)))
    assert auto_b_intrv(sets, 400) == 55  # gaps 40, 55, 30


def test_auto_b_intrv_single_usable_method():
    sets = (BoundarySet((10, 40)), BoundarySet((7,)), BoundarySet())
    assert auto_b_intrv(sets, 400) == 30


def test_auto_b_intrv_fallback():
    sets = (BoundarySet((9,)), BoundarySet(), BoundarySet())
    assert auto_b_intrv(sets, 400) == 50  # 400 // 8


def test_auto_b_intrv_clamped_to_half_length():
    sets = (BoundarySet((10, 390)), BoundarySet(), BoundarySet())
    assert auto_b_intrv(sets, 400) == 200


# ---------------------------------------------------------------- _project

def whole_projection(values, target_dim, seed):
    """The projection as one product of every frame widened in C order."""
    basis = np.random.default_rng(seed).standard_normal((values.shape[1], target_dim))
    return np.ascontiguousarray(values, np.float64) @ (basis / np.sqrt(target_dim))


def block_frames(dim):
    return _PROJECT_BYTES // (8 * dim)


PROJECT_LAYOUTS = {
    "d_by_t_float32": lambda a: np.ascontiguousarray(a.T, np.float32).T,
    "t_by_d_float32": lambda a: a.astype(np.float32),
    "t_by_d_float64": lambda a: a,
}


@pytest.mark.parametrize("target_dim", [1, 2, 16])
@pytest.mark.parametrize("dim, frames", [(dim, blocks * block_frames(dim) + extra)
                                         for dim in (64, 2048)
                                         for blocks, extra in ((1, -1), (3, 1), (3, -1))])
@pytest.mark.parametrize("layout", PROJECT_LAYOUTS)
def test_project_equals_the_whole_product(layout, dim, frames, target_dim):
    values = PROJECT_LAYOUTS[layout](np.random.default_rng(frames).normal(size=(frames, dim)))
    got = _project(values, target_dim, seed=4)
    assert got.T.flags.c_contiguous  # dimension-major
    assert np.array_equal(got, whole_projection(values, target_dim, seed=4))


def _comparable(proposals):
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(proposals).values()]


def test_detect_ignores_the_layout_of_a_multi_block_video():
    feat, _ = step_features([200, 250, 150], dim=2048, sigma=0.5, seed=12)
    t_by_d = feat.values.astype(np.float32)
    assert t_by_d.nbytes >= _PROJECT_BYTES  # two blocks once widened
    d_by_t = np.ascontiguousarray(t_by_d.T).T
    cfg = DetectConfig(num_classes=3, b_intrv=20, dim_reduce=64)
    got, got_props = detect(FeatureSequence(d_by_t), cfg, seed=1)
    want, want_props = detect(FeatureSequence(t_by_d), cfg, seed=1)
    assert got == want and len(got) >= 2
    assert _comparable(got_props) == _comparable(want_props)


# ------------------------------------------------------------------ detect

def test_detect_recovers_five_segments():
    feat, bounds = step_features([100] * 5, seed=7)
    got, props = detect(feat, DetectConfig(num_classes=5, b_intrv=50), seed=0)
    assert got.indices == bounds.indices
    assert props.resolved_b_intrv == 50


def test_detect_constant_features_near_empty():
    feat = FeatureSequence(np.ones((60, 4)))
    got, _ = detect(feat, DetectConfig(num_classes=2, b_intrv=10), seed=0)
    assert len(got) <= 1


def test_detect_deterministic():
    feat, _ = step_features([60, 70, 80], sigma=0.05, seed=8)
    cfg = DetectConfig(num_classes=3, b_intrv=AUTO)
    a, pa = detect(feat, cfg, seed=5)
    b, pb = detect(feat, cfg, seed=5)
    assert a.indices == b.indices
    assert pa.resolved_b_intrv == pb.resolved_b_intrv


def test_detect_dim_reduce_runs():
    feat, bounds = step_features([80, 80], dim=32, seed=9)
    got, _ = detect(feat, DetectConfig(num_classes=2, b_intrv=40, dim_reduce=8), seed=0)
    assert len(got) >= 1


@pytest.mark.parametrize("dim_reduce", [None, 8])
def test_detect_returns_its_clusters(dim_reduce):
    feat, _ = step_features([40, 50, 60], dim=32, sigma=0.05, seed=11)
    _, props = detect(feat, DetectConfig(num_classes=3, b_intrv=20, dim_reduce=dim_reduce),
                      seed=2)
    assert props.clusters.shape == (feat.frames,) and props.clusters.dtype == np.int64
    assert cluster_bounds(props.clusters, 3).indices[0] == 40
    if dim_reduce is None:
        assert np.array_equal(props.clusters, kmeans(feat.values, 3, seed=2))


def test_detect_keeps_the_cosine_series_not_its_negation():
    feat, bounds = step_features([40, 50], sigma=0.05, seed=12)
    _, props = detect(feat, DetectConfig(num_classes=2, b_intrv=20), seed=0)
    wide = FeatureSequence(feat.values.astype(np.float64))
    assert np.array_equal(props.cosine_scores, frame_scores(wide, Metric.COSINE))
    assert bounds.indices[0] in props.cosine_bounds.indices


def test_segment_labels_cover_segments():
    feat, bounds = step_features([30, 30, 30], seed=10)
    labels = segment_labels(feat, bounds, 3, seed=0)
    assert len(labels) == feat.frames
    assert labels.class_count == 3
    # all three segments perfectly separable: distinct ids per segment
    arr = labels.labels
    assert len({arr[0], arr[35], arr[75]}) == 3


def test_segment_labels_rejects_boundary_past_last_frame():
    feat, _ = step_features([15, 15], seed=10)
    clusters = kmeans(feat.values, 2, seed=0)
    for bounds in (BoundarySet((10, 30)), BoundarySet((31,))):
        message = rf"boundary {bounds.indices[-1]} outside \[1, 29\]"
        with pytest.raises(ValueError, match=message):
            segment_labels(feat, bounds, 2, seed=0)
        with pytest.raises(ValueError, match=message):
            majority_labels(clusters, bounds, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_majority_labels_take_each_segments_most_frequent_id(data):
    clusters = np.array(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=60)),
                        dtype=np.int64)
    total = len(clusters)
    cuts = data.draw(st.sets(st.integers(1, total - 1)) if total > 1 else st.just(set()))
    bounds = BoundarySet(tuple(sorted(cuts)))
    got = majority_labels(clusters, bounds, 4)
    assert got.class_count == 4
    edges = [0, *bounds.indices, total]
    for start, end in zip(edges[:-1], edges[1:]):
        segment = got.labels[start:end]
        ids, counts = np.unique(clusters[start:end], return_counts=True)
        # np.unique sorts the ids, so the first id with the top count is the lowest.
        assert np.all(segment == ids[np.argmax(counts)])


# ------------------------------------------------------ degenerate videos

@st.composite
def repeated_frame_videos(draw):
    """C-order float32 or float64 features of 1-4 segments around distinct
    means, each segment 1-5 distinct frames repeated 1-6 times (noise 0
    makes each segment constant), and a detection config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    dim = draw(st.integers(2, 8))
    noise = draw(st.sampled_from([0.0, 0.3]))
    frames = []
    for _ in range(draw(st.integers(1, 4))):
        mean = rng.normal(scale=6.0, size=dim)
        for _ in range(draw(st.integers(1, 5))):
            frames += [mean + rng.normal(scale=noise, size=dim)] * draw(st.integers(1, 6))
    values = np.array(frames, dtype=draw(st.sampled_from([np.float32, np.float64])))
    cfg = DetectConfig(num_classes=draw(st.integers(2, max(2, min(4, len(values))))),
                       b_intrv=draw(st.sampled_from([AUTO, 1, 3, 10])),
                       dim_reduce=draw(st.sampled_from([None, 1, dim - 1])))
    return values, cfg


@settings(max_examples=150, deadline=None)
@given(repeated_frame_videos())
# Five identical frames: a one-column product rounded the last one apart.
@example((np.array([np.arange(1.0, 9.0)] * 5), DetectConfig(num_classes=2, dim_reduce=1)))
def test_no_proposal_between_identical_frames(case):
    values, cfg = case
    assume(len(values) >= cfg.num_classes)
    _, props = detect(FeatureSequence(values), cfg, seed=0)
    for bounds in (props.cosine_bounds, props.dtw_bounds, props.cluster_bounds):
        for b in bounds:
            assert not np.array_equal(values[b - 1], values[b]), (b, bounds)


@settings(max_examples=60, deadline=None)
@given(repeated_frame_videos(), st.data())
def test_zero_norm_frames_warn_and_do_not_raise(case, data):
    values, cfg = case
    assume(len(values) >= cfg.num_classes)
    values = values.copy()
    values[data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1))] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        detect(FeatureSequence(values), cfg, seed=0)
    assert {str(w.message) for w in caught} == \
        {"zero-norm block in cosine similarity, scored 0.0"}
