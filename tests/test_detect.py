import numpy as np
import pytest

from actseg.core import AUTO, BoundarySet, DetectConfig, FeatureSequence
from actseg.detect import (MethodProposals, auto_b_intrv, cluster_bounds,
                           detect, frame_scores, mean_filter, merge_mean,
                           remove_close, segment_labels)
from actseg.similarity import Metric
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
    assert mean_filter(np.array([1.0, 1.0, 0.0, 1.0]), "below").indices == (3,)


def test_mean_filter_all_equal_empty():
    assert mean_filter(np.ones(5), "below").indices == ()
    assert mean_filter(np.ones(5), "above").indices == ()


def test_mean_filter_above():
    assert mean_filter(np.array([0.0, 0.0, 9.0]), "above").indices == (3,)


# ---------------------------------------------------------- cluster_bounds

def test_cluster_bounds_two_blobs():
    feat, bounds = step_features([15, 17], seed=3)
    assert cluster_bounds(feat, 2, seed=0).indices == bounds.indices


def test_cluster_bounds_constant_no_crash():
    got = cluster_bounds(FeatureSequence(np.ones((20, 3))), 2, seed=0)
    assert isinstance(got, BoundarySet)


def test_cluster_bounds_three_blobs():
    feat, bounds = step_features([15, 17, 20], seed=4)
    assert cluster_bounds(feat, 3, seed=0).indices == bounds.indices


def test_cluster_bounds_too_few_frames():
    with pytest.raises(ValueError, match="too few frames"):
        cluster_bounds(FeatureSequence(np.ones((2, 2))), 3, seed=0)


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

def make_proposals(cos, dtw, clu, total=400):
    zeros = np.zeros(total - 1)
    return MethodProposals(BoundarySet(cos), BoundarySet(dtw), BoundarySet(clu),
                           zeros, zeros)


def test_auto_b_intrv_max_over_methods():
    props = make_proposals((10, 50), (15, 70), (5, 35))  # gaps 40, 55, 30
    assert auto_b_intrv(props) == 55


def test_auto_b_intrv_single_usable_method():
    props = make_proposals((10, 40), (7,), ())
    assert auto_b_intrv(props) == 30


def test_auto_b_intrv_fallback():
    props = make_proposals((9,), (), (), total=400)
    assert auto_b_intrv(props) == 50  # 400 // 8


def test_auto_b_intrv_clamped_to_half_length():
    props = make_proposals((10, 390), (), (), total=400)
    assert auto_b_intrv(props) == 200


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


def test_segment_labels_cover_segments():
    feat, bounds = step_features([30, 30, 30], seed=10)
    labels = segment_labels(feat, bounds, 3, seed=0)
    assert len(labels) == feat.frames
    assert labels.class_count == 3
    # all three segments perfectly separable: distinct ids per segment
    arr = labels.labels
    assert len({arr[0], arr[35], arr[75]}) == 3
