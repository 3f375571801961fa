import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from actseg.core import (BoundarySet, CorrectionConfig, DetectConfig,
                         FeatureSequence, LabelSequence, SegmentTimeline,
                         boundaries_of, from_boundaries, run_classes,
                         to_timeline)

A, B, C = 0, 1, 2


def seq(values, classes=3):
    return LabelSequence(np.asarray(values), classes)


def test_to_timeline_runs():
    tl = to_timeline(seq([A, A, B]))
    assert [(s.label, s.start, s.end) for s in tl] == [(A, 0, 2), (B, 2, 3)]


def test_to_timeline_singleton():
    tl = to_timeline(seq([A]))
    assert [(s.label, s.start, s.end) for s in tl] == [(A, 0, 1)]


def test_to_timeline_alternating():
    tl = to_timeline(seq([A, B, A]))
    assert [(s.label, s.start, s.end) for s in tl] == [(A, 0, 1), (B, 1, 2), (A, 2, 3)]


def test_to_timeline_empty_errors():
    with pytest.raises(ValueError, match="empty sequence"):
        to_timeline(seq([]))


def test_boundaries_of_examples():
    assert boundaries_of(seq([A, A, B, B, C])).indices == (2, 4)
    assert boundaries_of(seq([A, A, A])).indices == ()
    assert boundaries_of(seq([A, B])).indices == (1,)


def test_from_boundaries_examples():
    assert np.array_equal(from_boundaries(BoundarySet((2,)), [A, B], 4).labels,
                          [A, A, B, B])
    assert np.array_equal(from_boundaries(BoundarySet(()), [A], 3).labels,
                          [A, A, A])
    assert np.array_equal(from_boundaries(BoundarySet((1, 3)), [A, B, C], 5).labels,
                          [A, B, B, C, C])


def test_from_boundaries_count_mismatch():
    with pytest.raises(ValueError, match="segment classes"):
        from_boundaries(BoundarySet((2,)), [A], 4)


def test_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        total = int(rng.integers(1, 60))
        labels = np.zeros(total, dtype=np.int64)
        cls = int(rng.integers(0, 4))
        for t in range(total):
            if t and rng.random() < 0.3:
                cls = (cls + 1 + int(rng.integers(0, 3))) % 4
            labels[t] = cls
        ls = LabelSequence(labels, 4)
        rebuilt = from_boundaries(boundaries_of(ls), run_classes(ls), total, 4)
        assert rebuilt == ls


def test_timeline_and_boundaries_agree():
    ls = seq([A, A, B, C, C, C, A])
    starts = [s.start for s in to_timeline(ls)][1:]
    assert tuple(starts) == boundaries_of(ls).indices


def test_boundary_set_validation():
    with pytest.raises(ValueError, match="increasing"):
        BoundarySet((5, 5))
    with pytest.raises(ValueError, match=">= 1"):
        BoundarySet((0, 3))


def test_label_sequence_validation():
    with pytest.raises(ValueError, match="outside"):
        LabelSequence(np.array([0, 3]), 3)
    with pytest.raises(ValueError, match="class_count"):
        LabelSequence(np.array([0]), 0)


def test_feature_sequence_validation():
    with pytest.raises(ValueError, match="non-finite"):
        FeatureSequence(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="matrix"):
        FeatureSequence(np.zeros(4))


def test_feature_sequence_copies_caller_array():
    for caller in (np.zeros((2, 2)), np.zeros((2, 2), dtype=np.float32),
                   np.asfortranarray(np.zeros((2, 3)))):
        feat = FeatureSequence(caller)
        assert caller.flags.writeable
        assert not feat.values.flags.writeable and feat.values.flags.c_contiguous
        caller[0, 0] = 5.0
        assert feat.values[0, 0] == 0.0


def test_values_frozen_after_construction():
    feat = FeatureSequence(np.ones((2, 2)))
    with pytest.raises(ValueError):
        feat.values[0, 0] = 5.0
    ls = seq([A, B])
    with pytest.raises(ValueError):
        ls.labels[0] = 1


def test_values_stay_frozen_across_pickling():
    # ForkingPickler carries results back from forked CLI workers.
    ls = seq([A, B, B, C], classes=4)
    feat = FeatureSequence(np.arange(6.0).reshape(3, 2))
    for value, array in ((ls, "labels"), (feat, "values")):
        again = pickle.loads(ForkingPickler.dumps(value))
        assert not getattr(again, array).flags.writeable
        assert np.array_equal(getattr(again, array), getattr(value, array))
    assert pickle.loads(ForkingPickler.dumps(ls)) == ls


def test_timeline_rejects_equal_neighbours():
    from actseg.core import Segment
    with pytest.raises(ValueError, match="share class"):
        SegmentTimeline((Segment(A, 0, 2), Segment(A, 2, 4)))


def test_correction_config_invariants():
    CorrectionConfig(16, 4)
    with pytest.raises(ValueError, match="divisible"):
        CorrectionConfig(16, 5)
    with pytest.raises(ValueError, match="2 \\* b_seg"):
        CorrectionConfig(4, 4)
    with pytest.raises(ValueError, match="even"):
        CorrectionConfig(15, 3)
    CorrectionConfig("auto", "auto")


def test_detect_config_invariants():
    DetectConfig(num_classes=2)
    with pytest.raises(ValueError, match="num_classes"):
        DetectConfig(num_classes=1)
    with pytest.raises(ValueError, match="b_intrv"):
        DetectConfig(num_classes=2, b_intrv=0)
