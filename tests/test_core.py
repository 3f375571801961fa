import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actseg.core import (AUTO, BoundarySet, CorrectionConfig, DetectConfig,
                         FeatureSequence, LabelSequence, boundaries_of,
                         from_boundaries, run_classes, runs, to_timeline)
from actseg.correction import correct_all
from actseg.detect import detect
from actseg.postprocess import auto_s_win

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
    assert np.array_equal(from_boundaries(BoundarySet((2,)), [A, B], 4, 2).labels,
                          [A, A, B, B])
    assert np.array_equal(from_boundaries(BoundarySet(()), [A], 3, 1).labels,
                          [A, A, A])
    assert np.array_equal(from_boundaries(BoundarySet((1, 3)), [A, B, C], 5, 3).labels,
                          [A, B, B, C, C])


def test_from_boundaries_count_mismatch():
    with pytest.raises(ValueError, match="segment classes"):
        from_boundaries(BoundarySet((2,)), [A], 4, 1)


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
    with pytest.raises(ValueError, match="empty sequence"):
        LabelSequence(np.array([], dtype=np.int64), 1)


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
        assert not feat.values.flags.writeable
        caller[0, 0] = 5.0
        assert feat.values[0, 0] == 0.0


@st.composite
def held_features(draw):
    """Labels of 2-5 segments, and read-only float32 or float64 features
    in C order or as a transposed view, as a D x T load holds them."""
    lengths = draw(st.lists(st.integers(9, 30), min_size=2, max_size=5))
    labels = LabelSequence(np.repeat(np.arange(len(lengths)), lengths), len(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    arr = rng.normal(size=(len(labels), draw(st.integers(2, 6))))
    arr = arr.astype(draw(st.sampled_from([np.float32, np.float64])))
    if draw(st.booleans()):
        arr = np.ascontiguousarray(arr.T).T
    arr.setflags(write=False)
    return labels, arr


def _comparable(proposals):
    return [v.tobytes() if isinstance(v, np.ndarray) else v for v in vars(proposals).values()]


@settings(max_examples=40, deadline=None)
@given(held_features(), st.data())
def test_kernels_ignore_the_held_dtype_and_layout(case, data):
    labels, arr = case
    held = FeatureSequence(arr)
    assert held.values is arr
    wide = FeatureSequence(np.ascontiguousarray(arr, np.float64))
    for cfg in (CorrectionConfig(8, 2), CorrectionConfig(AUTO, AUTO)):
        assert correct_all(held, labels, cfg, seed=3) == correct_all(wide, labels, cfg, seed=3)
    num_classes = data.draw(st.integers(2, 4), label="num_classes")
    for dim_reduce in (None, data.draw(st.integers(1, arr.shape[1] - 1), label="dim_reduce")):
        cfg = DetectConfig(num_classes, dim_reduce=dim_reduce)
        (got, got_props), (want, want_props) = detect(held, cfg, seed=3), detect(wide, cfg, seed=3)
        assert got == want and _comparable(got_props) == _comparable(want_props)


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


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_timeline_tiles_and_neighbours_differ(values):
    segs = to_timeline(seq(values, classes=4))
    assert segs[0].start == 0 and segs[-1].end == len(values)
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start and a.label != b.label
    for s in segs:
        assert s.start < s.end and set(values[s.start:s.end]) == {s.label}


def _scan_runs(values):
    """(value, start, end) of each maximal run, by a plain scan."""
    found, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            found.append((values[start], start, i))
            start = i
    return found


@settings(max_examples=300)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=200))
def test_every_run_view_equals_a_plain_scan(values):
    want = _scan_runs(values)
    ls = seq(values, classes=4)
    starts, ends = runs(np.array(values))
    assert list(zip(starts.tolist(), ends.tolist())) == [(s, e) for _, s, e in want]
    assert [(g.label, g.start, g.end) for g in to_timeline(ls)] == want
    assert boundaries_of(ls).indices == tuple(s for _, s, _ in want[1:])
    assert run_classes(ls) == [v for v, _, _ in want]
    assert auto_s_win(ls) == max(2, int(round(max(e - s for _, s, e in want) / 10)))


def test_runs_of_an_empty_array():
    starts, ends = runs(np.array([], dtype=np.int64))
    assert starts.size == 0 and ends.size == 0


def test_correction_config_invariants():
    CorrectionConfig(16, 4)
    with pytest.raises(ValueError, match="divisible"):
        CorrectionConfig(16, 5)
    with pytest.raises(ValueError, match="2 \\* b_seg"):
        CorrectionConfig(4, 4)
    with pytest.raises(ValueError, match="even"):
        CorrectionConfig(15, 3)
    CorrectionConfig("auto", "auto")
    for mixed in (("auto", 4), (2, "auto")):
        with pytest.raises(ValueError, match="b_win and b_seg must both be"):
            CorrectionConfig(*mixed)


def test_detect_config_invariants():
    DetectConfig(num_classes=2)
    with pytest.raises(ValueError, match="num_classes"):
        DetectConfig(num_classes=1)
    with pytest.raises(ValueError, match="b_intrv"):
        DetectConfig(num_classes=2, b_intrv=0)
