import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actseg.core import BoundarySet, LabelSequence, from_boundaries, to_timeline
from actseg.metrics import (EvalOptions, _max_assignment, boundary_f1, edit_score,
                            evaluate, evaluate_batch, f1_at, hungarian_label_match,
                            mean_result, segment_match_counts)

A, B, C = 0, 1, 2


def seq(values, classes=4):
    return LabelSequence(np.asarray(values), classes)


def labels_from_segments(segs, classes=4):
    parts = [np.full(end - start, label) for label, start, end in segs]
    return seq(np.concatenate(parts), classes)


# -------------------------------------------------------- frame accuracy

def test_accuracy_identical():
    s = seq([A, B, B])
    assert evaluate(s, s).acc == 100.0


def test_accuracy_two_of_three():
    assert evaluate(seq([A, A, B]), seq([A, B, B])).acc == pytest.approx(200 / 3)


def test_accuracy_disjoint():
    assert evaluate(seq([A, A]), seq([B, B])).acc == 0.0


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        evaluate(seq([A]), seq([A, B]))


# -------------------------------------------------------------- edit_score

def reference_levenshtein(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1,
                   rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
    return rec(len(a), len(b))


def test_edit_identical_segmentations():
    pred = labels_from_segments([(A, 0, 5), (B, 5, 10)])
    gt = labels_from_segments([(A, 0, 3), (B, 3, 10)])
    assert edit_score(pred, gt) == 100.0


def test_edit_one_insertion():
    pred = labels_from_segments([(A, 0, 2), (B, 2, 4), (C, 4, 6)])
    gt = labels_from_segments([(A, 0, 3), (C, 3, 6)])
    assert edit_score(pred, gt) == pytest.approx(200 / 3)


def test_edit_total_mismatch():
    assert edit_score(seq([B, B]), seq([A, A])) == 0.0


def test_edit_against_reference_dp():
    rng = np.random.default_rng(3)
    for _ in range(200):
        runs_a = _random_runs(rng)
        runs_b = _random_runs(rng)
        pred = seq(np.repeat(runs_a, rng.integers(1, 4, size=len(runs_a))))
        gt = seq(np.repeat(runs_b, rng.integers(1, 4, size=len(runs_b))))
        expected = 100.0 * max(0.0, 1.0 - reference_levenshtein(tuple(runs_a), tuple(runs_b))
                               / max(len(runs_a), len(runs_b)))
        assert edit_score(pred, gt) == pytest.approx(expected)


def _random_runs(rng, max_len=8, classes=4):
    length = int(rng.integers(1, max_len + 1))
    runs = [int(rng.integers(0, classes))]
    while len(runs) < length:
        nxt = int(rng.integers(0, classes))
        if nxt != runs[-1]:
            runs.append(nxt)
    return runs


# ------------------------------------------------------------------- f1_at

def test_f1_shifted_boundary_still_perfect_at_10():
    gt = labels_from_segments([(A, 0, 50), (B, 50, 100)])
    pred = labels_from_segments([(A, 0, 45), (B, 45, 100)])
    assert f1_at(pred, gt, 0.10) == 100.0


def test_f1_identical_any_threshold():
    s = labels_from_segments([(A, 0, 10), (B, 10, 25), (A, 25, 30)])
    for thr in (0.10, 0.25, 0.50, 0.99):
        assert f1_at(s, s, thr) == 100.0


def test_f1_absent_class_zero():
    pred = labels_from_segments([(C, 0, 10)])
    gt = labels_from_segments([(A, 0, 10)])
    assert f1_at(pred, gt, 0.10) == 0.0


def test_f1_counts_partial():
    gt = labels_from_segments([(A, 0, 50), (B, 50, 100)])
    pred = labels_from_segments([(A, 0, 98), (B, 98, 100)])
    # A matches (IoU 0.5); B's IoU is 2/50 < 0.1
    tp, fp, fn = segment_match_counts(pred, gt, 0.10)
    assert (tp, fp, fn) == (1, 1, 1)


def test_f1_monotone_in_threshold():
    rng = np.random.default_rng(4)
    for _ in range(100):
        pred = _random_segmentation(rng)
        gt = _random_segmentation(rng, total=len(pred))
        prev = 101.0
        for thr in (0.10, 0.25, 0.50):
            cur = f1_at(pred, gt, thr)
            assert cur <= prev + 1e-9
            prev = cur


def _random_segmentation(rng, total=None, max_segments=6, classes=3):
    if total is None:
        total = int(rng.integers(6, 40))
    n_segs = int(rng.integers(1, max_segments + 1))
    cuts = sorted(rng.choice(np.arange(1, total), size=min(n_segs - 1, total - 1),
                             replace=False).tolist())
    runs = [int(rng.integers(0, classes))]
    for _ in cuts:
        nxt = int(rng.integers(0, classes))
        runs.append(nxt if nxt != runs[-1] else (nxt + 1) % classes)
    return from_boundaries(BoundarySet(tuple(cuts)), runs, total, classes)


def brute_force_tp(pred, gt, thr, ignore=frozenset()):
    """Best one-to-one class-constrained matching by full enumeration."""
    from actseg.metrics import _iou
    ps = [p for p in to_timeline(pred) if p.label not in ignore]
    gs = [g for g in to_timeline(gt) if g.label not in ignore]
    edges = [[j for j, g in enumerate(gs)
              if g.label == p.label and _iou(p, g) >= thr] for p in ps]

    def best(i, used):
        if i == len(ps):
            return 0
        top = best(i + 1, used)
        for j in edges[i]:
            if not used & (1 << j):
                top = max(top, 1 + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


def test_f1_matches_brute_force():
    rng = np.random.default_rng(5)
    for case in range(150):
        pred = _random_segmentation(rng)
        gt = _random_segmentation(rng, total=len(pred))
        # every other case drops a class, which can leave same-class neighbours
        ignore = frozenset({int(rng.integers(0, 3))}) if case % 2 else frozenset()
        for thr in (0.01, 0.10, 0.25, 0.50, 0.99):
            tp, fp, fn = segment_match_counts(pred, gt, thr, ignore)
            assert tp == brute_force_tp(pred, gt, thr, ignore)
            assert tp + fp == sum(s.label not in ignore for s in to_timeline(pred))
            assert tp + fn == sum(s.label not in ignore for s in to_timeline(gt))


@pytest.mark.parametrize("thr", [0.0, 1.0])
def test_iou_threshold_outside_open_unit_interval_rejected(thr):
    s = labels_from_segments([(A, 0, 10), (B, 10, 20)])
    with pytest.raises(ValueError, match="iou_threshold must lie in"):
        segment_match_counts(s, s, thr)
    with pytest.raises(ValueError, match="iou_threshold must lie in"):
        f1_at(s, s, thr)


# ------------------------------------------------------------- boundary_f1

def test_boundary_f1_identical():
    s = BoundarySet((5, 20, 44))
    assert boundary_f1(s, s, 0) == 100.0


def test_boundary_f1_within_tolerance():
    assert boundary_f1(BoundarySet((98,)), BoundarySet((100,)), 5) == 100.0


def test_boundary_f1_extra_prediction():
    got = boundary_f1(BoundarySet((98, 99)), BoundarySet((100,)), 5)
    assert got == pytest.approx(200 / 3)


def test_boundary_f1_empty_sets():
    assert boundary_f1(BoundarySet(()), BoundarySet(()), 3) == 100.0
    assert boundary_f1(BoundarySet((4,)), BoundarySet(()), 3) == 0.0


# ---------------------------------------------------- label matching

def test_hungarian_permutation_recovers_gt():
    gt = seq(np.repeat([0, 1, 2], 5), classes=3)
    pred = seq(np.repeat([2, 0, 1], 5), classes=3)
    assert hungarian_label_match(pred, gt).labels.tolist() == gt.labels.tolist()


def test_hungarian_overlap_matrix_case():
    # overlaps [[8,2],[3,7]]: identity mapping wins 8 + 7 over 2 + 3
    pred = seq([0] * 10 + [1] * 10, classes=2)
    gt = seq([0] * 8 + [1] * 2 + [0] * 3 + [1] * 7, classes=2)
    matched = hungarian_label_match(pred, gt)
    assert matched.labels.tolist() == pred.labels.tolist()


def test_hungarian_extra_ids_become_unmatched():
    pred = seq([0] * 4 + [1] * 4 + [2] * 4, classes=3)
    gt = seq([0] * 8 + [1] * 4, classes=2)
    matched = hungarian_label_match(pred, gt)
    assert matched.class_count == 3  # 2 real classes + reserved unmatched
    assert 2 in matched.labels.tolist()


@st.composite
def _label_pair(draw):
    """A (pred, gt) pair of equal length with up to 4 classes each."""
    frames = draw(st.integers(1, 24))
    pred_classes, gt_classes = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pred = draw(st.lists(st.integers(0, pred_classes - 1), min_size=frames, max_size=frames))
    gt = draw(st.lists(st.integers(0, gt_classes - 1), min_size=frames, max_size=frames))
    return seq(pred, pred_classes), seq(gt, gt_classes)


@settings(max_examples=150, deadline=None)
@given(_label_pair())
def test_hungarian_keeps_brute_force_maximum_overlap(pair):
    pred, gt = pair
    overlap = np.zeros((pred.class_count, gt.class_count), dtype=np.int64)
    for p, g in zip(pred.labels, gt.labels):
        overlap[p, g] += 1
    short = overlap if overlap.shape[0] <= overlap.shape[1] else overlap.T
    best = max(sum(short[i, j] for i, j in enumerate(cols))
               for cols in itertools.permutations(range(short.shape[1]), short.shape[0]))
    kept = int(np.count_nonzero(hungarian_label_match(pred, gt).labels == gt.labels))
    assert kept == best


def _tie_heavy_scores(rng, max_side, count):
    """Small-integer score matrices, some with all-zero rows and columns."""
    for t in range(count):
        rows, cols = rng.integers(1, max_side + 1, size=2)
        score = rng.integers(0, (2, 5, 1000)[t % 3], size=(rows, cols)).astype(float)
        score[rng.random(rows) < 0.2] = 0.0
        score[:, rng.random(cols) < 0.2] = 0.0
        yield score


def test_max_assignment_reaches_brute_force_optimum():
    rng = np.random.default_rng(12)
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 8)]
    scores = [rng.integers(0, 3, size=shape).astype(float) for shape in shapes]
    scores += list(_tie_heavy_scores(rng, 6, 200))
    for score in scores:
        rows, cols = _max_assignment(score)
        short = score if score.shape[0] <= score.shape[1] else score.T
        injections = np.array(list(itertools.permutations(range(short.shape[1]),
                                                          short.shape[0])))
        best = short[np.arange(short.shape[0]), injections].sum(axis=1).max()
        assert len(rows) == len(cols) == min(score.shape)
        assert rows.tolist() == sorted(set(rows.tolist()))
        assert len(set(cols.tolist())) == len(cols)
        assert score[rows, cols].sum() == best


def test_max_assignment_matches_linear_sum_assignment():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for score in _tie_heavy_scores(rng, 24, 3000):
        want = optimize.linear_sum_assignment(score, maximize=True)
        got = _max_assignment(score)
        assert [a.tolist() for a in got] == [a.tolist() for a in want], score


# ---------------------------------------------------------------- evaluate

def test_evaluate_identical_all_hundred():
    s = labels_from_segments([(A, 0, 10), (B, 10, 30)])
    result = evaluate(s, s)
    assert all(v == 100.0 for v in result.field_values().values())


def test_evaluate_batch_empty_errors():
    with pytest.raises(ValueError, match="nothing to evaluate"):
        evaluate_batch([])


def test_evaluate_batch_accuracy_frame_weighted():
    gt1 = seq([A] * 10)
    pred1 = seq([A] * 10)
    gt2 = seq([B] * 30)
    pred2 = seq([A] * 30)
    result = evaluate_batch([(pred1, gt1), (pred2, gt2)])
    assert result.acc == pytest.approx(25.0)  # 10 of 40 frames


def test_evaluate_ignore_class():
    gt = seq(np.repeat([A, B], [10, 10]))
    pred = seq(np.repeat([A, C], [10, 10]))
    opts = EvalOptions(ignore=frozenset({B}))
    result = evaluate(pred, gt, opts)
    assert result.acc == 100.0


@settings(max_examples=100, deadline=None)
@given(st.lists(_label_pair(), min_size=1, max_size=3),
       st.frozensets(st.integers(0, 3), max_size=3), st.integers(0, 6))
def test_evaluate_batch_fields_within_0_100(pairs, ignore, tolerance):
    for opts in (EvalOptions(boundary_tolerance=tolerance),
                 EvalOptions(boundary_tolerance=tolerance, ignore=ignore)):
        if all(np.isin(gt.labels, list(opts.ignore)).all() for _, gt in pairs):
            with pytest.raises(ValueError, match="no ground-truth frame is left to score"):
                evaluate_batch(pairs, opts)
            continue
        for key, value in evaluate_batch(pairs, opts).field_values().items():
            assert 0.0 <= value <= 100.0, (key, value)


def test_mean_result_averages():
    s = labels_from_segments([(A, 0, 10)])
    t = labels_from_segments([(B, 0, 10)])
    r1 = evaluate(s, s)
    r2 = evaluate(t, s)
    avg = mean_result([r1, r2])
    assert avg.acc == pytest.approx((r1.acc + r2.acc) / 2)


def test_field_values_keys():
    result = evaluate(seq([A, B]), seq([A, B]))
    assert list(result.field_values()) == ["acc", "edit", "f1_10", "f1_25",
                                           "f1_50", "boundary_f1"]
