import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actseg.core import LabelSequence
from actseg.postprocess import (PredictionSet, SmoothConfig, _majority, auto_s_win, smooth,
                                vote)

A, B, C, D = 0, 1, 2, 3


def seq(values, classes=4):
    return LabelSequence(np.asarray(values), classes)


def frame_vote(votes, trusted=-1, classes=4):
    """Vote over single-frame sources, one label per source."""
    sources = tuple(seq([v], classes) for v in votes)
    return int(vote(PredictionSet(sources, trusted_index=trusted)).labels[0])


# -------------------------------------------------------------------- vote

def test_vote_majority_wins():
    assert frame_vote([A, A, B, C]) == A


def test_vote_total_disagreement_trusts_last():
    assert frame_vote([A, B, C, D]) == D
    assert frame_vote([A, B, C, D], trusted=3) == D


def test_vote_two_two_tie_goes_to_trusted():
    assert frame_vote([A, A, B, B], trusted=3) == B
    assert frame_vote([A, A, B, B], trusted=0) == A


def test_vote_tie_without_trusted_leader_takes_earliest_source():
    # trusted voted C (count 1); leaders are A and B; source 0 voted A
    sources = tuple(seq([v]) for v in [A, B, A, B, C])
    fused = vote(PredictionSet(sources, trusted_index=4))
    assert int(fused.labels[0]) == A


def test_vote_length_mismatch_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        PredictionSet((seq([A, B]), seq([A])))


def test_vote_takes_the_largest_class_count():
    fused = vote(PredictionSet((seq([A, B], classes=2), seq([A, B], classes=5),
                                seq([A, A], classes=3))))
    assert fused == seq([A, B], classes=5)


def test_vote_needs_two_sources():
    with pytest.raises(ValueError, match="at least 2"):
        PredictionSet((seq([A]),))


def test_vote_membership_and_majority_soundness():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        total = int(rng.integers(1, 30))
        stack = rng.integers(0, 4, size=(n, total))
        sources = tuple(seq(row) for row in stack)
        fused = vote(PredictionSet(sources))
        for t in range(total):
            votes = stack[:, t]
            assert fused.labels[t] in votes
            counts = np.bincount(votes, minlength=4)
            top = counts.max()
            if (counts == top).sum() == 1:
                assert fused.labels[t] == counts.argmax()


def loop_vote(stack, trusted, classes):
    """Per-frame reference for vote: a unique leader wins; on a tie the
    trusted source wins if it leads, else the first leading source."""
    n, total = stack.shape
    out = np.empty(total, dtype=np.int64)
    for t in range(total):
        counts = np.bincount(stack[:, t], minlength=classes)
        best = counts.max()
        leaders = np.flatnonzero(counts == best)
        if leaders.size == 1:
            out[t] = leaders[0]
        elif counts[stack[trusted, t]] == best:
            out[t] = stack[trusted, t]
        else:
            for s in range(n):
                if counts[stack[s, t]] == best:
                    out[t] = stack[s, t]
                    break
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 40), st.integers(1, 5), st.data())
def test_vote_equals_per_frame_loop(n, total, classes, data):
    rows = st.lists(st.integers(0, classes - 1), min_size=total, max_size=total)
    stack = np.array(data.draw(st.lists(rows, min_size=n, max_size=n), label="stack"))
    trusted = data.draw(st.integers(-n, n - 1), label="trusted")
    fused = vote(PredictionSet(tuple(seq(row, classes) for row in stack), trusted_index=trusted))
    assert fused.class_count == classes
    np.testing.assert_array_equal(fused.labels, loop_vote(stack, trusted % n, classes))


# ------------------------------------------------------------------ smooth

def test_smooth_agreeing_windows_flatten():
    # window pair [A,A,B,A] | [A,A,A,A]: the stray B is removed
    labels = seq([A, A, B, A, A, A, A, A])
    out = smooth(labels, SmoothConfig(s_win=4))
    assert out.labels.tolist() == [A] * 8


def test_smooth_preserves_upcoming_segment():
    # window pair [A,A,A,B] | [B,B,B,B]: the trailing B starts the next segment
    labels = seq([A, A, A, B, B, B, B, B])
    out = smooth(labels, SmoothConfig(s_win=4))
    assert out.labels.tolist() == [A, A, A, B, B, B, B, B]


def test_smooth_constant_fixpoint():
    labels = seq([B] * 13)
    assert smooth(labels, SmoothConfig(s_win=4)) == labels


def test_smooth_stability_when_segments_long():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s_win = int(rng.integers(2, 7))
        lengths = rng.integers(2 * s_win, 5 * s_win, size=rng.integers(1, 6))
        classes = [int(rng.integers(0, 4))]
        for _ in lengths[1:]:
            nxt = int(rng.integers(0, 3))
            classes.append(nxt if nxt != classes[-1] else 3)
        labels = seq(np.repeat(classes, lengths))
        assert smooth(labels, SmoothConfig(s_win=s_win)) == labels


def test_smooth_removes_interior_outlier():
    # outlier well inside a long segment, far from both boundaries
    labels = np.repeat([A, B, A], [20, 21, 20])
    labels[30] = C
    out = smooth(seq(labels), SmoothConfig(s_win=4))
    assert out.labels[30] == B
    assert out.labels.tolist() == np.repeat([A, B, A], [20, 21, 20]).tolist()


def test_smooth_trailing_frames_untouched():
    labels = seq([A, A, A, A, B, C])
    out = smooth(labels, SmoothConfig(s_win=4))
    assert out.labels[4:].tolist() == [B, C]


@pytest.mark.parametrize("s_win", [7, 2**62, 2**63, 10**20])
def test_smooth_window_longer_than_the_video_changes_nothing(s_win):
    labels = seq([A, B, A, A, C, A])
    assert smooth(labels, SmoothConfig(s_win=s_win)) == labels


def test_smooth_class_closure():
    rng = np.random.default_rng(2)
    for _ in range(100):
        labels = seq(rng.integers(0, 4, size=rng.integers(1, 50)))
        out = smooth(labels, SmoothConfig(s_win=int(rng.integers(1, 8))))
        assert set(out.labels.tolist()) <= set(labels.labels.tolist())


@st.composite
def labelled(draw):
    classes = draw(st.integers(1, 5))
    values = draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=60))
    return seq(values, classes)


@settings(max_examples=300, deadline=None)
@given(labelled(), st.just("auto") | st.integers(1, 12))
# The last W1 and its short W2 agree on A; frame 4 is past the last W1.
@example(seq([A, A, A, A, B, A, A], 2), 4)
def test_smooth_invariants(labels, s_win):
    cfg = SmoothConfig(s_win=s_win)
    out = smooth(labels, cfg)
    assert len(out) == len(labels)
    assert out.class_count == labels.class_count
    assert set(out.labels.tolist()) <= set(labels.labels.tolist())
    # W1 windows start at 0, s_win, 2 * s_win, ... while they fit.
    width = auto_s_win(labels) if s_win == "auto" else s_win
    untouched = len(labels) // width * width
    assert out.labels[untouched:].tolist() == labels.labels[untouched:].tolist()
    constant = seq(np.full(len(labels), labels.labels[0]), labels.class_count)
    assert smooth(constant, cfg) == constant


def every_window_smooth(labels, s_win):
    """Reference for smooth: visit every W1 [p, p + s_win) that fits, in order."""
    out = labels.labels.copy()
    p = 0
    while p + s_win <= out.size:
        w1 = out[p:p + s_win]
        w2 = out[p + s_win:p + 2 * s_win]
        m1 = _majority(w1)
        m2 = _majority(w2) if w2.size else m1
        if m1 == m2:
            keep = 0
            if p > 0:
                prev = out[p - 1]
                while keep < s_win and w1[keep] == prev:
                    keep += 1
            w1[keep:] = m1
        else:
            cut = s_win
            while cut > 0 and w1[cut - 1] == m2:
                cut -= 1
            w1[:cut] = m1
        p += s_win
    return out


@st.composite
def runs(draw):
    """Labels as runs of 1-5 classes, short runs (outliers) mixed with long ones."""
    classes = draw(st.integers(1, 5))
    lengths = st.integers(1, 3) | st.integers(4, 40)
    pairs = draw(st.lists(st.tuples(st.integers(0, classes - 1), lengths), min_size=1,
                          max_size=12))
    return seq(np.repeat(*zip(*pairs)), classes)


@settings(max_examples=500, deadline=None)
@given(runs(), st.data())
def test_smooth_equals_every_window_loop(labels, data):
    s_win = data.draw(st.just("auto") | st.integers(1, len(labels) + 3), label="s_win")
    width = auto_s_win(labels) if s_win == "auto" else s_win
    out = smooth(labels, SmoothConfig(s_win=s_win))
    np.testing.assert_array_equal(out.labels, every_window_smooth(labels, width))


def _bincount_majority(window):
    """Reference: the most frequent id, ties to the earliest in window order."""
    counts = np.bincount(window)
    return next(int(v) for v in window if counts[v] == counts.max())


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_majority_matches_bincount_reference(values):
    window = np.asarray(values, dtype=np.int64)
    assert _majority(window) == _bincount_majority(window)
    # The same window over ids too large to bincount.
    assert _majority(window + 10**12) == _bincount_majority(window) + 10**12


# -------------------------------------------------------------- auto_s_win

def test_auto_s_win_formula():
    labels = seq(np.repeat([A, B, A], [100, 200, 100]))  # boundaries 100, 300
    assert auto_s_win(labels) == 20


def test_auto_s_win_no_boundaries_uses_length():
    labels = seq([A] * 400)
    assert auto_s_win(labels) == 40


def test_auto_s_win_clamped_at_two():
    labels = seq(np.repeat([A, B, A, B], [15, 10, 8, 5]), classes=2)
    # widest gap 15 -> round(1.5) = 2 after clamping
    assert auto_s_win(labels) == 2


def test_smooth_auto_config():
    labels = seq(np.repeat([A, B], [60, 60]))
    out = smooth(labels, SmoothConfig(s_win="auto"))
    assert out == labels
