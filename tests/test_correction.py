import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actseg import correction
from actseg.core import (AUTO, BoundarySet, CorrectionConfig, FeatureSequence,
                         LabelSequence, boundaries_of, run_classes)
from actseg.correction import (_MAX_ITERATIONS, BoundaryRecord, IterationProposals,
                               WindowState, _clamped_window, _kmeans2, _pair_scores,
                               _window_grams, auto_window_params, correct_all,
                               resolve_window_params)
from actseg.similarity import (_KMEANS_MAX_ITER, Metric, block_similarity, kmeans,
                               transition_index)
from actseg.synth import SynthSpec, generate, perturb_boundaries


def step_video(lengths, dim=6, sigma=0.0, seed=0):
    spec = SynthSpec(dim=dim, segment_lengths=tuple(lengths),
                     noise_sigma=sigma, seed=seed)
    return generate(spec)


def corrected_at(feat, labels, boundary, cfg):
    """Corrected frame of one boundary, read from correct_all's report."""
    _, report = correct_all(feat, labels, cfg)
    return next(r.corrected for r in report.records if r.original == boundary)


# ------------------------------------------------------ auto_window_params

def test_auto_params_small_ratio_clamps_up():
    # gaps 20, 40, 60 -> ratio 3 -> clamped to 4, split in half
    bounds = BoundarySet((20, 40, 80, 140))
    assert auto_window_params(bounds) == (4, 2)


def test_auto_params_ratio_16():
    bounds = BoundarySet((10, 20, 180))
    assert auto_window_params(bounds) == (16, 8)


def test_auto_params_fallback():
    assert auto_window_params(BoundarySet((30,))) == (16, 4)
    assert auto_window_params(BoundarySet(())) == (16, 4)


@given(st.lists(st.integers(1, 500), max_size=12))
def test_auto_params_halve_an_even_window(gaps):
    bounds = BoundarySet(tuple(np.cumsum(gaps).tolist()))
    b_win, b_seg = auto_window_params(bounds)
    if len(bounds) < 2:
        assert (b_win, b_seg) == (16, 4)
    else:
        assert b_seg == b_win // 2 and b_win % 2 == 0 and 4 <= b_win <= 64
        assert resolve_window_params(CorrectionConfig(AUTO, AUTO), bounds) == (b_win, b_seg)


# ------------------------------------------------ one boundary's record

def test_recovers_step_at_16_from_12():
    feat, labels, _ = step_video([16, 24])
    shifted = LabelSequence(np.repeat([0, 1], [12, 28]), 2)
    assert corrected_at(feat, shifted, 12, CorrectionConfig(16, 4)) == 16


def test_fixpoint_on_clean_step():
    feat, labels, bounds = step_video([20, 20])
    b = bounds.indices[0]
    assert corrected_at(feat, labels, b, CorrectionConfig(16, 4)) == b


def test_constant_features_keep_boundary():
    feat = FeatureSequence(np.ones((40, 4)))
    labels = LabelSequence(np.repeat([0, 1], [18, 22]), 2)
    assert corrected_at(feat, labels, 18, CorrectionConfig(16, 4)) == 18


def test_all_shifts_recovered_exactly():
    # every legal offset within the window must come back to the true frame
    feat, labels, bounds = step_video([40, 40], seed=2)
    true = bounds.indices[0]
    for shift in range(-7, 8):
        if shift == 0:
            continue
        shifted = LabelSequence(np.repeat([0, 1], [true + shift, 80 - true - shift]), 2)
        got = corrected_at(feat, shifted, true + shift, CorrectionConfig(16, 4))
        assert got == true, f"shift {shift}: got {got}"


def test_gtea_style_window_8_4():
    feat, labels, bounds = step_video([30, 30], seed=5)
    true = bounds.indices[0]
    for shift in (-3, -1, 2, 3):
        shifted = LabelSequence(np.repeat([0, 1], [true + shift, 60 - true - shift]), 2)
        assert corrected_at(feat, shifted, true + shift, CorrectionConfig(8, 4)) == true


# ------------------------------------------------------------- correct_all

def test_no_boundaries_unchanged():
    feat = FeatureSequence(np.random.default_rng(0).normal(size=(30, 4)))
    labels = LabelSequence(np.zeros(30, dtype=np.int64), 2)
    out, report = correct_all(feat, labels)
    assert out == labels
    assert report.records == ()


def test_both_boundaries_recovered():
    feat, labels, bounds = step_video([40, 44, 40], seed=3)
    noisy = perturb_boundaries(labels, 4, seed=8)
    out, report = correct_all(feat, noisy, CorrectionConfig(16, 4))
    assert boundaries_of(out).indices == bounds.indices
    assert len(report.records) == 2


def test_idempotent_on_clean_steps():
    feat, labels, _ = step_video([40, 44, 40], seed=4)
    noisy = perturb_boundaries(labels, 4, seed=1)
    once, _ = correct_all(feat, noisy, CorrectionConfig(16, 4))
    twice, _ = correct_all(feat, once, CorrectionConfig(16, 4))
    assert once == twice


@st.composite
def correction_cases(draw):
    """Labels of 2-6 segments, neighbours differing, over structureless
    features with optional constant blocks, plus a window config and seed."""
    lengths = draw(st.lists(st.integers(9, 40), min_size=2, max_size=6))
    classes = [draw(st.integers(0, 3))]
    for _ in lengths[1:]:
        classes.append(draw(st.integers(0, 3).filter(lambda c, prev=classes[-1]: c != prev)))
    labels = np.repeat(classes, lengths)
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).normal(size=(labels.size, draw(st.integers(1, 8))))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, labels.size - 1))
        values[start:start + draw(st.integers(1, 40))] = draw(st.sampled_from([0.0, 1.0, -2.5]))
    cfg = draw(st.sampled_from([(16, 4), (8, 2), (8, 4), (AUTO, AUTO)]))
    return LabelSequence(labels, 4), FeatureSequence(values), CorrectionConfig(*cfg), seed


@pytest.mark.filterwarnings("ignore:zero-norm block:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(correction_cases())
def test_segment_classes_and_locality_preserved_on_noise_features(case):
    # even on structureless features the rewrite must stay inside each
    # boundary's window and preserve the segment class string
    labels, feat, cfg, seed = case
    out, report = correct_all(feat, labels, cfg, seed=seed)
    assert run_classes(out) == run_classes(labels)
    got = boundaries_of(out).indices
    assert len(got) == len(boundaries_of(labels))
    assert all(b2 > b1 for b1, b2 in zip(got, got[1:]))
    b_win, _ = resolve_window_params(cfg, boundaries_of(labels))
    windows = [(r.original, r.window) for r in report.records if r.window is not None]
    for boundary, w in windows:
        assert boundary - b_win // 2 <= w.start < boundary < w.end <= boundary + b_win // 2
    for frame in np.flatnonzero(out.labels != labels.labels):
        assert any(w.start <= frame < w.end for _, w in windows), \
            f"frame {frame} changed outside every window"


@st.composite
def piecewise_constant_cases(draw):
    """Labels of 2-6 segments, neighbours differing, over float32 or float64
    features made of runs of one repeated frame (some of them zero), plus a
    window config and seed."""
    lengths = draw(st.lists(st.integers(9, 40), min_size=2, max_size=6))
    classes = [draw(st.integers(0, 3))]
    for _ in lengths[1:]:
        classes.append(draw(st.integers(0, 3).filter(lambda c, prev=classes[-1]: c != prev)))
    labels = np.repeat(classes, lengths)
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    values = np.empty((labels.size, draw(st.integers(1, 6))),
                      dtype=draw(st.sampled_from([np.float32, np.float64])))
    start = 0
    while start < labels.size:
        stop = start + draw(st.integers(1, 60))
        values[start:stop] = 0.0 if draw(st.booleans()) else rng.normal(size=values.shape[1])
        start = stop
    cfg = draw(st.sampled_from([(16, 4), (8, 2), (8, 4), (AUTO, AUTO)]))
    return LabelSequence(labels, 4), FeatureSequence(values), CorrectionConfig(*cfg), seed


@pytest.mark.filterwarnings("ignore:zero-norm block:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(piecewise_constant_cases())
def test_constant_window_keeps_its_boundary(case):
    labels, feat, cfg, seed = case
    _, report = correct_all(feat, labels, cfg, seed=seed)
    constant = [r for r in report.records if r.window is not None
                and (feat.values[r.window.start:r.window.end] == feat.values[r.window.start]).all()]
    for record in constant:
        assert record.corrected == record.original, record


def test_auto_config_runs():
    feat, labels, bounds = step_video([40, 44, 40], seed=6)
    noisy = perturb_boundaries(labels, 3, seed=2)
    out, _ = correct_all(feat, noisy, CorrectionConfig(AUTO, AUTO))
    assert run_classes(out) == run_classes(noisy)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frame_and_dimension_major_layouts_correct_alike(dtype):
    # A D x T load is a transposed view and is widened in that layout; the
    # same values in a T x D array must give the same correction.
    feat, labels, _ = step_video([40, 44, 36, 50], dim=64, sigma=1.5, seed=9)
    noisy = perturb_boundaries(labels, 4, seed=3)
    values = feat.values.astype(dtype)
    by_dim = FeatureSequence(np.ascontiguousarray(values.T).T)
    by_frame = FeatureSequence(np.ascontiguousarray(values))
    assert by_dim.values.strides[0] < by_dim.values.strides[1]
    out, report = correct_all(by_frame, noisy, CorrectionConfig(16, 4))
    assert correct_all(by_dim, noisy, CorrectionConfig(16, 4)) == (out, report)
    assert report.moved() > 0


def test_equal_frames_get_equal_gram_rows():
    # A window of one repeated frame must score and cluster as one frame,
    # so equal frames need equal rows of G, in either layout.
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.choice([1, 3, 5, 16, 64, 2048]))
        frames = int(rng.choice([4, 8, 12, 16, 32, 64]))
        values = rng.normal(size=(frames, dim))[rng.integers(0, frames, size=frames)]
        equal = np.nonzero((values[:, None] == values[None]).all(axis=2))
        for layout in (values, np.ascontiguousarray(values.T).T):
            gram = _window_grams(layout, [WindowState(0, frames)])[0]
            assert all(np.array_equal(gram[i], gram[j]) for i, j in zip(*equal))


def test_lockstep_batches_of_any_size_correct_alike(monkeypatch):
    # Windows are refined in lockstep in zero-padded batches; neither the
    # padding nor the batch a window shares may change its record.
    feat, labels, _ = step_video([30, 52, 24, 41, 60, 35], dim=8, sigma=1.0, seed=4)
    noisy = perturb_boundaries(labels, 5, seed=6)
    for cfg in (CorrectionConfig(16, 4), CorrectionConfig(24, 2), CorrectionConfig(AUTO, AUTO)):
        want = correct_all(feat, noisy, cfg, seed=2)
        monkeypatch.setattr(correction, "_BATCH_BYTES", 1)  # one window per batch
        assert correct_all(feat, noisy, cfg, seed=2) == want
        monkeypatch.undo()


# ------------------------------- Gram scores against the D-space kernels

@st.composite
def gram_windows(draw):
    """1-3 windows of one sub-segment width and dimension, 2-8 sub-segments
    each, with some frames zeroed and some duplicated, exactly or nearly."""
    b_seg = draw(st.integers(1, 8))
    dim = draw(st.one_of(st.integers(1, 64), st.just(2048)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        frames = draw(st.integers(2, 8)) * b_seg
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        w = rng.normal(size=(frames, dim)) * scale
        for _ in range(draw(st.integers(0, 3))):
            w[draw(st.integers(0, frames - 1))] = (
                w[draw(st.integers(0, frames - 1))]
                + draw(st.sampled_from([0.0, 1e-9])) * scale * rng.normal(size=dim))
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, frames - 1))
            w[start:start + draw(st.integers(1, 2 * b_seg))] = 0.0
        windows.append(w)
    return windows, b_seg


@settings(max_examples=100, deadline=None)
@given(gram_windows())
def test_gram_scores_match_d_space(case):
    # correct_all scores sub-segment pairs from zero-padded window Grams;
    # they must agree with block_similarity on the frames themselves.
    windows, b_seg = case
    widths = np.array([len(w) for w in windows])
    gram = np.zeros((len(windows), widths.max(), widths.max()))
    for padded, w in zip(gram, windows):
        padded[:len(w), :len(w)] = _window_grams(w, [WindowState(0, len(w))])[0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cosine, dtw = _pair_scores(gram, widths, b_seg)
    eps = np.finfo(np.float64).eps
    zero_norm_windows = 0
    for w, got_cos, got_dtw in zip(windows, cosine, dtw):
        blocks = w.reshape(-1, b_seg, w.shape[1])
        pairs = len(blocks) - 1
        zero = ~blocks.any(axis=(1, 2))
        zero_pair = zero[:-1] | zero[1:]
        zero_norm_windows += bool(zero_pair.any())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want_cos = block_similarity(blocks, Metric.COSINE)
        assert (got_cos[:pairs][zero_pair] == 0.0).all()
        assert np.abs(got_cos[:pairs] - want_cos).max() <= 1e-12
        # A Gram frame cost sqrt(G_ii + G_jj - 2 G_ij) of near-identical
        # frames can be about sqrt(D eps) |x| off, on each of a DTW path's
        # at most 2 b_seg - 1 cells.
        bound = (2 * b_seg - 1) * 4 * np.sqrt(w.shape[1] * eps) * np.linalg.norm(w, axis=1).max()
        assert np.abs(got_dtw[:pairs] - block_similarity(blocks, Metric.DTW)).max() <= bound
    assert [str(x.message) for x in caught] == \
        ["zero-norm block in cosine similarity, scored 0.0"] * zero_norm_windows


def test_batched_kmeans_breaks_ties_as_kmeans():
    # Every 1-D window of 3 or 4 points in {-2, ..., 2}, in one zero-padded
    # batch: the sums are exact, so frames equidistant from both centroids
    # are common, and kmeans' tie rules decide them.
    windows = [np.array(w, dtype=np.float64) for n in (3, 4)
               for w in itertools.product(range(-2, 3), repeat=n)]
    widths = np.array([len(w) for w in windows])
    gram = np.zeros((len(windows), 4, 4))
    for padded, w in zip(gram, windows):
        padded[:len(w), :len(w)] = np.outer(w, w)
    for seed in range(5):
        firsts = np.array([np.random.default_rng(seed).integers(n) for n in widths])
        got = _kmeans2(gram, widths, firsts)
        assert not got[widths == 3, 3].any()
        for w, labels in zip(windows, got):
            assert labels[:len(w)].tolist() == (kmeans(w, 2, seed) == 1).tolist(), (w, seed)


# ------------------------------------------- oracle: the per-step scoring loop
#
# correct_all computes every score and clustering from each window's Gram
# matrix G = W W^T. The oracle does the same arithmetic, term by term in
# index order, but plainly: one window and one step at a time, a scalar
# DTW double loop and an unbatched k-means. test_gram_scores_match_d_space
# ties the Gram scores to block_similarity.

def _reference_gram(values, start, end):
    cols = np.ascontiguousarray(np.asarray(values[start:end], dtype=np.float64).T)
    return cols.T @ cols.copy()


def _reference_scores(gram, start, end, b_seg):
    """Cosine and DTW scores of the consecutive sub-segment pairs of
    gram[start:end, start:end]."""
    cosine, dtw = [], []
    for left in range(start, end - b_seg, b_seg):
        right = left + b_seg
        dot = sq_left = sq_right = 0.0
        for i in range(b_seg):
            dot += gram[left + i, right + i]
            sq_left += gram[left + i, left + i]
            sq_right += gram[right + i, right + i]
        denom = np.sqrt(sq_left) * np.sqrt(sq_right)
        cosine.append(dot / denom if denom != 0.0 else 0.0)
        acc = np.full((b_seg + 1, b_seg + 1), np.inf)
        acc[0, 0] = 0.0
        for i in range(b_seg):
            for j in range(b_seg):
                r, c = left + i, right + j
                cost = np.sqrt(max(gram[r, r] + gram[c, c] - 2.0 * gram[r, c], 0.0))
                acc[i + 1, j + 1] = cost + min(acc[i, j], acc[i, j + 1], acc[i + 1, j])
        dtw.append(acc[b_seg, b_seg])
    return cosine, dtw


def _reference_kmeans2(gram, seed):
    """kmeans(frames, 2, seed) of the frames whose Gram is `gram`: each
    centroid is held as its dot with every frame and its squared norm."""
    n = gram.shape[0]
    diag = np.diag(gram)

    def dists(centroid):
        dot, sq = centroid
        return np.maximum(diag + sq - 2.0 * dot, 0.0)

    first = int(np.random.default_rng(seed).integers(n))
    second = int(np.argmax(dists((gram[:, first], gram[first, first]))))
    centroids = [(gram[:, first], gram[first, first]), (gram[:, second], gram[second, second])]
    labels = np.argmin([dists(c) for c in centroids], axis=0)
    for _ in range(_KMEANS_MAX_ITER):
        for j in (0, 1):
            members = np.flatnonzero(labels == j)
            if members.size:
                total = np.zeros(n)
                for k in members:
                    total += gram[:, k]
                dot = total / members.size
                sq = 0.0
                for k in members:
                    sq += dot[k]
                centroids[j] = (dot, sq / members.size)
        new_labels = np.argmin([dists(c) for c in centroids], axis=0)
        if (new_labels == labels).all():
            break
        labels = new_labels
    return labels ^ labels[0]


def _reference_refine(gram, b_seg, seed):
    """Oracle for one window's refinement: every step scores its own
    sub-segments and clusters its own frames."""
    start, end = 0, gram.shape[0]
    history = []
    while end - start > b_seg and len(history) < _MAX_ITERATIONS:
        m = (end - start) // b_seg
        cosine, dtw = _reference_scores(gram, start, end, b_seg)
        p_cos = int(np.argmin(cosine)) + 1
        p_dtw = int(np.argmax(dtw)) + 1
        clusters = _reference_kmeans2(gram[start:end, start:end], seed)
        ones = clusters.reshape(m, b_seg).sum(axis=1)
        p_clu = transition_index(2 * ones > b_seg)
        history.append(IterationProposals(p_cos, p_dtw, p_clu))
        proposals = [p_cos, p_dtw] + ([p_clu] if p_clu is not None else [])
        lo, hi = min(proposals), max(proposals)
        new_start = start + max(lo - 1, 0) * b_seg
        new_end = start + (hi + 1) * b_seg
        if new_end - new_start < end - start:
            start, end = new_start, new_end
        elif end - start > 2 * b_seg:
            start, end = start + b_seg, end - b_seg
        else:
            idx = transition_index(clusters)
            return None if idx is None else start + idx, tuple(history)
    if end - start < 2:
        return None, tuple(history)
    idx = transition_index(_reference_kmeans2(gram[start:end, start:end], seed))
    return None if idx is None else start + idx, tuple(history)


def _reference_correct_all(feat, labels, cfg, seed):
    bounds = boundaries_of(labels)
    b_win, b_seg = resolve_window_params(cfg, bounds)
    original = labels.labels
    out = original.copy()
    records = []
    for pos, boundary in enumerate(bounds.indices):
        window = _clamped_window(bounds.indices, pos, feat.frames, b_win, b_seg)
        if window is None:
            records.append(BoundaryRecord(boundary, boundary, ()))
            continue
        ws, we = window.start, window.end
        offset, history = _reference_refine(_reference_gram(feat.values, ws, we), b_seg, seed)
        corrected = boundary if offset is None else ws + offset
        records.append(BoundaryRecord(boundary, corrected, history, window))
        out[ws:min(corrected, we)] = original[boundary - 1]
        out[max(corrected, ws):we] = original[boundary]
    return LabelSequence(out, labels.class_count), tuple(records)


def _alternating_ramp(frames):
    """Frames of sign (-1)^i and growing size: in every window the first
    pair scores lowest on cosine and the last highest on DTW, so b_seg 1
    windows narrow by one sub-segment a side per step and hit the step cap."""
    i = np.arange(frames)
    return ((-1.0) ** i * (1 + 0.01 * i))[:, None]


@st.composite
def oracle_cases(draw):
    """Step features with noise, or an alternating ramp, some frames zeroed,
    under labels with shifted boundaries, and a window config with b_seg 1-8."""
    b_seg = draw(st.integers(1, 8))
    subsegments = draw(st.integers(2, 64 // b_seg).filter(lambda k: k * b_seg % 2 == 0))
    b_win = subsegments * b_seg
    lengths = draw(st.lists(st.integers(max(4, b_win // 3), 2 * b_win + 8),
                            min_size=2, max_size=5))
    classes = np.arange(len(lengths)) % 3
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        values = _alternating_ramp(sum(lengths))
    else:
        rng = np.random.default_rng(seed)
        dim = draw(st.integers(1, 12))
        means = rng.normal(size=(len(lengths), dim)) * draw(st.sampled_from([0.0, 0.5, 3.0]))
        values = np.repeat(means, lengths, axis=0) + rng.normal(size=(sum(lengths), dim))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, values.shape[0] - 1))
        values[start:start + draw(st.integers(1, 2 * b_seg))] = 0.0
    shifted = np.repeat(classes, lengths)
    for pos, edge in enumerate(np.cumsum(lengths)[:-1]):
        shift = draw(st.integers(-3, 3))
        if shift < 0:
            shifted[edge + shift:edge] = classes[pos + 1]
        else:
            shifted[edge:edge + shift] = classes[pos]
    return FeatureSequence(values), LabelSequence(shifted, 3), CorrectionConfig(b_win, b_seg), seed


def _assert_matches_reference(feat, labels, cfg, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out, report = correct_all(feat, labels, cfg, seed=seed)
        want_out, want_records = _reference_correct_all(feat, labels, cfg, seed)
    assert out == want_out
    assert report.records == want_records
    return report


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_correct_all_matches_per_step_reference(case):
    _assert_matches_reference(*case)


def test_matches_reference_at_step_cap_and_on_zero_norm_window():
    values = np.vstack([_alternating_ramp(400),
                        np.random.default_rng(7).normal(size=(200, 1))])
    values[430:434] = 0.0  # zero-norm frames inside the second boundary's window
    labels = LabelSequence(np.repeat([0, 1, 0], [200, 240, 160]), 2)
    with pytest.warns(RuntimeWarning, match="zero-norm"):
        correct_all(FeatureSequence(values), labels, CorrectionConfig(64, 1))
    report = _assert_matches_reference(FeatureSequence(values), labels,
                                       CorrectionConfig(64, 1), seed=3)
    assert report.records[0].iterations == _MAX_ITERATIONS


def test_zero_norm_warning_fires_once_per_window():
    feat, labels, _ = step_video([20, 20])
    values = feat.values.copy()
    values[16:20] = 0.0  # one whole sub-segment of the 16/4 window
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = correct_all(FeatureSequence(values), labels, CorrectionConfig(16, 4))
    assert report.records[0].iterations > 1
    assert [str(w.message) for w in caught] == ["zero-norm block in cosine similarity, scored 0.0"]
