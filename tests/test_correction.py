import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actseg.core import (AUTO, BoundarySet, CorrectionConfig, FeatureSequence,
                         LabelSequence, boundaries_of, run_classes)
from actseg.correction import (_MAX_ITERATIONS, BoundaryRecord, IterationProposals,
                               _clamped_window, auto_window_params, correct_all,
                               resolve_window_params)
from actseg.similarity import Metric, block_similarity, kmeans, transition_index
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


def test_auto_config_runs():
    feat, labels, bounds = step_video([40, 44, 40], seed=6)
    noisy = perturb_boundaries(labels, 3, seed=2)
    out, _ = correct_all(feat, noisy, CorrectionConfig(AUTO, AUTO))
    assert run_classes(out) == run_classes(noisy)


# ------------------------------------------- oracle: the per-step scoring loop

def _reference_refine(values, start, end, b_seg, seed):
    """Oracle for correct_all's refine loop, with no shared work: every
    step scores its own sub-segments, and the final window is clustered
    afresh afterwards."""
    history = []
    while end - start > b_seg and len(history) < _MAX_ITERATIONS:
        m = (end - start) // b_seg
        segs = values[start:end].reshape(m, b_seg, values.shape[1])
        p_cos = int(np.argmin(block_similarity(segs, Metric.COSINE))) + 1
        p_dtw = int(np.argmax(block_similarity(segs, Metric.DTW))) + 1
        ones = kmeans(values[start:end], 2, seed).reshape(m, b_seg).sum(axis=1)
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
            break
    return start, end, tuple(history)


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
        start, end, history = _reference_refine(feat.values, ws, we, b_seg, seed)
        corrected = boundary
        if end - start >= 2:
            idx = transition_index(kmeans(feat.values[start:end], 2, seed))
            if idx is not None:
                corrected = start + idx
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
