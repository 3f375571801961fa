import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actseg.core import (AUTO, BoundarySet, CorrectionConfig, FeatureSequence,
                         LabelSequence, boundaries_of, run_classes)
from actseg.correction import auto_window_params, correct_all, resolve_window_params
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
