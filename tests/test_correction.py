import numpy as np

from actseg.core import (AUTO, BoundarySet, CorrectionConfig, FeatureSequence,
                         LabelSequence, boundaries_of, run_classes)
from actseg.correction import auto_window_params, correct_all
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


def test_segment_classes_and_locality_preserved_on_noise_features():
    # even on structureless features the rewrite must stay local and
    # preserve the segment class string
    rng = np.random.default_rng(42)
    for case in range(50):
        n_segs = int(rng.integers(2, 6))
        lengths = rng.integers(9, 30, size=n_segs)
        labels = np.repeat(np.arange(n_segs) % 3, lengths)
        ls = LabelSequence(labels, 3)
        feat = FeatureSequence(rng.normal(size=(labels.size, 4)))
        cfg = CorrectionConfig(8, 2)
        out, _ = correct_all(feat, ls, cfg, seed=case)
        assert run_classes(out) == run_classes(ls)
        moved = np.flatnonzero(out.labels != ls.labels)
        for frame in moved:
            assert any(abs(frame - b) <= 4 for b in boundaries_of(ls)), \
                f"frame {frame} changed outside every window"
        got = boundaries_of(out).indices
        assert all(b2 > b1 for b1, b2 in zip(got, got[1:]))


def test_auto_config_runs():
    feat, labels, bounds = step_video([40, 44, 40], seed=6)
    noisy = perturb_boundaries(labels, 3, seed=2)
    out, _ = correct_all(feat, noisy, CorrectionConfig(AUTO, AUTO))
    assert run_classes(out) == run_classes(noisy)
