import numpy as np
import pytest

from actseg.core import boundaries_of
from actseg.detect import frame_scores
from actseg.similarity import Metric
from actseg.synth import SynthSpec, generate, perturb_boundaries


def test_two_clean_segments():
    feat, labels, bounds = generate(SynthSpec(dim=4, segment_lengths=(16, 16)))
    assert bounds.indices == (16,)
    assert np.all(feat.values[:16] == feat.values[0])
    assert np.all(feat.values[16:] == feat.values[16])
    assert not np.array_equal(feat.values[0], feat.values[16])


def test_generate_deterministic():
    spec = SynthSpec(dim=8, num_segments=4, length_range=(20, 40),
                     noise_sigma=0.1, seed=77)
    f1, l1, b1 = generate(spec)
    f2, l2, b2 = generate(spec)
    assert np.array_equal(f1.values, f2.values)
    assert l1 == l2
    assert b1 == b2


def test_labels_match_boundaries():
    _, labels, bounds = generate(SynthSpec(dim=3, num_segments=5,
                                           length_range=(10, 30), seed=5))
    assert boundaries_of(labels) == bounds


def test_mean_separation_enforced():
    feat, labels, _ = generate(SynthSpec(dim=6, segment_lengths=(5, 5, 5),
                                         mean_separation=2.0, seed=9))
    means = [feat.values[labels.labels == c].mean(axis=0) for c in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) >= 2.0


def test_cosine_minima_exactly_at_boundaries():
    feat, _, bounds = generate(SynthSpec(dim=8, segment_lengths=(25, 30, 25), seed=3))
    scores = frame_scores(feat, Metric.COSINE)
    boundary_scores = {scores[b - 1] for b in bounds}
    interior = np.delete(scores, [b - 1 for b in bounds])
    assert max(boundary_scores) < interior.min()


def test_perturb_identity_at_zero():
    _, labels, _ = generate(SynthSpec(dim=2, segment_lengths=(10, 12), seed=1))
    assert perturb_boundaries(labels, 0, seed=3) == labels


def test_perturb_moves_within_range():
    _, labels, bounds = generate(SynthSpec(dim=2, segment_lengths=(20, 20, 20), seed=2))
    noisy = perturb_boundaries(labels, 5, seed=11)
    for old, new in zip(bounds, boundaries_of(noisy)):
        assert abs(new - old) <= 5
    assert len(boundaries_of(noisy)) == len(bounds)


def test_perturb_deterministic():
    _, labels, _ = generate(SynthSpec(dim=2, segment_lengths=(20, 20, 20), seed=2))
    a = perturb_boundaries(labels, 5, seed=4)
    b = perturb_boundaries(labels, 5, seed=4)
    assert a == b


def test_perturb_rejects_large_shift():
    _, labels, _ = generate(SynthSpec(dim=2, segment_lengths=(6, 6), seed=0))
    with pytest.raises(ValueError, match="half the minimum"):
        perturb_boundaries(labels, 3, seed=0)


def test_infeasible_spec_errors():
    with pytest.raises(ValueError, match="infeasible|positive"):
        SynthSpec(dim=2, segment_lengths=())
    with pytest.raises(ValueError, match="infeasible"):
        generate(SynthSpec(dim=1, segment_lengths=(2,) * 80, mean_separation=10.0))
