"""Deterministic synthetic videos: piecewise-constant features with known boundaries.

Each segment gets its own mean vector (optionally with i.i.d. Gaussian noise
on top), so every boundary is recoverable by construction. Used as the
verifiable ground truth for the correction and detection passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoundarySet, FeatureSequence, LabelSequence, from_boundaries, runs

_MAX_MEAN_DRAWS = 10_000


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic video.

    Segment lengths are either explicit or sampled uniformly from
    length_range for num_segments segments. Means are sampled with a
    minimum pairwise separation.
    """

    dim: int
    segment_lengths: tuple[int, ...] | None = None
    num_segments: int | None = None
    length_range: tuple[int, int] | None = None
    mean_separation: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.segment_lengths is not None:
            lengths = tuple(int(x) for x in self.segment_lengths)
            if not lengths or any(x < 1 for x in lengths):
                raise ValueError(f"segment lengths must be positive, got {lengths}")
            object.__setattr__(self, "segment_lengths", lengths)
        elif self.num_segments is None or self.length_range is None:
            raise ValueError("need explicit segment_lengths or num_segments + length_range")
        else:
            lo, hi = self.length_range
            if self.num_segments < 1 or lo < 1 or hi < lo:
                raise ValueError(f"infeasible spec: {self.num_segments} segments "
                                 f"with length_range {self.length_range}")
        # Written so that NaN fails too.
        if not 0 < self.mean_separation < math.inf:
            raise ValueError(f"mean_separation must be finite and > 0, "
                             f"got {self.mean_separation}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _sample_means(rng: np.random.Generator, count: int, dim: int,
                  separation: float) -> np.ndarray:
    """Means drawn at pairwise distance >= separation (rejection sampling)."""
    chosen: list[np.ndarray] = []
    for _ in range(_MAX_MEAN_DRAWS):
        cand = rng.normal(0.0, separation, size=dim)
        if all(np.linalg.norm(cand - m) >= separation for m in chosen):
            chosen.append(cand)
            if len(chosen) == count:
                return np.stack(chosen)
    raise ValueError(f"infeasible spec: could not place {count} means at "
                     f"separation {separation} in {dim} dims")


def generate(spec: SynthSpec) -> tuple[FeatureSequence, LabelSequence, BoundarySet]:
    """Build one video; bit-identical for identical specs."""
    rng = np.random.default_rng(spec.seed)
    if spec.segment_lengths is not None:
        lengths = np.asarray(spec.segment_lengths, dtype=np.int64)
    else:
        lo, hi = spec.length_range
        lengths = rng.integers(lo, hi + 1, size=spec.num_segments)
    count = lengths.size
    means = _sample_means(rng, count, spec.dim, spec.mean_separation)
    labels = np.repeat(np.arange(count, dtype=np.int64), lengths)
    values = means[labels]
    if spec.noise_sigma > 0:
        values = values + rng.normal(0.0, spec.noise_sigma, size=values.shape)
    bounds = BoundarySet(tuple(int(x) for x in np.cumsum(lengths)[:-1]))
    values.setflags(write=False)  # no other reference: FeatureSequence holds it uncopied
    return FeatureSequence(values), LabelSequence(labels, count), bounds


def perturb_boundaries(labels: LabelSequence, max_shift: int, seed: int) -> LabelSequence:
    """Move every boundary by a uniform integer in [-max_shift, max_shift].

    Segment order and classes are preserved. Requires max_shift to be less
    than half the minimum segment length so segments cannot merge.
    """
    if max_shift < 0:
        raise ValueError(f"max_shift must be >= 0, got {max_shift}")
    starts, ends = runs(labels.labels)
    min_len = int((ends - starts).min())
    if max_shift > 0 and 2 * max_shift >= min_len:
        raise ValueError(f"max_shift {max_shift} must be < half the minimum "
                         f"segment length {min_len}")
    if len(starts) == 1 or max_shift == 0:
        return LabelSequence(labels.labels.copy(), labels.class_count)
    rng = np.random.default_rng(seed)
    shifts = rng.integers(-max_shift, max_shift + 1, size=len(starts) - 1)
    moved = BoundarySet(tuple((starts[1:] + shifts).tolist()))
    return from_boundaries(moved, labels.labels[starts], len(labels), labels.class_count)
