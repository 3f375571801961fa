"""Domain types and conversions between frame-wise and segment-wise views.

A video lives here as four views: a T x D feature matrix, a length-T label
vector, the ordered frame indices where the label changes, and the
run-length (segment) timeline. All values are immutable after construction
and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

AUTO = "auto"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """T x D matrix of per-frame feature activations; finite values only.

    Holds its own read-only float64 C-order copy, so the caller's array
    stays writeable and later writes to it do not reach the sequence.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"features must be a T x D matrix with T, D >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            t, d = map(int, np.argwhere(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite feature value at frame {t}, dim {d}")
        object.__setattr__(self, "values", _freeze(arr))

    def __reduce__(self):
        # Rebuild through the constructor, so an unpickled copy is frozen too.
        return type(self), (self.values,)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class LabelSequence:
    """Length-T vector of dense integer class ids in [0, class_count)."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if arr.ndim != 1:
            raise ValueError(f"labels must be a 1-D vector, got shape {arr.shape}")
        if self.class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {self.class_count}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.class_count):
            raise ValueError(f"label outside [0, {self.class_count}) in sequence")
        object.__setattr__(self, "labels", _freeze(arr))

    def __reduce__(self):
        return type(self), (self.labels, self.class_count)

    def __len__(self) -> int:
        return self.labels.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelSequence):
            return NotImplemented
        return (self.class_count == other.class_count
                and np.array_equal(self.labels, other.labels))

    __hash__ = None


@dataclass(frozen=True)
class BoundarySet:
    """Strictly increasing frame indices where a new segment begins."""

    indices: tuple[int, ...] = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 1 for i in idx):
            raise ValueError(f"boundary indices must be >= 1, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"boundary indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __bool__(self) -> bool:
        return bool(self.indices)

    def __contains__(self, item) -> bool:
        return int(item) in self.indices


@dataclass(frozen=True)
class Segment:
    label: int
    start: int  # inclusive
    end: int    # exclusive


@dataclass(frozen=True)
class SegmentTimeline:
    """Run-length view: segments tile [0, T) and neighbours differ in class."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("empty timeline")
        cursor = 0
        for seg in segs:
            if seg.start != cursor or seg.end <= seg.start:
                raise ValueError(f"segments must tile [0, T) without gaps, bad segment {seg}")
            cursor = seg.end
        for a, b in zip(segs, segs[1:]):
            if a.label == b.label:
                raise ValueError(f"consecutive segments share class {a.label}")
        object.__setattr__(self, "segments", segs)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)


def to_timeline(labels: LabelSequence) -> SegmentTimeline:
    """Run-length encode a label sequence into a segment timeline."""
    arr = labels.labels
    if arr.size == 0:
        raise ValueError("empty sequence")
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [arr.size]))
    segs = tuple(Segment(int(arr[s]), int(s), int(e)) for s, e in zip(starts, ends))
    return SegmentTimeline(segs)


def boundaries_of(labels: LabelSequence) -> BoundarySet:
    """Frame indices i where labels[i] != labels[i-1]."""
    arr = labels.labels
    if arr.size == 0:
        raise ValueError("empty sequence")
    return BoundarySet(tuple(int(i) for i in np.flatnonzero(arr[1:] != arr[:-1]) + 1))


def from_boundaries(bounds: BoundarySet, labels_per_segment: Sequence[int],
                    frames: int, class_count: int | None = None) -> LabelSequence:
    """Inverse of boundaries_of: build labels from boundaries and run classes."""
    classes = [int(c) for c in labels_per_segment]
    if len(classes) != len(bounds) + 1:
        raise ValueError(f"need {len(bounds) + 1} segment classes for {len(bounds)} "
                         f"boundaries, got {len(classes)}")
    edges = [0, *bounds.indices, frames]
    if edges[-2] >= frames:
        raise ValueError(f"boundary {edges[-2]} outside [1, {frames - 1}]")
    arr = np.empty(frames, dtype=np.int64)
    for cls, start, end in zip(classes, edges[:-1], edges[1:]):
        arr[start:end] = cls
    if class_count is None:
        class_count = max(classes) + 1
    return LabelSequence(arr, class_count)


def run_classes(labels: LabelSequence) -> list[int]:
    """Ordered segment classes of a label sequence."""
    return [seg.label for seg in to_timeline(labels)]


@dataclass(frozen=True)
class CorrectionConfig:
    """Tunables for the boundary correction pass.

    b_win is the feature window around a candidate boundary, b_seg the
    sub-segment granularity inside it; either may be AUTO to derive sizes
    from the spread of boundary gaps.
    """

    b_win: int | str = 16
    b_seg: int | str = 4

    def __post_init__(self):
        for name, value in (("b_win", self.b_win), ("b_seg", self.b_seg)):
            if isinstance(value, str):
                if value != AUTO:
                    raise ValueError(f"{name} must be a positive int or {AUTO!r}, got {value!r}")
            elif value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if isinstance(self.b_win, int):
            if self.b_win % 2:
                raise ValueError(f"b_win must be even, got {self.b_win}")
            if isinstance(self.b_seg, int):
                if self.b_win < 2 * self.b_seg:
                    raise ValueError(f"b_win must be >= 2 * b_seg ({self.b_win} < {2 * self.b_seg})")
                if self.b_win % self.b_seg:
                    raise ValueError(f"b_win must be divisible by b_seg "
                                     f"({self.b_win} % {self.b_seg} != 0)")


@dataclass(frozen=True)
class DetectConfig:
    """Tunables for the unsupervised boundary detection pass.

    b_intrv is the minimum allowed gap (frames) between boundaries and
    doubles as the merge radius; AUTO derives it from the per-method
    proposals. num_classes is the cluster count for the global clustering
    pass. dim_reduce, when set, projects features to that many dimensions
    with a seeded random linear map before any scoring.
    """

    num_classes: int
    b_intrv: int | str = AUTO
    dim_reduce: int | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if isinstance(self.b_intrv, str):
            if self.b_intrv != AUTO:
                raise ValueError(f"b_intrv must be a positive int or {AUTO!r}, got {self.b_intrv!r}")
        elif self.b_intrv < 1:
            raise ValueError(f"b_intrv must be >= 1, got {self.b_intrv}")
        if self.dim_reduce is not None and self.dim_reduce < 1:
            raise ValueError(f"dim_reduce must be >= 1, got {self.dim_reduce}")
