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


def check_int_or_auto(name: str, value: int | str) -> None:
    """Raise ValueError unless `value` is AUTO or an int >= 1."""
    if isinstance(value, str):
        if value != AUTO:
            raise ValueError(f"{name} must be a positive int or {AUTO!r}, got {value!r}")
    elif value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """T x D matrix of per-frame feature activations; finite values only.

    Holds float32 or float64 values in their own layout, so a D x T load
    stays a transposed view; other dtypes become float64. Read-only: a
    writeable array is copied first, so the caller's later writes do not
    reach the sequence. Kernels widen the frames they read to float64.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"features must be a T x D matrix with T, D >= 1, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        elif arr.flags.writeable:
            arr = arr.copy(order="K")
        # min and max are NaN or infinite when any value is, and need no T x D mask.
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            f, d = map(int, np.argwhere(~np.isfinite(arr))[0])
            raise ValueError(f"non-finite feature value at frame {f}, dim {d}")
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
    """Length-T vector of dense integer class ids in [0, class_count), T >= 1."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if arr.ndim != 1:
            raise ValueError(f"labels must be a 1-D vector, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("empty sequence")
        if self.class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {self.class_count}")
        if arr.min() < 0 or arr.max() >= self.class_count:
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


def runs(values) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) index of each maximal run of equal values in
    a 1-D array, in order; an empty array has no runs."""
    arr = np.asarray(values)
    change = np.flatnonzero(arr[1:] != arr[:-1]) + 1
    if arr.size == 0:
        return change, change
    return np.concatenate(([0], change)), np.concatenate((change, [arr.size]))


def to_timeline(labels: LabelSequence) -> tuple[Segment, ...]:
    """Run-length encode a label sequence: the segments tile [0, T) in order,
    and neighbouring segments differ in class."""
    arr = labels.labels
    starts, ends = runs(arr)
    return tuple(map(Segment, arr[starts].tolist(), starts.tolist(), ends.tolist()))


def boundaries_of(labels: LabelSequence) -> BoundarySet:
    """Frame indices i where labels[i] != labels[i-1]."""
    return BoundarySet(tuple(runs(labels.labels)[0][1:].tolist()))


def from_boundaries(bounds: BoundarySet, labels_per_segment: Sequence[int],
                    frames: int, class_count: int) -> LabelSequence:
    """Inverse of boundaries_of: build labels from boundaries and run classes."""
    classes = [int(c) for c in labels_per_segment]
    if len(classes) != len(bounds) + 1:
        raise ValueError(f"need {len(bounds) + 1} segment classes for {len(bounds)} "
                         f"boundaries, got {len(classes)}")
    edges = [0, *bounds.indices, frames]
    if edges[-2] >= frames:
        raise ValueError(f"boundary {edges[-2]} outside [1, {frames - 1}]")
    return LabelSequence(np.repeat(classes, np.diff(edges)), class_count)


def run_classes(labels: LabelSequence) -> list[int]:
    """Ordered segment classes of a label sequence."""
    return labels.labels[runs(labels.labels)[0]].tolist()


@dataclass(frozen=True)
class CorrectionConfig:
    """Tunables for the boundary correction pass.

    b_win is the feature window around a candidate boundary, b_seg the
    sub-segment granularity inside it. Both are numbers, or both are AUTO
    to derive sizes from the spread of boundary gaps.
    """

    b_win: int | str = 16
    b_seg: int | str = 4

    def __post_init__(self):
        check_int_or_auto("b_win", self.b_win)
        check_int_or_auto("b_seg", self.b_seg)
        if (self.b_win == AUTO) != (self.b_seg == AUTO):
            raise ValueError(f"b_win and b_seg must both be {AUTO!r} or both be numbers, "
                             f"got b_win={self.b_win!r}, b_seg={self.b_seg!r}")
        if self.b_win == AUTO:
            return
        if self.b_win % 2:
            raise ValueError(f"b_win must be even, got {self.b_win}")
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
    pass. dim_reduce, when set and below the feature width, projects
    features to that many dimensions with a seeded random linear map
    before any scoring (see `projects`).
    """

    num_classes: int
    b_intrv: int | str = AUTO
    dim_reduce: int | None = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        check_int_or_auto("b_intrv", self.b_intrv)
        if self.dim_reduce is not None and self.dim_reduce < 1:
            raise ValueError(f"dim_reduce must be >= 1, got {self.dim_reduce}")

    def projects(self, dim: int) -> bool:
        """Whether detection projects `dim`-wide features to dim_reduce dims."""
        return self.dim_reduce is not None and self.dim_reduce < dim
