"""Frame-wise prediction voting and segment smoothing.

Voting fuses multiple frame-wise predictions per frame by majority, with a
trusted source breaking ties. Smoothing slides a pair of windows over a
prediction: the first window is rewritten to its majority class while the
second probes whether a new segment is about to start, so genuine
boundaries survive while outlier classes inside segments are removed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import AUTO, LabelSequence, check_int_or_auto, runs


@dataclass(frozen=True)
class SmoothConfig:
    """s_win is the window length in frames (or AUTO to derive it from the
    widest boundary gap); both windows advance by s_win frames per step."""

    s_win: int | str = AUTO

    def __post_init__(self):
        check_int_or_auto("s_win", self.s_win)


@dataclass(frozen=True)
class PredictionSet:
    """Two or more equal-length predictions plus the index of the source
    trusted to break total disagreement (default: the last one). Their
    class counts may differ."""

    sources: tuple[LabelSequence, ...]
    trusted_index: int = -1

    def __post_init__(self):
        sources = tuple(self.sources)
        if len(sources) < 2:
            raise ValueError(f"need at least 2 prediction sources, got {len(sources)}")
        length = len(sources[0])
        for i, s in enumerate(sources[1:], start=1):
            if len(s) != length:
                raise ValueError(f"prediction length mismatch: source {i} has "
                                 f"{len(s)} frames, source 0 has {length}")
        trusted = self.trusted_index
        if trusted < 0:
            trusted += len(sources)
        if not 0 <= trusted < len(sources):
            raise ValueError(f"trusted_index {self.trusted_index} out of range")
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "trusted_index", trusted)


def vote(preds: PredictionSet) -> LabelSequence:
    """Frame-wise majority vote across prediction sources.

    A class with strictly more votes than every other wins outright. On a
    tied maximum the trusted source wins if its class is among the leaders
    (this also covers total disagreement, where every class has one vote);
    otherwise the leader voted by the lowest-indexed source wins. The
    result has the largest class count of the sources.
    """
    stack = np.stack([s.labels for s in preds.sources])
    # votes[s, t]: how many sources agree with source s at frame t
    votes = (stack[:, None] == stack[None]).sum(axis=1)
    leads = votes == votes.max(axis=0)
    trusted = preds.trusted_index
    first_leader = stack[leads.argmax(axis=0), np.arange(stack.shape[1])]
    out = np.where(leads[trusted], stack[trusted], first_leader)
    return LabelSequence(out, max(s.class_count for s in preds.sources))


def _majority(window: np.ndarray) -> int:
    """Most frequent value in `window`; a tie goes to the one seen first.

    Counts only the values present (a bare class id can be any int64). The
    Counter keeps first-appearance order and max keeps the first of equals.
    """
    counts = Counter(window.tolist())
    return max(counts, key=counts.get)


def auto_s_win(labels: LabelSequence) -> int:
    """Smoothing window from the widest boundary gap, divided by 10.

    The sequence start and end count as virtual boundaries, so a video
    with no predicted boundaries uses its full length. Clamped to >= 2.
    """
    starts, ends = runs(labels.labels)
    max_gap = int((ends - starts).max())
    return max(2, int(round(max_gap / 10)))


def smooth(labels: LabelSequence, cfg: SmoothConfig | None = None) -> LabelSequence:
    """Two-window outlier smoothing over a frame-wise prediction.

    W1 = [p, p + s_win) is rewritten; W2 = [p + s_win, p + 2 * s_win)
    only checks whether a new segment is coming. When both windows agree
    on the majority class, W1 collapses to it, sparing a leading run that
    continues the segment entering the window. When they disagree, W1
    collapses to its own majority but the trailing run of the upcoming
    class is preserved as the next segment's start. Frames after the last
    full W1 stay untouched.
    """
    cfg = cfg or SmoothConfig()
    s_win = auto_s_win(labels) if cfg.s_win == AUTO else min(int(cfg.s_win), len(labels) + 1)
    out = labels.labels.copy()
    # No W1 fits past T + 1. Both branches leave a one-class W1 as it is and no
    # step writes outside its own W1, so only W1s holding a label change are visited.
    windows = out[:out.size // s_win * s_win].reshape(-1, s_win)
    for p in (np.flatnonzero((windows != windows[:, :1]).any(axis=1)) * s_win).tolist():
        w1 = out[p:p + s_win]
        w2 = out[p + s_win:p + 2 * s_win]
        m1 = _majority(w1)
        m2 = _majority(w2) if w2.size else m1
        if m1 == m2:
            keep = 0
            while p and keep < s_win and w1[keep] == out[p - 1]:
                keep += 1
            w1[keep:] = m1
        else:
            cut = s_win
            while cut > 0 and w1[cut - 1] == m2:
                cut -= 1
            w1[:cut] = m1
    return LabelSequence(out, labels.class_count)
