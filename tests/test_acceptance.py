"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-8 are property-based and need no external data (run them with
`pytest tests/test_acceptance.py -v -s`). Criteria 9 and 10 need the public
pre-extracted benchmark feature releases and prediction dumps; they skip
unless the environment points at local copies (see README).
"""

import itertools
import math
import os
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from actseg import dataio
from actseg.core import (BoundarySet, CorrectionConfig, DetectConfig,
                         FeatureSequence, LabelSequence, boundaries_of,
                         from_boundaries, run_classes, to_timeline)
from actseg.correction import correct_all
from actseg.detect import detect, majority_labels
from actseg.metrics import (EvalOptions, boundary_match_counts, edit_score,
                            evaluate_batch, f1_at, hungarian_label_match,
                            segment_match_counts, _iou)
from actseg.postprocess import SmoothConfig, smooth
from actseg.similarity import dtw, transition_index
from actseg.synth import SynthSpec, generate, perturb_boundaries


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{name}]: {status} {detail}".rstrip())
    assert ok, f"criterion {num} [{name}]: {detail}"


# ------------------------------------------------------------- criterion 1

def _oracle_dtw(a, b) -> float:
    """Exhaustive minimum over all monotone alignment paths, no DP reuse."""
    n, m = len(a), len(b)
    cost = [[abs(float(x) - float(y)) for y in b] for x in a]
    best = math.inf
    stack = [(0, 0, cost[0][0])]
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == m - 1:
            if acc < best:
                best = acc
            continue
        if i + 1 < n:
            stack.append((i + 1, j, acc + cost[i + 1][j]))
        if j + 1 < m:
            stack.append((i, j + 1, acc + cost[i][j + 1]))
        if i + 1 < n and j + 1 < m:
            stack.append((i + 1, j + 1, acc + cost[i + 1][j + 1]))
    return best


def test_criterion_1_dtw_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(10_000):
        a = rng.integers(0, 4, size=int(rng.integers(1, 7))).tolist()
        b = rng.integers(0, 4, size=int(rng.integers(1, 7))).tolist()
        got = dtw(a, b)
        want = _oracle_dtw(a, b)
        if got != want:
            _verdict(1, "dtw oracle", False, f"dtw({a}, {b}) = {got}, oracle {want}")
        checked += 1
    _verdict(1, "dtw oracle", True, f"({checked} sampled pairs, exact)")


# ------------------------------------------------------------- criterion 2

def _oracle_transition(bits) -> int | None:
    runs = []
    start = 0
    for i in range(1, len(bits) + 1):
        if i == len(bits) or bits[i] != bits[start]:
            runs.append((bits[start], start, i))
            start = i
    best = None
    for (v1, s1, _), (v2, s2, e2) in zip(runs, runs[1:]):
        if v1 == 0 and v2 == 1 and (best is None or e2 - s1 > best[0]):
            best = (e2 - s1, s2)
    return None if best is None else best[1]


def test_criterion_2_transition_exhaustive():
    checked = 0
    for length in range(1, 13):
        for bits in itertools.product((0, 1), repeat=length):
            got = transition_index(list(bits))
            want = _oracle_transition(list(bits))
            if got != want:
                _verdict(2, "transition_index exhaustive", False,
                         f"{bits}: got {got}, oracle {want}")
            checked += 1
    _verdict(2, "transition_index exhaustive", True, f"({checked} strings, exact)")


# ------------------------------------------------------------- criterion 3

def _reference_levenshtein(a, b) -> int:
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(rec(i - 1, j) + 1, rec(i, j - 1) + 1,
                   rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return rec(len(a), len(b))


def _random_runs(rng, max_len=8, classes=5):
    length = int(rng.integers(1, max_len + 1))
    runs = [int(rng.integers(0, classes))]
    while len(runs) < length:
        nxt = int(rng.integers(0, classes))
        if nxt != runs[-1]:
            runs.append(nxt)
    return runs


def _random_segmentation(rng, total=None, max_segments=6, classes=3):
    if total is None:
        total = int(rng.integers(6, 50))
    n_segs = int(rng.integers(1, max_segments + 1))
    cuts = sorted(rng.choice(np.arange(1, total), size=min(n_segs - 1, total - 1),
                             replace=False).tolist())
    runs = [int(rng.integers(0, classes))]
    for _ in cuts:
        nxt = int(rng.integers(0, classes))
        runs.append(nxt if nxt != runs[-1] else (nxt + 1) % classes)
    return from_boundaries(BoundarySet(tuple(cuts)), runs, total, classes)


def _brute_force_tp(pred, gt, thr) -> int:
    ps = list(to_timeline(pred))
    gs = list(to_timeline(gt))
    edges = [[j for j, g in enumerate(gs)
              if g.label == p.label and _iou(p, g) >= thr] for p in ps]

    def best(i, used):
        if i == len(ps):
            return 0
        top = best(i + 1, used)
        for j in edges[i]:
            if not used & (1 << j):
                top = max(top, 1 + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(103)
    for _ in range(1_000):
        runs_a = _random_runs(rng)
        runs_b = _random_runs(rng)
        pred = LabelSequence(np.repeat(runs_a, rng.integers(1, 4, size=len(runs_a))), 5)
        gt = LabelSequence(np.repeat(runs_b, rng.integers(1, 4, size=len(runs_b))), 5)
        want = 100.0 * max(0.0, 1.0 - _reference_levenshtein(tuple(runs_a), tuple(runs_b))
                           / max(len(runs_a), len(runs_b)))
        got = edit_score(pred, gt)
        if got != pytest.approx(want, abs=1e-9):
            _verdict(3, "metric oracles", False, f"edit {got} != reference {want}")

    thresholds = (0.10, 0.25, 0.50)
    for _ in range(1_000):
        pred = _random_segmentation(rng)
        gt = _random_segmentation(rng, total=len(pred))
        prev = math.inf
        for thr in thresholds:
            tp, _, _ = segment_match_counts(pred, gt, thr)
            want = _brute_force_tp(pred, gt, thr)
            if tp != want:
                _verdict(3, "metric oracles", False,
                         f"f1 matching at {thr}: {tp} != optimal {want}")
            cur = f1_at(pred, gt, thr)
            if cur > prev + 1e-9:
                _verdict(3, "metric oracles", False,
                         f"f1 not monotone: {cur} after {prev}")
            prev = cur
    _verdict(3, "metric oracles", True,
             "(1000 edit cases exact, 1000 f1 cases exact and monotone)")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_boundary_correction_recovery():
    start_time = time.monotonic()
    cfg = CorrectionConfig(b_win=16, b_seg=4)

    exact = 0
    for case in range(100):
        rng = np.random.default_rng(40_000 + case)
        lengths = tuple(int(x) for x in rng.integers(32, 64, size=3))
        spec = SynthSpec(dim=8, segment_lengths=lengths, mean_separation=1.0,
                         noise_sigma=0.0, seed=41_000 + case)
        feat, labels, bounds = generate(spec)
        noisy = perturb_boundaries(labels, 7, seed=42_000 + case)
        corrected, _ = correct_all(feat, noisy, cfg, seed=case)
        if boundaries_of(corrected).indices == bounds.indices:
            exact += 1
    if exact != 100:
        _verdict(4, "boundary correction recovery", False,
                 f"sigma=0: only {exact}/100 instances recovered exactly")

    close = 0
    total = 0
    for case in range(100):
        rng = np.random.default_rng(44_000 + case)
        lengths = tuple(int(x) for x in rng.integers(32, 64, size=3))
        spec = SynthSpec(dim=8, segment_lengths=lengths, mean_separation=1.0,
                         noise_sigma=0.1, seed=45_000 + case)
        feat, labels, bounds = generate(spec)
        noisy = perturb_boundaries(labels, 7, seed=46_000 + case)
        corrected, _ = correct_all(feat, noisy, cfg, seed=case)
        got = boundaries_of(corrected).indices
        for want, have in zip(bounds.indices, got):
            total += 1
            if abs(want - have) <= 2:
                close += 1
    elapsed = time.monotonic() - start_time
    ratio = close / total
    ok = ratio >= 0.90 and elapsed < 5.0
    _verdict(4, "boundary correction recovery", ok,
             f"(sigma=0: 100/100 exact; sigma=0.1: {100 * ratio:.1f}% within "
             f"+-2 frames; {elapsed:.2f}s)")


# ------------------------------------------------------------- criterion 5

def test_criterion_5_unsupervised_recovery():
    # The mean-threshold filters require boundary spikes to dominate the
    # score mean, so segment means must sit well apart relative to the
    # frame noise; sigma stays at the pinned 0.05.
    tp = fp = fn = 0
    for case in range(50):
        rng = np.random.default_rng(50_000 + case)
        lengths = tuple(int(x) for x in rng.integers(60, 121, size=5))
        spec = SynthSpec(dim=16, segment_lengths=lengths, mean_separation=6.0,
                         noise_sigma=0.05, seed=51_000 + case)
        feat, _, bounds = generate(spec)
        cfg = DetectConfig(num_classes=5, b_intrv=min(lengths) // 2)
        got, _ = detect(feat, cfg, seed=case)
        t, p, n = boundary_match_counts(got, bounds, tolerance=5)
        tp += t
        fp += p
        fn += n
    recall = tp / (tp + fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    ok = recall >= 0.9 and precision >= 0.8
    _verdict(5, "unsupervised recovery", ok,
             f"(recall {recall:.3f}, precision {precision:.3f} at +-5 frames)")


# ------------------------------------------------------------- criterion 6

def _distinct_run_labels(rng, count, classes=4):
    runs = [int(rng.integers(0, classes))]
    for _ in range(count - 1):
        nxt = int(rng.integers(0, classes))
        runs.append(nxt if nxt != runs[-1] else (nxt + 1) % classes)
    return runs


def test_criterion_6_smoothing_invariants():
    rng = np.random.default_rng(106)
    for case in range(1_000):
        s_win = int(rng.integers(1, 9))
        n_segs = int(rng.integers(1, 7))
        lengths = rng.integers(2 * s_win, 5 * s_win + 1, size=n_segs)
        runs = _distinct_run_labels(rng, n_segs)
        labels = LabelSequence(np.repeat(runs, lengths), 4)
        out = smooth(labels, SmoothConfig(s_win=s_win))
        if out != labels:
            _verdict(6, "smoothing invariants", False,
                     f"stability broken: s_win={s_win} lengths={lengths.tolist()} "
                     f"runs={runs}")

    for case in range(1_000):
        # outlier strictly inside the middle segment, farther than s_win
        # from both of its boundaries (s_win >= 3 keeps window majorities
        # meaningful against a single outlier frame)
        s_win = int(rng.integers(3, 9))
        mid = int(rng.integers(2 * s_win + 2, 4 * s_win + 3))
        left = int(rng.integers(2 * s_win, 4 * s_win + 1))
        right = int(rng.integers(2 * s_win, 4 * s_win + 1))
        runs = _distinct_run_labels(rng, 3)
        clean = np.repeat(runs, [left, mid, right])
        pos = left + int(rng.integers(s_win + 1, mid - s_win - 1 + 1))
        outlier = int(rng.integers(0, 4))
        while outlier == runs[1]:
            outlier = int(rng.integers(0, 4))
        noisy = clean.copy()
        noisy[pos] = outlier
        out = smooth(LabelSequence(noisy, 4), SmoothConfig(s_win=s_win))
        if out.labels.tolist() != clean.tolist():
            _verdict(6, "smoothing invariants", False,
                     f"outlier survived: s_win={s_win} pos={pos} "
                     f"lengths=({left},{mid},{right}) runs={runs} outlier={outlier}")
        if not set(out.labels.tolist()) <= set(noisy.tolist()):
            _verdict(6, "smoothing invariants", False, "class closure broken")
    _verdict(6, "smoothing invariants", True,
             "(1000 stability cases, 1000 outlier-removal cases)")


# ------------------------------------------------------------- criterion 7

def test_criterion_7_correction_invariants():
    rng = np.random.default_rng(107)
    configs = (CorrectionConfig(16, 4), CorrectionConfig(8, 2), CorrectionConfig(8, 4))
    for case in range(1_000):
        cfg = configs[case % len(configs)]
        n_segs = int(rng.integers(1, 7))
        lengths = rng.integers(1, 25, size=n_segs)
        runs = _distinct_run_labels(rng, n_segs)
        labels = LabelSequence(np.repeat(runs, lengths), 4)
        feat = FeatureSequence(rng.normal(size=(len(labels), 4)))
        out, _ = correct_all(feat, labels, cfg, seed=case)
        if run_classes(out) != run_classes(labels):
            _verdict(7, "correction invariants", False,
                     f"segment classes changed: lengths={lengths.tolist()} runs={runs}")
        got = boundaries_of(out).indices
        if any(b <= a for a, b in zip(got, got[1:])):
            _verdict(7, "correction invariants", False, "boundaries not increasing")
        half = (cfg.b_win if isinstance(cfg.b_win, int) else 16) // 2
        moved = np.flatnonzero(out.labels != labels.labels)
        old_bounds = boundaries_of(labels).indices
        for frame in moved:
            if not any(abs(int(frame) - b) <= half for b in old_bounds):
                _verdict(7, "correction invariants", False,
                         f"frame {frame} rewritten outside every boundary window")
    _verdict(7, "correction invariants", True,
             "(1000 cases: locality, class string, monotone boundaries)")


# ------------------------------------------------------------- criterion 8

def test_criterion_8_io_round_trips(tmp_path):
    rng = np.random.default_rng(108)

    for i in range(100):
        descr = "<f8" if i % 2 == 0 else "<f4"
        raw = rng.normal(size=(int(rng.integers(1, 30)), int(rng.integers(1, 12))))
        if descr == "<f4":
            raw = raw.astype(np.float32)
        feat = FeatureSequence(raw)
        path = tmp_path / f"feat_{i}.npy"
        dataio.write_array(path, feat.values, descr)
        if not np.array_equal(dataio.load_features(path, dataio.T_BY_D).values,
                              feat.values):
            _verdict(8, "io round trips", False, f"features case {i} ({descr})")

    names = tuple(f"class_{c}" for c in range(6))
    mapping = dataio.ClassMapping(names)
    for i in range(100):
        labels = LabelSequence(rng.integers(0, 6, size=int(rng.integers(1, 40))), 6)
        path = tmp_path / f"labels_{i}.txt"
        dataio.save_labels(path, labels, mapping)
        if dataio.load_labels(path, mapping) != labels:
            _verdict(8, "io round trips", False, f"labels case {i}")

    for i in range(100):
        raw = np.unique(rng.integers(1, 500, size=int(rng.integers(0, 20))))
        bounds = BoundarySet(tuple(int(x) for x in raw))
        path = tmp_path / f"bounds_{i}.txt"
        dataio.save_boundaries(path, bounds)
        if dataio.load_boundaries(path) != bounds:
            _verdict(8, "io round trips", False, f"bounds case {i}")

    for i in range(100):
        size = int(rng.integers(1, 8))
        m = dataio.ClassMapping(tuple(f"a{i}_{j}" for j in range(size)))
        path = tmp_path / f"mapping_{i}.txt"
        dataio.save_mapping(path, m)
        if dataio.load_mapping(path) != m:
            _verdict(8, "io round trips", False, f"mapping case {i}")

    for i in range(100):
        pred = _random_segmentation(rng)
        gt = _random_segmentation(rng, total=len(pred))
        result = evaluate_batch([(pred, gt)])
        path = tmp_path / f"report_{i}.txt"
        dataio.save_report(path, result)
        if dataio.load_report(path) != result.field_values():
            _verdict(8, "io round trips", False, f"report case {i}")

    _verdict(8, "io round trips", True, "(100 cases per format, 5 formats)")


# ------------------------------------------- criteria 9 and 10 (optional)

DATA_ROOT = os.environ.get("ACTSEG_DATA_ROOT")
ASFORMER_ROOT = os.environ.get("ACTSEG_ASFORMER_PREDICTIONS")

_DATASET_TARGETS = {
    # dataset: (b_intrv, expected F1@10, fold count)
    "gtea": (70, 70.4, 4),
    "50salads": (500, 51.2, 5),
    "breakfast": (300, 63.2, 4),
}


def _dataset_f1(root: Path, dataset: str, b_intrv: int, seed: int = 0) -> float:
    base = root / dataset
    mapping = dataio.load_mapping(base / "mapping.txt")
    # dimensionality pre-pass (seeded random projection): the detection
    # pipeline is designed to run on reduced frame features, and it keeps
    # the scalar-series DTW pass inside the sweep's runtime budget
    cfg = DetectConfig(num_classes=len(mapping), b_intrv=b_intrv, dim_reduce=64)
    pairs = []
    for gt_path in sorted((base / "groundTruth").iterdir()):
        gt = dataio.load_labels(gt_path, mapping)
        feat = dataio.load_features(base / "features" / f"{gt_path.stem}.npy")
        total = min(feat.frames, len(gt))  # releases are off by a frame sometimes
        feat = FeatureSequence(feat.values[:total])
        gt = LabelSequence(gt.labels[:total], gt.class_count)
        bounds, props = detect(feat, cfg, seed=seed)
        pred = majority_labels(props.clusters, bounds, cfg.num_classes)
        pairs.append((hungarian_label_match(pred, gt), gt))
    return evaluate_batch(pairs, EvalOptions()).f1[0.10]


@pytest.mark.skipif(DATA_ROOT is None,
                    reason="set ACTSEG_DATA_ROOT to the benchmark feature release")
def test_criterion_9_unsupervised_dataset_scores():
    root = Path(DATA_ROOT)
    details = []
    ok = True
    for dataset, (b_intrv, expected, _) in _DATASET_TARGETS.items():
        if not (root / dataset).exists():
            continue
        got = _dataset_f1(root, dataset, b_intrv)
        details.append(f"{dataset}: F1@10 {got:.1f} (target {expected} +-5)")
        ok = ok and abs(got - expected) <= 5.0
    if (root / "gtea").exists():
        sweep = {b: _dataset_f1(root, "gtea", b) for b in (40, 70, 100)}
        details.append(f"gtea sweep {sweep}")
        ok = ok and sweep[70] > sweep[40] and sweep[70] > sweep[100]
    if not details:
        pytest.skip("no dataset directories under ACTSEG_DATA_ROOT")
    _verdict(9, "unsupervised dataset scores", ok, "; ".join(details))


@pytest.mark.skipif(DATA_ROOT is None or ASFORMER_ROOT is None,
                    reason="set ACTSEG_DATA_ROOT and ACTSEG_ASFORMER_PREDICTIONS")
def test_criterion_10_postprocessing_direction():
    base = Path(DATA_ROOT) / "50salads"
    mapping = dataio.load_mapping(base / "mapping.txt")
    opts = EvalOptions()
    cfg = CorrectionConfig(b_win=16, b_seg=4)
    deltas = []
    composite_drops = []
    baseline_f1 = []
    processed_f1 = []
    for split in sorted(Path(ASFORMER_ROOT).iterdir()):
        if not split.is_dir():
            continue
        base_pairs = []
        post_pairs = []
        for pred_path in sorted(split.glob("*.txt")):
            gt = dataio.load_labels(base / "groundTruth" / pred_path.name, mapping)
            pred = dataio.load_labels(pred_path, mapping)
            feat = dataio.load_features(base / "features" / f"{pred_path.stem}.npy")
            total = min(feat.frames, len(gt), len(pred))
            feat = FeatureSequence(feat.values[:total])
            gt = LabelSequence(gt.labels[:total], gt.class_count)
            pred = LabelSequence(pred.labels[:total], pred.class_count)
            corrected, _ = correct_all(feat, pred, cfg)
            final = smooth(corrected, SmoothConfig(s_win=80))
            base_pairs.append((pred, gt))
            post_pairs.append((final, gt))
        before = evaluate_batch(base_pairs, opts)
        after = evaluate_batch(post_pairs, opts)
        baseline_f1.append(before.f1[0.10])
        processed_f1.append(after.f1[0.10])

        def composite(r):
            return np.mean([r.acc, r.edit, *r.f1.values()])

        composite_drops.append(composite(before) - composite(after))
        deltas.append(after.f1[0.10] - before.f1[0.10])
    if not deltas:
        pytest.skip("no split directories under ACTSEG_ASFORMER_PREDICTIONS")
    gain = float(np.mean(processed_f1) - np.mean(baseline_f1))
    worst_drop = float(max(composite_drops))
    ok = gain >= 1.0 and worst_drop <= 0.5
    _verdict(10, "post-processing direction", ok,
             f"(F1@10 gain {gain:+.2f}, worst composite drop {worst_drop:.2f})")
