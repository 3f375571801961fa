"""Workload definitions and the seeded synthetic corpora they run on.

Each workload is a corpus shape (built with ``actseg.synth``) plus the CLI
chain the benchmark runs over it. Features are written the way the public
I3D dumps are: float32, dimension-major (2048 x T) ``.npy``, so every load
takes the dtype and orientation paths of ``dataio.load_features``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from actseg import LabelSequence, SynthSpec, boundaries_of, dataio, generate, perturb_boundaries

DIM = 2048
SEPARATION = 6.0  # minimum distance between segment means (synth default)
SEED = 0          # --seed of every CLI call
JOBS = 2          # --jobs of every batch call


@dataclass(frozen=True)
class Workload:
    name: str
    videos: int
    segments: int           # one class per segment, so also --num-classes
    length_range: tuple[int, int]
    sigma: float            # i.i.d. Gaussian noise on every feature value
    b_intrv: int = 0        # detect chains only
    perturb: int = 0        # correct chains: boundary shift of the predictions
    fragments: int = 0      # correct chains: spurious short runs per prediction
    fragment_len: int = 0

    @property
    def kind(self) -> str:
        return "correct" if self.perturb else "detect"


WORKLOADS = {w.name: w for w in (
    Workload(
        "detect_salads",
        videos=2, segments=19, length_range=(220, 410),
        # sigma: at 0.035 boundary_f1 is 89-100 and acc 99.2-100 over seeds
        # 1-5; at 0.03 most seeds score 100 on every field (pinned); at 0.04
        # boundary_f1 ranged 72-92; from 0.05 up the DTW proposals turn to
        # noise and boundary_f1 swings 11-70.
        # b_intrv: 'auto' resolves to the longest segment (~400) and merges
        # nearly every boundary away (boundary_f1 0); 60 is below the shortest
        # segment (220) / 3.
        sigma=0.035, b_intrv=60),
    Workload(
        "correct_gtea",
        videos=28, segments=11, length_range=(70, 130),
        # sigma 20: correction still helps (acc 97.0 -> 98.4); at 40 it hurts.
        # Shifted boundaries alone leave edit and F1 at 100, so each
        # prediction also carries 3 spurious 1-3 frame runs.
        sigma=20.0, perturb=5, fragments=3, fragment_len=3),
)}

# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_MOVES = {
    "similarity.dtw_s": "process_s on detect_salads; "
                        "correct_gtea only through 4-frame block DTW",
    "similarity.dtw_calls": "process_s on detect_salads",
    "similarity.kmeans_s": "process_s on detect_salads (global k-means); process_s on correct_gtea (k=2 calls)",
    "similarity.kmeans_calls": "process_s on detect_salads, correct_gtea",
    "similarity.block_calls": "process_s on correct_gtea",
    "dataio.load_s": "peak_rss_mb on detect_salads; process_s on correct_gtea",
    "dataio.load_mb": "peak_rss_mb on detect_salads; process_s on correct_gtea",
    "dataio.load_alloc_peak_mb": "peak_rss_mb on detect_salads",
    "dataio.labels_load_s": "process_s, chain_s on correct_gtea",
    "dataio.save_s": "process_s on correct_gtea",
    "detect.proposals": "boundary_f1, f1_10 on detect_salads",
    "detect.boundaries": "boundary_f1, f1_10 on detect_salads",
    "detect.kept_ratio": "boundary_f1, f1_10 on detect_salads",
    "correction.boundaries": "acc, boundary_f1 on correct_gtea",
    "correction.moved": "acc, boundary_f1 on correct_gtea",
    "correction.iterations": "acc, boundary_f1 on correct_gtea",
    "correction.moved_ratio": "acc, boundary_f1 on correct_gtea",
    "postprocess.frames_changed": "acc on correct_gtea",
    "metrics.eval_s": "chain_s on both workloads, through eval (the eval_s info line)",
    "cli.cpu_s": "process_s on detect_salads, correct_gtea",
    "cli.busy_cores": "process_s on detect_salads, correct_gtea",
    "trace.overhead_ratio": "none (quality of the trace itself)",
    # Self times of layers that only some chains run: printed and written to
    # the result file, not emitted as metrics, because they are structurally
    # 0.0 on the other workloads.
    "detect.self_s": "process_s on detect_salads",
    "detect.cluster_s": "process_s on detect_salads",
    "detect.cosine_s": "process_s on detect_salads",
    "detect.dtw_scores_s": "process_s on detect_salads",
    "detect.prune_merge_s": "process_s on detect_salads",
    "detect.segment_labels_s": "process_s on detect_salads",
    "similarity.block_s": "process_s on correct_gtea",
    "correction.correct_all_s": "process_s on correct_gtea",
    "postprocess.smooth_s": "process_s on correct_gtea",
    "metrics.label_match_s": "chain_s on detect_salads, through eval (the eval_s info line)",
}


def _salt(workload: Workload) -> int:
    return int.from_bytes(hashlib.sha256(workload.name.encode()).digest()[:4], "little")


def _video_seed(workload: Workload, seed: int, index: int) -> int:
    state = np.random.SeedSequence([_salt(workload), seed % 2**63, index]).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def _layout(workload: Workload, index: int) -> tuple[int, ...]:
    """Segment lengths of video `index`: the same for every seed.

    The seed draws only segment means and noise, so every seed of a
    workload does the same amount of work and runs differ only by the host.
    """
    lo, hi = workload.length_range
    for attempt in range(100):
        rng = np.random.default_rng([_salt(workload), index, attempt])
        lengths = rng.integers(lo, hi + 1, size=workload.segments)
        # A length equal to a known feature width makes orientation ambiguous.
        if int(lengths.sum()) not in dataio.KNOWN_FEATURE_WIDTHS:
            return tuple(int(x) for x in lengths)
    raise ValueError(f"no usable layout for {workload.name} video {index}")


def _add_fragments(labels: LabelSequence, count: int, max_len: int,
                   rng: np.random.Generator, margin: int = 8) -> LabelSequence:
    """Overwrite `count` short runs inside segments with another class."""
    out = labels.labels.copy()
    edges = [0, *boundaries_of(labels).indices, len(out)]
    for _ in range(count):
        seg = int(rng.integers(len(edges) - 1))
        start = int(rng.integers(edges[seg] + margin, edges[seg + 1] - margin - max_len))
        length = int(rng.integers(1, max_len + 1))
        out[start:start + length] = (out[start] + rng.integers(1, labels.class_count)) % labels.class_count
    return LabelSequence(out, labels.class_count)


def _write_corpus(workload: Workload, seed: int, out: Path) -> None:
    for sub in ("features", "groundTruth", "predictions"):
        (out / sub).mkdir(parents=True)
    mapping = dataio.ClassMapping(tuple(f"action_{i:02d}" for i in range(workload.segments)))
    dataio.save_mapping(out / "mapping.txt", mapping)
    ids = []
    for i in range(workload.videos):
        vid = f"video_{i:03d}"
        vseed = _video_seed(workload, seed, i)
        feat, labels, _ = generate(SynthSpec(
            dim=DIM, segment_lengths=_layout(workload, i), mean_separation=SEPARATION,
            noise_sigma=workload.sigma, seed=vseed))
        dataio.write_array(out / "features" / f"{vid}.npy", feat.values.T, "<f4")
        dataio.save_labels(out / "groundTruth" / f"{vid}.txt", labels, mapping)
        if workload.perturb:
            pred = perturb_boundaries(labels, workload.perturb, seed=vseed % 2**32)
            pred = _add_fragments(pred, workload.fragments, workload.fragment_len,
                                  np.random.default_rng(vseed + 1))
            dataio.save_labels(out / "predictions" / f"{vid}.txt", pred, mapping)
        ids.append(vid)
    (out / "split.txt").write_text("".join(f"{v}\n" for v in ids))


def corpus(workload: Workload, seed: int, cache_root: Path) -> Path:
    """Directory holding the workload's corpus for `seed`, generated on first use.

    One corpus per workload is kept; generating another seed replaces it.
    """
    key = hashlib.sha256(json.dumps([asdict(workload), DIM, SEPARATION, seed, "layout-v2"]).encode()).hexdigest()[:16]
    path = cache_root / f"{workload.name}-{key}"
    if (path / "complete").exists():
        return path
    cache_root.mkdir(parents=True, exist_ok=True)
    for stale in cache_root.glob(f"{workload.name}-*"):
        shutil.rmtree(stale)
    tmp = cache_root / f"{workload.name}-{key}.tmp"
    _write_corpus(workload, seed, tmp)
    # Flush the new files now, so their write-back does not run during timing.
    for written in tmp.rglob("*"):
        if written.is_file():
            fd = os.open(written, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    (tmp / "complete").write_text(f"seed={seed}\n")
    tmp.rename(path)
    return path


def corpus_stats(path: Path) -> dict:
    """Frame count, video count and feature bytes of a corpus on disk."""
    frames = 0
    for gt in sorted((path / "groundTruth").glob("*.txt")):
        frames += len(gt.read_text().splitlines())
    feature_bytes = sum(p.stat().st_size for p in (path / "features").glob("*.npy"))
    return {"videos": len(list((path / "features").glob("*.npy"))), "frames": frames,
            "feature_mib": feature_bytes / 2**20}
