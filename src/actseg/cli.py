"""Command line interface: detect, correct, smooth, vote, eval, synth, plot.

File-level front end over the library. Batch subcommands accept
directories and run each video on up to `--jobs` forked worker processes,
one video per worker at a time. The process that computes a video writes
its outputs; the parent logs each video's warnings and line and reports
its error in input order, so repeated runs are bit-identical. A video that fails to
load, run or write is reported and skipped, leaving no output of its own.
Exit codes: 2 if any video failed, a worker died, or on usage or
IO errors, else 1 if detect found no boundaries for some video, else 0.
"""

from __future__ import annotations

import argparse
import logging
import os
import pickle
import struct
import sys
import traceback
import warnings
from contextlib import suppress
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from . import dataio
from .core import AUTO, CorrectionConfig, DetectConfig
from .correction import correct_all
from .detect import detect, majority_labels
from .metrics import (THRESHOLDS, EvalOptions, EvalResult, evaluate_batch,
                      hungarian_label_match, mean_result)
from .postprocess import PredictionSet, SmoothConfig, auto_s_win, smooth, vote
from .render import render_svg, render_text
from .synth import SynthSpec, generate, perturb_boundaries

log = logging.getLogger("actseg")

# Full-D DTW costs (T - 1) * D^2 cells; 1e9 is about 5 s at 2048-D
# (about 0.02 s per frame pair on one core).
FULL_DTW_WARN_CELLS = 10**9


def _integer(text: str) -> int:
    """An optional '-', then ASCII digits as in the text files; each flag checks its range."""
    value = dataio.whole_number(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return -value if text.startswith("-") else value


def _decimal(text: str) -> float:
    """A finite number as the report files write it; each flag checks its range."""
    value = dataio.decimal_number(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {text!r}")
    return value


def _int_or_auto(text: str):
    if text == AUTO:
        return AUTO
    try:
        return _integer(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected a positive integer or {AUTO!r}, "
                                         f"got {text!r}") from None


def _default_jobs() -> int:
    # The CPUs this process may run on, which taskset or a cpuset can narrow.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(8, cpus or 1)


def _collect(path: Path, suffix: str) -> tuple[list[tuple[str, Path]], bool]:
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix == suffix)
        if not files:
            raise FileNotFoundError(f"no *{suffix} files in {path}")
        return [(p.stem, p) for p in files], True
    return [(path.stem, path)], False


def _target(base: Path, batch: bool, stem: str, suffix: str) -> Path:
    return base / f"{stem}{suffix}" if batch else base


def _distinct_outputs(first: str, a: Path, second: str, b: Path | None) -> None:
    """Refuse two outputs of one call that resolve to the same file or
    directory, where one would replace the other's files."""
    if b is not None and os.path.realpath(a) == os.path.realpath(b):
        raise ValueError(f"{first} and {second} both name {b}; give them different paths")


def _attempt(run, item):
    """`run(item)` as a `(result, error, warnings)` outcome.

    A ValueError or OSError becomes the error. Each distinct warning message
    the run raises becomes one line naming the video: the item, or its first
    element when it is a tuple. Warnings are recorded, not shown, since
    Python shows each once per code location per process, which would make
    what is shown depend on `--jobs`.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = run(item), None
        except (ValueError, OSError) as exc:
            outcome = None, exc
    vid = item[0] if isinstance(item, tuple) else item
    return (*outcome, [f"{vid}: {message}"
                       for message in dict.fromkeys(str(w.message) for w in caught)])


def _report_in_order(outcomes, values: list) -> int:
    failed = False
    for result, exc, caught in outcomes:
        for line in caught:
            log.warning(line)
        if exc is None:
            line, value = result
            if line:
                log.info(line)
        else:
            print(f"error: {exc}", file=sys.stderr)
            failed, value = True, None
        values.append(value)
    return 2 if failed else 0


def _each_video(jobs: int, items: list, run) -> tuple[int, list]:
    """Run `run` per item; log its line and report its error in input order.

    `run(item)` does the item's whole work, writes included, and returns a
    `(line, value)` pair: the line (if any) is logged and the value kept.
    When both `jobs` and the item count exceed one, items run on
    min(jobs, count) forked worker processes (`_forked`). Otherwise
    everything runs inline and nothing is forked. Warnings raised by `run`
    are logged before the item's line (`_attempt`). A ValueError or OSError
    from `run` is reported and skips only that item; a worker that dies
    ends the batch, and what the other items wrote stays. Returns the exit
    code (2 if any item was skipped or a worker died, else 0) and the values
    in input order, None for a skipped item; after a worker dies the list
    stops short.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(items))
    values: list = []
    if workers <= 1:
        return _report_in_order((_attempt(run, item) for item in items), values), values
    if not hasattr(os, "fork"):
        raise ValueError(f"--jobs {jobs} needs the 'fork' start method, which this "
                         "system lacks; --jobs 1 runs every video in one process")
    outcomes = _forked(workers, items, run)
    try:
        return _report_in_order(outcomes, values), values
    except _WorkerDied as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2, values
    finally:
        outcomes.close()


class _WorkerDied(Exception):
    """A worker exited non-zero, or its result stream ended mid-record."""


# A queued chunk of items: its index as 4 bytes, little-endian.
_INDEX = struct.Struct("<I")
# The byte length of the pickled `(index, outcome)` record that follows it.
_SIZE = struct.Struct("<Q")


def _forked(workers: int, items: list, run):
    """Yield `_attempt(run, item)` for every item in input order, computed on
    `workers` forked processes.

    Workers inherit `run` and `items` through the fork. The items are cut
    into at most PIPE_BUF // 4 chunks of consecutive items (one item each
    up to that count), and before the first fork the parent writes every
    chunk index to one shared queue pipe and closes its write end. That is
    one write of at most PIPE_BUF bytes into an empty pipe: atomic, so no
    reader gets half an index, and it cannot block. Workers read chunk
    indices until EOF and each streams back a record per item on its own
    pipe; the parent only drains those pipes, so no worker waits on the
    parent between items. Raises _WorkerDied once a worker exits non-zero
    or cuts a record short; every worker still running when this generator
    ends is killed, and all are reaped.
    """
    # Imported here: only a forking call needs them.
    import selectors
    import signal
    from select import PIPE_BUF

    chunks = min(len(items), PIPE_BUF // _INDEX.size)
    queue, feed = os.pipe()
    try:
        os.write(feed, b"".join(map(_INDEX.pack, range(chunks))))
    finally:
        os.close(feed)
    streams: dict[int, int] = {}  # result pipe read end -> its worker's pid, until reaped
    try:
        # A worker flushes its streams before it exits; it must not repeat
        # what the parent had buffered at the fork.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        for _ in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                for fd in (read_end, *streams):
                    os.close(fd)
                _work(queue, write_end, run, items, chunks)
            os.close(write_end)
            streams[read_end] = pid
        buffers = {fd: bytearray() for fd in streams}
        done: dict = {}
        next_index = 0
        with selectors.DefaultSelector() as selector:
            for fd in streams:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                died = None
                for key, _ in selector.select():
                    fd = key.fd
                    data = os.read(fd, 1 << 16)
                    buffer = buffers[fd]
                    buffer += data
                    while len(buffer) >= _SIZE.size:
                        end = _SIZE.size + _SIZE.unpack_from(buffer)[0]
                        if len(buffer) < end:
                            break
                        index, outcome = pickle.loads(buffer[_SIZE.size:end])
                        done[index] = outcome
                        del buffer[:end]
                    if not data:
                        selector.unregister(fd)
                        os.close(fd)
                        pid = streams.pop(fd)
                        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                        if code < 0:
                            died = f"worker {pid} was killed by signal {-code}"
                        elif code:
                            died = f"worker {pid} exited with status {code}"
                        elif buffer:
                            died = f"worker {pid} ended its results mid-record"
                while next_index in done:
                    yield done.pop(next_index)
                    next_index += 1
                if died:
                    raise _WorkerDied(died)
    finally:
        for fd in (queue, *streams):
            os.close(fd)
        for pid in streams.values():
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(queue: int, results: int, run, items, chunks: int) -> NoReturn:
    """A forked worker's whole life: for each chunk index read from `queue`
    until EOF, run the chunk's items in order, writing each item's record
    to `results` as soon as it is done.

    It always ends in `os._exit`, never returning into the stack it was
    forked from: status 0 once the queue is empty, 1 after printing the
    traceback of anything `_attempt` does not catch (a bug, an interrupt).
    """
    status = 1
    try:
        while data := os.read(queue, _INDEX.size):
            (chunk,) = _INDEX.unpack(data)
            for index in range(len(items) * chunk // chunks, len(items) * (chunk + 1) // chunks):
                record = pickle.dumps((index, _attempt(run, items[index])),
                                      pickle.HIGHEST_PROTOCOL)
                message = memoryview(_SIZE.pack(len(record)) + record)
                while message:
                    message = message[os.write(results, message):]
        status = 0
    except BaseException:  # reported here, since the worker cannot re-raise into its parent
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            with suppress(AttributeError, OSError):
                stream.flush()
        os._exit(status)


def _pair_inputs(features: Path, labels: Path) -> tuple[list[tuple[str, Path, Path]], bool]:
    feat_items, batch = _collect(features, ".npy")
    if batch != labels.is_dir():
        raise ValueError("features and predictions must both be files or both be directories")
    if not batch:
        return [(*feat_items[0], labels)], False
    return [(stem, fpath, labels / f"{stem}.txt") for stem, fpath in feat_items], True


def _load_mapping(args) -> dataio.ClassMapping | None:
    return dataio.load_mapping(args.mapping) if args.mapping else None


# ---------------------------------------------------------------- detect

def _cmd_detect(args) -> int:
    _distinct_outputs("--out-bounds", args.out_bounds, "--out-labels", args.out_labels)
    inputs, batch = _collect(args.features, ".npy")
    cfg = DetectConfig(num_classes=args.num_classes, b_intrv=args.b_intrv,
                       dim_reduce=args.dim_reduce)

    def run(item):
        vid, path = item
        feat = dataio.load_features(path, args.orientation)
        cells = (feat.frames - 1) * feat.dim ** 2
        if not cfg.projects(feat.dim) and cells > FULL_DTW_WARN_CELLS:
            log.warning("%s: full-D DTW on T=%d frames x D=%d dims is %.1e cost cells; "
                        "consider --dim-reduce 64", vid, feat.frames, feat.dim, cells)
        try:
            bounds, props = detect(feat, cfg, seed=args.seed)
        except ValueError as exc:
            raise dataio.DataError(f"{path}: {exc}") from None
        outputs = [(_target(args.out_bounds, batch, vid, ".txt"),
                    dataio.format_boundaries(bounds))]
        if args.out_labels:
            outputs.append((_target(args.out_labels, batch, vid, ".txt"), dataio.format_labels(
                majority_labels(props.clusters, bounds, cfg.num_classes))))
        dataio.save_all(outputs)
        return (f"{vid}: b_intrv={props.resolved_b_intrv} proposals "
                f"cosine={len(props.cosine_bounds)} dtw={len(props.dtw_bounds)} "
                f"cluster={len(props.cluster_bounds)} -> {len(bounds)} boundaries",
                not bounds)

    code, no_bounds = _each_video(args.jobs, inputs, run)
    degenerate = [vid for (vid, _), flag in zip(inputs, no_bounds) if flag]
    if degenerate:
        log.warning("no boundaries detected for: %s", ", ".join(degenerate))
    return code or (1 if degenerate else 0)


# ---------------------------------------------------------------- correct

def _cmd_correct(args) -> int:
    _distinct_outputs("--out", args.out, "--report", args.report)
    paired, batch = _pair_inputs(args.features, args.predictions)
    mapping = _load_mapping(args)
    cfg = CorrectionConfig(b_win=args.b_win, b_seg=args.b_seg)

    def run(item):
        vid, fpath, ppath = item
        feat = dataio.load_features(fpath, args.orientation)
        labels = dataio.load_labels(ppath, mapping)
        try:
            corrected, report = correct_all(feat, labels, cfg, seed=args.seed)
        except ValueError as exc:
            raise dataio.DataError(f"{ppath} vs {fpath}: {exc}") from None
        outputs = [(_target(args.out, batch, vid, ".txt"),
                    dataio.format_labels(corrected, mapping))]
        if args.report:
            outputs.append((_target(args.report, batch, vid, ".txt"), "".join(
                f"{r.original} {r.corrected} {r.iterations}\n" for r in report.records)))
        dataio.save_all(outputs)
        resolved = (f"resolved b_win={report.b_win} b_seg={report.b_seg}, "
                    if cfg.b_win == AUTO else "")
        return (f"{vid}: {resolved}moved {report.moved()} of {len(report.records)} boundaries",
                None)

    return _each_video(args.jobs, paired, run)[0]


# ---------------------------------------------------------------- smooth

def _cmd_smooth(args) -> int:
    inputs, batch = _collect(args.predictions, ".txt")
    mapping = _load_mapping(args)
    cfg = SmoothConfig(s_win=args.s_win)

    def run(item):
        vid, path = item
        labels = dataio.load_labels(path, mapping)
        s_win = auto_s_win(labels) if cfg.s_win == AUTO else cfg.s_win
        smoothed = smooth(labels, SmoothConfig(s_win))
        dataio.save_labels(_target(args.out, batch, vid, ".txt"), smoothed, mapping)
        return (f"{vid}: resolved s_win={s_win}" if cfg.s_win == AUTO else None), None

    return _each_video(args.jobs, inputs, run)[0]


# ---------------------------------------------------------------- vote

def _cmd_vote(args) -> int:
    mapping = _load_mapping(args)
    sources = tuple(dataio.load_labels(p, mapping) for p in args.predictions)
    for path, source in zip(args.predictions[1:], sources[1:]):
        if len(source) != len(sources[0]):
            raise dataio.DataError(f"{path}: {len(source)} frames, but {args.predictions[0]} "
                                   f"has {len(sources[0])}")
    fused = vote(PredictionSet(sources, trusted_index=args.trusted))
    dataio.save_labels(args.out, fused, mapping)
    return 0


# ---------------------------------------------------------------- eval

def _read_split(path: Path) -> list[str]:
    ids: dict[str, None] = {}  # an ordered set
    for lineno, line in enumerate(dataio.read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        # Tolerate ids written with a file suffix; any other dot (rgb.01) is part of the id.
        p = Path(line.strip())
        vid = p.stem if p.suffix in (".txt", ".npy") else p.name
        if vid in ids:
            raise dataio.DataError(f"{path}:{lineno}: video {vid!r} listed twice")
        ids[vid] = None
    if not ids:
        raise dataio.DataError(f"{path}: empty split bundle")
    return list(ids)


def _cmd_eval(args) -> int:
    pred_dir, gt_dir = args.pred_dir, args.gt_dir
    if not pred_dir.is_dir() or not gt_dir.is_dir():
        raise ValueError("eval expects prediction and ground-truth directories")
    mapping = _load_mapping(args)
    gt_items = dict(_collect(gt_dir, ".txt")[0])
    try:
        ignore = frozenset(map(mapping.id_of if mapping else dataio.class_id, args.ignore or []))
    except (KeyError, ValueError) as exc:
        source = f" in {args.mapping}" if mapping else ""
        raise ValueError(f"--ignore: {exc.args[0]}{source}") from None
    opts = EvalOptions(boundary_tolerance=args.boundary_tolerance, ignore=ignore)

    def load_pair(vid: str):
        if vid not in gt_items:
            raise ValueError(f"video {vid!r} has no ground truth in {gt_dir}")
        gt_path, pred_path = gt_items[vid], pred_dir / f"{vid}.txt"
        gt = dataio.load_labels(gt_path, mapping)
        pred = dataio.load_labels(pred_path, mapping if args.pred_format == "names" else None)
        if len(pred) != len(gt):
            raise dataio.DataError(f"{pred_path}: {len(pred)} frames, but ground truth "
                                   f"{gt_path} has {len(gt)}")
        if args.label_match == "hungarian":
            try:
                pred = hungarian_label_match(pred, gt)
            except ValueError as exc:
                raise dataio.DataError(f"{pred_path}: {exc}") from None
        return None, (pred, gt)

    # (row name, video ids, source named in errors) per bundle.
    bundles = ([(b.stem, _read_split(b), b) for b in args.splits] if args.splits
               else [("all", sorted(gt_items), gt_dir)])
    # Every video is loaded once, however many bundles list it.
    vids = list(dict.fromkeys(vid for _, ids, _ in bundles for vid in ids))
    failed, loaded = _each_video(args.jobs, vids, load_pair)
    if failed:
        return failed
    pairs = dict(zip(vids, loaded))
    rows: list[tuple[str, EvalResult]] = []
    for name, ids, source in bundles:
        try:
            result = evaluate_batch([pairs[vid] for vid in ids], opts)
        except ValueError as exc:
            # Lengths and tolerance are checked: only --ignore can leave no ground truth.
            raise ValueError(f"--ignore {' '.join(args.ignore)}: {exc} in {source}") from None
        rows.append((name, result))
    if args.splits:
        rows.append(("avg", mean_result([r for _, r in rows])))
    overall = rows[-1][1]

    print(_format_table(rows))
    for key, value in overall.field_values().items():
        print(f"{key}={value!r}")
    if args.report:
        dataio.save_report(args.report, overall)
    return 0


def _format_table(rows: list[tuple[str, EvalResult]]) -> str:
    f1_names = " ".join(f"{f'f1@{int(round(t * 100))}':>7}" for t in THRESHOLDS)
    header = f"{'split':<12} {'acc':>7} {'edit':>7} {f1_names} {'bf1':>7}"
    lines = [header, "-" * len(header)]
    for name, r in rows:
        f1 = " ".join(f"{r.f1[t]:>7.2f}" for t in THRESHOLDS)
        lines.append(f"{name:<12} {r.acc:>7.2f} {r.edit:>7.2f} {f1} {r.boundary_f1:>7.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------- synth

def _cmd_synth(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.perturb < 0:
        raise ValueError(f"--perturb must be >= 0, got {args.perturb}")
    # Validate every argument before the first directory is made.
    mapping = dataio.ClassMapping(tuple(f"action_{i:02d}" for i in range(args.segments)))
    spec = SynthSpec(dim=args.dim, num_segments=args.segments,
                     length_range=(args.min_len, args.max_len),
                     mean_separation=args.separation, noise_sigma=args.sigma, seed=args.seed)
    out = args.out_dir
    # The directories this call makes, deepest first: a failure removes them
    # again if they are still empty. Those that already exist stay.
    made = [d for d in (*(out / sub for sub in _SYNTH_DIRS), out, *out.parents)
            if not d.exists()]
    try:
        dataio.save_all(_synth_files(out, args, spec, mapping))
    except BaseException:
        for directory in made:
            with suppress(OSError):  # not empty, or never made
                directory.rmdir()
        raise
    log.info("wrote %d synthetic videos under %s", args.count, out)
    return 0


_SYNTH_DIRS = ("features", "groundTruth", "bounds", "predictions", "splits")


def _synth_files(out: Path, args, spec: SynthSpec, mapping: dataio.ClassMapping):
    """Yield the corpus' `(path, content)` pairs, generating one video at a time."""
    yield out / "mapping.txt", dataio.format_mapping(mapping)
    ids = []
    for i in range(args.count):
        vid = f"synth_{i:03d}"
        feat, labels, bounds = generate(replace(spec, seed=args.seed + i))
        yield out / "features" / f"{vid}.npy", feat.values
        yield out / "groundTruth" / f"{vid}.txt", dataio.format_labels(labels, mapping)
        yield out / "bounds" / f"{vid}.txt", dataio.format_boundaries(bounds)
        if args.perturb > 0:
            noisy = perturb_boundaries(labels, args.perturb, seed=args.seed + 1000 + i)
            yield out / "predictions" / f"{vid}.txt", dataio.format_labels(noisy, mapping)
        ids.append(vid)
    yield out / "splits" / "all.txt", "".join(f"{v}\n" for v in ids)


# ---------------------------------------------------------------- plot

def _cmd_plot(args) -> int:
    if args.text and args.out:
        raise ValueError("plot takes --out FILE.svg or --text, not both")
    if not (args.text or args.out):
        raise ValueError("plot needs --out FILE.svg (or --text)")
    mapping = _load_mapping(args)
    rows = [(p.stem, dataio.load_labels(p, mapping)) for p in args.labels]
    if args.text:
        sys.stdout.write(render_text(rows, args.width if args.width is not None else 72))
        return 0
    dataio.save_text(args.out, render_svg(rows, args.width if args.width is not None else 1000))
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actseg",
        description="Similarity-driven temporal action segmentation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=True):
        p.add_argument("--seed", type=_integer, default=0, help="RNG seed (default 0)")
        if jobs:
            p.add_argument("--jobs", type=_integer, default=_default_jobs(),
                           help="worker pool size for directory inputs")

    p = sub.add_parser("detect", help="unsupervised boundary detection from features")
    p.add_argument("features", type=Path, help="feature file (.npy) or directory")
    p.add_argument("--num-classes", type=_integer, required=True,
                   help="cluster count for the global clustering pass")
    p.add_argument("--b-intrv", type=_int_or_auto, default=AUTO,
                   help="minimum boundary gap in frames, or 'auto'")
    p.add_argument("--dim-reduce", type=_integer, default=None,
                   help="project features to this many dims before scoring")
    p.add_argument("--orientation", choices=[dataio.AUTO_ORIENT, dataio.D_BY_T, dataio.T_BY_D],
                   default=dataio.AUTO_ORIENT)
    p.add_argument("--out-bounds", type=Path, required=True,
                   help="boundary list output (file, or directory for batch)")
    p.add_argument("--out-labels", type=Path, default=None,
                   help="optional cluster-id label sequence output")
    add_common(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("correct", help="correct boundaries of existing predictions")
    p.add_argument("features", type=Path)
    p.add_argument("predictions", type=Path)
    p.add_argument("--b-win", type=_int_or_auto, default=16,
                   help="boundary window in frames, or 'auto' (default 16)")
    p.add_argument("--b-seg", type=_int_or_auto, default=4,
                   help="sub-segment size in frames, or 'auto' (default 4)")
    p.add_argument("--mapping", type=Path, default=None)
    p.add_argument("--orientation", choices=[dataio.AUTO_ORIENT, dataio.D_BY_T, dataio.T_BY_D],
                   default=dataio.AUTO_ORIENT)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--report", type=Path, default=None,
                   help="per-boundary 'original corrected iterations' lines")
    add_common(p)
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("smooth", help="two-window segment smoothing")
    p.add_argument("predictions", type=Path)
    p.add_argument("--s-win", type=_int_or_auto, required=True,
                   help="smoothing window in frames, or 'auto'")
    p.add_argument("--mapping", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("vote", help="frame-wise majority vote over predictions")
    p.add_argument("predictions", nargs="+", type=Path,
                   help="two or more prediction files")
    p.add_argument("--trusted", type=_integer, default=-1,
                   help="0-based index of the tie-breaking source (default: last)")
    p.add_argument("--mapping", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_vote)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("pred_dir", type=Path)
    p.add_argument("gt_dir", type=Path)
    p.add_argument("--mapping", type=Path, default=None)
    p.add_argument("--pred-format", choices=["names", "ids"], default="names",
                   help="prediction files hold class names or bare integer ids")
    p.add_argument("--label-match", choices=["none", "hungarian"], default="none",
                   help="relabel arbitrary prediction ids before scoring")
    p.add_argument("--splits", nargs="+", type=Path, default=None,
                   help="split bundle files (one video id per line)")
    p.add_argument("--boundary-tolerance", type=_integer, default=5)
    p.add_argument("--ignore", nargs="+", default=None,
                   help="class names (ids without a mapping) excluded from scoring")
    p.add_argument("--report", type=Path, default=None,
                   help="write the aggregate key=value report here")
    add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--count", type=_integer, default=5)
    p.add_argument("--segments", type=_integer, default=5)
    p.add_argument("--dim", type=_integer, default=16)
    p.add_argument("--min-len", type=_integer, default=60)
    p.add_argument("--max-len", type=_integer, default=120)
    p.add_argument("--sigma", type=_decimal, default=0.05)
    p.add_argument("--separation", type=_decimal, default=6.0,
                   help="minimum distance between segment means")
    p.add_argument("--perturb", type=_integer, default=0,
                   help="also write predictions with boundaries shifted up to this many frames")
    add_common(p, jobs=False)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("plot", help="timeline figure with one row per label file")
    p.add_argument("labels", nargs="+", type=Path)
    p.add_argument("--mapping", type=Path, default=None)
    p.add_argument("--out", type=Path, default=None, help="SVG output path")
    p.add_argument("--text", action="store_true", help="print block characters instead")
    p.add_argument("--width", type=_integer, default=None)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> NoReturn:
    code = main()
    # Every output is written by now, so the interpreter's teardown (freeing
    # every module and object, NumPy's among them: about 20 ms a call) would
    # change nothing; flush what is buffered and skip it. main() itself
    # returns normally, so tests and library callers keep their interpreter.
    logging.shutdown()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # a closed pipe, say; as main() reports it
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    with suppress(AttributeError, OSError):  # no stderr is left to report on
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
