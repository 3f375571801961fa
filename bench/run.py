"""actseg benchmark: seeded synthetic corpora driven through the actseg CLI.

    python3 bench/run.py --workload detect_salads --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. With ``--trace 0`` it repeats rounds of
no-op CLI calls (``setup_s``) and the workload's CLI chain until
``--seconds`` have passed and reports medians of the end-to-end metrics. With ``--trace 1`` it runs the chain once through the CLI and
twice in process (untraced, then with a span around every layer call) and
reports the per-layer metrics. The last line of standard output is one
JSON object; a record with the run's context goes to
``.bench/results/``. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench"
# Children and the in-process replay use one BLAS thread, so with --jobs 2
# the thread count never exceeds this host's two cores.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PER_ROUND = 3  # timed no-op calls per round; setup_s is their median
MIN_ROUNDS = 2       # chains per run at least, whatever --seconds says
HARD_LIMIT_S = 170   # the whole run must end well inside 180 s


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _context(args, spec, stats) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    from workloads import LAYER_MOVES
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why.get(args.workload),
        "corpus": stats, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "pinned": PINNED,
        "metrics": {m["name"]: {"unit": m["unit"], "better": m["better"]}
                    for m in spec["end_to_end"] + spec["per_layer"]},
        "layer_moves": LAYER_MOVES,
    }


def _golden(workload: str, seed: int, digest: str) -> str:
    goldens = json.loads((BENCH / "goldens.json").read_text())
    want = goldens.get(workload, {}).get(str(seed))
    if want is None:
        return "none for this seed"
    return "match" if want == digest else f"MISMATCH (golden {want})"


def _untraced(args, workload, corpus, runner, frames, started):
    """Time rounds of setup calls and one chain each for --seconds.

    Each round samples every end-to-end time, so all of them spread over the
    whole run: this host's speed drifts over tens of seconds, and a median
    over the run absorbs more of that drift than back-to-back samples do.
    """
    from chain import run_chain

    out = STATE / "work" / workload.name
    runner.call("warm-up", ["--help"])  # untimed: fills the page cache for imports
    setup, chains, calls = [], [], []
    measure_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        setup += [runner.call("setup", ["--help"]) for _ in range(SETUP_PER_ROUND)]
        chains.append(run_chain(runner, workload, corpus, out))
        calls += setup[-SETUP_PER_ROUND:] + chains[-1].calls
        if chains[-1].problems:
            break
        now = time.monotonic()
        if now + 1.5 * (now - round_start) > started + HARD_LIMIT_S - 10:
            break  # another round could cross the limit
        # Start another round only if it should end by --seconds plus half a round.
        if len(chains) >= MIN_ROUNDS and now + (now - round_start) / 2 > measure_start + args.seconds:
            break
    med = statistics.median
    metrics = {
        "setup_s": med(c.wall_s for c in setup),
        "chain_s": med(c.wall() for c in chains),
        "process_s": med(c.wall() - c.wall("eval") for c in chains),
        "peak_rss_mb": max(c.maxrss_mib for c in calls),
    }
    metrics["frames_per_s"] = frames / metrics["chain_s"]
    for key in ("acc", "edit", "f1_10", "f1_50", "boundary_f1"):
        metrics[key] = chains[-1].quality.get(key, 0.0)
    info = {f"{c.step}_s": med(chain.wall(c.step) for chain in chains)
            for c in chains[0].calls}
    info.update({"rounds": len(chains), "measured_s": time.monotonic() - measure_start,
                 "chain_walls": [c.wall() for c in chains],
                 "setup_walls": [c.wall_s for c in setup]})
    return metrics, info, calls, chains


def _traced(args, workload, corpus, runner):
    from chain import digest, run_chain
    from spans import SpanRecorder, load_alloc_peak_mib, replay

    cli = run_chain(runner, workload, corpus, STATE / "work" / workload.name)
    problems = list(cli.problems)
    plain_out = _fresh(STATE / "work" / f"{workload.name}.replay")
    plain = replay(workload, corpus, plain_out)
    recorder = SpanRecorder()
    traced_out = _fresh(STATE / "work" / f"{workload.name}.traced")
    with recorder.installed():
        traced = replay(workload, corpus, traced_out)
    replay_failed = 0
    for name, run, out in (("untraced replay", plain, plain_out),
                           ("traced replay", traced, traced_out)):
        if digest(out, run.quality) != cli.digest:
            problems.append(f"{name}: outputs differ from the CLI chain's")
            replay_failed += 1
    largest = max((corpus / "features").glob("*.npy"), key=lambda p: p.stat().st_size)
    self_times = recorder.self_times()

    def seconds(name):
        return self_times.get(name, (0.0, 0))[0]

    def calls(name):
        return self_times.get(name, (0.0, 0))[1]

    cpu = sum(c.cpu_s for c in cli.calls)
    metrics = {
        "similarity.dtw_s": seconds("similarity.dtw"),
        "similarity.dtw_calls": calls("similarity.dtw"),
        "similarity.kmeans_s": seconds("similarity.kmeans"),
        "similarity.kmeans_calls": calls("similarity.kmeans"),
        "similarity.block_calls": calls("similarity.block"),
        "dataio.load_s": seconds("dataio.load"),
        "dataio.load_alloc_peak_mb": load_alloc_peak_mib(largest),
        "dataio.labels_load_s": seconds("dataio.labels_load"),
        "dataio.save_s": seconds("dataio.save"),
        "metrics.eval_s": seconds("metrics.eval"),
        "cli.cpu_s": cpu,
        "cli.busy_cores": cpu / cli.wall(),
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
    }
    for key in ("detect.proposals", "detect.boundaries", "detect.kept_ratio",
                "correction.boundaries", "correction.moved", "correction.iterations",
                "correction.moved_ratio", "postprocess.frames_changed", "dataio.load_mb"):
        metrics[key] = traced.counts.get(key, 0)
    info = {f"{name}_s": total for name, (total, _) in sorted(self_times.items())}
    info.update({"replay_untraced_s": plain.wall_s, "replay_traced_s": traced.wall_s,
                 "cli_chain_s": cli.wall()})
    spans_path = STATE / "results" / f"{workload.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(recorder.as_records()))
    return metrics, info, cli.calls, [cli], problems, replay_failed


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def main(argv=None) -> int:
    started = time.monotonic()
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "actseg" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/actseg and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path[:0] = [str(SRC)]
    import compileall

    import actseg
    if not Path(actseg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: actseg imported from {actseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from chain import Runner
    from workloads import WORKLOADS, corpus, corpus_stats

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    compileall.compile_dir(str(SRC), quiet=1)
    path = corpus(workload, args.seed, STATE / "cache")
    stats = corpus_stats(path)
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    log = STATE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.log"
    log.unlink(missing_ok=True)
    runner = Runner(SRC, log, started + HARD_LIMIT_S)

    if args.trace:
        metrics, info, calls, chains, problems, replay_failed = _traced(
            args, workload, path, runner)
        wanted = spec["per_layer"]
        attempted, failed = len(calls) + 2, replay_failed
    else:
        metrics, info, calls, chains = _untraced(args, workload, path, runner,
                                                 stats["frames"], started)
        problems = [p for c in chains for p in c.problems]
        wanted = spec["end_to_end"]
        attempted, failed = len(calls), 0
    digests = {c.digest for c in chains}
    if len(digests) > 1:
        problems.append(f"chains disagree: {len(digests)} distinct output digests")
    failed += sum(not c.ok for c in calls)
    out_digest = chains[0].digest
    golden = _golden(workload.name, args.seed, out_digest)

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        problems.append(f"metric set differs from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    correct = not problems and failed == 0
    record = {"context": _context(args, spec, stats), "correct": correct,
              "problems": problems, "digest": out_digest, "golden": golden,
              "metrics": metrics, "info": info}
    (log.with_suffix(".json")).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed}: {stats['videos']} videos, "
          f"{stats['frames']} frames, {stats['feature_mib']:.1f} MiB float32 2048xT features")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"blas threads pinned to 1; --seed 0 --jobs 2 in every call")
    for key, value in info.items():
        print(f"  info {key} = {value}")
    directions = {m["name"]: m["better"] for m in wanted}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')} ({directions.get(name, '?')} is better)")
    print(f"output digest {out_digest} golden: {golden}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
