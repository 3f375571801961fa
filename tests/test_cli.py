import argparse
import importlib
import logging
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import actseg
from actseg import cli, dataio
from actseg.cli import main
from actseg.core import BoundarySet, LabelSequence
from actseg.detect import MethodProposals


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(["synth", "--out-dir", str(out), "--count", "3", "--segments", "4",
                 "--dim", "8", "--min-len", "40", "--max-len", "70",
                 "--sigma", "0.0", "--perturb", "5", "--seed", "1"])
    assert code == 0
    return out


def test_synth_layout(synth_dir):
    assert sorted(p.name for p in synth_dir.iterdir()) == \
        ["bounds", "features", "groundTruth", "mapping.txt", "predictions", "splits"]
    for sub, suffix in (("features", ".npy"), ("groundTruth", ".txt"), ("predictions", ".txt")):
        assert sorted(p.name for p in (synth_dir / sub).iterdir()) == \
            [f"synth_{i:03d}{suffix}" for i in range(3)]
    assert len(dataio.load_mapping(synth_dir / "mapping.txt")) == 4


def test_detect_eval_chain(synth_dir, tmp_path, capsys):
    bounds_dir = tmp_path / "bounds"
    labels_dir = tmp_path / "labels"
    code = main(["detect", str(synth_dir / "features"), "--num-classes", "4",
                 "--b-intrv", "20", "--seed", "0", "--jobs", "2",
                 "--out-bounds", str(bounds_dir), "--out-labels", str(labels_dir)])
    assert code == 0
    # zero-noise synthetic: detection is exact per video
    for vid in ("synth_000", "synth_001", "synth_002"):
        got = dataio.load_boundaries(bounds_dir / f"{vid}.txt")
        want = dataio.load_boundaries(synth_dir / "bounds" / f"{vid}.txt")
        assert got == want
    code = main(["eval", str(labels_dir), str(synth_dir / "groundTruth"),
                 "--mapping", str(synth_dir / "mapping.txt"),
                 "--pred-format", "ids", "--label-match", "hungarian"])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=") for line in out.splitlines() if "=" in line)
    assert float(fields["f1_10"]) == 100.0


def test_correct_smooth_eval_chain(synth_dir, tmp_path, capsys):
    corrected = tmp_path / "corrected"
    code = main(["correct", str(synth_dir / "features"), str(synth_dir / "predictions"),
                 "--mapping", str(synth_dir / "mapping.txt"),
                 "--b-win", "16", "--b-seg", "4",
                 "--out", str(corrected), "--report", str(tmp_path / "reports")])
    assert code == 0
    smoothed = tmp_path / "smoothed"
    code = main(["smooth", str(corrected), "--s-win", "4",
                 "--mapping", str(synth_dir / "mapping.txt"), "--out", str(smoothed)])
    assert code == 0
    code = main(["eval", str(smoothed), str(synth_dir / "groundTruth"),
                 "--mapping", str(synth_dir / "mapping.txt"),
                 "--splits", str(synth_dir / "splits" / "all.txt"),
                 "--report", str(tmp_path / "report.txt")])
    assert code == 0
    report = dataio.load_report(tmp_path / "report.txt")
    assert report["f1_10"] == 100.0  # sigma=0 corrections are exact
    assert report["acc"] == 100.0
    out = capsys.readouterr().out
    assert "avg" in out


def test_correct_report_lines(synth_dir, tmp_path):
    code = main(["correct", str(synth_dir / "features"), str(synth_dir / "predictions"),
                 "--mapping", str(synth_dir / "mapping.txt"),
                 "--out", str(tmp_path / "out"), "--report", str(tmp_path / "reports")])
    assert code == 0
    lines = (tmp_path / "reports" / "synth_000.txt").read_text().splitlines()
    assert len(lines) == 3  # 4 segments -> 3 boundaries
    for line in lines:
        original, corrected, iterations = map(int, line.split())
        assert iterations >= 0


def test_vote_identical_inputs(synth_dir, tmp_path):
    pred = synth_dir / "predictions" / "synth_000.txt"
    out = tmp_path / "voted.txt"
    code = main(["vote", str(pred), str(pred), str(pred), str(pred),
                 "--mapping", str(synth_dir / "mapping.txt"), "--out", str(out)])
    assert code == 0
    mapping = dataio.load_mapping(synth_dir / "mapping.txt")
    assert dataio.load_labels(out, mapping) == dataio.load_labels(pred, mapping)


def test_vote_id_files_widen_to_largest_class_count(tmp_path):
    paths = []
    for i, ids in enumerate(("0 1 2", "0 1 5", "0 1 2")):
        paths.append(tmp_path / f"p{i}.txt")
        paths[-1].write_text(ids.replace(" ", "\n") + "\n")
    out = tmp_path / "voted.txt"
    assert main(["vote", *map(str, paths), "--out", str(out)]) == 0
    assert out.read_text() == "0\n1\n2\n"


def test_vote_length_mismatch_names_both_files(tmp_path, capsys):
    short, long = tmp_path / "short.txt", tmp_path / "long.txt"
    short.write_text("0\n1\n1\n")
    long.write_text("0\n0\n1\n1\n")
    assert main(["vote", str(short), str(long), "--out", str(tmp_path / "v.txt")]) == 2
    err = capsys.readouterr().err
    assert f"error: {long}: 4 frames, but {short} has 3" in err
    assert not (tmp_path / "v.txt").exists()


def test_vote_requires_two_inputs(synth_dir, tmp_path):
    pred = synth_dir / "predictions" / "synth_000.txt"
    code = main(["vote", str(pred), "--out", str(tmp_path / "v.txt"),
                 "--mapping", str(synth_dir / "mapping.txt")])
    assert code == 2


def test_detect_auto_b_intrv_logged(synth_dir, tmp_path, caplog):
    import logging
    with caplog.at_level(logging.INFO, logger="actseg"):
        code = main(["detect", str(synth_dir / "features" / "synth_000.npy"),
                     "--num-classes", "4", "--b-intrv", "auto",
                     "--out-bounds", str(tmp_path / "b.txt")])
    assert code == 0
    assert "b_intrv=" in caplog.text


def test_detect_constant_features_degenerate_exit(tmp_path):
    # The float32 video's cosine scores all round to the same value, whose
    # mean rounds above it: a mean taken outside the scores' range.
    feats = tmp_path / "flat.npy"
    for values, extra in ((np.ones((50, 4)), ["--b-intrv", "10"]),
                          (np.ones((50, 8), dtype=np.float32), [])):
        dataio.write_array(feats, values)
        code = main(["detect", str(feats), "--num-classes", "2", *extra,
                     "--out-bounds", str(tmp_path / "bounds.txt")])
        assert code == 1, values.shape
        assert (tmp_path / "bounds.txt").read_text() == ""


def test_missing_file_exit_2(tmp_path):
    code = main(["detect", str(tmp_path / "nope.npy"), "--num-classes", "2",
                 "--out-bounds", str(tmp_path / "b.txt")])
    assert code == 2


def _negative_dim_npy(tmp_path):
    path = tmp_path / "bad.npy"
    dataio.write_array(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes().replace(b"(2, 3)", b"(-2,3)"))  # same header length
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "byte 10"


def _overflowing_shape_npy(tmp_path):
    # 2**32 * 2**32 elements wraps to 0 in int64 arithmetic
    path = tmp_path / "wrap.npy"
    dataio.write_array(path, np.ones((2, 3)))
    shape = b"(4294967296, 4294967296), }"
    old = b"(2, 3), }" + b" " * (len(shape) - len(b"(2, 3), }"))  # same header length
    path.write_bytes(path.read_bytes().replace(old, shape))
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "truncated data at byte"


def _zero_frame_npy(tmp_path):
    path = tmp_path / "empty.npy"
    dataio.write_array(path, np.ones((2048, 0)))
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "T, D >= 1"


def _more_classes_than_frames(tmp_path):
    path = tmp_path / "short.npy"
    dataio.write_array(path, np.random.default_rng(0).normal(size=(5, 3)))
    return path, ["detect", str(path), "--num-classes", "1000",
                  "--out-bounds", str(tmp_path / "b.txt")], "num_classes 1000"


def _negative_label_id(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n-1\n")
    return path, ["smooth", str(path), "--s-win", "2", "--out", str(tmp_path / "s.txt")], \
        f"{path}:2: negative class id"


def _underscored_label_id(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1_0\n")
    return path, ["smooth", str(path), "--s-win", "2", "--out", str(tmp_path / "s.txt")], \
        f"{path}:2: expected an integer class id, got '1_0'"


def _oversized_label_id(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n99999999999999999999\n")
    return path, ["smooth", str(path), "--s-win", "2", "--out", str(tmp_path / "s.txt")], \
        f"{path}:2: class id '99999999999999999999' does not fit in int64"


def _huge_npy_header(tmp_path):
    # A long unary-minus chain makes Python's literal parser run out of memory.
    path = tmp_path / "deep.npy"
    header = b"-" * 60000 + b"1"
    path.write_bytes(dataio.MAGIC + bytes([1, 0]) + len(header).to_bytes(2, "little") + header)
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "header length 60001 at byte 8"


def _unclosed_npy_header(tmp_path):
    # NumPy retries the header through the tokenizer, which raises TokenError
    path = tmp_path / "unclosed.npy"
    dataio.write_array(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes().replace(b"}", b" ", 1))  # same header length
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "bad NPY header at byte 8"


def _unhashable_npy_header(tmp_path):
    # the literal parser raises TypeError on a list used as a key
    path = tmp_path / "unhashable.npy"
    header = b"{[]: 0}"
    path.write_bytes(dataio.MAGIC + bytes([1, 0]) + len(header).to_bytes(2, "little") + header)
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "bad NPY header at byte 8"


def _ambiguous_orientation_npy(tmp_path):
    # a 1024-frame D x T dump and a 2048-frame T x D file have the same shape
    path = tmp_path / "square.npy"
    dataio.write_array(path, np.zeros((2048, 1024), dtype=np.float32), "<f4")
    return path, ["detect", str(path), "--num-classes", "2",
                  "--out-bounds", str(tmp_path / "b.txt")], "--orientation"


def _sparse_ids_hungarian(tmp_path):
    for sub, text in (("pred", "0\n1000000000000\n0\n"), ("gt", "0\n1\n0\n")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "v.txt").write_text(text)
    return tmp_path / "pred" / "v.txt", \
        ["eval", str(tmp_path / "pred"), str(tmp_path / "gt"), "--pred-format", "ids",
         "--label-match", "hungarian"], "1000000000001 x 2 overlap matrix"


@pytest.mark.parametrize("bad_input", [_negative_dim_npy, _overflowing_shape_npy,
                                       _zero_frame_npy, _more_classes_than_frames,
                                       _negative_label_id, _underscored_label_id,
                                       _oversized_label_id, _huge_npy_header,
                                       _unclosed_npy_header, _unhashable_npy_header,
                                       _ambiguous_orientation_npy, _sparse_ids_hungarian])
def test_bad_input_exit_2_names_file(tmp_path, capsys, bad_input):
    path, argv, detail = bad_input(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {path}" in err and detail in err


def _cut_in_half(path):
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


def _flip_first_byte(path):
    raw = path.read_bytes()
    path.write_bytes(bytes([raw[0] ^ 0x80]) + raw[1:])


def _insert_line(path):
    path.write_bytes(b"x y\n" + path.read_bytes())


def _delete_first_line(path):
    path.write_bytes(path.read_bytes().split(b"\n", 1)[1])


def _empty(path):
    path.write_bytes(b"")


_SMOOTH_NAMES = ["smooth", "predictions/synth_000.txt", "--mapping", "mapping.txt",
                 "--s-win", "4", "--out", "o.txt"]
# kind: (file, mutation, command). Boundary files and eval reports are read by no command.
_MUTATED_INPUTS = {
    "features": ("features/synth_000.npy", _cut_in_half,
                 ["detect", "features/synth_000.npy", "--num-classes", "4",
                  "--out-bounds", "o.txt"]),
    "labels_names": ("predictions/synth_000.txt", _flip_first_byte, _SMOOTH_NAMES),
    "labels_ids": ("ids.txt", _insert_line,
                   ["smooth", "ids.txt", "--s-win", "4", "--out", "o.txt"]),
    "mapping": ("mapping.txt", _delete_first_line, _SMOOTH_NAMES),
    "split": ("splits/all.txt", _empty,
              ["eval", "predictions", "groundTruth", "--mapping", "mapping.txt",
               "--splits", "splits/all.txt", "--report", "o.txt"]),
}


@pytest.mark.parametrize("kind", list(_MUTATED_INPUTS))
def test_mutated_input_exit_2_names_it(synth_dir, capsys, monkeypatch, kind):
    monkeypatch.chdir(synth_dir)
    dataio.save_text("ids.txt", "0\n0\n1\n1\n")
    path, mutate, argv = _MUTATED_INPUTS[kind]
    assert main(argv) == 0
    capsys.readouterr()
    mutate(Path(path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.fixture()
def id_predictions(synth_dir):
    """synth_dir plus ids/: bare-id predictions whose ids rotate the classes."""
    mapping = dataio.load_mapping(synth_dir / "mapping.txt")
    (synth_dir / "ids").mkdir()
    for path in (synth_dir / "groundTruth").iterdir():
        gt = dataio.load_labels(path, mapping)
        rotated = LabelSequence((gt.labels + 1) % gt.class_count, gt.class_count)
        dataio.save_labels(synth_dir / "ids" / path.name, rotated)
    return synth_dir


# Python statements that set `code` to an exit code, for a data dir in sys.argv[1].
_CLI_RUNS = {
    "import": "code = 0",
    "eval": "d = sys.argv[1]; code = actseg.cli.main(['eval', d + '/predictions',"
            " d + '/groundTruth', '--mapping', d + '/mapping.txt'])",
    "hungarian": "d = sys.argv[1]; code = actseg.cli.main(['eval', d + '/ids',"
                 " d + '/groundTruth', '--mapping', d + '/mapping.txt',"
                 " '--pred-format', 'ids', '--label-match', 'hungarian'])",
    "help": "code = actseg.cli.main(['--help'])",
    "jobs1": "d = sys.argv[1]; code = actseg.cli.main(['smooth', d + '/predictions',"
             " '--s-win', '4', '--mapping', d + '/mapping.txt', '--out', d + '/s',"
             " '--jobs', '1'])",
    "jobs2": "d = sys.argv[1]; code = actseg.cli.main(['smooth', d + '/predictions',"
             " '--s-win', '4', '--mapping', d + '/mapping.txt', '--out', d + '/s',"
             " '--jobs', '2'])",
}


def _python(code, data_dir):
    src = str(Path(actseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, str(data_dir)], env=env).returncode


@pytest.mark.parametrize("run", list(_CLI_RUNS))
def test_cli_never_loads_scipy(id_predictions, run):
    code = f"import sys, actseg.cli\n{_CLI_RUNS[run]}\nsys.exit(code or 'scipy' in sys.modules)"
    assert _python(code, id_predictions) == 0


@pytest.mark.parametrize("run", ["import", "help", "jobs1", "jobs2"])
def test_cli_never_loads_multiprocessing(id_predictions, run):
    # The fork pool is os.fork and pipes: the 20 ms import of these modules
    # would land in every call that forks.
    code = (f"import sys, actseg.cli\n{_CLI_RUNS[run]}\nsys.exit(code or any(m in sys.modules"
            f" for m in ('multiprocessing', 'concurrent.futures.process')))")
    assert _python(code, id_predictions) == 0


def test_hungarian_eval_runs_without_scipy(id_predictions):
    # A None entry makes every `import scipy...` raise ImportError.
    code = (f"import sys\nsys.modules['scipy'] = None\nimport actseg.cli\n"
            f"{_CLI_RUNS['hungarian']}\nsys.exit(code)")
    assert _python(code, id_predictions) == 0


def test_smooth_single_file_auto(synth_dir, tmp_path):
    pred = synth_dir / "predictions" / "synth_001.txt"
    out = tmp_path / "smoothed.txt"
    code = main(["smooth", str(pred), "--s-win", "auto",
                 "--mapping", str(synth_dir / "mapping.txt"), "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_plot_svg_two_rows_deterministic(synth_dir, tmp_path):
    gt = synth_dir / "groundTruth" / "synth_000.txt"
    pred = synth_dir / "predictions" / "synth_000.txt"
    fig_a = tmp_path / "a.svg"
    fig_b = tmp_path / "b.svg"
    for fig in (fig_a, fig_b):
        code = main(["plot", str(gt), str(pred),
                     "--mapping", str(synth_dir / "mapping.txt"), "--out", str(fig)])
        assert code == 0
    assert fig_a.read_bytes() == fig_b.read_bytes()
    assert fig_a.read_text().count("<text") == 2


def test_report_and_plot_written_atomically(synth_dir, tmp_path, monkeypatch):
    written = []
    write_all = dataio._write_all

    def recording(writes):
        writes = list(writes)
        written.extend(Path(path) for path, _ in writes)
        write_all(writes)

    monkeypatch.setattr(dataio, "_write_all", recording)
    report, fig = tmp_path / "report.txt", tmp_path / "fig.svg"
    gt = synth_dir / "groundTruth" / "synth_000.txt"
    assert main(["correct", str(synth_dir / "features" / "synth_000.npy"),
                 str(synth_dir / "predictions" / "synth_000.txt"),
                 "--mapping", str(synth_dir / "mapping.txt"),
                 "--out", str(tmp_path / "out.txt"), "--report", str(report)]) == 0
    assert main(["plot", str(gt), "--mapping", str(synth_dir / "mapping.txt"),
                 "--out", str(fig)]) == 0
    assert report in written and fig in written
    mapping = dataio.load_mapping(synth_dir / "mapping.txt")
    _, records = actseg.correct_all(
        dataio.load_features(synth_dir / "features" / "synth_000.npy"),
        dataio.load_labels(synth_dir / "predictions" / "synth_000.txt", mapping))
    assert report.read_bytes() == b"".join(
        b"%d %d %d\n" % (r.original, r.corrected, r.iterations) for r in records.records)
    assert fig.read_bytes() == \
        cli.render_svg([(gt.stem, dataio.load_labels(gt, mapping))], 1000).encode()
    assert (synth_dir / "splits" / "all.txt").read_bytes() == \
        b"synth_000\nsynth_001\nsynth_002\n"


def test_plot_text_mode(synth_dir, capsys):
    gt = synth_dir / "groundTruth" / "synth_000.txt"
    code = main(["plot", str(gt), "--mapping", str(synth_dir / "mapping.txt"),
                 "--text"])
    assert code == 0
    assert "synth_000" in capsys.readouterr().out


def test_plot_checks_usage_before_loading(tmp_path, capsys):
    names = tmp_path / "names.txt"
    names.write_text("pour\npour\nstir\n")  # names, and no --mapping to read them
    assert main(["plot", str(names)]) == 2
    assert "error: plot needs --out FILE.svg (or --text)" in capsys.readouterr().err


def test_plot_refuses_text_with_out(tmp_path, capsys):
    fig = tmp_path / "f.svg"
    # The label file is never read: the usage check comes first.
    assert main(["plot", str(tmp_path / "missing.txt"), "--text", "--out", str(fig)]) == 2
    out, err = capsys.readouterr()
    assert "error: plot takes --out FILE.svg or --text, not both" in err
    assert out == "" and not fig.exists()


def test_plot_empty_labels_exit_2(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = main(["plot", str(empty), "--out", str(tmp_path / "fig.svg")])
    assert code == 2


@pytest.mark.parametrize("mode, width", [("text", "0"), ("svg", "0"), ("text", "-3"),
                                         ("svg", "-3"), ("text", "100000000")])
def test_plot_bad_width_exit_2(tmp_path, capsys, mode, width):
    labels = tmp_path / "l.txt"
    labels.write_text("0\n0\n1\n")
    fig = tmp_path / "figs" / "f.svg"
    argv = ["--text"] if mode == "text" else ["--out", str(fig)]
    assert main(["plot", str(labels), *argv, "--width", width]) == 2
    out, err = capsys.readouterr()
    bound = ">= 1" if int(width) < 1 else "<= 10000"
    assert f"width must be {bound}, got {width}" in err
    assert out == "" and not fig.parent.exists()


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-1"),
                                         ("--perturb", "-2")])
def test_synth_bad_count_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert main(["synth", "--out-dir", str(out), flag, value]) == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--segments", "0"], ["--min-len", "0"], ["--dim", "0"],
                                  ["--sigma", "-1"], ["--min-len", "20", "--max-len", "10"],
                                  ["--sigma", "nan"], ["--sigma", "inf"],
                                  ["--separation", "nan"], ["--separation", "inf"]])
def test_synth_bad_spec_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(["synth", "--out-dir", str(out), *argv]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def _snapshot(root):
    """Every file and directory under `root`: a file's bytes, None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("argv, blocked", [
    (["--segments", "48", "--dim", "1"], None),  # no room for 48 separated means
    # synth_000 and synth_001 are generated before synth_002 cannot be perturbed
    (["--count", "3", "--segments", "3", "--dim", "4", "--min-len", "10",
      "--max-len", "30", "--perturb", "6", "--seed", "0"], None),
    # synth_000's files are staged, and none renamed, when synth_001.npy meets a directory
    (["--count", "3", "--segments", "3", "--dim", "4", "--min-len", "20",
      "--max-len", "30", "--perturb", "2"], Path("features", "synth_001.npy")),
], ids=["means", "perturb", "blocked"])
def test_synth_failure_leaves_nothing(tmp_path, capsys, argv, blocked):
    out = tmp_path / "o"
    if blocked:
        (out / blocked).mkdir(parents=True)
    before = _snapshot(tmp_path)
    assert main(["synth", "--out-dir", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert "error: " in err
    if blocked:
        assert f"error: [Errno 21] Is a directory: '{out / blocked}'\n" in err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("command", ["synth", "detect"])
def test_rerun_into_a_blocked_output_keeps_the_earlier_run(synth_dir, tmp_path, capsys,
                                                           command):
    # The rename of an earlier output would replace its old file, which the undo
    # could then only delete; a directory where an output goes fails first.
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--out-dir", str(out), "--count", "3", "--segments", "3",
                "--dim", "4", "--min-len", "20", "--max-len", "30"]
        blocked = out / "features" / "synth_001.npy"
    else:
        argv = ["detect", str(synth_dir / "features"), "--num-classes", "4",
                "--b-intrv", "20", "--out-bounds", str(out / "bounds"),
                "--out-labels", str(out / "labels"), "--jobs", "1"]
        blocked = out / "labels" / "synth_001.txt"
    assert main(argv) == 0
    blocked.unlink()
    blocked.mkdir()  # a directory where the output file goes
    before = _snapshot(out)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"error: [Errno 21] Is a directory: '{blocked}'\n" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_synth_failure_removes_only_the_directories_it_made(tmp_path, capsys):
    kept = tmp_path / "kept"
    kept.mkdir()
    out = kept / "a" / "b" / "o"
    assert main(["synth", "--out-dir", str(out), "--segments", "48", "--dim", "1"]) == 2
    assert "error: infeasible spec" in capsys.readouterr().err
    assert _snapshot(tmp_path) == {Path("kept"): None}


def test_write_error_names_the_output(tmp_path, capsys):
    labels, odir = tmp_path / "x.txt", tmp_path / "odir"
    labels.write_text("0\n0\n1\n")
    odir.mkdir()  # a directory where the output file goes
    errors = []
    for _ in range(2):
        assert main(["smooth", str(labels), "--s-win", "2", "--out", str(odir)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert f"error: [Errno 21] Is a directory: '{odir}'\n" in errors[0]
    assert f".{odir.name}." not in errors[0]
    assert _snapshot(tmp_path) == {Path("x.txt"): b"0\n0\n1\n", Path("odir"): None}


def test_synth_into_existing_dir(synth_dir, tmp_path):
    want = _tree(synth_dir)
    (synth_dir / "notes.txt").write_text("kept\n")
    assert main(["synth", "--out-dir", str(synth_dir), "--count", "3", "--segments", "4",
                 "--dim", "8", "--min-len", "40", "--max-len", "70",
                 "--sigma", "0.0", "--perturb", "5", "--seed", "1"]) == 0
    assert _tree(synth_dir) == {**want, Path("notes.txt"): b"kept\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_2(synth_dir, tmp_path, capsys, jobs):
    out = tmp_path / "bounds"
    assert main(["detect", str(synth_dir / "features"), "--num-classes", "4",
                 "--jobs", jobs, "--out-bounds", str(out)]) == 2
    assert f"error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_default_jobs_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    args = cli.build_parser().parse_args(["smooth", "p", "--s-win", "4", "--out", "o"])
    assert args.jobs == 1


def test_jobs_without_fork_exit_2(synth_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    out = tmp_path / "out"
    assert main(["smooth", str(synth_dir / "predictions"), "--s-win", "4", "--jobs", "2",
                 "--mapping", str(synth_dir / "mapping.txt"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: --jobs 2 needs the 'fork' start method" in err and "--jobs 1" in err
    assert not out.exists()


def _vote_seed(tmp_path):
    for name in ("a.txt", "b.txt"):
        (tmp_path / name).write_text("0\n1\n")
    return ["vote", "a.txt", "b.txt", "--seed", "1", "--out", "o.txt"], \
        "unrecognized arguments: --seed 1"


def _eval_greedy(tmp_path):
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "v.txt").write_text("0\n1\n")
    return ["eval", "pred", "gt", "--pred-format", "ids", "--label-match", "greedy"], \
        "invalid choice: 'greedy'"


def _smooth_stride(tmp_path):
    (tmp_path / "p.txt").write_text("0\n1\n")
    return ["smooth", "p.txt", "--s-win", "2", "--stride", "2", "--out", "o.txt"], \
        "unrecognized arguments: --stride 2"


def _data_root_path(tmp_path):
    (tmp_path / "root").mkdir()
    (tmp_path / "root" / "p.txt").write_text("0\n1\n")  # under ACTSEG_DATA_ROOT only
    return ["smooth", "p.txt", "--s-win", "2", "--out", "o.txt"], \
        "error: [Errno 2] No such file or directory: 'p.txt'"


def _mixed_window(b_win, b_seg):
    def case(tmp_path):
        dataio.write_array(tmp_path / "f.npy", np.ones((4, 2)))
        (tmp_path / "p.txt").write_text("0\n0\n1\n1\n")
        return ["correct", "f.npy", "p.txt", "--b-win", b_win, "--b-seg", b_seg,
                "--out", "o.txt"], "b_win and b_seg must both be 'auto' or both be numbers"
    return case


@pytest.mark.parametrize("case", [
    _vote_seed, _eval_greedy, _data_root_path, _smooth_stride,
    pytest.param(_mixed_window("auto", "4"), id="_auto_b_win"),
    pytest.param(_mixed_window("2", "auto"), id="_auto_b_seg")])
def test_removed_inputs_exit_2(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ACTSEG_DATA_ROOT", str(tmp_path / "root"))
    argv, message = case(tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.txt").exists()


def _integer_flag_inputs(tmp_path):
    dataio.write_array(tmp_path / "f.npy", np.ones((8, 2)))
    for path in ("p.txt", "pred/v.txt", "gt/v.txt"):
        dataio.save_text(tmp_path / path, "0\n0\n0\n0\n1\n1\n1\n1\n")


@pytest.mark.parametrize("spelling", ["1_0", "+3", "\u0663", " 3"],
                         ids=["underscore", "plus", "arabic_indic", "space"])
@pytest.mark.parametrize("argv", [
    ["correct", "f.npy", "p.txt", "--out", "o.txt", "--jobs"],
    ["correct", "f.npy", "p.txt", "--out", "o.txt", "--b-seg", "4", "--b-win"],
    ["smooth", "p.txt", "--out", "o.txt", "--s-win"],
    ["eval", "pred", "gt", "--pred-format", "ids", "--report", "o.txt", "--boundary-tolerance"],
    ["vote", "p.txt", "p.txt", "--out", "o.txt", "--trusted"],
    *(["synth", "--out-dir", "o.txt", "--segments", "2", "--min-len", "2", "--max-len", "3",
       flag] for flag in ("--count", "--sigma", "--separation")),
], ids=lambda argv: argv[-1])
def test_integer_flags_parse_like_files(tmp_path, capsys, monkeypatch, argv, spelling):
    monkeypatch.chdir(tmp_path)
    _integer_flag_inputs(tmp_path)
    assert main([*argv, spelling]) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-1]}: expected" in err and f"got {spelling!r}" in err
    assert not (tmp_path / "o.txt").exists()


def test_integer_flags_take_a_minus_sign(tmp_path, monkeypatch):
    # ranges stay with each flag's user: test_synth_bad_count_exit_2 sees `--perturb -2`
    monkeypatch.chdir(tmp_path)
    _integer_flag_inputs(tmp_path)
    assert main(["vote", "p.txt", "p.txt", "--trusted", "-1", "--out", "o.txt"]) == 0


def test_no_parser_action_uses_bare_int():
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    assert [a.dest for a in actions(cli.build_parser()) if a.type is int] == []


def test_window_flag_text_exit_2(tmp_path, capsys):
    assert main(["correct", "f.npy", "p.txt", "--b-win", "x", "--out", "o.txt"]) == 2
    assert "argument --b-win: expected a positive integer or 'auto', got 'x'" \
        in capsys.readouterr().err


def test_smooth_huge_bare_id(tmp_path):
    (tmp_path / "big.txt").write_text("0\n1000000000000\n0\n")
    assert main(["smooth", str(tmp_path / "big.txt"), "--s-win", "2",
                 "--out", str(tmp_path / "s.txt")]) == 0
    assert (tmp_path / "s.txt").read_text() == "0\n0\n0\n"


def test_eval_dotted_split_ids(tmp_path, capsys):
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "rgb.01.txt").write_text("0\n0\n1\n1\n")
    (tmp_path / "bare.txt").write_text("rgb.01\n")
    (tmp_path / "suffixed.txt").write_text("rgb.01.txt\n")
    assert main(["eval", str(tmp_path / "pred"), str(tmp_path / "gt"), "--pred-format", "ids",
                 "--splits", str(tmp_path / "bare.txt"), str(tmp_path / "suffixed.txt")]) == 0
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[2:5]]
    assert rows == [["bare", "100.00"], ["suffixed", "100.00"], ["avg", "100.00"]]


def test_repeat_runs_bit_identical(synth_dir, tmp_path):
    for sub in ("one", "two"):
        code = main(["detect", str(synth_dir / "features"), "--num-classes", "4",
                     "--b-intrv", "auto", "--seed", "3",
                     "--out-bounds", str(tmp_path / sub)])
        assert code == 0
    for vid in ("synth_000", "synth_001", "synth_002"):
        assert (tmp_path / "one" / f"{vid}.txt").read_bytes() == \
            (tmp_path / "two" / f"{vid}.txt").read_bytes()


def test_eval_ignore_unknown_name_exit_2(synth_dir, capsys):
    gt = str(synth_dir / "groundTruth")
    mapping = synth_dir / "mapping.txt"
    code = main(["eval", gt, gt, "--mapping", str(mapping), "--ignore", "no_such_action"])
    assert code == 2
    assert f"unknown class name 'no_such_action' in {mapping}" in capsys.readouterr().err
    code = main(["eval", gt, gt, "--pred-format", "ids", "--ignore", "action_00"])
    assert code == 2
    assert "--ignore: expected an integer class id, got 'action_00'" in capsys.readouterr().err


@pytest.mark.parametrize("spelling, message", [
    ("0_1", "expected an integer class id, got '0_1'"),
    ("\u0663", "expected an integer class id, got '\u0663'"),
    ("+1", "expected an integer class id, got '+1'"),
    ("-1", "negative class id '-1'")], ids=["underscore", "arabic_indic", "plus", "minus"])
def test_eval_ignore_ids_parse_like_label_files(tmp_path, capsys, spelling, message):
    for sub in ("pred", "gt"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "v.txt").write_text("0\n1\n3\n")
    assert main(["eval", str(tmp_path / "pred"), str(tmp_path / "gt"), "--pred-format", "ids",
                 "--ignore", spelling]) == 2
    assert capsys.readouterr().err == f"error: --ignore: {message}\n"


@pytest.mark.parametrize("splits", [False, True])
def test_eval_ignoring_every_class_exit_2(tmp_path, capsys, splits):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--count", "2", "--segments", "3",
                 "--dim", "8", "--min-len", "20", "--max-len", "30", "--seed", "1"]) == 0
    gt = str(data / "groundTruth")
    args = ["eval", gt, gt, "--mapping", str(data / "mapping.txt"),
            *(["--splits", str(data / "splits" / "all.txt")] if splits else [])]
    assert main([*args, "--ignore", "action_00", "action_01"]) == 0
    capsys.readouterr()
    assert main([*args, "--ignore", "action_00", "action_01", "action_02"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --ignore action_00 action_01 action_02: "
                                   "no ground-truth frame is left to score in ")
    assert captured.err.rstrip().endswith("all.txt" if splits else "groundTruth")


def test_jobs_outputs_identical(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--count", "4", "--segments", "5",
                 "--dim", "48", "--min-len", "60", "--max-len", "120",
                 "--sigma", "0.3", "--perturb", "5", "--seed", "7"]) == 0
    mapping = ["--mapping", str(data / "mapping.txt")]
    bundles = tmp_path / "bundles"
    bundles.mkdir()
    (bundles / "a.txt").write_text("synth_000\nsynth_001\nsynth_002\n")
    (bundles / "b.txt").write_text("synth_002\nsynth_003\n")  # shares synth_002 with a
    outputs = {}
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["detect", str(data / "features"), "--num-classes", "5",
                     "--b-intrv", "20", "--jobs", jobs, "--out-bounds", str(out / "bounds"),
                     "--out-labels", str(out / "labels")]) == 0
        assert main(["correct", str(data / "features"), str(data / "predictions"), *mapping,
                     "--jobs", jobs, "--out", str(out / "corrected"),
                     "--report", str(out / "report")]) == 0
        assert main(["smooth", str(out / "corrected"), "--s-win", "auto", *mapping,
                     "--jobs", jobs, "--out", str(out / "smoothed")]) == 0
        capsys.readouterr()
        assert main(["eval", str(out / "smoothed"), str(data / "groundTruth"), *mapping,
                     "--jobs", jobs]) == 0
        assert main(["eval", str(out / "smoothed"), str(data / "groundTruth"), *mapping,
                     "--jobs", jobs, "--splits", str(bundles / "a.txt"),
                     str(bundles / "b.txt")]) == 0
        outputs[jobs] = _tree(out), capsys.readouterr().out
    assert len(outputs["1"][0]) == 20
    assert outputs["1"][1].count("f1_50=") == 2
    rows = [line.split()[0] for line in outputs["1"][1].splitlines()
            if "=" not in line and not line.startswith(("split", "-"))]
    assert rows == ["all", "a", "b", "avg"]
    assert outputs["1"] == outputs["2"] == outputs["3"]


def test_eval_loads_each_video_once(synth_dir, tmp_path, monkeypatch):
    (tmp_path / "a.txt").write_text("synth_000\nsynth_001\n")
    (tmp_path / "b.txt").write_text("synth_001\nsynth_002\n")
    loaded = []
    load = dataio.load_labels

    def counting_load(path, mapping=None):
        loaded.append(Path(path).name)
        return load(path, mapping)

    monkeypatch.setattr(dataio, "load_labels", counting_load)
    assert main(["eval", str(synth_dir / "predictions"), str(synth_dir / "groundTruth"),
                 "--mapping", str(synth_dir / "mapping.txt"), "--jobs", "1",
                 "--splits", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
    assert sorted(loaded) == sorted(2 * ["synth_000.txt", "synth_001.txt", "synth_002.txt"])


@pytest.mark.parametrize("blank", [False, True])
def test_eval_duplicate_split_id_exit_2(synth_dir, tmp_path, capsys, blank):
    dup = tmp_path / "dup.txt"
    dup.write_text(("\n" if blank else "") + "synth_000\nsynth_000.txt\n")
    assert main(["eval", str(synth_dir / "predictions"), str(synth_dir / "groundTruth"),
                 "--mapping", str(synth_dir / "mapping.txt"), "--splits", str(dup)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = 3 if blank else 2
    assert captured.err == f"error: {dup}:{line}: video 'synth_000' listed twice\n"


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("command", ["detect", "correct"])
def test_colliding_outputs_exit_2(synth_dir, tmp_path, capsys, command, batch):
    feats, preds = synth_dir / "features", synth_dir / "predictions"
    if not batch:
        feats, preds = feats / "synth_000.npy", preds / "synth_000.txt"
    out = tmp_path / ("out" if batch else "out.txt")
    same = tmp_path / "." / out.name  # another spelling of the same path
    if command == "detect":
        flags = ("--out-bounds", "--out-labels")
        args = ["detect", str(feats), "--num-classes", "4", "--b-intrv", "20"]
    else:
        flags = ("--out", "--report")
        args = ["correct", str(feats), str(preds), "--mapping", str(synth_dir / "mapping.txt")]
    assert main([*args, flags[0], str(out), flags[1], str(same)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} and {flags[1]} both name ")
    assert not out.exists()


def test_dead_worker_exit_2(synth_dir, tmp_path, capfd, monkeypatch):
    out = tmp_path / "out"
    load = dataio.load_labels

    def dying_load(path, mapping=None):
        if Path(path).stem == "synth_002":
            # Die once the other two are written.
            deadline = time.monotonic() + 30
            while len(list(out.glob("*.txt"))) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            os._exit(3)
        return load(path, mapping)

    monkeypatch.setattr(dataio, "load_labels", dying_load)
    assert main(["smooth", str(synth_dir / "predictions"), "--s-win", "4", "--jobs", "2",
                 "--mapping", str(synth_dir / "mapping.txt"), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "error: a worker process died" in err and "Traceback" not in err
    assert sorted(p.name for p in out.iterdir()) == ["synth_000.txt", "synth_001.txt"]


def _within(seconds, call):
    """call(), failing with TimeoutError instead of hanging when it deadlocks."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_fork_pool_feeds_more_indices_than_a_pipe_holds():
    # 20 000 items, more than one queue write holds as single indices: the
    # queue holds chunks of consecutive items, at most PIPE_BUF // 4 of them.
    items = list(range(20_000))
    assert _within(60, lambda: cli._each_video(2, items, lambda i: (None, 2 * i))) == \
        (0, [2 * i for i in items])


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("count", [1023, 1024, 1025, 2049, 20_000])
def test_fork_pool_chunks_cover_every_item_once(jobs, count):
    # Around and past 1024 chunks, Linux's PIPE_BUF // 4: every item runs once, in order.
    items = list(range(count))
    assert _within(60, lambda: cli._each_video(jobs, items, lambda i: (None, i))) == (0, items)


def test_fork_pool_parent_writes_no_pipe_after_forking(monkeypatch):
    # The queue is written whole before the first fork, so the parent cannot
    # block on, or be refused by, a pipe its workers read. A child's calls
    # land in its own copy of `events`.
    events = []
    fork, write = os.fork, os.write
    monkeypatch.setattr(os, "fork", lambda: events.append("fork") or fork())
    monkeypatch.setattr(os, "write", lambda fd, data: events.append("write") or write(fd, data))
    assert _within(60, lambda: cli._each_video(2, list(range(50)), lambda i: (None, i))) == \
        (0, list(range(50)))
    assert events.count("fork") == 2
    assert "write" not in events[events.index("fork"):]


def test_every_worker_dying_exit_2(capsys):
    assert _within(60, lambda: cli._each_video(2, list(range(6)),
                                               lambda i: os._exit(3))) == (2, [])
    assert "error: a worker process died: worker " in capsys.readouterr().err
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_fork_pool_returns_records_larger_than_a_pipe():
    values = [bytes([i]) * 100_000 for i in range(8)]
    assert _within(60, lambda: cli._each_video(3, list(range(8)),
                                               lambda i: (f"item {i}", values[i]))) == (0, values)


def test_unhandled_worker_error_exit_2(synth_dir, tmp_path, capfd, monkeypatch):
    out = tmp_path / "out"
    load = dataio.load_labels

    def buggy_load(path, mapping=None):
        if Path(path).stem == "synth_001":
            raise TypeError("a bug")
        return load(path, mapping)

    monkeypatch.setattr(dataio, "load_labels", buggy_load)
    assert main(["smooth", str(synth_dir / "predictions"), "--s-win", "4", "--jobs", "2",
                 "--mapping", str(synth_dir / "mapping.txt"), "--out", str(out)]) == 2
    err = capfd.readouterr().err
    assert "error: a worker process died: worker " in err and "TypeError: a bug" in err
    assert (out / "synth_000.txt").exists() and not (out / "synth_001.txt").exists()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def _cli(args, stdout=subprocess.PIPE):
    """Run `python -m actseg.cli`, so through `entry()`, with a buffered stdout."""
    src = str(Path(actseg.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "actseg.cli", *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env={**env, "PYTHONPATH": src}, timeout=120)


def test_entry_flushes_every_output_and_passes_the_exit_code(synth_dir, tmp_path, capsys):
    mapping = ["--mapping", synth_dir / "mapping.txt"]
    evaluate = ["eval", synth_dir / "predictions", synth_dir / "groundTruth", *mapping,
                "--splits", synth_dir / "splits" / "all.txt", "--jobs", "2"]
    assert main(list(map(str, evaluate))) == 0
    want = capsys.readouterr().out
    report = tmp_path / "eval.out"
    with open(report, "w") as stdout:
        assert _cli(evaluate, stdout).returncode == 0
    assert report.read_text() == want and "f1_50=" in want

    smoothed = _cli(["smooth", synth_dir / "predictions", "--s-win", "auto", *mapping,
                     "--out", tmp_path / "smoothed", "--jobs", "2"])
    assert smoothed.returncode == 0 and smoothed.stdout == ""
    assert [line.split(":")[0] for line in smoothed.stderr.splitlines()] == \
        [f"synth_{i:03d}" for i in range(3)]

    flat = tmp_path / "flat.npy"
    dataio.write_array(flat, np.ones((50, 4)))
    no_bounds = _cli(["detect", flat, "--num-classes", "2", "--b-intrv", "10",
                      "--out-bounds", tmp_path / "bounds.txt"])
    assert no_bounds.returncode == 1 and "no boundaries detected for: flat" in no_bounds.stderr

    missing = _cli(["smooth", tmp_path / "missing.txt", "--s-win", "4", "--out", tmp_path / "o"])
    assert missing.returncode == 2 and missing.stderr.startswith("error: ")


def test_entry_reports_a_closed_stdout(synth_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails
    try:
        closed = _cli(["eval", synth_dir / "predictions", synth_dir / "groundTruth",
                       "--mapping", synth_dir / "mapping.txt"], write_end)
    finally:
        os.close(write_end)
    assert closed.returncode == 2
    assert closed.stderr == "error: [Errno 32] Broken pipe\n"


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["detect", "correct", "smooth"])
def test_bad_video_skipped_others_written(synth_dir, tmp_path, capsys, command):
    sub, bad = ("predictions", "synth_001.txt") if command == "smooth" else \
        ("features", "synth_001.npy")
    good, mixed = tmp_path / "good", tmp_path / "mixed"
    shutil.copytree(synth_dir / sub, good)
    shutil.copytree(synth_dir / sub, mixed)
    (good / bad).unlink()
    raw = (mixed / bad).read_bytes()
    (mixed / bad).write_bytes(b"\xff" + raw if command == "smooth" else raw[:200])
    mapping = ["--mapping", str(synth_dir / "mapping.txt")]

    def argv(inputs, out):
        if command == "detect":
            return ["detect", str(inputs), "--num-classes", "4", "--b-intrv", "20",
                    "--out-bounds", str(out)]
        if command == "correct":
            return ["correct", str(inputs), str(synth_dir / "predictions"), *mapping,
                    "--out", str(out)]
        return ["smooth", str(inputs), "--s-win", "4", *mapping, "--out", str(out)]

    assert main(argv(good, tmp_path / "want")) == 0
    capsys.readouterr()
    assert main(argv(mixed, tmp_path / "got")) == 2
    assert f"error: {mixed / bad}: " in capsys.readouterr().err
    assert len(_tree(tmp_path / "want")) == 2
    assert _tree(tmp_path / "got") == _tree(tmp_path / "want")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command, second", [
    *(pytest.param(command, False, id=command) for command in ("detect", "correct", "smooth")),
    pytest.param("detect", True, id="detect-second"),
    pytest.param("correct", True, id="correct-second")])
def test_unwritable_output_skips_only_its_video(synth_dir, tmp_path, capsys, command, second,
                                                jobs):
    """A blocked output skips its video, and a video leaves no output when either
    of its two outputs (detect's --out-labels, correct's --report) is blocked."""
    mapping = ["--mapping", str(synth_dir / "mapping.txt")]

    def argv(out, extra):
        return {
            "detect": ["detect", str(synth_dir / "features"), "--num-classes", "4",
                       "--b-intrv", "20", "--out-bounds", str(out), "--out-labels", str(extra)],
            "correct": ["correct", str(synth_dir / "features"), str(synth_dir / "predictions"),
                        *mapping, "--out", str(out), "--report", str(extra)],
            "smooth": ["smooth", str(synth_dir / "predictions"), "--s-win", "4", *mapping,
                       "--out", str(out)],
        }[command] + ["--jobs", jobs]

    want, got = tmp_path / "want", tmp_path / "got"
    assert main(argv(want / "first", want / "second")) == 0
    blocked = got / ("second" if second else "first") / "synth_001.txt"
    blocked.mkdir(parents=True)  # a directory where the output file goes
    capsys.readouterr()
    assert main(argv(got / "first", got / "second")) == 2
    assert str(blocked) in capsys.readouterr().err
    expected = {path: data for path, data in _tree(want).items()
                if path.name != "synth_001.txt"}
    assert len(expected) == (2 if command == "smooth" else 4)
    assert _tree(got) == expected


def test_eval_lists_every_missing_prediction(synth_dir, tmp_path, capsys):
    preds = tmp_path / "preds"
    shutil.copytree(synth_dir / "predictions", preds)
    for vid in ("synth_000", "synth_002"):
        (preds / f"{vid}.txt").unlink()
    code = main(["eval", str(preds), str(synth_dir / "groundTruth"),
                 "--mapping", str(synth_dir / "mapping.txt")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert str(preds / "synth_000.txt") in err and str(preds / "synth_002.txt") in err


@pytest.mark.parametrize("command", ["detect", "correct", "eval"])
def test_run_errors_name_the_file(synth_dir, tmp_path, capsys, command):
    # Every file loads, but synth_001 cannot be run: 3 frames are too few to
    # detect 4 classes, and a 20-frame prediction matches neither its
    # features nor its ground truth.
    sub, bad, other = {
        "detect": ("features", "synth_001.npy", None),
        "correct": ("predictions", "synth_001.txt", synth_dir / "features" / "synth_001.npy"),
        "eval": ("predictions", "synth_001.txt", synth_dir / "groundTruth" / "synth_001.txt"),
    }[command]
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    shutil.copytree(synth_dir / sub, inputs)
    if command == "detect":
        dataio.write_array(inputs / bad, np.zeros((3, 8)))
    else:
        (inputs / bad).write_text("".join((inputs / bad).read_text().splitlines(True)[:20]))
    mapping = ["--mapping", str(synth_dir / "mapping.txt")]
    argv = {
        "detect": ["detect", str(inputs), "--num-classes", "4", "--b-intrv", "20",
                   "--out-bounds", str(out)],
        "correct": ["correct", str(synth_dir / "features"), str(inputs), *mapping,
                    "--out", str(out)],
        "eval": ["eval", str(inputs), str(synth_dir / "groundTruth"), *mapping],
    }[command]
    assert main(argv) == 2
    stdout, err = capsys.readouterr()
    assert f"error: {inputs / bad}" in err
    if other is not None:
        assert str(other) in err
    if command == "eval":
        assert stdout == ""
    else:
        assert sorted(p.name for p in out.iterdir()) == ["synth_000.txt", "synth_002.txt"]


def test_smooth_auto_logs_in_input_order(synth_dir, tmp_path, caplog, monkeypatch):
    load = dataio.load_labels

    def slow_load(path, mapping=None):
        time.sleep(0.1 * (3 - int(Path(path).stem[-1])))  # synth_000 finishes last
        return load(path, mapping)

    monkeypatch.setattr(dataio, "load_labels", slow_load)
    with caplog.at_level(logging.INFO, logger="actseg"):
        assert main(["smooth", str(synth_dir / "predictions"), "--s-win", "auto",
                     "--jobs", "4", "--mapping", str(synth_dir / "mapping.txt"),
                     "--out", str(tmp_path / "out")]) == 0
    logged = [r.getMessage() for r in caplog.records if "resolved s_win" in r.getMessage()]
    assert [m.split(":")[0] for m in logged] == ["synth_000", "synth_001", "synth_002"]


def test_correct_auto_logs_resolved_windows_in_input_order(synth_dir, tmp_path, caplog,
                                                          monkeypatch):
    load = dataio.load_labels

    def slow_load(path, mapping=None):
        time.sleep(0.1 * (3 - int(Path(path).stem[-1])))  # synth_000 finishes last
        return load(path, mapping)

    monkeypatch.setattr(dataio, "load_labels", slow_load)
    with caplog.at_level(logging.INFO, logger="actseg"):
        assert main(["correct", str(synth_dir / "features"), str(synth_dir / "predictions"),
                     "--b-win", "auto", "--b-seg", "auto", "--jobs", "4",
                     "--mapping", str(synth_dir / "mapping.txt"),
                     "--out", str(tmp_path / "out")]) == 0
    logged = [r.getMessage() for r in caplog.records if "moved" in r.getMessage()]
    assert [m.split(":")[0] for m in logged] == ["synth_000", "synth_001", "synth_002"]
    assert all(re.fullmatch(r"synth_00\d: resolved b_win=\d+ b_seg=\d+, moved \d+ of \d+ "
                            r"boundaries", m) for m in logged)


def test_run_warnings_name_each_video_alike_for_every_jobs(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--count", "4", "--segments", "4",
                 "--dim", "8", "--min-len", "40", "--max-len", "70",
                 "--perturb", "5", "--seed", "2"]) == 0
    for path in (data / "features").iterdir():
        values = np.load(path)
        values[20:80] = 0.0  # zero-norm blocks, which cosine similarity warns about
        np.save(path, values)
    for command in ("correct", "detect"):
        args = (["detect", data / "features", "--num-classes", "4", "--b-intrv", "20",
                 "--out-bounds"] if command == "detect" else
                ["correct", data / "features", data / "predictions",
                 "--mapping", data / "mapping.txt", "--out"])
        errs = {}
        for jobs in ("1", "2", "3"):
            result = _cli([*args, tmp_path / f"{command}{jobs}", "--jobs", jobs])
            assert result.returncode == 0, result.stderr
            errs[jobs] = result.stderr
        assert errs["1"] == errs["2"] == errs["3"]
        warned = [line for line in errs["1"].splitlines() if "zero-norm" in line]
        assert warned == [f"synth_00{i}: zero-norm block in cosine similarity, scored 0.0"
                          for i in range(4)]


def test_detect_warns_before_full_d_dtw(tmp_path, caplog, monkeypatch):
    none = BoundarySet()
    proposals = MethodProposals(none, none, none, np.zeros(0), np.zeros(0),
                                np.zeros(0, dtype=np.int64), 10)
    monkeypatch.setattr(cli, "detect", lambda feat, cfg, seed: (BoundarySet((1,)), proposals))
    feats = tmp_path / "feats"
    feats.mkdir()
    for frames in (60, 61):  # (T - 1) * 4096^2 straddles 1e9 cells
        dataio.write_array(feats / f"t{frames}.npy", np.zeros((frames, 4096)), "<f4")

    def warnings(*flags):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="actseg"):
            assert main(["detect", str(feats), "--num-classes", "2", "--jobs", "1",
                         "--out-bounds", str(tmp_path / "bounds"), *flags]) == 0
        return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]

    full_d = ["t61: full-D DTW on T=61 frames x D=4096 dims is 1.0e+09 "
              "cost cells; consider --dim-reduce 64"]
    assert warnings() == full_d
    assert warnings("--dim-reduce", "4096") == full_d  # detect projects only below D
    assert warnings("--dim-reduce", "64") == []


@pytest.mark.parametrize("flags", [[], ["--dim-reduce", "2"]], ids=["full_d", "dim_reduce"])
def test_detect_reads_each_header_once(tmp_path, caplog, monkeypatch, flags):
    path = tmp_path / "py2.npy"
    dataio.write_array(path, np.arange(120.0).reshape(30, 4))
    path.write_bytes(path.read_bytes().replace(b"(30, 4), }", b"(30L, 4L)}"))  # same length
    reads = []
    read_header = dataio._read_header
    monkeypatch.setattr(dataio, "_read_header",
                        lambda *args: reads.append(args[0]) or read_header(*args))
    with caplog.at_level(logging.INFO, logger="actseg"):
        assert main(["detect", str(path), "--num-classes", "2",
                     "--out-bounds", str(tmp_path / "bounds.txt"), *flags]) == 0
    assert reads == [path]
    # A video logs each distinct warning once, so this line alone cannot count reads.
    headers = [r.getMessage() for r in caplog.records if "Python 2" in r.getMessage()]
    assert len(headers) == 1 and headers[0].startswith("py2: Reading `.npy`")


def test_detect_clusters_each_video_once(synth_dir, tmp_path, monkeypatch):
    detect_module = importlib.import_module("actseg.detect")
    kmeans = detect_module.kmeans
    calls = []

    def counted(points, k, seed):
        calls.append(np.shape(points))
        return kmeans(points, k, seed)

    monkeypatch.setattr(detect_module, "kmeans", counted)
    assert main(["detect", str(synth_dir / "features"), "--num-classes", "4",
                 "--dim-reduce", "4", "--b-intrv", "20", "--jobs", "1",
                 "--out-bounds", str(tmp_path / "bounds"),
                 "--out-labels", str(tmp_path / "labels")]) == 0
    # One clustering per video, on the projected 4-D features.
    frames = [dataio.load_features(p).frames
              for p in sorted((synth_dir / "features").glob("*.npy"))]
    assert calls == [(t, 4) for t in frames]


def _readme_block(heading, language):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _quickstart_commands():
    block = _readme_block("## Quickstart on synthetic data", "bash")
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("actseg ")]


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    commands = _quickstart_commands()
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(command) == 0, command


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(next(c for c in _quickstart_commands() if c[0] == "synth")) == 0
    exec(_readme_block("## Library", "python"), {})
    assert "'f1_50'" in capsys.readouterr().out


def test_readme_command_table_flags_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Command line\n", 1)[1].strip().split("\n\n", 1)[0]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    rows = table.splitlines()[2:]  # after the header and its rule
    assert len(rows) == len(subparsers)
    for row in rows:
        command, _, flags = (cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:4])
        options = subparsers[command.strip("`")]._option_string_actions
        for flag in re.findall(r"--[a-z][a-z-]*", flags):
            assert flag in options, f"README lists {flag} for {command}"
