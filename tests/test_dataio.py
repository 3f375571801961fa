import mmap
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from actseg import dataio
from actseg.cli import _read_split
from actseg.core import BoundarySet, FeatureSequence, LabelSequence
from actseg.metrics import THRESHOLDS, EvalResult, evaluate


def test_features_round_trip_f8(tmp_path):
    rng = np.random.default_rng(0)
    feat = FeatureSequence(rng.normal(size=(17, 5)))
    path = tmp_path / "a.npy"
    dataio.write_array(path, feat.values)
    again = dataio.load_features(path, dataio.T_BY_D)
    assert np.array_equal(again.values, feat.values)


def test_features_round_trip_f4(tmp_path):
    rng = np.random.default_rng(1)
    feat = FeatureSequence(rng.normal(size=(9, 3)).astype(np.float32))
    path = tmp_path / "b.npy"
    dataio.write_array(path, feat.values, "<f4")
    again = dataio.load_features(path, dataio.T_BY_D)
    assert np.array_equal(again.values, feat.values)


def test_numpy_interop(tmp_path):
    # files we write are plain NPY v1.0: numpy must read them, and we
    # must read numpy's
    arr = np.arange(12, dtype=np.float64).reshape(3, 4)
    ours = tmp_path / "ours.npy"
    dataio.write_array(ours, arr)
    assert np.array_equal(np.load(ours), arr)
    theirs = tmp_path / "theirs.npy"
    np.save(theirs, arr)
    assert np.array_equal(dataio.read_array(theirs), arr)


def test_auto_orientation_known_width(tmp_path):
    arr = np.random.default_rng(2).normal(size=(2048, 7))
    path = tmp_path / "wide.npy"
    dataio.write_array(path, arr)
    feat = dataio.load_features(path, dataio.AUTO_ORIENT)
    assert (feat.frames, feat.dim) == (7, 2048)


def test_auto_orientation_1024(tmp_path):
    arr = np.random.default_rng(3).normal(size=(1024, 5))
    path = tmp_path / "wide.npy"
    dataio.write_array(path, arr)
    feat = dataio.load_features(path, dataio.AUTO_ORIENT)
    assert (feat.frames, feat.dim) == (5, 1024)


@pytest.mark.parametrize("shape", [(2048, 1024), (1024, 2048), (2048, 2048), (1024, 1024)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_auto_orientation_refuses_two_known_widths(tmp_path, shape):
    path = tmp_path / "square.npy"
    dataio.write_array(path, np.zeros(shape, dtype=np.float32), "<f4")
    with pytest.raises(dataio.DataError) as info:
        dataio.load_features(path, dataio.AUTO_ORIENT)
    assert str(info.value).startswith(f"{path}: shape {shape} ")
    assert "--orientation" in str(info.value)
    assert dataio.load_features(path, dataio.T_BY_D).values.shape == shape
    assert dataio.load_features(path, dataio.D_BY_T).values.shape == shape[::-1]


def test_t_by_d_kept(tmp_path):
    arr = np.random.default_rng(4).normal(size=(11, 64))
    path = tmp_path / "tall.npy"
    dataio.write_array(path, arr)
    feat = dataio.load_features(path, dataio.T_BY_D)
    assert (feat.frames, feat.dim) == (11, 64)


def test_orientation_paths_agree(tmp_path):
    arr = np.random.default_rng(5).normal(size=(6, 9))
    a = tmp_path / "t_by_d.npy"
    b = tmp_path / "d_by_t.npy"
    dataio.write_array(a, arr)
    dataio.write_array(b, arr.T)
    via_t = dataio.load_features(a, dataio.T_BY_D)
    via_d = dataio.load_features(b, dataio.D_BY_T)
    assert np.array_equal(via_t.values, via_d.values)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"NOTANPYFILE")
    with pytest.raises(dataio.DataError, match="bad magic at byte 0"):
        dataio.read_array(path)


def test_non_integer_dimension_rejected(tmp_path):
    path = tmp_path / "float_dim.npy"
    dataio.write_array(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes().replace(b"(2, 3)", b"(2.,3)"))  # same header length
    with pytest.raises(ValueError):
        np.load(path)
    with pytest.raises(dataio.DataError, match=f"^{path}: bad NPY header at byte 8 "):
        dataio.read_array(path)


@pytest.mark.parametrize("header", [
    b"-" * 3000 + b"1",  # RecursionError in the literal parser
    b"-" * 9000 + b"1",  # MemoryError from the parser's depth guard
    b"{'descr': '<f8', 'fortran_order': False, 'shape': (1e999,)}",  # inf
    b"{'descr': '<f8', 'fortran_order': False, 'shape': (0,), 'x': 1}",
    b"{'descr': '<f8', 'fortran_order': 0, 'shape': (0,)}",
], ids=["deep3000", "deep9000", "inf_dim", "extra_key", "fortran_int"])
def test_unparsable_header_rejected(tmp_path, header):
    path = tmp_path / "bad.npy"
    path.write_bytes(dataio.MAGIC + bytes([1, 0]) + len(header).to_bytes(2, "little") + header)
    with pytest.raises(dataio.DataError, match=f"^{path}: bad NPY header at byte 8 "):
        dataio.read_array(path)


def test_python2_header_loads(tmp_path):
    path = tmp_path / "py2.npy"
    dataio.write_array(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes().replace(b"(2, 3), }", b"(2L, 3L)}"))  # same length
    with pytest.warns(UserWarning, match="Python 2"):
        assert dataio.read_array(path).shape == (2, 3)


def test_truncated_data(tmp_path):
    path = tmp_path / "trunc.npy"
    dataio.write_array(path, np.ones((4, 4)))  # 128-byte header, 128-byte payload
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(dataio.DataError) as info:
        dataio.read_array(path)
    assert str(info.value) == (f"{path}: truncated data at byte 128 "
                               "(expected 128 bytes, got 112)")


def test_file_cut_during_read_reports_bytes_read(tmp_path, monkeypatch):
    path = tmp_path / "shrinks.npy"
    dataio.write_array(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-16])
    real_fstat = dataio.os.fstat

    class Stat:  # the size a stat saw before the file was cut
        def __init__(self, fd):
            self.st_size = real_fstat(fd).st_size + 16

    monkeypatch.setattr(dataio.os, "fstat", Stat)
    with pytest.raises(dataio.DataError, match=r"at byte 128 \(expected 128 bytes, got 112\)"):
        dataio.read_array(path)


def test_fortran_order_rejected(tmp_path):
    path = tmp_path / "fortran.npy"
    np.save(path, np.asfortranarray(np.ones((3, 4))))
    with pytest.raises(dataio.DataError, match="Fortran-order"):
        dataio.read_array(path)


def test_transposed_save_rejected_as_features(tmp_path):
    # np.save of a transposed T x D array writes a Fortran-order D x T file.
    path = tmp_path / "fortran.npy"
    np.save(path, np.ones((4, 3), dtype=np.float32).T)
    with pytest.raises(dataio.DataError, match=f"^{path}: Fortran-order"):
        dataio.load_features(path, dataio.D_BY_T)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "ints.npy"
    np.save(path, np.arange(6).reshape(2, 3))  # int64
    with pytest.raises(dataio.DataError, match="unsupported dtype"):
        dataio.read_array(path)


def test_non_finite_rejected(tmp_path):
    arr = np.ones((4, 3))
    arr[2, 1] = np.inf
    path = tmp_path / "inf.npy"
    dataio.write_array(path, arr)
    with pytest.raises(dataio.DataError, match="frame 2, dim 1"):
        dataio.load_features(path, dataio.T_BY_D)


def test_non_finite_in_d_by_t_float32_names_frame_and_dim(tmp_path):
    # Past the first strip and tile of the copy; the other non-finite values
    # come later in frame order, one at an earlier dim.
    arr = np.ones((700, 600), dtype=np.float32)  # D x T
    arr[650, 513] = np.nan
    arr[3, 514] = np.inf
    arr[699, 513] = -np.inf
    path = tmp_path / "d_by_t.npy"
    dataio.write_array(path, arr, "<f4")
    with pytest.raises(dataio.DataError, match=r"non-finite feature value at frame 513, dim 650$"):
        dataio.load_features(path, dataio.D_BY_T)


def test_longdouble_beyond_float64_rejected():
    big = np.full((3, 2), np.finfo(np.float64).max, dtype=np.longdouble)
    big[1, 1] *= 4  # inf in float64 (and in a longdouble that is a double)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="frame 1, dim 1"):
        FeatureSequence(big)


def test_load_leaves_the_callers_array_writeable(tmp_path):
    path = tmp_path / "d_by_t.npy"
    dataio.write_array(path, np.arange(600.0).reshape(2, 300), "<f4")
    stored = dataio.read_array(path)
    feat = FeatureSequence(stored.T)
    assert stored.flags.writeable and not feat.values.flags.writeable
    stored[0, 0] = 7.0
    assert feat.values[0, 0] == 0.0 and feat.values[299, 1] == 599.0


def test_load_features_keeps_the_payload_it_reads(tmp_path):
    path = tmp_path / "d_by_t.npy"
    dataio.write_array(path, np.ones((2048, 300)), "<f4")
    tracemalloc.start()
    try:
        feat = dataio.load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert feat.values.dtype == np.float32 and feat.values.shape == (300, 2048)
    # The payload sits in an anonymous mapping of its own, which tracemalloc
    # does not trace, so any traced copy of it would show.
    base = feat.values
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
    assert peak < 0.2 * 2048 * 300 * 4


@st.composite
def _feature_files(draw):
    """(on-disk array, orientation): finite <f4/<f8 values, T x D or D x T."""
    frames, dim = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    descr = draw(st.sampled_from(dataio.SUPPORTED_DESCRS))
    orientation = draw(st.sampled_from((dataio.T_BY_D, dataio.D_BY_T)))
    shape = (frames, dim) if orientation == dataio.T_BY_D else (dim, frames)
    width = 32 if descr == "<f4" else 64
    values = arrays(np.dtype(descr), shape,
                    elements=st.floats(allow_nan=False, allow_infinity=False, width=width))
    return draw(values), orientation


@settings(max_examples=60, deadline=None)
@given(_feature_files())
def test_load_features_equals_numpy(tmp_path_factory, case):
    arr, orientation = case
    path = tmp_path_factory.mktemp("load") / "f.npy"
    np.save(path, arr)
    want = np.load(path)
    if orientation == dataio.D_BY_T:
        want = want.T
    got = dataio.load_features(path, orientation).values
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(_feature_files(), st.data())
def test_truncated_file_error_names_path(tmp_path_factory, case, data):
    arr, orientation = case
    path = tmp_path_factory.mktemp("cut") / "f.npy"
    np.save(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(dataio.DataError) as info:
        dataio.load_features(path, orientation)
    assert str(info.value).startswith(f"{path}: ")


def test_labels_round_trip(tmp_path):
    mapping = dataio.ClassMapping(("pour", "cut", "mix"))
    labels = LabelSequence(np.array([0, 0, 2, 1, 1]), 3)
    path = tmp_path / "labels.txt"
    dataio.save_labels(path, labels, mapping)
    assert dataio.load_labels(path, mapping) == labels


def test_labels_without_mapping_are_ids(tmp_path):
    labels = LabelSequence(np.array([0, 3, 3, 1]), 4)
    path = tmp_path / "ids.txt"
    dataio.save_labels(path, labels)
    assert dataio.load_labels(path) == labels


def test_labels_unknown_name_has_line_number(tmp_path):
    mapping = dataio.ClassMapping(("pour", "cut"))
    path = tmp_path / "labels.txt"
    path.write_text("pour\ncut\nblend\n")
    with pytest.raises(dataio.DataError, match="labels.txt:3"):
        dataio.load_labels(path, mapping)


def test_labels_first_unknown_name_reports_its_line(tmp_path):
    mapping = dataio.ClassMapping(("pour", "cut"))
    path = tmp_path / "labels.txt"
    path.write_text("pour\ncut\npour\nstir\ncut\nblend\nstir\n")
    with pytest.raises(dataio.DataError, match=r"labels.txt:4: unknown class name 'stir'"):
        dataio.load_labels(path, mapping)


@pytest.mark.parametrize("text, names", [
    ("pour\npour\ncut\nmix\ncut\n", ("pour", "cut", "mix")),
    ("0\n0\n12\n3\n", None)], ids=["names", "ids"])
def test_label_file_round_trips_byte_for_byte(tmp_path, text, names):
    mapping = dataio.ClassMapping(names) if names else None
    (tmp_path / "in.txt").write_text(text)
    dataio.save_labels(tmp_path / "out.txt", dataio.load_labels(tmp_path / "in.txt", mapping),
                       mapping)
    assert (tmp_path / "out.txt").read_bytes() == text.encode()


def test_labels_empty_file_errors(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(dataio.DataError, match="empty label file"):
        dataio.load_labels(path)


def test_labels_trailing_blank_line_ok(tmp_path):
    mapping = dataio.ClassMapping(("pour", "cut"))
    path = tmp_path / "labels.txt"
    path.write_text("pour\ncut\n\n\n")
    assert dataio.load_labels(path, mapping).labels.tolist() == [0, 1]


def test_boundaries_round_trip(tmp_path):
    path = tmp_path / "bounds.txt"
    dataio.save_boundaries(path, BoundarySet((2, 7)))
    assert path.read_text() == "2\n7\n"
    assert dataio.load_boundaries(path).indices == (2, 7)


def test_mapping_round_trip(tmp_path):
    mapping = dataio.ClassMapping(("background", "cut_tomato", "serve"))
    path = tmp_path / "mapping.txt"
    dataio.save_mapping(path, mapping)
    assert dataio.load_mapping(path) == mapping


@pytest.mark.parametrize("name", ["a b", "x\x85y", "", "tab\t", "\ud800"])
def test_mapping_rejects_names_its_files_cannot_hold(name):
    with pytest.raises(ValueError, match="class name"):
        dataio.ClassMapping(("ok", name))


@st.composite
def _accepted_mappings(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=6)
                          | st.sampled_from(["0", "a b", "", "x\x85y", "\ufeffa"]),
                          min_size=1, max_size=6, unique=True))
    try:
        return dataio.ClassMapping(tuple(names))
    except ValueError:
        reject()


@settings(max_examples=200, deadline=None)
@given(_accepted_mappings(), st.data())
def test_mapping_and_labels_round_trip(tmp_path_factory, mapping, data):
    root = tmp_path_factory.mktemp("round_trip")
    dataio.save_mapping(root / "mapping.txt", mapping)
    assert dataio.load_mapping(root / "mapping.txt") == mapping
    ids = data.draw(st.lists(st.integers(0, len(mapping) - 1), min_size=1, max_size=20))
    labels = LabelSequence(np.array(ids), len(mapping))
    dataio.save_labels(root / "named.txt", labels, mapping)
    assert dataio.load_labels(root / "named.txt", mapping) == labels
    dataio.save_labels(root / "ids.txt", labels)
    loaded = dataio.load_labels(root / "ids.txt")
    assert loaded.labels.tolist() == ids and loaded.class_count == max(ids) + 1


def test_mapping_requires_contiguous_ids(tmp_path):
    path = tmp_path / "mapping.txt"
    path.write_text("0 a\n2 b\n")
    with pytest.raises(dataio.DataError, match="contiguous"):
        dataio.load_mapping(path)


@pytest.mark.parametrize("load, raw, detail", [
    (dataio.load_labels, b"0\n\xff\n", ": not UTF-8 text at byte 2"),
    (dataio.load_mapping, b"0 a\n1 a\n", ":2: duplicate class name 'a'"),
    (dataio.load_boundaries, b"0\n", ": boundary indices must be >= 1"),
    # Integers are ASCII digits only: int() would read all of these.
    (dataio.load_labels, b"0\n1_0\n", ":2: expected an integer class id, got '1_0'"),
    (dataio.load_labels, b"+2\n", ":1: expected an integer class id, got '+2'"),
    (dataio.load_labels, "0\n\u0663\n".encode(), ":2: expected an integer class id"),
    (dataio.load_labels, b"0\n-0\n", ":2: negative class id '-0'"),
    (dataio.load_boundaries, b"5\n1_0\n", ":2: expected an integer frame index, got '1_0'"),
    (dataio.load_boundaries, b"+20\n", ":1: expected an integer frame index, got '+20'"),
    (dataio.load_boundaries, "\u0663\u0660\n".encode(), ":1: expected an integer frame index"),
    (dataio.load_mapping, b"+0 a\n1 b\n", ":1: bad class index '+0'"),
    (dataio.load_mapping, b"0 a\n0_1 b\n", ":2: bad class index '0_1'"),
    # Report values are ASCII decimals only: float() would read all of these.
    (dataio.load_report, b"acc=1_0\n", ":1: expected a number after '=', got '1_0'"),
    (dataio.load_report, b"acc=+3\n", ":1: expected a number after '=', got '+3'"),
    (dataio.load_report, b"acc= 3\n", ":1: expected a number after '=', got ' 3'"),
    (dataio.load_report, "acc=1\nedit=\u0663\n".encode(), ":2: expected a number after '='"),
    (dataio.load_report, b"f1_10=nan\n", ":1: expected a number after '=', got 'nan'"),
    (dataio.load_report, b"acc=-inf\n", ":1: expected a number after '=', got '-inf'"),
    (dataio.load_report, b"acc=1e999\n", ":1: expected a number after '=', got '1e999'"),
], ids=["labels", "mapping", "boundaries", "labels_underscore", "labels_plus",
        "labels_arabic_indic", "labels_minus_zero", "boundaries_underscore",
        "boundaries_plus", "boundaries_arabic_indic", "mapping_plus", "mapping_underscore",
        "report_underscore", "report_plus", "report_space", "report_arabic_indic",
        "report_nan", "report_inf", "report_overflow"])
def test_text_errors_name_the_file(tmp_path, load, raw, detail):
    path = tmp_path / "in.txt"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}{detail}")


_TEXT_PIECES = [b"0", b"1", b"7", b"-1", b"a", b"b", b"=", b" ", b"\n", b"\r\n",
                b"\xff", b"\xc3\xa9"]


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=32) | st.lists(st.sampled_from(_TEXT_PIECES), max_size=16).map(b"".join))
def test_text_loaders_return_or_name_the_file(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("text") / "in.txt"
    path.write_bytes(raw)
    mapping = dataio.ClassMapping(("a", "b", "0"))
    loaders = (dataio.load_labels, lambda p: dataio.load_labels(p, mapping),
               dataio.load_mapping, dataio.load_boundaries, dataio.load_report)
    for load in loaders:
        try:
            load(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), exc


# ------------------------------------------- generated files, then mutated

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def _valid_npy(path, data):
    arr, orientation = data.draw(_feature_files())
    dataio.write_array(path, arr, arr.dtype.str)
    return lambda p: dataio.load_features(p, orientation), FeatureSequence


# Names of printable, non-space characters: every one is a valid class name.
_MAPPINGS = st.lists(st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1,
                             max_size=6), min_size=1, max_size=6, unique=True).map(
    lambda names: dataio.ClassMapping(tuple(names)))


def _valid_labels(mapped):
    def write(path, data):
        mapping = data.draw(_MAPPINGS) if mapped else None
        count = len(mapping) if mapped else data.draw(st.integers(1, 2**63 - 1))
        ids = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=20))
        dataio.save_labels(path, LabelSequence(np.array(ids), count), mapping)
        return lambda p: dataio.load_labels(p, mapping), LabelSequence
    return write


def _valid_boundaries(path, data):
    cuts = data.draw(st.sets(st.integers(1, 10**6), max_size=12))
    dataio.save_boundaries(path, BoundarySet(tuple(sorted(cuts))))
    return dataio.load_boundaries, BoundarySet


def _valid_mapping(path, data):
    dataio.save_mapping(path, data.draw(_MAPPINGS))
    return dataio.load_mapping, dataio.ClassMapping


def _valid_split(path, data):
    # No id can end in .txt or .npy, so a suffix never makes two ids one.
    ids = data.draw(st.lists(st.text("ab01_.-", min_size=1, max_size=8).filter(
        lambda v: v != "."), min_size=1, max_size=8, unique=True))
    suffixes = data.draw(st.lists(st.sampled_from(["", "", ".txt", ".npy"]),
                                  min_size=len(ids), max_size=len(ids)))
    dataio.save_text(path, "".join(f"{v}{s}\n" for v, s in zip(ids, suffixes)))
    return _read_split, list


def _valid_report(path, data):
    dataio.save_report(path, EvalResult(data.draw(_FLOATS), data.draw(_FLOATS),
                                        {t: data.draw(_FLOATS) for t in THRESHOLDS},
                                        data.draw(_FLOATS)))
    return dataio.load_report, dict


_VALID_FILES = {"npy": _valid_npy, "labels_ids": _valid_labels(False),
                "labels_names": _valid_labels(True), "boundaries": _valid_boundaries,
                "mapping": _valid_mapping, "split": _valid_split, "report": _valid_report}
_LINES = st.sampled_from([b"", b"0", b"-1", b"1_0", b"+2", b"a", b"x y", b"acc=1", b"=",
                          b"\xff", "\u0663".encode(), b"\r"]) | st.binary(max_size=6)


def _mutated(raw: bytes, data) -> bytes:
    """`raw` truncated, with one bit flipped, or with a line inserted or deleted."""
    lines = raw.split(b"\n")
    kinds = ["truncate", "insert"] + (["flip", "delete"] if raw else [])
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, max(len(raw) - 1, 0)))]
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ (1 << data.draw(st.integers(0, 7)))]) + raw[at + 1:]
    at = data.draw(st.integers(0, len(lines) - (kind == "delete")))
    if kind == "insert":
        return b"\n".join(lines[:at] + [data.draw(_LINES).replace(b"\n", b"")] + lines[at:])
    return b"\n".join(lines[:at] + lines[at + 1:])


@pytest.mark.filterwarnings("ignore::UserWarning")  # NumPy re-tokenizing an odd header
@pytest.mark.parametrize("kind", list(_VALID_FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_names_itself(tmp_path_factory, kind, data):
    path = tmp_path_factory.mktemp(kind) / "in.txt"
    load, want = _VALID_FILES[kind](path, data)
    assert isinstance(load(path), want)
    path.write_bytes(_mutated(path.read_bytes(), data))
    try:
        got = load(path)
    except dataio.DataError as exc:
        assert str(exc).startswith(f"{path}"), exc
    else:
        assert isinstance(got, want)
        assert got or kind == "boundaries"


@given(_FLOATS)
def test_report_values_read_every_float_repr(value):
    assert dataio.decimal_number(repr(value)) == value
    assert dataio.decimal_number(".5") == 0.5


def test_report_round_trip(tmp_path):
    s = LabelSequence(np.array([0, 0, 1, 1]), 2)
    result = evaluate(s, s)
    path = tmp_path / "report.txt"
    dataio.save_report(path, result)
    loaded = dataio.load_report(path)
    assert loaded == result.field_values()
    assert set(loaded) == {"acc", "edit", "f1_10", "f1_25", "f1_50", "boundary_f1"}


def test_save_is_byte_deterministic(tmp_path):
    labels = LabelSequence(np.array([1, 0, 1]), 2)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    dataio.save_labels(a, labels)
    dataio.save_labels(b, labels)
    assert a.read_bytes() == b.read_bytes()


def test_atomic_overwrite(tmp_path):
    path = tmp_path / "labels.txt"
    dataio.save_labels(path, LabelSequence(np.array([0]), 1))
    dataio.save_labels(path, LabelSequence(np.array([0, 0]), 1))
    assert path.read_text() == "0\n0\n"
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_writes_make_missing_directories(tmp_path):
    dataio.write_array(tmp_path / "a" / "b" / "f.npy", np.ones((2, 2)))
    dataio.save_text(tmp_path / "c" / "t.txt", "x\n")
    assert (tmp_path / "a" / "b" / "f.npy").is_file()
    assert (tmp_path / "c" / "t.txt").read_text() == "x\n"


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def test_written_files_follow_umask(tmp_path, umask):
    writes = {"features.npy": lambda p: dataio.write_array(p, np.ones((2, 2))),
              "labels.txt": lambda p: dataio.save_labels(p, LabelSequence(np.array([0]), 1)),
              "text.txt": lambda p: dataio.save_text(p, "x\n")}
    for name, write in writes.items():
        write(tmp_path / name)
        write(tmp_path / name)  # an overwrite gets the same mode
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writes)
