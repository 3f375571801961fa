import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from actseg import dataio
from actseg.core import BoundarySet, FeatureSequence, LabelSequence
from actseg.metrics import evaluate


def test_features_round_trip_f8(tmp_path):
    rng = np.random.default_rng(0)
    feat = FeatureSequence(rng.normal(size=(17, 5)))
    path = tmp_path / "a.npy"
    dataio.save_features(path, feat)
    again = dataio.load_features(path, dataio.T_BY_D)
    assert np.array_equal(again.values, feat.values)


def test_features_round_trip_f4(tmp_path):
    rng = np.random.default_rng(1)
    feat = FeatureSequence(rng.normal(size=(9, 3)).astype(np.float32))
    path = tmp_path / "b.npy"
    dataio.save_features(path, feat, descr="<f4")
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
    with pytest.raises(dataio.FormatError, match="bad magic at byte 0"):
        dataio.read_array(path)


def test_truncated_data(tmp_path):
    path = tmp_path / "trunc.npy"
    dataio.write_array(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(dataio.FormatError, match="truncated data"):
        dataio.read_array(path)


def test_fortran_order_rejected(tmp_path):
    path = tmp_path / "fortran.npy"
    np.save(path, np.asfortranarray(np.ones((3, 4))))
    with pytest.raises(dataio.FormatError, match="Fortran-order"):
        dataio.read_array(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "ints.npy"
    np.save(path, np.arange(6).reshape(2, 3))  # int64
    with pytest.raises(dataio.FormatError, match="unsupported dtype"):
        dataio.read_array(path)


def test_non_finite_rejected(tmp_path):
    arr = np.ones((4, 3))
    arr[2, 1] = np.inf
    path = tmp_path / "inf.npy"
    dataio.write_array(path, arr)
    with pytest.raises(dataio.DataError, match="frame 2, dim 1"):
        dataio.load_features(path, dataio.T_BY_D)


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
    want = np.load(path).astype(np.float64)
    if orientation == dataio.D_BY_T:
        want = want.T
    got = dataio.load_features(path, orientation).values
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert dataio.feature_shape(path, orientation) == got.shape


@settings(max_examples=60, deadline=None)
@given(_feature_files(), st.data())
def test_truncated_file_error_names_path(tmp_path_factory, case, data):
    arr, orientation = case
    path = tmp_path_factory.mktemp("cut") / "f.npy"
    np.save(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(dataio.FormatError) as info:
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
    with pytest.raises(dataio.FormatError, match="contiguous"):
        dataio.load_mapping(path)


@pytest.mark.parametrize("load, raw, detail", [
    (dataio.load_labels, b"0\n\xff\n", ": not UTF-8 text at byte 2"),
    (dataio.load_mapping, b"0 a\n1 a\n", ":2: duplicate class name 'a'"),
    (dataio.load_boundaries, b"0\n", ": boundary indices must be >= 1"),
], ids=["labels", "mapping", "boundaries"])
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
