"""File formats for features, labels, boundaries, class mappings, and reports.

Features travel in the NPY v1.0 array container (magic 0x93 'NUMPY',
2-byte little-endian header length, dict header), restricted to what the
public benchmark feature dumps actually use: little-endian float32/float64,
C order, 2-D. Everything else is rejected with a clear message. Labels are
one class name per line; boundaries one integer per line; mappings one
"index name" pair per line, all UTF-8 text. All writes are atomic (temp
file + rename).
"""

from __future__ import annotations

import ast
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BoundarySet, FeatureSequence, LabelSequence
from .metrics import EvalResult

MAGIC = b"\x93NUMPY"
SUPPORTED_DESCRS = ("<f4", "<f8")
KNOWN_FEATURE_WIDTHS = (2048, 1024)

D_BY_T = "d_by_t"
T_BY_D = "t_by_d"
AUTO_ORIENT = "auto"


class FormatError(ValueError):
    """The container itself is malformed or unsupported."""


class DataError(ValueError):
    """The container parsed but its payload is unusable."""


def _atomic_write(path: Path, data: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path) -> str:
    """Read a UTF-8 text file; bytes that are not UTF-8 name the file and offset."""
    path = Path(path)
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _read_header(path: Path, raw: bytes) -> tuple[np.dtype, tuple[int, ...], int]:
    """Parse the NPY v1.0 header at the start of `raw`: dtype, shape, payload offset."""
    if len(raw) < 8 or raw[:6] != MAGIC:
        raise FormatError(f"{path}: not an NPY file (bad magic at byte 0)")
    major, minor = raw[6], raw[7]
    if (major, minor) != (1, 0):
        raise FormatError(f"{path}: unsupported NPY version {major}.{minor} at byte 6")
    if len(raw) < 10:
        raise FormatError(f"{path}: truncated header length at byte 8")
    (header_len,) = struct.unpack("<H", raw[8:10])
    header_end = 10 + header_len
    if len(raw) < header_end:
        raise FormatError(f"{path}: truncated header at byte 10 "
                          f"(expected {header_len} bytes)")
    try:
        header = ast.literal_eval(raw[10:header_end].decode("latin1"))
        descr = header["descr"]
        fortran = header["fortran_order"]
        shape = tuple(int(x) for x in header["shape"])
    except (ValueError, SyntaxError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: unparsable NPY header at byte 10 ({exc})") from exc
    if any(n < 0 for n in shape):
        raise FormatError(f"{path}: negative dimension in NPY header at byte 10, "
                          f"shape {shape}")
    if descr not in SUPPORTED_DESCRS:
        raise FormatError(f"{path}: unsupported dtype {descr!r} "
                          f"(supported: {', '.join(SUPPORTED_DESCRS)})")
    if fortran:
        raise FormatError(f"{path}: Fortran-order arrays are not supported; "
                          "re-save the array in C order")
    return np.dtype(descr), shape, header_end


def read_array(path) -> np.ndarray:
    """Read an NPY v1.0 array, failing closed on anything unsupported."""
    path = Path(path)
    raw = path.read_bytes()
    dtype, shape, header_end = _read_header(path, raw)
    count = math.prod(shape)  # exact: an int64 product could wrap to a small count
    expected, available = count * dtype.itemsize, len(raw) - header_end
    if available < expected:
        raise FormatError(f"{path}: truncated data at byte {header_end} "
                          f"(expected {expected} bytes, got {available})")
    return np.frombuffer(raw, dtype, count, offset=header_end).reshape(shape)


def write_array(path, array: np.ndarray, descr: str = "<f8") -> None:
    """Write an NPY v1.0 array with the given on-disk dtype."""
    if descr not in SUPPORTED_DESCRS:
        raise FormatError(f"unsupported dtype {descr!r} "
                          f"(supported: {', '.join(SUPPORTED_DESCRS)})")
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.dtype(descr)))
    header = ("{'descr': '%s', 'fortran_order': False, 'shape': %s, }"
              % (descr, repr(arr.shape)))
    pad = 64 - (len(MAGIC) + 4 + len(header) + 1) % 64
    header = header + " " * pad + "\n"
    blob = MAGIC + bytes([1, 0]) + struct.pack("<H", len(header)) + header.encode("latin1")
    _atomic_write(Path(path), blob + arr.tobytes())


def _transposed(path: Path, shape: tuple[int, ...], orientation: str) -> bool:
    """Whether a stored array of `shape` is dims-by-frames under `orientation`."""
    if len(shape) != 2:
        raise FormatError(f"{path}: features must be 2-D, got shape {shape}")
    if orientation not in (D_BY_T, T_BY_D, AUTO_ORIENT):
        raise ValueError(f"orientation must be one of {D_BY_T!r}, {T_BY_D!r}, "
                         f"{AUTO_ORIENT!r}, got {orientation!r}")
    return orientation == D_BY_T or (orientation == AUTO_ORIENT
                                     and shape[0] in KNOWN_FEATURE_WIDTHS
                                     and shape[1] not in KNOWN_FEATURE_WIDTHS)


def feature_shape(path, orientation: str = AUTO_ORIENT) -> tuple[int, int]:
    """The (frames, dims) that `load_features` would return, read from the header only."""
    path = Path(path)
    with open(path, "rb") as handle:
        raw = handle.read(10 + 0xFFFF)  # the longest v1.0 header
    shape = _read_header(path, raw)[1]
    return shape[::-1] if _transposed(path, shape, orientation) else shape


def load_features(path, orientation: str = AUTO_ORIENT) -> FeatureSequence:
    """Load a feature matrix as frames-by-dims.

    D_BY_T inputs are transposed on load; AUTO treats the array as
    D_BY_T when its first axis matches a known feature width (2048 or
    1024) and the second does not.
    """
    path = Path(path)
    arr = read_array(path)
    if _transposed(path, arr.shape, orientation):
        arr = arr.T
    try:
        return FeatureSequence(arr)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_features(path, feat: FeatureSequence, descr: str = "<f8") -> None:
    write_array(path, feat.values, descr)


@dataclass(frozen=True)
class ClassMapping:
    """Bijection between class names and dense integer ids."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(str(n) for n in self.names)
        for name in names:
            # A name is one line's second token in the mapping file and a
            # whole line in a label file, both written as UTF-8.
            if name.split() != [name] or name.encode("utf-8", "replace").decode() != name:
                raise ValueError(f"class name {name!r} is not one whitespace-free "
                                 "token of UTF-8 text")
        if not names:
            raise ValueError("empty class mapping")
        if len(set(names)) != len(names):
            raise ValueError("duplicate class names in mapping")
        object.__setattr__(self, "names", names)

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown class name {name!r}") from None

    def name_of(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise KeyError(f"unknown class id {class_id}")
        return self.names[class_id]

    def __contains__(self, name) -> bool:
        return name in self.names


def load_mapping(path) -> ClassMapping:
    """Read "index name" pairs; ids must be contiguous from 0."""
    path = Path(path)
    entries: dict[int, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'index name', got {line!r}")
        try:
            idx = int(parts[0])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: bad class index {parts[0]!r}") from None
        if idx in entries:
            raise FormatError(f"{path}:{lineno}: duplicate class index {idx}")
        if parts[1] in entries.values():
            raise FormatError(f"{path}:{lineno}: duplicate class name {parts[1]!r}")
        entries[idx] = parts[1]
    if not entries:
        raise FormatError(f"{path}: empty mapping file")
    if sorted(entries) != list(range(len(entries))):
        raise FormatError(f"{path}: class ids must be contiguous from 0, "
                          f"got {sorted(entries)}")
    return ClassMapping(tuple(entries[i] for i in range(len(entries))))


def save_mapping(path, mapping: ClassMapping) -> None:
    text = "".join(f"{i} {name}\n" for i, name in enumerate(mapping.names))
    _atomic_write(Path(path), text.encode())


def load_labels(path, mapping: ClassMapping | None = None) -> LabelSequence:
    """Read one class name per line (or bare integer ids without a mapping).

    Trailing blank lines are tolerated; an unknown name reports its line
    number.
    """
    path = Path(path)
    lines = read_text(path).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty label file")
    ids = np.empty(len(lines), dtype=np.int64)
    for i, line in enumerate(lines):
        name = line.strip()
        if mapping is not None:
            if name not in mapping:
                raise DataError(f"{path}:{i + 1}: unknown class name {name!r}")
            ids[i] = mapping.id_of(name)
        else:
            try:
                ids[i] = int(name)
            except ValueError:
                raise DataError(f"{path}:{i + 1}: expected an integer class id, "
                                f"got {name!r}") from None
            except OverflowError:
                raise DataError(f"{path}:{i + 1}: class id {name!r} does not fit "
                                "in int64") from None
            if ids[i] < 0:
                raise DataError(f"{path}:{i + 1}: negative class id {name!r}")
    class_count = len(mapping) if mapping is not None else int(ids.max()) + 1
    return LabelSequence(ids, class_count)


def save_labels(path, labels: LabelSequence, mapping: ClassMapping | None = None) -> None:
    if mapping is not None:
        lines = (mapping.name_of(int(v)) for v in labels.labels)
    else:
        lines = (str(int(v)) for v in labels.labels)
    _atomic_write(Path(path), ("\n".join(lines) + "\n").encode())


def load_boundaries(path) -> BoundarySet:
    path = Path(path)
    values = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            values.append(int(line.strip()))
        except ValueError:
            raise DataError(f"{path}:{lineno}: expected an integer frame index, "
                            f"got {line!r}") from None
    try:
        return BoundarySet(tuple(values))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_boundaries(path, bounds: BoundarySet) -> None:
    _atomic_write(Path(path), "".join(f"{b}\n" for b in bounds).encode())


def save_report(path, result: EvalResult) -> None:
    """Machine-readable key=value report with the six metric fields."""
    lines = "".join(f"{key}={value!r}\n" for key, value in result.field_values().items())
    _atomic_write(Path(path), lines.encode())


def load_report(path) -> dict[str, float]:
    path = Path(path)
    out: dict[str, float] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: expected a number after '=', "
                              f"got {value.strip()!r}") from None
    return out
