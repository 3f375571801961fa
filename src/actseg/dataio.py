"""File formats for features, labels, boundaries, class mappings, and reports.

Features travel in the NPY v1.0 array container, which NumPy's
`numpy.lib.format` parses and writes. dataio restricts it to what the
public benchmark feature dumps actually use: little-endian float32/float64,
C order, 2-D, whole non-negative dimensions, a header under 10 000 bytes.
Everything else is rejected with a message that names the file. Labels are
one class name per line; boundaries one integer per line; mappings one
"index name" pair per line, all UTF-8 text, with every integer written
in ASCII digits. Every write goes through `save_all`, which writes one or
many files as one unit: each to a hidden sibling, renamed into place once
all are written, each output's directory made on the way.
"""

from __future__ import annotations

import errno
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .core import BoundarySet, FeatureSequence, LabelSequence
from .metrics import EvalResult

MAGIC = npy_format.MAGIC_PREFIX
SUPPORTED_DESCRS = ("<f4", "<f8")
KNOWN_FEATURE_WIDTHS = (2048, 1024)
# NumPy's default `max_header_size`; np.save writes under 200 bytes for a 2-D array.
_MAX_HEADER_BYTES = 10_000

D_BY_T = "d_by_t"
T_BY_D = "t_by_d"
AUTO_ORIENT = "auto"


class DataError(ValueError):
    """An input file is malformed, unsupported or unusable."""


def _write_all(writes) -> None:
    """For each `(path, write)` pair, make `path`'s directory and call
    `write(handle)` on a new hidden sibling; once all are written, rename
    each over its path. A directory at a path fails the call before the
    first rename. A later failure removes the siblings and the paths already
    renamed. A sibling is made with mode 0o666 for the umask to narrow, as
    for any new file (tempfile.mkstemp gives 0o600 whatever the umask, and
    reading the umask is a set-and-restore that races with other threads).
    O_EXCL keeps the random name from clobbering anything.
    """
    staged, placed = [], 0
    try:
        for path, write in writes:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
            with _naming(path):
                if path.is_dir():  # the rename would fail after earlier ones replaced files
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append((tmp, path))
                with os.fdopen(fd, "wb") as handle:
                    write(handle)
        for tmp, path in staged:
            with _naming(path):
                os.replace(tmp, path)
            placed += 1
    except BaseException:
        for i, (tmp, path) in enumerate(staged):
            (path if i < placed else tmp).unlink(missing_ok=True)
        raise


@contextmanager
def _naming(path: Path):
    """Re-raise an OSError with `path` as its file name: the hidden sibling's
    random name would make each run's message differ."""
    try:
        yield
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def whole_number(text: str) -> int | None:
    """The value of `text` if it is ASCII digits only, else None.

    int() also reads `1_0`, `+20` and other scripts' digits, none of which
    the writers produce.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than Python converts
        return None


_DECIMAL = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)


def decimal_number(text: str) -> float | None:
    """The value of `text` if it is finite and spelled as ASCII digits with an
    optional '-', at most one '.' and an optional exponent, else None.

    That reads every repr() of a finite float. float() also reads `1_0`,
    `+3`, ` 3`, other scripts' digits, `nan` and `inf`, none of which the
    writers produce.
    """
    if _DECIMAL.fullmatch(text) is None:
        return None
    value = float(text)
    return value if math.isfinite(value) else None  # `1e999` overflows


def class_id(text: str) -> int:
    """A bare class id: ASCII digits whose value fits in int64."""
    if text.startswith("-"):
        raise ValueError(f"negative class id {text!r}")
    value = whole_number(text)
    if value is None:
        raise ValueError(f"expected an integer class id, got {text!r}")
    if value >= 2**63:
        raise ValueError(f"class id {text!r} does not fit in int64")
    return value


def save_all(outputs) -> None:
    """Write each `(path, content)` pair; all of them or none.

    A str is written as UTF-8, a float32/float64 array as NPY v1.0 in C
    order. Pairs are read one at a time, so a generator of them holds only
    the content it has yet to yield.
    """
    _write_all((path, _writer(path, content)) for path, content in outputs)


def _writer(path, content):
    if isinstance(content, str):
        data = content.encode()
        return lambda handle: handle.write(data)
    if content.dtype.str not in SUPPORTED_DESCRS:
        raise DataError(f"{path}: unsupported dtype {content.dtype.str!r} "
                        f"(supported: {', '.join(SUPPORTED_DESCRS)})")
    # NumPy writes an F-contiguous input (a transpose) in Fortran order,
    # which read_array refuses.
    return lambda handle: npy_format.write_array(
        handle, np.ascontiguousarray(content), (1, 0), allow_pickle=False)


def save_text(path, text: str) -> None:
    """Write `text` as UTF-8, atomically."""
    save_all([(path, text)])


def read_text(path) -> str:
    """Read a UTF-8 text file; bytes that are not UTF-8 name the file and offset."""
    path = Path(path)
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _read_header(path: Path, handle) -> tuple[np.dtype, tuple[int, ...], int]:
    """Parse the NPY v1.0 header at the start of `handle`: dtype, shape, payload
    offset. Leaves the handle at the payload."""
    raw = handle.read(10)
    if len(raw) < 8 or raw[:6] != MAGIC:
        raise DataError(f"{path}: not an NPY file (bad magic at byte 0)")
    major, minor = raw[6], raw[7]
    if (major, minor) != (1, 0):
        raise DataError(f"{path}: unsupported NPY version {major}.{minor} at byte 6")
    header_len = int.from_bytes(raw[8:], "little")
    if header_len > _MAX_HEADER_BYTES:  # the parser can exhaust memory on a crafted one
        raise DataError(f"{path}: NPY header length {header_len} at byte 8 exceeds "
                        f"{_MAX_HEADER_BYTES} bytes")
    handle.seek(8)
    # On a crafted header NumPy's parser raises more than ValueError: TypeError,
    # tokenize.TokenError, RecursionError, the Python parser's MemoryError, ...
    try:
        shape, fortran, dtype = npy_format.read_array_header_1_0(handle)
    except Exception as exc:
        raise DataError(f"{path}: bad NPY header at byte 8 "
                        f"({str(exc) or type(exc).__name__})") from None
    if any(n < 0 for n in shape):
        raise DataError(f"{path}: negative dimension in NPY header at byte 10, "
                        f"shape {shape}")
    if dtype.str not in SUPPORTED_DESCRS:
        raise DataError(f"{path}: unsupported dtype {dtype.str!r} "
                        f"(supported: {', '.join(SUPPORTED_DESCRS)})")
    if fortran:
        raise DataError(f"{path}: Fortran-order arrays are not supported; "
                        "re-save the array in C order")
    return dtype, shape, 10 + header_len


def read_array(path) -> np.ndarray:
    """Read an NPY v1.0 array, failing closed on anything unsupported.

    The payload is read straight into the returned array: one copy, no
    intermediate bytes object.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        dtype, shape, header_end = _read_header(path, handle)
        count = math.prod(shape)  # exact: an int64 product could wrap to a small count
        expected = count * dtype.itemsize
        available = os.fstat(handle.fileno()).st_size - header_end
        if available >= expected:  # else a corrupt shape could ask for any size
            arr = np.empty(shape, dtype)
            available = handle.readinto(arr.reshape(-1).view(np.uint8))
    if available < expected:
        raise DataError(f"{path}: truncated data at byte {header_end} "
                        f"(expected {expected} bytes, got {available})")
    return arr


def write_array(path, array: np.ndarray, descr: str = "<f8") -> None:
    """Write an NPY v1.0 array with the given on-disk dtype, in C order."""
    save_all([(path, np.ascontiguousarray(array, dtype=descr))])


def _transposed(path: Path, shape: tuple[int, ...], orientation: str) -> bool:
    """Whether a stored array of `shape` is dims-by-frames under `orientation`."""
    if len(shape) != 2:
        raise DataError(f"{path}: features must be 2-D, got shape {shape}")
    if orientation not in (D_BY_T, T_BY_D, AUTO_ORIENT):
        raise ValueError(f"orientation must be one of {D_BY_T!r}, {T_BY_D!r}, "
                         f"{AUTO_ORIENT!r}, got {orientation!r}")
    if orientation == AUTO_ORIENT and all(n in KNOWN_FEATURE_WIDTHS for n in shape):
        raise DataError(f"{path}: shape {shape} reads as frames x dims or dims x frames; "
                        f"pass --orientation {D_BY_T} or {T_BY_D}")
    return orientation == D_BY_T or (orientation == AUTO_ORIENT
                                     and shape[0] in KNOWN_FEATURE_WIDTHS)


def load_features(path, orientation: str = AUTO_ORIENT) -> FeatureSequence:
    """Load a feature matrix as frames-by-dims, in the file's dtype.

    D_BY_T inputs come back as a transposed view of the file's payload;
    AUTO treats the array as D_BY_T when its first axis matches a known
    feature width (2048 or 1024) and the second does not, and refuses an
    array whose two axes both match.
    """
    path = Path(path)
    arr = read_array(path)
    arr.setflags(write=False)  # no other reference: FeatureSequence holds it uncopied
    if _transposed(path, arr.shape, orientation):
        arr = arr.T
    try:
        return FeatureSequence(arr)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


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
        object.__setattr__(self, "_ids", {name: i for i, name in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(f"unknown class name {name!r}") from None


def load_mapping(path) -> ClassMapping:
    """Read "index name" pairs; ids must be contiguous from 0."""
    path = Path(path)
    entries: dict[int, str] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'index name', got {line!r}")
        idx = whole_number(parts[0])
        if idx is None:
            raise DataError(f"{path}:{lineno}: bad class index {parts[0]!r}")
        if idx in entries:
            raise DataError(f"{path}:{lineno}: duplicate class index {idx}")
        if parts[1] in entries.values():
            raise DataError(f"{path}:{lineno}: duplicate class name {parts[1]!r}")
        entries[idx] = parts[1]
    if not entries:
        raise DataError(f"{path}: empty mapping file")
    if sorted(entries) != list(range(len(entries))):
        raise DataError(f"{path}: class ids must be contiguous from 0, "
                        f"got {sorted(entries)}")
    return ClassMapping(tuple(entries[i] for i in range(len(entries))))


def save_mapping(path, mapping: ClassMapping) -> None:
    save_text(path, format_mapping(mapping))


def format_mapping(mapping: ClassMapping) -> str:
    return "".join(f"{i} {name}\n" for i, name in enumerate(mapping.names))


def load_labels(path, mapping: ClassMapping | None = None) -> LabelSequence:
    """Read one class name per line (or bare integer ids without a mapping).

    Trailing blank lines are tolerated; the first line that does not parse
    reports its line number.
    """
    path = Path(path)
    lines = read_text(path).rstrip().splitlines()
    if not lines:
        raise DataError(f"{path}: empty label file")
    parse = mapping.id_of if mapping is not None else class_id
    ids: list[int] = []
    try:
        for line in lines:
            ids.append(parse(line.strip()))
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}:{len(ids) + 1}: {exc.args[0]}") from None
    class_count = len(mapping) if mapping is not None else max(ids) + 1
    return LabelSequence(np.array(ids, dtype=np.int64), class_count)


def save_labels(path, labels: LabelSequence, mapping: ClassMapping | None = None) -> None:
    save_text(path, format_labels(labels, mapping))


def format_labels(labels: LabelSequence, mapping: ClassMapping | None = None) -> str:
    """A label file's text: each frame's class name, or its bare id without a mapping."""
    ids = labels.labels.tolist()
    return "\n".join(map(str, ids) if mapping is None else [mapping.names[v] for v in ids]) + "\n"


def load_boundaries(path) -> BoundarySet:
    path = Path(path)
    values = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        value = whole_number(line.strip())
        if value is None:
            raise DataError(f"{path}:{lineno}: expected an integer frame index, "
                            f"got {line!r}")
        values.append(value)
    try:
        return BoundarySet(tuple(values))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_boundaries(path, bounds: BoundarySet) -> None:
    save_text(path, format_boundaries(bounds))


def format_boundaries(bounds: BoundarySet) -> str:
    return "".join(f"{b}\n" for b in bounds)


def save_report(path, result: EvalResult) -> None:
    """Machine-readable key=value report with the six metric fields."""
    lines = "".join(f"{key}={value!r}\n" for key, value in result.field_values().items())
    save_text(path, lines)


def load_report(path) -> dict[str, float]:
    path = Path(path)
    out: dict[str, float] = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        number = decimal_number(value)
        if number is None:
            raise DataError(f"{path}:{lineno}: expected a number after '=', "
                            f"got {value!r}")
        out[key.strip()] = number
    if not out:
        raise DataError(f"{path}: empty report")
    return out
