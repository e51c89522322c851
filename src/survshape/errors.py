"""Exception hierarchy shared by all survshape modules.

DataError covers malformed or degenerate inputs (CLI exit code 3),
NumericError covers runtime numeric failures (CLI exit code 4). The JSON
readers share `_read_json`, which reads plain JSON and a gzip stream of
it alike and turns an unreadable, unparsable or corrupt file into a
DataError, `_field` and `_floats`, which do the same for an ill-typed
key or float array, and `_config`, which builds a config class from its
block. `_pack_floats` stores a float array as base64 of its float64
bytes. Each config class alone checks its fields: integers with
`_integer`, reals, finite too, with `_real`. Every artifact writer goes
through `_atomic_open`, text or binary, so a failed or interrupted write
leaves no partial file.
"""

import base64
import dataclasses
import gzip
import json
import math
import numbers
import operator
import os
import zlib
from contextlib import contextmanager, suppress

import numpy as np


class SurvShapeError(Exception):
    """Base class for all survshape errors."""


class DataError(SurvShapeError):
    """Invalid, inconsistent or degenerate input data."""


class GridDegenerateError(DataError):
    """Fewer than two distinct times: no interval partition exists."""


class TooFewRowsError(DataError):
    """Too few usable rows, or no observed event: another split may have enough."""


class SchemaError(DataError):
    """CSV/schema mismatch: missing column, bad cell, unseen category."""


class UnseenLevelError(SchemaError):
    """A categorical level the fitted schema never saw."""


class AlignmentError(DataError):
    """Step functions live on different time grids."""


class DiameterUndefinedError(DataError):
    """Perturbation scale needs >= 2 distinct points in feature space."""


class NumericError(SurvShapeError):
    """Non-finite values or numerically undefined results."""


class MetricUndefinedError(NumericError):
    """No admissible pairs: the concordance index has no value."""


class TrainingDivergedError(NumericError):
    """Training loss became non-finite."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


def _field(obj: dict, key: str, kind, where: str):
    """obj[key] checked against `kind`; DataError when missing or ill-typed.

    `where` names the object in the message, e.g. "forest.bin: forest
    file". A bool never counts as a number.
    """
    if key not in obj:
        raise DataError(f"{where} has no {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DataError(f"{where}'s {key!r} has the wrong type")
    return value


def _pack_floats(values) -> str:
    """values as standard padded base64 (RFC 4648) of their little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _floats(obj: dict, key: str, where: str) -> np.ndarray:
    """obj[key], a string _pack_floats wrote, as a float64 array; DataError otherwise."""
    with suppress(ValueError):  # binascii.Error: a bad character or padding; non-ASCII text
        raw = base64.b64decode(_field(obj, key, str, where), validate=True)
        if len(raw) % 8 == 0:
            return np.frombuffer(raw, "<f8").astype(float)
    raise DataError(f"{where}'s {key!r} must be base64 of little-endian float64 values")


def _config(cls, blob: dict, what: str, path, where: str):
    """cls(**blob) once no key is unknown or missing; cls's DataError gets `where` as prefix."""
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(blob) - set(names))
    if unknown:
        raise DataError(f"{path}: unknown {what} config key(s): {', '.join(unknown)}")
    for name in names:
        if name not in blob:
            raise DataError(f"{where} has no {name!r}")
    try:
        return cls(**blob)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _integer(value, name: str, optional: bool = False):
    """value as a Python int (None too, when optional); DataError otherwise.

    Numpy integers pass; a bool, a float (even 2.0) and a string do not.
    """
    if optional and value is None:
        return None
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise DataError(f"{name} must be an int, got {value!r}")


def _real(value, name: str) -> float:
    """value as a finite Python float; DataError for a bool, a non-number, NaN or ±inf."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if math.isfinite(value):
            return float(value)
        raise DataError(f"{name} must be finite, got {float(value)!r}")
    raise DataError(f"{name} must be a real number, got {value!r}")


def _read_json(path, kind: str):
    """The parsed content of a JSON file, plain or gzip; DataError when it cannot be read.

    A file that starts with the gzip magic bytes is one gzip stream (RFC
    1952) of the JSON text. `kind` names the file in the message, e.g.
    "forest" gives "...: not a valid forest file: ...". A missing or
    unreadable file gives "cannot read ..."; invalid UTF-8, invalid JSON
    and a truncated or corrupt gzip stream give "not a valid ...".
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {kind} file {path}: {exc}") from exc
    try:
        if data[:2] == b"\x1f\x8b":
            data = gzip.decompress(data)
        return json.loads(data.decode("utf-8"))
    # EOFError: a cut stream; zlib.error: bad deflate data; ValueError:
    # JSONDecodeError, UnicodeDecodeError
    except (gzip.BadGzipFile, EOFError, zlib.error, ValueError) as exc:
        raise DataError(f"{path}: not a valid {kind} file: {exc}") from exc


@contextmanager
def _atomic_open(path, newline="\n", binary=False):
    """A UTF-8 text handle (a bytes one if `binary`) on a temp file beside
    `path` that replaces it on success.

    The temp file is in the same directory, so `os.replace` swaps it in
    whole; when the block raises, the temp file is removed and `path`
    keeps whatever it held before.
    """
    path = os.fspath(path)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with (open(temp, "wb") if binary
              else open(temp, "w", encoding="utf-8", newline=newline)) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise
