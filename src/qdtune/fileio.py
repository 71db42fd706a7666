"""The file codecs shared by every on-disk format: one for JSON, one for CSV.

JSON documents are written with sorted keys and a trailing newline, so equal
content gives equal bytes. Arrays travel as base64 strings of their raw
little-endian bytes in row-major order, so round trips are bit-exact.
Every reader checks its header with :func:`check_header` and each JSON
value it takes with :func:`checked`, the same check that config files go
through, so a malformed file fails with an error that names the field.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
import math

import numpy as np

from .errors import ScanFormatError, ScanVersionError


def encode_blob(arr: np.ndarray, dtype: str) -> str:
    """Base64 of the array's bytes after a cast to ``dtype``."""
    return base64.b64encode(np.ascontiguousarray(arr).astype(dtype).tobytes()).decode("ascii")


def decode_blob(field: str, text, dtype: str, expected: int) -> np.ndarray:
    """Flat array of ``expected`` items decoded from the blob in ``field``."""
    if not isinstance(text, str):
        raise ScanFormatError(f"field {field!r} must be a base64 string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise ScanFormatError(f"field {field!r} is not valid base64") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) != expected * itemsize:
        raise ScanFormatError(f"field {field!r} holds {len(raw)} bytes, expected {expected * itemsize}")
    return np.frombuffer(raw, dtype=dtype)


def decode_finite(field: str, text, expected: int) -> np.ndarray:
    """``decode_blob`` of a little-endian float64 blob, refused with a
    ScanFormatError naming ``field`` when it holds NaN or infinity."""
    arr = decode_blob(field, text, "<f8", expected)
    if not np.isfinite(arr).all():
        raise ScanFormatError(f"field {field!r} holds NaN or infinite values")
    return arr


def read_json(path, kind: str) -> dict:
    """Load one JSON object; ``kind`` names the format in error messages."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScanFormatError(f"cannot read {kind} file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ScanFormatError(f"{kind} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScanFormatError(f"{kind} file must contain a JSON object")
    return doc


def check_header(doc: dict, kind: str, header: dict) -> None:
    """Refuse ``doc`` unless it holds every ``header`` field with its value.

    A wrong ``format`` raises ScanFormatError, a wrong version field
    ScanVersionError; ``kind`` names the format in the message.
    """
    for key, expected in header.items():
        if doc.get(key) != expected:
            error = ScanFormatError if key == "format" else ScanVersionError
            raise error(f"{kind} field {key!r} is {doc.get(key)!r}, expected {expected!r}")


def checked(where: str, value, kind, error: type[Exception]):
    """``value`` if it is of ``kind``, else ``error`` whose message starts with ``where``.

    ``where`` names the value, as in ``"field 'count'"``. ``kind`` is ``bool``, ``int``, ``float``, ``str``, ``list``, ``dict``, or
    a count ``n`` for a list of ``n`` numbers (returned as a tuple of
    floats). An int passes as a float; a bool passes only as a bool.
    Numbers must be finite: the JSON reader accepts ``NaN`` and ``Infinity``.
    """

    def number(v) -> bool:
        return type(v) in (int, float) and math.isfinite(v)

    if kind is float and number(value):
        return float(value)
    if kind in (bool, int, str, list, dict) and type(value) is kind:
        return value
    if type(kind) is int and type(value) is list and len(value) == kind and all(map(number, value)):
        return tuple(float(v) for v in value)
    names = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
             list: "a list", dict: "an object"}
    expected = names.get(kind, f"a list of {kind} finite numbers")
    raise error(f"{where} must be {expected}, got {value!r}")


def kind_of(example):
    """The :func:`checked` kind of values like ``example``: a tuple's length, else its type."""
    return len(example) if isinstance(example, tuple) else type(example)


def write_json(path, doc: dict, indent: int | None = None) -> None:
    """Write one JSON object with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of cells; floats are written with repr() so they reparse exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            # repr of a numpy 2 scalar spells its type (np.float64(1.0)), so go through float.
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
