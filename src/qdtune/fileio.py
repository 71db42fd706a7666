"""The file codecs shared by every on-disk format: one for JSON, one for CSV.

JSON documents are written with sorted keys and a trailing newline, so equal
content gives equal bytes. Arrays travel as base64 strings of their raw
little-endian bytes in row-major order, so round trips are bit-exact.
Each format keeps its own header and field checks; this module only
turns unreadable files and broken blobs into :class:`ScanFormatError`.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json

import numpy as np

from .errors import ScanFormatError


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
