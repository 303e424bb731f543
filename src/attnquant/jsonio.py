"""Small JSON file helpers with structured errors and atomic writes."""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataError


def load_json(path: str | Path, what: str = "file") -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what}: no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    # JSON text is UTF-8; a nesting deeper than the parser's recursion limit
    # is refused like any other file that cannot be decoded
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"{what}: invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{what}: expected a JSON object at top level in {path}")
    return obj


def atomic_write_json(obj: dict, path: str | Path) -> None:
    """Write-then-rename so a failed run never leaves a partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def require_field(obj: dict, key: str, what: str):
    if not isinstance(obj, dict):
        raise DataError(f"{what}: expected a JSON object")
    if key not in obj:
        raise DataError(f"{what}: missing required field '{key}'")
    return obj[key]


def require_int(obj: dict, key: str, what: str) -> int:
    """The field ``key``, which must be a JSON integer."""
    value = require_field(obj, key, what)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{what}: field '{key}' must be a JSON integer, got {json.dumps(value)}")
    return value


def json_numbers(raw, name: str, integer: bool = False, finite: bool = False) -> np.ndarray:
    """``raw``, as read from a JSON file, as an array that holds JSON
    integers (``integer``) or JSON numbers (``finite`` ones if asked) and
    nothing else: no strings, no ragged rows, and no JSON true or false,
    which numpy would read as 1 or 0 next to numbers."""
    try:
        a = np.asarray(raw)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if (
        a.dtype.kind not in ("iu" if integer else "iuf")
        or (finite and not np.isfinite(a).all())
        or _holds_bool(raw, a.ndim)
    ):
        want = "JSON integers" if integer else "finite JSON numbers" if finite else "JSON numbers"
        raise DataError(f"{name} must hold {want} only")
    return a


def _holds_bool(nested, ndim: int) -> bool:
    """Whether lists nested ``ndim`` deep hold a JSON true or false."""
    for _ in range(ndim - 1):
        nested = itertools.chain.from_iterable(nested)
    return ndim > 0 and bool in set(map(type, nested))
