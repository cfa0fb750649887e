"""Small I/O helpers: atomic writes, deterministic JSON, JSON integers and keys."""

from __future__ import annotations

import json
import os
import tempfile

from .errors import SpecValidationError


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see
    a partial file and a failed run leaves the target untouched."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, so `true` would pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(data: dict, allowed, what: str) -> None:
    """Refuse a key of `data` outside `allowed`, naming the first one."""
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise SpecValidationError(f"{what} has unknown key {unknown[0]!r}")
