"""Atomic artifact writes.

Every artifact is written to a temporary file beside its final path and
moved into place with `os.replace` once it is complete. A reader, or a later
run that reuses cached artifacts, then finds either the old file or the whole
new one, never a part: an interrupted write leaves no file at the final path.
"""
from __future__ import annotations

import contextlib
import os
import uuid
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temporary file in path's directory for writing; on a clean
    exit it replaces path. On an exception the temporary file is removed,
    path is left as it was, and the exception propagates."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
