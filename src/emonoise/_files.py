"""Atomic replacement of the stage output files."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Write to a temp file beside ``path``, then move it over ``path``.

    Readers see either the previous file or the complete new one. If the
    body raises, the temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
