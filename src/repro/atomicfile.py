"""Atomic file replacement: a reader sees the old file or the new one.

The one write discipline of every persistent record in the package —
the service's job records, claim markers, result cache and port file,
and the campaign checkpoint.  The payload goes to a temp file in the
target's own directory (so the rename never crosses a filesystem), is
flushed and ``fsync``-ed, and then ``os.replace``-d over the target.  A
failure or a kill at any point leaves the previous file intact; a
failure inside this call also removes the temp file.

This module imports nothing beyond the standard library, so the
service's HTTP process can use it without loading numpy.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, payload: str | bytes, *, prefix: str | None = None) -> None:
    """Replace ``path`` with ``payload`` (text is UTF-8 encoded).

    The temp file is ``<prefix>XXXX.tmp`` beside ``path``; directory
    scanners skip the ``.tmp`` suffix.
    """
    data = payload.encode() if isinstance(payload, str) else payload
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=prefix, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
