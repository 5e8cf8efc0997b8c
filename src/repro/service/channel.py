"""Non-blocking pipes that hand service events between processes.

Two channels link the HTTP process and its forked workers:

* the **wake** channel carries one byte per enqueued job (and one per
  worker at shutdown); an idle worker blocks on it instead of sleeping
  between spool scans;
* the **done** channel carries one ``<job id>\\n`` line per finished or
  failed job; the server's event loop reads it and answers parked
  long-poll requests.

Both are hints, never the source of truth: the spool's claim-by-rename
and its job records decide what happened.  A write never blocks — on a
full pipe the message is dropped (readers still have the messages
already queued) — and every reader falls back to a timed re-check, so a
lost message costs latency, not correctness.  Messages stay below
``PIPE_BUF``, so concurrent writers never interleave.

Standard library only: the server process imports this without numpy.
"""

from __future__ import annotations

import os
import select


class Channel:
    """One non-blocking ``os.pipe``; create it before forking."""

    def __init__(self) -> None:
        self.read_fd, self.write_fd = os.pipe()
        os.set_blocking(self.read_fd, False)
        os.set_blocking(self.write_fd, False)

    def send(self, message: bytes = b".") -> None:
        """Write ``message``; drop it if the pipe is full or closed."""
        try:
            os.write(self.write_fd, message)
        except OSError:
            pass

    def wait(self, timeout: float) -> None:
        """Block until a message is readable or ``timeout`` seconds pass,
        then take one byte (one wake token) if one is still there."""
        readable, _, _ = select.select([self.read_fd], [], [], timeout)
        if readable:
            try:
                os.read(self.read_fd, 1)
            except BlockingIOError:
                pass  # another waiter took it

    def drain(self) -> bytes:
        """Everything readable now, without blocking."""
        chunks = []
        while True:
            try:
                chunk = os.read(self.read_fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        for fd in (self.read_fd, self.write_fd):
            try:
                os.close(fd)
            except OSError:
                pass
