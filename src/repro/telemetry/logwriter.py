"""Shared NDJSON access-log writer with rotation and visibility.

One writer serves both the service's and the router's access log: a
single log thread, fire-and-forget submits, logrotate-style shifting
between whole lines, plus a metric set that makes a wedged or full
log device visible instead of silently dropping records:

* ``<prefix>_log_records_written_total`` / ``<prefix>_log_bytes_written_total``
  -- what actually reached the file (a flatlining rate under live
  traffic is the wedged-device signal).
* ``<prefix>_log_write_errors_total`` -- records dropped because the
  device errored.
* ``<prefix>_log_rotations_total`` and a scrape-time
  ``<prefix>_log_queue_depth`` gauge -- a growing queue means the log
  thread is falling behind the loop.

Threading contract: :meth:`submit` may be called from any thread and
never blocks on I/O; all writes and rotations happen on the writer's
single thread, between whole lines, so every file in a rotated set
ends on a complete record.

Writes are batched: :meth:`submit` appends the serialized line to a
deque without waking anything, and the writer thread wakes every
:data:`FLUSH_INTERVAL_S` to write everything pending and flush once.
A record therefore reaches the file within one interval, and a hard
crash (``os._exit``) loses at most that window; :meth:`close` drains
every pending record first.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections import deque

from ..errors import SpecificationError
from .registry import MetricsRegistry

#: Default number of rotated files kept (``log.1 .. log.N``).
DEFAULT_KEEP = 3

#: Seconds between the writer thread's wake-ups.  Each wake-up writes
#: every pending record and flushes once, so one ``write``/``flush``
#: pair serves a whole interval's traffic instead of one request.
FLUSH_INTERVAL_S = 0.02


class AccessLogWriter:
    """Appends NDJSON records to *path* on a dedicated thread.

    Args:
        path: the log file (appended; created on :meth:`start`).
        max_bytes: rotate once the file reaches this size (``None``
            never rotates).  Rotation shifts ``log -> log.1 -> ...``
            like logrotate; ``log.N`` (the oldest) falls off the end.
        keep: how many rotated files to keep (default 3).
        registry: register the writer's metric set here (optional).
        prefix: metric name prefix (default ``repro``).
    """

    def __init__(
        self,
        path: str,
        max_bytes: int | None = None,
        keep: int | None = None,
        registry: MetricsRegistry | None = None,
        prefix: str = "repro",
    ):
        if max_bytes is not None and max_bytes < 1:
            raise SpecificationError("max_bytes must be positive")
        if keep is not None and keep < 1:
            raise SpecificationError(
                "keep must retain at least one rotated file"
            )
        self.path = str(path)
        self._max_bytes = max_bytes
        self._keep = DEFAULT_KEEP if keep is None else keep
        self._file = None
        #: Encoded lines waiting for the writer thread (appends and
        #: pops are atomic, so no lock is needed).
        self._pending: deque[bytes] = deque()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._m_records = None
        if registry is not None:
            self._m_records = registry.counter(
                f"{prefix}_log_records_written_total",
                "Access-log records written to disk.",
            )
            self._m_bytes = registry.counter(
                f"{prefix}_log_bytes_written_total",
                "Access-log bytes written to disk.",
            )
            self._m_rotations = registry.counter(
                f"{prefix}_log_rotations_total",
                "Access-log rotations performed.",
            )
            self._m_errors = registry.counter(
                f"{prefix}_log_write_errors_total",
                "Access-log records dropped on write error.",
            )
            registry.gauge(
                f"{prefix}_log_queue_depth",
                "Records waiting for the access-log writer thread.",
                fn=self.queue_depth,
            )

    # -- lifecycle --------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._thread is not None

    def start(self) -> "AccessLogWriter":
        """Open the file and spin up the writer thread (idempotent)."""
        if self._thread is None:
            self._file = open(self.path, "ab")
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, args=(self._stop,),
                name="repro-access-log", daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Drain queued records and close the file (blocking).

        Callers on an event loop should run this in an executor, the
        same way the service drains its pools.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            self._stop.set()
            thread.join()
        if self._file is not None:
            with contextlib.suppress(OSError):
                self._file.close()
            self._file = None

    def queue_depth(self) -> int:
        """Records queued behind the writer thread right now."""
        return len(self._pending)

    # -- writing ----------------------------------------------------------------------

    def submit(self, record: dict) -> None:
        """Queue one record for writing (fire-and-forget, any thread).

        Serialization happens here (on the caller's thread) so the
        record dict cannot be mutated between submit and write.  A
        record submitted before :meth:`start` or after :meth:`close`
        is dropped.
        """
        if self._thread is None:
            return
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._pending.append(line.encode("utf-8"))

    def _run(self, stop: threading.Event) -> None:
        while not stop.wait(FLUSH_INTERVAL_S):
            self._drain()
        self._drain()

    def _drain(self) -> None:
        """Write every pending line in order, then flush once (log thread).

        Rotation still happens at the first line boundary past
        ``max_bytes``, in the middle of a batch if need be.  Records
        count as written once their flush succeeds.
        """
        written: list[int] = []
        while self._pending:
            data = self._pending.popleft()
            # A full disk must degrade the log, never the serving path
            # -- but the drop is counted.
            try:
                self._file.write(data)
                full = (
                    self._max_bytes is not None
                    and self._file.tell() >= self._max_bytes
                )
            except (OSError, ValueError):
                self._count_errors(1)
                continue
            written.append(len(data))
            if full:
                self._flush(written)
                written = []
                with contextlib.suppress(OSError, ValueError):
                    self._rotate()
        self._flush(written)

    def _flush(self, written: list[int]) -> None:
        if not written:
            return
        try:
            self._file.flush()
        except (OSError, ValueError):
            self._count_errors(len(written))
            return
        if self._m_records is not None:
            self._m_records.inc(len(written))
            self._m_bytes.inc(sum(written))

    def _count_errors(self, count: int) -> None:
        if self._m_records is not None:
            self._m_errors.inc(count)

    def _rotate(self) -> None:
        """Shift ``log -> log.1 -> ... -> log.N`` and reopen (log thread)."""
        path = self.path
        keep = self._keep
        self._file.close()
        with contextlib.suppress(OSError):
            os.unlink(f"{path}.{keep}")
        for index in range(keep - 1, 0, -1):
            source = f"{path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{path}.{index + 1}")
        os.replace(path, f"{path}.1")
        self._file = open(path, "ab")
        if self._m_records is not None:
            self._m_rotations.inc()
