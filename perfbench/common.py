"""Shared pieces of the pipeline benchmark: paths, statistics, spans.

Everything here is independent of the code under test; the modules that
drive ``repro`` import it from ``<checkout>/src`` (see :func:`use_src`).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (ignored by git).
WORK = Path(".bench_build") / "perfbench"
#: Process spawns per run whose median set-up time is ``setup_s``.
SETUP_SPAWNS = 9


class BenchError(Exception):
    """The benchmark could not run (not a correctness verdict)."""


def use_src() -> None:
    """Import ``repro`` from the checkout's ``src``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for spawned ``repro`` processes: the code under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed removes one source of run-to-run variation
    # (set/dict layouts) from the processes under test.
    env["PYTHONHASHSEED"] = "0"
    return env


def compile_src() -> None:
    """Byte-compile the code under test once, so no spawn pays for it."""
    import compileall

    if not compileall.compile_dir(str(SRC), quiet=1):
        raise BenchError(f"{SRC} does not compile")


# -- statistics ------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return percentile(values, 0.5)


def spread(total: int, parts: int, index: int) -> int:
    """Part *index*'s share when *total* items are dealt out to *parts*."""
    return len(range(index, total, parts))


def _binom_cdf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(n + 1)
    return sum(
        math.exp(
            base - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        for i in range(k + 1)
    )


def error_rate_bound(failed: int, attempted: int, confidence=0.95) -> float:
    """One-sided Clopper-Pearson upper bound on ``failed / attempted``.

    The benchmark reports the error rate this way so that it is never
    0 (a ratio of medians needs a non-zero base): with no failures it is
    ``1 - 0.05 ** (1 / attempted)``, about ``3 / attempted``, and a
    single failure raises it by well over half.
    """
    if attempted < 1:
        raise BenchError("error rate of zero attempts")
    if failed >= attempted:
        return 1.0
    alpha = 1.0 - confidence
    if failed == 0:
        return 1.0 - alpha ** (1.0 / attempted)
    low, high = failed / attempted, 1.0
    for _ in range(80):
        mid = (low + high) / 2
        if _binom_cdf(failed, attempted, mid) > alpha:
            low = mid
        else:
            high = mid
    return high


# -- spans -----------------------------------------------------------------------------


class Tracer:
    """Spans held in memory, written out when the run ends.

    A span is ``(id, name, start, end, parent, rid)``: times are
    ``perf_counter`` seconds, *parent* is the id of the span that caused
    it (or ``None``) and *rid* the request it belongs to.  A disabled
    tracer records nothing, so untraced runs pay one attribute test.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._lock = threading.Lock()
        self._next = 0

    def add(self, name, start, end, parent=None, rid=None) -> int | None:
        if not self.enabled:
            return None
        with self._lock:
            self._next += 1
            span_id = self._next
            self.spans.append((span_id, name, start, end, parent, rid))
        return span_id

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_times(self, name: str) -> list[float]:
        """Each *name* span's duration minus the time its children took.

        Children measured outside the parent's interval (in-process
        replays of a served request) still count against it: the parent
        is the round trip, the children the layers it is made of.
        """
        children: dict[int, float] = {}
        for span in self.spans:
            if span[4] is not None:
                children[span[4]] = children.get(span[4], 0.0) + (
                    span[3] - span[2]
                )
        return [
            (s[3] - s[2]) - children.get(s[0], 0.0)
            for s in self.spans if s[1] == name
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span_id, name, start, end, parent, rid in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "rid": rid,
                }, separators=(",", ":")) + "\n")


class StealSampler:
    """CPU steal of the whole machine, sampled from ``/proc/stat``.

    On a shared virtual machine the hypervisor runs other guests on our
    CPUs; that "steal" stretches every latency and is the main source of
    run-to-run spread here.  A background thread reads the aggregate
    ``cpu`` line every :attr:`PERIOD` seconds while the sampler is
    entered; :meth:`share` gives the stolen share of CPU time over an
    interval.  Without ``/proc/stat`` every share reads 0.
    """

    PERIOD = 0.05

    def __init__(self):
        self._samples: list[tuple[float, int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _read() -> tuple[int, int] | None:
        try:
            with open("/proc/stat") as handle:
                fields = [int(v) for v in handle.readline().split()[1:]]
        except (OSError, ValueError):
            return None
        return sum(fields), (fields[7] if len(fields) > 7 else 0)

    def _run(self) -> None:
        while True:
            reading = self._read()
            if reading is not None:
                self._samples.append((perf_counter(), *reading))
            if self._stop.wait(self.PERIOD):
                return

    def __enter__(self) -> "StealSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def share(self, start: float, end: float) -> float:
        """Stolen share of all CPU time between the samples nearest
        *start* and *end* (0 when there is nothing to measure)."""
        if len(self._samples) < 2:
            return 0.0
        first = min(self._samples, key=lambda s: abs(s[0] - start))
        last = min(self._samples, key=lambda s: abs(s[0] - end))
        total = last[1] - first[1]
        return (last[2] - first[2]) / total if total > 0 else 0.0


class Timer:
    """``with Timer() as t: ...`` then ``t.seconds`` (and start/end)."""

    def __enter__(self) -> "Timer":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = perf_counter()
        self.seconds = self.end - self.start


# -- processes -------------------------------------------------------------------------


class ServerProcess:
    """A ``python -m repro ...`` server in its own session.

    :meth:`start` returns the seconds from spawn to the ready line;
    the stdout reader thread keeps draining so the pipe never fills.
    :meth:`stop` sends SIGTERM, then SIGKILL to the whole process group,
    and waits until every member has exited.
    """

    def __init__(self, argv: list[str], ready_marker: str):
        self.argv = argv
        self.ready_marker = ready_marker
        self.lines: list[str] = []
        self._ready = threading.Event()
        self._ready_at = 0.0
        self.proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None

    def start(self, timeout: float = 60.0) -> float:
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=child_env(),
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout) or self.proc.poll() is not None:
            self.stop()
            raise BenchError(
                f"server {' '.join(self.argv)} not ready:\n"
                + "".join(self.lines[-20:])
            )
        return self._ready_at - spawned

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            line = raw.decode("utf-8", "replace")
            self.lines.append(line)
            if not self._ready.is_set() and line.startswith(
                self.ready_marker
            ):
                self._ready_at = time.monotonic()
                self._ready.set()

    def line_after(self, prefix: str) -> str:
        """The text after *prefix* on the first output line carrying it."""
        for line in self.lines:
            if line.startswith(prefix):
                return line[len(prefix):].split()[0]
        raise BenchError(f"server printed no {prefix!r} line")

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        _kill_group(proc.pid)
        if self._reader is not None:
            self._reader.join(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None


def _group_alive(pgid: int) -> bool:
    """Whether any non-zombie process still belongs to group *pgid*."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    import signal

    if not _group_alive(pgid):
        return
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 15
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            raise BenchError(f"process group {pgid} survived SIGKILL")
        time.sleep(0.02)
