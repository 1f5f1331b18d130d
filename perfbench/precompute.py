"""The build path: fresh processes build and save the 4-qubit cost-5 closure.

precompute-4q5 runs it at full length, a fixed number of builds set by
``--seconds`` (never by measured time, so ``attempted`` is the same in
every run); serve-direct makes a few builds too, so that every run
reports ``build_s`` and ``peak_rss_mb``.  The expansion kernel and the
store writer do nearly all the work of a build.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from common import (
    ROOT,
    BenchError,
    StealSampler,
    child_env,
    median,
)
from result import Result

#: The paper-extension B row for n = 4 (rows first reached at cost k).
LEVEL_SIZES = [1, 36, 684, 9354, 104850, 1038114]
ROWS = sum(LEVEL_SIZES)  # 1,153,039
#: Nominal seconds per build, used only to turn --seconds into a count.
NOMINAL_BUILD_S = 4.0
WORKER = ROOT / "perfbench" / "precompute_worker.py"
STORE = "closure4q5.rpro"


def builds_for(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_BUILD_S))


def build(out: Path, traced: bool, setup_only: bool = False) -> dict:
    """One build in a fresh process; the worker's report plus setup_s."""
    argv = [sys.executable, str(WORKER), str(out)]
    if traced:
        argv.append("--traced")
    if setup_only:
        argv.append("--setup-only")
    with StealSampler() as steal:
        spawned, started = time.monotonic(), perf_counter()
        proc = subprocess.run(
            argv, capture_output=True, env=child_env(), timeout=170
        )
        finished = perf_counter()
    if proc.returncode != 0:
        raise BenchError(
            f"precompute worker exited {proc.returncode}:\n"
            + proc.stderr.decode("utf-8", "replace")[-2000:]
        )
    report = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    if setup_only:
        return report
    report["spawned"], report["finished"] = started, finished
    report["steal_share"] = steal.share(started, finished)
    report["build_s"] = report["expand_s"] + report["write_s"]
    return report


def check_store(path: Path) -> list[str]:
    """Violations of the store gate: verify_store, then reopen."""
    from repro.core.store import verify_store
    from repro.io import open_store

    problems = []
    header = verify_store(path)
    if list(header.level_sizes) != LEVEL_SIZES:
        problems.append(f"verified header level sizes {header.level_sizes}")
    _header, _library, search = open_store(path)
    try:
        sizes = list(search.stats().level_sizes)
    finally:
        search.close()
    if sizes != LEVEL_SIZES:
        problems.append(f"reopened store level sizes {sizes}")
    return problems


def gated_build(work: Path, traced: bool, result: Result) -> dict:
    """One build whose level sizes are gated; see :func:`check_last`."""
    report = build(work / STORE, traced)
    result.attempted += 1
    if report["level_sizes"] != LEVEL_SIZES:
        result.failed += 1
        result.violation(f"level sizes {report['level_sizes']}")
    return report


def check_last(work: Path, result: Result) -> None:
    """Gate the last build's store (verify, reopen), then delete it."""
    for problem in check_store(work / STORE):
        result.violation(problem)
    (work / STORE).unlink()


def builds(work: Path, count: int, traced: bool, result: Result) -> list:
    """*count* builds, each gated; the last store is verified and reopened."""
    reports = [gated_build(work, traced, result) for _ in range(count)]
    check_last(work, result)
    return reports


def setups(work: Path, count: int) -> list[float]:
    """Set-up times of *count* build processes that stop once the
    library and engine exist."""
    return [
        build(work / "unused.rpro", False, setup_only=True)["setup_s"]
        for _ in range(count)
    ]


def summarize(result: Result, reports: list) -> None:
    """``build_s`` and ``peak_rss_mb`` of a run's untraced builds.

    Unlike the serve windows, builds are not picked by CPU steal: a
    build keeps one CPU busy and sees little steal (0-4% of its time),
    so a steal-picked half would only halve the sample.
    """
    result.metric("build_s", median(r["build_s"] for r in reports), "s")
    result.metric(
        "peak_rss_mb", median(r["peak_rss_mb"] for r in reports), "MB"
    )
    result.details["builds"] = [
        {k: r[k] for k in ("setup_s", "expand_s", "write_s", "peak_rss_mb",
                           "steal_share")}
        for r in reports
    ]
    result.details["build_steal_share"] = median(
        r["steal_share"] for r in reports
    )
    result.samples.update(build_s=len(reports), peak_rss_mb=len(reports))


def trace(tracer, reports: list) -> tuple[dict, float]:
    """Spans and layer metrics of traced builds (successive ``extend_to``).

    Returns the kernel/store layer metrics and the median ``build_s``
    (for ``trace.overhead_frac``).
    """
    for index, report in enumerate(reports):
        rid = f"build-{index}"
        parent = tracer.add("precompute.build", report["spawned"],
                            report["finished"], rid=rid)
        for cost, start, end in report["levels"]:
            tracer.add(f"kernel.extend_to.{cost}", start, end, parent, rid)
        tracer.add("store.save_search", *report["write_span"], parent, rid)
    expand = median(
        sum(end - start for _c, start, end in r["levels"]) for r in reports
    )
    rows = reports[-1]["rows"]
    metrics = {
        "kernel.expand_s": (expand, "s"),
        "kernel.level5_s": (median(
            end - start for r in reports
            for cost, start, end in r["levels"] if cost == 5
        ), "s"),
        "kernel.rows_per_s": (rows / expand, "1/s"),
        "kernel.rows": (rows, "count"),
        "store.write_s": (median(r["write_s"] for r in reports), "s"),
        "store.bytes": (reports[-1]["bytes"], "B"),
    }
    return metrics, median(r["build_s"] for r in reports)
