"""E-telemetry -- what the observability layer costs.

PR 10 threads tracing, a metrics registry and access-log telemetry
through the serving path, and progress hooks through precompute.  The
contract is that none of it costs anything a user can feel:

* **served p50 vs the PR 7 baseline**: routed single-target latency
  through a 2-replica fleet with the full telemetry stack on (trace
  minting, per-attempt spans, metric counters/histograms, access-log
  records with trace ids) compared against ``BENCH_fleet.json``,
  recorded before telemetry existed.  The raw ratio confounds the
  telemetry cost with machine drift between the two recordings, so
  the pinned number is the drift-cancelling ratio of ratios: the
  router-overhead multiple (routed p50 / direct p50) now vs the same
  multiple in the baseline -- both paths carry the telemetry today,
  but the router side carries almost all of it (trace + span minting,
  attempt histograms, a second access-log record), so the multiple
  growing is telemetry cost and the machine's absolute speed cancels.
  Bar: within **5 %** -- asserted strictly on >= 4-CPU machines
  (smaller runners get report-only numbers, the artifact stays honest
  either way).
* **scrape cost**: p50 of a full ``GET /metrics`` round trip, and the
  render parsed back to prove the exposition stays valid under load.
* **progress instrumentation**: a cost-bound-4 closure expansion with
  an NDJSON :class:`~repro.telemetry.progress.ProgressReporter`
  attached vs the same run with no reporter (the default ``None``
  no-op path).  Bar: within 25 % -- the hooks are one attribute check
  per phase boundary plus a few dict writes per level, far below the
  kernel's own noise floor.

Results land in ``BENCH_telemetry.json`` at the repo root.

Run standalone (prints a small report)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py

or as a pytest module (asserts the bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry.py -s -m benchmark

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

from repro.client import ServeClient, fetch_metrics
from repro.core.batch import BatchSynthesizer
from repro.core.search import CascadeSearch
from repro.core.store import save_search
from repro.fleet.manager import BackgroundFleet
from repro.gates.library import GateLibrary
from repro.io import open_store
from repro.server import BackgroundServer
from repro.telemetry import ProgressReporter, parse_prometheus_text

COST_BOUND = 4
N_WARM = 300
N_SCRAPES = 50
SERVE_OVERHEAD_BAR_X = 1.05
PROGRESS_OVERHEAD_BAR_X = 1.25

_REPO_ROOT = Path(__file__).resolve().parent.parent
_JSON_PATH = _REPO_ROOT / "BENCH_telemetry.json"
_FLEET_BASELINE = _REPO_ROOT / "BENCH_fleet.json"


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def measure(work_dir: Path) -> dict:
    store_path = work_dir / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(COST_BOUND)
    save_search(search, store_path)

    _header, _library, loaded = open_store(store_path)
    local_batch = BatchSynthesizer(loaded)
    targets = []
    for cost in range(local_batch.cost_bound + 1):
        targets.extend(
            local_batch.targets_at_cost(cost, include_not_layers=True)
        )
    warm_specs = [target.cycle_string() for target in targets[:N_WARM]]

    def timed_run(address: str) -> list[float]:
        latencies = []
        with ServeClient(address) as client:
            client.healthz()
            client.synth(warm_specs[0])  # warm
            for spec in warm_specs:
                started = perf_counter()
                client.synth(spec)
                latencies.append(perf_counter() - started)
        return latencies

    # Direct single server: the same-machine denominator that lets the
    # routed number be compared against a baseline recorded elsewhere.
    with BackgroundServer(str(store_path)) as single:
        direct = timed_run(single.address_text)

    # Served path: same protocol, same store, same query mix as
    # bench_fleet -- the only delta vs its recorded baseline is the
    # telemetry now threaded through every hop.
    with BackgroundFleet(
        str(store_path), replicas=2, port=0, interval=0.5
    ) as fleet:
        latencies = timed_run(fleet.address_text)
        scrape_times = []
        families = 0
        for _ in range(N_SCRAPES):
            started = perf_counter()
            status, text = fetch_metrics(fleet.address_text)
            scrape_times.append(perf_counter() - started)
            assert status == 200
        samples = parse_prometheus_text(text)
        families = len({name for name, _labels in samples})

    baseline_p50 = baseline_direct_p50 = None
    if _FLEET_BASELINE.exists():
        baseline = json.loads(_FLEET_BASELINE.read_text())
        baseline_p50 = baseline.get("routed_p50_s")
        baseline_direct_p50 = baseline.get("direct_p50_s")
    routed_p50 = _percentile(latencies, 0.50)
    direct_p50 = _percentile(direct, 0.50)
    overhead_x = normalized_x = None
    if baseline_p50:
        overhead_x = routed_p50 / baseline_p50
    if baseline_p50 and baseline_direct_p50:
        normalized_x = (routed_p50 / direct_p50) / (
            baseline_p50 / baseline_direct_p50
        )

    # Progress instrumentation: full NDJSON reporter vs the no-op
    # default.  Fresh searches both times; same library, same bound.
    def timed_expand(reporter: ProgressReporter | None) -> float:
        fresh = CascadeSearch(GateLibrary(3), track_parents=True)
        if reporter is not None:
            fresh.set_progress(reporter)
        started = perf_counter()
        fresh.extend_to(COST_BOUND)
        return perf_counter() - started

    timed_expand(None)  # warm the numpy/jit-free paths once
    plain_s = min(timed_expand(None) for _ in range(3))
    progress_log = work_dir / "progress.ndjson"
    events = 0
    instrumented_times = []
    for _ in range(3):
        with open(progress_log, "w") as handle:
            pass  # truncate between repeats
        reporter = ProgressReporter(path=progress_log)
        instrumented_times.append(timed_expand(reporter))
        reporter.close()
    instrumented_s = min(instrumented_times)
    events = sum(
        1 for line in open(progress_log) if line.strip()
    )

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    numbers = {
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": cpus,
        "store_cost_bound": COST_BOUND,
        "warm_queries": N_WARM,
        "direct_p50_s": direct_p50,
        "routed_p50_s": routed_p50,
        "routed_p99_s": _percentile(latencies, 0.99),
        "routed_mean_s": statistics.mean(latencies),
        "fleet_baseline_p50_s": baseline_p50,
        "fleet_baseline_direct_p50_s": baseline_direct_p50,
        "overhead_vs_fleet_baseline_x": overhead_x,
        "normalized_overhead_x": normalized_x,
        "metrics_scrape_p50_s": _percentile(scrape_times, 0.50),
        "metrics_families": families,
        "precompute_plain_s": plain_s,
        "precompute_progress_s": instrumented_s,
        "progress_overhead_x": instrumented_s / plain_s,
        "progress_events": events,
    }
    _JSON_PATH.write_text(json.dumps(numbers, indent=2, sort_keys=True))
    return numbers


def report(numbers: dict) -> str:
    baseline = numbers["fleet_baseline_p50_s"]
    overhead = numbers["overhead_vs_fleet_baseline_x"]
    normalized = numbers["normalized_overhead_x"]
    versus = (
        f"{baseline * 1e6:8.1f} us baseline (raw {overhead:.3f}x, "
        f"drift-normalized {normalized:.3f}x)"
        if baseline and normalized
        else "no BENCH_fleet.json baseline"
    )
    return (
        "telemetry overhead\n"
        f"direct p50:       {numbers['direct_p50_s'] * 1e6:8.1f} us\n"
        f"routed p50/p99:   {numbers['routed_p50_s'] * 1e6:8.1f} / "
        f"{numbers['routed_p99_s'] * 1e6:8.1f} us   vs {versus}\n"
        f"/metrics scrape:  {numbers['metrics_scrape_p50_s'] * 1e6:8.1f} us "
        f"p50, {numbers['metrics_families']} families\n"
        f"precompute:       plain {numbers['precompute_plain_s']:.3f} s, "
        f"with progress {numbers['precompute_progress_s']:.3f} s "
        f"({numbers['progress_overhead_x']:.3f}x, "
        f"{numbers['progress_events']} events)\n"
        f"(wrote {_JSON_PATH.name})"
    )


@pytest.mark.benchmark
def test_telemetry_overhead(tmp_path):
    numbers = measure(tmp_path)
    print("\n" + report(numbers))
    assert numbers["metrics_families"] >= 15, (
        f"only {numbers['metrics_families']} metric families rendered; "
        "the router registry should expose the full inventory"
    )
    assert numbers["progress_overhead_x"] <= PROGRESS_OVERHEAD_BAR_X, (
        f"progress reporter costs {numbers['progress_overhead_x']:.2f}x "
        f"(bar {PROGRESS_OVERHEAD_BAR_X}x)"
    )
    normalized = numbers["normalized_overhead_x"]
    if normalized is None:
        pytest.skip("no BENCH_fleet.json baseline to compare against")
    if numbers["cpus"] >= 4:
        assert normalized <= SERVE_OVERHEAD_BAR_X, (
            f"telemetry adds {(normalized - 1) * 100:.1f}% to the "
            f"router-overhead multiple "
            f"(bar {(SERVE_OVERHEAD_BAR_X - 1) * 100:.0f}%)"
        )
    else:
        # Few-CPU runners share one core between client, router,
        # replicas and the supervisor; the recorded ratios are
        # context, not a bar.
        print(
            f"(report-only on {numbers['cpus']} cpus: raw "
            f"{numbers['overhead_vs_fleet_baseline_x']:.3f}x, "
            f"normalized {normalized:.3f}x vs baseline)"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(report(measure(Path(tmp))))
    sys.exit(0)
