"""The pipeline benchmark: precompute, direct serving and fleet serving.

Usage (from the repository root; the code under test is ``src/``)::

    python3 perfbench/run.py --workload serve-direct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

``--trace 0`` prints the workload's end-to-end metrics; ``--trace 1``
runs the traced layer budget and prints every per-layer metric.  The
last stdout line is the JSON verdict; the full result (with its
envelope: machine, CPUs, versions, seed, settings) is also written to
``.bench_build/perfbench/results/`` and the spans of a traced run to
``.bench_build/perfbench/traces/``.  Exit status: 0 when every output
was correct, 1 on a correctness-gate violation, 2 when the benchmark
could not run.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SETUP_SPAWNS,
    SRC,
    WORK,
    BenchError,
    Tracer,
    compile_src,
    error_rate_bound,
    median,
    spread,
    use_src,
)
from result import Result  # noqa: E402

WORKLOADS = ("precompute-4q5", "serve-direct")
#: Every run reports every end-to-end metric, so each workload also runs
#: the other one's path, shorter: serve-direct makes SIDE_BUILDS builds,
#: precompute-4q5 serves for SIDE_SERVE_SHARE of --seconds.
SIDE_BUILDS = 3
SIDE_SERVE_SHARE = 0.5
#: Untraced/traced window (s) for the serve path when a traced run's
#: own workload is precompute (which in turn makes one traced build).
SIDE_WINDOW_S = 2.0

END_TO_END = (
    "setup_s", "build_s", "peak_rss_mb", "synth_p50_ms", "batch_p50_ms",
    "healthz_p50_ms", "throughput_rps", "error_rate",
)
PER_LAYER = (
    "kernel.expand_s", "kernel.level5_s", "kernel.rows_per_s", "kernel.rows",
    "store.write_s", "store.bytes", "store.open_s", "service.open_state_s",
    "service.execute_synth_us", "service.execute_batch_us",
    "batch.synthesize_us", "protocol.decode_us", "protocol.encode_us",
    "client.roundtrip_us", "client.synth_p90_ms", "client.synth_p99_ms",
    "server.transport_us", "service.jobs_per_batch",
    "telemetry.metrics_scrape_us", "fleet.synth_p50_ms", "fleet.slo_ok_frac",
    "router.hop_us", "router.failovers", "router.shed",
    "loadgen.late_p99_ms", "trace.overhead_frac",
)


def untraced(workload: str, work: Path, seed: int, seconds: float) -> Result:
    """The whole pipeline, *workload*'s own path at full length.

    Builds, set-up spawns and parts of the serve window alternate (see
    :func:`serving.serve`), so that every metric samples the machine
    across the run.  ``setup_s`` is the set-up of the own path, the
    median of :data:`SETUP_SPAWNS` spawns: build process spawn to engine
    ready, or ``repro serve`` spawn to its ready line.
    """
    import precompute
    import serving

    result = Result()
    own = workload == "precompute-4q5"
    chunks = precompute.builds_for(seconds) if own else SIDE_BUILDS
    build_setups: list[float] = []
    reports: list = []

    def between(number: int) -> None:
        if own:
            build_setups.extend(precompute.setups(
                work, spread(SETUP_SPAWNS, chunks, number)
            ))
        reports.append(precompute.gated_build(work, False, result))

    serve_setups = serving.serve(
        work, seed, seconds * SIDE_SERVE_SHARE if own else seconds, result,
        chunks, between,
    )
    precompute.check_last(work, result)
    precompute.summarize(result, reports)
    setups = build_setups if own else serve_setups
    result.metric("setup_s", median(setups), "s")
    result.samples["setup_s"] = len(setups)
    result.metric(
        "error_rate", error_rate_bound(result.failed, result.attempted), "1"
    )
    return result


def traced(workload: str, work: Path, seed: int, seconds: float,
           tracer: Tracer) -> Result:
    """Every layer of the pipeline; *workload*'s own path at full length.

    The other workload's path runs briefly, and the fleet path (router
    hop, supervisor polling) for :data:`serving.FLEET_TRACE_S`, so that
    one traced run reports the whole per-layer budget.
    ``trace.overhead_frac`` compares traced with untraced ``build_s`` /
    ``synth_p50_ms`` on *workload*'s own path.
    """
    import precompute
    import serving

    result = Result()
    own = workload == "precompute-4q5"
    # Untraced and traced builds alternate (see serving.trace_direct).
    plain, traced_builds = [], []
    for _ in range(max(1, precompute.builds_for(seconds) // 2) if own else 1):
        if own:
            plain += precompute.builds(work, 1, False, result)
        traced_builds += precompute.builds(work, 1, True, result)
    layers, traced_build_s = precompute.trace(tracer, traced_builds)
    session = serving.Session(work, seed)
    direct, direct_overhead = serving.trace_direct(
        session, result, tracer, SIDE_WINDOW_S if own else seconds / 2
    )
    fleet = serving.trace_fleet(session, result, tracer)
    if own:
        overhead = traced_build_s / median(b["build_s"] for b in plain) - 1.0
    else:
        overhead = direct_overhead
    for name, (value, unit) in {**layers, **direct, **fleet}.items():
        result.metric(name, value, unit)
    result.metric("trace.overhead_frac", overhead, "1")
    budget = sum(result.metrics[name][0] for name in (
        "protocol.decode_us", "service.execute_synth_us",
        "protocol.encode_us", "server.transport_us",
    ))
    result.details["budget"] = {
        "decode+execute+encode+transport_us": budget,
        "client.roundtrip_us": result.metrics["client.roundtrip_us"][0],
    }
    return result


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.decode().split()
    # A checkout that is not itself a repository has no rev of its own.
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def envelope(args) -> dict:
    """Where and how a result was measured (compared across result sets)."""
    import numpy

    import precompute
    import serving
    import stream

    return {
        "schema": "perfbench/1",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "settings": {
            "precompute_builds": precompute.builds_for(args.seconds),
            "side_builds": SIDE_BUILDS,
            "side_serve_share": SIDE_SERVE_SHARE,
            "serve_store": f"{serving.SERVE_QUBITS}-qubit cost "
                           f"{serving.SERVE_COST_BOUND} v2",
            "connections": serving.CONNECTIONS,
            "closed_loop_requests_per_s": serving.CLOSED_LOOP_NOMINAL_RPS,
            "setup_spawns": SETUP_SPAWNS,
            "steal_spans": {"seconds": serving.SLICE_S,
                            "keep_share": serving.KEEP_SHARE,
                            "min_samples": serving.MIN_SAMPLES},
            "fleet_replicas": serving.REPLICAS,
            "fleet_rate_rps": serving.FLEET_RATE_RPS,
            "fleet_limit_ms": serving.FLEET_LIMIT_MS,
            "fleet_trace_s": serving.FLEET_TRACE_S,
            "mix": {
                "synth": stream.SYNTH_SHARE,
                "synth-batch": stream.BATCH_SHARE,
                "batch_size": stream.BATCH_SIZE,
                "out_of_bound": stream.OUT_OF_BOUND_SHARE,
            },
        },
    }


def report(result: Result) -> str:
    lines = []
    for name, (value, unit) in result.metrics.items():
        count = result.samples.get(name)
        note = f"  (n={count})" if count is not None else ""
        lines.append(f"{name:30s} {value:14.6g} {unit}{note}")
    for key, value in result.details.items():
        if key == "builds":
            continue
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    for text in result.violations:
        lines.append(f"VIOLATION: {text}")
    return "\n".join(lines)


def self_test(work: Path) -> int:
    """Golden prefix and determinism of the request generator."""
    import serving
    import stream

    session = serving.Session(work, seed=stream.GOLDEN_SEED)
    again = stream.Stream(stream.GOLDEN_SEED, session.pools)
    first = [session.stream[j] for j in range(10000)]
    if first != [again[j] for j in range(10000)]:
        print("self-test: stream is not a function of its seed")
        return 1
    print(f"golden prefix sha256 {stream.golden_digest(session.pools)} (ok)")
    print(f"pool sizes per cost level: {[len(p) for p in session.pools.levels]}")
    print("first 10000 requests of seed 0:",
          json.dumps(stream.level_counts(first, len(session.pools.levels))))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        os.chdir(ROOT)
        use_src()
        compile_src()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Fixed-width name: the build's peak RSS moves by several percent
    # with the length of the paths it is handed (heap layout), so every
    # run hands it paths of the same length.
    work = WORK / f"run-{os.getpid():08d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer(bool(args.trace))
    started = time.monotonic()
    try:
        if args.self_test:
            return self_test(work)
        if args.trace:
            result = traced(args.workload, work, args.seed, args.seconds, tracer)
        else:
            result = untraced(args.workload, work, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = f"{args.workload}-trace{args.trace}-seed{args.seed}-{os.getpid()}"
    if args.trace:
        tracer.write(WORK / "traces" / f"{stamp}.ndjson")
    order = END_TO_END if not args.trace else PER_LAYER
    missing = set(order) - set(result.metrics)
    if missing:
        print(f"perfbench: run lacks {sorted(missing)}", file=sys.stderr)
        return 2
    # The verdict line holds exactly the manifest's metrics of this mode.
    result.metrics = {name: result.metrics[name] for name in order}
    record = {
        "envelope": envelope(args),
        "wall_s": time.monotonic() - started,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
        "samples": result.samples,
        "details": result.details,
        "violations": result.violations,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(report(result))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
