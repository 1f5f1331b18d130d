"""The serve path of every run, and the fleet path of a traced run: the
seeded stream against live servers.

Servers run as their own processes (``python -m repro serve`` /
``python -m repro fleet serve``) on the code under test, so the load
generator never shares their interpreter lock.  Load comes from this
process, from :data:`CONNECTIONS` threads, each owning one persistent
NDJSON connection (``ServeClient``):

* serve-direct is a closed loop: a connection sends its next request
  when the last reply is in;
* the fleet path is an open loop at :data:`FLEET_RATE_RPS`: request *j*
  is due at ``start + j / rate`` and its latency runs from that due
  time, so a stall is charged to every request it delays.

Every reply is checked after the timed window against ``execute_query``
on a locally opened copy of the same store.
"""

from __future__ import annotations

import gc
import json
import shutil
import threading
import time
from pathlib import Path
from time import perf_counter

from common import (
    SETUP_SPAWNS,
    BenchError,
    ServerProcess,
    StealSampler,
    Timer,
    Tracer,
    median,
    percentile,
    spread,
)
from result import Result
from stream import (
    GOLDEN_SEED,
    GOLDEN_SHA256,
    OUT,
    Stream,
    TargetPools,
    golden_digest,
    level_counts,
)

SERVE_QUBITS = 3
SERVE_COST_BOUND = 7
CONNECTIONS = 2
REPLICAS = 2
#: Closed-loop requests per second of --seconds (a count, not a rate:
#: serve-direct sends a fixed number of requests per run).
CLOSED_LOOP_NOMINAL_RPS = 1000
#: A window is cut into spans of SLICE_S of send time; latency and
#: throughput are computed over the KEEP_SHARE of them with the least
#: CPU steal (see Window).
SLICE_S = 0.125
KEEP_SHARE = 1 / 16
MIN_SAMPLES = 100
#: Warm-up before each window (the builds between windows evict caches).
WARMUP_S = 0.5
#: Untraced/traced window pairs of a traced serve-direct path.
ALTERNATIONS = 4
#: The fleet path's fixed offered load, its latency limit and the
#: length of its traced window, chosen once (a third of the fleet's
#: closed-loop capacity on a 2-CPU box).  Never retune them per change.
FLEET_RATE_RPS = 200
FLEET_LIMIT_MS = 20.0
FLEET_TRACE_S = 4.0


# -- store and reference ---------------------------------------------------------------


def build_store(path: Path) -> None:
    """The 3-qubit cost-7 closure with parents, default kernel, v2 (untimed)."""
    from repro.core.search import CascadeSearch
    from repro.core.store import save_search
    from repro.gates.library import GateLibrary

    search = CascadeSearch(GateLibrary(SERVE_QUBITS), track_parents=True)
    try:
        search.extend_to(SERVE_COST_BOUND)
        save_search(search, path)
    finally:
        search.close()


def synth_params(spec: str) -> dict:
    """The params ``ServeClient.synth`` sends for one target."""
    return {"target": spec, "all": False, "allow_not": True}


def batch_params(specs) -> dict:
    """The params ``ServeClient.synth_batch`` sends."""
    return {"targets": list(specs), "allow_not": True}


def _wire(value):
    """*value* as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(value))


class Reference:
    """``execute_query`` on a local copy of the served store, memoized."""

    def __init__(self, path: Path):
        from repro.server.service import open_store_state

        self.state = open_store_state(str(path))
        self._synth: dict[str, tuple] = {}
        self._entry: dict[str, dict] = {}

    def synth(self, spec: str) -> tuple:
        """``("ok", payload)`` or ``("error", code)`` for one target."""
        from repro.errors import ReproError
        from repro.server.protocol import error_payload
        from repro.server.service import execute_query

        if spec not in self._synth:
            try:
                answer = (
                    "ok",
                    _wire(execute_query(self.state, "synth", synth_params(spec))),
                )
            except ReproError as exc:
                answer = ("error", error_payload(exc)[0]["code"])
            self._synth[spec] = answer
        return self._synth[spec]

    def entry(self, spec: str) -> dict:
        """The ``synth-batch`` entry for one target.

        Batch entries are computed independently per target (see
        ``server.service._run_synth_batch``), so a batch reply equals
        ``execute_query`` on the whole batch exactly when every entry
        equals the one-target batch's entry and the counts agree.
        """
        from repro.server.service import execute_query

        if spec not in self._entry:
            self._entry[spec] = _wire(execute_query(
                self.state, "synth-batch", batch_params([spec])
            ))["results"][0]
        return self._entry[spec]


# -- load generation -------------------------------------------------------------------


class Record:
    """One request as sent: stream index, times, and what came back."""

    __slots__ = ("index", "op", "due", "sent", "done", "ok", "value", "span")

    def __init__(self, index, op, due, sent, done, ok, value, span):
        self.index, self.op = index, op
        self.due, self.sent, self.done = due, sent, done
        self.ok, self.value, self.span = ok, value, span

    @property
    def latency(self) -> float:
        return self.done - (self.sent if self.due is None else self.due)


def _send(client, request) -> object:
    op, targets, _levels = request
    if op == "synth":
        return client.synth(targets[0])
    if op == "synth-batch":
        return client.synth_batch(list(targets))
    return client.healthz()


def _request(client, stream, index, due, tracer, prefix) -> Record:
    request = stream[index]
    sent = perf_counter()
    try:
        value, ok = _send(client, request), True
    except Exception as exc:  # noqa: BLE001 -- every outcome is data
        value, ok = exc, False
    done = perf_counter()
    span = tracer.add(f"{prefix}.{request[0]}", sent, done, rid=index)
    return Record(index, request[0], due, sent, done, ok, value, span)


def run_loop(address, stream, start, seconds, tracer, rate=None,
             prefix="client"):
    """Send ``seconds * rate`` requests from :data:`CONNECTIONS` threads.

    Each thread owns one ``ServeClient``; connection *i* carries stream
    indices ``start + i``, ``start + i + CONNECTIONS``, ...  Closed loop
    when *rate* is ``None``: ``seconds * CLOSED_LOOP_NOMINAL_RPS``
    requests, each sent when its connection's last reply is in (the
    count is fixed so ``attempted`` does not move with speed; a guard
    stops at three times *seconds*).  Otherwise open loop: request
    ``start + j`` is due at ``t0 + j / rate`` and its latency counts from
    then, so a reply that holds up its connection delays the requests
    queued behind it.  Returns a :class:`Window`.
    """
    from repro.client import ServeClient

    go = threading.Event()
    t0 = [0.0]
    steal = StealSampler()
    outs: list[list[Record]] = [[] for _ in range(CONNECTIONS)]
    errors: list[BaseException] = []
    total = round(seconds * (rate or CLOSED_LOOP_NOMINAL_RPS))

    def worker(lane: int) -> None:
        try:
            with ServeClient(address, timeout=60) as client:
                client.connect()
                go.wait()
                guard = t0[0] + 3 * seconds
                j = lane
                while j < total:
                    if rate is None:
                        if perf_counter() >= guard:
                            break
                        due = None
                    else:
                        due = t0[0] + j / rate
                        pause = due - perf_counter()
                        if pause > 0:
                            time.sleep(pause)
                    outs[lane].append(
                        _request(client, stream, start + j, due, tracer, prefix)
                    )
                    j += CONNECTIONS
        except BaseException as exc:  # noqa: BLE001 -- re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(lane,))
        for lane in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let the connections open before the clock starts
    # Replies are kept until the window ends; a cyclic-GC pass over them
    # would stall the generator mid-window, and they hold no cycles.
    gc.collect()
    gc.disable()
    try:
        with steal:
            t0[0] = perf_counter()
            go.set()
            for thread in threads:
                thread.join(timeout=seconds + 120)
                if thread.is_alive():
                    raise BenchError("load thread did not finish")
    finally:
        gc.enable()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    records = sorted((r for out in outs for r in out), key=lambda r: r.index)
    if not records:
        raise BenchError("no request completed in the window")
    return Window([(records, steal)])


# -- the correctness gate --------------------------------------------------------------


def _failure_kind(exc: BaseException) -> str:
    """``"fault"`` for transport errors and 5xx codes, else the code."""
    from repro.errors import ReproError
    from repro.server.protocol import error_payload

    if not isinstance(exc, ReproError):
        return "fault"
    payload, status = error_payload(exc)
    return "fault" if status >= 500 else payload["code"]


def check(records, stream, reference: Reference, result: Result) -> list[bool]:
    """Judge every reply; returns per-record "answered correctly".

    A transport error or a server fault counts as failed.  A wrong
    answer, or an error code other than ``cost-bound-exceeded`` for an
    out-of-bound target, is a gate violation (and failed too).
    """
    verdicts = []
    for record in records:
        op, targets, levels = stream[record.index]
        good = True
        if not record.ok:
            kind = _failure_kind(record.value)
            expected_miss = (
                op == "synth" and levels[0] == OUT
                and kind == "cost-bound-exceeded"
            )
            if expected_miss:
                expected = reference.synth(targets[0])
                if expected != ("error", "cost-bound-exceeded"):
                    result.violation(
                        f"{targets[0]}: server says out of bound, "
                        f"local answer is {expected[0]}"
                    )
                    good = False
            else:
                good = False
                if kind != "fault":
                    result.violation(
                        f"request {record.index} ({op}) got error {kind}"
                    )
        elif op == "healthz":
            good = record.value.get("status") == "ok"
            if not good:
                result.violation(f"healthz status {record.value.get('status')}")
        elif op == "synth":
            if levels[0] == OUT:
                result.violation(f"out-of-bound {targets[0]} answered ok")
                good = False
            elif ("ok", record.value) != reference.synth(targets[0]):
                result.violation(f"synth {targets[0]} differs from execute_query")
                good = False
        else:
            good = _check_batch(record.value, targets, levels, reference,
                                result, record.index)
        if not good:
            result.failed += 1
        verdicts.append(good)
    result.attempted += len(records)
    return verdicts


def _check_batch(reply, targets, levels, reference, result, index) -> bool:
    entries = reply.get("results")
    if not isinstance(entries, list) or len(entries) != len(targets):
        result.violation(f"batch {index}: wrong number of entries")
        return False
    good = True
    for spec, level, entry in zip(targets, levels, entries):
        if entry != reference.entry(spec):
            result.violation(f"batch {index}: entry {spec} differs")
            good = False
        elif level == OUT and (entry.get("ok") or entry["error"]["code"]
                               != "cost-bound-exceeded"):
            result.violation(f"batch {index}: {spec} not cost-bound-exceeded")
            good = False
    failures = sum(1 for entry in entries if not entry.get("ok"))
    if reply.get("count") != len(targets) or reply.get("failures") != failures:
        result.violation(f"batch {index}: count/failures fields wrong")
        good = False
    return good


# -- workload runs ---------------------------------------------------------------------


class Session:
    """The served store, the stream and the reference for one run."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.store = work / "closure3q7.rpro"
        build_store(self.store)
        self.reference = Reference(self.store)
        pools = TargetPools(self.reference.state.batch)
        if golden_digest(pools) != GOLDEN_SHA256:
            raise BenchError(
                "request generator drifted from its golden prefix "
                f"(seed {GOLDEN_SEED})"
            )
        self.pools = pools
        self.stream = Stream(seed, pools)
        #: Warm-up and router-hop traffic: same mix, its own draws.
        self.warm = Stream(f"warm-up-{seed}", pools)

    def direct_server(self) -> ServerProcess:
        return ServerProcess(
            ["serve", str(self.store), "--port", "0",
             "--access-log", str(self.work / "direct.access.ndjson")],
            "SIGHUP reloads",
        )

    def fleet(self) -> ServerProcess:
        run_dir = self.work / "fleet"
        shutil.rmtree(run_dir, ignore_errors=True)
        return ServerProcess(
            ["fleet", "serve", str(self.store), "--replicas", str(REPLICAS),
             "--port", "0", "--run-dir", str(run_dir)],
            "SIGINT/SIGTERM stop the fleet",
        )


def warm_up(address, session: Session, rate=None) -> None:
    run_loop(address, session.warm, 0, WARMUP_S, Tracer(False), rate)


class Window:
    """The records of one timed window and its CPU-steal readings.

    On this kind of shared machine the hypervisor's CPU steal sets most
    of the run-to-run spread: at a fifth of the CPU stolen, serve-direct
    loses a third of its throughput.  Such steal lasts whole windows but
    is uneven from one 50 ms sample to the next.  So the window is cut
    into spans of :data:`SLICE_S` of send time, and latency and
    throughput are computed over the spans with the least steal (see
    :meth:`kept`).  A window without steal keeps every span.
    """

    def __init__(self, chunks: list[tuple[list[Record], StealSampler]]):
        """*chunks*: the records and steal readings of one or more
        windows, pooled span by span."""
        self.chunks = chunks
        self.records: list[Record] = []
        self.parts: list[list[Record]] = []
        self.shares: list[float] = []
        self.widths: list[float] = []
        stolen = 0.0
        for records, steal in chunks:
            first = min(r.sent for r in records)
            span = max(r.sent for r in records) - first
            count = max(1, round(span / SLICE_S))
            width = span / count or SLICE_S
            parts: list[list[Record]] = [[] for _ in range(count)]
            for record in records:
                parts[min(count - 1, int((record.sent - first) / width))
                      ].append(record)
            self.records += records
            self.parts += parts
            self.shares += [
                steal.share(first + i * width, first + (i + 1) * width)
                for i in range(count)
            ]
            self.widths += [width] * count
            stolen += steal.share(first, first + span) * span
        self.order = sorted(
            range(len(self.parts)), key=lambda i: self.shares[i]
        )
        self.steal_share = stolen / (sum(self.widths) or 1.0)

    def kept(self, op: str | None = None) -> tuple[list[Record], float]:
        """Records of the least-steal spans, and the seconds they cover.

        Spans are taken in order of steal: at least :data:`KEEP_SHARE`
        of them, enough to hold :data:`MIN_SAMPLES` requests of *op*
        (any op when ``None``), and every span whose steal ties the last
        one taken.
        """
        want = max(1, round(len(self.order) * KEEP_SHARE))
        records: list[Record] = []
        samples = taken = 0
        seconds = 0.0
        for i in self.order:
            if (taken >= want and samples >= MIN_SAMPLES
                    and self.shares[i] > self.shares[self.order[taken - 1]]):
                break
            records += self.parts[i]
            samples += sum(1 for r in self.parts[i] if op in (None, r.op))
            seconds += self.widths[i]
            taken += 1
        return records, seconds


def op_percentile(window: Window, op: str, q: float) -> tuple[float, int]:
    """The *q*-quantile of *op* latencies (ms) in the kept spans, and
    its sample count."""
    records, _seconds = window.kept(op)
    latencies = [r.latency * 1e3 for r in records if r.op == op]
    return percentile(latencies, q), len(latencies)


def latency_metrics(result: Result, window: Window) -> None:
    for name, op in (
        ("synth_p50_ms", "synth"),
        ("batch_p50_ms", "synth-batch"),
        ("healthz_p50_ms", "healthz"),
    ):
        value, result.samples[name] = op_percentile(window, op, 0.5)
        result.metric(name, value, "ms")
    for name, q in (("client.synth_p90_ms", 0.9), ("client.synth_p99_ms", 0.99)):
        result.details[name] = op_percentile(window, "synth", q)[0]
    result.details["serve_steal_share"] = window.steal_share


def serve(work: Path, seed: int, seconds: float, result: Result,
          chunks: int, between) -> list:
    """Untraced closed-loop windows, *seconds* in all, against ``repro serve``.

    The window is cut into *chunks* parts.  Before each, ``between(i)``
    runs (the run's builds), then a share of the :data:`SETUP_SPAWNS`
    timed server spawns and a warm-up.  The first server spawned serves
    every part; the others stop once ready.  Builds, set-ups and windows
    thus sample the machine across the whole run.  Adds the latency and
    throughput metrics to *result* and returns the set-up times.
    """
    session = Session(work, seed)
    setups: list[float] = []
    windows = []
    part = seconds / chunks
    server = None
    try:
        for number in range(chunks):
            between(number)
            for _ in range(spread(SETUP_SPAWNS, chunks, number)):
                spawned = session.direct_server()
                setups.append(spawned.start())
                if server is None:
                    server = spawned
                else:
                    spawned.stop()
            address = server.line_after("listening on ")
            warm_up(address, session)
            windows.append(run_loop(
                address, session.stream,
                number * round(part * CLOSED_LOOP_NOMINAL_RPS), part,
                Tracer(False),
            ))
    finally:
        if server is not None:
            server.stop()
    window = Window([chunk for w in windows for chunk in w.chunks])
    check(window.records, session.stream, session.reference, result)
    latency_metrics(result, window)
    kept, seconds = window.kept()
    result.metric("throughput_rps", len(kept) / seconds, "1/s")
    result.samples["throughput_rps"] = len(kept)
    result.details["stream"] = level_counts(
        (session.stream[r.index] for r in window.records), SERVE_COST_BOUND + 1
    )
    return setups


# -- traced runs -----------------------------------------------------------------------


def replay(records, stream, reference: Reference, tracer) -> None:
    """Re-run each traced request's server-side layers in-process.

    decode -> execute -> encode become child spans of the request's
    ``client.*`` round trip, so its self time is the rest of the trip:
    socket, asyncio, queue, worker hop, metrics and access log.
    ``BatchSynthesizer.synthesize`` on the same target is its own span.
    """
    from repro.errors import CostBoundExceededError, ReproError
    from repro.io import parse_target
    from repro.server.protocol import (
        decode_request_line,
        encode_response,
        error_payload,
    )
    from repro.server.service import execute_query

    state = reference.state
    for number, record in enumerate(records, 1):
        op, targets, _levels = stream[record.index]
        if op == "healthz" or record.span is None:
            continue
        params = synth_params(targets[0]) if op == "synth" else (
            batch_params(targets)
        )
        line = json.dumps(
            {"id": number, "op": op, "params": params}, separators=(",", ":")
        ).encode() + b"\n"
        t0 = perf_counter()
        request = decode_request_line(line)
        t1 = perf_counter()
        try:
            payload, error = execute_query(state, request.op, request.params), None
        except ReproError as exc:
            payload, error = None, error_payload(exc)[0]
        t2 = perf_counter()
        encode_response(request.id, payload, error)
        t3 = perf_counter()
        tracer.add(f"protocol.decode.{op}", t0, t1, record.span, record.index)
        tracer.add(f"service.execute.{op}", t1, t2, record.span, record.index)
        tracer.add(f"protocol.encode.{op}", t2, t3, record.span, record.index)
        if op == "synth":
            target = parse_target(targets[0])
            t4 = perf_counter()
            try:
                state.batch.synthesize(target)
            except CostBoundExceededError:
                pass
            tracer.add("batch.synthesize", t4, perf_counter(), None,
                       record.index)


def _us(values) -> float:
    return median(values) * 1e6


def trace_direct(session: Session, result: Result, tracer, seconds: float):
    """Layer metrics of the direct path; returns ``(metrics, overhead)``.

    *seconds* untraced and *seconds* traced against one server, in
    :data:`ALTERNATIONS` alternating pairs; ``overhead`` is traced /
    untraced synth p50 - 1.
    """
    from repro.client import ServeClient, fetch_metrics
    from repro.core.batch import BatchSynthesizer
    from repro.io import open_store, parse_target
    from repro.server.service import open_store_state

    opens = []
    for _ in range(3):
        with Timer() as timer:
            open_store_state(str(session.store))
        opens.append(timer.seconds)
        tracer.add("service.open_store_state", timer.start, timer.end)
    toffoli = parse_target("toffoli")
    store_opens = []
    for _ in range(5):
        with Timer() as timer:
            _header, _library, search = open_store(session.store)
            BatchSynthesizer(search).synthesize(toffoli)
        search.close()
        store_opens.append(timer.seconds)
        tracer.add("store.open_store+synth", timer.start, timer.end)

    server = session.direct_server()
    server.start()
    try:
        address = server.line_after("listening on ")
        warm_up(address, session)
        # Untraced and traced windows alternate, so drift in the machine's
        # load lands on both sides of trace.overhead_frac alike.
        plain, traced = [], []
        part = seconds / ALTERNATIONS
        start = 0
        for _ in range(ALTERNATIONS):
            for records, spans in ((plain, Tracer(False)), (traced, tracer)):
                records += run_loop(
                    address, session.stream, start, part, spans
                ).records
                start += round(part * CLOSED_LOOP_NOMINAL_RPS)
        with ServeClient(address) as client:
            health = client.healthz()
        scrapes = []
        for _ in range(30):
            with Timer() as timer:
                status, _text = fetch_metrics(address)
            if status != 200:
                raise BenchError(f"/metrics answered {status}")
            scrapes.append(timer.seconds)
            tracer.add("telemetry.fetch_metrics", timer.start, timer.end)
    finally:
        server.stop()
    check(plain + traced, session.stream, session.reference, result)
    replay(traced, session.stream, session.reference, tracer)
    plain_synth = [r.latency * 1e3 for r in plain if r.op == "synth"]

    metrics = {
        "store.open_s": (median(store_opens), "s"),
        "service.open_state_s": (median(opens), "s"),
        "service.execute_synth_us": (
            _us(tracer.durations("service.execute.synth")), "us"),
        "service.execute_batch_us": (
            _us(tracer.durations("service.execute.synth-batch")), "us"),
        "batch.synthesize_us": (_us(tracer.durations("batch.synthesize")), "us"),
        "protocol.decode_us": (
            _us(tracer.durations("protocol.decode.synth")), "us"),
        "protocol.encode_us": (
            _us(tracer.durations("protocol.encode.synth")), "us"),
        "client.roundtrip_us": (_us(tracer.durations("client.synth")), "us"),
        "server.transport_us": (_us(tracer.self_times("client.synth")), "us"),
        "client.synth_p90_ms": (percentile(plain_synth, 0.9), "ms"),
        "client.synth_p99_ms": (percentile(plain_synth, 0.99), "ms"),
        "service.jobs_per_batch": (
            health["jobs_coalesced"] / health["batches_executed"], "count"),
        "telemetry.metrics_scrape_us": (_us(scrapes), "us"),
    }
    traced_synth = [r.latency * 1e3 for r in traced if r.op == "synth"]
    return metrics, median(traced_synth) / median(plain_synth) - 1.0


def _landing_backend(address: str) -> str:
    """Endpoint of the replica the router sent the most requests to."""
    from repro.client import ServeClient

    with ServeClient(address) as client:
        backends = client.healthz()["backends"]
    name = max(backends, key=lambda n: backends[n]["requests"])
    return backends[name]["endpoint"]


def router_hop(address, session: Session, tracer, pairs: int) -> float:
    """Routed minus direct synth round trip (us), alternating per request.

    The direct trip goes to the landing replica's own socket in the
    fleet's run directory, so the difference is the router's hop.
    """
    from repro.client import ServeClient

    endpoint = _landing_backend(address)
    routed_times, direct_times = [], []
    specs = [
        targets[0] for op, targets, levels in (
            session.warm[j] for j in range(pairs * 2)
        ) if op == "synth" and levels[0] != OUT
    ][:pairs]
    with ServeClient(address) as routed, ServeClient(endpoint) as direct:
        for number, spec in enumerate(specs):
            order = ((routed, routed_times, "router.routed"),
                     (direct, direct_times, "router.direct"))
            if number % 2:
                order = order[::-1]
            answers = []
            for client, times, name in order:
                with Timer() as timer:
                    answers.append(client.synth(spec))
                times.append(timer.seconds)
                tracer.add(name, timer.start, timer.end, rid=f"hop-{number}")
            if answers[0] != answers[1]:
                raise BenchError(f"routed and direct answers differ for {spec}")
    return (median(routed_times) - median(direct_times)) * 1e6


def trace_fleet(session: Session, result: Result, tracer) -> dict:
    """Layer metrics of the routed path, from one traced open-loop window
    of :data:`FLEET_TRACE_S` at :data:`FLEET_RATE_RPS`."""
    from repro.client import ServeClient

    fleet = session.fleet()
    fleet.start()
    try:
        address = fleet.line_after("routing on ")
        warm_up(address, session, FLEET_RATE_RPS)
        window = run_loop(
            address, session.stream, 0, FLEET_TRACE_S, tracer, FLEET_RATE_RPS,
            prefix="fleet.client",
        )
        hop = router_hop(address, session, tracer, pairs=300)
        with ServeClient(address) as client:
            health = client.healthz()
    finally:
        fleet.stop()
    verdicts = check(window.records, session.stream, session.reference, result)
    good = {r.index for r, ok in zip(window.records, verdicts) if ok}
    kept, _seconds = window.kept()
    within = sum(
        1 for r in kept
        if r.index in good and r.latency * 1e3 <= FLEET_LIMIT_MS
    )
    return {
        "fleet.synth_p50_ms": (op_percentile(window, "synth", 0.5)[0], "ms"),
        "fleet.slo_ok_frac": (within / len(kept), "1"),
        "router.hop_us": (hop, "us"),
        "router.failovers": (health["failovers"], "count"),
        "router.shed": (health["shed"], "count"),
        "loadgen.late_p99_ms": (percentile(
            [(r.sent - r.due) * 1e3 for r in window.records], 0.99), "ms"),
    }
