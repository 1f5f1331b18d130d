"""One precompute-4q5 build in a fresh process (spawned by precompute.py).

Builds the 4-qubit closure to cost 5 with parents -- the default kernel
and the default store format, as a bare ``repro precompute`` does -- and
writes it with ``save_search``.  Prints one JSON object:

* ``ready``: ``time.monotonic()`` once the library and engine exist
  (the parent's spawn time on the same clock gives set-up time);
* ``expand_s`` / ``write_s``: ``extend_to`` and ``save_search`` times;
  ``levels`` holds one ``[k, start, end]`` span per ``extend_to(k)``
  when run with ``--traced`` (successive calls instead of one);
* ``level_sizes``, ``rows``, ``bytes`` and ``peak_rss_mb``.

With ``--setup-only`` it prints ``ready`` alone and exits without
building (the set-up spawns of ``setup_s``).

Usage: ``PYTHONPATH=src python perfbench/precompute_worker.py OUT [--traced|--setup-only]``
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from time import perf_counter

QUBITS = 4
COST_BOUND = 5


def main(argv: list[str]) -> int:
    out, traced = argv[0], "--traced" in argv[1:]
    from repro.core.search import CascadeSearch
    from repro.core.store import save_search
    from repro.gates.library import GateLibrary

    search = CascadeSearch(GateLibrary(QUBITS), track_parents=True)
    ready = time.monotonic()
    if "--setup-only" in argv[1:]:
        search.close()
        print(json.dumps({"ready": ready}))
        return 0
    levels = []
    started = perf_counter()
    if traced:
        for cost in range(1, COST_BOUND + 1):
            level_started = perf_counter()
            search.extend_to(cost)
            levels.append([cost, level_started, perf_counter()])
    else:
        search.extend_to(COST_BOUND)
    expanded = perf_counter()
    save_search(search, out)
    written = perf_counter()
    stats = search.stats()
    search.close()
    print(json.dumps({
        "ready": ready,
        "expand_s": expanded - started,
        "write_s": written - expanded,
        "write_span": [expanded, written],
        "levels": levels,
        "level_sizes": list(stats.level_sizes),
        "rows": stats.total_seen,
        "bytes": os.path.getsize(out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
