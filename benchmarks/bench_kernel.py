"""E-kernel -- the array kernel vs byte-level closure expansion.

Measures the one array kernel (``CascadeSearch(kernel="vector")``:
relation-filtered candidates, sharded dedup, run inline at its default
options) against the seed ``bytes.translate`` loop
(``kernel="translate"``) on the paper's full cost-7 closure (~6.9e5
cascades, parent tracking on).  Both kernels produce byte-identical
levels and parent pointers (asserted here and pinned by
``tests/test_kernels.py``); the acceptance bar is a >= 3x end-to-end
build speedup.

Runs are paired (translate then vector, repeated) and the best time per
kernel is reported, which cancels machine drift on shared runners.
Results are also written to ``BENCH_kernel.json`` at the repo root so
performance is trendable across PRs.

Run standalone (prints a small report)::

    PYTHONPATH=src python benchmarks/bench_kernel.py

or as a pytest module (asserts the speedup)::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -s

Markers: carries ``benchmark`` (timing-sensitive; excluded from the
default tier-1 selection, run explicitly or with ``-m benchmark``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

import pytest

from repro.core.search import CascadeSearch
from repro.gates.library import GateLibrary

COST_BOUND = 7
ROUNDS = 3
#: The pinned |B[k]| sizes (see tests/test_golden_tables.py).
GOLDEN_B = (1, 18, 162, 1017, 5364, 25761, 118888, 538191)

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def _build(library: GateLibrary, kernel: str) -> tuple[float, CascadeSearch]:
    started = perf_counter()
    search = CascadeSearch(library, track_parents=True, kernel=kernel)
    search.extend_to(COST_BOUND)
    return perf_counter() - started, search


def measure() -> dict:
    """Paired closure builds; returns the numbers dict."""
    library = GateLibrary(3)
    # Warm-up: one build pre-faults allocator pools so neither kernel
    # pays first-touch costs inside the timed region.
    _build(library, "vector")
    translate_times: list[float] = []
    vector_times: list[float] = []
    last_vector = last_translate = None
    for _ in range(ROUNDS):
        elapsed, last_translate = _build(library, "translate")
        translate_times.append(elapsed)
        elapsed, last_vector = _build(library, "vector")
        vector_times.append(elapsed)
    assert last_vector.stats().level_sizes == GOLDEN_B
    assert last_translate.stats().level_sizes == GOLDEN_B
    # The kernels must agree beyond counts: identical discovery order
    # and parent choice (a benchmark that drifted semantically would be
    # comparing different computations).
    for cost in (0, 1, 2, 3):
        assert last_vector.level(cost) == last_translate.level(cost)
    numbers = {
        "cost_bound": COST_BOUND,
        "closure_size": last_vector.total_seen(),
        "translate_s": min(translate_times),
        "vector_s": min(vector_times),
        "translate_runs_s": [round(t, 4) for t in translate_times],
        "vector_runs_s": [round(t, 4) for t in vector_times],
        "speedup": min(translate_times) / min(vector_times),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
    }
    _JSON_PATH.write_text(json.dumps(numbers, indent=2) + "\n")
    return numbers


def report(numbers: dict) -> str:
    return (
        f"cost bound:            {numbers['cost_bound']:10d}\n"
        f"closure size:          {numbers['closure_size']:10d}\n"
        f"translate kernel:      {numbers['translate_s'] * 1e3:10.1f} ms\n"
        f"vector (array) kernel: {numbers['vector_s'] * 1e3:10.1f} ms\n"
        f"speedup:               {numbers['speedup']:10.2f} x\n"
        f"(wrote {_JSON_PATH.name})"
    )


@pytest.mark.benchmark
def test_vector_kernel_is_3x_faster_than_translate():
    numbers = measure()
    print("\n" + report(numbers))
    assert numbers["speedup"] >= 3.0, (
        f"vector kernel only {numbers['speedup']:.2f}x faster than the "
        "bytes.translate reference; the vectorized hot path regressed"
    )


if __name__ == "__main__":
    print(report(measure()))
    sys.exit(0)
