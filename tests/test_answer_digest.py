"""Pinned wire bytes of ``execute_query`` answers on a cost-5 store.

Every served answer goes through :func:`repro.server.service.execute_query`,
so its payloads -- successes and structured errors alike -- are the wire
contract of ``repro serve``, ``repro replay`` and the ``--store`` CLI.
This test renders a fixed query set as NDJSON response lines and pins
their sha256.  The query set covers every S8 target of minimal cost
0..5 with the ``all`` / ``allow_not`` / ``cost_bound`` variants, seeded
random targets (most of them beyond the bound), malformed and named specs,
``synth-batch`` chunks mixing all of those, and the cost table.

A changed digest means a served byte changed.  Re-pin it only for an
intentional wire change, never to absorb a refactor's drift.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.search import CascadeSearch
from repro.gates.library import GateLibrary
from repro.io import save_search
from repro.perm.permutation import Permutation
from repro.server.protocol import encode_response, error_payload
from repro.server.service import execute_query, open_store_state

BOUND = 5
#: sha256 of :func:`render_answers` on the cost-5 3-qubit v2 store.
ANSWERS_SHA256 = (
    "7ef7f540cedd2b654c59ab7958c724f86988e9802856d680ef0330a57486a433"
)
ANSWER_COUNT = 13941

#: Malformed specs (structured client errors) and named targets.
MALFORMED = (
    "", " ", "(", "()", "(1,2", "1,2)", "(0,1)", "(1,9)", "(1,1)",
    "(1,2)(2,3)", "(1,,2)", "(a,b)", "(1,2)x", "x", "toffoli", "peres",
    "FREDKIN", "(1, 2)", 5, None, ["(1,2)"],
)
#: Per-target query variants (params beyond the target itself).
VARIANTS = (
    {},
    {"all": True},
    {"allow_not": False},
    {"cost_bound": 4},
    {"all": True, "allow_not": False, "cost_bound": 3},
)


def query_set(batch) -> list[tuple[str, dict]]:
    """The pinned queries, in a fixed order."""
    targets = sorted(
        target.cycle_string()
        for cost in range(batch.cost_bound + 1)
        for target in batch.targets_at_cost(cost, include_not_layers=True)
    )
    rng = random.Random(14)
    seeded = []
    for _ in range(200):
        images = list(range(8))
        rng.shuffle(images)
        seeded.append(Permutation.from_images(images).cycle_string())
    queries: list[tuple[str, dict]] = []
    for spec in targets + seeded:
        for variant in VARIANTS:
            queries.append(("synth", {"target": spec, **variant}))
    for spec in MALFORMED:
        queries.append(("synth", {"target": spec}))
    mixed = list(MALFORMED) + seeded + targets[::7]
    for start in range(0, len(mixed), 32):
        chunk = mixed[start : start + 32]
        queries.append(("synth-batch", {"targets": chunk}))
        queries.append(
            ("synth-batch", {"targets": chunk, "allow_not": False,
                             "cost_bound": 4})
        )
    queries.append(("cost-table", {"include_members": True}))
    queries.append(("cost-table", {"cost_bound": 2}))
    return queries


def render_answers(state) -> tuple[int, str]:
    """``(query count, sha256)`` over the NDJSON lines of every answer."""
    digest = hashlib.sha256()
    queries = query_set(state.batch)
    for i, (op, params) in enumerate(queries):
        try:
            line = encode_response(i, execute_query(state, op, params))
        except Exception as exc:  # noqa: BLE001 -- rendered as the wire does
            error, status = error_payload(exc)
            line = encode_response(i, None, error) + b"%d\n" % status
        digest.update(line)
    return len(queries), digest.hexdigest()


@pytest.fixture(scope="module")
def cost5_state(tmp_path_factory):
    path = tmp_path_factory.mktemp("digest") / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(BOUND)
    save_search(search, path)
    return open_store_state(str(path))


def test_answers_are_byte_identical_to_the_pinned_digest(cost5_state):
    assert render_answers(cost5_state) == (ANSWER_COUNT, ANSWERS_SHA256)
