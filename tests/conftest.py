"""Shared fixtures: expensive objects built once per test session.

The cascade search and FMCF closures are deterministic and immutable
once extended, so sharing them across tests is safe and keeps the suite
fast (the full cost-7 closure alone visits ~6.9e5 permutations).

Marker convention (registered in pyproject.toml):

* ``slow`` -- multi-second tests (exhaustive sweeps, end-to-end example
  scripts).  Deselected by the default ``addopts``; run them with
  ``pytest -m slow`` or everything with ``pytest --override-ini addopts=``.
* ``benchmark`` -- timing-sensitive performance assertions (the
  ``benchmarks/`` harness).  Same treatment, so a loaded CI machine
  cannot flake the functional tier.
"""

from __future__ import annotations

import pytest

from repro.baselines.nct import NCTLibrary, NCTSynthesizer
from repro.core.fmcf import find_minimum_cost_circuits
from repro.core.search import CascadeSearch
from repro.gates.library import GateLibrary
from repro.mvl.labels import label_space


@pytest.fixture(scope="session")
def space3():
    """The paper's reduced 38-label space for 3 qubits."""
    return label_space(3, reduced=True)


@pytest.fixture(scope="session")
def space3_full():
    return label_space(3, reduced=False)


@pytest.fixture(scope="session")
def space2_full():
    """The 16-label space of Table 1."""
    return label_space(2, reduced=False)


@pytest.fixture(scope="session")
def library3():
    """The paper's 18-gate library on 3 qubits."""
    return GateLibrary(3)


@pytest.fixture(scope="session")
def library2():
    return GateLibrary(2)


@pytest.fixture(scope="session")
def search3(library3):
    """A shared parent-tracking search; tests extend it as needed."""
    return CascadeSearch(library3, track_parents=True)


@pytest.fixture(scope="session")
def batch3(search3):
    """Batch synthesis index over the shared closure at the paper's cb = 7."""
    from repro.core.batch import BatchSynthesizer

    return BatchSynthesizer(search3, cost_bound=7)


@pytest.fixture(scope="session")
def cost_table5(library3, search3):
    """FMCF to cost 5 (covers Toffoli); fast."""
    return find_minimum_cost_circuits(library3, cost_bound=5, search=search3)


@pytest.fixture(scope="session")
def cost_table7(library3, search3):
    """The paper's full cb = 7 table."""
    return find_minimum_cost_circuits(library3, cost_bound=7, search=search3)


@pytest.fixture(scope="session")
def nct_synthesizer():
    """Complete optimal-NCT BFS table on 3 wires (40320 functions)."""
    return NCTSynthesizer(NCTLibrary(3))


@pytest.fixture(scope="session")
def legacy_parallel_store():
    """Rewrite a v2 store blob the way the former ``parallel`` kernel wrote it.

    Stores built by that kernel carry ``kernel: "parallel"`` and a
    recorded ``shards`` block in their header.  The header sits outside
    the payload checksum, so only the header changes; the returned
    callable maps ``(blob, shard_bits=6)`` to the legacy blob.
    """
    from dataclasses import replace

    import numpy as np

    from repro.core.dedup import shard_of
    from repro.core.kernel import hash_rows, pack_rows
    from repro.core.store import _frame_header, _parse_frame

    def rewrite(blob: bytes, shard_bits: int = 6) -> bytes:
        header, start = _parse_frame(blob)
        offset, length = header.sections["perms"]
        perms = np.frombuffer(
            blob, dtype=np.uint8, count=length, offset=start + offset
        ).reshape(-1, header.degree)
        hashes = hash_rows(pack_rows(perms, header.degree))
        counts = np.bincount(
            shard_of(hashes, shard_bits), minlength=1 << shard_bits
        )
        peak = int(counts.max())
        shards = {
            "shard_bits": shard_bits,
            "slab_slots": 1 << max(8, (4 * peak - 1).bit_length()),
            "rows_per_shard": [int(c) for c in counts],
            "spilled": False,
        }
        legacy = replace(header, kernel="parallel", shards=shards)
        return _frame_header(legacy) + blob[start:]

    return rewrite

