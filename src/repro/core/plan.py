"""Resource planning for precompute runs (``repro plan``).

Sizing a large expansion takes operator guesswork: how many
``--shard-bits``, how big a ``--dedup-budget`` before the sharded dedup
table spills?  The answers are mechanical -- they follow from the
available RAM and the projected closure size -- so this module computes
them.

The sizing rules (also documented in ``docs/architecture.md``):

* **rows** -- projected |A[cost_bound]|.  With a store header, the
  recorded ``level_sizes`` are extrapolated past the stored bound at
  the last observed level-growth ratio; without one, the paper's
  3-qubit closure sizes seed the projection.
* **shard_bits** -- the smallest bits giving per-shard slabs no bigger
  than :data:`SLAB_TARGET_BYTES` (so one shard's table stays cache- and
  spill-friendly), clamped to ``MAX_SHARD_BITS``.  Slab slots mirror
  the dedup table's rule: the next power of two holding the projected
  peak shard at load factor <= 1/4.  A store that recorded its shard
  layout contributes its observed skew (peak / mean rows per shard).
* **dedup budget** -- the full table size when it fits in half the
  available RAM (no spill), else half the available RAM (the table
  spills its slabs to disk).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.core.dedup import MAX_SHARD_BITS

#: Upper bound on one shard's slab bytes before we add shard bits.
SLAB_TARGET_BYTES = 16 << 20

#: Bytes per dedup-table slot (one uint64 word).
_SLOT_BYTES = 8

#: The paper's 3-qubit cumulative closure sizes |A[k]| (cb = 7) -- the
#: default projection seed when no store header is available.
_DEFAULT_A_SIZES = (1, 19, 181, 1198, 6562, 32323, 151211, 689402)


def available_memory_bytes() -> int | None:
    """Best-effort available RAM: MemAvailable, else total RAM, else None."""
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page > 0:
            return pages * page
    except (ValueError, OSError, AttributeError):
        pass
    return None


def project_rows(
    cost_bound: int,
    level_sizes: tuple[int, ...] = (),
    degree: int | None = None,
) -> int:
    """Projected |A[cost_bound]| from known level sizes.

    Levels past the known ones grow at the last observed ratio
    ``|B[k]| / |B[k-1]|`` (clamped to >= 1).  With fewer than two known
    levels the paper's 3-qubit table seeds the projection -- but only
    for the binary 8-label space it describes (*degree* ``None`` or 8);
    an MV store's digit space (``radix**width`` labels) gets a generic
    geometric seed instead.  For an explicit MV *degree* the projection
    is additionally capped at ``degree!``: the closure is a set of label
    permutations and cannot outgrow the symmetric group.
    """
    sizes = [int(s) for s in level_sizes if int(s) > 0]
    limit = None
    if degree is not None and degree != 8 and degree <= 20:
        limit = math.factorial(degree)
    if len(sizes) < 2:
        if degree in (None, 8):
            known = list(_DEFAULT_A_SIZES)
            if cost_bound + 1 <= len(known):
                return known[cost_bound]
            sizes = [known[0]] + [
                known[k] - known[k - 1] for k in range(1, len(known))
            ]
        else:
            # No store data and no paper table for this label space:
            # seed with the identity level and a degree-sized first
            # level, growing geometrically (a deliberate overestimate;
            # the factorial cap keeps it honest for small spaces).
            sizes = [1, max(int(degree), 2)]
    total = sum(sizes)
    ratio = max(sizes[-1] / sizes[-2], 1.0)
    last = float(sizes[-1])
    for _ in range(cost_bound + 1 - len(sizes)):
        last *= ratio
        total += int(last)
        if limit is not None and total >= limit:
            return limit
    if limit is not None:
        return min(int(total), limit)
    return int(total)


def _slab_slots(peak_rows: int) -> int:
    """Slots per shard slab at load <= 1/4 (the dedup table's rule)."""
    return 1 << max(8, (4 * max(peak_rows, 1) - 1).bit_length())


@dataclass(frozen=True)
class ResourcePlan:
    """A sized precompute run: the flags plus the numbers behind them."""

    cost_bound: int
    shard_bits: int
    dedup_budget_bytes: int
    projected_rows: int
    table_bytes: int
    memory_bytes: int | None
    spills: bool
    notes: tuple[str, ...]

    @property
    def dedup_budget_text(self) -> str:
        """The budget as a CLI-ready ``--dedup-budget`` spelling."""
        budget = self.dedup_budget_bytes
        for unit, scale in (("G", 1 << 30), ("M", 1 << 20), ("K", 1 << 10)):
            if budget >= scale and budget % scale == 0:
                return f"{budget // scale}{unit}"
        return str(budget)

    def command(self, store: str = "closure.rpro") -> str:
        """A ready-to-paste ``repro precompute`` invocation."""
        return (
            f"repro precompute {store} --cost-bound {self.cost_bound} "
            f"--shard-bits {self.shard_bits} "
            f"--dedup-budget {self.dedup_budget_text}"
        )

    def as_dict(self) -> dict:
        return {
            "cost_bound": self.cost_bound,
            "shard_bits": self.shard_bits,
            "dedup_budget_bytes": self.dedup_budget_bytes,
            "dedup_budget": self.dedup_budget_text,
            "projected_rows": self.projected_rows,
            "table_bytes": self.table_bytes,
            "memory_bytes": self.memory_bytes,
            "spills": self.spills,
            "notes": list(self.notes),
            "command": self.command(),
        }


def plan_resources(
    cost_bound: int,
    header=None,
    memory_bytes: int | None = None,
) -> ResourcePlan:
    """Size ``--shard-bits``/``--dedup-budget`` for a run.

    Args:
        cost_bound: the closure bound being planned.
        header: an optional :class:`~repro.core.store.StoreHeader` of an
            existing store -- its level sizes seed the row projection
            and its recorded shard layout contributes observed skew.
        memory_bytes: override detected available RAM (tests, or
            operators planning for a different machine).
    """
    notes: list[str] = []
    level_sizes: tuple[int, ...] = ()
    degree: int | None = None
    skew = 1.0
    if header is not None:
        level_sizes = tuple(header.level_sizes)
        radix = getattr(header, "radix", 2)
        if radix != 2:
            degree = radix**header.n_qubits
            notes.append(
                f"radix-{radix} store: projecting over "
                f"{degree} digit labels"
            )
        notes.append(
            f"projection seeded by a bound-{header.expanded_to} store"
        )
        shards = getattr(header, "shards", None) or {}
        rows_per_shard = shards.get("rows_per_shard") or []
        if rows_per_shard and sum(rows_per_shard):
            mean = sum(rows_per_shard) / len(rows_per_shard)
            skew = max(1.0, max(rows_per_shard) / max(mean, 1.0))
            notes.append(
                f"shard skew x{skew:.2f} observed in the store layout"
            )
    else:
        notes.append("projection seeded by the paper's 3-qubit closure")

    rows = project_rows(cost_bound, level_sizes, degree)

    if memory_bytes is None:
        memory_bytes = available_memory_bytes()

    bits = 0
    while bits < MAX_SHARD_BITS:
        peak = int(rows / (1 << bits) * skew) + 1
        if _slab_slots(peak) * _SLOT_BYTES <= SLAB_TARGET_BYTES:
            break
        bits += 1
    n_shards = 1 << bits
    peak = int(rows / n_shards * skew) + 1
    table_bytes = n_shards * _slab_slots(peak) * _SLOT_BYTES

    if memory_bytes is None:
        budget = table_bytes
        spills = False
        notes.append("available RAM unknown; budgeting the full table")
    elif table_bytes <= memory_bytes // 2:
        budget = table_bytes
        spills = False
        notes.append("table fits in half the available RAM; no spill")
    else:
        budget = memory_bytes // 2
        spills = True
        notes.append(
            "table exceeds half the available RAM; slabs spill to disk"
        )

    return ResourcePlan(
        cost_bound=cost_bound,
        shard_bits=bits,
        dedup_budget_bytes=budget,
        projected_rows=rows,
        table_bytes=table_bytes,
        memory_bytes=memory_bytes,
        spills=spills,
        notes=tuple(notes),
    )
