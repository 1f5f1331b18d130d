"""The reasonable-product cascade search (shared FMCF/MCE engine).

This is the computational heart of the paper: a layered breadth-first
closure over cascades of library gates, where a gate may extend a cascade
``f`` only when ``f(S)`` avoids the gate's banned set (Definition 1's
*reasonable product*).  Levels are indexed by accumulated quantum cost, so
with non-unit cost models the search is a Dijkstra-style layered
expansion; with the paper's unit costs it degenerates to plain BFS and the
level sets are exactly the paper's ``B[k]`` (and their union ``A[k]``).

Two interchangeable kernels drive the expansion:

* ``kernel="vector"`` (default): the array engine of
  :mod:`repro.core.kernel`, run inline -- levels are contiguous uint8
  arrays, a gate application is one mask filter plus one fancy-indexing
  composition, provable duplicates are pruned by the relation filter
  before composing, and dedup runs through a sharded table that can
  spill to disk and checkpoint.  Its tunables (shard bits, dedup memory
  budget, checkpoint directory) arrive via ``kernel_options``.  This is
  several times faster than the byte-level loop and is the
  representation the v2 closure store serializes directly.
* ``kernel="translate"``: the original pure-Python loop (one
  ``bytes.translate`` per candidate, dict-based dedup), kept as the
  reference implementation, test oracle and benchmark baseline
  (``benchmarks/bench_kernel.py``).

Both kernels produce identical levels in identical discovery order with
identical parent pointers; ``tests/test_kernels.py`` and
``tests/test_parallel.py`` pin that equivalence.  Optional parent
pointers give O(cost) witness extraction for MCE, and row-based
accessors (:meth:`CascadeSearch.perm_bytes_at`,
:meth:`CascadeSearch.witness_indices_for_row`) let index-serving layers
avoid byte-level lookups entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.errors import InvalidValueError
from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.gates.library import GateLibrary
from repro.perm.permutation import Permutation

try:  # numpy is a core dependency, but the translate kernel works without
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None

#: Kernel names accepted by :class:`CascadeSearch`.
KERNELS = ("vector", "translate")
#: ``kernel_options`` keys; all tune the vector engine's dedup table.
_KERNEL_OPTIONS = ("shard_bits", "memory_budget", "checkpoint_dir")
#: Removed kernel names and options, with what replaces them.
_REMOVED = {
    "parallel": "kernel 'parallel' was removed; use kernel='vector', "
    "which runs the same relation-filtered, sharded pipeline inline",
    "jobs": "kernel option 'jobs' was removed with the worker pool; the "
    "vector kernel expands inline (size it with 'shard_bits' and "
    "'memory_budget')",
    "relation_filter": "kernel option 'relation_filter' was removed; the "
    "filter is always on and never changes results (kernel='translate' "
    "is the unfiltered reference)",
}


def _check_kernel(kernel: str, kernel_options: dict | None) -> dict:
    """Validate a kernel name and its options; returns the options."""
    if kernel in _REMOVED:
        raise InvalidValueError(_REMOVED[kernel])
    if kernel not in KERNELS:
        raise InvalidValueError(
            f"unknown kernel {kernel!r}; pick one of {KERNELS}"
        )
    options = dict(kernel_options or {})
    for key in options:
        if key in _REMOVED:
            raise InvalidValueError(_REMOVED[key])
        if key not in _KERNEL_OPTIONS:
            raise InvalidValueError(
                f"unknown kernel option {key!r}; the accepted keys are "
                f"{_KERNEL_OPTIONS}"
            )
    return options


@dataclass(frozen=True)
class SearchState:
    """Complete byte-level snapshot of an expanded :class:`CascadeSearch`.

    This is the legacy export surface consumed by the v1 closure store
    (:mod:`repro.core.store`): everything the search accumulated --
    level sets, S-image masks, parent pointers -- without any of the
    library-derived data that is cheaper to rebuild than to ship.  The
    array-backed sibling used by the v2 store is :class:`SearchArrays`.

    Attributes:
        expanded_to: highest fully-computed cost level.
        levels: ``levels[k]`` is the B[k] level as a tuple of
            ``(permutation bytes, S-image mask)`` pairs in discovery
            order; empty levels (possible with non-unit cost models) are
            present as empty tuples.
        parents: one ``perm -> (predecessor perm, library gate index)``
            entry per non-identity permutation, or None when the search
            was counting-only (``track_parents=False``).
        elapsed_seconds: accumulated expansion wall time.
    """

    expanded_to: int
    levels: tuple[tuple[tuple[bytes, int], ...], ...]
    parents: dict[bytes, tuple[bytes, int]] | None
    elapsed_seconds: float

    @property
    def total_seen(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)


@dataclass
class SearchArrays:
    """Array-backed snapshot of an expanded search (the v2 store form).

    Rows appear in level-major discovery order, so a row index is the
    permutation's *global index*; level ``k`` occupies rows
    ``level_offsets[k]:level_offsets[k+1]``.  All arrays may be plain
    ndarrays or read-only ``np.memmap`` views -- treat them as immutable.

    Attributes:
        expanded_to: highest fully-computed cost level.
        degree: label-space size (row width of *perms*).
        n_binary: number of binary labels (the paper's set S).
        mask_words: uint64 words per S-image mask row.
        level_offsets: ``(expanded_to + 2,)`` int64 row offsets.
        perms: ``(n, degree)`` uint8 image arrays.
        masks: ``(n, mask_words)`` uint64 S-image masks.
        parents: ``(n,)`` int32 parent global rows (row 0 = -1), or None
            for counting-only closures.
        gates: ``(n,)`` int32 appended-gate indices (row 0 = -1), or
            None alongside *parents*.
        elapsed_seconds: accumulated expansion wall time.
    """

    expanded_to: int
    degree: int
    n_binary: int
    mask_words: int
    level_offsets: "_np.ndarray"
    perms: "_np.ndarray"
    masks: "_np.ndarray"
    parents: "_np.ndarray | None"
    gates: "_np.ndarray | None"
    elapsed_seconds: float

    @property
    def n_rows(self) -> int:
        return int(self.level_offsets[-1])

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(
            int(self.level_offsets[k + 1] - self.level_offsets[k])
            for k in range(self.expanded_to + 1)
        )

    def level_rows(self, cost: int) -> tuple[int, int]:
        """``(start, stop)`` global-row range of one level."""
        return int(self.level_offsets[cost]), int(self.level_offsets[cost + 1])


@dataclass(frozen=True)
class SearchStats:
    """Size/timing snapshot of an expanded search."""

    cost_bound: int
    level_sizes: tuple[int, ...]
    total_seen: int
    elapsed_seconds: float

    @property
    def a_sizes(self) -> tuple[int, ...]:
        """Cumulative sizes |A[k]| = |B[0]| + ... + |B[k]|."""
        out = []
        acc = 0
        for size in self.level_sizes:
            acc += size
            out.append(acc)
        return tuple(out)


class CascadeSearch:
    """Incremental layered closure over reasonable cascades.

    Args:
        library: gate library to search over.
        cost_model: integer gate costs (default: the paper's unit model).
        track_parents: keep one predecessor pointer per discovered
            permutation, enabling :meth:`witness_circuit`.  Costs memory
            proportional to the closure size; disable for counting-only
            runs such as Table 2.
        kernel: ``"vector"`` (the array engine, default) or
            ``"translate"`` (the reference pure-Python loop).  Both
            produce identical closures; see the module docstring.
        kernel_options: tunables for the vector engine --
            ``shard_bits``, ``memory_budget``, ``checkpoint_dir`` (see
            :class:`repro.core.kernel.VectorEngine`).  Ignored by the
            translate kernel; any other key raises
            :class:`~repro.errors.InvalidValueError`.
    """

    def __init__(
        self,
        library: GateLibrary,
        cost_model: CostModel = UNIT_COST,
        track_parents: bool = True,
        kernel: str = "vector",
        kernel_options: dict | None = None,
    ):
        self._kernel_options = _check_kernel(kernel, kernel_options)
        if kernel == "vector" and _np is None:
            kernel = "translate"
        self._library = library
        self._cost_model = cost_model
        self._track_parents = track_parents
        self._kernel = kernel
        space = library.space
        self._degree = space.size
        self._n_binary = space.n_binary
        self._s_mask = space.s_mask
        self._identity = bytes(range(self._degree))
        # Hot-path gate rows for the translate kernel:
        # (translate table, banned mask, cost, index).
        self._rows = tuple(
            (
                entry.table,
                entry.banned_mask,
                cost_model.gate_cost(entry.gate.kind),
                entry.index,
            )
            for entry in library.gates
        )
        self._expanded_to = 0
        self._elapsed = 0.0
        self._restored = False
        self._frozen = False
        self._attached_index: tuple[int, dict] | None = None
        # Optional progress sink (duck-typed ProgressReporter),
        # forwarded onto whichever engine runs the expansion.
        self._progress = None

        # Byte-level (legacy) form: complete for translate-kernel
        # searches, per-level lazy cache otherwise.
        self._level_cache: dict[int, list[tuple[bytes, int]]] = {}
        self._seen: dict[bytes, int] | None = None
        self._parents: dict[bytes, tuple[bytes, int]] | None = None
        # Array form: the vector engine (authoritative when present) or
        # a raw SearchArrays snapshot (store-loaded, possibly memmapped).
        self._engine = None
        self._raw: SearchArrays | None = None

        if kernel == "translate":
            self._seen = {self._identity: 0}
            self._level_cache[0] = [
                (self._identity, self._mask_of(self._identity))
            ]
            self._parents = {} if track_parents else None
        else:
            self._engine = self._new_engine()
            self._engine.seed_identity()
            if self._kernel_options.get("checkpoint_dir"):
                resumed = self._engine.try_resume()
                if resumed:
                    self._expanded_to = resumed
                    self._restored = True

    # -- infrastructure ----------------------------------------------------------------

    def _gate_rows(self):
        from repro.core.kernel import GateRows, mask_word_count

        inverse = []
        for entry in self._library.gates:
            try:
                inverse.append(self._library.adjoint_entry(entry).index)
            except Exception:
                inverse.append(-1)
        return GateRows(
            [row[0] for row in self._rows],
            [row[1] for row in self._rows],
            [row[2] for row in self._rows],
            inverse,
            mask_words=mask_word_count(self._degree),
        )

    def _new_engine(self):
        from repro.core.kernel import VectorEngine

        # A translate search only builds an engine for array exports;
        # its (ignored) options must not open checkpoints or spill.
        options = self._kernel_options if self._kernel == "vector" else {}
        provenance = None
        if options.get("checkpoint_dir"):
            from repro.core.store import (
                cost_model_fingerprint,
                library_fingerprint,
            )

            provenance = {
                "library_fingerprint": library_fingerprint(self._library),
                "cost_fingerprint": cost_model_fingerprint(self._cost_model),
            }
        return VectorEngine(
            self._degree,
            self._n_binary,
            self._gate_rows(),
            track_parents=self._track_parents,
            provenance=provenance,
            **options,
        )

    def _mask_of(self, perm: bytes) -> int:
        """Bitmask of the images of the binary labels under *perm*."""
        mask = 0
        for image in perm[: self._n_binary]:
            mask |= 1 << image
        return mask

    @property
    def library(self) -> GateLibrary:
        return self._library

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    @property
    def expanded_to(self) -> int:
        """Highest cost level fully computed so far."""
        return self._expanded_to

    @property
    def tracks_parents(self) -> bool:
        return self._track_parents

    @property
    def kernel(self) -> str:
        """The expansion kernel this search uses."""
        return self._kernel

    def set_progress(self, reporter) -> None:
        """Attach a progress reporter (or detach with ``None``).

        The reporter (duck-typed
        :class:`~repro.telemetry.ProgressReporter`) receives
        level-start/level-end events from :meth:`extend_to` and
        plan/generate/commit (plus spill/checkpoint) events from the
        array engine.  Expansion results are byte-identical with or
        without one attached.
        """
        self._progress = reporter
        if self._engine is not None:
            self._engine.progress = reporter

    def use_kernel(self, kernel: str, kernel_options: dict | None = None) -> None:
        """Switch the expansion kernel for future :meth:`extend_to` calls.

        Either kernel can pick up a closure the other one built -- the
        byte-level and array forms convert lazily -- so switching is
        cheap until the next expansion actually runs.  *kernel_options*
        replaces the vector-engine tunables when given; a live engine
        built under other options is replayed into a fresh one on the
        next expansion.
        """
        if self._frozen:
            from repro.errors import FrozenSearchError

            raise FrozenSearchError(
                "search is frozen for serving; kernels cannot be switched"
            )
        options = _check_kernel(kernel, kernel_options)
        if kernel == "vector" and _np is None:
            raise InvalidValueError("the vector kernel needs numpy")
        self._kernel = kernel
        if kernel_options is not None and options != self._kernel_options:
            self._kernel_options = options
            if self._engine is not None:
                self._raw = self.export_arrays()
                self._engine.close()
                self._engine = None

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has pinned this search for serving."""
        return self._frozen

    def freeze(self) -> "CascadeSearch":
        """Pin the closure for concurrent read-only serving.

        The long-lived service (:mod:`repro.server`) hands one search to
        a pool of worker threads.  Most query accessors only read state
        that never changes after expansion -- the engine's arrays, a
        store's memory-mapped :class:`SearchArrays`, the byte-level
        level lists -- but a few paths *build* that state lazily on
        first touch (:meth:`_ensure_level_lists`,
        :meth:`_ensure_seen`, :meth:`_ensure_parents_dict`,
        :meth:`_ensure_engine`), and :meth:`extend_to` /
        :meth:`use_kernel` mutate it outright.  ``freeze()`` makes the
        concurrency contract explicit:

        * every lazily-built structure the query paths can touch is
          materialized *now*, on the calling thread -- for a
          store-loaded (array-backed) search this is a no-op beyond a
          handful of cheap probes, for a translate-kernel search it
          materializes the byte-level dictionaries;
        * mutating operations (:meth:`extend_to` beyond the expanded
          bound, :meth:`use_kernel`, :meth:`attach_remainder_index`)
          raise :class:`~repro.errors.FrozenSearchError` afterwards.

        After ``freeze()`` returns, these methods are safe to call from
        any number of threads concurrently: :meth:`perm_bytes_at`,
        :meth:`cost_of_row`, :meth:`witness_indices_for_row`,
        :meth:`witness_indices`, :meth:`witness_circuit`,
        :meth:`find_matching_rows`, :meth:`s_fixing_rows`,
        :meth:`cost_of`, :meth:`level`, :meth:`level_size`,
        :meth:`total_seen` and :meth:`stats` (all for costs within the
        frozen bound).  Returns ``self`` for chaining.
        """
        if self._frozen:
            return self
        if self._engine is None and self._raw is None:
            # Byte-level (translate) search: the witness and lookup
            # paths run through the seen/parents dictionaries.
            self._ensure_level_lists(self._expanded_to)
            self._ensure_seen()
            if self._track_parents:
                self._ensure_parents_dict()
        # Level starts and stats tables are pure reads for the array
        # forms; touch them once so any one-off conversion cost (and any
        # latent inconsistency) surfaces here instead of mid-query.
        self.stats()
        for cost in range(self._expanded_to + 1):
            self._level_start(cost)
        self._frozen = True
        return self

    def shard_layout(self) -> dict | None:
        """The live dedup-shard layout, while an array engine holds the closure.

        ``None`` for translate-kernel and store-loaded searches.  Stores
        do not record it: `repro store shards --bits` projects the same
        layout from the stored rows.
        """
        if self._engine is None:
            return None
        return self._engine.dedup_table.layout()

    @property
    def was_restored(self) -> bool:
        """True when this search was rebuilt from a snapshot or store.

        A restored search expanded to level 0 represents a deliberate
        bound of 0, unlike a fresh level-0 search that simply has not
        been extended yet -- :class:`~repro.core.batch.BatchSynthesizer`
        uses the distinction to pick its default bound.
        """
        return self._restored

    # -- form conversions --------------------------------------------------------------

    def _ensure_level_lists(self, up_to: int) -> None:
        """Materialize the byte-level cache for levels ``0..up_to``."""
        for cost in range(up_to + 1):
            if cost not in self._level_cache:
                self._level_cache[cost] = self._build_level_list(cost)

    def _build_level_list(self, cost: int) -> list[tuple[bytes, int]]:
        from repro.core.kernel import mask_words_to_int
        from repro.perm.permutation import unpack_images

        perms, masks = self._level_arrays(cost)
        if perms is None:
            return []
        images = unpack_images(perms)
        if masks.shape[1] == 1:
            ints = masks[:, 0].tolist()
        else:
            ints = [mask_words_to_int(row) for row in masks]
        return list(zip(images, ints))

    def _level_arrays(self, cost: int):
        """``(perms (n, degree) u8, masks (n, W) u64)`` for one level."""
        if self._engine is not None:
            return (
                self._engine.level_perms_raw(cost),
                self._engine.level_masks[cost],
            )
        if self._raw is not None and cost <= self._raw.expanded_to:
            start, stop = self._raw.level_rows(cost)
            return self._raw.perms[start:stop], self._raw.masks[start:stop]
        if _np is not None and cost in self._level_cache:
            from repro.core.kernel import compute_masks, mask_word_count
            from repro.perm.permutation import pack_images

            level = self._level_cache[cost]
            perms = pack_images(
                [perm for perm, _mask in level], self._degree
            )
            masks = compute_masks(
                perms, self._n_binary, mask_word_count(self._degree)
            )
            return perms, masks
        return None, None

    def _ensure_seen(self) -> dict[bytes, int]:
        if self._seen is None:
            self._ensure_level_lists(self._expanded_to)
            seen: dict[bytes, int] = {}
            for cost in range(self._expanded_to + 1):
                for perm, _mask in self._level_cache[cost]:
                    seen[perm] = cost
            self._seen = seen
        return self._seen

    def _ensure_parents_dict(self) -> dict[bytes, tuple[bytes, int]]:
        if self._parents is None:
            if not self._track_parents:
                raise InvalidValueError(
                    "search was built with track_parents=False; no witnesses"
                )
            self._ensure_level_lists(self._expanded_to)
            by_row: list[bytes] = []
            for cost in range(self._expanded_to + 1):
                by_row.extend(p for p, _m in self._level_cache[cost])
            parents: dict[bytes, tuple[bytes, int]] = {}
            row = 0
            for cost in range(self._expanded_to + 1):
                for perm, _mask in self._level_cache[cost]:
                    if row:
                        parent_row, gate_index = self._parent_of_row(row)
                        parents[perm] = (by_row[parent_row], gate_index)
                    row += 1
            self._parents = parents
        return self._parents

    def _ensure_engine(self):
        """Materialize the vector engine (pads rows, builds the table)."""
        if self._engine is not None:
            return self._engine
        if self._frozen:
            from repro.errors import FrozenSearchError

            raise FrozenSearchError(
                "search is frozen for serving; materializing the vector "
                "engine now would race against concurrent readers"
            )
        if _np is None:
            raise InvalidValueError(
                "the vector engine needs numpy; this search can only use "
                "the translate kernel"
            )
        engine = self._new_engine()
        if self._raw is not None:
            raw = self._raw
            for cost in range(raw.expanded_to + 1):
                start, stop = raw.level_rows(cost)
                engine.load_level(
                    raw.perms[start:stop],
                    raw.masks[start:stop],
                    raw.parents[start:stop] if raw.parents is not None else None,
                    raw.gates[start:stop] if raw.gates is not None else None,
                )
            # The engine copied everything out of the snapshot; drop the
            # raw reference so a memory-mapped store file is no longer
            # pinned (re-saving over it must work on every platform).
            self._raw = None
        else:
            self._ensure_level_lists(self._expanded_to)
            from repro.perm.permutation import pack_images

            row_of: dict[bytes, int] = {}
            for cost in range(self._expanded_to + 1):
                level = self._level_cache[cost]
                for perm, _mask in level:
                    row_of[perm] = len(row_of)
                perms = pack_images([p for p, _m in level], self._degree)
                parents = gates = None
                if self._parents is not None and cost > 0:
                    parents = _np.empty(len(level), dtype=_np.int32)
                    gates = _np.empty(len(level), dtype=_np.int32)
                    for i, (perm, _mask) in enumerate(level):
                        parent, gate_index = self._parents[perm]
                        parents[i] = row_of[parent]
                        gates[i] = gate_index
                engine.load_level(perms, None, parents, gates)
        self._engine = engine
        return engine

    def close(self) -> None:
        """Release spill and checkpoint files held by the vector engine.

        Spilled dedup slabs are unmapped (a temporary spill directory is
        removed) and checkpoint slabs are unmapped (the checkpoint
        directory itself stays, for a later resume).  With the default
        RAM-resident dedup table, level reads, lookups, witness walks
        and further :meth:`extend_to` calls keep working after
        closing; on a spilled or checkpointed table, exact row lookups
        (:meth:`cost_of` by permutation) raise a clean
        :class:`~repro.errors.InvalidValueError`.  A no-op for the
        translate kernel and store-loaded searches; idempotent.
        """
        if self._engine is not None:
            self._engine.close()

    # -- expansion ---------------------------------------------------------------------

    def extend_to(self, cost_bound: int) -> None:
        """Ensure all levels up to *cost_bound* are computed."""
        if cost_bound < 0:
            raise InvalidValueError("cost bound must be non-negative")
        if cost_bound <= self._expanded_to:
            return
        if self._frozen:
            from repro.errors import FrozenSearchError

            raise FrozenSearchError(
                f"search is frozen for serving at cost bound "
                f"{self._expanded_to}; cannot extend to {cost_bound}"
            )
        started = perf_counter()
        progress = self._progress
        if self._kernel == "vector":
            engine = self._ensure_engine()
            engine.progress = progress
            for cost in range(self._expanded_to + 1, cost_bound + 1):
                if progress is not None:
                    progress.emit("level-start", level=cost)
                    level_started = perf_counter()
                engine.expand_level(cost)
                self._expanded_to = cost
                if progress is not None:
                    progress.emit(
                        "level-end",
                        level=cost,
                        size=int(engine.level_size(cost)),
                        rows=int(engine.n_rows),
                        elapsed_s=round(perf_counter() - level_started, 6),
                    )
            # Byte-level dicts (a from_state restore or an earlier
            # translate run) no longer cover the new levels; drop them
            # so queries rebuild from the engine instead of silently
            # missing the extension.
            self._seen = None
            self._parents = None
        else:
            self._extend_translate(cost_bound)
        # An attached store index only describes the pre-extension
        # closure file; release it (and its memmap pin) -- it is
        # rebuilt from the arrays on the next BatchSynthesizer.
        self._attached_index = None
        self._elapsed += perf_counter() - started

    def _extend_translate(self, cost_bound: int) -> None:
        """The reference byte-level kernel (the seed implementation)."""
        self._ensure_level_lists(self._expanded_to)
        seen = self._ensure_seen()
        if self._track_parents:
            parents = self._ensure_parents_dict()
        else:
            parents = None
        # Extending through the byte-level path invalidates any array
        # form; it is rebuilt on demand.
        self._engine = None
        self._raw = None
        progress = self._progress
        for cost in range(self._expanded_to + 1, cost_bound + 1):
            if progress is not None:
                progress.emit("level-start", level=cost)
                level_started = perf_counter()
            frontier: list[tuple[bytes, int]] = []
            for table, banned, gate_cost, gate_index in self._rows:
                source = self._level_cache.get(cost - gate_cost)
                if not source:
                    continue
                for perm, mask in source:
                    if mask & banned:
                        continue
                    product = perm.translate(table)
                    if product in seen:
                        continue
                    seen[product] = cost
                    frontier.append((product, self._mask_of(product)))
                    if parents is not None:
                        parents[product] = (perm, gate_index)
            self._level_cache[cost] = frontier
            self._expanded_to = cost
            if progress is not None:
                progress.emit(
                    "level-end",
                    level=cost,
                    size=len(frontier),
                    rows=len(seen),
                    elapsed_s=round(perf_counter() - level_started, 6),
                )

    # -- queries -----------------------------------------------------------------------

    def level(self, cost: int) -> list[tuple[bytes, int]]:
        """The ``B[cost]`` level: list of (permutation bytes, S-image mask).

        Expands the search on demand.
        """
        if cost > self._expanded_to:
            self.extend_to(cost)
        cached = self._level_cache.get(cost)
        if cached is None:
            cached = self._build_level_list(cost)
            self._level_cache[cost] = cached
        return cached

    def level_size(self, cost: int) -> int:
        if cost > self._expanded_to:
            self.extend_to(cost)
        if self._engine is not None:
            return self._engine.level_size(cost)
        if self._raw is not None and cost <= self._raw.expanded_to:
            start, stop = self._raw.level_rows(cost)
            return stop - start
        return len(self._level_cache.get(cost, ()))

    def total_seen(self) -> int:
        """|A[expanded_to]|: all distinct cascade permutations found."""
        if self._engine is not None:
            return self._engine.n_rows
        if self._raw is not None:
            return self._raw.n_rows
        return len(self._ensure_seen())

    def cost_of(self, perm: bytes | Permutation) -> int | None:
        """Minimal cost of a full label permutation, if discovered so far."""
        key = perm.images if isinstance(perm, Permutation) else bytes(perm)
        if len(key) != self._degree:
            return None
        if self._seen is not None:
            return self._seen.get(key)
        row = self._find_row(key)
        return None if row < 0 else self._level_of_row(row)

    def _find_row(self, key: bytes) -> int:
        if self._engine is None and self._raw is not None:
            # Store-loaded search: a vectorized scan, level by level,
            # instead of copying the whole closure into an engine hash
            # table.  O(n) per call, but it keeps the lazy open lazy --
            # levels are fetched through the store's row accessors (for
            # a v3 store, one decompressed chunk at a time through the
            # section cache) -- and it never mutates, so frozen searches
            # can serve cost_of() concurrently.
            wanted = _np.frombuffer(key, dtype=_np.uint8)
            raw = self._raw
            for cost in range(raw.expanded_to + 1):
                start, stop = raw.level_rows(cost)
                if start == stop:
                    continue
                level = raw.perms[start:stop]
                hits = _np.flatnonzero(
                    (level == wanted[None, :]).all(axis=1)
                )
                if hits.size:
                    return start + int(hits[0])
            return -1
        engine = self._ensure_engine()
        return engine.find_row(key)

    def _level_of_row(self, row: int) -> int:
        if self._engine is not None:
            return self._engine.level_of_row(row)
        import bisect

        return bisect.bisect_right(self._raw.level_offsets.tolist(), row) - 1

    @property
    def s_mask(self) -> int:
        """The mask identifying binary-preserving cascades (b(S) = S)."""
        return self._s_mask

    def stats(self) -> SearchStats:
        return SearchStats(
            cost_bound=self._expanded_to,
            level_sizes=tuple(
                self.level_size(c) for c in range(self._expanded_to + 1)
            ),
            total_seen=self.total_seen(),
            elapsed_seconds=self._elapsed,
        )

    # -- row-based accessors (index-serving layers) ------------------------------------

    def n_rows(self) -> int:
        """Total rows (= :meth:`total_seen`), for row-based consumers."""
        return self.total_seen()

    def perm_bytes_at(self, row: int) -> bytes:
        """The image bytes of the permutation at a global row index."""
        if self._engine is not None:
            return self._engine.row_bytes(row)
        if self._raw is not None and 0 <= row < self._raw.n_rows:
            return self._raw.perms[row].tobytes()
        if not 0 <= row < self.total_seen():
            raise InvalidValueError(f"row {row} outside the closure")
        return self._row_bytes_from_lists(row)

    def _row_bytes_from_lists(self, row: int) -> bytes:
        self._ensure_level_lists(self._expanded_to)
        for cost in range(self._expanded_to + 1):
            level = self._level_cache[cost]
            if row < len(level):
                return level[row][0]
            row -= len(level)
        raise InvalidValueError("row outside the closure")

    def cost_of_row(self, row: int) -> int:
        """The level (= minimal cost) of a global row index."""
        if self._engine is None and self._raw is None:
            self._export_raw_from_lists()
        return self._level_of_row(row)

    def _parent_of_row(self, row: int) -> tuple[int, int]:
        if self._engine is not None:
            return self._engine.parent_of(row)
        if self._raw is not None and self._raw.parents is not None:
            return int(self._raw.parents[row]), int(self._raw.gates[row])
        raise InvalidValueError(
            "no parent arrays available for row-based witness extraction"
        )

    def witness_indices_for_row(self, row: int) -> list[int]:
        """Gate indices of the minimal cascade ending at a global row.

        The row-based twin of :meth:`witness_indices`: used by the batch
        index (and the v2 store's serialized remainder index) to extract
        witnesses without any byte-level lookup.
        """
        if not self._track_parents:
            raise InvalidValueError(
                "search was built with track_parents=False; no witnesses"
            )
        if self._engine is None and self._raw is None:
            if self._parents is not None:
                # Byte-level search: resolve the row through the parents
                # dict without materializing the array engine.
                return self.witness_indices(self._row_bytes_from_lists(row))
            self._ensure_engine()
        indices: list[int] = []
        while row:
            row, gate_index = self._parent_of_row(row)
            indices.append(gate_index)
            if len(indices) > self._expanded_to or not (
                0 <= gate_index < len(self._library)
            ):
                # Unit-or-heavier gate costs bound a minimal cascade's
                # length by its level; anything longer (or a bad gate
                # id) means corrupted parent data.
                raise InvalidValueError(
                    "parent walk exceeds the closure bound; the parent "
                    "arrays are corrupted"
                )
        indices.reverse()
        return indices

    def find_matching_rows(self, cost: int, remainder: bytes) -> list[int]:
        """Global rows at *cost* that fix S and restrict to *remainder*.

        The vectorized core of MCE's level scan: one boolean reduction
        over the level's arrays instead of a Python loop over its
        permutations.
        """
        if cost > self._expanded_to:
            self.extend_to(cost)
        perms, masks = self._level_arrays(cost)
        start = self._level_start(cost)
        if perms is None or _np is None:
            out = []
            for i, (perm, mask) in enumerate(self.level(cost)):
                if mask == self._s_mask and perm[: self._n_binary] == remainder:
                    out.append(start + i)
            return out
        if not perms.shape[0]:
            return []
        wanted = _np.frombuffer(remainder, dtype=_np.uint8)
        hits = (perms[:, : self._n_binary] == wanted[None, :]).all(axis=1)
        hits &= self._s_fixing_mask(masks)
        return [start + int(i) for i in _np.flatnonzero(hits)]

    def s_fixing_rows(self, cost: int):
        """``(global rows, remainders (n, n_binary) u8)`` fixing S at *cost*."""
        if cost > self._expanded_to:
            self.extend_to(cost)
        perms, masks = self._level_arrays(cost)
        start = self._level_start(cost)
        if perms is None or _np is None:
            rows, remainders = [], []
            for i, (perm, mask) in enumerate(self.level(cost)):
                if mask == self._s_mask:
                    rows.append(start + i)
                    remainders.append(perm[: self._n_binary])
            return rows, remainders
        local = _np.flatnonzero(self._s_fixing_mask(masks))
        remainders = perms[local, : self._n_binary]
        return (start + local).tolist(), remainders

    def _s_fixing_mask(self, masks):
        from repro.core.kernel import mask_int_to_words

        s_words = mask_int_to_words(self._s_mask, masks.shape[1])
        if masks.shape[1] == 1:
            return masks[:, 0] == s_words[0]
        return (masks == s_words[None, :]).all(axis=1)

    def _level_start(self, cost: int) -> int:
        if self._engine is not None:
            return self._engine.offsets[cost]
        if self._raw is not None and cost <= self._raw.expanded_to:
            return int(self._raw.level_offsets[cost])
        return sum(len(self.level(c)) for c in range(cost))

    def attach_remainder_index(self, cost_bound: int, index: dict) -> None:
        """Attach a precomputed remainder index (deserialized from a store).

        :class:`~repro.core.batch.BatchSynthesizer` picks this up and
        skips its closure scan entirely.
        """
        if self._frozen:
            from repro.errors import FrozenSearchError

            raise FrozenSearchError(
                "search is frozen for serving; cannot swap its index"
            )
        self._attached_index = (cost_bound, index)

    @property
    def attached_remainder_index(self) -> tuple[int, dict] | None:
        return self._attached_index

    # -- state export / restore --------------------------------------------------------

    def export_state(self) -> SearchState:
        """Snapshot the accumulated closure as an immutable byte-level value.

        The snapshot is independent of this instance: later
        :meth:`extend_to` calls do not mutate it.
        """
        self._ensure_level_lists(self._expanded_to)
        parents = None
        if self._track_parents:
            parents = dict(self._ensure_parents_dict())
        return SearchState(
            expanded_to=self._expanded_to,
            levels=tuple(
                tuple(self._level_cache.get(cost, ()))
                for cost in range(self._expanded_to + 1)
            ),
            parents=parents,
            elapsed_seconds=self._elapsed,
        )

    def export_arrays(self) -> SearchArrays:
        """Snapshot the closure in array form (the v2 store layout).

        Returns views of the live arrays where possible -- treat the
        result as read-only.
        """
        if _np is None:
            raise InvalidValueError("array export needs numpy")
        if self._engine is None and self._raw is not None:
            return self._raw
        if self._engine is None:
            return self._export_raw_from_lists()
        engine = self._engine
        parents = gates = None
        if self._track_parents:
            parents = _np.concatenate(
                [lvl.astype(_np.int32) for lvl in engine.level_parents]
            )
            gates = _np.concatenate(
                [lvl.astype(_np.int32) for lvl in engine.level_gates]
            )
        return SearchArrays(
            expanded_to=self._expanded_to,
            degree=self._degree,
            n_binary=self._n_binary,
            mask_words=engine.mask_words,
            level_offsets=_np.asarray(engine.offsets, dtype=_np.int64),
            perms=engine.all_perms_raw(),
            masks=_np.concatenate(engine.level_masks),
            parents=parents,
            gates=gates,
            elapsed_seconds=self._elapsed,
        )

    def _export_raw_from_lists(self) -> SearchArrays:
        """Build (and cache) a SearchArrays snapshot from the byte form."""
        self._ensure_engine()
        self._raw = None
        return self.export_arrays()

    @classmethod
    def from_state(
        cls,
        library: GateLibrary,
        state: SearchState,
        cost_model: CostModel = UNIT_COST,
        kernel: str = "vector",
        kernel_options: dict | None = None,
    ) -> "CascadeSearch":
        """Rebuild a search from an exported snapshot in O(closure size).

        The result behaves exactly like the search the state was exported
        from: queries answer without re-expansion, and :meth:`extend_to`
        continues the closure past the stored bound.

        Raises:
            InvalidValueError: if the state is structurally inconsistent
                with *library* (wrong degree, missing identity level,
                duplicate permutations, or dangling parent pointers).
        """
        if state.expanded_to != len(state.levels) - 1:
            raise InvalidValueError(
                f"state claims bound {state.expanded_to} but carries "
                f"{len(state.levels)} levels"
            )
        search = cls(
            library,
            cost_model,
            track_parents=state.parents is not None,
            kernel=kernel,
            kernel_options=kernel_options,
        )
        degree = search._degree
        if not state.levels or state.levels[0] != (
            (search._identity, search._mask_of(search._identity)),
        ):
            raise InvalidValueError(
                "state level 0 is not the identity singleton"
            )
        seen: dict[bytes, int] = {}
        levels: dict[int, list[tuple[bytes, int]]] = {}
        for cost, level in enumerate(state.levels):
            for perm, _mask in level:
                if len(perm) != degree:
                    raise InvalidValueError(
                        f"permutation of degree {len(perm)} in a state "
                        f"for a degree-{degree} space"
                    )
                if perm in seen:
                    raise InvalidValueError(
                        "duplicate permutation across state levels"
                    )
                seen[perm] = cost
            levels[cost] = list(level)
        parents = state.parents
        if parents is not None:
            if len(parents) != len(seen) - 1:
                raise InvalidValueError(
                    f"state has {len(parents)} parent pointers for "
                    f"{len(seen) - 1} non-identity permutations"
                )
            n_gates = len(library)
            for child, (parent, gate_index) in parents.items():
                child_cost = seen.get(child)
                parent_cost = seen.get(parent)
                if child_cost is None or parent_cost is None:
                    raise InvalidValueError("dangling parent pointer in state")
                if not 0 <= gate_index < n_gates:
                    raise InvalidValueError(
                        f"parent gate index {gate_index} outside the "
                        f"{n_gates}-gate library"
                    )
                if parent_cost >= child_cost:
                    raise InvalidValueError(
                        "parent pointer does not decrease cost"
                    )
            search._parents = dict(parents)
        # Adopt the byte-level form as primary; array forms are rebuilt
        # lazily if the vector kernel or row-based accessors need them.
        search._engine = None
        search._seen = seen
        search._level_cache = levels
        search._expanded_to = state.expanded_to
        search._elapsed = state.elapsed_seconds
        search._restored = True
        return search

    @classmethod
    def from_arrays(
        cls,
        library: GateLibrary,
        arrays: SearchArrays,
        cost_model: CostModel = UNIT_COST,
        kernel: str = "vector",
        validate: bool = True,
        kernel_options: dict | None = None,
    ) -> "CascadeSearch":
        """Rebuild a search from an array snapshot without copying rows.

        This is the O(levels touched) load path of the v2 closure store:
        the arrays (typically ``np.memmap`` views) are adopted as-is, and
        nothing is read until a query touches it.  Operations that need
        the full closure in memory -- :meth:`extend_to`,
        :meth:`cost_of`, :meth:`witness_indices` by permutation --
        materialize the vector engine on first use.

        Args:
            validate: run structural sanity checks (shape/offset
                consistency and the identity row).  Skippable for
                payloads already guarded by a checksum.
        """
        if _np is None:
            raise InvalidValueError("array restore needs numpy")
        search = cls(
            library,
            cost_model,
            track_parents=arrays.parents is not None,
            kernel=kernel,
            kernel_options=kernel_options,
        )
        if validate:
            search._validate_arrays(arrays)
        search._engine = None
        search._raw = arrays
        search._expanded_to = arrays.expanded_to
        search._elapsed = arrays.elapsed_seconds
        search._restored = True
        return search

    def _validate_arrays(self, arrays: SearchArrays) -> None:
        if arrays.degree != self._degree:
            raise InvalidValueError(
                f"arrays have degree {arrays.degree}, library space has "
                f"{self._degree}"
            )
        if arrays.expanded_to + 2 != len(arrays.level_offsets):
            raise InvalidValueError(
                f"arrays claim bound {arrays.expanded_to} but carry "
                f"{len(arrays.level_offsets)} level offsets"
            )
        offsets = arrays.level_offsets
        if int(offsets[0]) != 0 or (_np.diff(offsets) < 0).any():
            raise InvalidValueError("level offsets are not monotonic from 0")
        n = arrays.n_rows
        if arrays.perms.shape != (n, self._degree):
            raise InvalidValueError(
                f"perms array has shape {arrays.perms.shape}, expected "
                f"({n}, {self._degree})"
            )
        if int(offsets[1]) != 1 or arrays.perms[0].tobytes() != self._identity:
            raise InvalidValueError(
                "arrays level 0 is not the identity singleton"
            )
        if arrays.parents is not None:
            if arrays.parents.shape[0] != n or arrays.gates is None:
                raise InvalidValueError("parent/gate arrays are inconsistent")

    # -- witnesses ---------------------------------------------------------------------

    def witness_indices(self, perm: bytes | Permutation) -> list[int]:
        """Library gate indices of one minimal cascade realizing *perm*.

        Raises:
            InvalidValueError: if parents are not tracked or the
                permutation has not been discovered yet.
        """
        if not self._track_parents:
            raise InvalidValueError(
                "search was built with track_parents=False; no witnesses"
            )
        key = perm.images if isinstance(perm, Permutation) else bytes(perm)
        if self._parents is not None and self._seen is not None:
            if key not in self._seen:
                raise InvalidValueError(
                    "permutation not discovered at current bound"
                )
            indices: list[int] = []
            while key != self._identity:
                key, gate_index = self._parents[key]
                indices.append(gate_index)
            indices.reverse()
            return indices
        row = self._find_row(key)
        if row < 0:
            raise InvalidValueError("permutation not discovered at current bound")
        return self.witness_indices_for_row(row)

    def witness_circuit(self, perm: bytes | Permutation) -> Circuit:
        """One minimal-cost circuit realizing *perm* (cascade order)."""
        gates = [
            self._library[i].gate for i in self.witness_indices(perm)
        ]
        return Circuit(gates, self._library.n_qubits)
