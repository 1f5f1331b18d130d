"""The array expansion kernel: the hot path of the cascade search.

The seed engine extended a level by looping over every (cascade, gate)
pair in Python: one ``bytes.translate`` per candidate plus a dict lookup
for dedup.  :class:`VectorEngine` replaces that inner loop with
whole-level array operations, run inline in one process:

* **Representation.**  Each discovered permutation is one row of a
  contiguous ``(n_rows, padded_width)`` uint8 array (padded to a
  multiple of 8 so rows view as uint64 words); rows are appended in
  discovery order, so a row index is the permutation's *global index*
  and levels are contiguous row ranges.  Per-level arrays hold the
  S-image bitmask (``mask_words`` uint64 words per row), the parent
  global row and the appended gate index.

* **Candidate generation.**  Per gate, Definition 1's reasonable-product
  test is one vectorized mask filter (``masks & banned == 0``).  Two
  filters then drop candidates that are provably duplicates: the
  back-edge filter (``p * g * g^-1 = p`` is always already seen) and the
  :class:`~repro.core.relations.RelationFilter` (length-2 gate
  relations).  Composition is one fancy-indexing gather through a
  65536-entry uint16 *pair table* (two labels substituted per lookup).

* **Dedup.**  Candidates merge through a
  :class:`~repro.core.dedup.ShardedDedupTable`: hash-prefix shards of
  open-addressing slots, exact against full packed rows, with claim
  races resolved to the lowest candidate id (the normative claim
  protocol is specified in :mod:`repro.core.dedup`).  Past a memory
  budget the shards spill to ``np.memmap`` files.

* **Checkpoint / crash recovery.**  With a ``checkpoint_dir`` completed
  levels are persisted (``level-NNNN.npz``), dedup slabs live as memmap
  files under ``slabs/``, and a manifest is atomically rewritten after
  every level.  A crash mid-level leaves in-flight claims and
  uncommitted rows in the slabs; on resume they are swept back to the
  last checkpoint (:meth:`ShardedDedupTable.sweep_uncommitted`) and the
  expansion continues to the same closure as an uninterrupted run.

The engine is exact: for any library, cost model, shard count and
memory budget it discovers the same level sets, in the same order, with
the same parent pointers as the seed ``bytes.translate`` kernel
(``CascadeSearch(kernel="translate")``), several times faster end to
end.  ``tests/test_kernels.py`` and ``tests/test_parallel.py`` pin the
equivalence, forced hash collisions and crash recovery included.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.dedup import ShardedDedupTable, shard_of
from repro.core.relations import RelationFilter
from repro.errors import InvalidValueError

#: 64-bit mulxor hash constant (golden-ratio multiplier).
_HASH_C = np.uint64(0x9E3779B97F4A7C15)
_ONE = np.uint64(1)

#: Manifest schema version of a checkpoint directory.
CHECKPOINT_FORMAT = 1


def padded_width(degree: int) -> int:
    """Row width in bytes: *degree* rounded up to a multiple of 8."""
    return -(-degree // 8) * 8


def mask_word_count(degree: int) -> int:
    """uint64 words needed for a *degree*-bit S-image mask."""
    return -(-degree // 64) or 1


def mask_int_to_words(value: int, words: int) -> np.ndarray:
    """Split an arbitrary-precision bitmask into little-endian u64 words."""
    return np.array(
        [(value >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(words)],
        dtype=np.uint64,
    )


def mask_words_to_int(row: np.ndarray) -> int:
    """Recombine u64 mask words into a Python int bitmask."""
    out = 0
    for w, word in enumerate(row.tolist()):
        out |= word << (64 * w)
    return out


def pack_rows(rows: np.ndarray, degree: int) -> np.ndarray:
    """Pad ``(n, degree)`` uint8 rows to the kernel's aligned width.

    Pad columns hold the fixed points ``degree .. padded_width-1`` so a
    padded row is itself a valid permutation of the padded domain and
    gate tables (identity beyond *degree*) leave the padding untouched.
    """
    width = padded_width(degree)
    n = rows.shape[0]
    if rows.shape[1] == width:
        return np.ascontiguousarray(rows, dtype=np.uint8)
    out = np.empty((n, width), dtype=np.uint8)
    out[:, :degree] = rows
    out[:, degree:] = np.arange(degree, width, dtype=np.uint8)
    return out


#: Row-block size for cache-blocked column sweeps (rows * width ~ L2).
_CHUNK = 1 << 16


def hash_rows(packed: np.ndarray) -> np.ndarray:
    """Mulxor hash of packed rows: ``(n, words) u64 -> (n,) u64``.

    Processed in row blocks so the per-word column sweeps stay in cache
    (each sweep touches every row's cache line; blocking pays the DRAM
    traffic once instead of once per word).
    """
    n = packed.shape[0]
    if not n:
        return np.empty(0, dtype=np.uint64)
    words = packed.view(np.uint64).reshape(n, -1)
    out = np.empty(n, dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        block = words[start : start + _CHUNK]
        h = block[:, 0] * _HASH_C
        for j in range(1, block.shape[1]):
            h = (h ^ block[:, j]) * _HASH_C
        out[start : start + _CHUNK] = h
    return out


#: ``_BIT64[i] == 1 << i`` -- gather table for vectorized mask building.
_BIT64 = _ONE << np.arange(64, dtype=np.uint64)


def compute_masks(perms: np.ndarray, n_binary: int, words: int) -> np.ndarray:
    """S-image mask words for each row: OR of ``1 << image`` over S.

    ``perms`` may be padded or degree-wide; only the first *n_binary*
    columns (the binary labels, always the low indices of the reduced
    ordering) are read.
    """
    n = perms.shape[0]
    out = np.zeros((n, words), dtype=np.uint64)
    if words == 1:
        for start in range(0, n, _CHUNK):
            block = perms[start : start + _CHUNK]
            mask = _BIT64[block[:, 0]]
            for j in range(1, n_binary):
                mask |= _BIT64[block[:, j]]
            out[start : start + _CHUNK, 0] = mask
    else:
        img = perms[:, :n_binary].astype(np.uint64)
        word_idx = img >> np.uint64(6)
        bit = _ONE << (img & np.uint64(63))
        for w in range(words):
            out[:, w] = np.bitwise_or.reduce(
                np.where(word_idx == w, bit, np.uint64(0)), axis=1
            )
    return out


def _pair_table(table: bytes) -> np.ndarray:
    """uint16 pair-substitution table for a 256-byte translate table.

    Entry ``hi << 8 | lo`` maps to ``t[hi] << 8 | t[lo]``, so composing
    a little-endian uint16 view of a row substitutes two labels per
    gather.
    """
    t16 = np.frombuffer(table, dtype=np.uint8).astype(np.uint16)
    return ((t16[:, None] << np.uint16(8)) | t16[None, :]).ravel()


class GateRows:
    """Static per-gate kernel data derived from a gate library.

    Attributes:
        tables: per-gate raw 256-byte translate tables (the source the
            derived pair tables and relation filters are built from).
        tables16: per-gate uint16 pair tables.
        banned: per-gate ``(mask_words,)`` u64 banned masks.
        costs: per-gate integer costs.
        inverse: per-gate index of the inverse gate (-1 if the inverse
            is not in the library), for the back-edge duplicate filter.
    """

    __slots__ = ("tables", "tables16", "banned", "costs", "inverse", "groups")

    def __init__(
        self,
        tables: list[bytes],
        banned_masks: list[int],
        costs: list[int],
        inverse: list[int],
        mask_words: int,
    ):
        self.tables = [bytes(t) for t in tables]
        self.tables16 = [_pair_table(t) for t in tables]
        self.banned = [mask_int_to_words(b, mask_words) for b in banned_masks]
        self.costs = list(costs)
        self.inverse = list(inverse)
        # Gates sharing (banned set, cost) also share the reasonable-
        # product filter, so the per-level keep mask is computed once per
        # group (the paper's L_A..L_BC sub-libraries for n = 3).
        groups: dict[tuple, list[int]] = {}
        for gi, (mask, cost) in enumerate(zip(banned_masks, costs)):
            groups.setdefault((mask, cost), []).append(gi)
        self.groups = list(groups.values())

    def __len__(self) -> int:
        return len(self.tables16)


# -- checkpointing ---------------------------------------------------------------------


class ExpansionCheckpoint:
    """Per-level persistence of an expansion under one directory.

    Layout::

        <dir>/manifest.json      atomically replaced after every level
        <dir>/level-NNNN.npz     perms/masks/parents/gates of level N
        <dir>/slabs/shard-*.slab the live (memmapped) dedup slabs

    The manifest records the identity of the computation (library and
    cost-model fingerprints, degree, shard bits, parent tracking) plus
    the committed state (level offsets, slab size), so a resume can
    refuse a directory written for a different search.
    """

    def __init__(self, directory: str | Path, provenance: dict | None = None):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.provenance = dict(provenance or {})

    @property
    def manifest_path(self) -> Path:
        return self.dir / "manifest.json"

    @property
    def slab_dir(self) -> Path:
        return self.dir / "slabs"

    def level_path(self, level: int) -> Path:
        return self.dir / f"level-{level:04d}.npz"

    def load_manifest(self) -> dict | None:
        try:
            return json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None

    def compatible(self, manifest: dict, identity: dict) -> bool:
        """Whether a manifest matches this computation's identity."""
        if manifest.get("format") != CHECKPOINT_FORMAT:
            return False
        return all(manifest.get(k) == v for k, v in identity.items())

    def write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=1) + "\n")
        os.replace(tmp, self.manifest_path)

    def write_level(
        self,
        level: int,
        perms: np.ndarray,
        masks: np.ndarray,
        parents: np.ndarray,
        gates: np.ndarray,
    ) -> None:
        path = self.level_path(level)
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as handle:
            np.savez(
                handle, perms=perms, masks=masks, parents=parents, gates=gates
            )
        os.replace(tmp, path)

    def read_level(self, level: int) -> dict[str, np.ndarray]:
        with np.load(self.level_path(level)) as data:
            return {name: np.array(data[name]) for name in data.files}


# -- the engine ------------------------------------------------------------------------


class VectorEngine:
    """Array-backed closure state plus the expansion kernel.

    One engine instance owns everything the array kernel touches: the
    global row store (packed permutations + hashes), the per-level mask,
    parent and gate arrays, the relation filter and the sharded dedup
    table.  The public :class:`~repro.core.search.CascadeSearch`
    delegates its array-form state here and keeps the byte-level legacy
    API on top.

    Saving a closure goes through the streamed store writers
    (:func:`~repro.core.store.save_search`), level by level straight off
    the row store, so writing never materializes a second copy of the
    closure -- the property that lets a budgeted run save a store larger
    than the dedup table's RAM cap.

    Args:
        shard_bits: the dedup keyspace is range-sharded into
            ``2**shard_bits`` hash-prefix shards.
        memory_budget: soft RAM cap (bytes) for the dedup slabs; past
            it, slabs spill to memmap files.
        checkpoint_dir: persist completed levels + slabs here and resume
            from them (see :class:`ExpansionCheckpoint`).
        provenance: identity payload pinned into the checkpoint
            manifest (library/cost fingerprints).
    """

    def __init__(
        self,
        degree: int,
        n_binary: int,
        gate_rows: GateRows,
        track_parents: bool = True,
        *,
        shard_bits: int = 6,
        memory_budget: int | None = None,
        checkpoint_dir: str | Path | None = None,
        provenance: dict | None = None,
    ):
        self.degree = degree
        self.n_binary = n_binary
        self.width = padded_width(degree)
        self.mask_words = mask_word_count(degree)
        self.gate_rows = gate_rows
        self.track_parents = track_parents

        cap = 1024
        self._perms = np.empty((cap, self.width), dtype=np.uint8)
        self._hashes = np.empty(cap, dtype=np.uint64)
        self.n_rows = 0
        self.offsets: list[int] = [0]
        self.level_masks: list[np.ndarray] = []
        self.level_parents: list[np.ndarray] = []
        self.level_gates: list[np.ndarray] = []

        self._checkpoint = (
            ExpansionCheckpoint(checkpoint_dir, provenance)
            if checkpoint_dir is not None
            else None
        )
        self._table = ShardedDedupTable(
            shard_bits=shard_bits,
            memory_budget=memory_budget,
            spill_dir=(
                self._checkpoint.slab_dir if self._checkpoint else None
            ),
            persistent=self._checkpoint is not None,
        )
        # Built on first use inside expand_level (it takes ~0.1 s for
        # the 4-qubit library), so an engine that is never extended --
        # one rebuilt only to answer lookups -- does not pay for it.
        # None = not built yet; False = built, no relations exist.
        self._filter: RelationFilter | bool | None = None
        # Global S-image masks, grown in row order (parent-mask lookups
        # for the relation filter gather straight from it).
        self._gmasks = np.empty((1024, self.mask_words), dtype=np.uint64)
        self._gmask_rows = 0
        self._cand_buf = None
        self._hash_buf = None
        self._meta_buf = None

        #: Optional progress sink (duck-typed ``ProgressReporter``);
        #: ``None`` keeps every phase boundary a plain attribute check,
        #: so un-instrumented runs pay nothing.
        self.progress = None
        self._last_planned = 0

    # -- row store ---------------------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self.offsets) - 1

    def level_size(self, level: int) -> int:
        return self.offsets[level + 1] - self.offsets[level]

    def level_perms(self, level: int) -> np.ndarray:
        """Padded ``(n, width)`` uint8 view of one level's rows."""
        return self._perms[self.offsets[level] : self.offsets[level + 1]]

    def level_perms_raw(self, level: int) -> np.ndarray:
        """Degree-wide ``(n, degree)`` view (drops the pad columns)."""
        return self.level_perms(level)[:, : self.degree]

    def all_perms_raw(self) -> np.ndarray:
        """Degree-wide view of every row, level-major discovery order."""
        return self._perms[: self.n_rows, : self.degree]

    def row_bytes(self, row: int) -> bytes:
        """The raw image bytes of one global row."""
        if not 0 <= row < self.n_rows:
            raise InvalidValueError(f"row {row} outside 0..{self.n_rows - 1}")
        return self._perms[row, : self.degree].tobytes()

    def level_of_row(self, row: int) -> int:
        """The level (= cost layer) a global row belongs to."""
        import bisect

        return bisect.bisect_right(self.offsets, row) - 1

    def parent_of(self, row: int) -> tuple[int, int]:
        """``(parent global row, gate index)`` of a non-identity row."""
        level = self.level_of_row(row)
        local = row - self.offsets[level]
        return (
            int(self.level_parents[level][local]),
            int(self.level_gates[level][local]),
        )

    def find_row(self, images: bytes) -> int:
        """Global row of a permutation, or -1 if not discovered."""
        row = np.frombuffer(images, dtype=np.uint8)[None, :]
        packed = pack_rows(row, self.degree)
        h = hash_rows(packed)[0]
        return self._table.find(
            packed.view(np.uint64)[0], h, self._perms.view(np.uint64)
        )

    def _grow_rows(self, extra: int) -> None:
        need = self.n_rows + extra
        cap = self._perms.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        perms = np.empty((cap, self.width), dtype=np.uint8)
        perms[: self.n_rows] = self._perms[: self.n_rows]
        self._perms = perms
        hashes = np.empty(cap, dtype=np.uint64)
        hashes[: self.n_rows] = self._hashes[: self.n_rows]
        self._hashes = hashes

    def _append_level(
        self,
        perms: np.ndarray,
        hashes: np.ndarray,
        masks: np.ndarray,
        parents: np.ndarray,
        gates: np.ndarray,
    ) -> None:
        n = perms.shape[0]
        self._grow_rows(n)
        self._perms[self.n_rows : self.n_rows + n] = perms
        self._hashes[self.n_rows : self.n_rows + n] = hashes
        self.n_rows += n
        self.offsets.append(self.n_rows)
        self.level_masks.append(masks)
        self.level_parents.append(parents)
        self.level_gates.append(gates)

    def _insert_distinct(self, start: int) -> None:
        """Enter rows ``start..n_rows-1`` (new, pairwise distinct) in the table."""
        if self.n_rows > start:
            self._table.insert_distinct(
                self._hashes[start : self.n_rows],
                np.arange(start + 1, self.n_rows + 1, dtype=np.int32),
                self._hashes,
                self.n_rows,
            )

    def seed_identity(self) -> None:
        """Install level 0: the identity singleton."""
        if self.n_levels:
            raise InvalidValueError("engine already seeded")
        identity = np.arange(self.width, dtype=np.uint8)[None, :]
        self._append_level(
            identity,
            hash_rows(identity),
            compute_masks(identity, self.n_binary, self.mask_words),
            np.full(1, -1, dtype=np.int32),
            np.full(1, -1, dtype=np.int32),
        )
        self._insert_distinct(0)

    def load_level(
        self,
        perms: np.ndarray,
        masks: np.ndarray | None = None,
        parents: np.ndarray | None = None,
        gates: np.ndarray | None = None,
    ) -> None:
        """Append one level of already-validated, pairwise-distinct rows.

        Used when rebuilding the engine from a store or a legacy
        snapshot.  ``masks`` are recomputed when absent; ``parents`` and
        ``gates`` default to -1 (unknown -- the back-edge and relation
        filters then skip those rows, which only costs a few extra
        candidates).  Adopted checkpoint slabs are discarded first -- a
        replayed closure is its own source of truth -- and, when
        checkpointing, the replayed level is persisted so a later
        resume covers it.
        """
        self._discard_adopted_slabs()
        n = perms.shape[0]
        # Explicit copies throughout: the inputs may be views of a
        # memory-mapped store file, and the engine must not keep that
        # mapping alive (the caller may re-save over the file).
        packed = pack_rows(np.array(perms, dtype=np.uint8), self.degree)
        if masks is None:
            masks = compute_masks(packed, self.n_binary, self.mask_words)
        else:
            masks = np.array(masks, dtype=np.uint64).reshape(
                n, self.mask_words
            )
        if parents is None:
            parents = np.full(n, -1, dtype=np.int32)
        else:
            parents = np.array(parents, dtype=np.int32)
        if gates is None:
            gates = np.full(n, -1, dtype=np.int32)
        else:
            gates = np.array(gates, dtype=np.int32)
        start = self.n_rows
        self._append_level(packed, hash_rows(packed), masks, parents, gates)
        self._insert_distinct(start)
        if self._checkpoint is not None:
            level = self.n_levels - 1
            self._checkpoint.write_level(
                level, self.level_perms_raw(level), masks, parents, gates
            )

    # -- the kernel --------------------------------------------------------------------
    #
    # ``expand_level`` runs three phases:
    #
    #   _plan_chunks         -> which (gate, source level, kept rows)
    #                           pairs become candidates, in the
    #                           determinism-critical library-gate order,
    #                           after the back-edge and relation filters;
    #   _generate_candidates -> compose + hash every kept pair;
    #   _commit_level        -> dedup, append accepted rows, build the
    #                           per-level mask/parent/gate arrays.

    def _relation_filter(self) -> RelationFilter | None:
        """The library's relation filter (built once), or None if empty."""
        if self._filter is None:
            built = RelationFilter(self.gate_rows, self.degree, self.mask_words)
            self._filter = built if built.active else False
        return self._filter or None

    def _plan_chunks(
        self, cost: int
    ) -> tuple[list[tuple[int, int, np.ndarray]], int]:
        """Candidate chunks ``(gate, src level, kept src rows)`` for a level.

        Chunks are returned sorted by library-gate index: candidates
        must appear in gate order for discovery order (and hence parent
        choice) to match the translate kernel.
        """
        rows = self.gate_rows
        chunks: list[tuple[int, int, np.ndarray]] = []
        total = 0
        planned = 0
        for group in rows.groups:
            src = cost - rows.costs[group[0]]
            if src < 0 or src >= self.n_levels:
                continue
            if not self.level_size(src):
                continue
            masks = self.level_masks[src]
            banned = rows.banned[group[0]]
            if self.mask_words == 1:
                keep_group = (masks[:, 0] & banned[0]) == 0
            else:
                keep_group = ~((masks & banned[None, :]).any(axis=1))
            for gi in group:
                inverse = rows.inverse[gi]
                if inverse >= 0:
                    # p * g * g^-1 == p is always already discovered.
                    keep = keep_group & (self.level_gates[src] != inverse)
                else:
                    keep = keep_group
                kept = np.flatnonzero(keep)
                planned += kept.size
                if kept.size:
                    kept = self._filter_candidates(src, gi, kept)
                if kept.size:
                    chunks.append((gi, src, kept))
                    total += kept.size
        chunks.sort(key=lambda chunk: chunk[0])
        # Pre-filter candidate count, read by the progress ``plan``
        # event (the relation filter may have dropped some of *planned*).
        self._last_planned = planned
        return chunks, total

    def _filter_candidates(
        self, src: int, gi: int, kept: np.ndarray
    ) -> np.ndarray:
        """Drop kept rows whose candidates are provable duplicates.

        Only candidates that some earlier candidate (earlier level, or
        same level and smaller gate index) is guaranteed to have
        produced are removed, so levels, discovery order and parents
        stay byte-identical.  Rows without provenance (restored levels)
        are always kept.
        """
        relations = self._relation_filter()
        parents = self.level_parents[src]
        if relations is None or parents.shape[0] != self.level_size(src):
            return kept
        self._sync_gmasks()
        qs = self.level_gates[src][kept]
        prs = parents[kept]
        valid = (qs >= 0) & (prs >= 0)
        if not valid.any():
            return kept
        vi = np.flatnonzero(valid)
        skip_valid = relations.prune(gi, qs[vi], self._gmasks[prs[vi]])
        if not skip_valid.any():
            return kept
        drop = np.zeros(kept.shape[0], dtype=bool)
        drop[vi] = skip_valid
        return kept[~drop]

    def _sync_gmasks(self) -> None:
        if self._gmask_rows == self.n_rows:
            return
        need = self.n_rows
        cap = self._gmasks.shape[0]
        if need > cap:
            while cap < need:
                cap *= 2
            grown = np.empty((cap, self.mask_words), dtype=np.uint64)
            grown[: self._gmask_rows] = self._gmasks[: self._gmask_rows]
            self._gmasks = grown
        pos = self._gmask_rows
        for level in range(self.n_levels):
            size = self.level_size(level)
            start = self.offsets[level]
            if start + size <= pos:
                continue
            masks = self.level_masks[level]
            lo = pos - start
            self._gmasks[start + lo : start + size] = masks[lo:]
            pos = start + size
        self._gmask_rows = need

    def _candidate_buffers(self, total: int):
        """Scratch for one level's candidates, reused across levels.

        Returns ``(cand, ch, parents, gates)``.  *parents* is None only
        on counting-only runs without relations (the relation filter
        reads parent rows even when the export drops them); the gate
        array always stays -- it feeds the back-edge filter.
        """
        if self._cand_buf is None or self._cand_buf.shape[0] < total:
            cap = max(total, 4096)
            self._cand_buf = np.empty((cap, self.width), dtype=np.uint8)
            self._hash_buf = np.empty(cap, dtype=np.uint64)
            self._meta_buf = np.empty((2, cap), dtype=np.int32)
        wants_parents = (
            self.track_parents or self._relation_filter() is not None
        )
        return (
            self._cand_buf[:total],
            self._hash_buf[:total],
            self._meta_buf[0, :total] if wants_parents else None,
            self._meta_buf[1, :total],
        )

    def _generate_candidates(
        self, chunks: list[tuple[int, int, np.ndarray]], total: int
    ):
        """Compose + hash all planned candidates.

        Returns ``(cand, ch, parents, gates)``: packed candidate rows,
        their hashes, parent global rows (None on counting-only runs
        without relations) and appended-gate indices, all in chunk
        order.
        """
        rows = self.gate_rows
        cand, ch, parents, gates = self._candidate_buffers(total)
        cand16 = cand.view(np.uint16)
        pos = 0
        for gi, src, kept in chunks:
            m = kept.size
            src16 = self.level_perms(src).view(np.uint16)
            block = cand16[pos : pos + m]
            # mode="clip" skips the bounds check; uint16 indices cannot
            # exceed the 65536-entry pair table anyway.
            np.take(
                rows.tables16[gi],
                np.take(src16, kept, axis=0),
                out=block,
                mode="clip",
            )
            # Hash while the freshly written block is still cache-hot.
            ch[pos : pos + m] = hash_rows(cand[pos : pos + m])
            if parents is not None:
                parents[pos : pos + m] = self.offsets[src] + kept
            gates[pos : pos + m] = gi
            pos += m
        return cand, ch, parents, gates

    def _commit_level(self, cand, ch, parents, gates) -> int:
        """Dedup the candidate batch and append the accepted rows.

        With parents at hand, accepted-row masks come from
        ``mask(t_g . a) = perm_g(mask(a))`` -- pushing the parent's
        S-image mask through the appended gate's byte tables is cheaper
        than recomputing masks from the row images, and exactly equal.
        """
        self._table.reserve(ch, self._hashes, self.n_rows)
        new_mask = self._table.dedup_commit(
            cand.view(np.uint64), ch, self._perms.view(np.uint64), self.n_rows
        )
        accepted = np.flatnonzero(new_mask)
        n_new = accepted.size
        self._grow_rows(n_new)
        start = self.n_rows
        np.take(cand, accepted, axis=0, out=self._perms[start : start + n_new])
        np.take(ch, accepted, out=self._hashes[start : start + n_new])
        acc_gates = gates[accepted]
        acc_parents = (
            parents[accepted]
            if parents is not None
            else np.empty(0, dtype=np.int32)
        )
        relations = self._relation_filter()
        if relations is not None and parents is not None:
            self._sync_gmasks()  # parents precede this level
            masks = relations.permuted_masks(
                self._gmasks[acc_parents], acc_gates
            )
        else:
            masks = compute_masks(
                self._perms[start : start + n_new],
                self.n_binary,
                self.mask_words,
            )
        self.n_rows += n_new
        self.offsets.append(self.n_rows)
        self.level_masks.append(masks)
        self.level_parents.append(acc_parents)
        self.level_gates.append(acc_gates)
        return int(n_new)

    def dedup_stats(self) -> dict:
        """Occupancy of the dedup table, as progress-event fields."""
        layout = self._table.layout()
        stats = {
            "dedup_slots": int(self._table.n_shards * layout["slab_slots"]),
            "dedup_used": int(self.n_rows),
        }
        if layout["spilled"]:
            stats["dedup_spilled"] = True
        return stats

    @property
    def dedup_table(self) -> ShardedDedupTable:
        return self._table

    def expand_level(self, cost: int) -> int:
        """Compute the next level (must be ``n_levels``); returns its size."""
        if cost != self.n_levels:
            raise InvalidValueError(
                f"levels must be expanded in order: next is {self.n_levels}, "
                f"got {cost}"
            )
        # Safety net: never expand against adopted-but-unvalidated
        # checkpoint slabs (try_resume clears the flag when it vouches
        # for them).
        self._discard_adopted_slabs()
        was_spilled = self._table.spilled
        progress = self.progress
        chunks, total = self._plan_chunks(cost)
        if progress is not None:
            progress.emit(
                "plan",
                level=cost,
                chunks=len(chunks),
                planned=int(self._last_planned),
                kept=int(total),
                rows=int(self.n_rows),
            )
        if total:
            cand, ch, parents, gates = self._generate_candidates(chunks, total)
            if progress is not None:
                progress.emit("generate", level=cost, candidates=int(total))
            n_new = self._commit_level(cand, ch, parents, gates)
        else:
            self._append_level(
                np.empty((0, self.width), dtype=np.uint8),
                np.empty(0, dtype=np.uint64),
                np.empty((0, self.mask_words), dtype=np.uint64),
                np.empty(0, dtype=np.int32),
                np.empty(0, dtype=np.int32),
            )
            n_new = 0
        if progress is not None:
            progress.emit(
                "commit",
                level=cost,
                accepted=int(n_new),
                rows=int(self.n_rows),
                **self.dedup_stats(),
            )
            if self._table.spilled and not was_spilled:
                progress.emit("spill", level=cost)
        if self._checkpoint is not None:
            self._write_checkpoint(cost)
        return n_new

    # -- checkpoint / resume -----------------------------------------------------------

    def _identity_dict(self) -> dict:
        identity = {
            "format": CHECKPOINT_FORMAT,
            "degree": self.degree,
            "n_binary": self.n_binary,
            "mask_words": self.mask_words,
            "track_parents": self.track_parents,
            "shard_bits": self._table.shard_bits,
        }
        identity.update(self._checkpoint.provenance)
        return identity

    def _write_checkpoint(self, cost: int) -> None:
        ck = self._checkpoint
        ck.write_level(
            cost,
            self.level_perms_raw(cost),
            self.level_masks[cost],
            self.level_parents[cost],
            self.level_gates[cost],
        )
        self._table.flush()
        manifest = self._identity_dict()
        manifest.update(
            {
                "level_offsets": list(self.offsets),
                "n_rows": self.n_rows,
                "slab_bits": self._table.slab_bits,
            }
        )
        ck.write_manifest(manifest)
        if self.progress is not None:
            self.progress.emit("checkpoint", level=cost, path=str(ck.dir))

    def try_resume(self) -> int:
        """Adopt a compatible checkpoint; returns the resumed cost bound.

        Call once, right after :meth:`seed_identity`.  Levels recorded
        in the manifest are loaded back, the persistent dedup slabs are
        swept back to the checkpointed row count (erasing whatever a
        mid-level crash left in flight), and any shard whose contents
        fail validation is rebuilt from the committed rows.  Returns 0
        (nothing to resume) when the directory is empty or was written
        for a different computation.
        """
        if self._checkpoint is None or self.n_levels != 1:
            return 0
        manifest = self._checkpoint.load_manifest()
        offsets = []
        if manifest is not None and self._checkpoint.compatible(
            manifest, self._identity_dict()
        ):
            offsets = [int(o) for o in manifest.get("level_offsets", [])]
        if len(offsets) < 2 or offsets[:2] != [0, 1]:
            self._discard_adopted_slabs()
            return 0
        try:
            levels = [
                self._checkpoint.read_level(level)
                for level in range(1, len(offsets) - 1)
            ]
        except (OSError, ValueError, KeyError):
            self._discard_adopted_slabs()
            return 0
        # Adopt the slab geometry before any insert touches the table;
        # the seeded identity row is part of the checkpointed slabs.
        self._table.adopt_geometry(
            int(manifest.get("slab_bits", self._table.slab_bits))
        )
        for data in levels:
            packed = pack_rows(data["perms"], self.degree)
            self._append_level(
                packed,
                hash_rows(packed),
                np.array(data["masks"], dtype=np.uint64).reshape(
                    packed.shape[0], self.mask_words
                ),
                np.array(data["parents"], dtype=np.int32),
                np.array(data["gates"], dtype=np.int32),
            )
        self._table.sweep_uncommitted(self.n_rows)
        self._rebuild_shards(mismatched_only=True)
        self._table.adopted = False  # contents now vouched for
        return self.n_levels - 1

    def _discard_adopted_slabs(self) -> None:
        """Rebuild adopted persistent slabs from this engine's own rows.

        A persistent table adopts whatever slab files the checkpoint
        directory holds -- including a crashed run's in-flight claims.
        :meth:`try_resume` validates or sweeps them; every *other* way
        of populating the engine (``load_level`` replays from a store
        or another engine) must first erase the foreign contents, or
        stale claims would make genuine first-producer candidates
        "verify" as duplicates and silently shrink the closure.
        """
        if self._table.adopted:
            self._rebuild_shards()
            self._table.adopted = False

    def _rebuild_shards(self, mismatched_only: bool = False) -> None:
        """Re-derive shard slabs from the committed rows.

        With *mismatched_only*, only shards whose recorded row count
        disagrees with the row store are rebuilt.
        """
        hashes = self._hashes[: self.n_rows]
        shards = shard_of(hashes, self._table.shard_bits)
        expected = np.bincount(shards, minlength=self._table.n_shards)
        recorded = self._table.layout()["rows_per_shard"]
        for s in range(self._table.n_shards):
            if mismatched_only and recorded[s] == int(expected[s]):
                continue
            rows = np.flatnonzero(shards == s).astype(np.int64)
            self._table.reinsert_shard(
                s, np.take(hashes, rows), (rows + 1).astype(np.int32)
            )

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Release spilled or checkpointed dedup slabs and candidate scratch.

        A RAM-resident dedup table stays, so lookups and further
        expansion keep working; a spilled or checkpointed one is
        unmapped (an owned temporary spill directory is removed), after
        which lookups raise :class:`~repro.errors.InvalidValueError`.
        Idempotent.
        """
        self._cand_buf = self._hash_buf = self._meta_buf = None
        self._table.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self._table.close()
        except Exception:
            pass
