"""Relation filter: drop provable duplicate candidates before composing.

A precomputed table of length-:math:`\\le 2` gate relations
(commutations, two-gate products that equal a cheaper gate, inverse
pairs) lets the expansion kernel (:class:`~repro.core.kernel.VectorEngine`)
skip candidates that some *earlier* candidate -- earlier level, or same
level and a smaller library-gate index -- is guaranteed to have
produced.  On the paper's 3-qubit library this removes ~75% of the
duplicate candidate mass at the deep levels without touching a single
row byte, and it provably cannot change results (see
:class:`RelationFilter`): the ``translate`` kernel, which has no filter,
stays the test oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.kernel import GateRows


class RelationFilter:
    """Pre-composition pruning from length-:math:`\\le 2` gate relations.

    For a candidate ``t_g . p`` where row ``p`` was created by appending
    gate ``q`` to parent ``a`` (so the candidate's image is
    ``t_g . t_q . a``), the filter may drop the candidate when one of
    these holds:

    * **identity** -- ``t_g . t_q = e``: the image *is* ``a``,
      discovered two levels down (subsumes the kernel's inverse
      back-edge filter, and also fires when the inverse permutation
      hides under a different gate name).
    * **single** -- ``t_g . t_q = t_h`` with ``cost(h) < cost(q) +
      cost(g)`` (or equal cost and ``h < g``), and ``h`` applicable to
      ``a`` (``mask(a) & banned(h) == 0``): candidate ``(a, h)``
      produced the image at an earlier level (or earlier chunk of the
      same level).
    * **pair** -- ``t_g . t_q = t_{g2} . t_{q2}`` with ``cost(q2) +
      cost(g2)`` smaller (any ``g2``) or equal and ``g2 < g``, with
      both steps applicable: ``mask(a) & banned(q2) == 0`` and
      ``perm_mask(q2, mask(a)) & banned(g2) == 0``.  Then
      ``r = t_{q2} . a`` is discovered no later than
      ``cost(a) + cost(q2)`` and candidate ``(r, g2)`` precedes ours.

    Why this is exact: every skipped candidate names a witness
    candidate strictly earlier in the (level, gate-chunk) enumeration
    that yields the same image.  The witness may itself have been
    skipped, but each skip steps strictly down a well-founded order, so
    a chain of witnesses always terminates at a non-skipped earlier
    producer.  First producers therefore are never skipped, and level
    contents, discovery order and parent choice all survive untouched.
    Rows with unknown provenance (restored levels carrying ``-1``
    parent or gate entries) are never filtered.

    ``perm_mask(q, m)`` is the S-image mask ``m`` pushed through gate
    ``q``'s label permutation; it is evaluated via per-gate, per-byte
    lookup tables so the filter never composes a full row.
    """

    def __init__(self, gate_rows: GateRows, degree: int, mask_words: int):
        self._n_g = n_g = len(gate_rows)
        self._words = mask_words
        self._nbytes = nbytes = -(-degree // 8)
        tables = [
            np.frombuffer(t, dtype=np.uint8) for t in gate_rows.tables
        ]
        costs = gate_rows.costs
        banned = gate_rows.banned  # per gate: (words,) u64

        identity = np.arange(256, dtype=np.uint8)
        products: dict[bytes, list[tuple[int, int]]] = {}
        for q in range(n_g):
            for g in range(n_g):
                key = tables[g][tables[q]][:degree].tobytes()
                products.setdefault(key, []).append((q, g))
        by_single = {
            t[:degree].tobytes(): h for h, t in enumerate(tables)
        }
        identity_key = identity[:degree].tobytes()

        #: uncond[g][q] -- skip unconditionally (product is identity).
        self._uncond = np.zeros((n_g, n_g), dtype=bool)
        # singles[k] and pair_*[k] are per-alternative sentinel-padded
        # lookup arrays indexed [g][q]; all-ones banned sentinels make
        # the corresponding condition unsatisfiable (S-masks are
        # nonzero), so unused slots are naturally inert.
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        singles: list[np.ndarray] = []
        pair_q2: list[np.ndarray] = []
        pair_b1: list[np.ndarray] = []
        pair_b2: list[np.ndarray] = []
        single_used: list[np.ndarray] = []
        pair_used: list[np.ndarray] = []

        def _place_single(g, q, banned_h):
            for k, used in enumerate(single_used):
                if not used[g, q]:
                    singles[k][g, q] = banned_h
                    used[g, q] = True
                    return
            singles.append(
                np.full((n_g, n_g, mask_words), ones, dtype=np.uint64)
            )
            single_used.append(np.zeros((n_g, n_g), dtype=bool))
            singles[-1][g, q] = banned_h
            single_used[-1][g, q] = True

        def _place_pair(g, q, q2, b1, b2):
            for k, used in enumerate(pair_used):
                if not used[g, q]:
                    pair_q2[k][g, q] = q2
                    pair_b1[k][g, q] = b1
                    pair_b2[k][g, q] = b2
                    used[g, q] = True
                    return
            pair_q2.append(np.zeros((n_g, n_g), dtype=np.int64))
            pair_b1.append(
                np.full((n_g, n_g, mask_words), ones, dtype=np.uint64)
            )
            pair_b2.append(
                np.full((n_g, n_g, mask_words), ones, dtype=np.uint64)
            )
            pair_used.append(np.zeros((n_g, n_g), dtype=bool))
            pair_q2[-1][g, q] = q2
            pair_b1[-1][g, q] = b1
            pair_b2[-1][g, q] = b2
            pair_used[-1][g, q] = True

        for key, members in products.items():
            is_identity = key == identity_key
            single_h = by_single.get(key)
            for q, g in members:
                total = costs[q] + costs[g]
                if is_identity:
                    self._uncond[g, q] = True
                    continue
                if single_h is not None and (
                    costs[single_h] < total
                    or (costs[single_h] == total and single_h < g)
                ):
                    _place_single(g, q, banned[single_h])
                for q2, g2 in members:
                    if (q2, g2) == (q, g):
                        continue
                    total2 = costs[q2] + costs[g2]
                    if total2 < total or (total2 == total and g2 < g):
                        _place_pair(g, q, q2, banned[q2], banned[g2])
        self._singles = singles
        self._pair_q2 = pair_q2
        self._pair_b1 = pair_b1
        self._pair_b2 = pair_b2
        # any_alt[g][q]: does (q, g) have any alternative at all?  One
        # gather against it narrows condition evaluation to the ~25% of
        # pairs that can fire.
        self._any_alt = self._uncond.copy()
        for used in single_used:
            self._any_alt |= used
        for used in pair_used:
            self._any_alt |= used
        self._active = bool(self._any_alt.any())

        # Per-gate byte-wise mask-permutation tables:
        # _ptab[(g * nbytes + b) * 256 + v] = OR of one-hot(t_g[8b + j])
        # over the bits j set in v (labels 8b + j < degree only).
        ptab = np.zeros((n_g * nbytes * 256, mask_words), dtype=np.uint64)
        vals = np.arange(256)
        for g in range(n_g):
            t = tables[g]
            for b in range(nbytes):
                base = (g * nbytes + b) * 256
                for j in range(8):
                    label = 8 * b + j
                    if label >= degree:
                        break
                    image = int(t[label])
                    sel = (vals >> j) & 1 == 1
                    ptab[base + vals[sel], image >> 6] |= np.uint64(
                        1
                    ) << np.uint64(image & 63)
        self._ptab = ptab if mask_words > 1 else ptab[:, 0]

    # -- evaluation --------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any relation exists for this library at all."""
        return self._active

    def permuted_masks(self, masks: np.ndarray, gates: np.ndarray) -> np.ndarray:
        """Push S-image masks through per-row gate label permutations."""
        n = masks.shape[0]
        if self._words == 1:
            m = masks.reshape(n)
            out = np.zeros(n, dtype=np.uint64)
            base = (gates.astype(np.int64) * self._nbytes) * 256
            for b in range(self._nbytes):
                byte = ((m >> np.uint64(8 * b)) & np.uint64(0xFF)).astype(
                    np.int64
                )
                out |= self._ptab[base + b * 256 + byte]
            return out.reshape(n, 1)
        bytes_view = masks.view(np.uint8).reshape(n, 8 * self._words)
        out = np.zeros((n, self._words), dtype=np.uint64)
        base = (gates.astype(np.int64) * self._nbytes) * 256
        for b in range(self._nbytes):
            idx = base + b * 256 + bytes_view[:, b].astype(np.int64)
            out |= self._ptab[idx]
        return out

    def prune(
        self, gi: int, qs: np.ndarray, pmasks: np.ndarray
    ) -> np.ndarray:
        """Skip mask for candidates extending gate-``qs`` rows by ``gi``.

        ``pmasks`` holds the (grand)parent S-image masks, ``(m, words)``.
        """
        qsl = qs.astype(np.int64)
        interesting = np.flatnonzero(self._any_alt[gi][qsl])
        if interesting.size < qsl.shape[0]:
            # Evaluate conditions only where an alternative exists.
            sub = self.prune(
                gi, qs[interesting], pmasks[interesting]
            )
            skip = np.zeros(qsl.shape[0], dtype=bool)
            skip[interesting[sub]] = True
            return skip
        m = qs.shape[0]
        skip = self._uncond[gi][qsl].copy()
        if self._words == 1:
            pm = pmasks.reshape(m)
            for arr in self._singles:
                skip |= (pm & arr[gi, :, 0][qsl]) == 0
            for k in range(len(self._pair_q2)):
                b1 = self._pair_b1[k][gi, :, 0][qsl]
                cond1 = ~skip & ((pm & b1) == 0)
                need = np.flatnonzero(cond1)
                if not need.size:
                    continue
                q2 = self._pair_q2[k][gi][qsl[need]]
                m2 = self.permuted_masks(
                    pm[need].reshape(-1, 1), q2
                ).reshape(-1)
                b2 = self._pair_b2[k][gi, :, 0][qsl[need]]
                hit = (m2 & b2) == 0
                skip[need[hit]] = True
            return skip
        for arr in self._singles:
            skip |= ((pmasks & arr[gi][qsl]) == 0).all(axis=1)
        for k in range(len(self._pair_q2)):
            b1 = self._pair_b1[k][gi][qsl]
            cond1 = ~skip & ((pmasks & b1) == 0).all(axis=1)
            need = np.flatnonzero(cond1)
            if not need.size:
                continue
            q2 = self._pair_q2[k][gi][qsl[need]]
            m2 = self.permuted_masks(pmasks[need], q2)
            b2 = self._pair_b2[k][gi][qsl[need]]
            hit = ((m2 & b2) == 0).all(axis=1)
            skip[need[hit]] = True
        return skip
