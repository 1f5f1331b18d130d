"""The seeded request stream of the serve workloads.

The stream is a pure function of ``(seed, store)``: the store fixes the
target pools (every S8 target of minimal cost 0..7, sorted by cycle
string so the library's internal order cannot leak in), the seed fixes
every draw.  serve-direct and serve-fleet replay the identical stream.

Mix per request: 90% ``synth``, 8% ``synth-batch`` of 32 targets, 2%
``healthz``.  A target is, with probability 0.1, a permutation beyond
the store's bound (it must come back ``cost-bound-exceeded``);
otherwise its cost level is uniform over 0..bound and the target uniform
within the level, so witness walks of every length are served.
"""

from __future__ import annotations

import hashlib
import random
import threading

SYNTH_SHARE = 0.90
BATCH_SHARE = 0.08  # the remaining 2% are healthz probes
BATCH_SIZE = 32
OUT_OF_BOUND_SHARE = 0.10
#: Level of an out-of-bound target in :class:`Stream` requests.
OUT = -1

#: sha256 of the first :data:`GOLDEN_LENGTH` requests of seed 0 against
#: the 3-qubit cost-7 store, rendered by :func:`render`.
GOLDEN_SEED = 0
GOLDEN_LENGTH = 64
GOLDEN_SHA256 = (
    "50a90ed90be23af7a47b816a4ac9b2029c7676bb6d3a633d76a357378ff6494d"
)


class TargetPools:
    """In-bound targets per cost level, and the rejection set beyond it."""

    def __init__(self, batch):
        library = batch.search.library
        #: Targets act on the radix**n basis states, not the label space.
        self.degree = library.space.radix ** library.n_qubits
        self.levels = [
            sorted(
                target.cycle_string()
                for target in batch.targets_at_cost(
                    cost, include_not_layers=True
                )
            )
            for cost in range(batch.cost_bound + 1)
        ]
        self._inbound = {spec for level in self.levels for spec in level}

    def out_of_bound(self, rng: random.Random) -> str:
        from repro.perm.permutation import Permutation

        while True:
            images = list(range(self.degree))
            for i in range(self.degree - 1, 0, -1):
                j = int(rng.random() * (i + 1))
                images[i], images[j] = images[j], images[i]
            spec = Permutation.from_images(images).cycle_string()
            if spec not in self._inbound:
                return spec


class Stream:
    """Request *j* of the stream for one seed, generated on demand.

    A request is ``(op, targets, levels)``: ``targets``/``levels`` are
    tuples (one entry for ``synth``, :data:`BATCH_SIZE` for
    ``synth-batch``, empty for ``healthz``).  Requests are produced in
    index order under a lock, so which thread asks first never changes
    the stream.
    """

    def __init__(self, seed: int | str, pools: TargetPools):
        self._rng = random.Random(seed)
        self._pools = pools
        self._requests: list[tuple] = []
        self._lock = threading.Lock()

    def __getitem__(self, index: int) -> tuple:
        with self._lock:
            while len(self._requests) <= index:
                self._requests.append(self._draw())
            return self._requests[index]

    def _target(self) -> tuple[str, int]:
        rng = self._rng
        if rng.random() < OUT_OF_BOUND_SHARE:
            return self._pools.out_of_bound(rng), OUT
        level = int(rng.random() * len(self._pools.levels))
        pool = self._pools.levels[level]
        return pool[int(rng.random() * len(pool))], level

    def _draw(self) -> tuple:
        draw = self._rng.random()
        if draw < SYNTH_SHARE:
            spec, level = self._target()
            return "synth", (spec,), (level,)
        if draw < SYNTH_SHARE + BATCH_SHARE:
            pairs = [self._target() for _ in range(BATCH_SIZE)]
            return (
                "synth-batch",
                tuple(p[0] for p in pairs),
                tuple(p[1] for p in pairs),
            )
        return "healthz", (), ()


def render(requests) -> str:
    """One text line per request (the golden-prefix form)."""
    return "".join(
        f"{op} {' '.join(targets)}\n" for op, targets, _levels in requests
    )


def golden_digest(pools: TargetPools) -> str:
    stream = Stream(GOLDEN_SEED, pools)
    text = render(stream[j] for j in range(GOLDEN_LENGTH))
    return hashlib.sha256(text.encode()).hexdigest()


def level_counts(requests, n_levels: int) -> dict:
    """Targets per cost level (``"out"`` for beyond-bound) and per op."""
    counts = {str(level): 0 for level in range(n_levels)}
    counts["out"] = 0
    ops: dict[str, int] = {}
    for op, _targets, levels in requests:
        ops[op] = ops.get(op, 0) + 1
        for level in levels:
            counts["out" if level == OUT else str(level)] += 1
    return {"targets_per_level": counts, "ops": ops}
