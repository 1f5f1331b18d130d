"""MCE -- the paper's Minimum_Cost_Expressing algorithm.

Given a reversible target g (a permutation of the 2**n binary patterns),
produce a minimum-quantum-cost cascade of library gates realizing it,
with an optional *free* layer of NOT gates in front:

1. Normalize by Theorem 2: pick the NOT layer d0 with ``(d0 * g)`` fixing
   the all-zero pattern (``d0`` is the XOR-mask ``g^{-1}(0)``), so the
   remainder lies in G = Stab(all-zeros), the set reachable without NOT.
2. Search B[1], B[2], ... for a cascade permutation b with b(S) = S whose
   restriction to S equals the remainder; the first hit is cost-minimal
   (Theorem 3).
3. Walk the parent pointers to extract the witness cascade.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    CostBoundExceededError,
    InvalidValueError,
    SpecificationError,
    StoreError,
)
from repro.core.circuit import Circuit
from repro.core.cost import CostModel, UNIT_COST
from repro.core.search import CascadeSearch
from repro.gates.gate import Gate
from repro.gates.library import GateLibrary
from repro.gates.named import not_layer_permutation
from repro.perm.permutation import Permutation

#: Practical default for the enumeration bound; the paper used cb = 7
#: ("the upper-bound cost that we can apply in a particular computer").
DEFAULT_COST_BOUND = 7


@dataclass(frozen=True)
class SynthesisResult:
    """A synthesized implementation of a reversible target.

    Attributes:
        target: the requested permutation of binary patterns.
        circuit: full cascade including the (free) NOT layer, if any.
        cost: quantum cost of the 2-qubit part (the minimal cost).
        not_mask: XOR mask of the leading NOT layer (0 if none).
        cascade_permutation: the label permutation of the 2-qubit part.
    """

    target: Permutation
    circuit: Circuit
    cost: int
    not_mask: int
    cascade_permutation: Permutation

    @property
    def two_qubit_circuit(self) -> Circuit:
        """The cascade without the leading NOT layer."""
        return Circuit(
            tuple(g for g in self.circuit.gates if g.kind.is_two_qubit),
            self.circuit.n_qubits,
        )

    def __str__(self) -> str:
        return f"{self.circuit} (cost {self.cost})"


#: (mask, n_qubits) -> the NOT layer's permutation and gates, built on
#: first use; 2**n entries per register width.
_NOT_LAYERS: dict[tuple[int, int], tuple[Permutation, tuple[Gate, ...]]] = {}


def _not_layer(
    mask: int, n_qubits: int
) -> tuple[Permutation, tuple[Gate, ...]]:
    """The NOT layer of *mask*: its permutation and one NOT per set bit
    (wire 0 = most significant)."""
    layer = _NOT_LAYERS.get((mask, n_qubits))
    if layer is None:
        gates = tuple(
            Gate.not_(wire, n_qubits)
            for wire in range(n_qubits)
            if (mask >> (n_qubits - 1 - wire)) & 1
        )
        layer = (not_layer_permutation(mask, n_qubits), gates)
        _NOT_LAYERS[mask, n_qubits] = layer
    return layer


def _check_target(target: Permutation, library: GateLibrary) -> None:
    expected = library.space.n_binary
    if target.degree != expected:
        raise SpecificationError(
            f"target degree {target.degree} != {expected} binary patterns "
            f"of a {library.n_qubits}-qubit register"
        )


def express(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel = UNIT_COST,
    search: CascadeSearch | None = None,
    allow_not: bool = True,
) -> SynthesisResult:
    """Synthesize one minimum-cost implementation of *target*.

    Args:
        target: permutation of the 2**n binary patterns (degree 2**n).
        library: gate library to draw 2-qubit gates from.
        cost_bound: the paper's ``cb``; the search is abandoned beyond it.
        cost_model: integer gate costs.
        search: reusable parent-tracking search engine (one is created on
            demand; passing a shared engine amortizes the BFS across many
            syntheses, which is how the benchmarks regenerate Table 2 and
            all figures from a single closure).
        allow_not: permit the free NOT layer of Theorem 2.  When False,
            only targets fixing the all-zero pattern are expressible.

    Raises:
        CostBoundExceededError: no realization within *cost_bound*.
        SpecificationError: degree mismatch, or the target needs a NOT
            layer while ``allow_not=False``.
    """
    results = _express_impl(
        target, library, cost_bound, cost_model, search, allow_not, first_only=True
    )
    return results[0]


def express_all(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel = UNIT_COST,
    search: CascadeSearch | None = None,
    allow_not: bool = True,
) -> list[SynthesisResult]:
    """All minimum-cost implementations distinguishable at the label level.

    Each distinct cascade *permutation* restricting to the target yields
    one witness circuit (the paper reports 2 such implementations for
    Peres and 4 for Toffoli).  Distinct gate orderings realizing the same
    label permutation are represented by a single witness, matching the
    paper's remark that the algorithm "does not intend to find all
    possible implementations".
    """
    return _express_impl(
        target, library, cost_bound, cost_model, search, allow_not, first_only=False
    )


def normalize_target(
    target: Permutation, library: GateLibrary, allow_not: bool = True
) -> tuple[int, Permutation, tuple[Gate, ...]]:
    """Theorem 2 normalization: strip the free NOT layer off a target.

    Returns ``(not_mask, remainder, not_gates)`` where ``remainder``
    fixes the all-zero pattern and ``target = d0(not_mask) * remainder``
    (``d0`` is an involution), so synthesizing the NOT-free remainder
    synthesizes the target.

    Raises:
        SpecificationError: degree mismatch, or the target needs a NOT
            layer while ``allow_not=False``.
    """
    _check_target(target, library)
    if library.space.radix != 2:
        # Theorem 2 is a binary statement: MV libraries have no free NOT
        # layer, so the target is searched for as-is.
        return 0, target, ()
    zero_preimage = target.images.index(0)
    not_mask = zero_preimage if allow_not else 0
    if not allow_not and zero_preimage != 0:
        raise SpecificationError(
            "target moves the all-zero pattern; it needs a NOT layer "
            "(allow_not=True) since no NOT-free cascade can move it"
        )
    d0, not_gates = _not_layer(not_mask, library.n_qubits)
    remainder = d0 * target  # g = d0 * remainder with d0 an involution
    return not_mask, remainder, not_gates


def _not_layer_result(
    target: Permutation,
    library: GateLibrary,
    not_mask: int,
    not_gates: tuple[Gate, ...],
) -> SynthesisResult:
    """The cost-0 result for a target that is (at most) a pure NOT layer."""
    return SynthesisResult(
        target=target,
        circuit=Circuit(not_gates, library.n_qubits),
        cost=0,
        not_mask=not_mask,
        cascade_permutation=Permutation.identity(library.space.size),
    )


def _results_from_rows(
    rows,
    search: CascadeSearch,
    target: Permutation,
    remainder: Permutation,
    not_mask: int,
    not_gates: tuple[Gate, ...],
    cost_model: CostModel,
    first_only: bool,
) -> list[SynthesisResult]:
    """Turn matching *global closure rows* into witness-backed results.

    Witness extraction walks parent arrays directly by row -- the path
    shared by the level scan here, by
    :class:`~repro.core.batch.BatchSynthesizer` and by the v2 store's
    serialized remainder index (no byte-level lookups, O(cost) per
    witness).

    Every witness is checked before it is returned: its gates, composed
    from the identity, must give the permutation stored at its row, and
    that permutation must restrict to *remainder*.

    Raises:
        StoreError: the closure's rows, parents, gate ids or index are
            corrupted.
    """
    library = search.library
    wanted = remainder.images
    identity = Permutation.identity(library.space.size).images
    results = []
    for row in rows:
        row = int(row)
        try:
            indices = search.witness_indices_for_row(row)
            row_images = search.perm_bytes_at(row)
        except (InvalidValueError, IndexError) as exc:
            raise StoreError(
                f"closure row {row} is unreadable: {exc}"
            ) from None
        images = identity
        gates = []
        for i in indices:
            entry = library[i]
            images = images.translate(entry.table)
            gates.append(entry.gate)
        if images != row_images or images[: len(wanted)] != wanted:
            raise StoreError(
                f"the witness of closure row {row} does not realize the "
                "row's permutation and the requested remainder; the "
                "closure data is corrupted"
            )
        results.append(
            SynthesisResult(
                target=target,
                circuit=Circuit(not_gates + tuple(gates), library.n_qubits),
                cost=sum(cost_model.gate_cost(gate.kind) for gate in gates),
                not_mask=not_mask,
                cascade_permutation=Permutation(images),
            )
        )
        if first_only:
            break
    return results


def _express_impl(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int,
    cost_model: CostModel,
    search: CascadeSearch | None,
    allow_not: bool,
    first_only: bool,
) -> list[SynthesisResult]:
    not_mask, remainder, not_gates = normalize_target(target, library, allow_not)

    if remainder.is_identity:
        return [_not_layer_result(target, library, not_mask, not_gates)]

    if search is None:
        search = CascadeSearch(library, cost_model, track_parents=True)
    elif not search.tracks_parents:
        raise SpecificationError("express() needs a parent-tracking search")

    wanted = remainder.images  # first 2**n bytes of a matching cascade
    for cost in range(1, cost_bound + 1):
        # One vectorized boolean reduction per level instead of a Python
        # scan over every cascade permutation.
        rows = search.find_matching_rows(cost, wanted)
        if rows:
            return _results_from_rows(
                rows, search, target, remainder, not_mask, not_gates,
                cost_model, first_only,
            )
    raise CostBoundExceededError(
        f"permutation {target.cycle_string()}", cost_bound
    )


def minimal_cost(
    target: Permutation,
    library: GateLibrary,
    cost_bound: int = DEFAULT_COST_BOUND,
    cost_model: CostModel = UNIT_COST,
    search: CascadeSearch | None = None,
) -> int:
    """The minimal quantum cost of a target (convenience wrapper)."""
    return express(
        target, library, cost_bound, cost_model, search
    ).cost
