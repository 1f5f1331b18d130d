"""A placed elementary gate on an n-qubit register.

Follows the paper's subscript convention: the **first** subscript is the
data (changed) wire, the **second** is the control wire.  ``V_BA`` applies
V to qubit B when qubit A is 1 (Figure 2a); ``F_CA`` XORs A into C
(Figure 2c).

Every gate carries two consistent semantics:

* *quaternary*: a map on :class:`~repro.mvl.patterns.Pattern` values with
  the paper's don't-care convention (identity when a control -- or either
  Feynman operand -- is non-binary), turning the gate into a permutation
  of any :class:`~repro.mvl.labels.LabelSpace`;
* *unitary*: the exact complex matrix on the full Hilbert space.

The strict application :meth:`Gate.strict_apply` refuses the don't-care
cases instead of faking identity; simulators use it to prove a cascade
never leaves the regime where the two semantics agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from weakref import WeakKeyDictionary

from repro.errors import InvalidGateError, NonBinaryControlError
from repro.gates.kinds import GateKind
from repro.linalg.constants import X, V, VDAG, cnot_matrix, controlled, single_qubit
from repro.linalg.matrix import Matrix
from repro.mvl.labels import LabelSpace
from repro.mvl.patterns import Pattern
from repro.mvl.values import Qv, apply_not, apply_v, apply_vdag
from repro.perm.permutation import Permutation


def wire_letter(wire: int) -> str:
    """Paper-style wire naming: 0 -> A, 1 -> B, 2 -> C, ..."""
    return chr(ord("A") + wire)


#: Label permutation of each gate, per label space.  Bounded by the
#: placed gates of the spaces still alive, so it never evicts.
_PERMUTATIONS: "WeakKeyDictionary[LabelSpace, dict[Gate, Permutation]]" = (
    WeakKeyDictionary()
)


@dataclass(frozen=True)
class Gate:
    """An elementary gate placed on specific wires.

    Args:
        kind: the gate alphabet member.
        target: the data wire (the wire that changes).
        control: the control wire for 2-qubit gates, ``None`` for NOT.
        n_qubits: register width the gate lives on.
    """

    kind: GateKind
    target: int
    control: int | None
    n_qubits: int

    def __post_init__(self) -> None:
        if not 0 <= self.target < self.n_qubits:
            raise InvalidGateError(
                f"target {self.target} out of range for {self.n_qubits} qubits"
            )
        if self.kind.is_two_qubit:
            if self.control is None:
                raise InvalidGateError(f"{self.kind} gate requires a control wire")
            if not 0 <= self.control < self.n_qubits:
                raise InvalidGateError(
                    f"control {self.control} out of range for {self.n_qubits} qubits"
                )
            if self.control == self.target:
                raise InvalidGateError("control and target wires must differ")
        elif self.control is not None:
            raise InvalidGateError("NOT gate takes no control wire")

    # -- constructors --------------------------------------------------------

    @classmethod
    def v(cls, target: int, control: int, n_qubits: int) -> "Gate":
        """Controlled-V with the given data and control wires."""
        return cls(GateKind.V, target, control, n_qubits)

    @classmethod
    def vdag(cls, target: int, control: int, n_qubits: int) -> "Gate":
        """Controlled-V+ with the given data and control wires."""
        return cls(GateKind.VDAG, target, control, n_qubits)

    @classmethod
    def cnot(cls, target: int, control: int, n_qubits: int) -> "Gate":
        """Feynman gate: target ^= control."""
        return cls(GateKind.CNOT, target, control, n_qubits)

    @classmethod
    def not_(cls, target: int, n_qubits: int) -> "Gate":
        """1-qubit NOT on *target*."""
        return cls(GateKind.NOT, target, None, n_qubits)

    @classmethod
    def from_name(cls, name: str, n_qubits: int) -> "Gate":
        """Parse a paper-style name such as ``V_BA``, ``V+_AB``, ``F_CA``, ``N_B``."""
        try:
            kind_text, wires = name.split("_")
            kind = GateKind(kind_text)
            target = ord(wires[0]) - ord("A")
            if kind is GateKind.NOT:
                if len(wires) != 1:
                    raise ValueError
                return cls(kind, target, None, n_qubits)
            if len(wires) != 2:
                raise ValueError
            control = ord(wires[1]) - ord("A")
            return cls(kind, target, control, n_qubits)
        except (ValueError, KeyError, IndexError):
            raise InvalidGateError(f"cannot parse gate name {name!r}") from None

    # -- identity --------------------------------------------------------------

    @cached_property
    def name(self) -> str:
        """Paper-style name: kind + data wire + control wire (``V_BA``)."""
        if self.kind is GateKind.NOT:
            return f"N_{wire_letter(self.target)}"
        return (
            f"{self.kind.value}_"
            f"{wire_letter(self.target)}{wire_letter(self.control)}"
        )

    def __str__(self) -> str:
        return self.name

    # -- relations ----------------------------------------------------------------

    def dagger(self) -> "Gate":
        """The Hermitian adjoint gate (V <-> V+; CNOT/NOT self-adjoint)."""
        return Gate(self.kind.adjoint_kind, self.target, self.control, self.n_qubits)

    def relabeled(self, wire_map: dict[int, int]) -> "Gate":
        """Move the gate to new wires (used for qubit-permutation orbits)."""
        control = None if self.control is None else wire_map[self.control]
        return Gate(self.kind, wire_map[self.target], control, self.n_qubits)

    @property
    def constrained_wires(self) -> tuple[int, ...]:
        """Wires that must be binary for the gate to act faithfully.

        For controlled gates only the control wire; for Feynman gates both
        operands (the paper's N_AB-style banned sets); NOT acts exactly on
        every quaternary value so it is never constrained.
        """
        if self.kind.is_controlled:
            return (self.control,)
        if self.kind is GateKind.CNOT:
            return (self.target, self.control)
        return ()

    # -- quaternary semantics ---------------------------------------------------------

    def apply(self, pattern: Pattern) -> Pattern:
        """Apply with the paper's don't-care convention.

        When a constrained wire is non-binary the gate acts as identity,
        which is exactly how the paper completes the truth table to make
        gates permutations ("when the control bit is equal to V0 or V1,
        the data bit will keep its value unchanged").
        """
        if self.kind is GateKind.NOT:
            return pattern.with_value(self.target, apply_not(pattern[self.target]))
        if self.kind is GateKind.CNOT:
            t, c = pattern[self.target], pattern[self.control]
            if t.is_binary and c.is_binary:
                return pattern.with_value(self.target, Qv(t.bit ^ c.bit))
            return pattern
        # controlled V / V+
        control_value = pattern[self.control]
        if control_value is Qv.ONE:
            action = apply_v if self.kind is GateKind.V else apply_vdag
            return pattern.with_value(self.target, action(pattern[self.target]))
        return pattern

    def strict_apply(self, pattern: Pattern) -> Pattern:
        """Apply, refusing the don't-care cases.

        Raises:
            NonBinaryControlError: when a constrained wire carries V0/V1,
                i.e. when :meth:`apply` would have silently used the
                identity convention that has no physical justification.
        """
        for wire in self.constrained_wires:
            if not pattern[wire].is_binary:
                raise NonBinaryControlError(
                    f"gate {self.name}: wire {wire_letter(wire)} carries "
                    f"{pattern[wire]} in pattern {pattern}"
                )
        return self.apply(pattern)

    def permutation(self, space: LabelSpace) -> Permutation:
        """The gate as a permutation of a label space."""
        if space.n_qubits != self.n_qubits:
            raise InvalidGateError(
                f"gate on {self.n_qubits} qubits vs space on {space.n_qubits}"
            )
        perms = _PERMUTATIONS.get(space)
        if perms is None:
            perms = _PERMUTATIONS.setdefault(space, {})
        perm = perms.get(self)
        if perm is None:
            perm = Permutation.from_images(space.images_from_map(self.apply))
            perms[self] = perm
        return perm

    # -- unitary semantics ---------------------------------------------------------------

    @cached_property
    def unitary(self) -> Matrix:
        """The exact unitary on the full 2**n-dimensional Hilbert space."""
        if self.kind is GateKind.NOT:
            return single_qubit(X, self.target, self.n_qubits)
        if self.kind is GateKind.CNOT:
            return cnot_matrix(self.target, self.control, self.n_qubits)
        operator = V if self.kind is GateKind.V else VDAG
        return controlled(operator, self.target, self.control, self.n_qubits)
