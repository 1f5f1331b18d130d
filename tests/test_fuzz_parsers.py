"""Fuzzing the text-facing parsers: they must reject garbage, not crash.

Every user-facing parser (cycle notation, gate names, pattern strings,
circuit records) either returns a valid object or raises a library error
-- never an unhandled TypeError/IndexError/ValueError from internals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.core.circuit import Circuit
from repro.gates.gate import Gate
from repro.io import circuit_from_dict
from repro.mvl.patterns import pattern_from_string
from repro.perm.permutation import Permutation

LIBRARY_ERRORS = (ReproError,)

text = st.text(
    alphabet=st.sampled_from(list("()0123456789,VF+_ABC vx")), max_size=24
)


class TestCycleStringFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            perm = Permutation.from_cycle_string(8, text)
        except LIBRARY_ERRORS:
            return
        # On success the result must round-trip semantically.
        assert perm.degree == 8
        again = Permutation.from_cycle_string(8, perm.cycle_string())
        assert again == perm

    @given(degree=st.integers(min_value=1, max_value=64), text=text)
    @settings(max_examples=200, deadline=None)
    def test_any_degree(self, degree, text):
        try:
            perm = Permutation.from_cycle_string(degree, text)
        except LIBRARY_ERRORS:
            return
        assert perm.degree == degree


def _reference_cycles(images: bytes, include_fixed: bool = False):
    """Reference copy of the two-loop ``Permutation.cycles``.

    This and the ``_reference_*`` functions below are the oracle for the
    one-pass cycle codec: same output, same exception type and message.
    """
    seen = bytearray(len(images))
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = 1
        point = images[start]
        while point != start:
            cycle.append(point)
            seen[point] = 1
            point = images[point]
        if len(cycle) > 1 or include_fixed:
            out.append(tuple(cycle))
    return out


def _reference_cycle_string(images: bytes) -> str:
    cycles = _reference_cycles(images)
    if not cycles:
        return "()"
    return "".join(
        "(" + ",".join(str(p + 1) for p in cycle) + ")" for cycle in cycles
    )


def _reference_from_cycles(degree, cycles, one_based=True) -> bytes:
    from repro.errors import InvalidPermutationError

    offset = 1 if one_based else 0
    images = list(range(degree))
    touched = set()
    for cycle in cycles:
        pts = [p - offset for p in cycle]
        for p in pts:
            if not 0 <= p < degree:
                raise InvalidPermutationError(
                    f"cycle point {p + offset} out of range for degree {degree}"
                )
            if p in touched:
                raise InvalidPermutationError(
                    f"point {p + offset} appears in two cycles"
                )
            touched.add(p)
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return bytes(images)


def _reference_from_cycle_string(degree: int, text: str) -> bytes:
    from repro.errors import InvalidPermutationError

    text = text.strip().replace(" ", "")
    if text in ("()", ""):
        if degree == 0 or degree > 256:
            raise InvalidPermutationError(f"bad degree {degree}")
        return bytes(range(degree))
    if not (text.startswith("(") and text.endswith(")")):
        raise InvalidPermutationError(f"bad cycle string {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        try:
            cycles.append([int(p) for p in chunk.split(",")])
        except ValueError:
            raise InvalidPermutationError(
                f"bad cycle string {text!r}"
            ) from None
    return _reference_from_cycles(degree, cycles, one_based=True)


def _outcome(fn, *args):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


@st.composite
def _cycle_texts(draw):
    """Cycle notation near the valid set: points from -1 to degree + 1,
    repeats, empty and overlapping cycles, stray spaces."""
    degree = draw(st.integers(min_value=-1, max_value=260))
    point = st.integers(min_value=-1, max_value=max(degree, 0) + 1)
    cycles = draw(
        st.lists(st.lists(point, max_size=6), min_size=1, max_size=5)
    )
    body = ")(".join(",".join(str(p) for p in cycle) for cycle in cycles)
    spaces = draw(st.sampled_from(["", " ", "  "]))
    return degree, f"{spaces}({body}){spaces}"


class TestCycleCodecMatchesReference:
    """The one-pass cycle codec keeps the old output and old errors."""

    @given(images=st.integers(1, 256).flatmap(
        lambda n: st.permutations(range(n))
    ))
    @settings(max_examples=300, deadline=None)
    def test_cycles_and_cycle_string(self, images):
        perm = Permutation.from_images(images)
        data = bytes(images)
        for include_fixed in (False, True):
            assert perm.cycles(include_fixed) == _reference_cycles(
                data, include_fixed
            )
        assert perm.cycle_string() == _reference_cycle_string(data)
        assert perm.is_identity == (perm.cycles() == [])

    @given(case=st.one_of(
        _cycle_texts(),
        st.tuples(st.integers(min_value=-1, max_value=260), text),
    ))
    @settings(max_examples=500, deadline=None)
    def test_from_cycle_string(self, case):
        degree, cycle_text = case
        new = _outcome(
            lambda: Permutation.from_cycle_string(degree, cycle_text).images
        )
        assert new == _outcome(_reference_from_cycle_string, degree,
                               cycle_text)


class TestGateNameFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            gate = Gate.from_name(text, 3)
        except LIBRARY_ERRORS:
            return
        assert gate.name == text.strip() or gate.name  # well-formed result

    @given(text=text)
    @settings(max_examples=150, deadline=None)
    def test_circuit_from_names(self, text):
        try:
            circuit = Circuit.from_names(text, 3)
        except LIBRARY_ERRORS:
            return
        assert circuit.n_qubits == 3


class TestPatternStringFuzz:
    @given(text=text)
    @settings(max_examples=300, deadline=None)
    def test_parse_or_clean_error(self, text):
        try:
            pattern = pattern_from_string(text)
        except LIBRARY_ERRORS:
            return
        assert pattern.n_qubits >= 1


class TestScenarioSpecFuzz:
    """Scenario specs are checked-in config: a typo'd field, negative
    rate or unknown op must fail a CI job with a one-line
    SpecificationError, never an internal traceback."""

    _scalar = st.one_of(
        st.none(), st.booleans(),
        st.integers(-10, 10**6),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=12),
        st.lists(st.text(max_size=8), max_size=3),
    )

    @given(
        data=st.dictionaries(
            st.sampled_from([
                "name", "seed", "requests", "concurrency", "targets",
                "batch_size", "arrival", "ops", "stores", "params",
                "slo", "rate", "bogus_field",
            ]),
            _scalar,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_top_level_garbage_rejected_cleanly(self, data):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario(data)
        except LIBRARY_ERRORS:
            return
        assert spec.name and spec.requests >= 1

    @given(
        ops=st.dictionaries(
            st.sampled_from([
                "synth", "synth-batch", "cost-table", "healthz",
                "synthh", "", "delete-store",
            ]),
            st.one_of(
                st.integers(-5, 5),
                st.floats(allow_nan=True, allow_infinity=True),
                st.booleans(), st.text(max_size=4),
            ),
            max_size=4,
        ),
        arrival=st.dictionaries(
            st.sampled_from(["shape", "rate", "burst", "pause", "jitter"]),
            st.one_of(
                st.sampled_from(["closed", "steady", "bursty", "poisson"]),
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-10, 10),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_ops_and_arrival_tables(self, ops, arrival):
        from repro.scenario import parse_scenario

        data = {
            "name": "fuzz", "targets": ["peres"],
            "ops": ops, "arrival": arrival,
        }
        try:
            spec = parse_scenario(data)
        except LIBRARY_ERRORS:
            return
        # Accepted specs are internally consistent: known ops only,
        # positive total weight, a legal arrival shape.
        assert all(op in ("synth", "synth-batch", "cost-table",
                          "healthz", "store-info") for op, _w in spec.ops)
        assert any(weight > 0 for _op, weight in spec.ops)
        assert spec.arrival.shape in ("closed", "steady", "bursty")

    @given(targets=st.lists(text, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_target_pool_garbage(self, targets):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario({"name": "fuzz", "targets": targets})
        except LIBRARY_ERRORS:
            return
        assert len(spec.targets) == len(targets)

    @given(
        slo=st.dictionaries(
            st.sampled_from([
                "p50_ms", "p99_ms", "max_error_rate", "max_shed_rate",
                "allowed_error_codes", "p75_ms",
            ]),
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.integers(-5, 5), st.booleans(),
                st.lists(st.text(max_size=6), max_size=3),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_slo_table_garbage(self, slo):
        from repro.scenario import parse_scenario

        try:
            spec = parse_scenario(
                {"name": "fuzz", "targets": ["peres"], "slo": slo}
            )
        except LIBRARY_ERRORS:
            return
        for bar in (spec.slo.max_error_rate, spec.slo.max_shed_rate):
            assert bar is None or 0 <= bar <= 1


class TestCircuitRecordFuzz:
    @given(
        record=st.fixed_dictionaries(
            {},
            optional={
                "n_qubits": st.one_of(st.integers(-2, 5), st.text(max_size=3)),
                "gates": st.lists(text, max_size=4),
            },
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_malformed_records_rejected_cleanly(self, record):
        try:
            circuit = circuit_from_dict(record)
        except LIBRARY_ERRORS:
            return
        assert isinstance(circuit, Circuit)


@pytest.fixture(scope="module")
def query_state(tmp_path_factory):
    from repro.core.search import CascadeSearch
    from repro.core.store import save_search
    from repro.gates.library import GateLibrary
    from repro.server.service import open_store_state

    path = tmp_path_factory.mktemp("fuzz-query") / "closure.rpro"
    search = CascadeSearch(GateLibrary(3), track_parents=True)
    search.extend_to(2)
    save_search(search, path)
    return open_store_state(str(path))


class TestQueryParamsFuzz:
    """Query params: a clean error or an answer, never a coerced flag."""

    #: The boolean flags each store query reads.
    FLAGS = {
        "synth": ("all", "allow_not"),
        "synth-batch": ("allow_not",),
        "cost-table": ("include_members",),
    }
    _value = st.one_of(
        st.none(), st.booleans(), st.integers(-2, 4),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["true", "false", "1", "0", "", "swap_bc"]),
        st.lists(st.sampled_from(["swap_bc", "(1,2)", "x"]), max_size=3),
    )

    @given(
        op=st.sampled_from(sorted(FLAGS)),
        params=st.dictionaries(
            st.sampled_from([
                "target", "targets", "cost_bound", "all", "allow_not",
                "include_members",
            ]),
            _value,
            max_size=5,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_flags_and_bounds_are_never_coerced(self, query_state, op,
                                                params):
        from repro.server.service import execute_query

        try:
            payload = execute_query(query_state, op, params)
        except LIBRARY_ERRORS:
            return
        assert isinstance(payload, dict)
        for flag in self.FLAGS[op]:
            if flag in params:
                assert isinstance(params[flag], bool), (flag, params)
        bound = params.get("cost_bound")
        assert bound is None or (
            type(bound) is int and 0 <= bound <= 2
        ), params
