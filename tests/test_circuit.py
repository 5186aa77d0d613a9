import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcloak.circuit import (
    CX_CODE,
    RX_CODE,
    RZ_CODE,
    SX_CODE,
    X_CODE,
    Circuit,
    CircuitColumns,
    Gate,
    GateKind,
    cx,
    gate_columns,
    gate_counts,
    rx,
    rz,
    sx,
    x,
)
from qcloak.dag import cx_depth, to_dag
from qcloak.obfuscate import key_from_json, key_to_json
from qcloak.pipeline import PipelineConfig, encode
from qcloak.qasm import serialize_qasm
from strategies import (
    circuits,
    cx_depth_walk,
    dag_edges_walk,
    gate_bits,
    gate_counts_walk,
    gates_on,
)


def test_gate_helpers():
    assert x(2) == Gate(GateKind.X, (2,))
    assert sx(0) == Gate(GateKind.SX, (0,))
    assert rz(1.5, 1) == Gate(GateKind.RZ, (1,), 1.5)
    assert rx(-0.5, 3) == Gate(GateKind.RX, (3,), -0.5)
    assert cx(0, 1) == Gate(GateKind.CX, (0, 1))


def test_gate_arity_enforced():
    with pytest.raises(ValueError):
        Gate(GateKind.X, (0, 1))
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (0,))


def test_gate_duplicate_operands_rejected():
    with pytest.raises(ValueError):
        Gate(GateKind.CX, (1, 1))


def test_gate_angle_rules():
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,))
    with pytest.raises(ValueError):
        Gate(GateKind.RZ, (0,), float("nan"))
    with pytest.raises(ValueError):
        Gate(GateKind.X, (0,), 1.0)


@pytest.mark.parametrize(
    "kind,qubits,angle,message",
    [
        (GateKind.X, (0, 1), None, "x takes 1 qubit(s), got (0, 1)"),
        (GateKind.SX, (), None, "sx takes 1 qubit(s), got ()"),
        (GateKind.RZ, (0, 1), 0.5, "rz takes 1 qubit(s), got (0, 1)"),
        (GateKind.CX, (0,), None, "cx takes 2 qubit(s), got (0,)"),
        (GateKind.CX, (0, 1, 2), None, "cx takes 2 qubit(s), got (0, 1, 2)"),
        (GateKind.CX, (1, 1), None, "duplicate qubit operands in cx(1, 1)"),
        (GateKind.RZ, (0,), None, "rz needs a finite angle, got None"),
        (GateKind.RZ, (0,), math.nan, "rz needs a finite angle, got nan"),
        (GateKind.RZ, (0,), math.inf, "rz needs a finite angle, got inf"),
        (GateKind.RX, (0,), None, "rx needs a finite angle, got None"),
        (GateKind.RX, (0,), math.nan, "rx needs a finite angle, got nan"),
        (GateKind.RX, (0,), -math.inf, "rx needs a finite angle, got -inf"),
        (GateKind.X, (0,), 1.0, "x takes no angle"),
        (GateKind.SX, (0,), 0.0, "sx takes no angle"),
        (GateKind.CX, (0, 1), 0.5, "cx takes no angle"),
    ],
)
def test_gate_rule_table(kind, qubits, angle, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Gate(kind, qubits, angle)


def test_gate_operands_normalised_and_kind_checked():
    g = Gate(GateKind.CX, [0, 1])
    assert type(g.qubits) is tuple and g == cx(0, 1)
    assert Gate(GateKind.RX, [2], 0.5).qubits == (2,)
    with pytest.raises(TypeError, match="GateKind"):
        Gate("x", (0,))


def test_qubits_and_widths_must_be_integers():
    # numpy integers become ints; a float is a TypeError where it enters,
    # instead of landing on the qubit it truncates to
    with pytest.raises(TypeError):
        Circuit(2, (Gate(GateKind.CX, (0, 0.5)),))
    with pytest.raises(TypeError):
        Gate(GateKind.X, (1.5,))
    with pytest.raises(TypeError):
        Circuit(3, (cx(0, 1), x(2)), (0, 2.0))
    with pytest.raises(TypeError):
        Circuit(2.0, (x(0),))
    g = Gate(GateKind.CX, (np.int64(2), np.int8(0)))
    assert g == cx(2, 0) and all(type(q) is int for q in g.qubits)
    c = Circuit(np.int64(3), (g,), np.array([0, 2]))
    assert type(c.num_qubits) is int and all(type(q) is int for q in c.measured_qubits)
    assert c == Circuit(3, (cx(2, 0),), (0, 2))


def test_numpy_measured_qubits_give_a_key_json_can_write():
    c = Circuit(3, (cx(0, 1), x(2)), np.array([0, 2]))
    enc = encode(c, PipelineConfig(seed=1))
    assert key_from_json(key_to_json(enc.key)) == enc.key
    assert enc.key.measured_qubits == (0, 2)


def test_angles_stored_verbatim():
    assert rz(7.25, 0).angle == 7.25
    assert rx(-9.0, 0).angle == -9.0


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(0)
    with pytest.raises(ValueError, match=r"outside qubits 0\.\.1"):
        Circuit(2, (cx(0, 2),))
    with pytest.raises(ValueError):
        Circuit(2, (), (0, 0))
    with pytest.raises(ValueError):
        Circuit(2, (), (2,))


@pytest.mark.parametrize("gate", [x(-1), cx(0, -1), cx(-2, 1)], ids=["x", "cx_target", "cx_control"])
def test_circuit_rejects_negative_qubits(gate):
    with pytest.raises(ValueError, match=r"outside qubits 0\.\.1"):
        Circuit(2, (gate,))


def test_circuit_names_the_first_gate_out_of_range():
    gates = (x(0), sx(1), cx(1, 3), x(-1), cx(0, 1))
    with pytest.raises(ValueError, match=re.escape(f"gate {cx(1, 3)} acts outside qubits 0..2")):
        Circuit(3, gates)


def test_gate_counts_groups_sx_and_x():
    c = Circuit(3, (x(0), sx(1), sx(2), rz(1.0, 0), rx(2.0, 1), cx(0, 1), cx(1, 2)))
    counts = gate_counts(c)
    assert (counts.cx, counts.sx_plus_x, counts.rz, counts.rx) == (2, 3, 1, 1)
    assert counts.total == 7


@given(circuits(max_qubits=5, max_gates=20))
def test_gate_counts_total_matches_length(c):
    assert gate_counts(c).total == c.num_gates


# angles whose bits a column round trip could lose: signed zero, a
# subnormal-scale value, large magnitudes and exact multiples of 2*pi
EDGE_ANGLES = st.sampled_from(
    [0.0, -0.0, 1e-300, -1e-300, 1e10, -1e10, *(k * 2 * math.pi for k in (-3, -1, 1, 2, 7))]
)


@st.composite
def edge_angle_circuits(draw):
    n = draw(st.integers(1, 5))
    gates = []
    for g in draw(st.lists(gates_on(n), max_size=25)):
        if g.kind.has_angle and draw(st.booleans()):
            g = Gate(g.kind, g.qubits, draw(EDGE_ANGLES))
        gates.append(g)
    measured = draw(st.lists(st.integers(0, n - 1), unique=True))
    return Circuit(n, tuple(gates), tuple(measured))


@given(edge_angle_circuits())
def test_gate_and_column_circuits_are_one_circuit(c):
    d = Circuit.from_columns(c.num_qubits, c.columns, c.measured_qubits)
    # the library's unchecked constructor copies the caller's rows, of any
    # integer or float type, into columns of the canonical dtypes
    kind, q0, q1, angle = c.columns
    rows = [kind.astype(np.int64), q0.astype(np.int32), q1.tolist(), angle.copy()]
    r = Circuit.from_rows(c.num_qubits, rows, c.measured_qubits)
    for col in rows:
        col[:] = [1] * len(col)
    for col, dtype in zip(r.columns, (np.int8, np.int64, np.int64, np.float64)):
        assert col.dtype == dtype and not col.flags.writeable
    assert r == c and gate_bits(r) == gate_bits(c)
    walks = (gate_counts_walk(c), cx_depth_walk(c), sorted(dag_edges_walk(c)))
    # the column reads build no Gate
    for e in (c, d, r):
        n = gate_counts(e)
        edges = sorted(to_dag(e).edges)  # in wire order, not the walk's
        assert ((n.cx, n.sx_plus_x, n.rz, n.rx), cx_depth(e), edges) == walks
        assert e.num_gates == len(c.gates)
    assert "gates" not in vars(d)
    assert d == c and hash(d) == hash(c)
    assert gate_bits(d) == gate_bits(c)
    assert serialize_qasm(d) == serialize_qasm(c)
    assert d.gates is d.gates  # built once
    # a Gate-built circuit's columns round-trip to the same columns
    for got, want in zip(d.columns, c.columns):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)


def _raised(build) -> tuple[type, str]:
    with pytest.raises((ValueError, TypeError)) as info:
        build()
    return type(info.value), str(info.value)


# (num_qubits, the Gate a Gate-built circuit would hold, its column row)
BAD_ROWS = {
    "qubit_too_large": (2, (GateKind.X, (2,), None), (X_CODE, 2, -1, math.nan)),
    "negative_qubit": (2, (GateKind.SX, (-3,), None), (SX_CODE, -3, -1, math.nan)),
    "cx_target_too_large": (2, (GateKind.CX, (0, 5), None), (CX_CODE, 0, 5, math.nan)),
    "equal_cx_qubits": (2, (GateKind.CX, (1, 1), None), (CX_CODE, 1, 1, math.nan)),
    "cx_without_target": (2, (GateKind.CX, (1,), None), (CX_CODE, 1, -1, math.nan)),
    "x_with_two_qubits": (2, (GateKind.X, (0, 1), None), (X_CODE, 0, 1, math.nan)),
    "infinite_rz": (2, (GateKind.RZ, (0,), math.inf), (RZ_CODE, 0, -1, math.inf)),
    "nan_rx": (2, (GateKind.RX, (1,), math.nan), (RX_CODE, 1, -1, math.nan)),
    "angle_on_sx": (2, (GateKind.SX, (0,), 0.5), (SX_CODE, 0, -1, 0.5)),
    "angle_on_cx": (2, (GateKind.CX, (0, 1), 0.0), (CX_CODE, 0, 1, 0.0)),
}


@pytest.mark.parametrize("case", list(BAD_ROWS))
def test_invalid_columns_raise_what_gates_raise(case):
    n, (kind, qubits, angle), row = BAD_ROWS[case]
    # a valid first row, then the bad one, with and without a later row
    # that breaks a gate rule: gate rules are checked before the range
    for last, later in (((X_CODE, 1, -1, math.nan), x(1)), ((SX_CODE, 0, -1, 1.0), None)):
        rows = [(RZ_CODE, 0, -1, 0.25), row, last]
        cols = CircuitColumns(*(np.array(col) for col in zip(*rows)))

        def gates(later=later):
            bad = Gate(kind, qubits, angle)
            return (rz(0.25, 0), bad, later or Gate(GateKind.SX, (0,), 1.0))

        want = _raised(lambda: Circuit(n, gates()))
        assert _raised(lambda: Circuit.from_columns(n, cols)) == want


def test_invalid_circuit_columns_raise_what_circuit_raises():
    cols = gate_columns((x(0), cx(0, 1)))
    assert _raised(lambda: Circuit.from_columns(0, cols)) == _raised(lambda: Circuit(0, (x(0),)))
    for measured in ((0, 0), (2,), (-1,)):
        want = _raised(lambda: Circuit(2, (x(0), cx(0, 1)), measured))
        assert _raised(lambda: Circuit.from_columns(2, cols, measured)) == want
    unknown = CircuitColumns(np.array([7]), np.array([0]), np.array([-1]), np.array([math.nan]))
    with pytest.raises(ValueError, match="unknown gate kind code 7"):
        Circuit.from_columns(1, unknown)
    with pytest.raises(ValueError, match="one length"):
        Circuit.from_columns(2, cols._replace(angle=cols.angle[:1]))
