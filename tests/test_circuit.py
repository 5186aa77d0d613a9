import math
import re

import pytest
from hypothesis import given

from qcloak.circuit import Circuit, Gate, GateKind, cx, gate_counts, rx, rz, sx, x
from strategies import circuits


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
