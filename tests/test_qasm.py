import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcloak.circuit import Circuit, cx, rx, rz, sx, x
from qcloak.qasm import QasmError, _statements, parse_qasm, serialize_qasm
from strategies import circuits, loop_statements


def test_parse_minimal():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nx q[0];\ncx q[0],q[1];\n")
    assert c == Circuit(2, (x(0), cx(0, 1)))


def test_parse_angles():
    text = (
        "qreg q[1];\n"
        "rz(pi/2) q[0];\n"
        "rx(-pi/4) q[0];\n"
        "rz(2*pi) q[0];\n"
        "rx(0.5) q[0];\n"
        "rz(1e-3) q[0];\n"
    )
    c = parse_qasm(text)
    angles = [g.angle for g in c.gates]
    assert angles == [math.pi / 2, -math.pi / 4, 2 * math.pi, 0.5, 1e-3]


def test_parse_measure_register_and_bit():
    c = parse_qasm("qreg q[3];\ncreg c[3];\nmeasure q -> c;\n")
    assert c.measured_qubits == (0, 1, 2)
    c = parse_qasm("qreg q[3];\ncreg c[3];\nmeasure q[2] -> c[2];\n")
    assert c.measured_qubits == (2,)


def test_parse_comments_and_barrier():
    c = parse_qasm("qreg q[1]; // register\nbarrier q;\nx q[0]; // flip\n")
    assert c == Circuit(1, (x(0),))


def test_parse_standard_include_ignored():
    c = parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n')
    assert c == Circuit(1, (x(0),))
    with pytest.raises(QasmError, match='line 1: unsupported include "other.inc"'):
        parse_qasm('include "other.inc";\nqreg q[1];\n')


def test_unknown_gate_message():
    with pytest.raises(QasmError, match="line 2: unknown gate name h"):
        parse_qasm("qreg q[1];\nh q[0];\n")


def test_error_line_numbers():
    # the parser's own errors come before the column checks' ValueErrors
    with pytest.raises(QasmError, match="line 3"):
        parse_qasm("qreg q[2];\nx q[0];\ncx q[0],q[0];\n")
    with pytest.raises(QasmError, match="^line 4: cx control equals target$"):
        parse_qasm("qreg q[2];\nx q[0];\n\ncx q[1],q[1];\n")
    with pytest.raises(QasmError, match=r"^line 3: qubit index 2 out of range for q\[2\]$"):
        parse_qasm("qreg q[2];\ncx q[0],q[1];\nrz(0.5) q[2];\n")
    with pytest.raises(QasmError, match="line 1: missing qreg"):
        parse_qasm("OPENQASM 2.0;\n")


@pytest.mark.parametrize(
    "stmt",
    [
        "X q[0];",
        "SX q[0];",
        "CX q[0],q[1];",
        "RZ(pi) q[0];",
        "Rx(pi) q[0];",
        "MEASURE q -> c;",
        "BARRIER q;",
        'INCLUDE "qelib1.inc";',
        "openqasm 2.0;",
        "QREG q[1];",
    ],
    ids=lambda stmt: stmt.split()[0],
)
def test_keywords_are_case_sensitive(stmt):
    # OpenQASM 2.0 names are case-sensitive: only the spellings serialize_qasm
    # writes parse
    head = stmt.split()[0]
    with pytest.raises(QasmError, match=rf"^line 3: unknown gate name {re.escape(head)}$"):
        parse_qasm(f"qreg q[2];\ncreg c[2];\n{stmt}\n")


def test_parse_errors():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm("qreg q[2];\nx q[5];\n")
    with pytest.raises(QasmError, match="bad angle"):
        parse_qasm("qreg q[1];\nrz(pi*pi) q[0];\n")
    with pytest.raises(QasmError, match="line 2: division by zero in angle 'pi/0'"):
        parse_qasm("qreg q[1];\nrz(pi/0) q[0];\n")
    with pytest.raises(QasmError, match="line 2: angle '1e999' is not finite"):
        parse_qasm("qreg q[1];\nrz(1e999) q[0];\n")
    with pytest.raises(QasmError, match="missing ';'"):
        parse_qasm("qreg q[1];\nx q[0]\n")
    with pytest.raises(QasmError, match="unsupported OPENQASM"):
        parse_qasm("OPENQASM 3.0;\nqreg q[1];\n")
    with pytest.raises(QasmError, match="unknown register"):
        parse_qasm("qreg q[1];\nx r[0];\n")
    with pytest.raises(QasmError, match=r"^line 1: register q\[0\] must have at least one bit$"):
        parse_qasm("qreg q[0];\n")
    with pytest.raises(QasmError, match=r"^line 2: register c\[0\] must have at least one bit$"):
        parse_qasm("qreg q[2];\ncreg c[0];\n")
    # the largest index of a register of 2**63 qubits still fits the int64 column
    assert parse_qasm(f"qreg q[{2**63}];\nx q[{2**63 - 1}];\n").columns.q0[0] == 2**63 - 1
    with pytest.raises(QasmError, match=rf"^line 1: register q\[{2**63 + 1}\] is too large$"):
        parse_qasm(f"qreg q[{2**63 + 1}];\nx q[{2**63}];\n")
    with pytest.raises(QasmError, match=r"^line 3: measure q -> c: register sizes differ \(2 vs 3\)$"):
        parse_qasm("qreg q[2];\ncreg c[3];\nmeasure q -> c;\n")
    with pytest.raises(QasmError, match=r"^line 3: measure q\[1\] -> c\[0\]: bit i must measure qubit i$"):
        parse_qasm("qreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];\n")


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("qreg q[٣];\n", 1, id="arabic-indic-register-size"),
        pytest.param("qreg q[３];\n", 1, id="fullwidth-register-size"),
        pytest.param("qreg q[3];\nx q[١];\n", 2, id="qubit-index"),
        pytest.param("qreg q[3];\nrz(1.5) q[١];\n", 2, id="rotation-operand"),
        pytest.param("qreg q[3];\nrz(١.٥) q[1];\n", 2, id="decimal-angle"),
        pytest.param("qreg q[1];\nrx(1e٣) q[0];\n", 2, id="exponent"),
        pytest.param("qreg q[1];\nrz(٢*pi) q[0];\n", 2, id="pi-multiple"),
        pytest.param("qreg q[1];\nrz(pi/٢) q[0];\n", 2, id="pi-divisor"),
        pytest.param("qreg q[2];\ncreg c[2];\nmeasure q[١] -> c[١];\n", 3, id="measure"),
    ],
)
def test_non_ascii_digits_are_rejected(text, line):
    # OpenQASM 2.0's grammar is ASCII, though Python's \d, int() and float()
    # read any Unicode decimal digit
    with pytest.raises(QasmError, match=rf"^line {line}: "):
        parse_qasm(text)


HEAD2 = "qreg q[2];\ncreg c[2];\n"


@pytest.mark.parametrize(
    "body, line, qubit",
    [
        pytest.param("measure q[0] -> c[0];\nx q[0];\n", 4, 0, id="x-after-measure"),
        pytest.param("measure q[1] -> c[1];\nsx q[0];\ncx q[0],q[1];\n", 5, 1, id="cx-target"),
        pytest.param("measure q -> c;\nrz(pi/2) q[1];\n", 4, 1, id="measure-register"),
    ],
)
def test_gate_after_measure_is_rejected(body, line, qubit):
    # QASM runs a gate after the measure, so hoisting it would change the outcome
    with pytest.raises(QasmError, match=rf"^line {line}: gate on q\[{qubit}\] after its measure"):
        parse_qasm(HEAD2 + body)


def test_gate_on_unmeasured_qubit_after_a_measure_is_accepted():
    c = parse_qasm(HEAD2 + "measure q[0] -> c[0];\nbarrier q;\nx q[1];\nmeasure q[1] -> c[1];\n")
    assert c.gates == (x(1),) and c.measured_qubits == (0, 1)


def test_serialize_golden():
    c = Circuit(2, (sx(0), rz(math.pi / 2, 1), cx(1, 0)), (0, 1))
    assert serialize_qasm(c) == (
        "OPENQASM 2.0;\n"
        "qreg q[2];\n"
        "creg c[2];\n"
        "sx q[0];\n"
        "rz(1.5707963267948966) q[1];\n"
        "cx q[1],q[0];\n"
        "measure q[0] -> c[0];\n"
        "measure q[1] -> c[1];\n"
    )


def test_angle_precision_survives_round_trip():
    edges = (rz(-0.0, 0), rz(1e-300, 0), rx(6.283185307179586, 0))
    for gate in (rx(0.1234567890123456789, 0), *edges):
        text = serialize_qasm(Circuit(1, (gate,)))
        back = parse_qasm(text)
        assert back.gates[0].angle.hex() == gate.angle.hex()  # the sign of -0.0 too
        assert serialize_qasm(back) == text


@given(circuits(max_qubits=5, max_gates=20, measure_all=False))
def test_round_trip_exact(c):
    assert parse_qasm(serialize_qasm(c)) == c


def _tokenized(tokenize, text: str):
    try:
        return list(tokenize(text))
    except QasmError as e:
        return ("error", e.line, str(e))


@given(st.lists(st.sampled_from([";", "/", "//", "\n", "\r\n", "\t", " ", "x", "q[0]"]), max_size=40))
@settings(max_examples=500)
def test_statements_match_character_loop(tokens):
    text = "".join(tokens)
    assert _tokenized(_statements, text) == _tokenized(loop_statements, text)

