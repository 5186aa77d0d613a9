"""Parser and serializer for a QASM 2.0 subset.

Supported statements: optional `OPENQASM 2.0;` header, optional
`include "qelib1.inc";`, one `qreg name[n];`, optional `creg name[n];`,
gates `x`, `sx`, `rz(expr)`, `rx(expr)`, `cx`, `measure` (a whole register
onto an equal-size creg, or qubit i onto bit i: outcome bit i is always
qubit i), and `barrier` (parsed, discarded). Measurements are terminal: a
gate on a qubit after that qubit's `measure` is an error. Registers have at
least one bit. Angle expressions are decimal literals or pi multiples such
as `pi/2`, `2*pi`, `-pi/4`. Comments run from `//` to end of line.
"""

import math
import re

from .circuit import CX_CODE, KINDS, RX_CODE, RZ_CODE, Circuit

_CODES = {kind.value: code for code, kind in enumerate(KINDS)}

_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$", re.ASCII)
_PI_RE = re.compile(r"^([+-])?(?:(\d+\.?\d*|\.\d+)\s*\*\s*)?pi(?:\s*/\s*(\d+\.?\d*|\.\d+))?$", re.ASCII)
_REG_RE = re.compile(r"^(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$", re.ASCII)
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(\d+)\s*\])?$", re.ASCII)
_COMMENT_RE = re.compile(r"//[^\n]*")


class QasmError(ValueError):
    """Parse failure with a source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_angle(text: str, line: int) -> float:
    text = text.strip()
    if _FLOAT_RE.match(text):
        value = float(text)
    else:
        m = _PI_RE.match(text)
        if m is None:
            raise QasmError(line, f"bad angle expression '{text}'")
        sign, mult, div = m.groups()
        if div is not None and float(div) == 0:
            raise QasmError(line, f"division by zero in angle '{text}'")
        value = math.pi * float(mult or 1) / float(div or 1)
        if sign == "-":
            value = -value
    if not math.isfinite(value):
        raise QasmError(line, f"angle '{text}' is not finite")
    return value


def _statements(text: str):
    """Yield (line_number, statement) pairs, stripping comments.

    A statement's line is that of its first non-blank character; newlines
    inside a statement read as spaces."""
    parts = _COMMENT_RE.sub("", text).split(";")
    line = 1
    for k, part in enumerate(parts):
        stmt = part.strip().replace("\n", " ")
        start = line + part[: len(part) - len(part.lstrip())].count("\n")
        line += part.count("\n")
        if not stmt:
            continue
        if k == len(parts) - 1:
            raise QasmError(start, f"statement missing ';': '{stmt}'")
        yield start, stmt


class _Parser:
    def __init__(self):
        self.qreg_name = None
        self.qreg_size = 0
        self.creg_name = None
        self.creg_size = 0
        self.rows: list[tuple[int, int, int, float]] = []  # kind code, q0, q1, angle
        self.measured: dict[int, None] = {}  # a set that keeps measure order

    def qubit(self, operand: str, line: int) -> int:
        m = _OPERAND_RE.match(operand.strip())
        if m is None or m.group(2) is None:
            raise QasmError(line, f"expected an indexed qubit, got '{operand.strip()}'")
        name, idx = m.group(1), int(m.group(2))
        if self.qreg_name is None:
            raise QasmError(line, "qubit used before qreg declaration")
        if name != self.qreg_name:
            raise QasmError(line, f"unknown register '{name}'")
        if idx >= self.qreg_size:
            raise QasmError(line, f"qubit index {idx} out of range for {name}[{self.qreg_size}]")
        if idx in self.measured:
            raise QasmError(
                line, f"gate on {name}[{idx}] after its measure: measurements are terminal"
            )
        return idx

    def statement(self, line: int, stmt: str):
        head = stmt.split(None, 1)[0]
        rest = stmt[len(head):].strip()

        if head == "OPENQASM":
            if rest != "2.0":
                raise QasmError(line, f"unsupported OPENQASM version '{rest}'")
            return
        if head in ("qreg", "creg"):
            m = _REG_RE.match(stmt)
            if m is None:
                raise QasmError(line, f"bad register declaration '{stmt}'")
            _, name, size = m.groups()
            if int(size) < 1:
                raise QasmError(line, f"register {name}[{size}] must have at least one bit")
            if int(size) > 2**63:  # a qubit index is stored as an int64
                raise QasmError(line, f"register {name}[{size}] is too large")
            if head == "qreg":
                if self.qreg_name is not None:
                    raise QasmError(line, "duplicate register declaration")
                self.qreg_name, self.qreg_size = name, int(size)
            else:
                if self.creg_name is not None:
                    raise QasmError(line, "duplicate register declaration")
                self.creg_name, self.creg_size = name, int(size)
            return
        if head == "barrier":
            return
        if head == "include":
            if rest != '"qelib1.inc"':
                raise QasmError(line, f"unsupported include {rest}")
            return
        if head == "measure":
            self.measure(line, rest)
            return
        if head in ("x", "sx"):
            q = self.qubit(rest, line)
            self.rows.append((_CODES[head], q, -1, math.nan))
            return
        if head.startswith("rz") or head.startswith("rx"):
            m = re.match(r"^(rz|rx)\s*\(([^)]*)\)\s*(.*)$", stmt, re.ASCII)
            if m is None:
                raise QasmError(line, f"bad rotation statement '{stmt}'")
            kind, expr, operand = m.groups()
            angle = _parse_angle(expr, line)
            q = self.qubit(operand, line)
            self.rows.append((_CODES[kind], q, -1, angle))
            return
        if head == "cx":
            operands = rest.split(",")
            if len(operands) != 2:
                raise QasmError(line, f"cx takes two operands, got '{rest}'")
            c = self.qubit(operands[0], line)
            t = self.qubit(operands[1], line)
            if c == t:
                raise QasmError(line, "cx control equals target")
            self.rows.append((CX_CODE, c, t, math.nan))
            return
        raise QasmError(line, f"unknown gate name {head}")

    def measure(self, line: int, rest: str):
        parts = rest.split("->")
        if len(parts) != 2:
            raise QasmError(line, f"bad measure statement 'measure {rest}'")
        src, dst = parts[0].strip(), parts[1].strip()
        ms = _OPERAND_RE.match(src)
        md = _OPERAND_RE.match(dst)
        if ms is None or md is None:
            raise QasmError(line, f"bad measure operands '{rest}'")
        if self.qreg_name is None or ms.group(1) != self.qreg_name:
            raise QasmError(line, f"unknown register '{ms.group(1) if ms else src}'")
        if self.creg_name is None or md.group(1) != self.creg_name:
            raise QasmError(line, f"unknown register '{md.group(1) if md else dst}'")
        if (ms.group(2) is None) != (md.group(2) is None):
            raise QasmError(line, "measure must map register to register or bit to bit")
        if ms.group(2) is None:
            if self.creg_size != self.qreg_size:
                raise QasmError(
                    line,
                    f"measure {ms.group(1)} -> {md.group(1)}: register sizes differ "
                    f"({self.qreg_size} vs {self.creg_size})",
                )
            self.measured.update(dict.fromkeys(range(self.qreg_size)))
            return
        q = int(ms.group(2))
        b = int(md.group(2))
        if q >= self.qreg_size:
            raise QasmError(line, f"qubit index {q} out of range")
        if b >= self.creg_size:
            raise QasmError(line, f"bit index {b} out of range")
        if b != q:
            raise QasmError(
                line, f"measure {ms.group(1)}[{q}] -> {md.group(1)}[{b}]: bit i must measure qubit i"
            )
        self.measured[q] = None


def parse_qasm(text: str) -> Circuit:
    """Parse QASM subset text into a Circuit."""
    p = _Parser()
    for line, stmt in _statements(text):
        p.statement(line, stmt)
    if p.qreg_name is None:
        raise QasmError(1, "missing qreg declaration")
    # the statements were checked line by line above
    rows = tuple(zip(*p.rows)) or ((), (), (), ())
    return Circuit.from_rows(p.qreg_size, rows, tuple(p.measured))


def serialize_qasm(c: Circuit) -> str:
    """Serialize a Circuit; parse_qasm(serialize_qasm(c)) reproduces c exactly."""
    lines = ["OPENQASM 2.0;", f"qreg q[{c.num_qubits}];"]
    if c.measured_qubits:
        lines.append(f"creg c[{c.num_qubits}];")
    for k, a, b, t in zip(*(col.tolist() for col in c.columns)):
        if k == CX_CODE:
            lines.append(f"cx q[{a}],q[{b}];")
        elif k in (RZ_CODE, RX_CODE):
            lines.append(f"{KINDS[k].value}({t:.17g}) q[{a}];")
        else:
            lines.append(f"{KINDS[k].value} q[{a}];")
    for q in c.measured_qubits:
        lines.append(f"measure q[{q}] -> c[{q}];")
    return "\n".join(lines) + "\n"
