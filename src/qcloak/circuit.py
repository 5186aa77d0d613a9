"""Circuit intermediate representation over the {X, SX, RZ, RX, CX} basis.

A Circuit stores its gates as columns (CircuitColumns: kind codes, two qubit
columns and an angle column), from parsing to serializing: every pass reads
and builds columns, and a block partition is one column set too, its blocks
row ranges of it (partition.BlockPartition). Gate and Block objects exist
only at the public edges: a Circuit, Block or BlockPartition built from them
converts them once, and .gates and .blocks build them from the columns when
they are read.
"""

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np


class GateKind(Enum):
    X = "x"
    SX = "sx"
    RZ = "rz"
    RX = "rx"
    CX = "cx"

    @property
    def arity(self) -> int:
        return 2 if self is GateKind.CX else 1

    @property
    def has_angle(self) -> bool:
        return self in (GateKind.RZ, GateKind.RX)


@dataclass(frozen=True)
class Gate:
    """One gate instance. Angles are stored as given, never reduced mod 2*pi."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        qubits = self.qubits
        if type(qubits) is not tuple:
            qubits = tuple(qubits)
            object.__setattr__(self, "qubits", qubits)
        kind = self.kind
        if type(kind) is not GateKind:
            raise TypeError(f"gate kind must be a GateKind, got {kind!r}")
        if len(qubits) != kind.arity:
            raise ValueError(f"{kind.value} takes {kind.arity} qubit(s), got {qubits}")
        if kind is GateKind.CX and qubits[0] == qubits[1]:
            raise ValueError(f"duplicate qubit operands in {kind.value}{qubits}")
        if kind.has_angle:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{kind.value} needs a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{kind.value} takes no angle")


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def sx(q: int) -> Gate:
    return Gate(GateKind.SX, (q,))


def rz(theta: float, q: int) -> Gate:
    return Gate(GateKind.RZ, (q,), float(theta))


def rx(theta: float, q: int) -> Gate:
    return Gate(GateKind.RX, (q,), float(theta))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control, target))


# Column kind codes, shared with synthesis.Candidates; KINDS[code] is the kind.
RZ_CODE, SX_CODE, X_CODE, CX_CODE, RX_CODE = range(5)
KINDS = (GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX, GateKind.RX)
_CODES = {kind: code for code, kind in enumerate(KINDS)}


class CircuitColumns(NamedTuple):
    """A gate sequence as columns, row i the i-th gate: kind codes (int8), the
    qubit or a CX's control (q0), a CX's target or -1 (q1), and the angle of
    an RZ or RX or NaN (angle)."""

    kind: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    angle: np.ndarray

    def gates(self, start: int = 0, stop: int | None = None) -> tuple[Gate, ...]:
        """Rows start:stop as Gates, each built and checked by Gate."""
        rows = (col[start:stop].tolist() for col in self)
        # t != t: NaN, no angle
        return tuple(
            [
                Gate(KINDS[k], (a,) if b == -1 else (a, b), None if t != t else t)
                for k, a, b, t in zip(*rows)
            ]
        )


def gate_columns(gates) -> CircuitColumns:
    """Columns of a sequence of Gates."""
    gates = tuple(gates)
    return CircuitColumns(
        np.array([_CODES[g.kind] for g in gates], dtype=np.int8),
        np.array([g.qubits[0] for g in gates], dtype=np.int64),
        np.array([g.qubits[1] if len(g.qubits) == 2 else -1 for g in gates], dtype=np.int64),
        np.array([math.nan if g.angle is None else g.angle for g in gates], dtype=float),
    )


def _checked_columns(num_qubits: int, cols, gates=None) -> CircuitColumns:
    """Read-only copies of the columns after the checks Gate and Circuit run
    on the same gates, with their errors: the first row that breaks a gate
    rule raises as Gate raises for it, then a non-positive num_qubits, then
    the first gate outside the qubits. gates, the Gates the columns came
    from, if given, checked their own rules and name the gate outside (in
    columns, a CX's target -1 would read as no target)."""
    kind, q0, q1, angle = (np.asarray(col) for col in cols)
    if any(col.ndim != 1 or len(col) != len(kind) for col in (kind, q0, q1, angle)):
        raise ValueError("gate columns must be 1-D and of one length")
    integral = all(col.dtype.kind in "iu" for col in (kind, q0, q1))
    if len(kind) and not (integral and angle.dtype.kind == "f"):
        raise TypeError("kind and qubit columns must be integers, angles floats")
    kind, q0, q1 = kind.astype(np.int64), q0.astype(np.int64), q1.astype(np.int64)
    angle = angle.astype(float)
    is_cx = kind == CX_CODE
    if gates is None:
        unknown = (kind < 0) | (kind >= len(KINDS))
        if unknown.any():
            raise ValueError(f"unknown gate kind code {kind[np.argmax(unknown)]}")
        angled = (kind == RZ_CODE) | (kind == RX_CODE)
        broken = (
            (is_cx != (q1 != -1))
            | (is_cx & (q0 == q1))
            | np.where(angled, ~np.isfinite(angle), ~np.isnan(angle))
        )
        if broken.any():
            _row_gate(kind, q0, q1, angle, int(np.argmax(broken)))  # raises Gate's error
    if num_qubits < 1:
        raise ValueError("num_qubits must be positive")
    outside = (q0 < 0) | (q0 >= num_qubits) | (is_cx & ((q1 < 0) | (q1 >= num_qubits)))
    if outside.any():
        i = int(np.argmax(outside))
        g = _row_gate(kind, q0, q1, angle, i) if gates is None else gates[i]
        raise ValueError(f"gate {g} acts outside qubits 0..{num_qubits - 1}")
    out = CircuitColumns(kind.astype(np.int8), q0, q1, angle)
    for col in out:
        col.setflags(write=False)
    return out


def _row_gate(kind, q0, q1, angle, i: int) -> Gate:
    """Row i as a Gate: a row that breaks a gate rule raises Gate's error.
    NaN is a missing angle, except on RZ and RX, where it is the angle."""
    k, b, t = int(kind[i]), int(q1[i]), float(angle[i])
    qubits = (int(q0[i]),) if b == -1 else (int(q0[i]), b)
    return Gate(KINDS[k], qubits, None if math.isnan(t) and k not in (RZ_CODE, RX_CODE) else t)


@dataclass(frozen=True, init=False)
class Circuit:
    """Ordered gate list over num_qubits wires, stored as read-only columns.

    Gate order is execution order. Qubit 0 is the least significant bit of
    every basis-state index and the rightmost character of outcome strings.

    Circuit(n, gates, measured) converts its Gates to columns once;
    Circuit.from_columns takes columns. Both run the same checks, with the
    errors Gate and Circuit raise for the same gates. .gates builds the
    Gates from the columns on its first read and keeps them; equality and
    hashing compare them.
    """

    num_qubits: int
    # a cached_property as a field: dataclass equality, hashing, repr and
    # replace read it, and only a read builds the Gates
    gates: tuple[Gate, ...] = functools.cached_property(lambda c: c.columns.gates())
    measured_qubits: tuple[int, ...] = ()
    columns: CircuitColumns = field(init=False, repr=False, compare=False)

    def __init__(self, num_qubits: int, gates=(), measured_qubits=()):
        gates = tuple(gates)
        self._store(num_qubits, gate_columns(gates), measured_qubits, gates)

    @classmethod
    def from_columns(cls, num_qubits: int, columns, measured_qubits=()) -> "Circuit":
        """A circuit whose gates are the rows of columns (a CircuitColumns or
        any (kind, q0, q1, angle) sequence)."""
        c = object.__new__(cls)
        c._store(num_qubits, columns, measured_qubits)
        return c

    def _store(self, num_qubits: int, columns, measured_qubits, gates=None) -> None:
        cols = _checked_columns(num_qubits, columns, gates)
        measured = tuple(measured_qubits)
        if len(set(measured)) != len(measured):
            raise ValueError("duplicate measured qubit")
        for q in measured:
            if not 0 <= q < num_qubits:
                raise ValueError(f"measured qubit {q} out of range")
        self.__dict__.update(num_qubits=num_qubits, columns=cols, measured_qubits=measured)

    @property
    def num_gates(self) -> int:
        return len(self.columns.kind)


def offsets(sizes) -> np.ndarray:
    """Offsets of consecutive runs of the given sizes, one more than runs."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The runs starts[i] .. starts[i] + sizes[i] - 1, concatenated."""
    sizes = np.asarray(sizes, dtype=np.int64)
    at = offsets(sizes)
    return np.repeat(np.asarray(starts, dtype=np.int64) - at[:-1], sizes) + np.arange(at[-1])


def group_ranks(owner: np.ndarray, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank among the entries with its owner (an int64 array of
    0 .. groups - 1), in entry order, and each owner's entry count."""
    count = np.bincount(owner, minlength=groups)
    order = np.argsort(owner, kind="stable")
    rank = np.empty(len(owner), dtype=np.int64)
    rank[order] = np.arange(len(owner)) - offsets(count)[owner[order]]
    return rank, count


def join_columns(sets) -> CircuitColumns:
    """The rows of the column sets, in order, as one column set."""
    return CircuitColumns(*(np.concatenate(cols) for cols in zip(gate_columns(()), *sets)))


@dataclass(frozen=True)
class GateCounts:
    cx: int
    sx_plus_x: int
    rz: int
    rx: int

    @property
    def total(self) -> int:
        return self.cx + self.sx_plus_x + self.rz + self.rx


def gate_counts(c: Circuit) -> GateCounts:
    """Per-kind gate tallies from the kind column; SX and X are grouped as on
    hardware."""
    n = np.bincount(c.columns.kind, minlength=len(KINDS)).tolist()
    return GateCounts(cx=n[CX_CODE], sx_plus_x=n[SX_CODE] + n[X_CODE], rz=n[RZ_CODE], rx=n[RX_CODE])
