"""Circuit intermediate representation over the {X, SX, RZ, RX, CX} basis.

A Circuit stores its gates as columns (CircuitColumns: kind codes, two qubit
columns and an angle column), from parsing to serializing: every pass reads
and builds columns, and a block partition is one column set too, its blocks
row ranges of it (partition.BlockPartition). Gate and Block objects exist
only at the public edges: a Circuit, Block or BlockPartition built from them
converts them once, and .gates and .blocks build them from the columns when
they are read. A circuit is checked once, where it enters (Circuit(...),
Circuit.from_columns, qasm.parse_qasm): the passes build theirs with the
unchecked Circuit.from_rows.
"""

import functools
import math
import operator
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
        # qubits are integers: numpy integers become ints, floats raise
        qubits = tuple(map(operator.index, self.qubits))
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
        """Rows start:stop as Gates, each built and checked by Gate. NaN is a
        missing angle, except on RZ and RX, where it is the angle."""
        rows = (col[start:stop].tolist() for col in self)
        return tuple(
            [
                Gate(
                    KINDS[k],
                    (a,) if b == -1 else (a, b),
                    t if t == t or k in (RZ_CODE, RX_CODE) else None,  # t != t: NaN
                )
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


@dataclass(frozen=True, init=False)
class Circuit:
    """Ordered gate list over num_qubits wires, stored as read-only columns.

    Gate order is execution order. Qubit 0 is the least significant bit of
    every basis-state index and the rightmost character of outcome strings.

    Each rule has one home: Gate checks a gate, Circuit(n, gates, measured)
    the width, that every gate lies on the qubits and the measured qubits,
    and converts the Gates to columns once. Circuit.from_columns checks the
    columns' shape, dtypes and kind codes, then builds each row's Gate and
    calls Circuit(...), so it raises what they raise. Circuit.from_rows
    checks nothing: the library builds every circuit it makes from rows that
    are valid by construction, each input having been checked where it
    entered. .gates builds the Gates from the columns on its first read and
    keeps them; equality and hashing compare them.
    """

    num_qubits: int
    # a cached_property as a field: dataclass equality, hashing, repr and
    # replace read it, and only a read builds the Gates
    gates: tuple[Gate, ...] = functools.cached_property(lambda c: c.columns.gates())
    measured_qubits: tuple[int, ...] = ()
    columns: CircuitColumns = field(init=False, repr=False, compare=False)

    def __init__(self, num_qubits: int, gates=(), measured_qubits=()):
        num_qubits = operator.index(num_qubits)
        gates = tuple(gates)
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        for g in gates:
            if not all(0 <= q < num_qubits for q in g.qubits):
                raise ValueError(f"gate {g} acts outside qubits 0..{num_qubits - 1}")
        measured = tuple(map(operator.index, measured_qubits))
        if len(set(measured)) != len(measured):
            raise ValueError("duplicate measured qubit")
        for q in measured:
            if not 0 <= q < num_qubits:
                raise ValueError(f"measured qubit {q} out of range")
        self.__dict__.update(vars(self.from_rows(num_qubits, gate_columns(gates), measured)))

    @classmethod
    def from_columns(cls, num_qubits: int, columns, measured_qubits=()) -> "Circuit":
        """A circuit whose gates are the rows of columns (a CircuitColumns or
        any (kind, q0, q1, angle) sequence), checked by building each row's
        Gate and the Circuit of them."""
        kind, q0, q1, angle = (np.asarray(col) for col in columns)
        if any(col.ndim != 1 or len(col) != len(kind) for col in (kind, q0, q1, angle)):
            raise ValueError("gate columns must be 1-D and of one length")
        integral = all(col.dtype.kind in "iu" for col in (kind, q0, q1))
        if len(kind) and not (integral and angle.dtype.kind == "f"):
            raise TypeError("kind and qubit columns must be integers, angles floats")
        unknown = (kind < 0) | (kind >= len(KINDS))
        if unknown.any():
            raise ValueError(f"unknown gate kind code {kind[np.argmax(unknown)]}")
        return cls(num_qubits, CircuitColumns(kind, q0, q1, angle).gates(), measured_qubits)

    @classmethod
    def from_rows(cls, num_qubits: int, rows, measured_qubits=()) -> "Circuit":
        """A circuit whose gates are rows (a CircuitColumns or any (kind, q0,
        q1, angle) sequence), unchecked: its callers build valid rows. The
        rows are copied into read-only int8, int64, int64 and float columns."""
        cols = CircuitColumns(
            *(np.array(col, dtype=t) for col, t in zip(rows, (np.int8, np.int64, np.int64, float)))
        )
        for col in cols:
            col.setflags(write=False)
        c = object.__new__(cls)
        measured = tuple(measured_qubits)
        c.__dict__.update(num_qubits=num_qubits, columns=cols, measured_qubits=measured)
        return c

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
