"""Circuit intermediate representation over the {X, SX, RZ, RX, CX} basis."""

import math
from dataclasses import dataclass, field
from enum import Enum


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


# Gate.__post_init__ runs for every emitted gate; module names are cheaper
# to read than GateKind members, each of which is a class-attribute lookup.
_CX = GateKind.CX
_ANGLED = (GateKind.RZ, GateKind.RX)


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
        if len(qubits) != (2 if kind is _CX else 1):
            raise ValueError(f"{kind.value} takes {kind.arity} qubit(s), got {qubits}")
        if kind is _CX and qubits[0] == qubits[1]:
            raise ValueError(f"duplicate qubit operands in {kind.value}{qubits}")
        if kind in _ANGLED:
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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over num_qubits wires.

    Gate order is execution order. Qubit 0 is the least significant bit of
    every basis-state index and the rightmost character of outcome strings.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    measured_qubits: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "measured_qubits", tuple(self.measured_qubits))
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        # one set of every wire touched, so a valid circuit costs no call per gate
        n = self.num_qubits
        used = {q for g in self.gates for q in g.qubits}
        if used and (min(used) < 0 or max(used) >= n):
            g = next(g for g in self.gates if min(g.qubits) < 0 or max(g.qubits) >= n)
            raise ValueError(f"gate {g} acts outside qubits 0..{n - 1}")
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise ValueError("duplicate measured qubit")
        for q in self.measured_qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"measured qubit {q} out of range")

    @property
    def num_gates(self) -> int:
        return len(self.gates)


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
    """Per-kind gate tallies; SX and X are grouped as on hardware."""
    n_cx = n_sxx = n_rz = n_rx = 0
    for g in c.gates:
        if g.kind is GateKind.CX:
            n_cx += 1
        elif g.kind in (GateKind.SX, GateKind.X):
            n_sxx += 1
        elif g.kind is GateKind.RZ:
            n_rz += 1
        else:
            n_rx += 1
    return GateCounts(cx=n_cx, sx_plus_x=n_sxx, rz=n_rz, rx=n_rx)
