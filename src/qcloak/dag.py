"""Wire-dependency DAG over circuit gates and structural depth counters."""

from dataclasses import dataclass

from .circuit import Circuit, GateKind


@dataclass(frozen=True)
class CircuitDag:
    """Gate nodes 0..g-1 in circuit order, then one source and one sink per wire.

    source of wire w = g + w, sink of wire w = g + n + w. Edges follow gate
    adjacency along each wire, so every gate node has in-degree and
    out-degree equal to its arity.
    """

    num_qubits: int
    num_gates: int
    edges: tuple[tuple[int, int], ...]

    @property
    def num_nodes(self) -> int:
        return self.num_gates + 2 * self.num_qubits


def to_dag(c: Circuit) -> CircuitDag:
    return wire_dag(c.num_qubits, tuple(g.qubits for g in c.gates))


def wire_dag(n: int, wires: tuple[tuple[int, ...], ...]) -> CircuitDag:
    """DAG of n wires whose gates touch `wires`, in order. The edges depend
    on nothing else, so to_dag reads only each gate's qubits."""
    g = len(wires)
    front = [g + w for w in range(n)]
    edges = []
    for i, gate_wires in enumerate(wires):
        for w in gate_wires:
            edges.append((front[w], i))
            front[w] = i
    for w in range(n):
        edges.append((front[w], g + n + w))
    return CircuitDag(n, g, tuple(edges))


def cx_depth(c: Circuit) -> int:
    """CX count along the longest dependency path (one-qubit gates count 0)."""
    front = [0] * c.num_qubits
    best = 0
    for gate in c.gates:
        d = max(front[w] for w in gate.qubits)
        if gate.kind is GateKind.CX:
            d += 1
        for w in gate.qubits:
            front[w] = d
        best = max(best, d)
    return best
