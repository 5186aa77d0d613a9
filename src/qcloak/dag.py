"""The per-wire walk over gate lists (wire_order), the wire-dependency DAG
built on it and structural depth counters. wire_order decides, in one place,
how the circuit DAG, partition's block boundaries and pipeline's certificate
walk a gate list wire by wire. All read columns, so none builds a Gate."""

import functools
from dataclasses import dataclass, field

import numpy as np

from .circuit import CX_CODE, Circuit


@dataclass(frozen=True, init=False)
class CircuitDag:
    """Gate nodes 0..g-1 in circuit order, then one source and one sink per wire.

    source of wire w = g + w, sink of wire w = g + n + w. Edges follow gate
    adjacency along each wire, so every gate node has in-degree and
    out-degree equal to its arity. The edges are stored as a read-only
    (E, 2) int64 array, edge_array; the edges tuple is built from it on its
    first read.
    """

    num_qubits: int
    num_gates: int
    edges: tuple[tuple[int, int], ...] = functools.cached_property(
        lambda d: tuple(map(tuple, d.edge_array.tolist()))
    )
    edge_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, num_qubits: int, num_gates: int, edges):
        arr = np.array(tuple(edges), dtype=np.int64).reshape(-1, 2)
        arr.setflags(write=False)
        self.__dict__.update(num_qubits=num_qubits, num_gates=num_gates, edge_array=arr)

    @property
    def num_nodes(self) -> int:
        return self.num_gates + 2 * self.num_qubits


def to_dag(c: Circuit) -> CircuitDag:
    cols = c.columns
    return column_dag(c.num_qubits, cols.q0, cols.q1)


def wire_order(q0: np.ndarray, q1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (gate, wire) incidence of gates whose gate i acts on wire q0[i]
    and, unless q1[i] is -1, on wire q1[i], ordered by wire and then by gate:
    the gates, then the wires."""
    two = np.flatnonzero(q1 != -1)
    gate, wire = np.concatenate((np.arange(len(q0)), two)), np.concatenate((q0, q1[two]))
    order = np.lexsort((gate, wire))
    return gate[order], wire[order]


def column_dag(n: int, q0: np.ndarray, q1: np.ndarray) -> CircuitDag:
    """DAG of n wires whose gate i acts on wire q0[i] and, unless q1[i] is
    -1, on wire q1[i]; the edges depend on nothing else. They follow
    wire_order, each wire's source and sink being one-wire gates before and
    after the circuit: from its source through its gates in order to its sink."""
    g, w, none = len(q0), np.arange(n), np.full(n, -1)
    gate, wire = wire_order(np.concatenate((w, q0, w)), np.concatenate((none, q1, none)))
    node = np.concatenate((g + w, np.arange(g), g + n + w))[gate]
    link = np.flatnonzero(wire[1:] == wire[:-1])
    edges = np.stack((node[link], node[link + 1]), axis=1)
    edges.setflags(write=False)
    d = object.__new__(CircuitDag)
    d.__dict__.update(num_qubits=n, num_gates=g, edge_array=edges)
    return d


def cx_depth(c: Circuit) -> int:
    """CX count along the longest dependency path (one-qubit gates count 0).
    Only the CX rows are walked: a one-qubit gate never moves its wire's
    depth."""
    cols = c.columns
    cx = cols.kind == CX_CODE
    front = [0] * c.num_qubits
    best = 0
    for a, b in zip(cols.q0[cx].tolist(), cols.q1[cx].tolist()):
        d = front[a] = front[b] = max(front[a], front[b]) + 1
        best = max(best, d)
    return best
