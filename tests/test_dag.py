from hypothesis import given

from qcloak.circuit import Circuit, GateKind, cx, rz, sx, x
from qcloak.dag import cx_depth, to_dag
from strategies import circuits, gate_walk_edges


def test_single_gate_structure():
    d = to_dag(Circuit(1, (x(0),)))
    # node 0 = gate, 1 = source, 2 = sink
    assert d.num_nodes == 3
    assert set(d.edges) == {(1, 0), (0, 2)}


def test_cx_structure_by_hand():
    # gates: x(0)=node0, cx(0,1)=node1, sx(1)=node2; sources 3,4; sinks 5,6
    d = to_dag(Circuit(2, (x(0), cx(0, 1), sx(1))))
    assert d.num_nodes == 7
    assert set(d.edges) == {(3, 0), (0, 1), (4, 1), (1, 2), (1, 5), (2, 6)}


def test_empty_circuit_is_wire_pairs():
    d = to_dag(Circuit(3))
    assert d.num_nodes == 6
    # sources 0..2, sinks 3..5
    assert set(d.edges) == {(w, 3 + w) for w in range(3)}


@given(circuits(max_qubits=5, max_gates=25))
def test_gate_degree_equals_arity(c):
    d = to_dag(c)
    ng, n = c.num_gates, c.num_qubits
    indeg = {v: 0 for v in range(d.num_nodes)}
    outdeg = {v: 0 for v in range(d.num_nodes)}
    for a, b in d.edges:
        outdeg[a] += 1
        indeg[b] += 1
    for i, g in enumerate(c.gates):
        assert indeg[i] == outdeg[i] == len(g.qubits)
    for w in range(n):
        # source of wire w is node ng + w, its sink ng + n + w
        assert indeg[ng + w] == 0 and outdeg[ng + w] == 1
        assert indeg[ng + n + w] == 1 and outdeg[ng + n + w] == 0


@given(circuits(max_qubits=5, max_gates=25))
def test_edges_follow_the_gate_walk_in_order(c):
    # dag.wire_order orders the edges: wire by wire, source, gates, sink
    assert to_dag(c).edge_array.tolist() == [list(e) for e in gate_walk_edges(c)]


def _cx_depth_reference(c: Circuit) -> int:
    """Longest path in the dag counting only CX nodes, by DP over topo order."""
    d = to_dag(c)
    cx_nodes = {i for i, g in enumerate(c.gates) if g.kind is GateKind.CX}
    succ = {v: [] for v in range(d.num_nodes)}
    indeg = {v: 0 for v in range(d.num_nodes)}
    for a, b in d.edges:
        succ[a].append(b)
        indeg[b] += 1
    order = [v for v in range(d.num_nodes) if indeg[v] == 0]
    score = {v: 0 for v in range(d.num_nodes)}
    out = []
    while order:
        v = order.pop()
        out.append(v)
        for w in succ[v]:
            score[w] = max(score[w], score[v] + (1 if w in cx_nodes else 0))
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    assert len(out) == d.num_nodes
    return max(score.values())


def test_cx_depth_hand_cases():
    assert cx_depth(Circuit(2, (x(0), sx(1)))) == 0
    assert cx_depth(Circuit(2, (cx(0, 1), cx(0, 1)))) == 2
    # parallel CX pairs on disjoint wires stay depth 1
    assert cx_depth(Circuit(4, (cx(0, 1), cx(2, 3)))) == 1
    # chain couples the wires
    assert cx_depth(Circuit(3, (cx(0, 1), cx(1, 2), rz(0.3, 0)))) == 2


@given(circuits(max_qubits=5, max_gates=25))
def test_cx_depth_matches_longest_path(c):
    assert cx_depth(c) == _cx_depth_reference(c)
