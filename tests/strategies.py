"""Shared hypothesis strategies and oracle helpers."""

import cmath
import math

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qcloak.circuit import Circuit, CircuitColumns, Gate, GateKind, cx, gate_columns, rx, rz, sx, x
from qcloak.kak import (
    DIAG_TOL,
    GAMMA,
    MAGIC,
    MAGIC_H,
    UNITARY_TOL,
    KakTerms,
    canonical_matrix,
)
from qcloak.linalg import (
    CX_MATRIX,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SX_MATRIX,
    _apply_1q,
    _apply_cx,
    circuit_unitary,
    equal_up_to_global_phase,
    rx_matrix,
    rz_matrix,
)
from qcloak.partition import Block, BlockPartition
from qcloak.qasm import QasmError
from qcloak.synthesis import (
    CANDIDATE_TOL,
    CLASS_TOL,
    DRAW_STRIDE,
    DRAW_TAG,
    DRESS_MARGIN,
    RZ_TRIVIAL_TOL,
    SynthesisError,
)

ANGLES = st.floats(min_value=-6.3, max_value=6.3, allow_nan=False)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    if u.shape[0] != u.shape[1]:
        return False
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= tol


@st.composite
def gates_on(draw, num_qubits: int):
    kind = draw(st.integers(0, 4 if num_qubits >= 2 else 3))
    q = draw(st.integers(0, num_qubits - 1))
    if kind == 0:
        return x(q)
    if kind == 1:
        return sx(q)
    if kind == 2:
        return rz(draw(ANGLES), q)
    if kind == 3:
        return rx(draw(ANGLES), q)
    t = draw(st.integers(0, num_qubits - 2))
    if t >= q:
        t += 1
    return cx(q, t)


@st.composite
def circuits(draw, min_qubits=1, max_qubits=4, max_gates=14, measure_all=True):
    n = draw(st.integers(min_qubits, max_qubits))
    gates = draw(st.lists(gates_on(n), min_size=0, max_size=max_gates))
    measured = tuple(range(n)) if measure_all else tuple(
        sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    )
    return Circuit(n, tuple(gates), measured)


@st.composite
def one_qubit_runs(draw, max_qubits=6, min_gates=40):
    """Circuits made of one-qubit runs (RX included) of up to 12 gates on a
    random wire, with a CX after some runs."""
    n = draw(st.integers(1, max_qubits))
    gates = []
    while len(gates) < min_gates:
        q = draw(st.integers(0, n - 1))
        run = draw(st.lists(gates_on(1), min_size=1, max_size=12))
        gates.extend(Gate(g.kind, (q,), g.angle) for g in run)
        if n >= 2 and draw(st.booleans()):
            t = draw(st.integers(0, n - 2))
            gates.append(cx(q, t + 1 if t >= q else t))
    return Circuit(n, tuple(gates))


@st.composite
def unitaries(draw, dim=4):
    seed = draw(st.integers(0, 2**31 - 1))
    return unitary_group.rvs(dim, random_state=np.random.default_rng(seed))


def peephole_1q(gates: list[Gate]) -> list[Gate]:
    """Reference one-qubit rewriter: fixpoint of drop trivial RZ, merge
    adjacent RZ, collapse four SX in a row, rewrite an SX pair as X. All
    gates must share one wire."""
    gs = list(gates)
    changed = True
    while changed:
        changed = False
        out: list[Gate] = []
        for g in gs:
            if g.kind is GateKind.RZ and _rz_is_trivial(g.angle):
                changed = True
                continue
            if g.kind is GateKind.RZ and out and out[-1].kind is GateKind.RZ:
                out[-1] = Gate(GateKind.RZ, g.qubits, out[-1].angle + g.angle)
                changed = True
                continue
            out.append(g)
        gs = out
        out = []
        i = 0
        while i < len(gs):
            run = 0
            while i + run < len(gs) and gs[i + run].kind is GateKind.SX:
                run += 1
            if run >= 4:
                out.extend(gs[i : i + run - 4])
                changed = True
                i += run
                continue
            if run >= 2:
                out.append(Gate(GateKind.X, gs[i].qubits))
                out.extend(gs[i + 2 : i + run])
                changed = True
                i += run
                continue
            out.append(gs[i])
            i += 1
        gs = out
    return gs


def raw_euler_gates(u: np.ndarray, wire: int = 0) -> list[Gate]:
    """Euler angles of u emitted without any rewrite: one RZ for a diagonal
    u, else RZ(lam) SX RZ(theta + pi) SX RZ(phi + pi)."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    up = u / np.sqrt(det)
    a, b = up[0, 0], up[1, 0]
    if abs(b) < 1e-13:
        return [Gate(GateKind.RZ, (wire,), -2 * float(np.angle(a)))]
    theta = 2 * float(np.arctan2(abs(b), abs(a)))
    if abs(a) < 1e-13:
        phi, lam = 2 * float(np.angle(b)), 0.0
    else:
        total = -2 * float(np.angle(a))
        diff = 2 * float(np.angle(b))
        phi = (total + diff) / 2
        lam = (total - diff) / 2
    return [
        Gate(GateKind.RZ, (wire,), lam),
        Gate(GateKind.SX, (wire,)),
        Gate(GateKind.RZ, (wire,), theta + np.pi),
        Gate(GateKind.SX, (wire,)),
        Gate(GateKind.RZ, (wire,), phi + np.pi),
    ]


def rewritten_euler_1q(u: np.ndarray, wire: int = 0) -> list[Gate]:
    """Reference for synthesis.euler_1q: the raw Euler run, rewritten."""
    return peephole_1q(raw_euler_gates(u, wire))


def scalar_draw(seed: int, order_index: int, i: int, j: int) -> float:
    """Uniform j of candidate i of the block with order index order_index,
    read alone: one fresh stream of candidate i, PCG64 seeded from [seed,
    DRAW_TAG, i], advanced to position order_index * DRAW_STRIDE + j."""
    bits = np.random.PCG64(np.random.SeedSequence([seed, DRAW_TAG, i]))
    bits.advance(order_index * DRAW_STRIDE + j)
    return float(np.random.Generator(bits).random())


def candidate_draw_rows(seed: int, order_index: int, k: int) -> np.ndarray:
    """(k, DRAW_STRIDE) draws of a block's k candidates, each uniform read
    alone (scalar_draw); row 0, the plain candidate's, is zeros."""
    rows = np.zeros((k, DRAW_STRIDE))
    for i in range(1, k):
        rows[i] = [scalar_draw(seed, order_index, i, j) for j in range(DRAW_STRIDE)]
    return rows


def dress_angle(u: float) -> float:
    """A dressing angle from its uniform, as Generator.uniform scales one."""
    low, high = DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN
    return low + (high - low) * u


def rewritten_candidate_1q(u: np.ndarray, draw: float | None) -> Circuit:
    """Reference for synthesis._candidate_1q: RZ(psi) prepended to the
    reference Euler run of u RZ(-psi), rewritten, psi from the uniform draw;
    a None draw is the plain candidate."""
    if draw is None:
        return Circuit(1, tuple(rewritten_euler_1q(u, 0)))
    psi = dress_angle(draw)
    gates = [Gate(GateKind.RZ, (0,), psi)]
    gates.extend(rewritten_euler_1q(u @ scalar_rz_matrix(-psi), 0))
    return Circuit(1, tuple(peephole_1q(gates)))


# Scalar oracles of the stacked template stage: the rotation builders, KAK's
# canonicalization, the class decision, the minimal-CX templates with their
# Pauli and CX dressings, and the block unitary, one matrix at a time. The
# stacked code in linalg, kak, synthesis and partition must match them bit
# for bit.


def scalar_rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.empty((2, 2), dtype=complex)
    m[0, 0] = m[1, 1] = c
    m[0, 1] = m[1, 0] = -1j * s
    return m


def scalar_rz_matrix(theta: float) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0], m[1, 1] = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    return m


def scalar_ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    m = np.empty((2, 2), dtype=complex)
    m[0, 0] = m[1, 1] = c
    m[0, 1], m[1, 0] = -s, s
    return m


_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# single-qubit S with (S x S) N(c) (S x S)^dag = N(c with axes j,k swapped)
_SWAP_CONJ = {
    (0, 1): scalar_rz_matrix(np.pi / 2),
    (1, 2): scalar_rx_matrix(np.pi / 2),
    (0, 2): scalar_ry_matrix(np.pi / 2),
}


def scalar_canonicalize(phase, l1, l0, c, r1, r0):
    c = np.array(c, dtype=float)

    def shift(k, steps):
        # c[k] += steps * pi/2 costs a phase and, when odd, a Pauli on both
        # left locals: N(c + (pi/2) e_k) = i P_k x P_k N(c)
        nonlocal phase, l1, l0
        c[k] += steps * np.pi / 2
        phase += -steps * np.pi / 2
        if steps % 2 != 0:
            p = _PAULIS[k]
            l1 = l1 @ p
            l0 = l0 @ p

    def negate(j, k):
        # conjugating by the remaining Pauli on wire 1 flips signs of c_j, c_k
        nonlocal l1, r1
        p = _PAULIS[3 - j - k]
        c[j] = -c[j]
        c[k] = -c[k]
        l1 = l1 @ p
        r1 = p @ r1

    def swap(j, k):
        nonlocal l1, l0, r1, r0
        s = _SWAP_CONJ[(min(j, k), max(j, k))]
        c[j], c[k] = c[k], c[j]
        l1 = l1 @ s.conj().T
        l0 = l0 @ s.conj().T
        r1 = s @ r1
        r0 = s @ r0

    for k in range(3):
        steps = -int(np.round(c[k] / (np.pi / 2)))
        if steps:
            shift(k, steps)
    neg = [k for k in range(3) if c[k] < -1e-15]
    if len(neg) >= 2:
        negate(neg[0], neg[1])
    for _ in range(2):
        if abs(c[0]) < abs(c[1]) - 1e-15:
            swap(0, 1)
        if abs(c[1]) < abs(c[2]) - 1e-15:
            swap(1, 2)
    if c[0] < -1e-15:
        negate(0, 2)
    if c[1] < -1e-15:
        negate(1, 2)
    # boundary c1 = pi/4: both signs of c3 are in the same class; fix c3 >= 0
    if abs(c[0] - np.pi / 4) < 1e-12 and c[2] < -1e-15:
        shift(0, -1)
        negate(0, 2)
    c[np.abs(c) < 1e-15] = 0.0
    return phase, l1, l0, c, r1, r0


def scalar_minimal_cx_count(c: np.ndarray) -> int:
    """Minimal CX count for canonical coordinates (0, 1, 2, or 3)."""
    c1, c2, c3 = c
    if abs(c1) < CLASS_TOL and abs(c2) < CLASS_TOL and abs(c3) < CLASS_TOL:
        return 0
    if abs(c1 - np.pi / 4) < CLASS_TOL and abs(c2) < CLASS_TOL and abs(c3) < CLASS_TOL:
        return 1
    if abs(c3) < CLASS_TOL:
        return 2
    return 3


# the fixed rotations of the minimal-CX templates
_RX_PLUS, _RX_MINUS = scalar_rx_matrix(np.pi / 2), scalar_rx_matrix(-np.pi / 2)
_RZ_PLUS, _RZ_MINUS = scalar_rz_matrix(np.pi / 2), scalar_rz_matrix(-np.pi / 2)
_RY_MINUS = scalar_ry_matrix(-np.pi / 2)
_EYE = np.eye(2, dtype=complex)


def scalar_segments(t: KakTerms) -> tuple[list[list[np.ndarray]], list[tuple[int, int]]]:
    """Template for the minimal-CX circuit of a KakTerms value.

    Returns per-wire 1q segment matrices and the CX list between them:
    segments[i] applies before cx[i]; cx entries are (control, target) local
    wires. Matrix identities behind each class were checked numerically to
    1e-12 over random canonical coordinates.
    """
    l0, l1 = t.left_locals
    r0, r1 = t.right_locals
    c1, c2, c3 = t.weyl
    cls = scalar_minimal_cx_count(t.weyl)
    if cls == 0:
        return [[l0 @ r0, l1 @ r1]], []
    if cls == 1:
        return (
            [[r0, _RY_MINUS @ r1], [l0 @ _RX_MINUS, l1 @ _RY_MINUS.conj().T @ _RZ_MINUS]],
            [(1, 0)],
        )
    if cls == 2:
        return (
            [
                [_RX_PLUS @ r0, _RX_PLUS @ r1],
                [scalar_rz_matrix(-2 * c2), scalar_rx_matrix(-2 * c1)],
                [l0 @ _RX_MINUS, l1 @ _RX_MINUS],
            ],
            [(1, 0), (1, 0)],
        )
    alpha = 2 * c2 - np.pi / 2
    beta = np.pi / 2 - 2 * c1
    delta = np.pi / 2 - 2 * c3
    return (
        [
            [_RZ_PLUS @ r0, r1],
            [_EYE, scalar_ry_matrix(alpha)],
            [scalar_rz_matrix(delta), scalar_ry_matrix(beta)],
            [l0, l1 @ _RZ_MINUS],
        ],
        [(1, 0), (0, 1), (1, 0)],
    )


def scalar_dress_cx(segments, cxs, draws):
    """Split a canceling rotation across each CX: RZ on the control wire and
    RX on the target wire commute with CX, so absorbing RZ(psi)/RZ(-psi)
    (resp. RX) into the neighboring segments leaves the product unchanged.
    CX i's psi and chi come from the uniforms draws[2 i] and draws[2 i + 1]."""
    for i, (control, target) in enumerate(cxs):
        psi = dress_angle(draws[2 * i])
        chi = dress_angle(draws[2 * i + 1])
        segments[i][control] = scalar_rz_matrix(-psi) @ segments[i][control]
        segments[i + 1][control] = segments[i + 1][control] @ scalar_rz_matrix(psi)
        segments[i][target] = scalar_rx_matrix(-chi) @ segments[i][target]
        segments[i + 1][target] = segments[i + 1][target] @ scalar_rx_matrix(chi)
    return segments


def scalar_pauli_dress(t: KakTerms, draw: float) -> KakTerms:
    """exp(i(c1 XX + c2 YY + c3 ZZ)) commutes with P x P for any Pauli P, so
    the same P, number floor(4 draw) (0 for none), can be pushed into all
    four locals without changing anything."""
    choice = math.floor(4 * draw)
    if choice == 0:
        return t
    p = (PAULI_X, PAULI_Y, PAULI_Z)[choice - 1]
    l0, l1 = t.left_locals
    r0, r1 = t.right_locals
    return KakTerms((l0 @ p, l1 @ p), (p @ r0, p @ r1), t.weyl, t.global_phase)


def scalar_template_2q(t: KakTerms, row: np.ndarray | None):
    """Two-wire template of a decomposition: the plain KAK template for a None
    draw row, else a Pauli dressing from row[2] and canceling CX dressings
    from row[3:]."""
    if row is None:
        return scalar_segments(t)
    segments, cxs = scalar_segments(scalar_pauli_dress(t, row[2]))
    return scalar_dress_cx(segments, cxs, row[3:]), cxs


def scalar_gate_unitary(g: Gate) -> np.ndarray:
    if g.kind is GateKind.RZ:
        return scalar_rz_matrix(g.angle)
    if g.kind is GateKind.RX:
        return scalar_rx_matrix(g.angle)
    return PAULI_X if g.kind is GateKind.X else SX_MATRIX


def gate_unitary(g: Gate) -> np.ndarray:
    """One gate's matrix on its own operands."""
    if g.kind is GateKind.X:
        return PAULI_X.copy()
    if g.kind is GateKind.SX:
        return SX_MATRIX.copy()
    if g.kind is GateKind.RZ:
        return rz_matrix(g.angle)
    if g.kind is GateKind.RX:
        return rx_matrix(g.angle)
    return CX_MATRIX.copy()


def gate_loop_apply_circuit(u: np.ndarray, c: Circuit) -> np.ndarray:
    """Reference for linalg.apply_circuit, which must equal it bit for bit:
    one Gate at a time, each wire's one-qubit run multiplied into its 2x2
    matrix by one 2x2 product per gate and applied when a CX touches the
    wire or at the end."""
    n = c.num_qubits
    pending: dict[int, np.ndarray] = {}  # wire -> product of its open 1q run
    for g in c.gates:
        if g.kind is GateKind.CX:
            for q in g.qubits:
                if q in pending:
                    u = _apply_1q(u, pending.pop(q), q, n)
            _apply_cx(u, g.qubits[0], g.qubits[1], n)
        else:
            q = g.qubits[0]
            mat = gate_unitary(g)
            pending[q] = mat @ pending[q] if q in pending else mat
    for q, mat in pending.items():
        u = _apply_1q(u, mat, q, n)
    return u


def gate_walk_edges(c: Circuit) -> list[tuple[int, int]]:
    """Reference for dag.to_dag's edges, walking c.gates: wire by wire, the
    wire's source (node g + w), its gates in circuit order, then its sink
    (node g + n + w), each linked to the next."""
    g, n = len(c.gates), c.num_qubits
    edges = []
    for w in range(n):
        walk = [g + w] + [i for i, gate in enumerate(c.gates) if w in gate.qubits] + [g + n + w]
        edges.extend(zip(walk, walk[1:]))
    return edges


def block_boundaries(p: BlockPartition) -> list[tuple[int, int, int]]:
    """(wire, earlier order_index, later order_index) for each block-boundary
    crossing of each wire, in order of wire, then of order_index: the
    consecutive entries of each wire's list of blocks."""
    per_wire: dict[int, list[int]] = {}
    for b in p.blocks:
        for q in b.qubits:
            per_wire.setdefault(q, []).append(b.order_index)
    out = []
    for w in sorted(per_wire):
        orders = sorted(per_wire[w])
        out.extend((w, a, b) for a, b in zip(orders, orders[1:]))
    return out


def local_wire(b: Block, q: int) -> int:
    """Local wire index of global qubit q in block b (wire order = ascending
    qubit)."""
    return b.qubits.index(q)


def partition_of_blocks(blocks) -> BlockPartition:
    """The blocks as a partition through its public constructor, their gates
    at consecutive slots, over just the qubits they use."""
    blocks = tuple(blocks)
    num_qubits = 1 + max((b.qubits[-1] for b in blocks), default=0)
    at = np.cumsum([0] + [len(b.gates) for b in blocks]).tolist()
    return BlockPartition(num_qubits, blocks, [range(a, z) for a, z in zip(at, at[1:])])


def fragment_set(frags) -> tuple[CircuitColumns, np.ndarray]:
    """Per-block Gate sequences as the aligned fragment set reassemble and
    certify take: one column set and each block's row offsets."""
    frags = [tuple(f) for f in frags]
    return gate_columns(g for f in frags for g in f), np.cumsum([0] + [len(f) for f in frags])


def fragments_by_order(p: BlockPartition, rows, bounds) -> dict[int, tuple[Gate, ...]]:
    """A fragment set aligned with p's blocks as {order index: Gate tuple},
    in block order."""
    at = bounds.tolist()
    return {o: rows.gates(a, z) for o, a, z in zip(p.order.tolist(), at, at[1:])}


def per_gate_block_unitary(b: Block) -> np.ndarray:
    """Reference for partition.block_unitaries: the block's gates applied to
    the identity one at a time, on their local wires."""
    n = len(b.qubits)
    u = np.eye(2**n, dtype=complex)
    for g in b.gates:
        wires = tuple(local_wire(b, q) for q in g.qubits)
        if g.kind is GateKind.CX:
            _apply_cx(u, wires[0], wires[1], n)
        else:
            u = _apply_1q(u, scalar_gate_unitary(g), wires[0], n)
    return u


# Per-candidate synthesis oracle: each candidate decomposed, emitted and
# checked on its own, one matrix at a time. The stacked code in kak and
# synthesis must match it bit for bit.


def _rz_is_trivial(theta: float) -> bool:
    r = abs(theta) % (2 * np.pi)
    return min(r, 2 * np.pi - r) < RZ_TRIVIAL_TOL


def _rz_unless_trivial(theta: float, wire: int) -> list[Gate]:
    return [] if _rz_is_trivial(theta) else [Gate(GateKind.RZ, (wire,), theta)]


def per_matrix_factor_kron(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """g = e^{i phase} kron(g1, g0) with det g1 = det g0 = 1, for one 4x4."""
    m = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(m)
    g1 = u[:, 0].reshape(2, 2) * np.sqrt(s[0])
    g0 = vh[0, :].reshape(2, 2) * np.sqrt(s[0])
    g1 = g1 / np.sqrt(np.linalg.det(g1))
    g0 = g0 / np.sqrt(np.linalg.det(g0))
    frame = np.kron(g1, g0)
    idx = np.unravel_index(np.argmax(np.abs(frame)), frame.shape)
    return g1, g0, float(np.angle(g[idx] / frame[idx]))


def per_candidate_raw_decompose(u: np.ndarray, mix, retry):
    """The first diagonalizer try mixes by mix = (a, b); each later try draws
    its mix from retry(), a generator built on the first retry."""
    det = np.linalg.det(u)
    delta = np.angle(det) / 4
    up = u * np.exp(-1j * delta)
    phase = delta

    v = MAGIC_H @ up @ MAGIC
    m2 = v.T @ v
    p = None
    rng = None
    for attempt in range(100):
        if attempt == 0:
            a, b = mix
        else:
            if rng is None:
                rng = retry()
            a, b = rng.uniform(-1, 1, 2)
        _, cand = np.linalg.eigh(a * m2.real + b * m2.imag)
        d = cand.T @ m2 @ cand
        if np.max(np.abs(d - np.diag(np.diag(d)))) < DIAG_TOL:
            p = cand
            break
    if p is None:
        raise ArithmeticError("no real-orthogonal diagonalizer found")
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]
    theta = 0.5 * np.angle(np.diag(p.T @ m2 @ p))
    if round(np.sum(theta) / np.pi) % 2 != 0:
        theta[0] += np.pi
    if round(np.sum(theta) / (2 * np.pi)) != 0:
        theta[0] -= np.pi
        theta[1] -= np.pi

    o2 = p.T
    o1 = v @ p @ np.diag(np.exp(-1j * theta))
    if np.max(np.abs(o1.imag)) > 1e-9:
        raise ArithmeticError("left orthogonal factor is not real")
    o1 = o1.real

    w, c1, c2, c3 = GAMMA @ theta
    phase += w
    l1, l0, pl = per_matrix_factor_kron(MAGIC @ o1 @ MAGIC_H)
    r1, r0, pr = per_matrix_factor_kron(MAGIC @ o2 @ MAGIC_H)
    phase += pl + pr
    return phase, l1, l0, np.array([c1, c2, c3]), r1, r0


def per_candidate_kak(u: np.ndarray, mix=None, retry_seed=None) -> KakTerms:
    """A plain decomposition without a retry seed: the mixes of
    default_rng(2023), in order; else the first mix, then on a retry the
    mixes of default_rng(retry_seed)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if not is_unitary(u, tol=UNITARY_TOL):
        raise ValueError("input matrix is not unitary")
    if retry_seed is None:
        plain = np.random.default_rng(2023)
        mix = plain.uniform(-1, 1, 2)

    def retry():
        return plain if retry_seed is None else np.random.default_rng(retry_seed)

    phase, l1, l0, c, r1, r0 = scalar_canonicalize(*per_candidate_raw_decompose(u, mix, retry))
    phase = float((phase + np.pi) % (2 * np.pi) - np.pi)
    return KakTerms((l0, l1), (r0, r1), c, phase)


def per_candidate_euler_1q(u: np.ndarray, wire: int = 0) -> list[Gate]:
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    up = u / np.sqrt(det)
    a, b = up[0, 0], up[1, 0]
    if abs(b) < 1e-13:
        return _rz_unless_trivial(-2 * float(np.angle(a)), wire)
    theta = 2 * float(np.arctan2(abs(b), abs(a)))
    if abs(a) < 1e-13:
        phi, lam = 2 * float(np.angle(b)), 0.0
    else:
        total = -2 * float(np.angle(a))
        diff = 2 * float(np.angle(b))
        phi = (total + diff) / 2
        lam = (total - diff) / 2
    middle = theta + np.pi
    if _rz_is_trivial(middle):
        core = [Gate(GateKind.X, (wire,))]
    else:
        sx_gate = Gate(GateKind.SX, (wire,))
        core = [sx_gate, Gate(GateKind.RZ, (wire,), middle), sx_gate]
    return _rz_unless_trivial(lam, wire) + core + _rz_unless_trivial(phi + np.pi, wire)


def _per_candidate_emit(segments, cxs) -> Circuit:
    gates: list[Gate] = []
    for i, seg in enumerate(segments):
        if i > 0:
            gates.append(Gate(GateKind.CX, cxs[i - 1]))
        gates.extend(per_candidate_euler_1q(seg[0], 0))
        gates.extend(per_candidate_euler_1q(seg[1], 1))
    return Circuit(2, tuple(gates))


def per_candidate_1q(u: np.ndarray, row: np.ndarray | None) -> Circuit:
    if row is None:
        return Circuit(1, tuple(per_candidate_euler_1q(u, 0)))
    psi = dress_angle(row[0])
    gates = per_candidate_euler_1q(u @ scalar_rz_matrix(-psi), 0)
    if gates and gates[0].kind is GateKind.RZ:
        gates[:1] = _rz_unless_trivial(psi + gates[0].angle, 0)
    else:
        gates.insert(0, Gate(GateKind.RZ, (0,), psi))
    return Circuit(1, tuple(gates))


def per_candidate_2q(u: np.ndarray, row: np.ndarray | None, retry_seed=None) -> Circuit:
    mix = None if row is None else -1 + 2 * row[:2]
    return _per_candidate_emit(*scalar_template_2q(per_candidate_kak(u, mix, retry_seed), row))


def per_candidate_generate(b: Block, k: int, seed: int, draws=None) -> list[Circuit]:
    """Reference for synthesis.generate_candidates: each candidate built and
    checked through circuit_unitary before the next is drawn. Candidate i >= 1
    takes row i of draws (candidate_draw_rows' by default), and a two-wire
    one retries its diagonalizer from default_rng([seed, b.order_index, i])."""
    u = per_gate_block_unitary(b)
    if draws is None:
        draws = candidate_draw_rows(seed, b.order_index, k)
    out = []
    for i in range(k):
        row = draws[i] if i else None
        if len(b.qubits) == 1:
            frag = per_candidate_1q(u, row)
        else:
            frag = per_candidate_2q(u, row, [seed, b.order_index, i] if i else None)
        if not equal_up_to_global_phase(circuit_unitary(frag), u, tol=CANDIDATE_TOL):
            raise SynthesisError(f"candidate {i} for block {b.order_index} failed equivalence")
        out.append(frag)
    return out


def divergence_loop_select(cands, refs, k: int, shortlist: int) -> list[int]:
    """Reference for synthesis._select: each block's candidates as Circuits,
    shortlisted by sorting on (SX+X, RZ, index), and the shortlist ranked by
    one netlsd_divergence call per candidate against the block's memoized
    signature, max keeping the first of equals."""
    from qcloak.circuit import gate_counts
    from qcloak.netlsd import netlsd_divergence
    from qcloak.synthesis import _structure_signature

    keys, best = cands.keys(), []
    for j, ref in enumerate(refs):
        counts = {i: gate_counts(cands.circuit(i)) for i in range(j * k, j * k + k)}
        kept = sorted(counts, key=lambda i: (counts[i].sx_plus_x, counts[i].rz, i))[:shortlist]
        sig = _structure_signature(*ref)
        best.append(max(kept, key=lambda i: netlsd_divergence(_structure_signature(*keys[i]), sig)))
    return best


_CX_ROWS = {(0, 1): (0, 3, 2, 1), (1, 0): (0, 1, 3, 2)}
_WIRE_ROW_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)))


def _run_matrix(gates) -> tuple[complex, complex, complex, complex]:
    """Row-major 2x2 product of a one-wire run, later gates on the left."""
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for g in gates:
        kind = g.kind
        if kind is GateKind.RZ:
            lo = cmath.exp(-0.5j * g.angle)
            hi = lo.conjugate()
            a, b, c, d = lo * a, lo * b, hi * c, hi * d
        elif kind is GateKind.X:
            a, b, c, d = c, d, a, b
        else:
            if kind is GateKind.SX:
                p, q = 0.5 + 0.5j, 0.5 - 0.5j
            else:
                p, q = complex(math.cos(g.angle / 2)), -1j * math.sin(g.angle / 2)
            a, b, c, d = p * a + q * c, p * b + q * d, q * a + p * c, q * b + p * d
    return a, b, c, d


def fragment_unitary(c: Circuit) -> np.ndarray:
    """Reference unitary of a one- or two-wire fragment in complex scalars,
    one gate at a time: each wire's run between CX gates is one 2x2 product,
    the first runs form kron(run1, run0), each CX permutes its rows and each
    later run multiplies the row pairs of its wire."""
    if c.num_qubits == 1:
        a, b, cc, d = _run_matrix(c.gates)
        return np.array([[a, b], [cc, d]])
    m = None
    runs: tuple[list[Gate], list[Gate]] = ([], [])
    for g in (*c.gates, None):
        if g is not None and g.kind is not GateKind.CX:
            runs[g.qubits[0]].append(g)
            continue
        if m is None:
            a0, b0, c0, d0 = _run_matrix(runs[0])
            a1, b1, c1, d1 = _run_matrix(runs[1])
            m = [
                [a1 * a0, a1 * b0, b1 * a0, b1 * b0],
                [a1 * c0, a1 * d0, b1 * c0, b1 * d0],
                [c1 * a0, c1 * b0, d1 * a0, d1 * b0],
                [c1 * c0, c1 * d0, d1 * c0, d1 * d0],
            ]
        else:
            for run, pairs in zip(runs, _WIRE_ROW_PAIRS):
                if not run:
                    continue
                a, b, cc, d = _run_matrix(run)
                for p, q in pairs:
                    rp, rq = m[p], m[q]
                    m[p] = [a * x + b * y for x, y in zip(rp, rq)]
                    m[q] = [cc * x + d * y for x, y in zip(rp, rq)]
        if g is not None:
            m = [m[r] for r in _CX_ROWS[g.qubits]]
            runs = ([], [])
    return np.array(m)


def counting_default_rng(monkeypatch) -> list:
    """Record the arguments of every np.random.default_rng call."""
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return calls


# a draw pair (0.5, 0.5) is the diagonalizer mix -1 + 2 u = (0, 0), whose
# eigenvectors do not diagonalize a generic Gram matrix, so the search retries
ZERO_MIX_DRAWS = (0.5, 0.5)


def to_local_circuit(b: Block) -> Circuit:
    """The block's gates remapped onto local wires."""
    return Circuit(
        len(b.qubits),
        tuple(Gate(g.kind, tuple(local_wire(b, q) for q in g.qubits), g.angle) for g in b.gates),
    )


def gates_on_wires(gates, wires) -> tuple[Gate, ...]:
    """The gates moved from local wires onto the given ones, local wire w on
    wires[w]."""
    return tuple(Gate(g.kind, tuple(wires[q] for q in g.qubits), g.angle) for g in gates)


@st.composite
def blocks(draw):
    """A Block of 1-12 gates on one of four wire sets, one or two wide."""
    wires = draw(st.sampled_from([(0,), (2,), (0, 1), (1, 3)]))
    gates = draw(st.lists(gates_on(len(wires)), min_size=1, max_size=12))
    return Block(wires, gates_on_wires(gates, wires), draw(st.integers(0, 500)))


def gate_bits(c: Circuit | tuple[Gate, ...]) -> list[tuple]:
    """The gates of a circuit or a fragment with each angle's type and exact
    bits, so -0.0 != 0.0."""
    return [
        (g.kind, g.qubits, type(g.angle), None if g.angle is None else float(g.angle).hex())
        for g in (c.gates if isinstance(c, Circuit) else c)
    ]


def assert_checks_pass(c: Circuit) -> None:
    """c, which a library pass built from rows without a check, passes the
    public checks: Circuit.from_columns accepts its columns and gives the
    same circuit, and c's columns are read-only, of the canonical dtypes,
    with the bits of the checked circuit's."""
    d = Circuit.from_columns(c.num_qubits, c.columns, c.measured_qubits)
    assert d == c and gate_bits(d) == gate_bits(c)
    assert type(c.num_qubits) is int and all(type(q) is int for q in c.measured_qubits)
    for got, want, dtype in zip(c.columns, d.columns, (np.int8, np.int64, np.int64, np.float64)):
        assert got.dtype == dtype and not got.flags.writeable
        assert got.tobytes() == want.tobytes()


# QASM angle texts: the parser accepts the first six and rejects the rest,
# which overflow (1e400, a 400-digit multiple of pi) or divide by zero
QASM_ANGLES = ("0.5", "-pi/4", "2*pi", ".5e-3", "1e-320", "-0.0")
QASM_BAD_ANGLES = ("1e400", "-1e400", "9" * 400 + "*pi", "pi/0", "pi/0.0")


@st.composite
def qasm_edge_texts(draw):
    """QASM texts one step either side of the parser's rules, about one
    choice in eight past the edge: qubit indices at and past the register
    size, cx with equal operands, non-finite and divide-by-zero angles, a
    missing creg or one of another size, and gates after a measure."""

    def edge(inside, outside):
        return draw(outside if draw(st.integers(0, 7)) == 0 else inside)

    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    past = st.sampled_from([n, n + 1])
    lines = ["OPENQASM 2.0;", f"qreg q[{n}];"]
    creg = edge(st.just(n), st.sampled_from([None, n + 1] + ([n - 1] if n > 1 else [])))
    if creg is not None:
        lines.append(f"creg c[{creg}];")
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["x", "sx", "rz", "rx", "cx", "measure", "measure all"]))
        q = edge(index, past)
        if op in ("x", "sx"):
            lines.append(f"{op} q[{q}];")
        elif op in ("rz", "rx"):
            angle = edge(st.sampled_from(QASM_ANGLES), st.sampled_from(QASM_BAD_ANGLES))
            lines.append(f"{op}({angle}) q[{q}];")
        elif op == "cx":
            t = edge(index.filter(lambda t: t != q) if n > 1 else index, st.just(q))
            lines.append(f"cx q[{q}],q[{t}];")
        elif op == "measure":
            lines.append(f"measure q[{q}] -> c[{edge(st.just(q), st.just(q + 1))}];")
        else:
            lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def _random_local(rng):
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


# KAK class edges as Weyl coordinates, each offset by eps in the tests: the
# identity, CX, SWAP, iSWAP, an interior c3 = 0 point and c1 = pi/4.
CLASS_EDGES = {
    "identity": (0.0, 0.0, 0.0),
    "cx": (np.pi / 4, 0.0, 0.0),
    "swap": (np.pi / 4, np.pi / 4, np.pi / 4),
    "iswap": (np.pi / 4, np.pi / 4, 0.0),
    "c3_zero": (0.6, 0.3, 0.0),
    "c1_pi_4": (np.pi / 4, 0.5, 0.2),
}
CLASS_EDGE_EPS = (0.0, 1e-11)


def class_edge_unitary(case: str, eps: float, seed: int) -> np.ndarray:
    """The edge's canonical gate, offset by eps on every coordinate, between
    random local frames (none for seed 0)."""
    u = canonical_matrix(np.array(CLASS_EDGES[case]) + eps)
    if seed == 0:
        return u
    rng = np.random.default_rng(seed)
    left = np.kron(_random_local(rng), _random_local(rng))
    right = np.kron(_random_local(rng), _random_local(rng))
    return left @ u @ right


def _zz_gates(t: float) -> list[Gate]:
    # exp(i t ZZ) = CX exp(i t Z_1) CX, and exp(i t Z) = RZ(-2t)
    return [cx(0, 1), rz(-2 * t, 1), cx(0, 1)]


def canonical_gates(c) -> list[Gate]:
    """Gates on local wires 0 and 1 whose product is exp(i(c1 XX + c2 YY +
    c3 ZZ)) up to a global phase, for any c: exp(i c1 XX) in the frame of
    H ~ RZ(pi/2) SX RZ(pi/2) on both wires, exp(i c2 YY) in the frame of
    RX(pi/2) on both wires, since RX(-pi/2) Z RX(pi/2) = Y."""
    h = [g for w in (0, 1) for g in (rz(np.pi / 2, w), sx(w), rz(np.pi / 2, w))]
    to_y = [rx(np.pi / 2, 0), rx(np.pi / 2, 1)]
    from_y = [rx(-np.pi / 2, 0), rx(-np.pi / 2, 1)]
    return h + _zz_gates(c[0]) + h + to_y + _zz_gates(c[1]) + from_y + _zz_gates(c[2])


def frame_gates(angles, wire: int) -> list[Gate]:
    """RZ(a) RX(b) RZ(c) on one wire: any one-qubit frame, up to phase."""
    a, b, c = angles
    return [rz(a, wire), rx(b, wire), rz(c, wire)]


def inverse_frame_gates(angles, wire: int) -> list[Gate]:
    a, b, c = angles
    return [rz(-c, wire), rx(-b, wire), rz(-a, wire)]


def near_identity_circuits(count: int = 60) -> list[Circuit]:
    """Two-qubit circuits whose one block lies within rounding of the identity
    class: each draws Weyl coordinates of +-1e-10 from default_rng(0), then a
    frame per wire, and runs the frames, the canonical gates and the inverse
    frames, measured on both qubits. Many encodes of them have another CX
    count than make_baseline (circuit 0 at seed 0: 2 against 3; circuit 7 at
    seed 2: 3 against 2)."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(count):
        coords = rng.choice([-1e-10, 1e-10], 3)
        frames = [rng.uniform(0, 2 * np.pi, 3) for _ in range(2)]
        gates = frame_gates(frames[0], 0) + frame_gates(frames[1], 1) + canonical_gates(coords)
        gates += inverse_frame_gates(frames[0], 0) + inverse_frame_gates(frames[1], 1)
        out.append(Circuit(2, tuple(gates), (0, 1)))
    return out


# Weyl coordinates on KAK class boundaries and where magic-basis eigenvalues
# coincide: the identity (all four), CX, SWAP and c1 = c2 = c3 (three),
# iSWAP, c1 = c2, c2 = c3 and c2 = -c3 (two), an interior c3 = 0 point and
# c1 = pi/4.
BOUNDARY_POINTS = {
    "identity": (0.0, 0.0, 0.0),
    "cx": (np.pi / 4, 0.0, 0.0),
    "swap": (np.pi / 4, np.pi / 4, np.pi / 4),
    "c_equal": (0.3, 0.3, 0.3),
    "iswap": (np.pi / 4, np.pi / 4, 0.0),
    "c1_c2": (0.5, 0.5, 0.1),
    "c2_c3": (0.6, 0.3, 0.3),
    "c2_minus_c3": (0.6, 0.3, -0.3),
    "c3_zero": (0.6, 0.3, 0.0),
    "c1_pi_4": (np.pi / 4, 0.5, 0.2),
}
# offsets around CLASS_TOL = 1e-10, applied per coordinate
BOUNDARY_OFFSETS = (0.0, 1e-15, -1e-13, 1e-13, 5e-11, -5e-11, 1e-10, -1e-10, 2e-10, 1e-9, -1e-7)


@st.composite
def boundary_blocks(draw, order_index: int):
    """A two-qubit block whose Weyl coordinates lie on or near a KAK class
    boundary, between random local frames. With near_identity, the left
    frames undo the right ones and the coordinates shrink to the offsets, so
    the block's unitary is within about 1e-7 of the identity."""
    base = np.array(BOUNDARY_POINTS[draw(st.sampled_from(sorted(BOUNDARY_POINTS)))])
    offsets = np.array([draw(st.sampled_from(BOUNDARY_OFFSETS)) for _ in range(3)])
    near_identity = draw(st.booleans())
    c = offsets if near_identity else base + offsets
    frame = st.tuples(ANGLES, ANGLES, ANGLES)
    right = [draw(frame), draw(frame)]
    left = [draw(frame), draw(frame)]
    gates = frame_gates(right[0], 0) + frame_gates(right[1], 1) + canonical_gates(c)
    if near_identity:
        gates += inverse_frame_gates(right[0], 0) + inverse_frame_gates(right[1], 1)
    else:
        gates += frame_gates(left[0], 0) + frame_gates(left[1], 1)
    return Block((0, 1), tuple(gates), order_index)


def loop_statements(text: str):
    """Reference QASM tokenizer, one character at a time: yields
    (line_number, statement) pairs like qasm._statements."""
    buf = []
    stmt_line = None
    line = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "/" and text[i : i + 2] == "//":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            i += 1
            buf.append(" ")
            continue
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt:
                yield stmt_line if stmt_line is not None else line, stmt
            buf = []
            stmt_line = None
            i += 1
            continue
        if stmt_line is None and not ch.isspace():
            stmt_line = line
        buf.append(ch)
        i += 1
    if "".join(buf).strip():
        raise QasmError(stmt_line, f"statement missing ';': '{''.join(buf).strip()}'")


def _embedding_permutation(qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Map global basis index -> index in the kron(I_rest, gate) ordering.

    In the kron ordering, gate operand j occupies bit j and the remaining
    qubits occupy bits len(qubits).. in ascending global order.
    """
    rest = [q for q in range(num_qubits) if q not in qubits]
    layout = list(qubits) + rest
    idx = np.arange(2**num_qubits)
    out = np.zeros_like(idx)
    for pos, q in enumerate(layout):
        out |= ((idx >> q) & 1) << pos
    return out


def embed_unitary(mat: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit unitary on the given qubits into the n-qubit space."""
    k = len(qubits)
    full = np.kron(np.eye(2 ** (num_qubits - k), dtype=complex), mat)
    sigma = _embedding_permutation(tuple(qubits), num_qubits)
    return full[np.ix_(sigma, sigma)]


def slow_circuit_unitary(c: Circuit) -> np.ndarray:
    """Independent reference: explicit kron embedding, no shared code path."""
    u = np.eye(2**c.num_qubits, dtype=complex)
    for g in c.gates:
        u = embed_unitary(gate_unitary(g), g.qubits, c.num_qubits) @ u
    return u


def dense_equivalent(a: Circuit, b: Circuit, tol: float = 1e-7) -> bool:
    """The dense whole-circuit oracle: both 2^n x 2^n unitaries, compared up
    to global phase in max-abs-entry norm. It was encode's own check up to 10
    qubits before the structural certificate and the random-stimuli check."""
    return equal_up_to_global_phase(circuit_unitary(a), circuit_unitary(b), tol=tol)


def tensordot_circuit_unitary(c: Circuit) -> np.ndarray:
    """Gate-by-gate product by per-gate tensordot contraction (2x2 matmuls on
    one wire). partition.block_unitaries must equal it bit for bit: its bits
    are KAK's input and so fix the encoded QASM."""
    n = c.num_qubits
    dim = 2**n
    if n == 1:
        u = np.eye(2, dtype=complex)
        for g in c.gates:
            u = gate_unitary(g) @ u
        return u
    u = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    for g in c.gates:
        if g.kind is GateKind.CX:
            control_axis = n - 1 - g.qubits[0]
            target_axis = n - 1 - g.qubits[1]
            idx: list = [slice(None)] * (n + 1)
            idx[control_axis] = 1
            flip_axis = target_axis - 1 if target_axis > control_axis else target_axis
            u[tuple(idx)] = np.flip(u[tuple(idx)], axis=flip_axis)
        else:
            axis = n - 1 - g.qubits[0]
            u = np.moveaxis(np.tensordot(gate_unitary(g), u, axes=([1], [axis])), 0, axis)
    return u.reshape(dim, dim)


def dense_normalized_laplacian(n: int, edges: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian built densely, -D^-1/2 A D^-1/2 off the
    diagonal: the oracle for the dense heat-trace path's Laplacian. Its
    entries off the edges are -0.0, products of a zero and a negated scale."""
    adj = np.zeros((n, n))
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    lap = -adj * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return lap


def normalized_laplacian_sparse(n: int, edges: np.ndarray):
    """The symmetric normalized Laplacian L = I' - S in CSR form (I' the
    identity on the nodes with edges, S the scaled adjacency), and the
    degrees: the oracle that netlsd's operator, -2 S built straight from S,
    must equal as 2 (L - I)."""
    from qcloak.netlsd import _scaled_adjacency

    s, deg = _scaled_adjacency(n, edges)
    return (sp.diags(np.where(deg > 0, 1.0, 0.0)) - s).tocsr(), deg


def union_find_zero_mode_basis(n: int, edges: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Reference zero-eigenspace basis: components from a union-find over the
    edge list, one D^{1/2} indicator column each, in order of smallest node."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, list[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    basis = np.zeros((n, len(comps)))
    for j, nodes in enumerate(comps.values()):
        w = np.sqrt(np.maximum(deg[nodes], 1.0))
        basis[nodes, j] = w / np.linalg.norm(w)
    return basis


def reorthogonalized_heat_traces(
    n: int, edges: np.ndarray, grid: np.ndarray, probes: int, steps: int, seed: int
) -> np.ndarray:
    """Reference heat-trace estimator: one probe at a time, Lanczos with full
    reorthogonalization against the probe's whole basis. Same Rademacher
    draws, deflation, breakdown rule and scaling as the blocked estimator."""
    lap, deg = normalized_laplacian_sparse(n, edges)
    basis = union_find_zero_mode_basis(n, edges, deg)
    n_zero = basis.shape[1]
    rng = np.random.default_rng(seed)
    m = min(steps, n - 1)
    acc = np.zeros(len(grid))
    for _ in range(probes):
        v = rng.integers(0, 2, size=n) * 2.0 - 1.0
        v -= basis @ (basis.T @ v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            continue
        v /= nrm
        vs = np.zeros((m + 1, n))
        alphas, betas = [], []
        vs[0] = v
        w = lap @ v
        for j in range(m):
            alpha = float(vs[j] @ w)
            alphas.append(alpha)
            w = w - alpha * vs[j] - (betas[-1] * vs[j - 1] if betas else 0.0)
            w -= vs[: j + 1].T @ (vs[: j + 1] @ w)
            w -= basis @ (basis.T @ w)
            beta = float(np.linalg.norm(w))
            if beta < 1e-10:
                break
            betas.append(beta)
            vs[j + 1] = w / beta
            w = lap @ vs[j + 1]
        tri = np.diag(alphas)
        for j, beta in enumerate(betas[: len(alphas) - 1]):
            tri[j, j + 1] = beta
            tri[j + 1, j] = beta
        theta, u = np.linalg.eigh(tri)
        weights = u[0, :] ** 2
        acc += nrm * nrm * (weights * np.exp(-np.outer(grid, theta))).sum(axis=1)
    return n_zero + acc / probes


def four_pass_block_moments(lap, basis: np.ndarray, k_max: int, v: np.ndarray) -> np.ndarray:
    """Reference Chebyshev moments of one probe block: each step forms
    T_{k+1} z = 2 (L T_k z - T_k z) - T_{k-1} z from the Laplacian itself,
    diagonal included, in four passes and two fresh arrays. Same deflation,
    doubling identities and einsum dots as netlsd._probe_block_moments."""
    v -= basis @ (basis.T @ v)
    mu = np.empty(2 * k_max + 1)
    mu[0] = np.einsum("ij,ij->", v, v)
    if not k_max:
        return mu
    prev, cur = v, lap @ v - v
    mu[1] = np.einsum("ij,ij->", cur, v)
    for k in range(1, k_max + 1):
        mu[2 * k] = 2 * np.einsum("ij,ij->", cur, cur) - mu[0]
        if k == k_max:
            break
        nxt = 2 * (lap @ cur - cur) - prev
        mu[2 * k + 1] = 2 * np.einsum("ij,ij->", nxt, cur) - mu[1]
        prev, cur = cur, nxt
    return mu


def negating_block_moments(op, basis: np.ndarray, k_max: int, v: np.ndarray) -> np.ndarray:
    """Reference Chebyshev moments of one probe block on the plain recurrence
    T_{k+1} z = M T_k z - T_{k-1} z, M = op: each step negates T_{k-1} z in
    place and accumulates M T_k z into it. netlsd._probe_block_moments runs
    the signed recurrence instead, which must give the same bits."""
    from scipy.sparse._sparsetools import csr_matvecs

    n, width = v.shape
    v -= basis @ (basis.T @ v)
    mu = np.empty(2 * k_max + 1)
    mu[0] = np.einsum("ij,ij->", v, v)
    if not k_max:
        return mu
    prev, cur = v, 0.5 * (op @ v)
    mu[1] = np.einsum("ij,ij->", cur, v)
    for k in range(1, k_max + 1):
        mu[2 * k] = 2 * np.einsum("ij,ij->", cur, cur) - mu[0]
        if k == k_max:
            break
        np.negative(prev, out=prev)
        csr_matvecs(n, n, width, op.indptr, op.indices, op.data, cur.ravel(), prev.ravel())
        mu[2 * k + 1] = 2 * np.einsum("ij,ij->", prev, cur) - mu[1]
        prev, cur = cur, prev
    return mu


def sequential_probe_blocks(seed: int, probes: int, n: int, width: int):
    """Reference probe draws: blocks of width Rademacher probes (the last one
    short) as C-contiguous (n, width) columns, drawn in order from one
    default_rng(seed), each block by one (width, n) integers call."""
    rng = np.random.default_rng(seed)
    for start in range(0, probes, width):
        w = min(width, probes - start)
        yield np.ascontiguousarray((rng.integers(0, 2, size=(w, n)) * 2.0 - 1.0).T)


def sequential_heat_traces(
    n: int, edges: np.ndarray, probes: int, seed: int, exact_steps
) -> np.ndarray:
    """Reference heat-trace estimator without a pool: the probe blocks of
    sequential_probe_blocks in draw order through negating_block_moments,
    which computes every dot, summed in that order; with exact_steps given,
    the averages above degree 2 min(exact_steps, K) scaled to the exact
    degree-0 moment and those up to it replaced by the exact moments."""
    from qcloak.netlsd import (
        PROBE_BLOCK,
        _chebyshev_operator,
        _exact_moments,
        _heat_coefficients,
        _scaled_adjacency,
        _zero_mode_basis,
    )

    s, deg = _scaled_adjacency(n, edges)
    basis = _zero_mode_basis(s, deg)
    op = _chebyshev_operator(s, deg)
    coef = _heat_coefficients(n)
    k_max = coef.shape[1] // 2
    mu = np.zeros(coef.shape[1])
    for v in sequential_probe_blocks(seed, probes, n, PROBE_BLOCK):
        mu += negating_block_moments(op, basis, k_max, v)
    mu /= probes
    if exact_steps is not None:
        low = _exact_moments(op, basis.shape[1], min(exact_steps, k_max))
        if mu[0] > 0:
            mu[low.size :] *= low[0] / mu[0]
        mu[: low.size] = low
    return basis.shape[1] + coef @ mu


def four_pass_heat_traces(n: int, edges: np.ndarray, probes: int, seed: int) -> np.ndarray:
    """Reference heat-trace estimator: the probe blocks in draw order, one at a
    time, through four_pass_block_moments on the Laplacian."""
    from qcloak.netlsd import PROBE_BLOCK, _heat_coefficients

    lap, deg = normalized_laplacian_sparse(n, edges)
    basis = union_find_zero_mode_basis(n, edges, deg)
    coef = _heat_coefficients(n)
    mu = np.zeros(coef.shape[1])
    for v in sequential_probe_blocks(seed, probes, n, PROBE_BLOCK):
        mu += four_pass_block_moments(lap, basis, coef.shape[1] // 2, v)
    return basis.shape[1] + coef @ mu / probes


def gate_counts_walk(c: Circuit) -> tuple[int, int, int, int]:
    """Reference (CX, SX+X, RZ, RX) tallies from a walk over c.gates."""
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
    return n_cx, n_sxx, n_rz, n_rx


def cx_depth_walk(c: Circuit) -> int:
    """Reference CX depth: every gate moves its wires' fronts."""
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


def dag_edges_walk(c: Circuit) -> tuple[tuple[int, int], ...]:
    """Reference DAG edges: each gate's wires in order link it to the previous
    node on the wire (first the wire's source g + w), then each wire's last
    node to its sink g + n + w."""
    g, n = len(c.gates), c.num_qubits
    front = [g + w for w in range(n)]
    edges = []
    for i, gate in enumerate(c.gates):
        for w in gate.qubits:
            edges.append((front[w], i))
            front[w] = i
    for w in range(n):
        edges.append((front[w], g + n + w))
    return tuple(edges)


# The comparison report's schema as pinned literals: a field dropped from or
# reordered in the dataclass-derived JSON or CSV breaks these.
REPORT_JSON_KEYS = [
    "name",
    "num_qubits",
    "tvd_uncorrected",
    "tvd_corrected",
    "dominant_percentile_uncorrected",
    "dominant_percentile_corrected",
    "dominant_note",
    "cx_delta",
    "sx_x_delta_pct",
    "rz_delta_pct",
    "depth_delta",
    "netlsd",
    "netlsd_x_only",
    "wall_times",
]
REPORT_CSV_HEADER = (
    "name,num_qubits,tvd_uncorrected,tvd_corrected,"
    "dominant_percentile_uncorrected,dominant_percentile_corrected,dominant_note,"
    "cx_delta,sx_x_delta_pct,rz_delta_pct,depth_delta,netlsd,netlsd_x_only,"
    "encode_seconds,baseline_seconds"
)
