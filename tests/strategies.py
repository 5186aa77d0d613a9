"""Shared hypothesis strategies and oracle helpers."""

import numpy as np
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qcloak.circuit import Circuit, Gate, GateKind, cx, rx, rz, sx, x
from qcloak.kak import (
    DIAG_TOL,
    GAMMA,
    MAGIC,
    MAGIC_H,
    UNITARY_TOL,
    KakTerms,
    _canonicalize,
    canonical_matrix,
)
from qcloak.linalg import circuit_unitary, equal_up_to_global_phase, is_unitary, rz_matrix
from qcloak.partition import Block, block_unitary
from qcloak.qasm import QasmError
from qcloak.synthesis import (
    CANDIDATE_TOL,
    DRESS_MARGIN,
    SynthesisError,
    _dress_cx,
    _pauli_dress,
    _rz_is_trivial,
    _rz_unless_trivial,
    _segments,
)

ANGLES = st.floats(min_value=-6.3, max_value=6.3, allow_nan=False)


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


def rewritten_candidate_1q(u: np.ndarray, rng: np.random.Generator | None) -> Circuit:
    """Reference for synthesis._candidate_1q: RZ(psi) prepended to the
    reference Euler run of u RZ(-psi), rewritten, with the same RNG draw."""
    if rng is None:
        return Circuit(1, tuple(rewritten_euler_1q(u, 0)))
    psi = rng.uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)
    gates = [Gate(GateKind.RZ, (0,), psi)]
    gates.extend(rewritten_euler_1q(u @ rz_matrix(-psi), 0))
    return Circuit(1, tuple(peephole_1q(gates)))


# Per-candidate synthesis oracle: each candidate decomposed, emitted and
# checked on its own, one matrix at a time. The stacked code in kak and
# synthesis must match it bit for bit.


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


def per_candidate_raw_decompose(u: np.ndarray, rng: np.random.Generator):
    det = np.linalg.det(u)
    delta = np.angle(det) / 4
    up = u * np.exp(-1j * delta)
    phase = delta

    v = MAGIC_H @ up @ MAGIC
    m2 = v.T @ v
    p = None
    for _ in range(100):
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


def per_candidate_kak(u: np.ndarray, rng: np.random.Generator | None = None) -> KakTerms:
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if not is_unitary(u, tol=UNITARY_TOL):
        raise ValueError("input matrix is not unitary")
    if rng is None:
        rng = np.random.default_rng(2023)
    phase, l1, l0, c, r1, r0 = _canonicalize(*per_candidate_raw_decompose(u, rng))
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


def per_candidate_1q(u: np.ndarray, rng: np.random.Generator | None) -> Circuit:
    if rng is None:
        return Circuit(1, tuple(per_candidate_euler_1q(u, 0)))
    psi = rng.uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)
    gates = per_candidate_euler_1q(u @ rz_matrix(-psi), 0)
    if gates and gates[0].kind is GateKind.RZ:
        gates[:1] = _rz_unless_trivial(psi + gates[0].angle, 0)
    else:
        gates.insert(0, Gate(GateKind.RZ, (0,), psi))
    return Circuit(1, tuple(gates))


def per_candidate_2q(u: np.ndarray, rng: np.random.Generator | None) -> Circuit:
    if rng is None:
        return _per_candidate_emit(*_segments(per_candidate_kak(u)))
    terms = _pauli_dress(per_candidate_kak(u, rng=rng), rng)
    segments, cxs = _segments(terms)
    return _per_candidate_emit(_dress_cx(segments, cxs, rng), cxs)


def per_candidate_generate(b: Block, k: int, seed: int, rngs=None) -> list[Circuit]:
    """Reference for synthesis.generate_candidates: each candidate built and
    checked through circuit_unitary before the next is drawn. rngs replaces
    the per-(seed, block, index) generators when given."""
    u = block_unitary(b)
    build = per_candidate_1q if len(b.qubits) == 1 else per_candidate_2q
    if rngs is None:
        rngs = [None] + [np.random.default_rng([seed, b.order_index, i]) for i in range(1, k)]
    out = []
    for i, rng in enumerate(rngs):
        frag = build(u, rng)
        if not equal_up_to_global_phase(circuit_unitary(frag), u, tol=CANDIDATE_TOL):
            raise SynthesisError(f"candidate {i} for block {b.order_index} failed equivalence")
        out.append(frag)
    return out


class ZeroFirstRng:
    """A Generator whose first uniform draw is (0, 0): a zero mix, whose
    eigenvectors do not diagonalize a generic m2, so the search retries."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        if self.uniform_calls == 1:
            return np.zeros(2)
        return self.inner.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.inner.integers(*args, **kwargs)


def gate_bits(c: Circuit) -> list[tuple]:
    """c's gates with each angle's type and exact bits, so -0.0 != 0.0."""
    return [
        (g.kind, g.qubits, type(g.angle), None if g.angle is None else float(g.angle).hex())
        for g in c.gates
    ]


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
    from qcloak.linalg import gate_unitary

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
    one wire). block_unitary must equal it bit for bit: its bits are KAK's
    input and so fix the encoded QASM."""
    from qcloak.circuit import GateKind
    from qcloak.linalg import gate_unitary

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


def union_find_zero_mode_basis(n: int, edges: set, deg: np.ndarray) -> np.ndarray:
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
    n: int, edges: set, grid: np.ndarray, probes: int, steps: int, seed: int
) -> np.ndarray:
    """Reference heat-trace estimator: one probe at a time, Lanczos with full
    reorthogonalization against the probe's whole basis. Same Rademacher
    draws, deflation, breakdown rule and scaling as the blocked estimator."""
    from qcloak.netlsd import _normalized_laplacian_sparse, _zero_mode_basis

    lap, deg = _normalized_laplacian_sparse(n, edges)
    basis = _zero_mode_basis(lap, deg)
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


def signature_to_csv(sig) -> str:
    lines = ["t,h"]
    for t, h in zip(sig.timescales, sig.traces):
        lines.append(f"{t:.12g},{h:.12g}")
    return "\n".join(lines) + "\n"


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
