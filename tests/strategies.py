"""Shared hypothesis strategies and oracle helpers."""

import numpy as np
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qcloak.circuit import Circuit, Gate, cx, rx, rz, sx, x

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


def reorthogonalized_heat_traces(
    n: int, edges: set, grid: np.ndarray, probes: int, steps: int, seed: int
) -> np.ndarray:
    """Reference heat-trace estimator: one probe at a time, Lanczos with full
    reorthogonalization against the probe's whole basis. Same Rademacher
    draws, deflation, breakdown rule and scaling as the blocked estimator."""
    from qcloak.netlsd import _normalized_laplacian_sparse, _zero_mode_basis

    lap, deg = _normalized_laplacian_sparse(n, edges)
    basis = _zero_mode_basis(n, edges, deg)
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
