"""Gate matrices and the one kernel applying a circuit to a block of states.

Everything is little-endian: local qubit j of a gate is operand j, and
operand 0 is the least significant bit of the matrix's basis index.
"""

import numpy as np

from .circuit import RX_CODE, RZ_CODE, SX_CODE, X_CODE, Circuit

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SX_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])

# control = operand 0 = local bit 0, target = operand 1 = local bit 1
CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
# after a CX with control wire c, row i of a two-wire unitary is old row CX_ROWS[c][i]
CX_ROWS = np.array([(0, 3, 2, 1), (0, 1, 3, 2)])

UNITARY_QUBIT_CAP = 12


# The rotations take an angle or an array of angles and return one 2x2
# matrix or a (..., 2, 2) stack. Every entry of a stack has the bits of its
# own one-angle call: np.cos, np.sin and the complex np.exp round each
# element alike whatever the array's length (tests/test_linalg.py pins this).


def rx_matrix(theta: float | np.ndarray) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t / 2), np.sin(t / 2)
    m = np.empty(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1] = m[..., 1, 0] = -1j * s
    return m


def rz_matrix(theta: float | np.ndarray) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    m = np.zeros(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
    return m


def ry_matrix(theta: float | np.ndarray) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    c, s = np.cos(t / 2), np.sin(t / 2)
    m = np.empty(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1], m[..., 1, 0] = -s, s
    return m


def gate_matrices(kind: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """The 2x2 matrix of each row of kind-code and angle columns, as a
    (len(kind), 2, 2) stack; a CX row's matrix is left unset."""
    mats = np.empty((len(kind), 2, 2), dtype=complex)
    for code, rotation in ((RZ_CODE, rz_matrix), (RX_CODE, rx_matrix)):
        mats[kind == code] = rotation(angle[kind == code])
    mats[kind == X_CODE], mats[kind == SX_CODE] = PAULI_X, SX_MATRIX
    return mats


def _apply_1q(u: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    """mat applied to qubit q of the row index of a C-contiguous u with 2^n rows.

    The reshape isolates bit q as the middle axis of a contiguous view, so
    this is one batched matmul with no transpose copy. Returns a new array
    of u's shape."""
    return np.matmul(mat, u.reshape(2 ** (n - 1 - q), 2, -1)).reshape(u.shape)


def _apply_cx(u: np.ndarray, control: int, target: int, n: int) -> None:
    """CX on the row index of a C-contiguous u with 2^n rows, in place: among
    rows with the control bit set, swap the halves with target bit 0 and 1."""
    view = u.reshape((2,) * n + (-1,))
    control_axis, target_axis = n - 1 - control, n - 1 - target
    idx: list = [slice(None)] * (n + 1)
    idx[control_axis] = 1
    flip_axis = target_axis - 1 if target_axis > control_axis else target_axis
    view[tuple(idx)] = np.flip(view[tuple(idx)], axis=flip_axis)


def apply_circuit(u: np.ndarray, c: Circuit) -> np.ndarray:
    """c applied to the rows of a C-contiguous u with 2^n rows; u may be
    updated in place, and the result is returned.

    Each wire's run of one-qubit gates is first multiplied into one 2x2
    matrix, which is applied to u only when a CX touches the wire or at the
    end. The p-th factors of all runs are multiplied on by one stacked
    matmul, a BLAS call per product that rounds as a lone 2x2 product does.
    The result differs from the gate-by-gate product by rounding only, so
    it serves simulation and pass/fail equivalence checks; bits that feed
    later computation come from gate-by-gate products (see
    partition.block_unitaries)."""
    n = c.num_qubits
    kind, q0, q1, angle = c.columns
    mats = gate_matrices(kind, angle)
    # one pass over the rows: row i, the p-th of its wire's open run r,
    # joins level p as (r, i); steps lists in order the runs as they close
    # (wire, run, -1) and the CXs (control, -1, target)
    levels: list[list[tuple[int, int]]] = []
    length: list[int] = []  # of each run so far
    steps: list[tuple[int, int, int]] = []
    pending: dict[int, int] = {}  # wire -> its open run
    for i, (a, b) in enumerate(zip(q0.tolist(), q1.tolist())):
        if b != -1:
            steps += [(q, pending.pop(q), -1) for q in (a, b) if q in pending]
            steps.append((a, -1, b))
            continue
        r = pending.setdefault(a, len(length))
        if r == len(length):
            length.append(0)
        if length[r] == len(levels):
            levels.append([])
        levels[length[r]].append((r, i))
        length[r] += 1
    steps += [(q, r, -1) for q, r in pending.items()]
    products = mats[[i for _r, i in levels[0]]] if levels else mats[:0]
    for level in levels[1:]:
        runs, rows = map(list, zip(*level))
        products[runs] = np.matmul(mats[rows], products[runs])
    for q, r, target in steps:
        if r >= 0:
            u = _apply_1q(u, products[r], q, n)
        else:
            _apply_cx(u, q, target, n)
    return u


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Product of embedded gate unitaries, later gates on the left: c
    applied to the identity by apply_circuit."""
    if c.num_qubits > UNITARY_QUBIT_CAP:
        raise ValueError(
            f"circuit_unitary capped at {UNITARY_QUBIT_CAP} qubits, got {c.num_qubits}"
        )
    return apply_circuit(np.eye(2**c.num_qubits, dtype=complex), c)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9):
    """True iff a = e^{i phi} b for some phase, in max-abs-entry norm. The
    phase is read at b's largest entry; an all-zero b needs max |a| <= tol.
    Stacks (..., m, n) of matrices give a bool array, one answer each."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    a, b = a.reshape(*a.shape[:-2], -1), b.reshape(*b.shape[:-2], -1)
    at = np.argmax(np.abs(b), axis=-1)[..., None]
    phi = np.angle(np.take_along_axis(a, at, -1)) - np.angle(np.take_along_axis(b, at, -1))
    equal = np.max(np.abs(a - np.exp(1j * phi) * b), axis=-1) <= tol
    return bool(equal) if equal.ndim == 0 else equal
