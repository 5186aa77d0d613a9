import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcloak.bench import desk_benchmarks
from qcloak.circuit import Circuit, cx, rx, rz, sx, x
from qcloak.linalg import (
    CX_MATRIX,
    PAULI_X,
    PAULI_Z,
    SX_MATRIX,
    UNITARY_QUBIT_CAP,
    apply_circuit,
    circuit_unitary,
    equal_up_to_global_phase,
    rx_matrix,
    ry_matrix,
    rz_matrix,
)
from qcloak.pipeline import EQUIV_CHECK_MAX_QUBITS, PipelineConfig, _stimuli, encode
from strategies import (
    ANGLES,
    circuits,
    embed_unitary,
    gate_loop_apply_circuit,
    gate_unitary,
    is_unitary,
    one_qubit_runs,
    scalar_rx_matrix,
    scalar_ry_matrix,
    scalar_rz_matrix,
    slow_circuit_unitary,
)


def test_rotation_matrices_match_exponentials():
    for theta in (-5.0, -np.pi / 3, 0.0, 0.7, np.pi, 6.2):
        assert np.allclose(rz_matrix(theta), expm(-0.5j * theta * PAULI_Z), atol=1e-14)
        assert np.allclose(rx_matrix(theta), expm(-0.5j * theta * PAULI_X), atol=1e-14)


# angles where a vectorized sin, cos or exp could round apart from a scalar
# call: signed zeros, multiples of pi/2, a subnormal-scale and a huge angle
BOUNDARY_ANGLES = (
    0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e-300, 1e10
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize(
    "stacked, scalar",
    [(rx_matrix, scalar_rx_matrix), (ry_matrix, scalar_ry_matrix), (rz_matrix, scalar_rz_matrix)],
    ids=["rx", "ry", "rz"],
)
def test_stacked_rotations_match_scalar_builders_bit_for_bit(stacked, scalar):
    # the stacked template stage builds its rotations from angle arrays; its
    # outputs equal the per-candidate code's only if every entry has the
    # bits of a one-angle call
    rng = np.random.default_rng(24)
    angles = np.concatenate(
        (rng.uniform(-4 * np.pi, 4 * np.pi, 100_000), rng.normal(0, 1e3, 2_000), BOUNDARY_ANGLES)
    )
    want = np.array([scalar(a) for a in angles.tolist()])
    assert np.array_equal(_bits(stacked(angles)), _bits(want))
    assert np.array_equal(_bits(stacked(angles[::-1][::2])), _bits(want[::-1][::2]))
    for a in BOUNDARY_ANGLES:
        assert np.array_equal(_bits(stacked(a)), _bits(scalar(a)))


def test_stacked_2x2_matmul_matches_per_matrix_products_bit_for_bit():
    # contiguous (n, 2, 2) stacks, a broadcast constant on either side and a
    # transposed constant, as the template stage and KAK canonicalization
    # multiply them
    rng = np.random.default_rng(6)
    a, b = (rng.normal(size=(2, 5_000, 2, 2)) + 1j * rng.normal(size=(2, 5_000, 2, 2)))
    c = scalar_ry_matrix(-np.pi / 2)
    for got, want in (
        (a @ b, [x @ y for x, y in zip(a, b)]),
        (a @ c, [x @ c for x in a]),
        (c @ a, [c @ x for x in a]),
        (a @ c.conj().T, [x @ c.conj().T for x in a]),
        (np.matmul(np.broadcast_to(c, a.shape), b), [c @ y for y in b]),
    ):
        assert np.array_equal(_bits(got), _bits(np.array(want)))


def test_sx_squares_to_x():
    assert np.allclose(SX_MATRIX @ SX_MATRIX, PAULI_X, atol=1e-15)
    assert np.allclose(SX_MATRIX, expm(-0.25j * np.pi * (PAULI_X - np.eye(2))), atol=1e-14)


def test_cx_matrix_little_endian():
    # control = operand 0 = low bit: |01> (q0=1) flips q1 -> |11>
    v = np.zeros(4)
    v[0b01] = 1.0
    assert np.argmax(np.abs(CX_MATRIX @ v)) == 0b11
    v = np.zeros(4)
    v[0b10] = 1.0  # control clear: unchanged
    assert np.argmax(np.abs(CX_MATRIX @ v)) == 0b10


def test_gate_unitary_dispatch():
    assert np.allclose(gate_unitary(x(3)), PAULI_X)
    assert np.allclose(gate_unitary(sx(0)), SX_MATRIX)
    assert np.allclose(gate_unitary(cx(0, 1)), CX_MATRIX)
    assert np.allclose(gate_unitary(rz(1.1, 2)), rz_matrix(1.1))
    assert np.allclose(gate_unitary(rx(-2.2, 0)), rx_matrix(-2.2))


@given(
    st.one_of(circuits(max_qubits=5, max_gates=30), one_qubit_runs(max_qubits=6, min_gates=40)),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_apply_circuit_has_the_gate_loop_bits(c, width):
    # the column kernel's stacked matrices and run products against one
    # Gate at a time, on the identity and on a block of random states
    rng = np.random.default_rng(width)
    dim = 2**c.num_qubits
    states = rng.standard_normal((dim, width)) + 1j * rng.standard_normal((dim, width))
    for u in (np.eye(dim, dtype=complex), states):
        assert np.array_equal(apply_circuit(u.copy(), c), gate_loop_apply_circuit(u.copy(), c))


@pytest.mark.parametrize(
    "name",
    [name for name, c in desk_benchmarks().items() if c.num_qubits <= EQUIV_CHECK_MAX_QUBITS],
)
def test_apply_circuit_has_the_gate_loop_bits_on_encode_stimuli(name):
    enc = encode(desk_benchmarks()[name], PipelineConfig(seed=3))
    for c in (enc.circuit, enc.x_injected):
        stimuli = _stimuli(c.num_qubits)
        got = apply_circuit(stimuli.copy(), c)
        assert np.array_equal(got, gate_loop_apply_circuit(stimuli.copy(), c))


def test_embed_unitary_positions():
    # X on qubit 1 of 2: |00> -> |10> (index 2)
    u = embed_unitary(PAULI_X, (1,), 2)
    assert np.argmax(np.abs(u[:, 0])) == 2
    # CX with control=qubit 1, target=qubit 0: flips bit 0 when bit 1 set
    u = embed_unitary(CX_MATRIX, (1, 0), 2)
    v = np.zeros(4)
    v[0b10] = 1.0
    assert np.argmax(np.abs(u @ v)) == 0b11


def test_circuit_unitary_cap():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(UNITARY_QUBIT_CAP + 1))


@given(circuits(max_qubits=4, max_gates=16))
@settings(max_examples=60)
def test_circuit_unitary_matches_kron_reference(c):
    fast = circuit_unitary(c)
    assert np.max(np.abs(fast - slow_circuit_unitary(c))) < 1e-12
    assert is_unitary(fast)


@given(one_qubit_runs(max_qubits=6, min_gates=40))
@settings(max_examples=40, deadline=None)
def test_fused_runs_match_kron_reference(c):
    assert np.max(np.abs(circuit_unitary(c) - slow_circuit_unitary(c))) < 1e-12


@given(ANGLES)
def test_equal_up_to_global_phase(theta):
    u = circuit_unitary(Circuit(2, (rx(1.0, 0), cx(0, 1))))
    assert equal_up_to_global_phase(np.exp(1j * theta) * u, u)
    assert not equal_up_to_global_phase(u @ u, u) or np.allclose(u @ u, u)


def test_equal_up_to_global_phase_stacked_answers_each_matrix():
    rng = np.random.default_rng(5)
    u = circuit_unitary(Circuit(2, (rx(1.0, 0), cx(0, 1))))
    b = np.array([u, u, u, np.zeros((4, 4)), np.zeros((4, 4))])
    a = np.array([1j * u, u @ u, u + 1e-6, np.zeros((4, 4)), np.full((4, 4), 1e-3)])
    a[0] *= np.exp(1j * rng.uniform(0, 2 * np.pi))
    each = [equal_up_to_global_phase(x, y) for x, y in zip(a, b)]
    assert each == [True, False, False, True, False]
    assert all(type(e) is bool for e in each)
    assert equal_up_to_global_phase(a, b).tolist() == each
    with pytest.raises(ValueError, match="dimension mismatch"):
        equal_up_to_global_phase(a, b[:4])


def test_is_unitary_rejects():
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.zeros((2, 3)))
    assert is_unitary(np.eye(8))
