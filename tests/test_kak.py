import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import expm

from qcloak.kak import (
    MAGIC,
    MAGIC_H,
    KakTerms,
    _factor_kron_2x2,
    canonical_matrix,
    kak_decompose,
    kak_reconstruct,
)
from qcloak.linalg import CX_MATRIX, PAULI_X, PAULI_Y, PAULI_Z, is_unitary
from strategies import unitaries

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _chamber_ok(c: np.ndarray) -> bool:
    c1, c2, c3 = c
    if not (-1e-9 <= c2 <= c1 <= np.pi / 4 + 1e-9):
        return False
    if abs(c3) > c2 + 1e-9:
        return False
    if c1 > np.pi / 4 - 1e-9 and c3 < -1e-9:
        return False
    return True


def test_canonical_matrix_matches_exponential():
    xx = np.kron(PAULI_X, PAULI_X)
    yy = np.kron(PAULI_Y, PAULI_Y)
    zz = np.kron(PAULI_Z, PAULI_Z)
    for c in ((0.0, 0.0, 0.0), (0.7, 0.2, -0.4), (np.pi / 4, np.pi / 4, np.pi / 4)):
        want = expm(1j * (c[0] * xx + c[1] * yy + c[2] * zz))
        assert np.allclose(canonical_matrix(np.array(c)), want, atol=1e-12)


def test_known_coordinates():
    assert np.allclose(kak_decompose(CX_MATRIX).weyl, [np.pi / 4, 0, 0], atol=1e-9)
    assert np.allclose(kak_decompose(SWAP).weyl, [np.pi / 4] * 3, atol=1e-9)
    assert np.allclose(kak_decompose(ISWAP).weyl, [np.pi / 4, np.pi / 4, 0], atol=1e-9)
    assert np.allclose(kak_decompose(np.eye(4)).weyl, [0, 0, 0], atol=1e-9)


def test_local_unitary_has_zero_coordinates():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        b = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        t = kak_decompose(np.kron(b, a))
        assert np.allclose(t.weyl, [0, 0, 0], atol=1e-9)


def test_interior_coordinates_round_trip():
    c = np.array([0.6, 0.4, 0.2])
    t = kak_decompose(canonical_matrix(c))
    assert np.allclose(t.weyl, c, atol=1e-9)


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        kak_decompose(np.eye(3))
    with pytest.raises(ValueError):
        kak_decompose(2.0 * np.eye(4))


def test_decompose_deterministic():
    u = canonical_matrix(np.array([0.5, 0.3, -0.1]))
    a = kak_decompose(u)
    b = kak_decompose(u)
    assert np.array_equal(a.weyl, b.weyl)
    assert all(np.array_equal(x, y) for x, y in zip(a.left_locals, b.left_locals))


def test_reconstruct_is_exact_inverse_on_cx():
    t = kak_decompose(CX_MATRIX)
    assert np.max(np.abs(kak_reconstruct(t) - CX_MATRIX)) < 1e-10
    for m in (*t.left_locals, *t.right_locals):
        assert is_unitary(m, 1e-10)


def test_reconstruct_applies_phase_and_frame():
    t = KakTerms(
        left_locals=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
        right_locals=(PAULI_X.astype(complex), np.eye(2, dtype=complex)),
        weyl=np.zeros(3),
        global_phase=np.pi / 2,
    )
    # wire-0 local sits in the low kron slot
    assert np.allclose(kak_reconstruct(t), 1j * np.kron(np.eye(2), PAULI_X), atol=1e-14)


@given(unitaries())
@settings(max_examples=150, deadline=None)
def test_decompose_reconstruct_property(u):
    t = kak_decompose(u)
    assert np.max(np.abs(kak_reconstruct(t) - u)) <= 1e-9
    assert _chamber_ok(t.weyl)
    for m in (*t.left_locals, *t.right_locals):
        assert is_unitary(m, 1e-9)
    assert -np.pi - 1e-12 < t.global_phase <= np.pi + 1e-12


def _factor_one(g):
    """Per-matrix reference for _factor_kron_2x2 on one tensor product."""
    m = g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(m)
    g1 = u[:, 0].reshape(2, 2) * np.sqrt(s[0])
    g0 = vh[0, :].reshape(2, 2) * np.sqrt(s[0])
    g1 = g1 / np.sqrt(np.linalg.det(g1))
    g0 = g0 / np.sqrt(np.linalg.det(g0))
    frame = np.kron(g1, g0)
    idx = np.unravel_index(np.argmax(np.abs(frame)), frame.shape)
    return g1, g0, float(np.angle(g[idx] / frame[idx]))


def _special_orthogonal(rng):
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_stacked_frame_factorization_is_bit_identical_to_per_matrix():
    # the emitted angles derive from these bits, so stacking both frames into
    # one matmul, SVD and det must not move any of them
    rng = np.random.default_rng(5)
    for _ in range(50):
        # o1 is the real part of a complex array and o2 a transpose, as in
        # _raw_decompose
        o1 = (_special_orthogonal(rng) + 0j).real
        o2 = _special_orthogonal(rng).T
        frames = MAGIC @ np.stack((o1, o2)) @ MAGIC_H
        for o, frame in zip((o1, o2), frames):
            assert np.array_equal(frame, MAGIC @ o @ MAGIC.conj().T)
        for got, frame in zip(_factor_kron_2x2(frames), frames):
            want = _factor_one(frame)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]
