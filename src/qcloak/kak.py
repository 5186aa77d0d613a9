"""Cartan (KAK) decomposition of two-qubit unitaries in the magic basis.

Any U in U(4) factors as e^{i phi} (l1 x l0) exp(i(c1 XX + c2 YY + c3 ZZ))
(r1 x r0) with the Weyl coordinates canonicalized into the chamber
pi/4 >= c1 >= c2 >= |c3|, c2 >= 0. Index convention: locals[w] acts on local
wire w, and wire 0 is the low-order bit, so kron(l1, l0) is the frame matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, is_unitary, rx_matrix, ry_matrix, rz_matrix

MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]
) / np.sqrt(2)
MAGIC_H = MAGIC.conj().T

# theta = eigenphases of the magic-basis Gram matrix; GAMMA @ theta gives
# (global phase, c1, c2, c3)
GAMMA = 0.25 * np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [-1, 1, -1, 1], [1, -1, -1, 1]]
)

_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
# single-qubit S with (S x S) N(c) (S x S)^dag = N(c with axes j,k swapped)
_SWAP_CONJ = {
    (0, 1): rz_matrix(np.pi / 2),
    (1, 2): rx_matrix(np.pi / 2),
    (0, 2): ry_matrix(np.pi / 2),
}

DIAG_TOL = 1e-11
UNITARY_TOL = 1e-8


@dataclass(frozen=True)
class KakTerms:
    """left_locals[w]/right_locals[w] act on local wire w; weyl = (c1,c2,c3)."""

    left_locals: tuple[np.ndarray, np.ndarray]
    right_locals: tuple[np.ndarray, np.ndarray]
    weyl: np.ndarray
    global_phase: float


def canonical_matrix(c: np.ndarray) -> np.ndarray:
    """exp(i(c1 XX + c2 YY + c3 ZZ)) without a matrix exponential: the
    generator is diagonal in the magic basis, so diagonalize by construction."""
    theta = np.linalg.solve(GAMMA, np.array([0.0, c[0], c[1], c[2]]))
    return MAGIC @ np.diag(np.exp(1j * theta)) @ MAGIC_H


def kak_reconstruct(t: KakTerms) -> np.ndarray:
    l0, l1 = t.left_locals
    r0, r1 = t.right_locals
    return (
        np.exp(1j * t.global_phase)
        * np.kron(l1, l0)
        @ canonical_matrix(t.weyl)
        @ np.kron(r1, r0)
    )


def _factor_kron_2x2(g: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Each g[i] = e^{i phase_i} kron(g1_i, g0_i) with det g1_i = det g0_i = 1,
    for a (m, 4, 4) stack of tensor products (the SVD of each rearranged
    matrix has rank 1). One stacked SVD and one stacked det serve the whole
    stack; each matrix's bits equal those of its own per-matrix call."""
    m = g.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(m)
    root = np.sqrt(s[:, 0])[:, None, None]
    factors = np.concatenate(
        (u[:, :, 0].reshape(-1, 2, 2) * root, vh[:, 0, :].reshape(-1, 2, 2) * root)
    )
    factors = factors / np.sqrt(np.linalg.det(factors))[:, None, None]
    out = []
    for gi, g1, g0 in zip(g, factors[: len(g)], factors[len(g) :]):
        frame = np.kron(g1, g0)
        idx = np.unravel_index(np.argmax(np.abs(frame)), frame.shape)
        out.append((g1, g0, float(np.angle(gi[idx] / frame[idx]))))
    return out


def _raw_decompose(u: np.ndarray, rng: np.random.Generator):
    det = np.linalg.det(u)
    delta = np.angle(det) / 4
    up = u * np.exp(-1j * delta)
    phase = delta

    v = MAGIC_H @ up @ MAGIC
    m2 = v.T @ v
    # m2 is complex symmetric unitary; a real orthogonal diagonalizer always
    # exists and almost any real mix of Re/Im parts exposes it
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
    # force sum(theta) = 0 so both orthogonal factors land in SO(4)
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
    (l1, l0, pl), (r1, r0, pr) = _factor_kron_2x2(MAGIC @ np.stack((o1, o2)) @ MAGIC_H)
    phase += pl + pr
    return phase, l1, l0, np.array([c1, c2, c3]), r1, r0


def _canonicalize(phase, l1, l0, c, r1, r0):
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


def kak_decompose(u: np.ndarray, rng: np.random.Generator | None = None) -> KakTerms:
    """Canonicalized Cartan decomposition of a 4x4 unitary.

    The optional rng only varies internal branch choices (eigenvector order
    and signs); every branch yields a valid decomposition of the same u.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    if not is_unitary(u, tol=UNITARY_TOL):
        raise ValueError("input matrix is not unitary")
    if rng is None:
        rng = np.random.default_rng(2023)
    phase, l1, l0, c, r1, r0 = _canonicalize(*_raw_decompose(u, rng))
    phase = float((phase + np.pi) % (2 * np.pi) - np.pi)
    return KakTerms((l0, l1), (r0, r1), c, phase)
