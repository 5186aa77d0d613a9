"""Cartan (KAK) decomposition of two-qubit unitaries in the magic basis.

Any U in U(4) factors as e^{i phi} (l1 x l0) exp(i(c1 XX + c2 YY + c3 ZZ))
(r1 x r0) with the Weyl coordinates canonicalized into the chamber
pi/4 >= c1 >= c2 >= |c3|, c2 >= 0. Index convention: locals[w] acts on local
wire w, and wire 0 is the low-order bit, so kron(l1, l0) is the frame matrix.

kak_decompose_stack decomposes a (m, 4, 4) stack of unitaries, one rng per
matrix, as synthesis does for the candidates of many blocks at once. The
unitarity test, det, magic-basis transform, Gram matrix, first
diagonalizer tries, sign fix, eigenphases, left factor and frame
factorization each run once over the stack; only a failed try repeats, from
its own rng. kak_decompose_many (one u, many rngs) and kak_decompose (one
u, one rng) are the repeated-u cases of the same path. Stacked eigh, det,
svd, 4x4 matmul, angle and complex division give each matrix the bits of
its own call, so every result equals the decomposition of its matrix alone.
np.abs of a complex array does not round as the scalar abs() does, so a
magnitude that replaces a scalar abs() is computed as np.hypot(z.real,
z.imag).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, rx_matrix, ry_matrix, rz_matrix

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
_DIAGONAL = np.arange(4)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


class DecompositionError(ArithmeticError):
    """No decomposition found for the matrix at stack position index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"matrix {index}: {message}")
        self.index = index


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


def _factor_kron_2x2(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each g[i] = e^{i phase_i} kron(g1_i, g0_i) with det g1_i = det g0_i = 1,
    for a (m, 4, 4) stack of tensor products (the SVD of each rearranged
    matrix has rank 1). Returns the (m, 2, 2) stacks g1 and g0 and the (m,)
    phases. One SVD, det, kron product, argmax and angle serve the whole
    stack; each matrix's bits equal those of its own per-matrix call."""
    m = g.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(m)
    root = np.sqrt(s[:, 0])[:, None, None]
    factors = np.concatenate(
        (u[:, :, 0].reshape(-1, 2, 2) * root, vh[:, 0, :].reshape(-1, 2, 2) * root)
    )
    factors = factors / np.sqrt(np.linalg.det(factors))[:, None, None]
    g1, g0 = factors[: len(g)], factors[len(g) :]
    # np.kron's own multiply, one broadcast over the stack
    frames = (g1[:, :, None, :, None] * g0[:, None, :, None, :]).reshape(-1, 16)
    idx = np.argmax(np.abs(frames), axis=1)
    rows = np.arange(len(g))
    return g1, g0, np.angle(g.reshape(-1, 16)[rows, idx] / frames[rows, idx])


def _diagonalize(m2: np.ndarray, ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of a * Re(m2) + b * Im(m2) for each row (a, b) of ab, and
    whether each one diagonalizes m2 itself."""
    a, b = ab[:, 0, None, None], ab[:, 1, None, None]
    _, cand = np.linalg.eigh(a * m2.real + b * m2.imag)
    d = np.swapaxes(cand, 1, 2) @ m2 @ cand
    return cand, np.max(np.abs(d[:, _OFF_DIAGONAL]), axis=1) < DIAG_TOL


def _raw_decompose(us: np.ndarray, rngs: list[np.random.Generator]):
    """Uncanonicalized KAK terms of each us[i], one per rng: rngs[i] draws the
    (a, b) mixes of us[i]'s own diagonalizer search, so no rng's draws
    depend on the others'."""
    det = np.linalg.det(us)
    delta = np.angle(det) / 4
    up = us * np.exp(-1j * delta)[:, None, None]

    v = MAGIC_H @ up @ MAGIC
    m2 = np.swapaxes(v, 1, 2) @ v
    # m2 is complex symmetric unitary; a real orthogonal diagonalizer always
    # exists and almost any real mix of Re/Im parts exposes it. First tries
    # run as one stack; only a failed one retries, from its own rng.
    p, ok = _diagonalize(m2, np.array([rng.uniform(-1, 1, 2) for rng in rngs]))
    for i in np.flatnonzero(~ok):
        for _ in range(99):
            cand, found = _diagonalize(m2[i : i + 1], rngs[i].uniform(-1, 1, 2)[None])
            if found[0]:
                p[i] = cand[0]
                break
        else:
            raise DecompositionError(int(i), "no real-orthogonal diagonalizer found")
    p[np.linalg.det(p) < 0, :, 0] *= -1
    theta = 0.5 * np.angle(np.diagonal(np.swapaxes(p, 1, 2) @ m2 @ p, axis1=1, axis2=2))
    for t in theta:
        # force sum(t) = 0 so both orthogonal factors land in SO(4)
        if round(np.sum(t) / np.pi) % 2 != 0:
            t[0] += np.pi
        if round(np.sum(t) / (2 * np.pi)) != 0:
            t[0] -= np.pi
            t[1] -= np.pi

    o2 = np.swapaxes(p, 1, 2)
    phases = np.zeros((len(rngs), 4, 4), dtype=complex)
    phases[:, _DIAGONAL, _DIAGONAL] = np.exp(-1j * theta)
    o1 = v @ p @ phases
    not_real = ~(np.max(np.abs(o1.imag), axis=(1, 2)) <= 1e-9)
    if not_real.any():
        raise DecompositionError(int(np.argmax(not_real)), "left orthogonal factor is not real")

    g1, g0, pk = _factor_kron_2x2(MAGIC @ np.concatenate((o1.real, o2)) @ MAGIC_H)
    out = []
    for i, t in enumerate(theta):
        w, c1, c2, c3 = GAMMA @ t
        j = len(rngs) + i
        phase = (delta[i] + w) + (pk[i] + pk[j])
        out.append((phase, g1[i], g0[i], np.array([c1, c2, c3]), g1[j], g0[j]))
    return out


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


def kak_decompose_stack(
    us: np.ndarray, rngs: list[np.random.Generator | None]
) -> list[KakTerms]:
    """Canonicalized Cartan decompositions of a (m, 4, 4) stack of unitaries,
    us[i] drawing its branch choices from rngs[i].

    An rng only varies internal branch choices (eigenvector order and
    signs); every branch yields a valid decomposition of the same u. None
    stands for default_rng(2023), the plain decomposition. Each result
    equals the decomposition of its matrix alone bit for bit. Raises
    ValueError for a non-unitary matrix and DecompositionError, with the
    matrix's stack index, when a decomposition step fails.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1:] != (4, 4) or len(us) != len(rngs):
        raise ValueError(f"expected {len(rngs)} 4x4 matrices, got shape {us.shape}")
    dev = np.max(np.abs(np.swapaxes(us.conj(), 1, 2) @ us - np.eye(4)), axis=(1, 2))
    if not np.all(dev <= UNITARY_TOL):
        raise ValueError("input matrix is not unitary")
    if not rngs:
        return []
    rngs = [np.random.default_rng(2023) if rng is None else rng for rng in rngs]
    out = []
    for raw in _raw_decompose(us, rngs):
        phase, l1, l0, c, r1, r0 = _canonicalize(*raw)
        phase = float((phase + np.pi) % (2 * np.pi) - np.pi)
        out.append(KakTerms((l0, l1), (r0, r1), c, phase))
    return out


def kak_decompose_many(
    u: np.ndarray, rngs: list[np.random.Generator | None]
) -> list[KakTerms]:
    """Decompositions of one 4x4 unitary, one per rng: the repeated-u case of
    kak_decompose_stack."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    return kak_decompose_stack(np.broadcast_to(u, (len(rngs), 4, 4)), rngs)


def kak_decompose(u: np.ndarray, rng: np.random.Generator | None = None) -> KakTerms:
    """Canonicalized Cartan decomposition of a 4x4 unitary: the one-rng case
    of kak_decompose_many."""
    return kak_decompose_many(u, [rng])[0]
