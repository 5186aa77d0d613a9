"""Cartan (KAK) decomposition of two-qubit unitaries in the magic basis.

Any U in U(4) factors as e^{i phi} (l1 x l0) exp(i(c1 XX + c2 YY + c3 ZZ))
(r1 x r0) with the Weyl coordinates canonicalized into the chamber
pi/4 >= c1 >= c2 >= |c3|, c2 >= 0. Index convention: locals[w] acts on local
wire w, and wire 0 is the low-order bit, so kron(l1, l0) is the frame matrix.

kak_decompose_stack decomposes a (m, 4, 4) stack of unitaries, as synthesis
does for the candidates of many blocks at once, and returns the terms as
stacks (KakStack). A row is plain unless the dressed mask marks it: a plain
row's first diagonalizer mix is the first of default_rng(PLAIN_SEED),
drawn once at import; a dressed row's first mix is its row of the mixes
array. The unitarity test, det, magic-basis transform, Gram matrix, first
diagonalizer tries, sign fix, eigenphases, left factor, frame
factorization and GAMMA @ theta each run once over the stack, and each
canonicalization step (shift, negation, swap, boundary fix) runs once over
the rows it applies to, in the one-matrix order; only a failed
diagonalizer try repeats, and only it builds a generator: default_rng(
PLAIN_SEED) past its first mix for a plain row, default_rng(retry_seed(i))
for dressed row i. kak_decompose (one u, plain) is the one-matrix case of
the same path.
Stacked eigh, det, svd, 2x2 and 4x4 matmul, matrix-vector products, angle
and complex division give each matrix the bits of its own call, so every
row equals the decomposition of its matrix alone.
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
# a plain row's generator; its first (a, b) mix is drawn once
PLAIN_SEED = 2023
_PLAIN_MIX = np.random.default_rng(PLAIN_SEED).uniform(-1, 1, 2)
_PLAIN_MIX.setflags(write=False)
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


@dataclass(frozen=True)
class KakStack:
    """The KakTerms of m matrices as stacks along a leading axis: row i of
    every field belongs to matrix i, and stack[i] is its KakTerms (iterating
    a stack yields them in order)."""

    left_locals: tuple[np.ndarray, np.ndarray]
    right_locals: tuple[np.ndarray, np.ndarray]
    weyl: np.ndarray
    global_phase: np.ndarray

    def __len__(self) -> int:
        return len(self.weyl)

    def __getitem__(self, i: int) -> KakTerms:
        (l0, l1), (r0, r1) = self.left_locals, self.right_locals
        return KakTerms((l0[i], l1[i]), (r0[i], r1[i]), self.weyl[i], float(self.global_phase[i]))


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


def _raw_decompose(us: np.ndarray, mixes: np.ndarray, dressed: np.ndarray, retry_seed):
    """Uncanonicalized KAK terms of each us[i] as stacks (phase, l1, l0, c,
    r1, r0): mixes[i] is the (a, b) mix of us[i]'s first diagonalizer try,
    and only a failed try builds a generator to draw the next mixes from,
    default_rng(retry_seed(i)) for a dressed row and default_rng(PLAIN_SEED)
    past its first mix for a plain one, so no row's draws depend on the
    others'."""
    det = np.linalg.det(us)
    delta = np.angle(det) / 4
    up = us * np.exp(-1j * delta)[:, None, None]

    v = MAGIC_H @ up @ MAGIC
    m2 = np.swapaxes(v, 1, 2) @ v
    # m2 is complex symmetric unitary; a real orthogonal diagonalizer always
    # exists and almost any real mix of Re/Im parts exposes it. First tries
    # run as one stack; only a failed one retries, from its own generator.
    p, ok = _diagonalize(m2, mixes)
    for i in np.flatnonzero(~ok):
        if dressed[i]:
            rng = np.random.default_rng(retry_seed(int(i)))
        else:
            rng = np.random.default_rng(PLAIN_SEED)
            rng.uniform(-1, 1, 2)  # the first mix, already tried
        for _ in range(99):
            cand, found = _diagonalize(m2[i : i + 1], rng.uniform(-1, 1, 2)[None])
            if found[0]:
                p[i] = cand[0]
                break
        else:
            raise DecompositionError(int(i), "no real-orthogonal diagonalizer found")
    p[np.linalg.det(p) < 0, :, 0] *= -1
    theta = 0.5 * np.angle(np.diagonal(np.swapaxes(p, 1, 2) @ m2 @ p, axis1=1, axis2=2))
    # force sum(theta) = 0 so both orthogonal factors land in SO(4)
    theta[np.round(np.sum(theta, axis=1) / np.pi) % 2 != 0, 0] += np.pi
    theta[np.round(np.sum(theta, axis=1) / (2 * np.pi)) != 0, :2] -= np.pi

    o2 = np.swapaxes(p, 1, 2)
    phases = np.zeros((len(us), 4, 4), dtype=complex)
    phases[:, _DIAGONAL, _DIAGONAL] = np.exp(-1j * theta)
    o1 = v @ p @ phases
    not_real = ~(np.max(np.abs(o1.imag), axis=(1, 2)) <= 1e-9)
    if not_real.any():
        raise DecompositionError(int(np.argmax(not_real)), "left orthogonal factor is not real")

    g1, g0, pk = _factor_kron_2x2(MAGIC @ np.concatenate((o1.real, o2)) @ MAGIC_H)
    # one matrix-vector product per matrix, as GAMMA @ theta[i] rounds
    w = np.matmul(GAMMA, theta[:, :, None])[:, :, 0]
    m = len(us)
    phase = (delta + w[:, 0]) + (pk[:m] + pk[m:])
    return phase, g1[:m], g0[:m], w[:, 1:], g1[m:], g0[m:]


def _canonicalize(phase, l1, l0, c, r1, r0):
    """Move each row's coordinates into the Weyl chamber, updating its phase
    and locals in place. Every step runs once over the rows it applies to,
    in the order of the one-matrix procedure, so each row gets the bits of
    its own decomposition."""

    def shift(rows, k, steps):
        # c[k] += steps * pi/2 costs a phase and, when odd, a Pauli on both
        # left locals: N(c + (pi/2) e_k) = i P_k x P_k N(c)
        c[rows, k] += steps * np.pi / 2
        phase[rows] += -steps * np.pi / 2
        odd = rows[steps % 2 != 0]
        l1[odd] = l1[odd] @ _PAULIS[k]
        l0[odd] = l0[odd] @ _PAULIS[k]

    def negate(rows, j, k):
        # conjugating by the remaining Pauli on wire 1 flips signs of c_j, c_k
        p = _PAULIS[3 - j - k]
        c[rows, j] = -c[rows, j]
        c[rows, k] = -c[rows, k]
        l1[rows] = l1[rows] @ p
        r1[rows] = p @ r1[rows]

    def swap(rows, j, k):
        s = _SWAP_CONJ[(j, k)]
        c[rows, j], c[rows, k] = c[rows, k], c[rows, j]
        l1[rows] = l1[rows] @ s.conj().T
        l0[rows] = l0[rows] @ s.conj().T
        r1[rows] = s @ r1[rows]
        r0[rows] = s @ r0[rows]

    for k in range(3):
        steps = -np.round(c[:, k] / (np.pi / 2))
        rows = np.flatnonzero(steps)
        shift(rows, k, steps[rows])
    # the first two negative coordinates, if there are two
    neg = c < -1e-15
    negate(np.flatnonzero(neg[:, 0] & neg[:, 1]), 0, 1)
    negate(np.flatnonzero(neg[:, 0] & ~neg[:, 1] & neg[:, 2]), 0, 2)
    negate(np.flatnonzero(~neg[:, 0] & neg[:, 1] & neg[:, 2]), 1, 2)
    for _ in range(2):
        swap(np.flatnonzero(np.abs(c[:, 0]) < np.abs(c[:, 1]) - 1e-15), 0, 1)
        swap(np.flatnonzero(np.abs(c[:, 1]) < np.abs(c[:, 2]) - 1e-15), 1, 2)
    negate(np.flatnonzero(c[:, 0] < -1e-15), 0, 2)
    negate(np.flatnonzero(c[:, 1] < -1e-15), 1, 2)
    # boundary c1 = pi/4: both signs of c3 are in the same class; fix c3 >= 0
    rows = np.flatnonzero((np.abs(c[:, 0] - np.pi / 4) < 1e-12) & (c[:, 2] < -1e-15))
    shift(rows, 0, np.full(len(rows), -1.0))
    negate(rows, 0, 2)
    c[np.abs(c) < 1e-15] = 0.0


def kak_decompose_stack(us: np.ndarray, dressed=None, mixes=None, retry_seed=None) -> KakStack:
    """Canonicalized Cartan decompositions of a (m, 4, 4) stack of unitaries,
    returned as stacks.

    Every row is the plain decomposition unless the (m,) bool mask dressed
    marks it. A plain row's first diagonalizer try mixes Re and Im of its
    Gram matrix by the first mix of default_rng(PLAIN_SEED), drawn once at
    import, and builds that generator only if the mix fails. A dressed row
    i's first try mixes by mixes[i] = (a, b), each in [-1, 1] (mixes is
    (m, 2) and read at the dressed rows), and only if it fails is a
    generator built, default_rng(retry_seed(i)), to draw the next mixes
    from. mixes and retry_seed come with dressed or not at all. A mix only
    varies internal branch choices (eigenvector order and signs); every
    branch yields a valid decomposition of the same u. Each row equals the
    decomposition of its matrix alone bit for bit. Raises ValueError for a
    non-unitary matrix and DecompositionError, with the matrix's stack
    index, when a decomposition step fails.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim != 3 or us.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {us.shape}")
    first = np.tile(_PLAIN_MIX, (len(us), 1))
    if dressed is None:
        if mixes is not None or retry_seed is not None:
            raise ValueError("mixes and retry_seed need a dressed mask")
        dressed = np.zeros(len(us), dtype=bool)
    else:
        dressed = np.asarray(dressed, dtype=bool)
        mixes = np.asarray(mixes, dtype=float)
        if dressed.shape != (len(us),) or mixes.shape != first.shape or retry_seed is None:
            raise ValueError(
                f"expected {len(us)} dressed flags, {len(us)} (a, b) mixes and a retry seed; "
                f"got shapes {dressed.shape} and {mixes.shape}"
            )
        first[dressed] = mixes[dressed]
    dev = np.max(np.abs(np.swapaxes(us.conj(), 1, 2) @ us - np.eye(4)), axis=(1, 2))
    if not np.all(dev <= UNITARY_TOL):
        raise ValueError("input matrix is not unitary")
    phase, l1, l0, c, r1, r0 = _raw_decompose(us, first, dressed, retry_seed)
    _canonicalize(phase, l1, l0, c, r1, r0)
    phase = (phase + np.pi) % (2 * np.pi) - np.pi
    return KakStack((l0, l1), (r0, r1), c, phase)


def kak_decompose(u: np.ndarray) -> KakTerms:
    """Canonicalized Cartan decomposition of a 4x4 unitary: the plain
    one-matrix case of kak_decompose_stack."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got {u.shape}")
    return kak_decompose_stack(u[None])[0]
