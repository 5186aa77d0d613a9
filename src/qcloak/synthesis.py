"""Block resynthesis: Euler one-qubit decomposition, minimal-CX two-qubit
templates driven by Weyl coordinates, candidate generation, and selection.

Emitted fragments use only {RZ, SX, X, CX}. A one-qubit segment is emitted
in final form in one pass: RZ SX RZ SX RZ without its trivial RZ (a multiple
of 2*pi within RZ_TRIVIAL_TOL), one X for SX RZ SX around a trivial middle
RZ, one RZ or nothing for a diagonal segment. Every candidate is checked
against the block unitary up to global phase before it can be returned.
"""

from __future__ import annotations

import functools

import numpy as np

from . import netlsd
from .circuit import Circuit, Gate, GateKind, gate_counts
from .kak import KakTerms, kak_decompose
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    circuit_unitary,
    equal_up_to_global_phase,
    rx_matrix,
    ry_matrix,
    rz_matrix,
)
from .netlsd import HeatSignature, netlsd_divergence
from .partition import Block, block_unitary, to_local_circuit

RZ_TRIVIAL_TOL = 1e-12
CLASS_TOL = 1e-10
DRESS_MARGIN = 0.1
CANDIDATE_TOL = 1e-9  # each candidate's unitary check, up to global phase
SIGNATURE_MEMO_ENTRIES = 1024  # about 2 kB of traces each; the grid is shared
_GRID = netlsd.default_grid()
_GRID.setflags(write=False)


class SynthesisError(RuntimeError):
    """A generated fragment failed its unitary equivalence check."""


def _rz_is_trivial(theta: float) -> bool:
    r = abs(theta) % (2 * np.pi)
    return min(r, 2 * np.pi - r) < RZ_TRIVIAL_TOL


def _rz_unless_trivial(theta: float, wire: int) -> list[Gate]:
    return [] if _rz_is_trivial(theta) else [Gate(GateKind.RZ, (wire,), theta)]


def euler_1q(u: np.ndarray, wire: int = 0) -> list[Gate]:
    """ZXZXZ decomposition of a 2x2 unitary, up to global phase.

    Uses U ~ RZ(phi) RY(theta) RZ(lam) and RY(theta) ~ RZ(pi) SX RZ(theta+pi)
    SX after phase juggling, and emits RZ(lam) SX RZ(theta + pi) SX
    RZ(phi + pi) with each trivial outer RZ left out and, when the middle RZ
    is trivial, one X in place of SX RZ SX. A diagonal u gives one RZ, or no
    gate if that RZ is trivial.
    """
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
        sx = Gate(GateKind.SX, (wire,))
        core = [sx, Gate(GateKind.RZ, (wire,), middle), sx]
    return _rz_unless_trivial(lam, wire) + core + _rz_unless_trivial(phi + np.pi, wire)


def minimal_cx_count(c: np.ndarray) -> int:
    """Minimal CX count for canonical coordinates (0, 1, 2, or 3)."""
    c1, c2, c3 = c
    if abs(c1) < CLASS_TOL and abs(c2) < CLASS_TOL and abs(c3) < CLASS_TOL:
        return 0
    if abs(c1 - np.pi / 4) < CLASS_TOL and abs(c2) < CLASS_TOL and abs(c3) < CLASS_TOL:
        return 1
    if abs(c3) < CLASS_TOL:
        return 2
    return 3


def _segments(t: KakTerms) -> tuple[list[list[np.ndarray]], list[tuple[int, int]]]:
    """Template for the minimal-CX circuit of a KakTerms value.

    Returns per-wire 1q segment matrices and the CX list between them:
    segments[i] applies before cx[i]; cx entries are (control, target) local
    wires. Matrix identities behind each class were checked numerically to
    1e-12 over random canonical coordinates.
    """
    l0, l1 = t.left_locals
    r0, r1 = t.right_locals
    c1, c2, c3 = t.weyl
    cls = minimal_cx_count(t.weyl)
    eye = np.eye(2, dtype=complex)
    if cls == 0:
        return [[l0 @ r0, l1 @ r1]], []
    if cls == 1:
        v = ry_matrix(-np.pi / 2)
        return (
            [
                [r0, v @ r1],
                [l0 @ rx_matrix(-np.pi / 2), l1 @ v.conj().T @ rz_matrix(-np.pi / 2)],
            ],
            [(1, 0)],
        )
    if cls == 2:
        return (
            [
                [rx_matrix(np.pi / 2) @ r0, rx_matrix(np.pi / 2) @ r1],
                [rz_matrix(-2 * c2), rx_matrix(-2 * c1)],
                [l0 @ rx_matrix(-np.pi / 2), l1 @ rx_matrix(-np.pi / 2)],
            ],
            [(1, 0), (1, 0)],
        )
    alpha = 2 * c2 - np.pi / 2
    beta = np.pi / 2 - 2 * c1
    delta = np.pi / 2 - 2 * c3
    return (
        [
            [rz_matrix(np.pi / 2) @ r0, r1],
            [eye, ry_matrix(alpha)],
            [rz_matrix(delta), ry_matrix(beta)],
            [l0, l1 @ rz_matrix(-np.pi / 2)],
        ],
        [(1, 0), (0, 1), (1, 0)],
    )


def _dress_cx(segments, cxs, rng: np.random.Generator):
    """Split a canceling rotation across each CX: RZ on the control wire and
    RX on the target wire commute with CX, so absorbing RZ(psi)/RZ(-psi)
    (resp. RX) into the neighboring segments leaves the product unchanged."""
    for i, (control, target) in enumerate(cxs):
        psi = rng.uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)
        chi = rng.uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)
        segments[i][control] = rz_matrix(-psi) @ segments[i][control]
        segments[i + 1][control] = segments[i + 1][control] @ rz_matrix(psi)
        segments[i][target] = rx_matrix(-chi) @ segments[i][target]
        segments[i + 1][target] = segments[i + 1][target] @ rx_matrix(chi)
    return segments


def _emit(segments, cxs) -> Circuit:
    gates: list[Gate] = []
    for i, seg in enumerate(segments):
        if i > 0:
            control, target = cxs[i - 1]
            gates.append(Gate(GateKind.CX, (control, target)))
        gates.extend(euler_1q(seg[0], 0))
        gates.extend(euler_1q(seg[1], 1))
    return Circuit(2, tuple(gates))


def weyl_to_circuit(t: KakTerms) -> Circuit:
    """Two-wire fragment realizing the KakTerms value at its minimal CX count."""
    segments, cxs = _segments(t)
    return _emit(segments, cxs)


def _pauli_dress(t: KakTerms, rng: np.random.Generator) -> KakTerms:
    """exp(i(c1 XX + c2 YY + c3 ZZ)) commutes with P x P for any Pauli P, so
    the same P can be pushed into all four locals without changing anything."""
    choice = int(rng.integers(0, 4))
    if choice == 0:
        return t
    p = (PAULI_X, PAULI_Y, PAULI_Z)[choice - 1]
    l0, l1 = t.left_locals
    r0, r1 = t.right_locals
    return KakTerms((l0 @ p, l1 @ p), (p @ r0, p @ r1), t.weyl, t.global_phase)


def _candidate_1q(u: np.ndarray, rng: np.random.Generator | None) -> Circuit:
    if rng is None:
        return Circuit(1, tuple(euler_1q(u, 0)))
    psi = rng.uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)
    gates = euler_1q(u @ rz_matrix(-psi), 0)
    # the dressing RZ(psi) runs first, so it folds into a leading RZ
    if gates and gates[0].kind is GateKind.RZ:
        gates[:1] = _rz_unless_trivial(psi + gates[0].angle, 0)
    else:
        gates.insert(0, Gate(GateKind.RZ, (0,), psi))
    return Circuit(1, tuple(gates))


def _candidate_2q(u: np.ndarray, rng: np.random.Generator | None) -> Circuit:
    if rng is None:
        return weyl_to_circuit(kak_decompose(u))
    terms = _pauli_dress(kak_decompose(u, rng=rng), rng)
    segments, cxs = _segments(terms)
    return _emit(_dress_cx(segments, cxs, rng), cxs)


def generate_candidates(b: Block, k: int, seed: int) -> list[Circuit]:
    """k fragments equivalent to the block, all at the block's minimal CX
    count. Candidate 0 is the deterministic plain synthesis; later candidates
    draw decomposition branches and canceling-rotation dressings from a
    per-(seed, block, index) RNG."""
    if not b.gates:
        raise ValueError("cannot synthesize an empty block")
    u = block_unitary(b)
    build = _candidate_1q if len(b.qubits) == 1 else _candidate_2q
    out: list[Circuit] = []
    for i in range(k):
        rng = None
        if i > 0:
            rng = np.random.default_rng([seed, b.order_index, i])
        frag = build(u, rng)
        if not equal_up_to_global_phase(circuit_unitary(frag), u, tol=CANDIDATE_TOL):
            raise SynthesisError(
                f"candidate {i} for block {b.order_index} failed equivalence"
            )
        out.append(frag)
    return out


def select_candidate(cands: list[Circuit], original_block: Block, shortlist: int) -> Circuit:
    """Shortlist by fewest SX+X (ties: fewer RZ, then lower index), then pick
    the shortlisted fragment most structurally distant from the source block."""
    if not cands:
        raise ValueError("no candidates to select from")
    counts = [gate_counts(c) for c in cands]
    ranked = sorted(
        range(len(cands)), key=lambda i: (counts[i].sx_plus_x, counts[i].rz, i)
    )
    kept = ranked[:shortlist]
    if len(kept) == 1:
        return cands[kept[0]]
    reference = fragment_signature(to_local_circuit(original_block))
    best = max(
        kept, key=lambda i: netlsd_divergence(fragment_signature(cands[i]), reference)
    )
    return cands[best]


def fragment_signature(c: Circuit) -> HeatSignature:
    """Heat signature of c on the default grid, memoized by wire structure.

    to_dag's edges, and so the signature, depend only on the wire count and
    on which wires each gate touches, never on gate kinds or angles, and an
    encode meets few distinct structures, so most lookups hit. The returned
    arrays are read-only and shared."""
    return _wire_signature(c.num_qubits, tuple(g.qubits for g in c.gates))


@functools.lru_cache(maxsize=SIGNATURE_MEMO_ENTRIES)
def _wire_signature(num_qubits: int, wires: tuple[tuple[int, ...], ...]) -> HeatSignature:
    # X and CX stand in for the gates: any gates on the same wires give the
    # same DAG edges. Looked up in netlsd at call time, so tracing and tests
    # see each miss.
    stand_in = Circuit(
        num_qubits,
        tuple(Gate(GateKind.CX if len(w) == 2 else GateKind.X, w) for w in wires),
    )
    sig = netlsd.circuit_signature(stand_in, _GRID)
    sig.traces.setflags(write=False)
    return sig


def synthesize_block(b: Block, k: int, shortlist: int, seed: int) -> Circuit:
    return select_candidate(generate_candidates(b, k, seed), b, shortlist)
