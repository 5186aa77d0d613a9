"""Block resynthesis: Euler one-qubit decomposition, minimal-CX two-qubit
templates driven by Weyl coordinates, candidate generation, and selection.

Emitted fragments use only {RZ, SX, X, CX}. A one-qubit segment is emitted
in final form in one pass: RZ SX RZ SX RZ without its trivial RZ (a multiple
of 2*pi within RZ_TRIVIAL_TOL), one X for SX RZ SX around a trivial middle
RZ, one RZ or nothing for a diagonal segment. Every candidate is checked
against the block unitary up to global phase before it can be returned.

synthesize_blocks builds the candidates of many blocks as one stack, one
chunk of SYNTH_CHUNK blocks at a time: one kak.kak_decompose_stack call
over the k candidates of every two-qubit block, the Euler angles of every
one-qubit segment of every candidate from one (m, 2, 2) stack (one det,
sqrt, angle and arctan2), then a check of each candidate's unitary from
fragment_unitary, a complex-scalar 2x2/4x4 kernel, and the selection of one
candidate per block; the other candidates are dropped with the chunk.
generate_candidates and synthesize_block are the one-block case. Each
candidate's gates and angle bits equal those of building it alone. The
magnitudes |a|, |b| come from np.hypot(z.real, z.imag), which rounds as
the scalar abs() does; np.abs of a complex array does not, and would move
emitted angles.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import netlsd
from .circuit import Circuit, Gate, GateKind, gate_counts
from .kak import DecompositionError, KakTerms, kak_decompose_stack
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    equal_up_to_global_phase,
    rx_matrix,
    ry_matrix,
    rz_matrix,
)
from .netlsd import HeatSignature, netlsd_divergence
from .partition import Block, block_unitary, to_local_circuit

# imported for perfbench/tracing.py, which wraps these names; not called here
from .kak import kak_decompose  # noqa: F401
from .linalg import circuit_unitary  # noqa: F401

RZ_TRIVIAL_TOL = 1e-12
CLASS_TOL = 1e-10
DRESS_MARGIN = 0.1
CANDIDATE_TOL = 1e-9  # each candidate's unitary check, up to global phase
SYNTH_CHUNK = 64  # blocks per candidate stack; bounds the stack's memory
SIGNATURE_MEMO_ENTRIES = 1024  # about 2 kB of traces each; the grid is shared
_GRID = netlsd.default_grid()
_GRID.setflags(write=False)
# Gates are frozen and compare by value, so fragments share one instance of
# each angle-free gate
_CX_ON = {(0, 1): Gate(GateKind.CX, (0, 1)), (1, 0): Gate(GateKind.CX, (1, 0))}


class SynthesisError(RuntimeError):
    """A generated fragment failed its unitary equivalence check."""


def _rz_is_trivial(theta: float) -> bool:
    r = abs(theta) % (2 * np.pi)
    return min(r, 2 * np.pi - r) < RZ_TRIVIAL_TOL


def _rz_unless_trivial(theta: float, wire: int) -> list[Gate]:
    return [] if _rz_is_trivial(theta) else [Gate(GateKind.RZ, (wire,), theta)]


def _euler_runs(mats: np.ndarray, wires: list[int]) -> list[list[Gate]]:
    """ZXZXZ decomposition of each 2x2 unitary of a (m, 2, 2) stack, up to
    global phase, as gates on the matching wire.

    Uses U ~ RZ(phi) RY(theta) RZ(lam) and RY(theta) ~ RZ(pi) SX RZ(theta+pi)
    SX after phase juggling, and emits RZ(lam) SX RZ(theta + pi) SX
    RZ(phi + pi) with each trivial outer RZ left out and, when the middle RZ
    is trivial, one X in place of SX RZ SX. A diagonal u gives one RZ, or no
    gate if that RZ is trivial. One det, sqrt, angle and arctan2 serve the
    whole stack.
    """
    dets = np.linalg.det(mats)
    col = mats[:, :, 0] / np.sqrt(dets)[:, None]
    # hypot, not np.abs: it rounds |z| as the scalar abs() does
    mag = np.hypot(col.real, col.imag)
    ang = np.angle(col)
    half = np.arctan2(mag[:, 1], mag[:, 0])
    sx_on = {w: Gate(GateKind.SX, (w,)) for w in set(wires)}
    x_on = {w: Gate(GateKind.X, (w,)) for w in set(wires)}
    runs = []
    for (abs_a, abs_b), (ang_a, ang_b), h, wire in zip(
        mag.tolist(), ang.tolist(), half.tolist(), wires
    ):
        if abs_b < 1e-13:
            runs.append(_rz_unless_trivial(-2 * ang_a, wire))
            continue
        theta = 2 * h
        if abs_a < 1e-13:
            phi, lam = 2 * ang_b, 0.0
        else:
            total = -2 * ang_a
            diff = 2 * ang_b
            phi = (total + diff) / 2
            lam = (total - diff) / 2
        middle = theta + np.pi
        if _rz_is_trivial(middle):
            core = [x_on[wire]]
        else:
            sx = sx_on[wire]
            core = [sx, Gate(GateKind.RZ, (wire,), middle), sx]
        runs.append(
            _rz_unless_trivial(lam, wire) + core + _rz_unless_trivial(phi + np.pi, wire)
        )
    return runs


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


def _emit_many(templates) -> list[Circuit]:
    """Fragments for a list of (segments, cxs, lead) templates, with the Euler
    runs of all their segments computed as one stack.

    segments[i] holds one 2x2 matrix per wire and applies before cxs[i];
    a one-wire template has one segment and no CX. lead is None, or the
    angle of a dressing RZ that runs before a one-wire fragment's run and
    folds into its leading RZ."""
    mats = np.array([m for segments, _, _ in templates for seg in segments for m in seg])
    wires = [w for segments, _, _ in templates for seg in segments for w in range(len(seg))]
    runs = iter(_euler_runs(mats, wires))
    out = []
    for segments, cxs, lead in templates:
        gates: list[Gate] = []
        for i, seg in enumerate(segments):
            if i > 0:
                gates.append(_CX_ON[cxs[i - 1]])
            for _ in seg:
                gates.extend(next(runs))
        if lead is not None:
            # the dressing RZ(lead) runs first, so it folds into a leading RZ
            if gates and gates[0].kind is GateKind.RZ:
                gates[:1] = _rz_unless_trivial(lead + gates[0].angle, 0)
            else:
                gates.insert(0, Gate(GateKind.RZ, (0,), lead))
        out.append(Circuit(len(segments[0]), tuple(gates)))
    return out


def weyl_to_circuit(t: KakTerms) -> Circuit:
    """Two-wire fragment realizing the KakTerms value at its minimal CX count."""
    return _emit_many([(*_segments(t), None)])[0]


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


def _template_1q(u: np.ndarray, rng: np.random.Generator | None):
    """One-wire template of u: the plain Euler run for a None rng, else the
    run of u RZ(-psi) after a dressing RZ(psi) drawn from the rng."""
    if rng is None:
        return [[u]], [], None
    psi = rng.uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)
    return [[u @ rz_matrix(-psi)]], [], psi


def _template_2q(t: KakTerms, rng: np.random.Generator | None):
    """Two-wire template of a decomposition: the plain KAK template for a None
    rng, else a Pauli dressing and canceling CX dressings drawn from the rng
    after the decomposition's own draws."""
    if rng is None:
        return (*_segments(t), None)
    segments, cxs = _segments(_pauli_dress(t, rng))
    return _dress_cx(segments, cxs, rng), cxs, None


_CX_ROWS = {(0, 1): (0, 3, 2, 1), (1, 0): (0, 1, 3, 2)}
_WIRE_ROW_PAIRS = (((0, 1), (2, 3)), ((0, 2), (1, 3)))
# GateKind members read as module names: each member lookup on the enum
# class costs about as much as the complex arithmetic of a gate
_CX, _RZ, _SX, _X = GateKind.CX, GateKind.RZ, GateKind.SX, GateKind.X


def _run_matrix(gates) -> tuple[complex, complex, complex, complex]:
    """Row-major 2x2 product of a one-wire run, later gates on the left."""
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for g in gates:
        kind = g.kind
        if kind is _RZ:
            lo = cmath.exp(-0.5j * g.angle)
            hi = lo.conjugate()
            a, b, c, d = lo * a, lo * b, hi * c, hi * d
        elif kind is _X:
            a, b, c, d = c, d, a, b
        else:
            if kind is _SX:
                p, q = 0.5 + 0.5j, 0.5 - 0.5j
            else:
                p, q = complex(math.cos(g.angle / 2)), -1j * math.sin(g.angle / 2)
            a, b, c, d = p * a + q * c, p * b + q * d, q * a + p * c, q * b + p * d
    return a, b, c, d


def fragment_unitary(c: Circuit) -> np.ndarray:
    """Unitary of a one- or two-wire fragment, for a pass/fail check only.

    Each wire's run between CX gates is one 2x2 product in complex scalars.
    The first runs form the kron product kron(run1, run0); each CX permutes
    its rows, and each later run multiplies the row pairs of its wire.
    Rounding differs from linalg.circuit_unitary's, which stays the one
    kernel whose bits reach an output."""
    if c.num_qubits == 1:
        a, b, cc, d = _run_matrix(c.gates)
        return np.array([[a, b], [cc, d]])
    m = None
    runs: tuple[list[Gate], list[Gate]] = ([], [])
    for g in (*c.gates, None):
        if g is not None and g.kind is not _CX:
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


def _candidate_rngs(seed: int, order_index: int, k: int) -> list[np.random.Generator | None]:
    """None for the plain candidate 0, then one generator per later candidate."""
    return [None] + [np.random.default_rng([seed, order_index, i]) for i in range(1, k)]


def _candidate_sets(blocks: list[Block], k: int, seed: int) -> list[list[Circuit]]:
    """k checked candidates per block, built as one stack: one KAK pass over
    the candidates of all two-qubit blocks, one Euler pass over the segments
    of every candidate, then each candidate's check against its block."""
    if any(not b.gates for b in blocks):
        raise ValueError("cannot synthesize an empty block")
    us = [block_unitary(b) for b in blocks]
    rngs = [_candidate_rngs(seed, b.order_index, k) for b in blocks]
    two = [i for i, b in enumerate(blocks) if len(b.qubits) == 2]
    stack = np.array([us[i] for i in two for _ in range(k)]).reshape(-1, 4, 4)
    try:
        terms = iter(kak_decompose_stack(stack, [rng for i in two for rng in rngs[i]]))
    except DecompositionError as exc:
        b = blocks[two[exc.index // k]]
        raise SynthesisError(
            f"candidate {exc.index % k} for block {b.order_index} has no KAK decomposition"
        ) from exc
    templates = []
    for b, u, block_rngs in zip(blocks, us, rngs):
        if len(b.qubits) == 1:
            templates.extend(_template_1q(u, rng) for rng in block_rngs)
        else:
            templates.extend(_template_2q(next(terms), rng) for rng in block_rngs)
    frags = _emit_many(templates)
    out = []
    for j, (b, u) in enumerate(zip(blocks, us)):
        cands = frags[j * k : (j + 1) * k]
        for i, frag in enumerate(cands):
            if not equal_up_to_global_phase(fragment_unitary(frag), u, tol=CANDIDATE_TOL):
                raise SynthesisError(
                    f"candidate {i} for block {b.order_index} failed equivalence"
                )
        out.append(cands)
    return out


def generate_candidates(b: Block, k: int, seed: int) -> list[Circuit]:
    """k fragments equivalent to the block, all at the block's minimal CX
    count. Candidate 0 is the deterministic plain synthesis; later candidates
    draw decomposition branches and canceling-rotation dressings from a
    per-(seed, block, index) RNG. The one-block case of synthesize_blocks'
    candidate stack."""
    return _candidate_sets([b], k, seed)[0]


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
    """The one-block case of synthesize_blocks."""
    return select_candidate(generate_candidates(b, k, seed), b, shortlist)


def synthesize_blocks(
    blocks: list[Block] | tuple[Block, ...], k: int, shortlist: int, seed: int
) -> dict[int, Circuit]:
    """Selected fragment of every block, keyed by order_index: each chunk of
    SYNTH_CHUNK blocks gets one candidate stack, and only each block's
    selected candidate is kept. Every fragment equals synthesize_block's."""
    out = {}
    for start in range(0, len(blocks), SYNTH_CHUNK):
        chunk = list(blocks[start : start + SYNTH_CHUNK])
        for b, cands in zip(chunk, _candidate_sets(chunk, k, seed)):
            out[b.order_index] = select_candidate(cands, b, shortlist)
    return out
