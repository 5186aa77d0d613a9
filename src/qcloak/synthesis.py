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
one-qubit segment of every candidate from one (m, 2, 2) stack, and the
emitted gates of every candidate as columns of kind codes, local wires and
angles (Candidates), with no Gate objects. The check multiplies each wire's
run of emitted gates into one 2x2 matrix, all runs at once, combines each
candidate's runs through its CX row permutations, and compares the stacked
results with the block unitaries. Selection ranks every candidate from the
columns too, and only each block's selected candidate becomes Gates, on its
block's qubits. generate_candidates and synthesize_block are the one-block case.
Each candidate's gates and angle bits equal those of building it alone: the
Euler arithmetic over the stack is elementwise IEEE arithmetic, which
rounds as the scalar operations do. The magnitudes |a|, |b| come from
np.hypot(z.real, z.imag), which rounds as the scalar abs() does; np.abs of
a complex array does not, and would move emitted angles.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import netlsd
from .circuit import Circuit, Gate, GateKind, gate_counts
from .dag import wire_dag
from .kak import DecompositionError, KakTerms, kak_decompose_stack
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, SX_MATRIX, equal_up_to_global_phase
from .linalg import rx_matrix, ry_matrix, rz_matrix
from .netlsd import HeatSignature, netlsd_divergence
from .partition import Block, block_unitary

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

# Column kind codes. A segment's Euler run fills the five slots RZ SX RZ SX
# RZ, an X in the second slot when the middle RZ is trivial; a slot is
# emitted only where its present flag is set.
RZ_CODE, SX_CODE, X_CODE, CX_CODE = 0, 1, 2, 3
_SLOT_KINDS = np.array([RZ_CODE, SX_CODE, RZ_CODE, SX_CODE, RZ_CODE], dtype=np.int8)
_SLOTS = len(_SLOT_KINDS)
_KINDS = (GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX)  # by kind code
# one-qubit gate matrices by kind code; an RZ's diagonal is filled in per gate
_GATE_MATRICES = np.array([np.eye(2), SX_MATRIX, PAULI_X], dtype=complex)
# new row i of a two-wire unitary is old row _CX_ROWS[control][i]
_CX_ROWS = np.array([(0, 3, 2, 1), (0, 1, 3, 2)])
# the fixed rotations of the minimal-CX templates, built once
_RX_PLUS, _RX_MINUS = rx_matrix(np.pi / 2), rx_matrix(-np.pi / 2)
_RZ_PLUS, _RZ_MINUS = rz_matrix(np.pi / 2), rz_matrix(-np.pi / 2)
_RY_MINUS = ry_matrix(-np.pi / 2)
_EYE = np.eye(2, dtype=complex)
for _m in (_RX_PLUS, _RX_MINUS, _RZ_PLUS, _RZ_MINUS, _RY_MINUS, _EYE):
    _m.setflags(write=False)
del _m


class SynthesisError(RuntimeError):
    """A generated fragment failed its unitary equivalence check."""


@dataclass(frozen=True)
class Candidates:
    """Emitted gates of many fragments as columns: fragment i is entries
    start[i]:start[i + 1] on width[i] local wires. kind holds the codes
    RZ_CODE, SX_CODE, X_CODE and CX_CODE; wire a one-qubit gate's wire or a
    CX's control (its target is the other wire); angle an RZ's angle, 0.0
    for the other kinds."""

    kind: np.ndarray
    wire: np.ndarray
    angle: np.ndarray
    start: np.ndarray
    width: np.ndarray

    def __len__(self) -> int:
        return len(self.width)

    def owners(self) -> np.ndarray:
        """The fragment index of every entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))

    def wire_structure(self, i: int) -> tuple[tuple[int, ...], ...]:
        """The wires each gate of fragment i touches, in order."""
        span = slice(self.start[i], self.start[i + 1])
        return tuple(
            (w, 1 - w) if k == CX_CODE else (w,)
            for k, w in zip(self.kind[span].tolist(), self.wire[span].tolist())
        )

    def gates(self, i: int, qubits: tuple[int, ...]) -> tuple[Gate, ...]:
        """Fragment i as Gates, local wire w on qubits[w]."""
        span = slice(self.start[i], self.start[i + 1])
        cx = (tuple(qubits), tuple(qubits[::-1]))  # by control wire
        return tuple(
            Gate(_KINDS[k], cx[w] if k == CX_CODE else (qubits[w],), a if k == RZ_CODE else None)
            for k, w, a in zip(
                self.kind[span].tolist(), self.wire[span].tolist(), self.angle[span].tolist()
            )
        )

    def circuit(self, i: int) -> Circuit:
        """Fragment i as a Circuit on its local wires."""
        return Circuit(int(self.width[i]), self.gates(i, (0, 1)))


def _trivial(theta: np.ndarray) -> np.ndarray:
    """Which RZ angles are a multiple of 2*pi within RZ_TRIVIAL_TOL."""
    r = np.abs(theta) % (2 * np.pi)
    return np.minimum(r, 2 * np.pi - r) < RZ_TRIVIAL_TOL


def _euler_runs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZXZXZ decomposition of each 2x2 unitary of a (m, 2, 2) stack, up to
    global phase, as (m, 5) slot arrays of kind codes, angles and present
    flags.

    Uses U ~ RZ(phi) RY(theta) RZ(lam) and RY(theta) ~ RZ(pi) SX RZ(theta+pi)
    SX after phase juggling, and emits RZ(lam) SX RZ(theta + pi) SX
    RZ(phi + pi) with each trivial outer RZ left out and, when the middle RZ
    is trivial, one X in place of SX RZ SX. A diagonal u gives one RZ, or no
    gate if that RZ is trivial. Every step is elementwise over the stack.
    """
    dets = np.linalg.det(mats)
    col = mats[:, :, 0] / np.sqrt(dets)[:, None]
    # hypot, not np.abs: it rounds |z| as the scalar abs() does
    mag = np.hypot(col.real, col.imag)
    ang = np.angle(col)
    theta = 2 * np.arctan2(mag[:, 1], mag[:, 0])
    diagonal = mag[:, 1] < 1e-13
    a_zero = mag[:, 0] < 1e-13
    total = -2 * ang[:, 0]
    diff = 2 * ang[:, 1]
    phi = np.where(a_zero, diff, (total + diff) / 2)
    lam = np.where(a_zero, 0.0, (total - diff) / 2)
    middle = theta + np.pi
    flip = _trivial(middle)
    zero = np.zeros(len(mats))
    angle = np.stack((np.where(diagonal, total, lam), zero, middle, zero, phi + np.pi), axis=1)
    kind = np.tile(_SLOT_KINDS, (len(mats), 1))
    kind[flip, 1] = X_CODE
    present = np.empty(angle.shape, dtype=bool)
    present[:, 0] = ~_trivial(angle[:, 0])
    present[:, 1] = ~diagonal
    present[:, 2] = present[:, 3] = ~diagonal & ~flip
    present[:, 4] = ~diagonal & ~_trivial(angle[:, 4])
    return kind, angle, present


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
    if cls == 0:
        return [[l0 @ r0, l1 @ r1]], []
    if cls == 1:
        return (
            [[r0, _RY_MINUS @ r1], [l0 @ _RX_MINUS, l1 @ _RY_MINUS.conj().T @ _RZ_MINUS]],
            [(1, 0)],
        )
    if cls == 2:
        return (
            [
                [_RX_PLUS @ r0, _RX_PLUS @ r1],
                [rz_matrix(-2 * c2), rx_matrix(-2 * c1)],
                [l0 @ _RX_MINUS, l1 @ _RX_MINUS],
            ],
            [(1, 0), (1, 0)],
        )
    alpha = 2 * c2 - np.pi / 2
    beta = np.pi / 2 - 2 * c1
    delta = np.pi / 2 - 2 * c3
    return (
        [
            [_RZ_PLUS @ r0, r1],
            [_EYE, ry_matrix(alpha)],
            [rz_matrix(delta), ry_matrix(beta)],
            [l0, l1 @ _RZ_MINUS],
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


def _emit_many(templates) -> Candidates:
    """Columns of the fragments of a list of (segments, cxs, lead) templates,
    with the Euler runs of all their segments computed as one stack.

    segments[i] holds one 2x2 matrix per wire and applies before cxs[i];
    a one-wire template has one segment and no CX. lead is None, or the
    angle of a dressing RZ that runs before a one-wire fragment's run and
    folds into its leading RZ."""
    mats = np.array([m for segments, _, _ in templates for seg in segments for m in seg])
    kind, angle, present = _euler_runs(mats)
    wires, lead_rows, leads, cx_slots, cx_wires, sizes = [], [], [], [], [], []
    for segments, cxs, lead in templates:
        width = len(segments[0])
        if lead is not None:
            lead_rows.append(len(wires))
            leads.append(lead)
        for i in range(len(segments)):
            if i:
                cx_slots.append(_SLOTS * len(wires))
                cx_wires.append(cxs[i - 1][0])
            wires.extend(range(width))
        sizes.append(_SLOTS * width * len(segments) + len(cxs))
    if leads:
        # the dressing RZ(lead) runs first, so it folds into a leading RZ
        rows = np.array(lead_rows)
        had = present[rows, 0]
        leads = np.array(leads)
        folded = np.where(had, leads + angle[rows, 0], leads)
        angle[rows, 0] = folded
        present[rows, 0] = ~had | ~_trivial(folded)
    # every slot with a CX entry inserted before each segment after the first,
    # then only the present entries
    keep = np.insert(present.ravel(), cx_slots, True)
    owner = np.repeat(np.arange(len(templates)), sizes)[keep]
    slot_wires = np.repeat(np.array(wires, dtype=np.int8), _SLOTS)
    return Candidates(
        kind=np.insert(kind.ravel(), cx_slots, CX_CODE)[keep],
        wire=np.insert(slot_wires, cx_slots, cx_wires)[keep],
        angle=np.insert(angle.ravel(), cx_slots, 0.0)[keep],
        start=np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(templates))))),
        width=np.array([len(segments[0]) for segments, _, _ in templates]),
    )


def weyl_to_circuit(t: KakTerms) -> Circuit:
    """Two-wire fragment realizing the KakTerms value at its minimal CX count."""
    return _emit_many([(*_segments(t), None)]).circuit(0)


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


def _run_products(cands: Candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each wire's run of one-qubit gates between CXs, multiplied into one 2x2
    matrix (later gates on the left), every run of every fragment at once.

    Returns the (R, 2, 2) run products, the offsets first (one more than
    there are fragments) and the index of each fragment's first CX among
    cands' CX entries. Fragment i owns runs first[i] .. first[i + 1] - 1:
    run first[i] + 2 s + w is wire w's run after the fragment's s-th CX."""
    owner = cands.owners()
    is_cx = cands.kind == CX_CODE
    cx_before = np.concatenate(([0], np.cumsum(is_cx)))
    first_cx = cx_before[cands.start[:-1]]
    cx_count = cx_before[cands.start[1:]] - first_cx
    first = np.concatenate(([0], np.cumsum(2 * (cx_count + 1))))
    one = ~is_cx
    run = (first[owner] + 2 * (cx_before[:-1] - first_cx[owner]) + cands.wire)[one]
    kind = cands.kind[one]
    mats = _GATE_MATRICES[kind]
    rz = kind == RZ_CODE
    lo = np.exp(-0.5j * cands.angle[one][rz])
    mats[rz, 0, 0], mats[rz, 1, 1] = lo, lo.conj()
    # each run's gates in stream order, padded with identities to one length
    order = np.argsort(run, kind="stable")
    run = run[order]
    pos = np.arange(len(run)) - np.searchsorted(run, run)
    padded = np.tile(_GATE_MATRICES[RZ_CODE], (first[-1], pos.max(initial=0) + 1, 1, 1))
    padded[run, pos] = mats[order]
    acc = padded[:, 0]
    for p in range(1, padded.shape[1]):
        # a 2x2 product by broadcasting: matmul calls BLAS once per matrix
        acc = padded[:, p, :, :1] * acc[:, None, 0] + padded[:, p, :, 1:] * acc[:, None, 1]
    return acc, first, first_cx


def _kron(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """kron(hi[i], lo[i]) of two (n, 2, 2) stacks: hi acts on wire 1."""
    return (hi[:, :, None, :, None] * lo[:, None, :, None, :]).reshape(-1, 4, 4)


def candidate_unitaries(cands: Candidates) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Unitaries of the emitted fragments, for a pass/fail check only, as
    {(width, CX count): (fragment indices, (n, d, d) stack)}.

    Each run's product comes from _run_products. A one-wire fragment's run is
    its unitary; a two-wire fragment starts from the kron product of its
    first runs, and each CX permutes the rows before the kron product of the
    next runs multiplies them. Rounding differs from linalg.circuit_unitary's,
    which stays the one kernel whose bits reach an output."""
    runs, first, first_cx = _run_products(cands)
    controls = cands.wire[cands.kind == CX_CODE]
    cx_count = np.diff(first) // 2 - 1
    out = {}
    for width, count in sorted(set(zip(cands.width.tolist(), cx_count.tolist()))):
        idx = np.flatnonzero((cands.width == width) & (cx_count == count))
        r = first[idx]
        if width == 1:
            out[(width, count)] = idx, runs[r]
            continue
        u = _kron(runs[r + 1], runs[r])
        stack = np.arange(len(idx))[:, None]
        for s in range(count):
            rows = _CX_ROWS[controls[first_cx[idx] + s]]
            u = _kron(runs[r + 2 * s + 3], runs[r + 2 * s + 2]) @ u[stack, rows]
        out[(width, count)] = idx, u
    return out


def _candidate_rngs(seed: int, order_index: int, k: int) -> list[np.random.Generator | None]:
    """None for the plain candidate 0, then one generator per later candidate."""
    return [None] + [np.random.default_rng([seed, order_index, i]) for i in range(1, k)]


def _checked_candidates(blocks: list[Block], k: int, seed: int) -> Candidates:
    """k checked candidates per block, block j's at j k .. j k + k - 1, built
    as one stack: one KAK pass over the candidates of all two-qubit blocks,
    one Euler pass over the segments of every candidate, then one check of
    every candidate against its block."""
    if any(not b.gates for b in blocks):
        raise ValueError("cannot synthesize an empty block")
    if k < 1:
        raise ValueError(f"need k >= 1 candidates per block, got {k}")
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
    cands = _emit_many(templates)
    ok = np.ones(len(cands), dtype=bool)
    for idx, got in candidate_unitaries(cands).values():
        want = np.array([us[j // k] for j in idx.tolist()])
        ok[idx] = equal_up_to_global_phase(got, want, tol=CANDIDATE_TOL)
    if not ok.all():
        j = int(np.argmin(ok))
        b = blocks[j // k]
        raise SynthesisError(f"candidate {j % k} for block {b.order_index} failed equivalence")
    return cands


def generate_candidates(b: Block, k: int, seed: int) -> list[Circuit]:
    """k fragments equivalent to the block, all at the block's minimal CX
    count. Candidate 0 is the deterministic plain synthesis; later candidates
    draw decomposition branches and canceling-rotation dressings from a
    per-(seed, block, index) RNG. The one-block case of synthesize_blocks'
    candidate stack."""
    cands = _checked_candidates([b], k, seed)
    return [cands.circuit(i) for i in range(k)]


def _select(sx_plus_x, rz, signature, block: Block, shortlist: int) -> int:
    """Index of the selected candidate: shortlist by fewest SX+X (ties: fewer
    RZ, then lower index), then the shortlisted fragment most structurally
    distant from the source block. signature(i) is candidate i's heat
    signature; it is asked for only when the shortlist keeps two or more."""
    ranked = sorted(range(len(sx_plus_x)), key=lambda i: (sx_plus_x[i], rz[i], i))
    kept = ranked[:shortlist]
    if len(kept) == 1:
        return kept[0]
    local = tuple(tuple(map(block.local, g.qubits)) for g in block.gates)
    reference = _wire_signature(len(block.qubits), local)
    return max(kept, key=lambda i: netlsd_divergence(signature(i), reference))


def select_candidate(cands: list[Circuit], original_block: Block, shortlist: int) -> Circuit:
    """Shortlist by fewest SX+X (ties: fewer RZ, then lower index), then pick
    the shortlisted fragment most structurally distant from the source block."""
    if not cands:
        raise ValueError("no candidates to select from")
    counts = [gate_counts(c) for c in cands]
    best = _select(
        [n.sx_plus_x for n in counts],
        [n.rz for n in counts],
        lambda i: _wire_signature(cands[i].num_qubits, tuple(g.qubits for g in cands[i].gates)),
        original_block,
        shortlist,
    )
    return cands[best]


@functools.lru_cache(maxsize=SIGNATURE_MEMO_ENTRIES)
def _wire_signature(num_qubits: int, wires: tuple[tuple[int, ...], ...]) -> HeatSignature:
    """Heat signature on the default grid of a fragment over num_qubits wires
    whose gates touch `wires`, memoized by that structure: wire_dag's edges,
    and so the signature, depend only on the wire count and on which wires
    each gate touches, never on gate kinds or angles, and an encode meets
    few distinct structures, so most lookups hit. The returned arrays are
    read-only and shared."""
    # Looked up in netlsd at call time, so tracing and tests see each miss.
    sig = netlsd.netlsd_signature(wire_dag(num_qubits, wires), _GRID)
    sig.traces.setflags(write=False)
    return sig


def synthesize_block(b: Block, k: int, shortlist: int, seed: int) -> tuple[Gate, ...]:
    """The one-block case of synthesize_blocks."""
    return synthesize_blocks([b], k, shortlist, seed)[b.order_index]


def candidate_chunks(
    blocks: list[Block] | tuple[Block, ...], k: int, seed: int
) -> Iterator[tuple[list[Block], Candidates]]:
    """Each chunk of SYNTH_CHUNK blocks with its _checked_candidates stack."""
    for start in range(0, len(blocks), SYNTH_CHUNK):
        chunk = list(blocks[start : start + SYNTH_CHUNK])
        yield chunk, _checked_candidates(chunk, k, seed)


def synthesize_blocks(
    blocks: list[Block] | tuple[Block, ...], k: int, shortlist: int, seed: int
) -> dict[int, tuple[Gate, ...]]:
    """Selected fragment of every block, keyed by order_index, as Gates on
    the block's qubits: every candidate is checked and ranked from its
    columns, and only each block's selected candidate becomes Gates. Every
    fragment equals select_candidate's choice among generate_candidates',
    local wire w on the block's qubit w."""
    out = {}
    for chunk, cands in candidate_chunks(blocks, k, seed):
        owner = cands.owners()
        sx_or_x = (cands.kind == SX_CODE) | (cands.kind == X_CODE)
        sx_plus_x = np.bincount(owner[sx_or_x], minlength=len(cands))
        rz = np.bincount(owner[cands.kind == RZ_CODE], minlength=len(cands))
        for j, b in enumerate(chunk):
            span = slice(j * k, (j + 1) * k)
            best = _select(
                sx_plus_x[span].tolist(),
                rz[span].tolist(),
                lambda i: _wire_signature(len(b.qubits), cands.wire_structure(j * k + i)),
                b,
                shortlist,
            )
            out[b.order_index] = cands.gates(j * k + best, b.qubits)
    return out
