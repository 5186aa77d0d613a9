"""Block resynthesis: Euler one-qubit decomposition, minimal-CX two-qubit
templates driven by Weyl coordinates, candidate generation, and selection.

Emitted fragments use only {RZ, SX, X, CX}. A one-qubit segment is emitted
in final form in one pass: RZ SX RZ SX RZ without its trivial RZ (a multiple
of 2*pi within RZ_TRIVIAL_TOL), one X for SX RZ SX around a trivial middle
RZ, one RZ or nothing for a diagonal segment. Every candidate is checked
against the block unitary up to global phase before it can be returned.

synthesize_blocks builds the candidates of a partition's blocks as stacks,
one chunk of SYNTH_CHUNK blocks at a time, from the block unitaries to the
Euler pass: the block unitaries by gate structure from the chunk's rows, a
contiguous range of the partition's column set read in place
(partition.block_unitaries), one kak.kak_decompose_stack call over
the k candidates of every two-qubit block, one vectorized class decision,
the Pauli dressing, class template and CX dressings of each (class,
dressed) group as one stack, the Euler angles of every one-qubit segment of
every candidate from one (m, 2, 2) stack, and the emitted gates of every
candidate as one CircuitColumns on local wires (Candidates): q0 a gate's
wire or a CX's control, q1 a CX's target or -1, the angle NaN except on RZ.
Every candidate after the plain candidate 0 reads its draws from stream
positions: candidate i of the block with order index o reads uniform j at
position o * DRAW_STRIDE + j of candidate i's stream, PCG64 seeded from
[seed, DRAW_TAG, i]. Uniforms 0-1 are KAK's first diagonalizer mix, 2 the
Pauli choice and 3-8 the CX dressing angles (psi, chi of each CX); a
one-wire candidate's uniform 0 is its dressing angle. A chunk reads all its
blocks' draws with one advance and one random call per stream, so every
draw is a pure function of (seed, o, i, j), whatever the chunking, block
count or k; only a failed diagonalizer try builds a generator,
default_rng([seed, o, i]) (kak.kak_decompose_stack). The check multiplies
each wire's run of emitted gates (linalg.gate_matrices) into one 2x2
matrix, all runs at once, combines each candidate's runs through its CX row
permutations, and compares the stacked results with the block unitaries.
One selection, _select, ranks a stack's candidates from their rows (one
lexsort, a signature memo keyed by partition.row_keys, and the distances of
all the stack's shortlists as one batch with the bits of netlsd_divergence's
one-pair distance); each chunk's
selected candidates are placed on their blocks' qubits by remapping local
wires, and the chunks' sets join into one fragment set aligned with the
partition's blocks. No Gate or Block object is built. generate_candidates,
select_candidate and synthesize_block are the one-block case of these
calls, weyl_to_circuit the one-candidate case of the template stage.
Each candidate's gates and angle bits equal those of building it alone:
- the rotations come from linalg's builders over angle arrays, whose every
  entry has the bits of a one-angle call;
- the 2x2 products are np.matmul over contiguous stacks (a constant factor
  broadcast), one BLAS call per matrix with the strides of a one-matrix
  product; a broadcast elementwise product, as _run_products uses for the
  pass/fail check, would round differently;
- the Euler arithmetic over the stack is elementwise IEEE arithmetic, which
  rounds as the scalar operations do. The magnitudes |a|, |b| come from
  np.hypot(z.real, z.imag), which rounds as the scalar abs() does; np.abs
  of a complex array does not, and would move emitted angles.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import netlsd
from .circuit import CX_CODE, RZ_CODE, SX_CODE, X_CODE, Circuit, CircuitColumns, Gate
from .circuit import join_columns, offsets, ranges
from .dag import column_dag
from .kak import DecompositionError, KakStack, KakTerms, kak_decompose_stack
from .linalg import CX_ROWS, PAULI_X, PAULI_Y, PAULI_Z, equal_up_to_global_phase
from .linalg import gate_matrices, rx_matrix, ry_matrix, rz_matrix
from .partition import Block, BlockPartition, block_unitaries, partition_of, row_keys

# imported for perfbench/tracing.py, which wraps these names; not called here
from .kak import kak_decompose  # noqa: F401
from .linalg import circuit_unitary  # noqa: F401
from .netlsd import netlsd_divergence  # noqa: F401
from .partition import block_unitary  # noqa: F401

RZ_TRIVIAL_TOL = 1e-12
CLASS_TOL = 1e-10
DRESS_MARGIN = 0.1
CANDIDATE_TOL = 1e-9  # each candidate's unitary check, up to global phase
SYNTH_CHUNK = 256  # blocks per candidate stack; bounds the stack's memory
DRAW_TAG = 2**63 - 25  # keeps the draw streams apart from the key, RX and retry ones
DRAW_STRIDE = 9  # uniforms per block on a candidate's stream: 2 mix, 1 Pauli, 6 angles
SIGNATURE_MEMO_ENTRIES = 1024  # each a read-only 2 kB array on netlsd.GRID

# A segment's Euler run fills the five slots RZ SX RZ SX RZ (circuit's kind
# codes), an X in the second slot when the middle RZ is trivial; a slot is
# emitted only where its present flag is set.
_SLOT_KINDS = np.array([RZ_CODE, SX_CODE, RZ_CODE, SX_CODE, RZ_CODE], dtype=np.int8)
_SLOTS = len(_SLOT_KINDS)
# _CONTROLS[n, j]: the control wire of CX j of the n-CX template
_CONTROLS = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 1)])
_PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)
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
    """Emitted gates of many fragments as one column set on local wires:
    fragment i is rows start[i]:start[i + 1] of rows, on width[i] wires. The
    rows are in the circuit format, kinds RZ, SX, X and CX: q0 a one-qubit
    gate's wire or a CX's control, q1 a CX's target or -1, angle an RZ's
    angle or NaN."""

    rows: CircuitColumns
    start: np.ndarray
    width: np.ndarray

    def __len__(self) -> int:
        return len(self.width)

    def owners(self) -> np.ndarray:
        """The fragment index of every row."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))

    def keys(self) -> list[tuple[int, bytes]]:
        """Each fragment's key in the signature memo (_structure_signature)."""
        codes = structure_codes(self.rows.q0, self.rows.q1 != -1)
        return row_keys(codes, self.start, self.width)

    def place(self, idx, lo, hi) -> tuple[CircuitColumns, np.ndarray]:
        """Fragments idx as one column set on global qubits, local wire 0 of
        fragment idx[j] on qubit lo[j] and wire 1 on hi[j], and each
        fragment's row count."""
        idx = np.asarray(idx, dtype=np.int64)
        first = self.start[idx]
        sizes = self.start[idx + 1] - first
        rows = ranges(first, sizes)
        owner = np.repeat(np.arange(len(idx)), sizes)
        lo, hi = np.asarray(lo)[owner], np.asarray(hi)[owner]
        kind, q0, q1, angle = (col[rows] for col in self.rows)
        q1 = np.where(q1 == -1, -1, np.where(q1 == 0, lo, hi))
        return CircuitColumns(kind, np.where(q0 == 0, lo, hi), q1, angle), sizes

    def circuit(self, i: int) -> Circuit:
        """Fragment i as a Circuit on its local wires."""
        rows = slice(self.start[i], self.start[i + 1])
        return Circuit.from_rows(int(self.width[i]), [col[rows] for col in self.rows])


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
    none = np.full(len(mats), np.nan)  # the SX (or X) slots' angle
    angle = np.stack((np.where(diagonal, total, lam), none, middle, none, phi + np.pi), axis=1)
    kind = np.tile(_SLOT_KINDS, (len(mats), 1))
    kind[flip, 1] = X_CODE
    present = np.empty(angle.shape, dtype=bool)
    present[:, 0] = ~_trivial(angle[:, 0])
    present[:, 1] = ~diagonal
    present[:, 2] = present[:, 3] = ~diagonal & ~flip
    present[:, 4] = ~diagonal & ~_trivial(angle[:, 4])
    return kind, angle, present


def _cx_classes(weyl: np.ndarray) -> np.ndarray:
    """Minimal CX count (0, 1, 2 or 3) of each row of canonical coordinates."""
    small = np.abs(weyl) < CLASS_TOL
    cx_like = (np.abs(weyl[:, 0] - np.pi / 4) < CLASS_TOL) & small[:, 1] & small[:, 2]
    return np.select([small.all(axis=1), cx_like, small[:, 2]], [0, 1, 2], 3)


def minimal_cx_count(c: np.ndarray) -> int:
    """Minimal CX count for canonical coordinates: the one-row case of the
    stacked class decision."""
    return int(_cx_classes(np.asarray(c, dtype=float)[None])[0])


def _class_segments(cls: int, l0, l1, r0, r1, weyl) -> list[list[np.ndarray]]:
    """Segment stacks of the minimal-CX template of class cls, for rows of
    KAK terms of that class: segments[s][w] applies on wire w before CX s.
    Matrix identities behind each class were checked numerically to 1e-12
    over random canonical coordinates."""
    c1, c2, c3 = weyl.T
    if cls == 0:
        return [[l0 @ r0, l1 @ r1]]
    if cls == 1:
        return [[r0, _RY_MINUS @ r1], [l0 @ _RX_MINUS, l1 @ _RY_MINUS.conj().T @ _RZ_MINUS]]
    if cls == 2:
        return [
            [_RX_PLUS @ r0, _RX_PLUS @ r1],
            [rz_matrix(-2 * c2), rx_matrix(-2 * c1)],
            [l0 @ _RX_MINUS, l1 @ _RX_MINUS],
        ]
    return [
        [_RZ_PLUS @ r0, r1],
        [np.broadcast_to(_EYE, r1.shape), ry_matrix(2 * c2 - np.pi / 2)],
        [rz_matrix(np.pi / 2 - 2 * c3), ry_matrix(np.pi / 2 - 2 * c1)],
        [l0, l1 @ _RZ_MINUS],
    ]


def _dress_cx(segments: list[list[np.ndarray]], cls: int, angles: np.ndarray):
    """Split a canceling rotation across each CX of a class-cls template: RZ
    on the control wire and RX on the target wire commute with CX, so
    absorbing RZ(psi)/RZ(-psi) (resp. RX) into the neighboring segments
    leaves the product unchanged. Row i's psi and chi of CX j are
    angles[i, 2 j] and angles[i, 2 j + 1]."""
    for j in range(cls):
        control = _CONTROLS[cls, j]
        target = 1 - control
        psi, chi = angles[:, 2 * j], angles[:, 2 * j + 1]
        segments[j][control] = rz_matrix(-psi) @ segments[j][control]
        segments[j + 1][control] = segments[j + 1][control] @ rz_matrix(psi)
        segments[j][target] = rx_matrix(-chi) @ segments[j][target]
        segments[j + 1][target] = segments[j + 1][target] @ rx_matrix(chi)
    return segments


def _dress_angles(u: np.ndarray) -> np.ndarray:
    """Dressing angles uniform on [DRESS_MARGIN, 2 pi - DRESS_MARGIN] from
    uniforms on [0, 1), as Generator.uniform scales them."""
    return DRESS_MARGIN + (2 * np.pi - DRESS_MARGIN - DRESS_MARGIN) * u


def _templates_2q(mats, at, t: KakStack, cls: np.ndarray, draws, dressed) -> None:
    """Write the segment matrices of each row's two-wire template to mats,
    segment s on wire w of row i at mats[at[i] + 2 s + w]. A row that is not
    dressed takes the plain template of its decomposition; a dressed row
    takes a Pauli dressing, Pauli floor(4 u) of its uniform draws[i, 2],
    and then the canceling CX dressings of draws[i, 3:]. Each (class,
    dressed) group is one stack."""
    choice = np.where(dressed, (4 * draws[:, 2]).astype(int), 0)
    angles = _dress_angles(draws[:, 3:])  # psi, chi of each of up to 3 CXs
    for c, d in np.ndindex(4, 2):
        rows = np.flatnonzero((cls == c) & (dressed == d))
        if not len(rows):
            continue
        local = [m[rows] for m in (*t.left_locals, *t.right_locals)]
        if d:
            # exp(i(c1 XX + c2 YY + c3 ZZ)) commutes with P x P for any Pauli
            # P, so the same P can be pushed into all four locals
            for p, pauli in enumerate(_PAULIS, 1):
                on = np.flatnonzero(choice[rows] == p)
                for w, m in enumerate(local):
                    m[on] = m[on] @ pauli if w < 2 else pauli @ m[on]
        segments = _class_segments(c, *local, t.weyl[rows])
        if d:
            segments = _dress_cx(segments, c, angles[rows])
        for s, seg in enumerate(segments):
            for w, m in enumerate(seg):
                mats[at[rows] + 2 * s + w] = m


def _templates_1q(mats: np.ndarray, at: np.ndarray, us: np.ndarray, draws, dressed):
    """Write the one-wire template of us[i] to mats[at[i]]: us[i] itself, or
    for a dressed row us[i] RZ(-psi) after a dressing RZ(psi), psi from its
    uniform draws[i, 0]. Returns the rows that have a dressing RZ and its
    angles."""
    rows = np.flatnonzero(dressed)
    psi = _dress_angles(draws[rows, 0])
    mats[at] = us
    mats[at[rows]] = us[rows] @ rz_matrix(-psi)
    return rows, psi


def _emit_many(mats, width, cx_count, lead_index=(), lead_angle=()) -> Candidates:
    """Fragments given by their segment matrices as one Candidates stack,
    with the Euler runs of all segments computed as one stack.

    Fragment f has width[f] wires and cx_count[f] CXs, each CX's control
    wire that of the cx_count[f]-CX template; its segment s on wire w is
    mats[o + width[f] s + w], o the sum of width * (cx_count + 1) over the
    fragments before f, and segment s applies before CX s. A one-wire
    fragment in lead_index runs a dressing RZ(lead_angle) first, which
    folds into its leading RZ."""
    width, cx_count = np.asarray(width), np.asarray(cx_count)
    kind, angle, present = _euler_runs(mats)
    sizes = width * (cx_count + 1)
    start = offsets(sizes)
    if len(lead_index):
        # the dressing RZ(lead) runs first, so it folds into a leading RZ
        rows = start[np.asarray(lead_index)]
        had = present[rows, 0]
        folded = np.where(had, lead_angle + angle[rows, 0], lead_angle)
        angle[rows, 0] = folded
        present[rows, 0] = ~had | ~_trivial(folded)
    # CX j of fragment f runs before segment j + 1: its entry goes before
    # that segment's first slot; then only the present entries are kept
    cx_owner = np.repeat(np.arange(len(width)), cx_count)
    j = np.arange(len(cx_owner)) - offsets(cx_count)[cx_owner]
    cx_slots = _SLOTS * (start[cx_owner] + width[cx_owner] * (j + 1))
    mat_owner = np.repeat(np.arange(len(width)), sizes)
    wires = ((np.arange(len(mats)) - start[mat_owner]) % width[mat_owner]).astype(np.int8)
    keep = np.insert(present.ravel(), cx_slots, True)
    owner = np.repeat(np.arange(len(width)), _SLOTS * sizes + cx_count)[keep]
    controls = _CONTROLS[cx_count[cx_owner], j]
    rows = CircuitColumns(
        np.insert(kind.ravel(), cx_slots, CX_CODE)[keep],
        np.insert(np.repeat(wires, _SLOTS), cx_slots, controls)[keep],
        np.insert(np.full(kind.size, -1, dtype=np.int8), cx_slots, 1 - controls)[keep],
        np.insert(angle.ravel(), cx_slots, np.nan)[keep],
    )
    return Candidates(rows, offsets(np.bincount(owner, minlength=len(width))), width)


def weyl_to_circuit(t: KakTerms) -> Circuit:
    """Two-wire fragment realizing the KakTerms value at its minimal CX count:
    the one-candidate case of the stacked template stage."""
    (l0, l1), (r0, r1) = t.left_locals, t.right_locals
    weyl = np.asarray(t.weyl, dtype=float)[None]
    one = KakStack((l0[None], l1[None]), (r0[None], r1[None]), weyl, np.array([t.global_phase]))
    cls = _cx_classes(weyl)
    mats = np.empty((2 * cls[0] + 2, 2, 2), dtype=complex)
    plain = np.zeros(1, dtype=bool)
    _templates_2q(mats, np.zeros(1, dtype=int), one, cls, np.zeros((1, DRAW_STRIDE)), plain)
    return _emit_many(mats, [2], cls).circuit(0)


def _run_products(cands: Candidates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each wire's run of one-qubit gates between CXs, multiplied into one 2x2
    matrix (later gates on the left), every run of every fragment at once.

    Returns the (R, 2, 2) run products, the offsets first (one more than
    there are fragments) and the index of each fragment's first CX among
    cands' CX entries. Fragment i owns runs first[i] .. first[i + 1] - 1:
    run first[i] + 2 s + w is wire w's run after the fragment's s-th CX."""
    kind, wire, _target, angle = cands.rows
    owner = cands.owners()
    is_cx = kind == CX_CODE
    cx_before = offsets(is_cx)
    first_cx = cx_before[cands.start[:-1]]
    cx_count = cx_before[cands.start[1:]] - first_cx
    first = offsets(2 * (cx_count + 1))
    one = ~is_cx
    run = (first[owner] + 2 * (cx_before[:-1] - first_cx[owner]) + wire)[one]
    mats = gate_matrices(kind[one], angle[one])
    # each run's gates in stream order, padded with identities to one length
    order = np.argsort(run, kind="stable")
    run = run[order]
    pos = np.arange(len(run)) - np.searchsorted(run, run)
    padded = np.tile(np.eye(2, dtype=complex), (first[-1], pos.max(initial=0) + 1, 1, 1))
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
    next runs multiplies them. Rounding differs from linalg.apply_circuit's,
    which stays the one kernel whose bits reach an output (the statevectors)."""
    runs, first, first_cx = _run_products(cands)
    controls = cands.rows.q0[cands.rows.kind == CX_CODE]
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
            rows = CX_ROWS[controls[first_cx[idx] + s]]
            u = _kron(runs[r + 2 * s + 3], runs[r + 2 * s + 2]) @ u[stack, rows]
        out[(width, count)] = idx, u
    return out


def _candidate_draws(seed: int, order, k: int) -> np.ndarray:
    """(len(order), k, DRAW_STRIDE) uniforms on [0, 1): [b, i, j] is uniform j
    of candidate i of the block with order index order[b], the value at
    position order[b] * DRAW_STRIDE + j of candidate i's stream, PCG64 seeded
    from [seed, DRAW_TAG, i]. Candidate 0 is plain and draws nothing: its
    rows are zeros. Each stream is advanced to the first of each run of
    consecutive order indices and read by one random call, so a value
    depends on (seed, order index, i, j) alone; a partition's chunk is one
    run."""
    order = np.asarray(order, dtype=np.int64)
    out = np.zeros((len(order), k, DRAW_STRIDE))
    if k < 2 or not len(order):
        return out
    known = np.sort(order)
    cut = np.flatnonzero(np.diff(known) > 1)
    first = known[np.concatenate(([0], cut + 1))]
    span = known[np.concatenate((cut, [-1]))] + 1 - first
    run = np.searchsorted(first, order, side="right") - 1
    rows = offsets(span)[run] + order - first[run]  # each block's row of the reads
    runs = list(zip(first.tolist(), span.tolist()))
    for i in range(1, k):
        bits = np.random.PCG64(np.random.SeedSequence([seed, DRAW_TAG, i]))
        gen, at, read = np.random.Generator(bits), 0, []  # at: the stream position
        for a, n in runs:
            bits.advance((a - at) * DRAW_STRIDE)
            read.append(gen.random(n * DRAW_STRIDE))
            at = a + n
        out[:, i] = np.concatenate(read).reshape(-1, DRAW_STRIDE)[rows]
    return out


def _checked_candidates(p: BlockPartition, k: int, seed: int) -> Candidates:
    """k checked candidates per block of p, block j's at j k .. j k + k - 1,
    built as one stack: the block unitaries by gate structure, one KAK pass
    over the candidates of all two-qubit blocks, the templates by class, one
    Euler pass over the segments of every candidate, then one check of
    every candidate against its block. The draws of every candidate are
    read as one array (_candidate_draws)."""
    if k < 1:
        raise ValueError(f"need k >= 1 candidates per block, got {k}")
    width = np.repeat(p.width, k)
    frags = {w: np.flatnonzero(width == w) for w in (1, 2)}
    # each candidate's block unitary, in fragment order within its width
    us = {w: np.repeat(u, k, axis=0) for w, u in block_unitaries(p).items()}
    draws = _candidate_draws(seed, p.order, k).reshape(len(width), DRAW_STRIDE)
    index = np.arange(len(width)) % k
    dressed = index != 0
    two = frags[2]

    def retry_seed(r: int) -> list[int]:
        # a dressed candidate's failed first try retries from [seed, o, i]
        f = int(two[r])
        return [seed, int(p.order[f // k]), f % k]

    try:
        terms = kak_decompose_stack(us[2], dressed[two], -1 + 2 * draws[two, :2], retry_seed)
    except DecompositionError as exc:
        f = two[exc.index]
        raise SynthesisError(
            f"candidate {f % k} for block {p.order[f // k]} has no KAK decomposition"
        ) from exc
    cx_count = np.zeros(len(width), dtype=int)
    cx_count[two] = _cx_classes(terms.weyl)
    start = offsets(width * (cx_count + 1))
    mats = np.empty((start[-1], 2, 2), dtype=complex)
    one = frags[1]
    leads, psi = _templates_1q(mats, start[one], us[1], draws[one], dressed[one])
    _templates_2q(mats, start[two], terms, cx_count[two], draws[two], dressed[two])
    cands = _emit_many(mats, width, cx_count, one[leads], psi)
    rank = np.zeros(len(width), dtype=int)  # each fragment's row in us[its width]
    for w, f in frags.items():
        rank[f] = np.arange(len(f))
    ok = np.ones(len(cands), dtype=bool)
    for (w, _), (idx, got) in candidate_unitaries(cands).items():
        ok[idx] = equal_up_to_global_phase(got, us[w][rank[idx]], tol=CANDIDATE_TOL)
    if not ok.all():
        j = int(np.argmin(ok))
        raise SynthesisError(f"candidate {j % k} for block {p.order[j // k]} failed equivalence")
    return cands


def generate_candidates(b: Block, k: int, seed: int) -> list[Circuit]:
    """k fragments equivalent to the block, all at the block's minimal CX
    count. Candidate 0 is the deterministic plain synthesis; later candidates
    take decomposition branches and canceling-rotation dressings from their
    draws, a pure function of (seed, the block's order index, candidate
    index). The one-block case of synthesize_blocks' candidate stack."""
    cands = _checked_candidates(partition_of(b), k, seed)
    return [cands.circuit(i) for i in range(k)]


def _shortlists(sx_plus_x: np.ndarray, rz: np.ndarray, k: int, shortlist: int) -> np.ndarray:
    """(blocks, min(shortlist, k)) indices of each block's shortlist, block j
    owning candidates j k .. j k + k - 1: fewest SX+X, ties broken by fewer
    RZ, then lower index. One lexsort over all the blocks."""
    index = np.arange(len(sx_plus_x))
    return np.lexsort((index, rz, sx_plus_x, index // k)).reshape(-1, k)[:, :shortlist]


def _select(cands: Candidates, refs: list, k: int, shortlist: int) -> list[int]:
    """Each block's selected candidate, block j owning candidates j k .. j k
    + k - 1 of cands and refs[j] its memo key: the only one of its shortlist
    (_shortlists), or the shortlisted one most structurally distant from the
    block (the first of equals). The distances of all blocks are one batch:
    the memoized traces of the shortlisted candidates, stacked, less their
    block's, and one dot per row by np.matmul, which calls the BLAS dot that
    np.linalg.norm (netlsd_divergence) calls on one pair, so each distance
    has the bits of that pair's divergence."""
    if shortlist < 1:
        raise ValueError(f"need shortlist >= 1 candidates per block, got {shortlist}")
    kind, owner = cands.rows.kind, cands.owners()
    sx_plus_x = np.bincount(owner[(kind == SX_CODE) | (kind == X_CODE)], minlength=len(cands))
    rz = np.bincount(owner[kind == RZ_CODE], minlength=len(cands))
    kept = _shortlists(sx_plus_x, rz, k, shortlist)
    if kept.shape[1] == 1:
        return kept[:, 0].tolist()
    keys = cands.keys()
    traces = np.stack([_structure_signature(*keys[i]) for i in kept.ravel().tolist()])
    ref = np.stack([_structure_signature(*r) for r in refs])
    diff = traces.reshape(*kept.shape, -1) - ref[:, None]
    dist = np.sqrt(np.matmul(diff[..., None, :], diff[..., None])[..., 0, 0])
    return kept[np.arange(len(kept)), np.argmax(dist, axis=1)].tolist()


def block_structures(p: BlockPartition) -> list[tuple[int, bytes]]:
    """Each block's key in the signature memo, read from the partition's rows."""
    return row_keys(structure_codes(p.local_wire, p.rows.q1 != -1), p.bounds, p.width)


def select_candidate(cands: list[Circuit], original_block: Block, shortlist: int) -> Circuit:
    """Shortlist by fewest SX+X (ties: fewer RZ, then lower index), then pick
    the shortlisted fragment most structurally distant from the source block:
    _select over the local-wire circuits stacked as Candidates. A candidate
    on another number of wires than the block, or with a gate outside its
    local wires 0 .. width - 1, is a ValueError."""
    if not cands:
        raise ValueError("no candidates to select from")
    sizes, width = [c.num_gates for c in cands], np.array([c.num_qubits for c in cands])
    stack = Candidates(join_columns(c.columns for c in cands), offsets(sizes), width)
    w, q0, q1 = len(original_block.qubits), stack.rows.q0, stack.rows.q1
    off_wires = width != w
    off_wires[stack.owners()[(q0 < 0) | (q0 >= w) | (q1 < -1) | (q1 >= w)]] = True
    if off_wires.any():
        i = int(np.argmax(off_wires))
        raise ValueError(f"candidate {i} on {width[i]} qubits is not on the block's {w} local wires")
    ref = block_structures(partition_of(original_block))
    return cands[_select(stack, ref, len(cands), shortlist)[0]]


def structure_codes(wire, is_cx) -> np.ndarray:
    """One int8 code per gate of fragments on local wires, wire + 2 is_cx:
    gate i acts on wire[i] and, where is_cx[i], is a CX with that control
    and the other wire as target."""
    return np.asarray(wire, dtype=np.int8) + 2 * np.asarray(is_cx, dtype=np.int8)


@functools.lru_cache(maxsize=SIGNATURE_MEMO_ENTRIES)
def _structure_signature(width: int, structure: bytes) -> np.ndarray:
    """Heat signature of the fragment whose memo key is (width, structure),
    memoized by it: the DAG's edges, and so the signature, depend on nothing
    else, never on gate kinds or angles, and an encode meets few distinct
    structures, so most lookups hit. The returned array is netlsd_signature's,
    read-only and shared."""
    code = np.frombuffer(structure, dtype=np.int8).astype(np.int64)
    wire, is_cx = code % 2, code >= 2
    dag = column_dag(width, wire, np.where(is_cx, 1 - wire, -1))
    # Looked up in netlsd at call time, so tracing and tests see each miss.
    return netlsd.netlsd_signature(dag)


def synthesize_block(b: Block, k: int, shortlist: int, seed: int) -> tuple[Gate, ...]:
    """The one-block case of synthesize_blocks, as Gates."""
    return synthesize_blocks(partition_of(b), k, shortlist, seed)[0].gates()


def candidate_chunks(
    p: BlockPartition, k: int, seed: int
) -> Iterator[tuple[BlockPartition, Candidates]]:
    """Each chunk of SYNTH_CHUNK blocks, a view of p's rows, with its
    _checked_candidates stack."""
    for start in range(0, p.num_blocks, SYNTH_CHUNK):
        chunk = p.take(slice(start, start + SYNTH_CHUNK))
        yield chunk, _checked_candidates(chunk, k, seed)


def synthesize_blocks(
    p: BlockPartition, k: int, shortlist: int, seed: int
) -> tuple[CircuitColumns, np.ndarray]:
    """The selected fragment of every block of p as a fragment set aligned
    with its blocks: one column set on global qubits and the offsets of each
    block's rows (one more than there are blocks). Every candidate is
    checked and ranked from its columns, and each chunk's selected
    candidates are placed on their blocks' qubits as one column set; no
    Gate is built. Every fragment equals select_candidate's choice among
    generate_candidates', local wire w on the block's qubit w."""
    placed = []
    for chunk, cands in candidate_chunks(p, k, seed):
        best = _select(cands, block_structures(chunk), k, shortlist)
        placed.append(cands.place(best, chunk.lo, chunk.hi))
    sizes = np.concatenate([np.zeros(0, dtype=np.int64), *(n for _cols, n in placed)])
    return join_columns(cols for cols, _n in placed), offsets(sizes)
