"""The four-step encoder: key injection, partitioning, RX pairs, resynthesis.

encode() is the single entry point used by the CLI and the analysis layer.
The key decodes the X-injected circuit, and the RX pairs cancel exactly, so
the output must equal the X-injected circuit. encode refuses to return a
circuit that fails either whole-circuit check against it:

- certify(), a structural certificate run at every size in O(g). Its two
  checks, the RX-injected blocks with their recorded halves removed
  against the X-injected circuit and the fragments against the output,
  prove the output equals the X-injected circuit up to a global phase,
  given that each selected fragment equals its block's unitary, which
  synthesis.synthesize_blocks has checked.
- A random-stimuli check up to EQUIV_CHECK_MAX_QUBITS qubits: the output and
  the X-injected circuit are applied to the same few random product states
  and compared up to a global phase (Burgholzer, Kueng & Wille, ASP-DAC
  2021). It covers the RX injection end to end, independently of certify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .circuit import RX_CODE, Circuit, CircuitColumns, group_ranks, offsets
from .dag import wire_order
from .linalg import apply_circuit, equal_up_to_global_phase
from .obfuscate import ObfuscationKey, RxPair, inject_rx_pairs, inject_x_end
from .partition import BlockPartition, form_blocks, reassemble
from .synthesis import synthesize_blocks

# imported for perfbench/tracing.py, which wraps these names; not called here
from .linalg import circuit_unitary  # noqa: F401
from .synthesis import synthesize_block  # noqa: F401

EQUIV_CHECK_MAX_QUBITS = 10  # widest circuit the random-stimuli check runs on
STIMULI_COUNT = 4  # random product states per stimuli check
STIMULI_SEED = 2021
STIMULI_TOL = 1e-7
CANDIDATES = 3  # KAK/Euler candidates generated per block
SHORTLIST = 2  # fewest-SX+X candidates the most distant one is picked from


class SynthesisEquivalenceError(RuntimeError):
    """The synthesized circuit does not match the injected circuit's unitary."""


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0


@dataclass(frozen=True)
class EncodeResult:
    circuit: Circuit
    key: ObfuscationKey
    x_injected: Circuit  # after step 1 only, for structural ablations


def whole_circuit_check(num_qubits: int) -> str:
    """Name of the whole-circuit checks encode runs at this width."""
    if num_qubits <= EQUIV_CHECK_MAX_QUBITS:
        return "certificate+stimuli"
    return "certificate"


def _fail(message: str) -> SynthesisEquivalenceError:
    return SynthesisEquivalenceError(f"certificate: {message}")


def _match_wires(n: int, got: CircuitColumns, want: CircuitColumns, what: str) -> None:
    """Raise unless got is the concatenation of the rows of want up to a
    reordering that keeps every wire's gate sequence.

    Both act on qubits 0..n-1. The k-th gate of got on a wire is matched
    with the k-th row of want on that wire: each gate must equal its match
    on its first wire, a CX must have that same match on its second wire,
    and every row must be matched. Equal per-wire sequences with one node
    per CX give the same DAG, and so the same unitary. The message names
    the first gate of got, in order, that fails."""
    gate, wire = wire_order(got.q0, got.q1)
    rows, want_wire = wire_order(want.q0, want.q1)
    counts, want_counts = (np.bincount(w, minlength=n) for w in (wire, want_wire))
    pos = np.arange(len(gate)) - offsets(counts)[wire]
    has = pos < want_counts[wire]
    match = np.full(len(gate), -1)
    match[has] = rows[(offsets(want_counts)[wire] + pos)[has]]
    first = wire == got.q0[gate]
    m0 = np.empty(len(got.kind), dtype=np.int64)
    m0[gate[first]] = match[first]
    m1 = np.full(len(got.kind), -1)
    m1[gate[~first]] = match[~first]
    same = m0 >= 0
    if len(rows):
        e = np.maximum(m0, 0)
        a, b = got.angle, want.angle[e]
        same &= (got.kind == want.kind[e]) & (got.q0 == want.q0[e]) & (got.q1 == want.q1[e])
        same &= (a == b) | (np.isnan(a) & np.isnan(b))  # NaN: no angle
    other_cx = (got.q1 != -1) & (m1 != m0)
    if not (same & ~other_cx).all():
        i = int(np.argmin(same & ~other_cx))
        if not same[i]:
            raise _fail(f"gate {i} differs from the {what}")
        raise _fail(f"gate {i} is another CX than the {what} has")
    if (want_counts > counts).any():
        wire = int(np.argmax(want_counts > counts))
        raise _fail(f"the {what} has unmatched gates on wire {wire}")


def certify(
    x_circ: Circuit,
    p: BlockPartition,
    rx_record: tuple[RxPair, ...],
    rows: CircuitColumns,
    bounds: np.ndarray,
    out: Circuit,
) -> None:
    """Structural proof, in O(g), that out equals x_circ up to a global phase
    given that each fragment, read on its block's qubits, equals its block's
    unitary. rows and bounds are the fragment set, aligned with the
    partition's blocks as synthesis.synthesize_blocks returns it. Raises
    SynthesisEquivalenceError on the first check that fails:

    (a) the blocks' order indices increase, and each RX-injected block
        starts with exactly its recorded RX(-theta) halves and ends with
        exactly its recorded RX(theta) halves, each pair's later block being
        the next block on its wire after the earlier one, so adjacent halves
        cancel exactly; and the blocks' cores, the blocks without these
        halves, concatenated in order, give x_circ's per-wire gate
        sequences;
    (b) there is one fragment per block (it may be empty), the bounds run
        from 0 to the fragment set's row count, each fragment's gates act
        on its block's qubits only, and the fragments, concatenated in
        order, give out's per-wire gate sequences.

    Every check reads columns (circuit.CircuitColumns): the circuits', the
    partition's rows and the fragment set's. Reads no slots: nothing
    reassemble relies on is trusted."""
    n = x_circ.num_qubits
    if not n == p.num_qubits == out.num_qubits:
        raise _fail("circuits and partition differ in width")
    if out.measured_qubits != x_circ.measured_qubits:
        raise _fail("output measures other qubits")

    if (np.diff(p.order) <= 0).any():
        raise _fail("block order indices do not increase")
    if (p.lo < 0).any() or (p.hi >= n).any():
        raise _fail("a block acts outside the circuit's qubits")
    # (wire, order index) -> positions of that block and the next on the wire
    earlier, later, wire = p.boundaries()
    next_on_wire = dict(
        zip(zip(wire.tolist(), p.order[earlier].tolist()), zip(earlier.tolist(), later.tolist()))
    )
    crossed = [next_on_wire.get((pair.wire, pair.boundary)) for pair in rx_record]
    if None in crossed:
        wire = rx_record[crossed.index(None)].wire
        raise _fail(f"RX pair on wire {wire} crosses no block boundary")
    earlier, later = np.array(crossed, dtype=np.int64).reshape(-1, 2).T
    wire = np.array([pair.wire for pair in rx_record], dtype=np.int64)
    theta = np.array([pair.theta for pair in rx_record], dtype=float)
    # the rows of the halves, in record order: the RX(-theta) halves each
    # block starts with, then the RX(theta) halves each ends with
    at, sizes = p.bounds, np.diff(p.bounds)
    first, n_first = group_ranks(later, p.num_blocks)
    last, n_last = group_ranks(earlier, p.num_blocks)
    half = np.concatenate((at[later] + first, at[earlier + 1] - n_last[earlier] + last))
    bad = sizes < n_first + n_last
    if len(p.rows.kind):
        r = np.clip(half, 0, len(p.rows.kind) - 1)  # a short block is bad anyway
        wrong = (p.rows.kind[r] != RX_CODE) | (p.rows.q0[r] != np.tile(wire, 2))
        wrong |= p.rows.angle[r] != np.concatenate((-theta, theta))
        bad[np.concatenate((later, earlier))[wrong]] = True
    if bad.any():
        o = p.order[np.argmax(bad)]
        raise _fail(f"block {o} does not start and end with exactly its RX halves")
    core = np.ones(len(p.rows.kind), dtype=bool)
    core[half] = False
    cores = CircuitColumns(*(col[core] for col in p.rows))
    _match_wires(n, x_circ.columns, cores, "block cores")

    if len(bounds) != len(at):
        raise _fail(f"{len(bounds) - 1} fragments for {p.num_blocks} blocks")
    if bounds[0] != 0 or bounds[-1] != len(rows.kind):
        ends = f"{bounds[0]}..{bounds[-1]}"
        raise _fail(f"fragment bounds run {ends} over {len(rows.kind)} rows")
    owner = np.repeat(np.arange(p.num_blocks), np.diff(bounds))
    lo, hi = p.lo[owner], p.hi[owner]
    cx = rows.q1 != -1
    outside = (rows.q0 != lo) & (rows.q0 != hi)
    outside |= cx & (rows.q1 != lo) & (rows.q1 != hi)
    if outside.any():
        o = p.order[owner[np.argmax(outside)]]
        raise _fail(f"the fragment of block {o} acts outside its qubits")
    _match_wires(n, out.columns, rows, "block fragments")


@functools.lru_cache(maxsize=EQUIV_CHECK_MAX_QUBITS)
def _stimuli(num_qubits: int) -> np.ndarray:
    """(2^n, STIMULI_COUNT) read-only block of random product states: each
    column a tensor product of normalized complex Gaussian qubit states."""
    rng = np.random.default_rng([STIMULI_SEED, num_qubits])
    shape = (num_qubits, 2, STIMULI_COUNT)
    local = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    local /= np.linalg.norm(local, axis=1, keepdims=True)
    states = np.ones((1, STIMULI_COUNT), dtype=complex)
    for q in range(num_qubits):
        # qubit q becomes the most significant bit so far (little-endian)
        states = (local[q][:, None, :] * states[None, :, :]).reshape(-1, STIMULI_COUNT)
    states.setflags(write=False)
    return states


def encode(c: Circuit, cfg: PipelineConfig) -> EncodeResult:
    """Steps in order: inject terminal X gates (drawing the key), partition
    into two-qubit blocks, inject RX pairs at block boundaries, resynthesize
    each block, reassemble; then the whole-circuit checks."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    x_circ, key = inject_x_end(c, int(seeds[0]))
    partition, rx_record = inject_rx_pairs(form_blocks(x_circ), int(seeds[1]))
    key = replace(key, rx_record=rx_record)

    rows, bounds = synthesize_blocks(partition, CANDIDATES, SHORTLIST, int(seeds[2]))
    out = reassemble(partition, rows, bounds)

    certify(x_circ, partition, rx_record, rows, bounds, out)
    if c.num_qubits <= EQUIV_CHECK_MAX_QUBITS:
        stimuli = _stimuli(c.num_qubits)
        if not equal_up_to_global_phase(
            apply_circuit(stimuli.copy(), out),
            apply_circuit(stimuli.copy(), x_circ),
            tol=STIMULI_TOL,
        ):
            raise SynthesisEquivalenceError(
                "synthesized circuit deviates from the injected circuit on random stimuli"
            )
    return EncodeResult(circuit=out, key=key, x_injected=x_circ)
