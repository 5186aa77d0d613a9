"""The four-step encoder: key injection, partitioning, RX pairs, resynthesis.

encode() is the single entry point used by the CLI and the analysis layer.
It refuses to return a circuit that fails either whole-circuit check:

- certify(), a structural certificate run at every size in O(g). It proves
  the output equals the RX-injected circuit up to a global phase, given
  that each selected fragment equals its block's unitary, which
  synthesis.synthesize_blocks has checked.
- A random-stimuli check up to EQUIV_CHECK_MAX_QUBITS qubits: the output and
  the RX-injected circuit are applied to the same few random product states
  and compared up to a global phase (Burgholzer, Kueng & Wille, ASP-DAC
  2021).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .circuit import Circuit, GateKind
from .linalg import apply_circuit, equal_up_to_global_phase
from .netlsd import DEFAULT_POINTS, DEFAULT_T_MAX, DEFAULT_T_MIN
from .obfuscate import ObfuscationKey, RxPair, inject_rx_pairs, inject_x_end
from .partition import Block, BlockPartition, form_blocks, reassemble
from .synthesis import synthesize_blocks

# imported for perfbench/tracing.py, which wraps these names; not called here
from .linalg import circuit_unitary  # noqa: F401
from .synthesis import synthesize_block  # noqa: F401

EQUIV_CHECK_MAX_QUBITS = 10  # widest circuit the random-stimuli check runs on
STIMULI_COUNT = 4  # random product states per stimuli check
STIMULI_SEED = 2021
STIMULI_TOL = 1e-7


class SynthesisEquivalenceError(RuntimeError):
    """The synthesized circuit does not match the injected circuit's unitary."""


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    k: int = 3
    shortlist: int = 2
    rx_density: float = 1.0
    # The NetLSD timescale grid is fixed (netlsd.default_grid), not a setting:
    # these read-only names give its bounds to code that builds it from a config.
    grid_min: ClassVar[float] = DEFAULT_T_MIN
    grid_max: ClassVar[float] = DEFAULT_T_MAX
    grid_points: ClassVar[int] = DEFAULT_POINTS

    def __post_init__(self):
        if self.k < 1 or not 1 <= self.shortlist <= self.k:
            raise ValueError("need k >= 1 and 1 <= shortlist <= k")
        if not 0.0 <= self.rx_density <= 1.0:
            raise ValueError("rx_density must lie in [0, 1]")


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


def _in_order(blocks: tuple[Block, ...]) -> list[Block]:
    ordered = sorted(blocks, key=lambda b: b.order_index)
    orders = [b.order_index for b in ordered]
    if len(set(orders)) != len(orders):
        raise _fail("duplicate block order_index")
    return ordered


def _match_wires(c: Circuit, entries: list[tuple], what: str) -> None:
    """Raise unless c is the concatenation of entries up to a reordering that
    keeps every wire's gate sequence.

    entries are (kind, global qubits, angle) tuples in block order, each
    qubit in 0..n-1. Each gate of c must equal the next entry on its first
    wire, and a CX must be that same entry on its second wire; every entry
    must be used. Equal per-wire sequences with one node per CX give the
    same DAG, and so the same unitary."""
    wires: list[list[tuple]] = [[] for _ in range(c.num_qubits)]
    for e in entries:
        qubits = e[1]
        wires[qubits[0]].append(e)
        if len(qubits) == 2:
            wires[qubits[1]].append(e)
    its = [iter(seq) for seq in wires]
    for i, g in enumerate(c.gates):
        qubits = g.qubits
        e = next(its[qubits[0]], None)
        if e is None or e[0] is not g.kind or e[1] != qubits or e[2] != g.angle:
            raise _fail(f"gate {i} differs from the {what}")
        if len(qubits) == 2 and next(its[qubits[1]], None) is not e:
            raise _fail(f"gate {i} is another CX than the {what} has")
    for q, it in enumerate(its):
        if next(it, None) is not None:
            raise _fail(f"the {what} has unmatched gates on wire {q}")


def certify(
    x_circ: Circuit,
    x_partition: BlockPartition,
    rx_partition: BlockPartition,
    rx_record: tuple[RxPair, ...],
    fragments: dict[int, Circuit],
    out: Circuit,
) -> None:
    """Structural proof, in O(g), that out equals x_circ up to a global phase
    given that each fragment equals its block's unitary. Raises
    SynthesisEquivalenceError on the first check that fails:

    (a) the X-injected partition's blocks, concatenated in order_index
        order, give x_circ's per-wire gate sequences;
    (b) each RX-injected block is its X-injected block with only its
        recorded RX(-theta) halves prepended and RX(theta) halves appended,
        each pair's later block being the next block on its wire after the
        earlier one, so adjacent halves cancel exactly;
    (c) the blocks' fragments, mapped to global qubits and concatenated in
        order_index order, give out's per-wire gate sequences.

    Reads no provenance: nothing reassemble relies on is trusted."""
    n = x_circ.num_qubits
    if not n == x_partition.num_qubits == rx_partition.num_qubits == out.num_qubits:
        raise _fail("circuits and partitions differ in width")
    if out.measured_qubits != x_circ.measured_qubits:
        raise _fail("output measures other qubits")

    x_blocks = _in_order(x_partition.blocks)
    if any(not 0 <= q < n for b in x_blocks for q in b.qubits):
        raise _fail("a block acts outside the circuit's qubits")
    _match_wires(
        x_circ,
        [(g.kind, g.qubits, g.angle) for b in x_blocks for g in b.gates],
        "X-injected partition",
    )

    rx_blocks = _in_order(rx_partition.blocks)
    if [(b.order_index, b.qubits) for b in rx_blocks] != [
        (b.order_index, b.qubits) for b in x_blocks
    ]:
        raise _fail("RX-injected partition has other blocks")
    later_on_wire: dict[tuple[int, int], int] = {}
    last_on_wire: dict[int, int] = {}
    for b in x_blocks:
        for q in b.qubits:
            if q in last_on_wire:
                later_on_wire[q, last_on_wire[q]] = b.order_index
            last_on_wire[q] = b.order_index
    # order_index -> (wire, angle) of the halves it starts / ends with
    prepend: dict[int, list[tuple[int, float]]] = {}
    append: dict[int, list[tuple[int, float]]] = {}
    for pair in rx_record:
        later = later_on_wire.get((pair.wire, pair.boundary))
        if later is None:
            raise _fail(f"RX pair on wire {pair.wire} crosses no block boundary")
        append.setdefault(pair.boundary, []).append((pair.wire, pair.theta))
        prepend.setdefault(later, []).append((pair.wire, -pair.theta))
    for xb, rb in zip(x_blocks, rx_blocks):
        o = xb.order_index
        pre, app = prepend.get(o, []), append.get(o, [])
        gates = rb.gates
        start, stop = len(pre), len(gates) - len(app)
        if (
            stop - start != len(xb.gates)
            or gates[start:stop] != xb.gates
            or [(g.kind, g.qubits, g.angle) for g in gates[:start] + gates[stop:]]
            != [(GateKind.RX, (wire,), angle) for wire, angle in pre + app]
        ):
            raise _fail(f"block {o} is not its X-injected block plus its RX halves")

    entries = []
    for b in rx_blocks:
        frag = fragments.get(b.order_index)
        if frag is None or frag.num_qubits != len(b.qubits):
            raise _fail(f"block {b.order_index} has no fragment of its width")
        if len(b.qubits) == 1:
            to_global = {(0,): b.qubits}
        else:
            lo, hi = b.qubits
            to_global = {(0,): (lo,), (1,): (hi,), (0, 1): (lo, hi), (1, 0): (hi, lo)}
        entries.extend((g.kind, to_global[g.qubits], g.angle) for g in frag.gates)
    _match_wires(out, entries, "block fragments")


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
    x_partition = form_blocks(x_circ)
    rx_circ, rx_record, partition = inject_rx_pairs(
        x_circ, x_partition, int(seeds[1]), cfg.rx_density
    )
    key = replace(key, rx_record=rx_record)

    fragments = synthesize_blocks(partition.blocks, cfg.k, cfg.shortlist, int(seeds[2]))
    out = reassemble(partition, fragments)

    certify(x_circ, x_partition, partition, rx_record, fragments, out)
    if c.num_qubits <= EQUIV_CHECK_MAX_QUBITS:
        stimuli = _stimuli(c.num_qubits)
        if not equal_up_to_global_phase(
            apply_circuit(stimuli.copy(), out),
            apply_circuit(stimuli.copy(), rx_circ),
            tol=STIMULI_TOL,
        ):
            raise SynthesisEquivalenceError(
                "synthesized circuit deviates from the injected circuit on random stimuli"
            )
    return EncodeResult(circuit=out, key=key, x_injected=x_circ)
