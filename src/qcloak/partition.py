"""Two-qubit block formation, block unitaries, and block reassembly.

Blocks are built in one forward pass: a one-qubit gate joins the open block
holding its qubit or opens a new block; a two-qubit gate joins the open block
holding both its qubits, otherwise it completes every open block touching
either qubit and opens a fresh block. A completed block never reopens, so on
any single wire the blocks appear in creation order.

block_unitaries builds the unitaries of many blocks at once. Blocks with the
same gate structure (width, and each gate's kind and local wires) form one
stack, and each gate position is one np.matmul over it: the same 2x2 BLAS
product on each block's own contiguous rows as a one-block product, so each
matrix has the bits of applying its block's gates one at a time. A CX is a
row permutation, which is exact.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .circuit import Circuit, CircuitColumns, Gate, GateKind, offsets, stack_fragments
from .linalg import CX_ROWS, PAULI_X, SX_MATRIX, rx_matrix, rz_matrix

_FIXED = {GateKind.X: PAULI_X, GateKind.SX: SX_MATRIX}
_ROTATIONS = {GateKind.RZ: rz_matrix, GateKind.RX: rx_matrix}


@dataclass(frozen=True)
class Block:
    """Contiguous sub-circuit on one or two wires; gates keep global qubits.
    The partition's slots record where each gate stands in the source circuit."""

    qubits: tuple[int, ...]
    gates: tuple[Gate, ...]
    order_index: int

    def __post_init__(self):
        if not 1 <= len(self.qubits) <= 2:
            raise ValueError("block must span one or two qubits")
        if tuple(sorted(self.qubits)) != self.qubits:
            raise ValueError("block qubits must be sorted")
        for g in self.gates:
            if not set(g.qubits) <= set(self.qubits):
                raise ValueError(f"gate {g} outside block wires {self.qubits}")

    def local(self, q: int) -> int:
        """Local wire index of global qubit q (wire order = ascending qubit)."""
        return self.qubits.index(q)


@dataclass(frozen=True)
class BlockPartition:
    """Blocks in order_index order. slots[i][j] is the index of the source
    gate that gate j of blocks[i] stands at; gates sharing a slot are placed
    together, in block order."""

    num_qubits: int
    blocks: tuple[Block, ...]
    slots: tuple[tuple[int, ...], ...]
    measured_qubits: tuple[int, ...]


def form_blocks(c: Circuit) -> BlockPartition:
    """Single-pass O(g) partition of the gate list into two-qubit blocks."""
    builders: list[dict] = []
    open_by_qubit: dict[int, dict] = {}

    def open_block(qubits: tuple[int, ...]) -> dict:
        b = {"qubits": set(qubits), "gates": [], "slots": [], "order": len(builders)}
        builders.append(b)
        for q in qubits:
            open_by_qubit[q] = b
        return b

    def complete(b: dict):
        for q in list(b["qubits"]):
            if open_by_qubit.get(q) is b:
                del open_by_qubit[q]

    for i, gate in enumerate(c.gates):
        if len(gate.qubits) == 1:
            q = gate.qubits[0]
            b = open_by_qubit.get(q)
            if b is None:
                b = open_block((q,))
        else:
            qa, qb = gate.qubits
            ba, bb = open_by_qubit.get(qa), open_by_qubit.get(qb)
            if ba is not None and ba is bb:
                b = ba
            else:
                if ba is not None:
                    complete(ba)
                if bb is not None and bb is not ba:
                    complete(bb)
                b = open_block((qa, qb))
        b["gates"].append(gate)
        b["slots"].append(i)

    blocks = tuple(
        Block(tuple(sorted(b["qubits"])), tuple(b["gates"]), b["order"]) for b in builders
    )
    slots = tuple(tuple(b["slots"]) for b in builders)
    return BlockPartition(c.num_qubits, blocks, slots, c.measured_qubits)


def block_unitaries(blocks: list[Block] | tuple[Block, ...]) -> dict[int, np.ndarray]:
    """Unitaries of the blocks over their local wires (little-endian), as
    {width: (count, d, d) stack of that width's blocks in list order}.

    Gates are applied one at a time in circuit order, not fused into per-wire
    runs as in circuit_unitary. These bits are KAK's input and so fix the
    emitted angles: fusing would move them by rounding and change the
    encoded QASM for a fixed seed."""
    groups: dict[tuple, list[int]] = {}
    for i, b in enumerate(blocks):
        # each gate's kind and first local wire: a one-qubit gate's wire or
        # a CX's control, whose target is the other wire
        lo = b.qubits[0]
        structure = tuple((g.kind, int(g.qubits[0] != lo)) for g in b.gates)
        groups.setdefault((len(b.qubits), structure), []).append(i)
    widths = np.array([len(b.qubits) for b in blocks], dtype=int)
    rank = np.zeros(len(blocks), dtype=int)  # position within its width's stack
    out = {}
    for w in (1, 2):
        rank[widths == w] = np.arange(np.count_nonzero(widths == w))
        out[w] = np.empty((np.count_nonzero(widths == w), 2**w, 2**w), dtype=complex)
    for (n, structure), members in groups.items():
        u = np.tile(np.eye(2**n, dtype=complex), (len(members), 1, 1))
        for p, (kind, wire) in enumerate(structure):
            if kind is GateKind.CX:
                u = u[:, CX_ROWS[wire]]
                continue
            mat = _FIXED.get(kind)
            if mat is None:
                angles = np.array([blocks[i].gates[p].angle for i in members])
                mat = _ROTATIONS[kind](angles)[:, None]
            rows = u.reshape(len(members), 2 ** (n - 1 - wire), 2, -1)
            u = np.matmul(mat, rows).reshape(u.shape)
        out[n][rank[members]] = u
    return out


def block_unitary(b: Block) -> np.ndarray:
    """Unitary of one block over its local wires (2x2 or 4x4): the one-block
    case of block_unitaries."""
    return block_unitaries([b])[len(b.qubits)][0]


def reassemble(p: BlockPartition, fragments: dict) -> Circuit:
    """Substitute block contents and emit a full circuit.

    fragments maps a block's order_index to what replaces it, placed as it
    is: a circuit.Fragment (rows of shared columns, as synthesis emits) or
    a sequence of Gates; a block with no entry keeps its own gates. Gate j
    of a block's m-gate fragment goes to the block's slot k = ((j + 1) ell
    - 1) // m, ell its slot count, which spreads the fragment over the
    block's own slots in order ((k m) // ell is the first gate at slot k).
    Gates sharing a slot keep block order, then fragment order. So identity
    replacements reproduce the source circuit exactly and per-wire gate
    order across blocks is always preserved. The placement is array
    operations over all gates at once, and the output is built from columns:
    no Gate is built. A block without slots, or slots not aligned with the
    blocks, is a ValueError: its fragment would have nowhere to go.
    """
    if len(p.slots) != len(p.blocks):
        raise ValueError(f"{len(p.slots)} slot tuples for {len(p.blocks)} blocks")
    ell = np.array([len(s) for s in p.slots], dtype=np.int64)
    if len(ell) and not ell.all():
        raise ValueError(f"block {p.blocks[int(np.argmin(ell))].order_index} has no slot")
    cols, m = stack_fragments([fragments.get(b.order_index, b.gates) for b in p.blocks])
    owner = np.repeat(np.arange(len(m)), m)
    j = np.arange(len(owner)) - offsets(m)[owner]
    flat = np.fromiter(chain.from_iterable(p.slots), dtype=np.int64, count=int(ell.sum()))
    slot = flat[offsets(ell)[owner] + ((j + 1) * ell[owner] - 1) // m[owner]]
    order = np.argsort(slot, kind="stable")
    return Circuit.from_columns(
        p.num_qubits, CircuitColumns(*(col[order] for col in cols)), p.measured_qubits
    )
