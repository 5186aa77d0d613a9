"""Two-qubit block formation, block unitaries, and block reassembly.

Blocks are built in one forward pass: a one-qubit gate joins the open block
holding its qubit or opens a new block; a two-qubit gate joins the open block
holding both its qubits, otherwise it completes every open block touching
either qubit and opens a fresh block. A completed block never reopens, so on
any single wire the blocks appear in creation order. A partition's blocks
are consecutive rows of one shared column set (circuit.Fragment each).

block_unitaries builds the unitaries of many blocks at once. Blocks with the
same gate structure (width, and each gate's kind and local wires) form one
stack, and each gate position is one np.matmul over it: the same 2x2 BLAS
product on each block's own contiguous rows as a one-block product, so each
matrix has the bits of applying its block's gates one at a time. A CX is a
row permutation, which is exact.
"""

import functools
from dataclasses import dataclass, field
from itertools import chain, pairwise

import numpy as np

from .circuit import CX_CODE, RX_CODE, RZ_CODE, SX_CODE, X_CODE, Circuit, CircuitColumns, Fragment
from .circuit import Gate, gate_columns, offsets, stack_fragments
from .linalg import CX_ROWS, PAULI_X, SX_MATRIX, rx_matrix, rz_matrix

_FIXED = {X_CODE: PAULI_X, SX_CODE: SX_MATRIX}
_ROTATIONS = {RZ_CODE: rz_matrix, RX_CODE: rx_matrix}


@dataclass(frozen=True, init=False)
class Block:
    """Contiguous sub-circuit on one or two wires; gates keep global qubits.
    The partition's slots record where each gate stands in the source circuit.
    Its gates are rows; .gates builds them as Gates on its first read."""

    qubits: tuple[int, ...]
    gates: tuple[Gate, ...] = functools.cached_property(lambda b: tuple(b.rows))
    order_index: int
    rows: Fragment = field(init=False, repr=False, compare=False)

    def __init__(self, qubits: tuple[int, ...], gates, order_index: int):
        if not 1 <= len(qubits) <= 2:
            raise ValueError("block must span one or two qubits")
        if tuple(sorted(qubits)) != qubits:
            raise ValueError("block qubits must be sorted")
        gates = tuple(gates)
        cols = gate_columns(gates)
        outside = ~np.isin(cols.q0, qubits) | ((cols.kind == CX_CODE) & ~np.isin(cols.q1, qubits))
        if outside.any():
            raise ValueError(f"gate {gates[int(np.argmax(outside))]} outside block wires {qubits}")
        rows = Fragment(cols, 0, len(gates))
        self.__dict__.update(qubits=qubits, rows=rows, order_index=order_index)

    @classmethod
    def from_rows(cls, qubits: tuple[int, ...], rows: Fragment, order_index: int) -> "Block":
        """A block whose gates are rows, unchecked: its callers build the rows
        on the block's sorted qubits."""
        b = object.__new__(cls)
        b.__dict__.update(qubits=qubits, rows=rows, order_index=order_index)
        return b

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
    """Single-pass O(g) partition of the gate list into two-qubit blocks:
    one pass over the qubit columns gives each row its block, then one
    stable sort gathers every block's rows and slots."""
    cols = c.columns
    block_of: list[int] = []
    qubits: list[tuple[int, ...]] = []  # of each block, in creation order
    open_on: dict[int, int] = {}  # qubit -> its open block
    for a, b in zip(cols.q0.tolist(), cols.q1.tolist()):
        k = open_on.get(a)
        if b == -1:
            if k is None:
                k = open_on[a] = len(qubits)
                qubits.append((a,))
        elif k is None or k != open_on.get(b):
            for done in {k, open_on.get(b)} - {None}:  # complete them
                for q in qubits[done]:
                    del open_on[q]
            k = open_on[a] = open_on[b] = len(qubits)
            qubits.append((a, b) if a < b else (b, a))
        block_of.append(k)
    block = np.array(block_of, dtype=np.int64)
    order = np.argsort(block, kind="stable")
    at = offsets(np.bincount(block, minlength=len(qubits))).tolist()
    rows = CircuitColumns(*(col[order] for col in cols))
    source = order.tolist()
    blocks = tuple(
        Block.from_rows(q, Fragment(rows, a, z), i)
        for i, (q, (a, z)) in enumerate(zip(qubits, pairwise(at)))
    )
    slots = tuple(tuple(source[a:z]) for a, z in pairwise(at))
    return BlockPartition(c.num_qubits, blocks, slots, c.measured_qubits)


def block_rows(blocks) -> tuple[CircuitColumns, np.ndarray, np.ndarray]:
    """The blocks' rows concatenated in list order, each block's row offsets
    (one more than there are blocks), and each row's local wire: 1 where
    its qubit (a CX's control) is the block's upper qubit, else 0."""
    cols, sizes = stack_fragments([b.rows for b in blocks])
    lo = np.array([b.qubits[0] for b in blocks], dtype=np.int64)
    wire = cols.q0 != np.repeat(lo, sizes)
    return cols, offsets(sizes), wire.astype(np.int8)


def block_unitaries(blocks: list[Block] | tuple[Block, ...]) -> dict[int, np.ndarray]:
    """Unitaries of the blocks over their local wires (little-endian), as
    {width: (count, d, d) stack of that width's blocks in list order}.

    Gates are applied one at a time in circuit order, not fused into per-wire
    runs as in circuit_unitary. These bits are KAK's input and so fix the
    emitted angles: fusing would move them by rounding and change the
    encoded QASM for a fixed seed."""
    cols, at, wire = block_rows(blocks)
    # each row's kind and first local wire: a one-qubit gate's wire or a
    # CX's control, whose target is the other wire
    codes, bounds = (2 * cols.kind + wire).tobytes(), at.tolist()
    groups: dict[tuple, list[int]] = {}
    for i, b in enumerate(blocks):
        groups.setdefault((len(b.qubits), codes[bounds[i] : bounds[i + 1]]), []).append(i)
    widths = np.array([len(b.qubits) for b in blocks], dtype=int)
    rank = np.zeros(len(blocks), dtype=int)  # position within its width's stack
    out = {}
    for w in (1, 2):
        rank[widths == w] = np.arange(np.count_nonzero(widths == w))
        out[w] = np.empty((np.count_nonzero(widths == w), 2**w, 2**w), dtype=complex)
    for (n, structure), members in groups.items():
        first = at[members]
        u = np.tile(np.eye(2**n, dtype=complex), (len(members), 1, 1))
        for p, code in enumerate(structure):
            kind, wire = divmod(code, 2)
            if kind == CX_CODE:
                u = u[:, CX_ROWS[wire]]
                continue
            mat = _FIXED.get(kind)
            if mat is None:
                mat = _ROTATIONS[kind](cols.angle[first + p])[:, None]
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
    cols, m = stack_fragments([fragments.get(b.order_index, b.rows) for b in p.blocks])
    owner = np.repeat(np.arange(len(m)), m)
    j = np.arange(len(owner)) - offsets(m)[owner]
    flat = np.fromiter(chain.from_iterable(p.slots), dtype=np.int64, count=int(ell.sum()))
    slot = flat[offsets(ell)[owner] + ((j + 1) * ell[owner] - 1) // m[owner]]
    order = np.argsort(slot, kind="stable")
    return Circuit.from_columns(
        p.num_qubits, CircuitColumns(*(col[order] for col in cols)), p.measured_qubits
    )
