"""Two-qubit block formation, block unitaries, and block reassembly.

Blocks are built in one forward pass: a one-qubit gate joins the open block
holding its qubit or opens a new block; a two-qubit gate joins the open block
holding both its qubits, otherwise it completes every open block touching
either qubit and opens a fresh block. A completed block never reopens, so on
any single wire the blocks appear in creation order. A partition is one
column set, as a circuit is: every pass reads its blocks as row ranges of
shared columns, and only reading .blocks builds Block objects.

block_unitaries builds the unitaries of many blocks at once. Blocks with the
same gate structure (width, and each gate's kind and local wires) form one
stack, and each gate position is one np.matmul over it, of the rows' gate
matrices gathered from one table: the same 2x2 BLAS product on each block's
own contiguous rows as a one-block product, so each matrix has the bits of
applying its block's gates one at a time. A CX is a row permutation, which
is exact.
"""

import functools
from dataclasses import dataclass, field
from itertools import chain, pairwise

import numpy as np

from .circuit import CX_CODE, Circuit, CircuitColumns, Gate
from .circuit import gate_columns, join_columns, offsets, ranges
from .dag import wire_order
from .linalg import CX_ROWS, gate_matrices


@dataclass(frozen=True, init=False)
class Block:
    """Contiguous sub-circuit on one or two wires; gates keep global qubits.
    The public one-block view: its gates are rows, and .gates builds them
    as Gates on its first read."""

    qubits: tuple[int, ...]
    gates: tuple[Gate, ...] = functools.cached_property(lambda b: b.rows.gates())
    order_index: int
    rows: CircuitColumns = field(init=False, repr=False, compare=False)

    def __init__(self, qubits: tuple[int, ...], gates, order_index: int):
        if not 1 <= len(qubits) <= 2:
            raise ValueError("block must span one or two qubits")
        if tuple(sorted(qubits)) != qubits:
            raise ValueError("block qubits must be sorted")
        if order_index < 0:
            # candidate draws are read at stream positions from the order index
            raise ValueError(f"block order index must be non-negative, got {order_index}")
        gates = tuple(gates)
        cols = gate_columns(gates)
        outside = ~np.isin(cols.q0, qubits) | ((cols.kind == CX_CODE) & ~np.isin(cols.q1, qubits))
        if outside.any():
            raise ValueError(f"gate {gates[int(np.argmax(outside))]} outside block wires {qubits}")
        self.__dict__.update(qubits=qubits, rows=cols, order_index=order_index)

    @classmethod
    def from_rows(cls, qubits: tuple[int, ...], rows: CircuitColumns, order_index: int) -> "Block":
        """A block whose gates are rows, unchecked: its callers build the rows
        on the block's sorted qubits."""
        b = object.__new__(cls)
        b.__dict__.update(qubits=qubits, rows=rows, order_index=order_index)
        return b


def _block_views(p: "BlockPartition") -> tuple[Block, ...]:
    rows = [CircuitColumns(*(c[a:z] for c in p.rows)) for a, z in pairwise(p.bounds.tolist())]
    return tuple(
        Block.from_rows((lo,) if lo == hi else (lo, hi), r, o)
        for lo, hi, o, r in zip(p.lo.tolist(), p.hi.tolist(), p.order.tolist(), rows)
    )


@dataclass(frozen=True, init=False)
class BlockPartition:
    """Blocks in order_index order, as one column set: block i's gates are
    rows bounds[i]:bounds[i + 1] of rows, on qubits lo[i] and hi[i] (equal
    for a one-qubit block), with order index order[i]. slot[r] is the index
    of the source gate row r stands at; gates sharing a slot are placed
    together, in block order.

    BlockPartition(n, blocks, slots, measured) converts its Blocks once and
    checks that blocks[i] has a gate and one slot per gate in slots[i], that
    Circuit(n, the blocks' gates, measured) is valid and that the order
    indices increase.
    .blocks and .slots are built from the columns on their first read;
    equality and hashing compare them."""

    num_qubits: int
    # cached_properties as fields, as Circuit.gates: only a read builds them
    blocks: tuple[Block, ...] = functools.cached_property(_block_views)
    slots: tuple[tuple[int, ...], ...] = functools.cached_property(
        lambda p: tuple(tuple(p.slot[a:z].tolist()) for a, z in pairwise(p.bounds.tolist()))
    )
    measured_qubits: tuple[int, ...] = ()
    rows: CircuitColumns = field(init=False, repr=False, compare=False)
    bounds: np.ndarray = field(init=False, repr=False, compare=False)
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)
    order: np.ndarray = field(init=False, repr=False, compare=False)
    slot: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, num_qubits: int, blocks, slots, measured_qubits=()):
        blocks, slots = tuple(blocks), tuple(slots)
        if len(slots) != len(blocks):
            raise ValueError(f"{len(slots)} slot tuples for {len(blocks)} blocks")
        for b, s in zip(blocks, slots):
            o, m = b.order_index, len(b.rows.kind)
            if not len(s):
                raise ValueError(f"block {o} has no slot")
            if len(s) != m:
                raise ValueError(f"block {o} has {len(s)} slots for {m} gates")
        rows = join_columns(b.rows for b in blocks)
        c = Circuit.from_columns(num_qubits, rows, measured_qubits)
        at = offsets([len(b.rows.kind) for b in blocks])
        per_block = [(b.qubits[0], b.qubits[-1], b.order_index) for b in blocks]
        lo, hi, order = np.array(per_block, dtype=np.int64).reshape(-1, 3).T.copy()
        if (np.diff(order) <= 0).any():
            raise ValueError(f"block order indices {order.tolist()} do not increase")
        slot = np.fromiter(chain.from_iterable(slots), dtype=np.int64, count=len(rows.kind))
        built = self.from_rows(c.num_qubits, rows, at, lo, hi, order, slot, c.measured_qubits)
        self.__dict__.update(vars(built))

    @classmethod
    def from_rows(cls, num_qubits: int, rows, bounds, lo, hi, order, slot, measured_qubits=()):
        """A partition of these columns, unchecked: its callers build them
        aligned, without an empty block."""
        p = object.__new__(cls)
        p.__dict__.update(num_qubits=num_qubits, rows=rows, bounds=bounds, lo=lo, hi=hi)
        p.__dict__.update(order=order, slot=slot, measured_qubits=tuple(measured_qubits))
        return p

    @property
    def num_blocks(self) -> int:
        return len(self.order)

    @property
    def width(self) -> np.ndarray:
        """Each block's wire count, 1 or 2."""
        return 1 + (self.lo != self.hi)

    @functools.cached_property
    def local_wire(self) -> np.ndarray:
        """Each row's local wire (int8): 1 where its qubit (a CX's control) is
        its block's upper qubit, else 0."""
        return (self.rows.q0 != np.repeat(self.lo, np.diff(self.bounds))).astype(np.int8)

    def boundaries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each pair of consecutive blocks on a wire, by wire and then storage
        order (dag.wire_order over the blocks), which every library partition
        keeps in order-index order, as pipeline.certify checks: the earlier
        block's position, the later one's and the wire."""
        block, wire = wire_order(self.lo, np.where(self.lo != self.hi, self.hi, -1))
        cross = np.flatnonzero(wire[1:] == wire[:-1])
        return block[cross], block[cross + 1], wire[cross]

    def take(self, idx) -> "BlockPartition":
        """The blocks at idx, any index of a block array (positions, a slice,
        a mask), as a partition of their gathered rows."""
        idx = np.arange(self.num_blocks)[idx]
        sizes = np.diff(self.bounds)[idx]
        rows = ranges(self.bounds[idx], sizes)
        cols = CircuitColumns(*(col[rows] for col in self.rows))
        lo, hi, order, slot = self.lo[idx], self.hi[idx], self.order[idx], self.slot[rows]
        n, measured = self.num_qubits, self.measured_qubits
        return self.from_rows(n, cols, offsets(sizes), lo, hi, order, slot, measured)


def partition_of(b: Block) -> BlockPartition:
    """The block alone as a partition, its gates at slots 0, 1, ...: the
    conversion the one-block API runs."""
    return BlockPartition(b.qubits[-1] + 1, (b,), (range(len(b.rows.kind)),))


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
    source = np.argsort(block, kind="stable")
    rows = CircuitColumns(*(col[source] for col in cols))
    at = offsets(np.bincount(block, minlength=len(qubits)))
    lo, hi = np.array([(q[0], q[-1]) for q in qubits], dtype=np.int64).reshape(-1, 2).T.copy()
    order = np.arange(len(qubits), dtype=np.int64)
    measured = c.measured_qubits
    return BlockPartition.from_rows(c.num_qubits, rows, at, lo, hi, order, source, measured)


def row_keys(records: np.ndarray, bounds, width) -> list[tuple[int, bytes]]:
    """Each block's key: its width and the bytes of its rows bounds[i]:bounds[i
    + 1] of records, one fixed-size record (scalar or 2-D array row) per row."""
    records = np.ascontiguousarray(records)
    data, at = records.tobytes(), (records.strides[0] * np.asarray(bounds)).tolist()
    return [(w, data[a:z]) for w, a, z in zip(np.asarray(width).tolist(), at, at[1:])]


def block_unitaries(p: BlockPartition) -> dict[int, np.ndarray]:
    """Unitaries of the partition's blocks over their local wires
    (little-endian), as {width: (count, d, d) stack of that width's blocks
    in partition order}.

    The 2x2 matrix of every row comes from one linalg.gate_matrices call,
    each entry with the bits of its one-angle rotation, and each gate
    position of a structure group gathers its rows' matrices. Gates are
    applied one at a time in circuit order, not fused into per-wire runs as
    in circuit_unitary. These bits are KAK's input and so fix the emitted
    angles: fusing would move them by rounding and change the encoded QASM
    for a fixed seed."""
    cols, at, widths = p.rows, p.bounds, p.width
    groups: dict[tuple, list[int]] = {}
    # each row's kind and first local wire: a one-qubit gate's wire or a
    # CX's control, whose target is the other wire
    for i, key in enumerate(row_keys(2 * cols.kind + p.local_wire, at, widths)):
        groups.setdefault(key, []).append(i)
    rank = np.zeros(len(widths), dtype=int)  # position within its width's stack
    out = {}
    for w in (1, 2):
        rank[widths == w] = np.arange(np.count_nonzero(widths == w))
        out[w] = np.empty((np.count_nonzero(widths == w), 2**w, 2**w), dtype=complex)
    mats = gate_matrices(cols.kind, cols.angle)
    for (n, structure), members in groups.items():
        first = at[members]
        u = np.tile(np.eye(2**n, dtype=complex), (len(members), 1, 1))
        for pos, code in enumerate(structure):
            kind, wire = divmod(code, 2)
            if kind == CX_CODE:
                u = u[:, CX_ROWS[wire]]
                continue
            rows = u.reshape(len(members), 2 ** (n - 1 - wire), 2, -1)
            u = np.matmul(mats[first + pos][:, None], rows).reshape(u.shape)
        out[n][rank[members]] = u
    return out


def block_unitary(b: Block) -> np.ndarray:
    """Unitary of one block over its local wires (2x2 or 4x4): the one-block
    case of block_unitaries."""
    return block_unitaries(partition_of(b))[len(b.qubits)][0]


def reassemble(p: BlockPartition, rows: CircuitColumns, bounds: np.ndarray) -> Circuit:
    """Substitute block contents and emit a full circuit.

    rows and bounds are a fragment set aligned with p's blocks: block i is
    replaced by rows bounds[i]:bounds[i + 1], on global qubits, placed as
    they are (p.rows and p.bounds put every block back unchanged). Gate j
    of a block's m-gate fragment goes to the block's slot k = ((j + 1) ell
    - 1) // m, ell its slot count, which spreads the fragment over the
    block's own slots in order ((k m) // ell is the first gate at slot k).
    Gates sharing a slot keep block order, then fragment order. So identity
    replacements reproduce the source circuit exactly and per-wire gate
    order across blocks is always preserved. The placement is array
    operations over all gates at once, and the output is built from columns
    by Circuit.from_rows: no Gate is built and the rows are trusted, not
    checked (pipeline.certify checks an encode's). A fragment set of another
    length than the blocks, or whose bounds do not run from 0 to its row
    count, is a ValueError.
    """
    if len(bounds) != len(p.bounds):
        raise ValueError(f"{len(bounds) - 1} fragments for {p.num_blocks} blocks")
    if bounds[0] != 0 or bounds[-1] != len(rows.kind):
        ends = f"{bounds[0]}..{bounds[-1]}"
        raise ValueError(f"fragment bounds run {ends} over {len(rows.kind)} rows")
    m, ell = np.diff(bounds), np.diff(p.bounds)
    owner = np.repeat(np.arange(len(m)), m)
    j = np.arange(len(owner)) - bounds[owner]
    slot = p.slot[p.bounds[owner] + ((j + 1) * ell[owner] - 1) // m[owner]]
    order = np.argsort(slot, kind="stable")
    return Circuit.from_rows(p.num_qubits, [col[order] for col in rows], p.measured_qubits)
