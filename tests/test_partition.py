import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from qcloak.bench import gen_adder, gen_qft, gen_random_blocks
from qcloak.circuit import Circuit, cx, rx, rz, sx, x
from qcloak.linalg import circuit_unitary, equal_up_to_global_phase
from qcloak.obfuscate import inject_rx_pairs, inject_x_end
from qcloak.partition import (
    Block,
    BlockPartition,
    block_unitaries,
    block_unitary,
    form_blocks,
    reassemble,
    row_keys,
)
from qcloak.synthesis import SYNTH_CHUNK, block_structures
from strategies import (
    block_boundaries,
    circuits,
    fragment_set,
    partition_of_blocks,
    per_gate_block_unitary,
    tensordot_circuit_unitary,
    to_local_circuit,
)


def test_block_validation():
    with pytest.raises(ValueError):
        Block((1, 0), (), 0)
    with pytest.raises(ValueError):
        Block((0, 1, 2), (), 0)
    # the rows are checked as columns; the message names the first stray Gate
    for gates, stray in (((x(2),), x(2)), ((sx(0), cx(1, 3), x(2)), cx(1, 3))):
        message = re.escape(f"gate {stray} outside block wires (0, 1)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Block((0, 1), gates, 0)


def test_block_rejects_a_negative_order_index():
    # candidate draws are read at stream positions from the order index, so
    # a negative one would wrap around the stream
    with pytest.raises(ValueError, match="^block order index must be non-negative, got -5$"):
        Block((0, 1), (cx(0, 1),), -5)
    assert Block((0, 1), (cx(0, 1),), 0).order_index == 0


def test_form_blocks_ghz_chain():
    # a leading 1q gate opens its own block; the next cx completes it
    c = Circuit(3, (sx(0), cx(0, 1), cx(1, 2), rz(0.4, 2)))
    p = form_blocks(c)
    assert [b.qubits for b in p.blocks] == [(0,), (0, 1), (1, 2)]
    assert [b.gates for b in p.blocks] == [
        (sx(0),),
        (cx(0, 1),),
        (cx(1, 2), rz(0.4, 2)),
    ]
    assert p.slots == ((0,), (1,), (2, 3))


def test_shared_wire_completes_block():
    c = Circuit(3, (cx(0, 1), x(1), cx(1, 2)))
    p = form_blocks(c)
    assert [b.qubits for b in p.blocks] == [(0, 1), (1, 2)]
    assert p.blocks[0].gates == (cx(0, 1), x(1))
    assert p.blocks[1].gates == (cx(1, 2),)


def test_one_qubit_gate_joins_open_two_qubit_block():
    c = Circuit(2, (x(0), cx(0, 1), x(1), cx(0, 1)))
    p = form_blocks(c)
    # x(0) opens a 1q block, completed by the cx; x(1) joins the open cx block
    assert [b.qubits for b in p.blocks] == [(0,), (0, 1)]
    assert p.blocks[1].gates == (cx(0, 1), x(1), cx(0, 1))


def test_two_qubit_gate_completes_overlapping_blocks():
    c = Circuit(3, (cx(0, 1), cx(1, 2), cx(0, 1)))
    p = form_blocks(c)
    assert [b.qubits for b in p.blocks] == [(0, 1), (1, 2), (0, 1)]
    # wire 1 sees its blocks in ascending order_index
    orders = [b.order_index for b in p.blocks if 1 in b.qubits]
    assert orders == sorted(orders)


def test_lone_1q_gates_form_single_wire_block():
    p = form_blocks(Circuit(2, (rz(0.1, 0), sx(0))))
    assert [b.qubits for b in p.blocks] == [(0,)]
    assert block_unitary(p.blocks[0]).shape == (2, 2)


def test_block_unitary_matches_local_circuit():
    c = Circuit(3, (cx(2, 1), rx(0.7, 1), sx(2)))
    p = form_blocks(c)
    b = p.blocks[0]
    assert b.qubits == (1, 2)
    # local wire 0 = qubit 1, local wire 1 = qubit 2
    assert to_local_circuit(b) == Circuit(2, (cx(1, 0), rx(0.7, 0), sx(1)))
    assert np.allclose(block_unitary(b), circuit_unitary(to_local_circuit(b)))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_block_bits_pinned(p):
    # the stacked unitaries of whole chunks, as synthesis builds them, and of
    # each block alone, against two gate-by-gate products
    for start in range(0, p.num_blocks, SYNTH_CHUNK):
        chunk = p.take(slice(start, start + SYNTH_CHUNK))
        stacks = block_unitaries(chunk)
        for w, stack in stacks.items():
            members = [b for b in chunk.blocks if len(b.qubits) == w]
            assert stack.shape == (len(members), 2**w, 2**w)
            for b, got in zip(members, stack):
                want = tensordot_circuit_unitary(to_local_circuit(b))
                assert np.array_equal(_bits(got), _bits(want))
                assert np.array_equal(_bits(got), _bits(per_gate_block_unitary(b)))
                assert np.array_equal(_bits(block_unitary(b)), _bits(want))


@given(circuits(max_qubits=4, max_gates=30))
def test_block_unitary_bits_match_tensordot_product(c):
    # block_unitary feeds KAK, so its bits fix the emitted QASM angles
    _assert_block_bits_pinned(form_blocks(c))


@pytest.mark.parametrize("c", [gen_qft(5), gen_adder(5)], ids=["qft5", "add5"])
def test_block_unitary_bits_pinned_on_rx_injected_blocks(c):
    x_circ, _key = inject_x_end(c, 4)
    p, _record = inject_rx_pairs(form_blocks(x_circ), 5)
    _assert_block_bits_pinned(p)


def test_block_unitary_bits_pinned_across_chunks():
    # 658 RX-injected blocks: three chunks of mixed widths and many structures
    x_circ, _key = inject_x_end(gen_random_blocks(128, 300, 1), 3)
    p, _record = inject_rx_pairs(form_blocks(x_circ), 3)
    assert len(p.blocks) > 2 * SYNTH_CHUNK
    _assert_block_bits_pinned(p)


def test_block_unitaries_of_no_blocks():
    p = partition_of_blocks([])
    stacks = block_unitaries(p)
    assert {w: s.shape for w, s in stacks.items()} == {1: (0, 2, 2), 2: (0, 4, 4)}
    assert row_keys(p.local_wire, p.bounds, p.width) == []
    assert block_structures(p) == []


def test_reassemble_identity_reproduces_original():
    c = Circuit(3, (sx(0), cx(0, 1), rz(0.2, 1), cx(1, 2), x(2)))
    p = form_blocks(c)
    out = reassemble(p, *fragment_set(b.gates for b in p.blocks))
    assert out == c


def test_reassemble_substitutes_fragment():
    c = Circuit(3, (cx(1, 2),))
    p = form_blocks(c)
    frag = (rz(1.0, 1), cx(2, 1), rz(-1.0, 1))
    out = reassemble(p, *fragment_set([frag]))
    # the fragment's gates, placed as they are; out is built from columns
    assert "gates" not in vars(out)
    assert out.gates == frag
    assert out.num_qubits == 3 and out.measured_qubits == c.measured_qubits


# blocks A = (0, 1) on slots 0, 2, 4 and B = (2,) on slots 1, 3
SPREAD_CIRCUIT = Circuit(3, (cx(0, 1), sx(2), rz(0.1, 0), x(2), sx(1)))


@pytest.mark.parametrize(
    "m_a, m_b, order",
    [
        # A: m = 5 > ell = 3 takes gates 0 | 1 2 | 3 4; B: m = 1 < ell = 2 takes - | 0
        (5, 1, ["a0", "a1", "a2", "b0", "a3", "a4"]),
        # A: m = 2 < ell takes - | 0 | 1; B: m = 3 > ell takes 0 | 1 2
        (2, 3, ["b0", "a0", "b1", "b2", "a1"]),
        # A: m = 0 leaves every slot empty; B: m = ell takes one gate per slot
        (0, 2, ["b0", "b1"]),
        # A: m = 4 > ell takes 0 | 1 | 2 3; B: m = 0
        (4, 0, ["a0", "a1", "a2", "a3"]),
    ],
)
def test_reassemble_spreads_each_fragment_over_its_slots(m_a, m_b, order):
    p = form_blocks(SPREAD_CIRCUIT)
    assert [b.qubits for b in p.blocks] == [(0, 1), (2,)] and p.slots == ((0, 2, 4), (1, 3))
    # distinct angles name each fragment gate: a<i> on qubit 0, b<i> on qubit 2
    names = {f"a{i}": rz(0.5 + i, 0) for i in range(m_a)}
    names.update({f"b{i}": rz(-0.5 - i, 2) for i in range(m_b)})
    frags = {
        0: tuple(names[f"a{i}"] for i in range(m_a)),
        1: tuple(names[f"b{i}"] for i in range(m_b)),
    }
    assert reassemble(p, *fragment_set(frags.values())).gates == tuple(names[n] for n in order)


# blocks A = (0, 1) on slots 0, 2; B = (2,) on 1; C = (1, 2) on 3, 5; D = (0,) on 4.
# RX injection appends the halves of A -> D (wire 0) and A -> C (wire 1) to A
# and of B -> C (wire 2) to B, and prepends the other halves to C and D.
RX_SPREAD_CIRCUIT = Circuit(3, (cx(0, 1), sx(2), rz(0.1, 0), cx(1, 2), sx(0), x(2)))


def test_reassemble_spreads_fragments_over_shared_rx_slots():
    p, record = inject_rx_pairs(form_blocks(RX_SPREAD_CIRCUIT), seed=7)
    assert [(r.wire, r.boundary) for r in record] == [(0, 0), (1, 0), (2, 1)]
    assert [b.qubits for b in p.blocks] == [(0, 1), (2,), (1, 2), (0,)]
    assert p.slots == ((0, 2, 2, 2), (1, 1), (3, 3, 3, 5), (4, 4))
    # A: m = 6 > ell = 4 takes 0 | 1 2 | 3 | 4 5; B: m = 1 < ell = 2 takes - | 0;
    # C: m = 2 < ell = 4 takes - | 0 | - | 1; D: m = 3 > ell = 2 takes 0 | 1 2
    # distinct angles name each fragment gate, on a qubit of its block
    qubit_and_size = {"a": (0, 6), "b": (2, 1), "c": (1, 2), "d": (0, 3)}
    frags = {
        o: tuple(rz(10 * o + i, q) for i in range(m))
        for o, (q, m) in enumerate(qubit_and_size.values())
    }
    names = {f"{n}{i}": g for n, o in zip("abcd", frags) for i, g in enumerate(frags[o])}
    order = ["a0", "b0", "a1", "a2", "a3", "a4", "a5", "c0", "d0", "d1", "d2", "c1"]
    assert reassemble(p, *fragment_set(frags.values())).gates == tuple(names[n] for n in order)


# A partition's slot column is aligned with its rows, so reassemble cannot be
# given misaligned or slotless blocks: the public constructor rejects them.
def test_reassemble_rejects_slots_not_aligned_with_blocks():
    p = form_blocks(SPREAD_CIRCUIT)
    with pytest.raises(ValueError):
        BlockPartition(p.num_qubits, p.blocks, p.slots[:-1], p.measured_qubits)
    with pytest.raises(ValueError, match="^block 1 has 1 slots for 2 gates$"):
        replace(p, slots=(p.slots[0], p.slots[1][:-1]))


def test_reassemble_rejects_a_block_without_slots():
    p = form_blocks(SPREAD_CIRCUIT)
    empty = Block((2,), (), 1)
    with pytest.raises(ValueError, match="block 1 has no slot"):
        BlockPartition(p.num_qubits, (p.blocks[0], empty), (p.slots[0], ()), p.measured_qubits)


# The public constructor checks the rules a circuit of its gates would: a
# gate or measured qubit off the width is no partition, and certify reads
# the blocks in order-index order, so the indices must increase.
def test_partition_rejects_a_gate_off_its_width():
    with pytest.raises(ValueError, match=r"acts outside qubits 0\.\.1"):
        BlockPartition(2, [Block((0, 5), [cx(0, 5)], 0)], [(0,)])


@pytest.mark.parametrize(
    "measured, message", [((7, 7), "duplicate measured qubit"), ((2,), "out of range")]
)
def test_partition_rejects_bad_measured_qubits(measured, message):
    with pytest.raises(ValueError, match=message):
        BlockPartition(2, [Block((0, 1), [cx(0, 1)], 0)], [(0,)], measured)


def test_partition_rejects_order_indices_that_do_not_increase():
    blocks = [Block((0,), [sx(0)], 3), Block((1,), [sx(1)], 1)]
    with pytest.raises(ValueError, match=r"order indices \[3, 1\] do not increase"):
        BlockPartition(2, blocks, [(0,), (1,)])
    with pytest.raises(ValueError, match="do not increase"):
        BlockPartition(2, [blocks[1], blocks[1]], [(0,), (1,)])


@pytest.mark.parametrize(
    "idx",
    [
        slice(0, 6, 2),
        slice(-2, None),
        slice(None, 3),
        slice(4, 9),
        [5, 0, 12],
        np.arange(13) % 3 == 0,
    ],
    ids=["step", "negative_start", "no_start", "range", "positions", "mask"],
)
def test_take_gathers_the_blocks_at_any_index(idx):
    # the blocks at the same positions of every per-block and per-row column
    p = form_blocks(gen_qft(4))
    assert p.num_blocks == 13
    got, pos = p.take(idx), np.arange(p.num_blocks)[idx]
    sizes = np.diff(p.bounds)[pos]
    rows = np.concatenate([np.arange(p.bounds[i], p.bounds[i + 1]) for i in pos])
    assert np.array_equal(got.bounds, np.concatenate(([0], np.cumsum(sizes))))
    for a, b in zip(got.rows, p.rows):
        assert np.array_equal(a, b[rows], equal_nan=True)
    for name in ("lo", "hi", "order"):
        assert np.array_equal(getattr(got, name), getattr(p, name)[pos])
    assert np.array_equal(got.slot, p.slot[rows])


@given(circuits(max_qubits=5, max_gates=25))
def test_partition_invariants(c):
    p = form_blocks(c)
    assert len(p.slots) == len(p.blocks)
    for b, s in zip(p.blocks, p.slots):
        assert len(s) == len(b.gates)
        assert all(g == c.gates[i] for g, i in zip(b.gates, s))
    # every source gate stands at exactly one block gate
    assert sorted(i for s in p.slots for i in s) == list(range(c.num_gates))
    per_wire: dict[int, list[int]] = {}
    for b in p.blocks:
        for q in b.qubits:
            per_wire.setdefault(q, []).append(b.order_index)
    for orders in per_wire.values():
        assert orders == sorted(orders)


@given(circuits(max_qubits=5, max_gates=25))
def test_boundaries_follow_the_block_walk_in_order(c):
    p = form_blocks(c)
    earlier, later, wire = p.boundaries()
    got = zip(wire.tolist(), p.order[earlier].tolist(), p.order[later].tolist())
    assert list(got) == block_boundaries(p)


@given(circuits(max_qubits=5, max_gates=25))
def test_partition_constructor_gives_back_the_columns(c):
    # built from a partition's own Block views and slot tuples, the public
    # constructor gives the same columns, of the same dtypes
    for p in (form_blocks(c), inject_rx_pairs(form_blocks(c), 5)[0]):
        q = BlockPartition(p.num_qubits, p.blocks, p.slots, p.measured_qubits)
        assert q == p
        got = (*q.rows, q.bounds, q.lo, q.hi, q.order, q.slot)
        want = (*p.rows, p.bounds, p.lo, p.hi, p.order, p.slot)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


@given(circuits(max_qubits=5, max_gates=25))
def test_reassemble_identity_property(c):
    p = form_blocks(c)
    assert reassemble(p, *fragment_set(b.gates for b in p.blocks)) == c


@given(circuits(max_qubits=4, max_gates=16))
@settings(max_examples=50)
def test_equivalent_fragments_preserve_circuit_unitary(c):
    # replace each block by its gates plus a cancelling rotation pair
    p = form_blocks(c)
    reps = []
    for b in p.blocks:
        q = b.qubits[0]
        reps.append(b.gates + (rx(0.9, q), rx(-0.9, q)))
    out = reassemble(p, *fragment_set(reps))
    assert equal_up_to_global_phase(circuit_unitary(out), circuit_unitary(c), 1e-9)
