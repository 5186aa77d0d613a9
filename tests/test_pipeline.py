import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import qcloak.pipeline
from qcloak import obfuscate, partition
from qcloak.analysis import compare, make_baseline, tvd
from qcloak.bench import (
    build_qaoa_circuit,
    desk_benchmarks,
    gen_ghz,
    gen_random_blocks,
    gen_wstate,
    ring_problem,
    structural_benchmarks,
)
from qcloak.circuit import Circuit, CircuitColumns, Gate, GateKind, cx, gate_counts, rz, sx
from qcloak.obfuscate import THETA_MARGIN, decode
from qcloak.partition import Block, BlockPartition, form_blocks
from qcloak.pipeline import (
    EQUIV_CHECK_MAX_QUBITS,
    EncodeResult,
    PipelineConfig,
    SynthesisEquivalenceError,
    certify,
    encode,
    whole_circuit_check,
)
from qcloak.qasm import parse_qasm, serialize_qasm
from qcloak.simulator import ideal_distribution, run_statevector, sample
from qcloak.synthesis import synthesize_block, synthesize_blocks
from strategies import (
    block_boundaries,
    circuits,
    dense_equivalent,
    fragment_set,
    fragments_by_order,
)


def test_encode_result_structure():
    c = gen_ghz(4)
    enc = encode(c, PipelineConfig(seed=3))
    assert isinstance(enc, EncodeResult)
    assert len(enc.key.flip_mask) == 4
    assert enc.circuit.num_qubits == 4
    assert enc.circuit.measured_qubits == c.measured_qubits
    flips = enc.key.flip_mask.count("1")
    assert gate_counts(enc.x_injected).total == gate_counts(c).total + flips
    extra = enc.x_injected.gates[len(c.gates):]
    assert all(g.kind is GateKind.X for g in extra)


def test_encode_deterministic():
    c = gen_wstate(4)
    a = encode(c, PipelineConfig(seed=9))
    b = encode(c, PipelineConfig(seed=9))
    assert a.circuit == b.circuit and a.key == b.key
    other = encode(c, PipelineConfig(seed=10))
    assert other.key != a.key or other.circuit != a.circuit


def test_key_holder_recovers_baseline_exactly():
    c = gen_ghz(4)
    cfg = PipelineConfig(seed=3)
    enc = encode(c, cfg)
    base = ideal_distribution(make_baseline(c))
    corrected = decode(ideal_distribution(enc.circuit), enc.key)
    assert tvd(corrected, base) < 1e-9


@given(circuits(max_qubits=4, max_gates=10))
@settings(max_examples=20, deadline=None)
def test_decode_recovers_on_random_circuits(c):
    cfg = PipelineConfig(seed=7)
    enc = encode(c, cfg)
    base = ideal_distribution(make_baseline(c))
    measured = tuple(sorted(c.measured_qubits)) or tuple(range(c.num_qubits))
    corrected = decode(ideal_distribution(enc.circuit), enc.key.restricted(measured))
    assert tvd(corrected, base) < 1e-9


@given(circuits(max_qubits=4, max_gates=10))
@settings(max_examples=20, deadline=None)
def test_encoded_cx_count_matches_baseline(c):
    enc = encode(c, PipelineConfig(seed=7))
    assert gate_counts(enc.circuit).cx == gate_counts(make_baseline(c)).cx


def _shifted_first_rz(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    gates = list(gates)
    i = next(i for i, g in enumerate(gates) if g.kind is GateKind.RZ)
    gates[i] = rz(gates[i].angle + 1e-6, gates[i].qubits[0])
    return tuple(gates)


def _shift_first_rz(c: Circuit) -> Circuit:
    return Circuit(c.num_qubits, _shifted_first_rz(c.gates), c.measured_qubits)


def _drop_first_cx(c: Circuit) -> Circuit:
    gates = list(c.gates)
    del gates[next(i for i, g in enumerate(gates) if g.kind is GateKind.CX)]
    return Circuit(c.num_qubits, tuple(gates), c.measured_qubits)


def _swap_blocks(p: BlockPartition, rows, bounds) -> Circuit:
    """The fragments concatenated in block order, except that the first block
    and the next block on its first wire change places."""
    frags = fragments_by_order(p, rows, bounds)
    blocks = sorted(p.blocks, key=lambda b: b.order_index)
    first = blocks[0]
    j = next(j for j, b in enumerate(blocks) if j > 0 and first.qubits[0] in b.qubits)
    blocks[0], blocks[j] = blocks[j], blocks[0]
    gates = [g for b in blocks for g in frags[b.order_index]]
    return Circuit(p.num_qubits, tuple(gates), p.measured_qubits)


def _drop_fragment_gate(p: BlockPartition, rows, bounds) -> Circuit:
    """Reassembly with the first gate of the longest fragment left out."""
    frags = fragments_by_order(p, rows, bounds)
    o = max(frags, key=lambda o: len(frags[o]))
    return partition.reassemble(p, *fragment_set({**frags, o: frags[o][1:]}.values()))


def _misplace_rx_half(p, seed):
    """inject_rx_pairs, except that the RX(-theta) half of the first pair
    whose wire has two more blocks moves one block later on its wire, to
    that block's first slot."""
    rx_p, record = obfuscate.inject_rx_pairs(p, seed)
    on_wire: dict[int, list[int]] = {}
    for b in rx_p.blocks:
        for q in b.qubits:
            on_wire.setdefault(q, []).append(b.order_index)
    for pair in record:
        orders = on_wire[pair.wire]
        k = orders.index(pair.boundary)
        if k + 2 < len(orders):
            later, after = orders[k + 1], orders[k + 2]
            break
    half = Gate(GateKind.RX, (pair.wire,), -pair.theta)
    blocks, slots = [], []
    for b, s in zip(rx_p.blocks, rx_p.slots):
        gates = b.gates
        if b.order_index == later:
            kept = [i for i, g in enumerate(gates) if g != half]
            gates, s = tuple(gates[i] for i in kept), tuple(s[i] for i in kept)
        elif b.order_index == after:
            gates, s = (half, *gates), (s[0], *s)
        blocks.append(Block(b.qubits, gates, b.order_index))
        slots.append(s)
    return replace(rx_p, blocks=tuple(blocks), slots=tuple(slots)), record


def _install(monkeypatch, mutant: str) -> list[Circuit]:
    """Install one mutant of encode's inputs to the whole-circuit checks;
    the returned list receives every output circuit encode builds."""
    output_mutants = {
        "shifted_rz": lambda p, *frags: _shift_first_rz(partition.reassemble(p, *frags)),
        "dropped_cx": lambda p, *frags: _drop_first_cx(partition.reassemble(p, *frags)),
        "swapped_blocks": _swap_blocks,
        "dropped_fragment_gate": _drop_fragment_gate,
        "misplaced_rx_half": partition.reassemble,
    }
    outputs: list[Circuit] = []

    def reassemble(p, rows, bounds):
        outputs.append(output_mutants[mutant](p, rows, bounds))
        return outputs[-1]

    monkeypatch.setattr(qcloak.pipeline, "reassemble", reassemble)
    if mutant == "misplaced_rx_half":
        monkeypatch.setattr(qcloak.pipeline, "inject_rx_pairs", _misplace_rx_half)
    return outputs


MUTANTS = [
    "shifted_rz", "dropped_cx", "swapped_blocks", "dropped_fragment_gate", "misplaced_rx_half"
]
MUTANT_WIDTHS = [8, 12, 16]


@pytest.mark.parametrize("n", MUTANT_WIDTHS)
@pytest.mark.parametrize("mutant", MUTANTS[:2])
def test_whole_circuit_check_rejects_mutated_output(monkeypatch, mutant, n):
    _install(monkeypatch, mutant)
    with pytest.raises(SynthesisEquivalenceError):
        encode(gen_random_blocks(n, 24, 5), PipelineConfig(seed=2))


@pytest.mark.parametrize("n", MUTANT_WIDTHS)
@pytest.mark.parametrize("mutant", MUTANTS[2:])
def test_certificate_rejects_mutants(monkeypatch, mutant, n):
    # the certificate runs first, so it is what rejects each mutant, also
    # the misplaced half, which the random-stimuli check would reject too
    # (test_stimuli_check_sees_a_misplaced_rx_half)
    _install(monkeypatch, mutant)
    with pytest.raises(SynthesisEquivalenceError, match="^certificate: "):
        encode(gen_random_blocks(n, 24, 5), PipelineConfig(seed=2))


@pytest.mark.parametrize("mutant", MUTANTS)
def test_dense_oracle_rejects_every_mutant(monkeypatch, mutant):
    c, cfg = gen_random_blocks(8, 24, 5), PipelineConfig(seed=2)
    x_circ = encode(c, cfg).x_injected
    outputs = _install(monkeypatch, mutant)
    with pytest.raises(SynthesisEquivalenceError):
        encode(c, cfg)
    assert len(outputs) == 1
    assert not dense_equivalent(outputs[0], x_circ)


def test_stimuli_check_sees_a_misplaced_rx_half(monkeypatch):
    # the stimuli check compares against the X-injected circuit, so it
    # covers the RX injection end to end without the certificate
    c, cfg = gen_random_blocks(8, 24, 5), PipelineConfig(seed=2)
    x_circ = encode(c, cfg).x_injected
    outputs = _install(monkeypatch, "misplaced_rx_half")
    monkeypatch.setattr(qcloak.pipeline, "certify", lambda *inputs: None)
    with pytest.raises(SynthesisEquivalenceError, match="random stimuli"):
        encode(c, cfg)
    assert len(outputs) == 1
    assert not dense_equivalent(outputs[0], x_circ)


def test_stimuli_check_rejects_a_wrong_fragment(monkeypatch):
    # a fragment that does not equal its block passes the certificate, which
    # trusts synthesis' own per-candidate check; the stimuli check catches it
    real = qcloak.pipeline.synthesize_blocks
    calls = []

    def wrong(p, k, shortlist, seed):
        frags = fragments_by_order(p, *real(p, k, shortlist, seed))
        calls.append(p.num_blocks)
        two = {b.order_index for b in p.blocks if len(b.qubits) == 2}
        return fragment_set(_shifted_first_rz(f) if o in two else f for o, f in frags.items())

    monkeypatch.setattr(qcloak.pipeline, "synthesize_blocks", wrong)
    with pytest.raises(SynthesisEquivalenceError, match="random stimuli"):
        encode(gen_random_blocks(8, 24, 5), PipelineConfig(seed=2))
    assert len(calls) == 1  # encode synthesizes every block in one call


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize(
    "name",
    [name for name, c in desk_benchmarks().items() if c.num_qubits <= EQUIV_CHECK_MAX_QUBITS],
)
def test_desk_encodes_pass_the_dense_oracle(name, seed):
    # ghz12 is left out: its two dense unitaries take 256 MB each
    enc = encode(desk_benchmarks()[name], PipelineConfig(seed=seed))
    assert dense_equivalent(enc.circuit, enc.x_injected)


@pytest.mark.parametrize("name", list(desk_benchmarks()))
def test_every_block_boundary_gets_one_rx_pair(name):
    enc = encode(desk_benchmarks()[name], PipelineConfig(seed=3))
    boundaries = block_boundaries(form_blocks(enc.x_injected))
    pairs = enc.key.rx_record
    assert sorted((p.wire, p.boundary) for p in pairs) == [(w, a) for w, a, _b in boundaries]
    assert all(THETA_MARGIN <= p.theta <= 2 * math.pi - THETA_MARGIN for p in pairs)


@given(circuits(max_qubits=EQUIV_CHECK_MAX_QUBITS, max_gates=24))
@settings(max_examples=25, deadline=None)
def test_random_encodes_pass_the_dense_oracle(c):
    enc = encode(c, PipelineConfig(seed=5))
    assert dense_equivalent(enc.circuit, enc.x_injected)


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gate_free_circuit_encodes(n, seed):
    c = Circuit(n, (), tuple(range(n)))
    enc = encode(c, PipelineConfig(seed=seed))
    # only the key's X gates were synthesized, each alone in a one-wire block
    assert gate_counts(enc.circuit).cx == 0
    touched = {q for g in enc.circuit.gates for q in g.qubits}
    assert touched <= {q for q in range(n) if enc.key.flips(q)}


@pytest.mark.parametrize("n", [1, 16])
def test_certificate_accepts_an_empty_block_list(n):
    c = Circuit(n)
    p = form_blocks(c)
    assert p.blocks == ()
    certify(c, p, (), *fragment_set([]), c)
    with pytest.raises(SynthesisEquivalenceError):
        certify(c, p, (), *fragment_set([]), Circuit(n, (rz(0.5, 0),)))


def _certificate_inputs(c: Circuit, seed: int = 5) -> list:
    """certify's arguments for c taken as the X-injected circuit."""
    rx_p, record = obfuscate.inject_rx_pairs(form_blocks(c), seed)
    rows, bounds = fragment_set(synthesize_block(b, 3, 2, seed) for b in rx_p.blocks)
    return [c, rx_p, record, rows, bounds, partition.reassemble(rx_p, rows, bounds)]


def test_certificate_handles_idle_wires():
    # wires 0, 3 and 5 carry no gate and so lie in no block
    c = Circuit(6, (sx(1), cx(1, 2), rz(0.3, 4), cx(4, 2), sx(2)))
    inputs = _certificate_inputs(c)
    certify(*inputs)
    assert dense_equivalent(inputs[-1], c)
    for seed in range(4):
        enc = encode(c, PipelineConfig(seed=seed))
        assert dense_equivalent(enc.circuit, enc.x_injected)


def test_certificate_rejects_reordered_or_truncated_circuits():
    c = Circuit(3, (cx(0, 2), rz(0.3, 2), cx(1, 2)))
    inputs = _certificate_inputs(c)
    certify(*inputs)
    # the two CX share only their target wire, so the reordering keeps the
    # gate sequences of wires 0 and 1; only the CX identity on wire 2 differs
    swapped = Circuit(3, (cx(1, 2), rz(0.3, 2), cx(0, 2)))
    assert not dense_equivalent(swapped, c)
    with pytest.raises(SynthesisEquivalenceError, match="block cores"):
        certify(swapped, *inputs[1:])
    out = inputs[-1]
    with pytest.raises(SynthesisEquivalenceError, match="unmatched gates"):
        certify(*inputs[:-1], replace(out, gates=out.gates[:-1]))


def _edit_block(p: BlockPartition, order: int, edit) -> BlockPartition:
    """p with the gates of block `order` replaced by edit(gates), each at
    the block's first slot."""
    blocks, slots = [], []
    for b, s in zip(p.blocks, p.slots):
        if b.order_index == order:
            b = Block(b.qubits, edit(b.gates), b.order_index)
            s = s[:1] * len(b.gates)
        blocks.append(b)
        slots.append(s)
    return replace(p, blocks=tuple(blocks), slots=tuple(slots))


def _drop_recorded_half(p, record):
    pair = record[0]
    half = Gate(GateKind.RX, (pair.wire,), pair.theta)
    return _edit_block(p, pair.boundary, lambda gs: tuple(g for g in gs if g != half)), record


def _prepend_unrecorded_rx(p, record):
    b = p.blocks[-1]
    extra = Gate(GateKind.RX, b.qubits[:1], 0.7)
    return _edit_block(p, b.order_index, lambda gs: (extra, *gs)), record


def _shift_core_rz(p, record):
    b = next(b for b in p.blocks if any(g.kind is GateKind.RZ for g in b.gates))
    i = next(i for i, g in enumerate(b.gates) if g.kind is GateKind.RZ)

    def shift(gs):
        return (*gs[:i], rz(gs[i].angle + 1e-6, gs[i].qubits[0]), *gs[i + 1 :])

    return _edit_block(p, b.order_index, shift), record


def _unpaired_record(p, record):
    """An RX(theta) ending the last block on wire 0, recorded as a pair."""
    last = max(b.order_index for b in p.blocks if 0 in b.qubits)
    half = Gate(GateKind.RX, (0,), 0.7)
    pair = obfuscate.RxPair(0, last, 0.7)
    return _edit_block(p, last, lambda gs: (*gs, half)), (*record, pair)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_recorded_half, "block [0-9]+ does not start and end with exactly its RX halves"),
        (_prepend_unrecorded_rx, "block [0-9]+ does not start and end with exactly its RX halves"),
        (_shift_core_rz, "gate [0-9]+ differs from the block cores"),
        (_unpaired_record, "RX pair on wire 0 crosses no block boundary"),
    ],
    ids=["dropped_half", "unrecorded_rx", "shifted_core_rz", "unpaired_record"],
)
def test_certificate_rejects_tampered_rx_blocks(tamper, message):
    # the fragments and the output stay those of the untampered blocks, so
    # only the walk over the RX-injected blocks can see each change
    c, rx_p, record, rows, bounds, out = _certificate_inputs(gen_random_blocks(6, 16, 5))
    assert record
    certify(c, rx_p, record, rows, bounds, out)
    rx_p, record = tamper(rx_p, record)
    with pytest.raises(SynthesisEquivalenceError, match=f"^certificate: {message}$"):
        certify(c, rx_p, record, rows, bounds, out)


def test_certificate_rejects_blocks_out_of_order():
    # the halves and the wire walks read the blocks in partition order, so
    # that order must be the order of their indices
    c, rx_p, record, rows, bounds, out = _certificate_inputs(gen_random_blocks(6, 16, 5))
    certify(c, rx_p, record, rows, bounds, out)
    n = rx_p.num_blocks
    for order in ([1, 0, *range(2, n)], [0, *range(n - 1)]):
        # two blocks swapped; the first block twice, the last left out; the
        # public constructor rejects both, so they are taken unchecked
        other = rx_p.take(order)
        with pytest.raises(SynthesisEquivalenceError, match="^certificate: block order indices"):
            certify(c, other, record, rows, bounds, out)


def _gate_off_block(p: BlockPartition, rows, bounds, kind: GateKind) -> tuple[int, tuple]:
    """The order_index of the first block whose fragment has a `kind` gate,
    and the fragment set with that gate moved to a qubit outside the block:
    a one-qubit gate onto it, a CX's target onto it."""
    frags = fragments_by_order(p, rows, bounds)
    for b in sorted(p.blocks, key=lambda b: b.order_index):
        frag = frags[b.order_index]
        i = next((i for i, g in enumerate(frag) if g.kind is kind), None)
        if i is None:
            continue
        outside = next(q for q in range(p.num_qubits) if q not in b.qubits)
        g = frag[i]
        qubits = (outside,) if len(g.qubits) == 1 else (g.qubits[0], outside)
        moved = (*frag[:i], Gate(g.kind, qubits, g.angle), *frag[i + 1 :])
        return b.order_index, fragment_set({**frags, b.order_index: moved}.values())
    raise AssertionError(f"no fragment has a {kind.value} gate")


@pytest.mark.parametrize("kind", [GateKind.RZ, GateKind.CX], ids=["rz", "cx"])
def test_certificate_rejects_a_fragment_gate_outside_its_block(kind):
    # reassembled from the same fragments, the output matches them wire by
    # wire; only the block check sees the gate that left its block
    c, rx_p, record, rows, bounds, _out = _certificate_inputs(gen_random_blocks(6, 16, 5))
    o, moved = _gate_off_block(rx_p, rows, bounds, kind)
    out = partition.reassemble(rx_p, *moved)
    assert not dense_equivalent(out, c)
    message = f"^certificate: the fragment of block {o} acts outside its qubits$"
    with pytest.raises(SynthesisEquivalenceError, match=message):
        certify(c, rx_p, record, *moved, out)


def test_certificate_rejects_a_block_without_fragment():
    # a fragment set is aligned with the blocks: one left out, or one too
    # many, is rejected by reassemble and by the certificate
    c, rx_p, record, rows, bounds, out = _certificate_inputs(gen_random_blocks(6, 16, 5))
    frags = list(fragments_by_order(rx_p, rows, bounds).values())
    n = rx_p.num_blocks
    for other in (frags[1:], [*frags, ()]):
        other_rows, other_bounds = fragment_set(other)
        message = f"{len(other)} fragments for {n} blocks"
        with pytest.raises(ValueError, match=f"^{message}$"):
            partition.reassemble(rx_p, other_rows, other_bounds)
        with pytest.raises(SynthesisEquivalenceError, match=f"^certificate: {message}$"):
            certify(c, rx_p, record, other_rows, other_bounds, out)


def test_fragment_bounds_must_run_from_zero_to_the_row_count():
    # the partition's own rows plus one more, with bounds that leave it out
    # at either end: reassemble would drop the extra row, and certify would
    # fail inside numpy instead of naming the fault
    c = gen_random_blocks(6, 16, 5)
    p = form_blocks(c)
    n = len(p.rows.kind)
    longer = CircuitColumns(*(np.append(col, col[:1]) for col in p.rows))
    for bounds, ends in ((p.bounds, f"0..{n}"), (p.bounds + 1, f"1..{n + 1}")):
        message = re.escape(f"fragment bounds run {ends} over {n + 1} rows")
        with pytest.raises(ValueError, match=f"^{message}$"):
            partition.reassemble(p, longer, bounds)
        with pytest.raises(SynthesisEquivalenceError, match=f"^certificate: {message}$"):
            certify(c, p, (), longer, bounds, c)
    certify(c, p, (), p.rows, p.bounds, partition.reassemble(p, p.rows, p.bounds))


def test_empty_fragment_is_placed_and_certified():
    # cx cx is the identity, so its plain fragment is (): a fragment, not a
    # missing entry, for both reassemble and certify
    c = Circuit(2, (cx(0, 1), cx(0, 1)))
    p = form_blocks(c)
    rows, bounds = synthesize_blocks(p, 1, 1, 0)
    assert fragments_by_order(p, rows, bounds) == {0: ()}
    out = partition.reassemble(p, rows, bounds)
    assert out == Circuit(2, (), c.measured_qubits)
    assert make_baseline(c) == out
    certify(c, p, (), rows, bounds, out)


def _count_gates(monkeypatch) -> list:
    """The Gates built from now on, as Gate.__post_init__ sees them."""
    built = []
    real = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda g: built.append(g) or real(g))
    return built


def _count_blocks(monkeypatch) -> list:
    """The Blocks built from now on, through Block(...) or Block.from_rows."""
    built = []
    real_init, real_from_rows = Block.__init__, Block.from_rows

    def init(b, *args):
        built.append(args)
        real_init(b, *args)

    def from_rows(*args):
        built.append(args)
        return real_from_rows(*args)

    monkeypatch.setattr(Block, "__init__", init)
    monkeypatch.setattr(Block, "from_rows", from_rows)
    return built


def _count_checks(monkeypatch) -> dict:
    """Calls from now on of the public checks: Gate.__post_init__,
    Circuit.__init__ and Circuit.from_columns."""
    calls = dict.fromkeys(("Gate.__post_init__", "Circuit.__init__", "Circuit.from_columns"), 0)
    real_gate, real_init, real_from_columns = (
        Gate.__post_init__, Circuit.__init__, Circuit.from_columns.__func__
    )

    def gate(g):
        calls["Gate.__post_init__"] += 1
        real_gate(g)

    def init(c, *args):
        calls["Circuit.__init__"] += 1
        real_init(c, *args)

    def from_columns(cls, *args):
        calls["Circuit.from_columns"] += 1
        return real_from_columns(cls, *args)

    monkeypatch.setattr(Gate, "__post_init__", gate)
    monkeypatch.setattr(Circuit, "__init__", init)
    monkeypatch.setattr(Circuit, "from_columns", classmethod(from_columns))
    return calls


@pytest.mark.parametrize("name", ["add4", "random128"])
def test_each_circuit_is_checked_where_it_enters(monkeypatch, name):
    # parse_qasm checks the text line by line; every circuit the passes
    # build after it, from rows, runs no public check again
    c = {**desk_benchmarks(), **structural_benchmarks()}[name]
    text = serialize_qasm(c)
    calls = _count_checks(monkeypatch)
    parsed = parse_qasm(text)
    enc = encode(parsed, PipelineConfig(seed=3))
    baseline = make_baseline(parsed)
    report = compare(parsed, PipelineConfig(seed=3), structural_only=True)
    for out in (enc.circuit, enc.x_injected, baseline):
        serialize_qasm(out)
    assert report.cx_delta == 0
    assert calls == dict.fromkeys(calls, 0)
    # the counters see the checks: a public constructor runs them
    Circuit.from_columns(parsed.num_qubits, parsed.columns, parsed.measured_qubits)
    assert calls["Circuit.from_columns"] == calls["Circuit.__init__"] == 1
    assert calls["Gate.__post_init__"] == parsed.num_gates


def test_encode_and_baseline_build_no_gate_for_an_output_gate(monkeypatch):
    # the key's X gates and the RX halves are rows too: no pass builds a
    # Gate, and a partition's blocks are row ranges: none builds a Block
    c = structural_benchmarks()["random128"]
    built = _count_gates(monkeypatch)
    blocks = _count_blocks(monkeypatch)
    enc = encode(c, PipelineConfig(seed=3))
    baseline = make_baseline(c)
    assert built == [] and blocks == []
    # only reading .blocks builds them, once
    p = form_blocks(c)
    assert blocks == []
    assert p.blocks is p.blocks
    assert len(blocks) == p.num_blocks and built == []
    # reading .gates builds each output's Gates once
    for out in (enc.circuit, baseline):
        before = len(built)
        assert out.gates is out.gates
        assert len(built) - before == out.num_gates


def test_qaoa_encode_sample_and_serialize_build_no_gate(monkeypatch):
    # the stimuli check, the simulator and the serializer read columns
    c = build_qaoa_circuit(ring_problem(4, 1, (0.4, 0.9)))
    built = _count_gates(monkeypatch)
    blocks = _count_blocks(monkeypatch)
    enc = encode(c, PipelineConfig(seed=3))
    sample(enc.circuit, 256, 1)
    serialize_qasm(enc.circuit)
    assert whole_circuit_check(c.num_qubits) == "certificate+stimuli"
    assert built == [] and blocks == []


def test_parse_encode_simulate_and_serialize_build_no_gate(monkeypatch):
    text = serialize_qasm(desk_benchmarks()["add4"])
    built = _count_gates(monkeypatch)
    enc = encode(parse_qasm(text), PipelineConfig(seed=3))
    run_statevector(enc.circuit)
    serialize_qasm(enc.circuit)
    assert built == []
