from dataclasses import replace

import pytest
from hypothesis import given, settings

import qcloak.pipeline
from qcloak import obfuscate, partition
from qcloak.analysis import make_baseline, tvd
from qcloak.bench import desk_benchmarks, gen_ghz, gen_random_blocks, gen_wstate
from qcloak.circuit import Circuit, Gate, GateKind, cx, gate_counts, rz, sx
from qcloak.obfuscate import decode
from qcloak.partition import Block, BlockPartition, form_blocks
from qcloak.pipeline import (
    EQUIV_CHECK_MAX_QUBITS,
    EncodeResult,
    PipelineConfig,
    SynthesisEquivalenceError,
    certify,
    encode,
)
from qcloak.simulator import ideal_distribution
from qcloak.synthesis import synthesize_block
from strategies import circuits, dense_equivalent


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(k=0)
    with pytest.raises(ValueError):
        PipelineConfig(shortlist=0)
    with pytest.raises(ValueError):
        PipelineConfig(k=2, shortlist=3)
    with pytest.raises(ValueError):
        PipelineConfig(rx_density=1.5)


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


def _shift_first_rz(c: Circuit) -> Circuit:
    gates = list(c.gates)
    i = next(i for i, g in enumerate(gates) if g.kind is GateKind.RZ)
    gates[i] = rz(gates[i].angle + 1e-6, gates[i].qubits[0])
    return Circuit(c.num_qubits, tuple(gates), c.measured_qubits)


def _drop_first_cx(c: Circuit) -> Circuit:
    gates = list(c.gates)
    del gates[next(i for i, g in enumerate(gates) if g.kind is GateKind.CX)]
    return Circuit(c.num_qubits, tuple(gates), c.measured_qubits)


def _swap_blocks(p: BlockPartition, frags: dict[int, Circuit]) -> Circuit:
    """The fragments concatenated in block order, except that the first block
    and the next block on its first wire change places."""
    blocks = sorted(p.blocks, key=lambda b: b.order_index)
    first = blocks[0]
    j = next(j for j, b in enumerate(blocks) if j > 0 and first.qubits[0] in b.qubits)
    blocks[0], blocks[j] = blocks[j], blocks[0]
    gates = [
        Gate(g.kind, tuple(b.qubits[w] for w in g.qubits), g.angle)
        for b in blocks
        for g in frags[b.order_index].gates
    ]
    return Circuit(p.num_qubits, tuple(gates), p.measured_qubits)


def _drop_fragment_gate(p: BlockPartition, frags: dict[int, Circuit]) -> Circuit:
    """Reassembly with the first gate of the longest fragment left out."""
    o = max(frags, key=lambda o: len(frags[o].gates))
    short = Circuit(frags[o].num_qubits, frags[o].gates[1:])
    return partition.reassemble(p, {**frags, o: short})


def _misplace_rx_half(x_circ, p, seed, density):
    """inject_rx_pairs, except that the RX(-theta) half of the first pair
    whose wire has two more blocks moves one block later on its wire."""
    _circ, record, rx_p = obfuscate.inject_rx_pairs(x_circ, p, seed, density)
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
    blocks = []
    for b in rx_p.blocks:
        gates = b.gates
        if b.order_index == later:
            gates = tuple(g for g in gates if g != half)
        elif b.order_index == after:
            gates = (half, *gates)
        blocks.append(Block(b.qubits, gates, b.order_index))
    moved = replace(rx_p, blocks=tuple(blocks))
    return partition.reassemble(moved, {}), record, moved


def _install(monkeypatch, mutant: str) -> list[Circuit]:
    """Install one mutant of encode's inputs to the whole-circuit checks;
    the returned list receives every output circuit encode builds."""
    output_mutants = {
        "shifted_rz": lambda p, frags: _shift_first_rz(partition.reassemble(p, frags)),
        "dropped_cx": lambda p, frags: _drop_first_cx(partition.reassemble(p, frags)),
        "swapped_blocks": _swap_blocks,
        "dropped_fragment_gate": _drop_fragment_gate,
        "misplaced_rx_half": partition.reassemble,
    }
    outputs: list[Circuit] = []

    def reassemble(p, frags):
        outputs.append(output_mutants[mutant](p, frags))
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
    # the misplaced half, which the random-stimuli check cannot see: the
    # RX-injected circuit it compares against has the same misplaced half
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


def test_only_the_certificate_sees_a_misplaced_rx_half(monkeypatch):
    c, cfg = gen_random_blocks(8, 24, 5), PipelineConfig(seed=2)
    x_circ = encode(c, cfg).x_injected
    outputs = _install(monkeypatch, "misplaced_rx_half")
    monkeypatch.setattr(qcloak.pipeline, "certify", lambda *inputs: None)
    encode(c, cfg)  # the stimuli check alone passes it
    assert not dense_equivalent(outputs[0], x_circ)


def test_stimuli_check_rejects_a_wrong_fragment(monkeypatch):
    # a fragment that does not equal its block passes the certificate, which
    # trusts synthesis' own per-candidate check; the stimuli check catches it
    real = qcloak.pipeline.synthesize_blocks
    calls = []

    def wrong(blocks, k, shortlist, seed):
        frags = real(blocks, k, shortlist, seed)
        calls.append(len(blocks))
        two = {b.order_index for b in blocks if len(b.qubits) == 2}
        return {o: _shift_first_rz(f) if o in two else f for o, f in frags.items()}

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
    certify(c, p, p, (), {}, c)
    with pytest.raises(SynthesisEquivalenceError):
        certify(c, p, p, (), {}, Circuit(n, (rz(0.5, 0),)))


def _certificate_inputs(c: Circuit, seed: int = 5) -> list:
    """certify's arguments for c taken as the X-injected circuit."""
    p = form_blocks(c)
    _rx_circ, record, rx_p = obfuscate.inject_rx_pairs(c, p, seed)
    frags = {b.order_index: synthesize_block(b, 3, 2, seed) for b in rx_p.blocks}
    return [c, p, rx_p, record, frags, partition.reassemble(rx_p, frags)]


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
    with pytest.raises(SynthesisEquivalenceError, match="X-injected partition"):
        certify(swapped, *inputs[1:])
    out = inputs[-1]
    with pytest.raises(SynthesisEquivalenceError, match="unmatched gates"):
        certify(*inputs[:-1], replace(out, gates=out.gates[:-1]))
