import pytest
from hypothesis import given, settings

import qcloak.pipeline
from qcloak.analysis import make_baseline, tvd
from qcloak.bench import gen_ghz, gen_random_blocks, gen_wstate
from qcloak.circuit import Circuit, GateKind, gate_counts, rz
from qcloak.obfuscate import decode
from qcloak.pipeline import (
    EncodeResult,
    PipelineConfig,
    SynthesisEquivalenceError,
    encode,
)
from qcloak.simulator import ideal_distribution
from strategies import circuits


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(k=0)
    with pytest.raises(ValueError):
        PipelineConfig(shortlist=0)
    with pytest.raises(ValueError):
        PipelineConfig(k=2, shortlist=3)
    with pytest.raises(ValueError):
        PipelineConfig(rx_density=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(shots=0)
    with pytest.raises(ValueError):
        PipelineConfig(grid_min=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(grid_min=10.0, grid_max=1.0)
    with pytest.raises(ValueError):
        PipelineConfig(grid_points=1)


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


@pytest.mark.parametrize("mutate", [_shift_first_rz, _drop_first_cx])
def test_whole_circuit_check_rejects_mutated_output(monkeypatch, mutate):
    real = qcloak.pipeline.reassemble
    monkeypatch.setattr(
        qcloak.pipeline, "reassemble", lambda p, frags: mutate(real(p, frags))
    )
    with pytest.raises(SynthesisEquivalenceError):
        encode(gen_random_blocks(8, 24, 5), PipelineConfig(seed=2))
