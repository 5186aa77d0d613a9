import json

import numpy as np
import pytest
from hypothesis import given, settings

from qcloak.circuit import Circuit, GateKind, cx, rz, sx, x
from qcloak.distributions import Distribution
from qcloak.linalg import circuit_unitary
from qcloak.obfuscate import (
    THETA_MARGIN,
    ObfuscationKey,
    decode,
    inject_rx_pairs,
    inject_x_end,
    key_from_json,
    key_to_json,
)
from qcloak.partition import form_blocks, reassemble
from strategies import circuits, fragment_set


def test_inject_x_matches_mask():
    c = Circuit(4, (sx(0), cx(0, 1)))
    out, key = inject_x_end(c, seed=9)
    assert out.gates[: c.num_gates] == c.gates
    appended = out.gates[c.num_gates :]
    assert all(g.kind is GateKind.X for g in appended)
    flipped = sorted(g.qubits[0] for g in appended)
    assert flipped == [q for q in range(4) if key.flips(q)]
    assert len(key.flip_mask) == 4
    assert key.seed == 9
    # reproducible
    again, key2 = inject_x_end(c, seed=9)
    assert again == out and key2 == key


def test_key_bit_convention():
    key = ObfuscationKey("1101", seed=0)
    assert [key.flips(q) for q in range(4)] == [True, False, True, True]
    assert key.restricted((0, 2)).flip_mask == "11"
    assert key.restricted((1, 3)).flip_mask == "10"


@pytest.mark.parametrize("qubits", [(-1,), (0, 0), (3,), (2, 1, 2)])
def test_restricted_rejects_bad_qubits(qubits):
    # (-1,) would read qubit 2's flip through negative indexing, (0, 0) a
    # duplicated mask, and (3,) would raise IndexError
    with pytest.raises(ValueError, match="not distinct qubits of a 3-qubit key"):
        ObfuscationKey("100", 0).restricted(qubits)


def test_key_validation():
    with pytest.raises(ValueError):
        ObfuscationKey("10x1", seed=0)


def test_decode_xor_example():
    # mask 1101: 0111 -> 1010
    key = ObfuscationKey("1101", seed=0)
    d = Distribution(4, {"0111": 640, "0000": 384}, "counts")
    out = decode(d, key)
    assert out.outcomes == {"1010": 640, "1101": 384}
    assert out.kind == "counts"


def test_decode_involution_and_zero_key():
    key = ObfuscationKey("0110", seed=0)
    d = Distribution(4, {"0101": 0.5, "1111": 0.5})
    assert decode(decode(d, key), key) == d
    assert decode(d, ObfuscationKey("0000", seed=0)) == d


def test_decode_length_mismatch():
    with pytest.raises(ValueError):
        decode(Distribution(3, {"010": 1.0}), ObfuscationKey("01", seed=0))


def _assert_pairs_adjacent(out: Circuit, record) -> None:
    """On its wire, each pair's RX(theta) is immediately followed by RX(-theta)."""
    for r in record:
        on_wire = [g for g in out.gates if r.wire in g.qubits]
        assert any(
            a.kind is GateKind.RX and a.angle == r.theta
            and b.kind is GateKind.RX and b.angle == -r.theta
            for a, b in zip(on_wire, on_wire[1:])
        ), r


def test_rx_pairs_structure():
    c = Circuit(3, (sx(0), cx(0, 1), cx(1, 2), cx(0, 1)))
    p2, record = inject_rx_pairs(form_blocks(c), seed=11)
    out = reassemble(p2, p2.rows, p2.bounds)
    # blocks: (0,)[sx], (0,1)[cx], (1,2)[cx], (0,1)[cx]; four wire crossings
    assert len(record) == 4
    assert {(r.wire, r.boundary) for r in record} == {(0, 0), (0, 1), (1, 1), (1, 2)}
    for r in record:
        assert THETA_MARGIN <= r.theta <= 2 * np.pi - THETA_MARGIN
    assert out.num_gates == c.num_gates + 2 * len(record)
    # each pair is adjacent on its wire: net unitary is exactly unchanged
    assert np.allclose(circuit_unitary(out), circuit_unitary(c), atol=1e-12)


def test_rx_pairs_fold_into_blocks():
    c = Circuit(3, (sx(0), cx(0, 1), cx(1, 2), cx(0, 1)))
    p = form_blocks(c)
    p2, record = inject_rx_pairs(p, seed=11)
    out = reassemble(p2, p2.rows, p2.bounds)
    by_order = {b.order_index: b for b in p2.blocks}
    for r in record:
        earlier = by_order[r.boundary]
        assert earlier.gates[-1].kind is GateKind.RX or any(
            g.kind is GateKind.RX and g.angle == r.theta for g in earlier.gates
        )
    # each block keeps its source slots; a prepended half shares the block's
    # first slot and an appended half its last
    assert p.slots == ((0,), (1,), (2,), (3,))
    assert p2.slots == ((0, 0), (1, 1, 1, 1), (2, 2, 2), (3, 3, 3))
    for b, s in zip(p2.blocks, p2.slots):
        assert len(s) == len(b.gates)
    # identity reassembly of the folded partition reproduces the new circuit
    reps = fragment_set(b.gates for b in p2.blocks)
    assert reassemble(p2, *reps) == out
    _assert_pairs_adjacent(out, record)


def test_no_block_boundary_injects_nothing():
    # blocks (0,1)[cx, sx, rz, cx] and (2,)[x]: no wire crosses a boundary
    c = Circuit(3, (cx(0, 1), sx(0), rz(0.3, 1), cx(1, 0), x(2)))
    p2, record = inject_rx_pairs(form_blocks(c), seed=1)
    assert record == () and reassemble(p2, p2.rows, p2.bounds) == c


@given(circuits(max_qubits=4, max_gates=16))
@settings(max_examples=50)
def test_rx_pairs_preserve_unitary_exactly(c):
    p2, record = inject_rx_pairs(form_blocks(c), seed=5)
    out = reassemble(p2, p2.rows, p2.bounds)
    assert np.allclose(circuit_unitary(out), circuit_unitary(c), atol=1e-12)
    assert sum(len(b.gates) for b in p2.blocks) == out.num_gates
    p = form_blocks(c)
    for b, s, old in zip(p2.blocks, p2.slots, p.slots):
        assert len(s) == len(b.gates) and set(s) == set(old)
    reps = fragment_set(b.gates for b in p2.blocks)
    assert reassemble(p2, *reps) == out
    _assert_pairs_adjacent(out, record)


@given(circuits(max_qubits=5, max_gates=12))
@settings(max_examples=50)
def test_inject_x_then_decode_is_identity_on_strings(c):
    _, key = inject_x_end(c, seed=3)
    n = c.num_qubits
    d = Distribution(n, {format(5 % 2**n, f"0{n}b"): 1.0})
    assert decode(decode(d, key), key) == d


def test_key_json_round_trip():
    c = Circuit(3, (sx(0), cx(0, 1), cx(1, 2), cx(0, 1)))
    xed, key = inject_x_end(c, seed=2)
    _, record = inject_rx_pairs(form_blocks(xed), seed=4)
    key = ObfuscationKey(key.flip_mask, key.seed, record)
    back = key_from_json(key_to_json(key))
    assert back == key


def test_key_json_v2_records_measured_subset():
    c = Circuit(3, (cx(0, 1), cx(1, 2)), measured_qubits=(2, 0))
    _, key = inject_x_end(c, seed=2)
    assert key.measured_qubits == (0, 2)
    text = key_to_json(key)
    assert json.loads(text)["version"] == 2
    back = key_from_json(text)
    assert back == key and back.flip_mask == key.flip_mask
    assert back.measured() == key.restricted((0, 2))
    # a fully measured circuit keeps the version 1 key
    _, full = inject_x_end(Circuit(3, c.gates, (0, 1, 2)), seed=2)
    assert json.loads(key_to_json(full))["version"] == 1
    assert full.measured() == full.restricted((0, 1, 2))


@pytest.mark.parametrize("measured", [[2, 0], [0, 0], [0, 3]])
def test_key_json_v2_rejects_bad_measured_qubits(measured):
    _, key = inject_x_end(Circuit(3, (), (0, 2)), seed=2)
    payload = json.loads(key_to_json(key))
    payload["measured_qubits"] = measured
    with pytest.raises(ValueError):
        key_from_json(json.dumps(payload))


def test_key_json_version_checked():
    key = ObfuscationKey("01", seed=0)
    text = key_to_json(key).replace('"version": 1', '"version": 9')
    with pytest.raises(ValueError):
        key_from_json(text)
