"""Each circuit is checked once, where it enters: parse_qasm checks a text line
by line, and Circuit(...) and Circuit.from_columns check what a caller builds.
The library's passes build their circuits with the unchecked
Circuit.from_rows, so each of them must only ever build circuits that the
public checks accept unchanged."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcloak.analysis import make_baseline
from qcloak.bench import build_qaoa_circuit, ring_problem, structural_benchmarks
from qcloak.obfuscate import inject_rx_pairs, inject_x_end
from qcloak.partition import form_blocks, reassemble
from qcloak.pipeline import PipelineConfig, encode
from qcloak.qasm import QasmError, parse_qasm, serialize_qasm
from qcloak.synthesis import generate_candidates, synthesize_blocks
from strategies import assert_checks_pass, blocks, circuits, qasm_edge_texts

SEEDS = st.integers(0, 2**32 - 1)


@given(qasm_edge_texts())
@settings(max_examples=300, deadline=None)
def test_every_text_the_parser_accepts_passes_the_public_checks(text):
    try:
        c = parse_qasm(text)
    except QasmError:
        return
    assert_checks_pass(c)
    assert parse_qasm(serialize_qasm(c)) == c


@given(circuits(max_qubits=5, max_gates=20, measure_all=False), SEEDS)
@settings(max_examples=60, deadline=None)
def test_inject_x_end_builds_checked_circuits(c, seed):
    out, _ = inject_x_end(c, seed)
    assert_checks_pass(out)


@given(circuits(max_qubits=4, max_gates=16, measure_all=False), SEEDS)
@settings(max_examples=40, deadline=None)
def test_reassembly_builds_checked_circuits(c, seed):
    p = form_blocks(c)
    assert_checks_pass(reassemble(p, *synthesize_blocks(p, 3, 2, seed)))
    rx_p, _ = inject_rx_pairs(p, seed)
    assert_checks_pass(reassemble(rx_p, *synthesize_blocks(rx_p, 3, 2, seed)))


@given(blocks(), st.sampled_from([1, 3]), SEEDS)
@settings(max_examples=40, deadline=None)
def test_candidates_are_checked_circuits(b, k, seed):
    for cand in generate_candidates(b, k, seed):
        assert_checks_pass(cand)


@given(
    st.integers(2, 6),
    st.integers(1, 2),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_qaoa_circuits_are_checked_circuits(n, layers, params):
    params = tuple(params[: 2 * layers])
    if not all(math.isfinite(2 * t) for t in params):
        # an angle 2 t would overflow: the problem itself is refused
        with pytest.raises(ValueError, match="non-finite angle"):
            ring_problem(n, layers, params)
        return
    assert_checks_pass(build_qaoa_circuit(ring_problem(n, layers, params)))


def test_random128_encode_and_baseline_are_checked_circuits():
    c = structural_benchmarks()["random128"]
    enc = encode(c, PipelineConfig(seed=3))
    for out in (enc.x_injected, enc.circuit, make_baseline(c)):
        assert_checks_pass(out)
