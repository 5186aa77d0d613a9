import subprocess
import sys

import numpy as np
import pytest

from qcloak.bench import gen_qft, gen_random_blocks
from qcloak.circuit import Circuit, Gate, cx, rz, sx
from qcloak.dag import to_dag
from qcloak.netlsd import (
    PROBE_BLOCK,
    _draw_probe_block,
    _heat_traces_estimated,
    _normalized_laplacian_sparse,
    _probe_block_traces,
    _undirected_edges,
    _zero_mode_basis,
    circuit_signature,
    default_grid,
    netlsd_divergence,
    netlsd_signature,
)
from strategies import reorthogonalized_heat_traces, signature_to_csv


def test_default_grid_shape():
    g = default_grid()
    assert len(g) == 250
    assert np.isclose(g[0], 1e-2) and np.isclose(g[-1], 1e2)
    assert np.all(np.diff(np.log(g)) > 0)


def test_empty_circuit_closed_form():
    # each wire is a source-sink edge: normalized Laplacian eigenvalues {0, 2}
    sig = netlsd_signature(to_dag(Circuit(3)))
    want = 3 * (1 + np.exp(-2 * sig.timescales))
    assert np.allclose(sig.traces, want, atol=1e-10)


def test_single_gate_wire_is_path_graph():
    # source - gate - sink: path on 3 nodes, eigenvalues {0, 1, 2}
    sig = netlsd_signature(to_dag(Circuit(1, (sx(0),))))
    t = sig.timescales
    want = 1 + np.exp(-t) + np.exp(-2 * t)
    assert np.allclose(sig.traces, want, atol=1e-10)


def test_gate_chain_matches_path_eigenvalues():
    m = 6
    c = Circuit(1, tuple(rz(0.1 * (i + 1), 0) for i in range(m)))
    sig = netlsd_signature(to_dag(c))
    n_nodes = m + 2
    lam = 1 - np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))
    want = np.exp(-np.outer(sig.timescales, lam)).sum(axis=1)
    assert np.allclose(sig.traces, want, atol=1e-10)


@pytest.mark.parametrize("kwargs", [{"probes": 0}, {"probes": -3}, {"steps": 0}])
def test_estimator_rejects_nonpositive_probes_or_steps(kwargs):
    with pytest.raises(ValueError, match="probes >= 1 and steps >= 1"):
        netlsd_signature(to_dag(gen_qft(3)), force_estimate=True, **kwargs)


def test_traces_decrease_to_component_count():
    c = Circuit(2, (cx(0, 1), sx(0)))
    sig = netlsd_signature(to_dag(c))
    assert np.all(np.diff(sig.traces) <= 1e-12)
    assert sig.traces[0] <= to_dag(c).num_nodes
    # connected graph: h(t) -> 1
    assert abs(sig.traces[-1] - 1) < 0.2


def test_estimated_matches_dense():
    dag = to_dag(gen_qft(4))
    dense = netlsd_signature(dag)
    est = netlsd_signature(dag, force_estimate=True)
    rel = np.abs(est.traces - dense.traces) / dense.traces
    assert rel.max() < 0.05
    assert np.linalg.norm(est.traces - dense.traces) < 0.01 * np.linalg.norm(dense.traces)


def test_estimated_component_count_exact_at_large_t():
    # three disconnected wires; the zero eigenspace is deflated exactly
    est = netlsd_signature(to_dag(Circuit(3)), force_estimate=True)
    assert abs(est.traces[-1] - 3) < 1e-3


def test_estimation_deterministic():
    dag = to_dag(gen_qft(3))
    a = netlsd_signature(dag, force_estimate=True)
    b = netlsd_signature(dag, force_estimate=True)
    assert np.array_equal(a.traces, b.traces)


def _bridged_halves() -> Circuit:
    """Two random 16-qubit halves joined by a single CX."""
    a = gen_random_blocks(16, 30, seed=1)
    b = gen_random_blocks(16, 30, seed=2)
    shifted = tuple(Gate(g.kind, tuple(q + 16 for q in g.qubits), g.angle) for g in b.gates)
    return Circuit(32, a.gates + shifted + (cx(15, 16),))


ORACLE_PROBES = 37  # not a multiple of the block width: the last block is short


@pytest.mark.parametrize(
    "circuit",
    [
        # 2 nodes, one Lanczos step: 17 of the 37 probes deflate to zero
        pytest.param(Circuit(1), id="circuit1"),
        # three 2-node components: every kept probe breaks down after one step
        pytest.param(Circuit(3), id="circuit3"),
        pytest.param(gen_qft(3), id="qft3"),
        pytest.param(gen_qft(4), id="qft4"),
        pytest.param(_bridged_halves(), id="bridged_random16"),
    ],
)
def test_estimated_matches_reorthogonalized_oracle(circuit):
    assert ORACLE_PROBES % PROBE_BLOCK
    dag = to_dag(circuit)
    grid = default_grid()
    est = netlsd_signature(dag, grid, probes=ORACLE_PROBES, force_estimate=True)
    want = reorthogonalized_heat_traces(
        dag.num_nodes, _undirected_edges(dag), grid, ORACLE_PROBES, 60, 11
    )
    np.testing.assert_allclose(est.traces, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize(
    "circuit",
    [
        pytest.param(_bridged_halves(), id="bridged_random16"),
        # deflated probes, then breakdowns, inside the pool
        pytest.param(Circuit(1), id="circuit1"),
        pytest.param(Circuit(3), id="circuit3"),
    ],
)
def test_pool_matches_sequential_block_loop(circuit):
    # the pool must sum each block's rows in draw order, then column order
    dag = to_dag(circuit)
    n, edges, grid = dag.num_nodes, _undirected_edges(dag), default_grid()
    lap, deg = _normalized_laplacian_sparse(n, edges)
    basis = _zero_mode_basis(n, edges, deg)
    m = min(60, n - 1)
    rng = np.random.default_rng(11)
    acc = np.zeros(len(grid))
    for start in range(0, ORACLE_PROBES, PROBE_BLOCK):
        v = _draw_probe_block(rng, min(PROBE_BLOCK, ORACLE_PROBES - start), n)
        for row in _probe_block_traces(lap, basis, grid, m, v):
            acc += row
    want = basis.shape[1] + acc / ORACLE_PROBES
    got = _heat_traces_estimated(n, edges, grid, ORACLE_PROBES, 60, 11)
    assert np.array_equal(got, want)


def test_pooled_estimate_repeatable():
    dag = to_dag(_bridged_halves())
    probes = 5 * PROBE_BLOCK
    first = netlsd_signature(dag, probes=probes, force_estimate=True)
    for _ in range(2):
        again = netlsd_signature(dag, probes=probes, force_estimate=True)
        assert np.array_equal(again.traces, first.traces)


def test_estimate_leaves_no_threads():
    # a fresh interpreter, so a pool kept from an earlier call cannot hide
    code = """
import threading
from qcloak.bench import gen_random_blocks
from qcloak.dag import to_dag
from qcloak.netlsd import PROBE_BLOCK, netlsd_signature
dag = to_dag(gen_random_blocks(8, 40, seed=1))
before = threading.active_count()
netlsd_signature(dag, probes=4 * PROBE_BLOCK, force_estimate=True)
print(before, threading.active_count())
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = map(int, out.stdout.split())
    assert after == before


def test_divergence_zero_on_self_and_symmetric():
    a = gen_qft(3)
    b = Circuit(3, (cx(0, 1), cx(1, 2), sx(0)))
    assert netlsd_divergence(a, a) == 0.0
    assert np.isclose(netlsd_divergence(a, b), netlsd_divergence(b, a))
    assert netlsd_divergence(a, b) > 0


def test_divergence_accepts_precomputed_signatures():
    a = gen_qft(3)
    b = Circuit(3, (cx(0, 1), cx(1, 2), sx(0)))
    grid = default_grid(points=40)
    want = netlsd_divergence(a, b, grid)
    sig_a, sig_b = circuit_signature(a, grid), circuit_signature(b, grid)
    assert netlsd_divergence(a, sig_b, grid) == want
    assert netlsd_divergence(sig_a, b, grid) == want
    assert netlsd_divergence(sig_a, sig_b) == want
    with pytest.raises(ValueError):
        netlsd_divergence(a, sig_b)


def test_signature_csv_format():
    sig = netlsd_signature(to_dag(Circuit(1, (sx(0),))), grid=np.array([1.0, 10.0]))
    lines = signature_to_csv(sig).strip().split("\n")
    assert lines[0] == "t,h"
    assert len(lines) == 3
    t0, h0 = lines[1].split(",")
    assert float(t0) == 1.0 and abs(float(h0) - (1 + np.e**-1 + np.e**-2)) < 1e-9
