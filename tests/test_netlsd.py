import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import ive

import qcloak.netlsd
from qcloak.analysis import compare, make_baseline
from qcloak.bench import desk_benchmarks, gen_qft, gen_random_blocks
from qcloak.circuit import Circuit, Gate, cx, rz, sx
from qcloak.dag import CircuitDag, to_dag
from qcloak.netlsd import (
    DENSE_NODE_LIMIT,
    EXACT_STEPS,
    GRID,
    PROBE_BLOCK,
    PROBE_SEED,
    PROBES,
    TRUNCATION_BOUND,
    _chebyshev_operator,
    _draw_probe_block,
    _exact_moments,
    _heat_coefficients,
    _heat_traces_dense,
    _heat_traces_estimated,
    _probe_block_moments,
    _scaled_adjacency,
    _undirected_edges,
    _zero_mode_basis,
    circuit_signature,
    netlsd_divergence,
    netlsd_signature,
    signature_path,
)
from qcloak.pipeline import PipelineConfig, encode
from strategies import (
    dense_normalized_laplacian,
    reorthogonalized_heat_traces,
    four_pass_heat_traces,
    negating_block_moments,
    normalized_laplacian_sparse,
    sequential_heat_traces,
    sequential_probe_blocks,
    union_find_zero_mode_basis,
)


@pytest.fixture
def estimate_all(monkeypatch):
    """Route every netlsd_signature call to the estimator."""
    monkeypatch.setattr(qcloak.netlsd, "DENSE_NODE_LIMIT", 0)


def test_grid_is_fixed_and_read_only():
    assert GRID.tobytes() == np.logspace(-2, 2, 250).tobytes()
    assert not GRID.flags.writeable
    with pytest.raises(ValueError):
        GRID[0] = 1.0


@pytest.mark.parametrize("limit", [DENSE_NODE_LIMIT, 0], ids=["dense", "estimated"])
def test_signature_timescales_are_grid(limit, monkeypatch):
    monkeypatch.setattr(qcloak.netlsd, "DENSE_NODE_LIMIT", limit)
    sig = netlsd_signature(to_dag(gen_qft(3)))
    assert sig.shape == GRID.shape and sig.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        sig[0] = 0.0


def test_empty_circuit_closed_form():
    # each wire is a source-sink edge: normalized Laplacian eigenvalues {0, 2}
    sig = netlsd_signature(to_dag(Circuit(3)))
    want = 3 * (1 + np.exp(-2 * GRID))
    assert np.allclose(sig, want, atol=1e-10)


def test_single_gate_wire_is_path_graph():
    # source - gate - sink: path on 3 nodes, eigenvalues {0, 1, 2}, on the
    # dense path at every t of GRID
    dag = to_dag(Circuit(1, (sx(0),)))
    assert signature_path(dag) == "dense"
    want = 1 + np.exp(-GRID) + np.exp(-2 * GRID)
    assert np.allclose(netlsd_signature(dag), want, rtol=0, atol=1e-10)


def test_dense_heat_traces_of_3_node_path_on_grid():
    # the dense solver itself, not the dispatch: h(t) = 1 + e^-t + e^-2t at
    # every t of GRID, first and last included
    d = to_dag(Circuit(1, (sx(0),)))
    h = _heat_traces_dense(d.num_nodes, _undirected_edges(d))
    assert h.shape == GRID.shape and h.dtype == np.float64
    assert abs(h[0] - (1 + np.exp(-0.01) + np.exp(-0.02))) < 1e-9
    assert abs(h[-1] - 1) < 1e-9
    want = 1 + np.exp(-GRID) + np.exp(-2 * GRID)
    assert np.allclose(h, want, rtol=0, atol=1e-10)


def test_gate_chain_matches_path_eigenvalues():
    m = 6
    c = Circuit(1, tuple(rz(0.1 * (i + 1), 0) for i in range(m)))
    sig = netlsd_signature(to_dag(c))
    n_nodes = m + 2
    lam = 1 - np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))
    want = np.exp(-np.outer(GRID, lam)).sum(axis=1)
    assert np.allclose(sig, want, atol=1e-10)


def test_traces_decrease_to_component_count():
    c = Circuit(2, (cx(0, 1), sx(0)))
    sig = netlsd_signature(to_dag(c))
    assert np.all(np.diff(sig) <= 1e-12)
    assert sig[0] <= to_dag(c).num_nodes
    # connected graph: h(t) -> 1
    assert abs(sig[-1] - 1) < 0.2


def test_estimated_matches_dense(monkeypatch):
    dag = to_dag(gen_qft(4))
    dense = netlsd_signature(dag)
    monkeypatch.setattr(qcloak.netlsd, "DENSE_NODE_LIMIT", 0)
    est = netlsd_signature(dag)
    rel = np.abs(est - dense) / dense
    assert rel.max() < 0.05
    assert np.linalg.norm(est - dense) < 0.01 * np.linalg.norm(dense)


def test_estimated_component_count_exact_at_large_t(estimate_all):
    # three disconnected wires; the zero eigenspace is deflated exactly
    est = netlsd_signature(to_dag(Circuit(3)))
    assert abs(est[-1] - 3) < 1e-3


def test_estimation_deterministic(estimate_all):
    dag = to_dag(gen_qft(3))
    a = netlsd_signature(dag)
    b = netlsd_signature(dag)
    assert np.array_equal(a, b)


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
        # 2 nodes: 17 of the 37 probes deflate to zero
        pytest.param(Circuit(1), id="circuit1"),
        # three 2-node components, each with eigenvalues {0, 2}
        pytest.param(Circuit(3), id="circuit3"),
        pytest.param(gen_qft(3), id="qft3"),
        pytest.param(gen_qft(4), id="qft4"),
        pytest.param(_bridged_halves(), id="bridged_random16"),
    ],
)
def test_estimated_matches_reorthogonalized_oracle(circuit, monkeypatch):
    assert ORACLE_PROBES % PROBE_BLOCK
    dag = to_dag(circuit)
    n, edges = dag.num_nodes, _undirected_edges(dag)
    # the probes' part alone: the oracle takes every moment from the probes
    want = reorthogonalized_heat_traces(n, edges, GRID, ORACLE_PROBES, 60, PROBE_SEED)
    est = _heat_traces_estimated(n, edges, ORACLE_PROBES, PROBE_SEED, exact_steps=None)
    # the shipped series is within its truncation bound of the oracle's
    np.testing.assert_allclose(est, want, rtol=1e-9, atol=TRUNCATION_BOUND)
    # and, cut where truncation is far below rounding, equal to it to 1e-9
    monkeypatch.setattr(qcloak.netlsd, "TRUNCATION_BOUND", 1e-13)
    est = _heat_traces_estimated(n, edges, ORACLE_PROBES, PROBE_SEED, exact_steps=None)
    np.testing.assert_allclose(est, want, rtol=1e-9, atol=0)


def _isolated_nodes_dag() -> CircuitDag:
    """Seven nodes: the path 0-1-3, the edge 5-6, and nodes 2 and 4 with only
    self-loops, which the symmetrized graph drops, so they are isolated."""
    return CircuitDag(2, 3, ((0, 1), (2, 2), (1, 3), (4, 4), (5, 6)))


@pytest.mark.parametrize(
    "dag",
    [
        pytest.param(to_dag(gen_qft(3)), id="qft3"),
        pytest.param(
            to_dag(encode(desk_benchmarks()["w8"], PipelineConfig(seed=3)).circuit),
            id="w8_encoded",
        ),
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
    ],
)
def test_dense_laplacian_matches_the_dense_oracle_bit_for_bit(dag, monkeypatch):
    # the dense path negates the sparse D^-1/2 A D^-1/2, so its Laplacian must
    # be the all-dense one in every bit, -0.0 off the edges included: the bits
    # of eigvalsh's output, and so of the dense signatures, depend on them
    n, edges = dag.num_nodes, _undirected_edges(dag)
    eigvalsh, seen = np.linalg.eigvalsh, []

    def spy(a):
        seen.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    got = qcloak.netlsd._heat_traces_dense(n, edges)
    monkeypatch.undo()
    lap = dense_normalized_laplacian(n, edges)
    assert len(seen) == 1 and seen[0].tobytes() == lap.tobytes()
    assert got.tobytes() == np.exp(-np.outer(GRID, eigvalsh(lap))).sum(axis=1).tobytes()


@pytest.mark.parametrize(
    "dag",
    [
        # 2 nodes: one zero mode, one eigenvalue 2
        pytest.param(to_dag(Circuit(1)), id="circuit1"),
        pytest.param(to_dag(Circuit(3)), id="circuit3"),
        pytest.param(to_dag(gen_qft(3)), id="qft3"),
        pytest.param(to_dag(_bridged_halves()), id="bridged_random16"),
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
    ],
)
def test_exact_moments_match_identity_probes_and_eigenvalues(dag):
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    basis = _zero_mode_basis(s, deg)
    op = _chebyshev_operator(s, deg)
    count = basis.shape[1]
    got = _exact_moments(op, count, EXACT_STEPS)
    assert got.shape == (2 * EXACT_STEPS + 1,)
    assert got[0] == n - count
    # rounding: each moment sums n terms of size at most 1
    tol = 64 * np.finfo(float).eps * n
    # the identity as the probe block: one deflated probe per node, each of
    # whose deflations rounds a dense column
    probed = _probe_block_moments(op, basis, EXACT_STEPS, np.eye(n))
    np.testing.assert_allclose(got, probed, rtol=0, atol=8 * tol)
    # sum_i T_k(lambda_i - 1) over the dense eigenvalues, less the zero modes
    lap, _ = normalized_laplacian_sparse(n, edges)
    theta = np.arccos(np.clip(np.linalg.eigvalsh(lap.toarray()) - 1, -1, 1))
    k = np.arange(2 * EXACT_STEPS + 1)
    want = np.cos(np.outer(k, theta)).sum(axis=1) - count * (-1.0) ** k
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_exact_moments_clip_to_a_short_series():
    # even one node needs K = 25 terms on GRID, past the shipped exact steps,
    # and K grows with n; exact steps past K are clipped to it: every moment
    # the series uses is exact, so the probes change nothing
    assert _heat_coefficients(1).shape[1] // 2 == 25 > EXACT_STEPS
    dag = to_dag(_bridged_halves())
    n, edges = dag.num_nodes, _undirected_edges(dag)
    coef = _heat_coefficients(n)
    k_max = coef.shape[1] // 2
    assert k_max == 31
    s, deg = _scaled_adjacency(n, edges)
    basis = _zero_mode_basis(s, deg)
    want = basis.shape[1] + coef @ _exact_moments(_chebyshev_operator(s, deg), basis.shape[1], k_max)
    for seed in (PROBE_SEED, PROBE_SEED + 1):
        got = _heat_traces_estimated(n, edges, ORACLE_PROBES, seed, exact_steps=1000)
        assert np.array_equal(got, want)
    # what is left is the truncation of the series
    dense = qcloak.netlsd._heat_traces_dense(n, edges)
    np.testing.assert_allclose(got, dense, rtol=0, atol=TRUNCATION_BOUND)


@pytest.mark.parametrize(
    "circuit",
    [
        # 2,039 nodes
        pytest.param(gen_random_blocks(32, 300, 1), id="random32"),
        # the desk DAGs above DENSE_NODE_LIMIT at seed 3: 1,328, 1,068, 796
        # and 923 nodes
        pytest.param(encode(desk_benchmarks()["add9"], PipelineConfig(seed=3)).circuit, id="add9_encoded"),
        pytest.param(encode(desk_benchmarks()["qft8"], PipelineConfig(seed=3)).circuit, id="qft8_encoded"),
        pytest.param(make_baseline(desk_benchmarks()["qft8"]), id="qft8_baseline"),
        pytest.param(make_baseline(desk_benchmarks()["add9"]), id="add9_baseline"),
    ],
)
def test_estimator_accuracy_against_dense(circuit, monkeypatch):
    # the shipped probe count and exact steps read at most 0.112 here; 512
    # probes and no exact moments read 4.3 and 2.2 on random32 and add9_encoded
    dag = to_dag(circuit)
    monkeypatch.setattr(qcloak.netlsd, "DENSE_NODE_LIMIT", dag.num_nodes)
    dense = netlsd_signature(dag)
    monkeypatch.setattr(qcloak.netlsd, "DENSE_NODE_LIMIT", 0)
    est = netlsd_signature(dag)
    assert np.linalg.norm(est - dense) <= 0.15


def test_key_only_divergence_near_the_error_floor_stays_near_its_dense_value(monkeypatch):
    # qft8's seed-3 key-only divergence, 0.324 on the dense path, is within a
    # few error norms of the floor of its two estimated signatures (the X-only
    # baseline and the baseline, 796 nodes each); it reads 0.310 estimated
    qft8, cfg = desk_benchmarks()["qft8"], PipelineConfig(seed=3)
    estimated = compare(qft8, cfg, structural_only=True).netlsd_x_only
    monkeypatch.setattr(qcloak.netlsd, "DENSE_NODE_LIMIT", 10**9)
    dense = compare(qft8, cfg, structural_only=True).netlsd_x_only
    assert estimated != dense
    assert abs(estimated - dense) <= 0.02


@pytest.mark.parametrize("extra, path", [(0, "dense"), (1, "estimated")])
def test_dispatch_boundary(extra, path, monkeypatch):
    # a one-wire chain of DENSE_NODE_LIMIT + extra nodes: source, gates, sink
    dag = to_dag(Circuit(1, (sx(0),) * (DENSE_NODE_LIMIT + extra - 2)))
    assert dag.num_nodes == DENSE_NODE_LIMIT + extra
    calls = []

    def spy(name):
        real = getattr(qcloak.netlsd, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_heat_traces_dense", "_heat_traces_estimated"):
        monkeypatch.setattr(qcloak.netlsd, name, spy(name))
    netlsd_signature(dag)
    assert calls == [f"_heat_traces_{path}"]
    assert signature_path(dag) == path


@pytest.mark.parametrize(
    "dag",
    [
        pytest.param(to_dag(gen_qft(3)), id="qft3"),
        pytest.param(to_dag(gen_qft(4)), id="qft4"),
        pytest.param(to_dag(_bridged_halves()), id="bridged_random16"),
        pytest.param(
            to_dag(make_baseline(gen_random_blocks(128, 300, 1))), id="baseline_random128_seed1"
        ),
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
    ],
)
def test_estimated_matches_four_pass_oracle(dag):
    # the in-place accumulate on 2 (L - I) against the recurrence on L itself;
    # the two differ only in summation order; the probes' part alone, as the
    # oracle takes every moment from the probes
    n, edges = dag.num_nodes, _undirected_edges(dag)
    est = _heat_traces_estimated(n, edges, ORACLE_PROBES, PROBE_SEED, exact_steps=None)
    want = four_pass_heat_traces(n, edges, ORACLE_PROBES, PROBE_SEED)
    np.testing.assert_allclose(est, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "dag",
    [
        pytest.param(to_dag(gen_qft(3)), id="qft3"),
        pytest.param(to_dag(_bridged_halves()), id="bridged_random16"),
        pytest.param(
            to_dag(make_baseline(gen_random_blocks(128, 300, 1))), id="baseline_random128_seed1"
        ),
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
    ],
)
@pytest.mark.parametrize("width", [1, 16])
def test_signed_recurrence_matches_the_negating_one_bit_for_bit(dag, width):
    # U_k = s_k T_k z: negated operands and sums round to the negated result,
    # so every moment keeps its bits at every degree the series can take
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    op, basis = _chebyshev_operator(s, deg), _zero_mode_basis(s, deg)
    k_max = _heat_coefficients(n).shape[1] // 2
    v = _draw_probe_block(PROBE_SEED, 0, width, n)
    got = _probe_block_moments(op, basis, k_max, v.copy())
    want = negating_block_moments(op, basis, k_max, v.copy())
    assert np.array_equal(got, want)


def test_chebyshev_operator_is_twice_the_shifted_laplacian():
    dag = _isolated_nodes_dag()
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    op = _chebyshev_operator(s, deg)
    lap, _ = normalized_laplacian_sparse(n, edges)
    assert op.format == "csr" and op.has_sorted_indices
    assert np.array_equal(op.toarray(), 2 * (lap.toarray() - np.eye(n)))
    # no stored zeros: the diagonal is kept only on the isolated nodes 2 and 4
    assert (op.data != 0).all()
    assert op.nnz == 2 * len(edges) + 2
    assert list(op.diagonal()) == [0, 0, -2, 0, -2, 0, 0]


@pytest.mark.parametrize(
    "dag",
    [
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
        pytest.param(to_dag(_bridged_halves()), id="bridged_random16"),
        pytest.param(to_dag(gen_random_blocks(128, 300, 1)), id="random128_seed1"),
    ],
)
def test_chebyshev_operator_has_the_bits_of_the_laplacian_built_one(dag):
    # -2 S straight from S stores what 2 (L - I) from the Laplacian stores,
    # entry for entry and bit for bit, so the estimated signatures keep theirs
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    op = _chebyshev_operator(s, deg)
    lap, _ = normalized_laplacian_sparse(n, edges)
    want = 2.0 * (lap - sp.identity(n, format="csr"))
    want.eliminate_zeros()
    want.sort_indices()
    for part in ("indptr", "indices", "data"):
        assert getattr(op, part).tobytes() == getattr(want, part).tobytes()


@pytest.mark.parametrize(
    "block",
    [
        pytest.param(lambda v: np.asfortranarray(v), id="fortran"),
        pytest.param(lambda v: v.astype(np.float32), id="float32"),
        pytest.param(lambda v: np.hstack((v, v))[:, ::2], id="strided"),
        pytest.param(lambda v: np.ascontiguousarray(v[1:]), id="fewer_rows_than_nodes"),
    ],
)
def test_probe_block_moments_rejects_a_block_the_accumulate_cannot_take(block):
    # the accumulate writes through ravel() views, so a copy would take the
    # results, and its native loop would index past a block with fewer rows
    dag = to_dag(gen_qft(3))
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    v = block(_draw_probe_block(PROBE_SEED, 0, 4, n))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        _probe_block_moments(_chebyshev_operator(s, deg), _zero_mode_basis(s, deg), 3, v)


@pytest.mark.parametrize(
    "circuit",
    [
        pytest.param(_bridged_halves(), id="bridged_random16"),
        # 17 of the 37 probes deflate to zero inside the pool
        pytest.param(Circuit(1), id="circuit1"),
        # three 2-node components: a kept probe sees only the eigenvalue 2
        pytest.param(Circuit(3), id="circuit3"),
    ],
)
def test_pool_matches_sequential_block_loop(circuit):
    # the pool must sum the blocks' moment vectors in draw order, scale the
    # high-degree averages to the exact degree-0 moment, then put the exact
    # moments in place of the low-degree averages; the oracle draws the
    # blocks in order from one generator and computes every dot
    dag = to_dag(circuit)
    n, edges = dag.num_nodes, _undirected_edges(dag)
    want = sequential_heat_traces(n, edges, ORACLE_PROBES, PROBE_SEED, EXACT_STEPS)
    got = _heat_traces_estimated(n, edges, ORACLE_PROBES, PROBE_SEED)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [7, 10])
@pytest.mark.parametrize("width", [PROBE_BLOCK, 5])
def test_probe_block_at_its_start_equals_the_sequential_draws(n, width):
    # odd n with an odd start begins the block in the high half of a PCG64
    # output; a width of 5 puts odd starts in the stream
    want = list(sequential_probe_blocks(PROBE_SEED, ORACLE_PROBES, n, width))
    for j, start in enumerate(range(0, ORACLE_PROBES, width)):
        got = _draw_probe_block(PROBE_SEED, start, min(width, ORACLE_PROBES - start), n)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == want[j].tobytes()


def _several_components_dag() -> CircuitDag:
    # wires 0-1 and 3-4 joined by a CX, wires 2 and 5 on their own
    return to_dag(Circuit(6, (cx(3, 4), sx(5), cx(0, 1))))


@pytest.mark.parametrize(
    "dag",
    [
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
        pytest.param(_several_components_dag(), id="four_components"),
        pytest.param(to_dag(_bridged_halves()), id="bridged_random16"),
    ],
)
@pytest.mark.parametrize("exact_steps", [None, 0, 1, 8, 1000], ids=str)
def test_kept_moments_equal_the_every_dot_oracle_bit_for_bit(dag, exact_steps):
    # the probes skip the dots of degrees 2 .. 2 min(exact_steps, K), whose
    # moments the exact ones replace; every moment they keep has the bits
    # of the oracle that computes every dot, and so does the signature
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    op, basis = _chebyshev_operator(s, deg), _zero_mode_basis(s, deg)
    k_max = _heat_coefficients(n).shape[1] // 2
    assert k_max < 1000
    steps = 0 if exact_steps is None else min(exact_steps, k_max)
    kept = np.ones(2 * k_max + 1, dtype=bool)
    kept[2 : 2 * steps + 1] = False
    for v in sequential_probe_blocks(PROBE_SEED, ORACLE_PROBES, n, PROBE_BLOCK):
        got = _probe_block_moments(op, basis, k_max, v.copy(), steps)
        want = negating_block_moments(op, basis, k_max, v.copy())
        assert got[kept].tobytes() == want[kept].tobytes()
        assert not got[~kept].any()
    got = _heat_traces_estimated(n, edges, ORACLE_PROBES, PROBE_SEED, exact_steps)
    want = sequential_heat_traces(n, edges, ORACLE_PROBES, PROBE_SEED, exact_steps)
    assert got.tobytes() == want.tobytes()


def test_chebyshev_degree_meets_truncation_bound_on_path():
    # the 402-node path DAG, eigenvalues 1 - cos(pi j / (n - 1)); the identity
    # as the probe block makes the moments exact traces, with no probe noise
    dag = to_dag(Circuit(1, tuple(rz(0.1, 0) for _ in range(400))))
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    basis = _zero_mode_basis(s, deg)
    op = _chebyshev_operator(s, deg)
    lam = 1 - np.cos(np.pi * np.arange(n) / (n - 1))
    exact = np.exp(-np.outer(GRID, lam)).sum(axis=1)
    coef = _heat_coefficients(n)

    def error(k_max: int) -> float:
        mu = _probe_block_moments(op, basis, k_max, np.eye(n))
        return np.abs(basis.shape[1] + coef[:, : 2 * k_max + 1] @ mu - exact).max()

    k_max = coef.shape[1] // 2
    # rounding: h(t) and each moment sum n terms of size at most 1
    assert error(k_max) <= TRUNCATION_BOUND + 64 * np.finfo(float).eps * n
    assert error(k_max // 2) > 1e-7
    # no fixed cap: a larger n takes more terms
    assert k_max == 30
    assert _heat_coefficients(10**8).shape[1] // 2 == 40


def test_truncation_moves_the_estimate_far_less_than_the_probe_error(monkeypatch):
    # 1,385 nodes: the series cut at TRUNCATION_BOUND against one cut at
    # 1e-13, both against the dense eigenvalues
    dag = to_dag(gen_random_blocks(32, 200, 1))
    n, edges = dag.num_nodes, _undirected_edges(dag)
    dense = _heat_traces_dense(n, edges)
    est = _heat_traces_estimated(n, edges, PROBES, PROBE_SEED)
    k_max = _heat_coefficients(n).shape[1] // 2
    monkeypatch.setattr(qcloak.netlsd, "TRUNCATION_BOUND", 1e-13)
    assert _heat_coefficients(n).shape[1] // 2 > k_max
    longer = _heat_traces_estimated(n, edges, PROBES, PROBE_SEED)
    assert np.linalg.norm(est - longer) < 1e-3 * np.linalg.norm(est - dense)


@pytest.mark.parametrize("sizes", [(1,), (10**8,), (1, 10**8, 1), (10**8, 1)])
def test_heat_coefficients_memo_keeps_every_bit(sizes):
    # 2 ive(k, t) columns come from a memo that an earlier, larger n may have
    # extended; each result must equal one fresh ive call over all its
    # columns, with the cut K of its own n
    widths = {}
    for n in sizes:
        qcloak.netlsd._bessel_columns.cache_clear()
        widths[n] = _heat_coefficients(n).shape[1]
    assert len(set(widths.values())) == len(widths)
    qcloak.netlsd._bessel_columns.cache_clear()
    for n in sizes:
        coef = _heat_coefficients(n)
        want = 2 * ive(np.arange(widths[n]), GRID[:, None])
        want[:, 0] /= 2
        want[:, 1::2] *= -1
        assert coef.tobytes() == want.tobytes()
    info = qcloak.netlsd._bessel_columns.cache_info()
    # the column ranges are one fixed sequence, four of them up to n = 10^8
    assert info.hits >= len(sizes) - 1 and info.currsize <= 4


@pytest.mark.parametrize(
    "dag",
    [
        pytest.param(to_dag(gen_qft(3)), id="qft3"),
        pytest.param(to_dag(Circuit(2, (cx(0, 1), cx(0, 1), cx(1, 0)))), id="repeated_cx"),
        pytest.param(_isolated_nodes_dag(), id="isolated_nodes"),
        pytest.param(CircuitDag(1, 0, ()), id="no_edges"),
    ],
)
def test_undirected_edges_match_the_set_reference(dag):
    want = sorted({(min(a, b), max(a, b)) for a, b in dag.edges if a != b})
    got = _undirected_edges(dag)
    assert got.shape == (len(want), 2)
    assert [tuple(e) for e in got.tolist()] == want


def test_pooled_estimate_repeatable():
    dag = to_dag(_bridged_halves())
    n, edges = dag.num_nodes, _undirected_edges(dag)
    first = _heat_traces_estimated(n, edges, 5 * PROBE_BLOCK, PROBE_SEED)
    for _ in range(2):
        again = _heat_traces_estimated(n, edges, 5 * PROBE_BLOCK, PROBE_SEED)
        assert np.array_equal(again, first)


def test_estimate_leaves_no_threads():
    # a fresh interpreter, so a pool kept from an earlier call cannot hide
    code = """
import threading
from qcloak.bench import gen_random_blocks
from qcloak.dag import to_dag
from qcloak.netlsd import PROBE_BLOCK, _heat_traces_estimated, _undirected_edges
dag = to_dag(gen_random_blocks(8, 40, seed=1))
before = threading.active_count()
_heat_traces_estimated(dag.num_nodes, _undirected_edges(dag), 4 * PROBE_BLOCK, 11)
print(before, threading.active_count())
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = map(int, out.stdout.split())
    assert after == before


def test_zero_mode_basis_one_column_per_component_in_node_order():
    # wires 0-1 and 3-4 joined by a CX, wires 2 and 5 on their own: four components
    dag = to_dag(Circuit(6, (cx(3, 4), sx(5), cx(0, 1))))
    n, edges = dag.num_nodes, _undirected_edges(dag)
    s, deg = _scaled_adjacency(n, edges)
    basis = _zero_mode_basis(s, deg)
    assert np.array_equal(basis, union_find_zero_mode_basis(n, edges, deg))
    lap, _ = normalized_laplacian_sparse(n, edges)
    assert basis.shape == (n, 4)
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(lap @ basis, 0, atol=1e-15)
    support = basis != 0
    assert (support.sum(axis=1) == 1).all()
    firsts = support.argmax(axis=0)
    assert list(firsts) == sorted(firsts)


def test_divergence_zero_on_self_and_symmetric():
    a = gen_qft(3)
    b = Circuit(3, (cx(0, 1), cx(1, 2), sx(0)))
    assert netlsd_divergence(a, a) == 0.0
    assert np.isclose(netlsd_divergence(a, b), netlsd_divergence(b, a))
    assert netlsd_divergence(a, b) > 0


def test_divergence_accepts_precomputed_signatures():
    a = gen_qft(3)
    b = Circuit(3, (cx(0, 1), cx(1, 2), sx(0)))
    want = netlsd_divergence(a, b)
    sig_a, sig_b = circuit_signature(a), circuit_signature(b)
    assert netlsd_divergence(a, sig_b) == want
    assert netlsd_divergence(sig_a, b) == want
    assert netlsd_divergence(sig_a, sig_b) == want
    # a signature is h(t) on GRID: an array of another shape is not one,
    # on either side, even one that would broadcast
    for other in (sig_b[::2], np.zeros(1)):
        for pair in ((a, other), (other, sig_a)):
            with pytest.raises(ValueError, match=r"not \(250,\)$"):
                netlsd_divergence(*pair)
