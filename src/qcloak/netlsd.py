"""NetLSD heat-trace signatures of circuit DAGs.

The circuit DAG is symmetrized to an undirected graph; the signature is
h(t) = trace(exp(-t L)) over a log-spaced grid of timescales, where L is the
symmetric normalized Laplacian (isolated nodes contribute eigenvalue 0).
Signatures are compared by unnormalized Euclidean distance.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .circuit import Circuit
from .dag import CircuitDag, to_dag

DENSE_NODE_LIMIT = 3000
PROBE_BLOCK = 16  # probes per Lanczos block: columns of one sparse-dense product
DEFAULT_POINTS = 250
DEFAULT_T_MIN = 1e-2
DEFAULT_T_MAX = 1e2


@dataclass(frozen=True)
class HeatSignature:
    timescales: np.ndarray
    traces: np.ndarray


def default_grid(
    t_min: float = DEFAULT_T_MIN,
    t_max: float = DEFAULT_T_MAX,
    points: int = DEFAULT_POINTS,
) -> np.ndarray:
    return np.logspace(np.log10(t_min), np.log10(t_max), points)


def _undirected_edges(d: CircuitDag) -> set[tuple[int, int]]:
    out = set()
    for a, b in d.edges:
        if a != b:
            out.add((min(a, b), max(a, b)))
    return out


def _normalized_laplacian_dense(n: int, edges: set[tuple[int, int]]) -> np.ndarray:
    adj = np.zeros((n, n))
    for a, b in edges:
        adj[a, b] = 1.0
        adj[b, a] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    lap = -adj * np.outer(inv_sqrt, inv_sqrt)
    np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    return lap


def _normalized_laplacian_sparse(n: int, edges: set[tuple[int, int]]):
    if edges:
        rows, cols = zip(*edges)
    else:
        rows, cols = (), ()
    data = np.ones(2 * len(edges))
    adj = sp.csr_matrix(
        (data, (np.array(rows + cols, dtype=int), np.array(cols + rows, dtype=int))),
        shape=(n, n),
    )
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    scale = sp.diags(inv_sqrt)
    lap = sp.diags(np.where(deg > 0, 1.0, 0.0)) - scale @ adj @ scale
    return lap.tocsr(), deg


def _heat_traces_dense(n: int, edges: set[tuple[int, int]], grid: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(_normalized_laplacian_dense(n, edges))
    return np.exp(-np.outer(grid, lam)).sum(axis=1)


def _zero_mode_basis(n: int, edges: set[tuple[int, int]], deg: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the 0-eigenspace: D^{1/2} indicators per component."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps: dict[int, list[int]] = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    basis = np.zeros((n, len(comps)))
    for j, nodes in enumerate(comps.values()):
        w = np.sqrt(np.maximum(deg[nodes], 1.0))
        basis[nodes, j] = w / np.linalg.norm(w)
    return basis


def _column_norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_probe_block(rng: np.random.Generator, width: int, n: int) -> np.ndarray:
    """The next width Rademacher probes as the columns of a C-contiguous (n, width)
    matrix. One (width, n) draw is the same stream as width draws of size n."""
    return np.ascontiguousarray((rng.integers(0, 2, size=(width, n)) * 2.0 - 1.0).T)


def _probe_block_traces(
    lap, basis: np.ndarray, grid: np.ndarray, m: int, v: np.ndarray
) -> np.ndarray:
    """Heat-trace rows, one per kept probe, of the probe block v (n, width),
    which is overwritten: m-step three-term Lanczos on all columns at once,
    with the zero eigenspace (the columns of basis) deflated exactly at
    every step."""
    v -= basis @ (basis.T @ v)
    nrm = _column_norms(v)
    kept = nrm >= 1e-12
    nrm = nrm[kept]
    v = v[:, kept] / nrm
    alphas = np.zeros((m, v.shape[1]))
    betas = np.zeros((m, v.shape[1]))
    lengths = np.full(v.shape[1], m)
    live = np.arange(v.shape[1])  # block column of each column still running
    v_prev = np.zeros_like(v)
    tmp = np.empty_like(v)
    for j in range(m):
        w = lap @ v
        alpha = np.einsum("ij,ij->j", v, w)
        alphas[j, live] = alpha
        if j == m - 1:
            break
        w -= np.multiply(v, alpha, out=tmp)
        if j:
            w -= np.multiply(v_prev, betas[j - 1, live], out=tmp)
        w -= np.matmul(basis, basis.T @ w, out=tmp)
        beta = _column_norms(w)
        going = beta >= 1e-10
        if not going.all():
            # a breakdown ends that column's tridiagonal after j + 1 steps
            lengths[live[~going]] = j + 1
            live, beta = live[going], beta[going]
            w, v, tmp = w[:, going], v[:, going], tmp[:, going]
            if not live.size:
                break
        betas[j, live] = beta
        w /= beta
        v_prev, v = v, w
    rows = np.empty((len(lengths), len(grid)))
    for col, k in enumerate(lengths):
        theta, u = eigh_tridiagonal(alphas[:k, col], betas[: k - 1, col])
        # nrm^2 scales the probe back to its unnormalized trace contribution
        rows[col] = nrm[col] ** 2 * (u[0] ** 2 * np.exp(-np.outer(grid, theta))).sum(axis=1)
    return rows


def _heat_traces_estimated(
    n: int,
    edges: set[tuple[int, int]],
    grid: np.ndarray,
    probes: int,
    steps: int,
    seed: int,
) -> np.ndarray:
    """Stochastic Lanczos quadrature with the exact zero-eigenspace deflated.

    Probes run PROBE_BLOCK at a time as the columns of one matrix, so each
    Lanczos step is one sparse-dense product. The recurrence is the plain
    three-term one: on circuit DAGs it matches per-probe full
    reorthogonalization to about 1e-13 relative at a fraction of the cost.
    Relative error is roughly 1/sqrt(probes * n) at small t and degrades
    toward large t, where the deflated exact component count dominates h(t).

    Blocks run on a thread pool with one worker per usable CPU (the heavy
    steps release the GIL). Blocks are drawn in order from one generator, a
    block only when a worker is free, and their rows are summed in draw
    order, so the result is bit-identical for any worker count.
    """
    lap, deg = _normalized_laplacian_sparse(n, edges)
    basis = _zero_mode_basis(n, edges, deg)
    rng = np.random.default_rng(seed)
    m = min(steps, n - 1)
    starts = range(0, probes, PROBE_BLOCK)
    workers = max(1, min(_usable_cpus(), len(starts)))
    blocks = []
    running = set()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in starts:
            if len(running) == workers:
                _, running = wait(running, return_when=FIRST_COMPLETED)
            v = _draw_probe_block(rng, min(PROBE_BLOCK, probes - start), n)
            blocks.append(pool.submit(_probe_block_traces, lap, basis, grid, m, v))
            running.add(blocks[-1])
    acc = np.zeros(len(grid))
    for block in blocks:
        for row in block.result():
            acc += row
    return basis.shape[1] + acc / probes


def netlsd_signature(
    d: CircuitDag,
    grid: np.ndarray | None = None,
    probes: int = 512,
    steps: int = 60,
    seed: int = 11,
    force_estimate: bool = False,
) -> HeatSignature:
    if grid is None:
        grid = default_grid()
    n = d.num_nodes
    if n < 1:
        raise ValueError("graph must have at least one node")
    edges = _undirected_edges(d)
    if n <= DENSE_NODE_LIMIT and not force_estimate:
        traces = _heat_traces_dense(n, edges, grid)
    else:
        traces = _heat_traces_estimated(n, edges, grid, probes, steps, seed)
    return HeatSignature(np.asarray(grid, dtype=float), traces)


def circuit_signature(c: Circuit, grid: np.ndarray | None = None) -> HeatSignature:
    return netlsd_signature(to_dag(c), grid)


def netlsd_divergence(
    a: Circuit | HeatSignature,
    b: Circuit | HeatSignature,
    grid: np.ndarray | None = None,
) -> float:
    """Distance between heat-trace signatures. Either side may be a signature
    precomputed by circuit_signature, so a side that is compared several
    times is estimated once; both sides must share one timescale grid."""
    sig_a = a if isinstance(a, HeatSignature) else circuit_signature(a, grid)
    sig_b = b if isinstance(b, HeatSignature) else circuit_signature(b, grid)
    if not np.array_equal(sig_a.timescales, sig_b.timescales):
        raise ValueError("signatures were taken on different timescale grids")
    return float(np.linalg.norm(sig_a.traces - sig_b.traces))

