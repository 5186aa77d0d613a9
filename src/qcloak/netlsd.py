"""NetLSD heat-trace signatures of circuit DAGs.

The circuit DAG is symmetrized to an undirected graph; the signature is
h(t) = trace(exp(-t L)) at each t of GRID, the fixed log-spaced grid of 250
timescales from 1e-2 to 1e2, as a read-only float64 array of GRID's shape,
where L is the symmetric normalized Laplacian (isolated nodes contribute
eigenvalue 0).
Up to DENSE_NODE_LIMIT = 375 nodes, h(t) comes from the dense eigenvalues
(one eigvalsh, O(n^3)). Above it, h(t) is a Chebyshev series in L - I whose
moments, the traces of T_k(L - I), are estimated stochastically (Han,
Malioutov, Avron & Shin, SISC 2017) from PROBES = 48 Rademacher probes
drawn from seed PROBE_SEED = 11, PROBE_BLOCK = 16 at a time, each block by
the task that runs it, from its position in the stream. Each step of the
probes' recurrence is one sparse product with M = 2 (L - I), accumulated in
place into the probe block it replaces. The moments of degree k <= 2
EXACT_STEPS (EXACT_STEPS = 11, so up to 22) are computed exactly instead,
from sparse matrix powers: they carry most of h(t), and the probes estimate
them worst. Of these the probes compute only mu_0 and mu_1, off which every
higher moment is read. All five are constants, not settings. EXACT_STEPS
and PROBES are the cheapest pair of a recorded sweep (EXACT_STEPS 8-16,
PROBES 32-128; BENCH_exact_budget.json) whose mean and max error are no
greater than those of the pair they replaced on every one of ten 1.0k- to
10k-node circuit DAGs.
Signatures are compared by unnormalized Euclidean distance.

The series is cut where its truncation error is far below the probes'
error, which sets the estimate's accuracy. The error norm of the estimate
against the dense eigenvalues, over the 250 points of GRID, averaged 0.038
to 0.42 over probe seeds 11-13 on those ten DAGs (_heat_traces_estimated),
and was at most 0.79. The smallest mean, 0.038, is a per-point RMS of 0.038 /
sqrt(250) = 2.4e-3. TRUNCATION_BOUND sits three orders below that, rounded
down to a power of ten: 1e-6 on every h(t), 3.4 orders below it. (The
smallest single norm measured, 0.003 on a desk DAG, is 1.7e-4 per point.)
The probe error falls as 1 / sqrt(PROBES), so the bound stays three orders
below it up to about 270 probes (48 x 2.4^2). On 8k-13k nodes it takes
K = 33 recurrence steps.

The limit was set where the two paths cost the same.
scripts/netlsd_crossover.py times both on pipeline encodes of
gen_random_blocks(16, b, 1) and on the desk DAGs near the limit; on 2
vCPUs, min of 5 calls and of three sweeps, milliseconds dense / estimated:

    nodes   1 BLAS thread   2 BLAS threads
      190      2 /  4          2 /  5
      323      5 /  5          5 /  5
      353      6 /  5          6 /  5
      356      6 /  5          6 /  6     add4 encoded
      376      7 /  5          7 /  5
      436      9 /  5          8 /  6
      538     16 /  6         12 /  6
      667     26 /  6         22 /  7
     1333    199 /  8        124 /  8

The estimator's cost is mostly fixed (4-11 ms up to 1.6k nodes) and the
dense cost grows as n^3. From 323 to 356 nodes the two are tied (each path
was the faster in some of the six readings of each DAG); from 376 nodes up
the estimator was the faster in every reading. The limit sits below that:
moving it into the tie would gain no time and move the signatures of the
DAGs in between (add4's encodes, 350-370 nodes). What the limit allows: a
divergence between two signatures moves by at most the sum of their error
norms over the grid (the triangle inequality). On the desk DAGs above the
limit (qft8 and add9: the baselines and the encodes at seeds 0, 3 and 7),
those norms are 0.003-0.11. The full divergences of qft8 and add9
(2.6k-4.2k) move by at most 7.1e-7 relative. A key-only divergence near
that error floor moves more: qft8's reads 0.310 estimated against 0.324
exact at seed 3 (0.373 on both paths at seed 7), so its full/key-only ratio
reads 8.6k instead of 8.3k. add9's, at 20-40, moves by at most 1.4e-4
relative.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs
from scipy.sparse.csgraph import connected_components
from scipy.special import ive

from .circuit import Circuit
from .dag import CircuitDag, to_dag

DENSE_NODE_LIMIT = 375  # the dense/estimated cost crossover; see the module docstring
PROBES = 48
PROBE_SEED = 11
EXACT_STEPS = 11  # sparse recurrence steps: exact moments of degree k <= 2 EXACT_STEPS
PROBE_BLOCK = 16  # probes per block: columns of one sparse-dense product
TRUNCATION_BOUND = 1e-6  # absolute, on the estimated h(t); see the module docstring
GRID = np.logspace(-2, 2, 250)  # the timescales of every signature; read-only
GRID.setflags(write=False)


def _undirected_edges(d: CircuitDag) -> np.ndarray:
    """The DAG's distinct edges without self-loops as an (E, 2) array of rows
    (a, b), a < b, sorted."""
    ends = d.edge_array
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    keys = np.unique((lo * d.num_nodes + hi)[lo != hi])
    return np.stack(np.divmod(keys, d.num_nodes), axis=1)


def _scaled_adjacency(n: int, edges: np.ndarray):
    """D^-1/2 A D^-1/2 of the undirected graph as CSR (an isolated node's row
    and column empty), and the degrees D. The edges are distinct, so each
    stored entry is one product of two scale factors."""
    rows = np.concatenate((edges[:, 0], edges[:, 1]))
    cols = np.concatenate((edges[:, 1], edges[:, 0]))
    deg = np.bincount(rows, minlength=n).astype(float)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    return sp.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)), shape=(n, n)), deg


def _heat_traces_dense(n: int, edges: np.ndarray) -> np.ndarray:
    s, deg = _scaled_adjacency(n, edges)
    # -S, not 0 - S: the entries off the edges are -0.0, and eigvalsh's
    # output bits depend on those signs
    lap = -s.toarray()
    np.fill_diagonal(lap, np.where(deg > 0, 1.0, 0.0))
    lam = np.linalg.eigvalsh(lap)
    return np.exp(-np.outer(GRID, lam)).sum(axis=1)


def _zero_mode_basis(s, deg: np.ndarray) -> np.ndarray:
    """Orthonormal basis of L's 0-eigenspace, from the scaled adjacency S:
    D^{1/2} indicators per connected component of S, one column per
    component in order of its smallest node."""
    count, labels = connected_components(s, directed=False)
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    basis = np.zeros((s.shape[0], count))
    for j, nodes in enumerate(members):
        w = np.sqrt(np.maximum(deg[nodes], 1.0))
        basis[nodes, j] = w / np.linalg.norm(w)
    return basis


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_probe_block(seed: int, start: int, width: int, n: int) -> np.ndarray:
    """Rademacher probes start .. start + width - 1 of seed's stream as the
    columns of a C-contiguous (n, width) matrix: the block that width draws
    of size n would give after start such draws from default_rng(seed). Each
    entry is the top bit of one uint32, half of one PCG64 output, so probe
    start begins start n / 2 outputs into the stream."""
    bits = np.random.PCG64(seed)
    bits.advance(start * n // 2)
    rng = np.random.Generator(bits)
    if start * n % 2:
        rng.integers(0, 2)  # the low half of the output the block starts in
    return np.ascontiguousarray((rng.integers(0, 2, size=(width, n)) * 2.0 - 1.0).T)


@functools.cache
def _bessel_columns(first: int, stop: int) -> np.ndarray:
    """Read-only 2 ive(k, t) for first <= k < stop, one row per t of GRID.
    ive is elementwise, so each entry has the bits of computing it alone.
    _heat_coefficients asks for one fixed sequence of ranges, each doubling
    the columns, so the cache holds four entries up to n = 10^8."""
    cols = 2 * ive(np.arange(first, stop), GRID[:, None])
    cols.setflags(write=False)
    return cols


def _heat_coefficients(n: int) -> np.ndarray:
    """Chebyshev coefficients c_0 = ive(0, t), c_k = 2 (-1)^k ive(k, t), k <= 2K,
    of exp(-t (x + 1)) on [-1, 1], one row per t of GRID. K is the smallest with
    n * sum_{k > 2K} |c_k(t)| <= TRUNCATION_BOUND at every t; a deflated probe
    has norm^2 <= n, so that bounds the truncation error of h(t). Past the last
    computed term c_m, I_{k+1}(t) / I_k(t) <= r = t / (m + 1/2 + sqrt(t^2 +
    (m + 1/2)^2)) (Amos 1974), so the rest sums to less than |c_m| r / (1 - r)."""
    c = _bessel_columns(0, 17)
    while True:
        m = c.shape[1] - 1
        r = GRID / (m + 0.5 + np.hypot(GRID, m + 0.5))
        # column j: the terms k > j up to m, plus the bound on those past m
        tails = np.cumsum(c[:, :0:-1], axis=1)[:, ::-1] + (c[:, -1] * r / (1 - r))[:, None]
        ok = (n * tails <= TRUNCATION_BOUND).all(axis=0)
        if ok.any():
            break
        c = np.hstack((c, _bessel_columns(m + 1, 2 * m + 1)))
    k_max = (int(np.argmax(ok)) + 1) // 2  # the first ok cut j, rounded up to even 2K
    c = c[:, : 2 * k_max + 1].copy()
    c[:, 0] /= 2
    c[:, 1::2] *= -1
    return c


def _chebyshev_operator(s, deg: np.ndarray):
    """M = 2 (L - I) in sorted CSR form, from the scaled adjacency S: -2 S off
    the diagonal. On a node with edges L's diagonal is 1 and M's an exact 0,
    which is not stored; an isolated node's is -2."""
    op = (sp.diags(np.where(deg > 0, 0.0, -2.0)) - 2.0 * s).tocsr()
    op.eliminate_zeros()
    op.sort_indices()
    return op


def _probe_block_moments(
    op, basis: np.ndarray, k_max: int, v: np.ndarray, exact: int = 0
) -> np.ndarray:
    """Chebyshev moments mu_k = sum over the columns z of z^T T_k(L - I) z,
    k = 0 .. 2 k_max, of the probe block v (n, width), a C-contiguous float64
    array, which is overwritten: first by its deflation against the zero
    eigenspace (the columns of basis), then as recurrence storage. Zero modes
    sit at x = -1, where |T_k| = 1, so one deflation suffices. op is
    M = 2 (L - I) from _chebyshev_operator. The moments of degree 2 .. 2
    exact, which the caller takes from _exact_moments, are left at 0 and
    cost no dot; mu_0 and mu_1 are always computed, as every higher moment
    is read off them.

    The recurrence T_{k+1} z = M T_k z - T_{k-1} z runs on U_k = s_k T_k z,
    s_k = 1, 1, -1, -1, 1, 1, ... (s_{k+1} = -s_{k-1}), so that U_{k+1} =
    s_{k+1} s_k M U_k + U_{k-1}: each step is one sparse-dense product
    accumulated in place into U_{k-1}, with M or -M (a negated copy of its
    data), and no pass that negates. U_0 = z and U_1 = M z / 2, which is
    exact. IEEE arithmetic is symmetric in sign, so every U_k has the bits
    of +-T_k z and the moments those of the plain recurrence. Step k has two
    moments, each one dot: mu_{2k} = 2 |U_k|^2 - mu_0 and mu_{2k+1} = 2
    s_{k+1} s_k <U_{k+1}, U_k> - mu_1. The dots are einsum, not BLAS, so their
    bits do not depend on the BLAS thread count."""
    n, width = v.shape
    if v.dtype != np.float64 or not v.flags.c_contiguous or op.shape != (n, n):
        # the accumulate writes through ravel() views, which would be copies,
        # and its native loop does not check the operator's size
        raise ValueError("the probe block must be a C-contiguous float64 (n, width) array")
    v -= basis @ (basis.T @ v)
    mu = np.zeros(2 * k_max + 1)
    mu[0] = np.einsum("ij,ij->", v, v)
    if not k_max:
        return mu
    prev, cur = v, 0.5 * (op @ v)
    mu[1] = np.einsum("ij,ij->", cur, v)
    data = {1: op.data, -1: np.negative(op.data)}
    for k in range(1, k_max + 1):
        if k > exact:
            mu[2 * k] = 2 * np.einsum("ij,ij->", cur, cur) - mu[0]
        if k == k_max:
            break
        sign = -1 if k % 2 else 1  # s_{k+1} s_k
        csr_matvecs(n, n, width, op.indptr, op.indices, data[sign], cur.ravel(), prev.ravel())
        if k >= exact:
            mu[2 * k + 1] = 2 * (sign * np.einsum("ij,ij->", prev, cur)) - mu[1]
        prev, cur = cur, prev
    return mu


def _exact_moments(op, count: int, steps: int) -> np.ndarray:
    """Exact deflated Chebyshev moments tr T_k(A) - count (-1)^k, k = 0 ..
    2 steps, of A = M/2 = L - I, where op is M from _chebyshev_operator and
    count the number of zero modes (connected components); these are the
    values whose probe averages _probe_block_moments estimates. The sparse
    recurrence T_{j+1} = M T_j - T_{j-1} keeps two matrices at a time, and
    each step gives two traces: tr T_{2j} = 2 |T_j|_F^2 - n and tr T_{2j+1} =
    2 <T_{j+1}, T_j>_F - tr T_1. Sparse products and differences store no
    duplicate entries, so a Frobenius product is a sum over stored data. The
    products are sparse and the sums einsum, not BLAS, so the bits do not
    depend on the BLAS thread count."""
    n = op.shape[0]
    mu = np.empty(2 * steps + 1)
    mu[0] = n
    prev, cur = sp.identity(n, format="csr"), 0.5 * op
    if steps:
        mu[1] = np.einsum("i->", cur.diagonal())
    for j in range(1, steps + 1):
        mu[2 * j] = 2 * np.einsum("i,i->", cur.data, cur.data) - n
        if j == steps:
            break
        prev = op @ cur - prev
        mu[2 * j + 1] = 2 * np.einsum("i->", prev.multiply(cur).data) - mu[1]
        prev, cur = cur, prev
    mu[0::2] -= count
    mu[1::2] += count
    return mu


def _heat_traces_estimated(
    n: int, edges: np.ndarray, probes: int, seed: int, exact_steps: int | None = EXACT_STEPS
) -> np.ndarray:
    """Chebyshev moments of L - I with the exact zero-eigenspace deflated,
    summed through the series of _heat_coefficients. The moments of degree
    k <= 2 min(exact_steps, K) are exact (_exact_moments). The rest are probe
    averages, scaled by the exact degree-0 moment over the probes' own so
    that the probes' spectral weights sum to their exact total (which makes
    the estimate exact on a graph whose nonzero eigenvalues are all equal,
    such as disjoint edges); exact_steps=None takes every moment from the
    probes, unscaled. The low degrees carry most of h(t) and vary most
    between probes, so the exact values act as a control variate, and the
    error left is the probes' estimate of the high degrees. On the ten 1.0k-
    to 10k-node circuit DAGs of the module docstring its norm over GRID
    against the dense eigenvalues averages 0.038 to 0.42 over probe seeds
    11-13, and is at most 0.79 (on nine such DAGs, 2.3 to 33 and at most 40
    with 512 probes and no exact moments).

    The exact moments and the probe blocks, PROBE_BLOCK probes at a time as
    the columns of one matrix, run on a thread pool with one worker per
    usable CPU (the sparse products release the GIL). Every task is
    submitted at once, and each block's task draws the block itself from its
    position in the stream of seed (_draw_probe_block), so a block exists
    only while a worker runs it. The blocks skip the dots of the degrees
    taken exact, and their moments are summed in draw order, so the result
    is bit-identical for any worker count.
    """
    s, deg = _scaled_adjacency(n, edges)
    basis = _zero_mode_basis(s, deg)
    op = _chebyshev_operator(s, deg)
    coef = _heat_coefficients(n)
    k_max = coef.shape[1] // 2
    steps = 0 if exact_steps is None else min(exact_steps, k_max)  # exact through degree 2 steps
    starts = range(0, probes, PROBE_BLOCK)

    def block(start: int) -> np.ndarray:
        v = _draw_probe_block(seed, start, min(PROBE_BLOCK, probes - start), n)
        return _probe_block_moments(op, basis, k_max, v, steps)

    mu = np.zeros(coef.shape[1])
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts) + 1)) as pool:
        if exact_steps is not None:
            exact = pool.submit(_exact_moments, op, basis.shape[1], steps)
        for moments in pool.map(block, starts):
            mu += moments
    mu /= probes
    if exact_steps is not None:
        low = exact.result()
        if mu[0] > 0:
            mu[low.size :] *= low[0] / mu[0]
        mu[: low.size] = low
    return basis.shape[1] + coef @ mu


def signature_path(d: CircuitDag) -> str:
    """"dense" or "estimated": the path netlsd_signature takes on d."""
    return "dense" if d.num_nodes <= DENSE_NODE_LIMIT else "estimated"


def netlsd_signature(d: CircuitDag) -> np.ndarray:
    """h(t) of d at each t of GRID, as a read-only float64 array."""
    n = d.num_nodes
    if n < 1:
        raise ValueError("graph must have at least one node")
    edges = _undirected_edges(d)
    if signature_path(d) == "dense":
        traces = _heat_traces_dense(n, edges)
    else:
        traces = _heat_traces_estimated(n, edges, PROBES, PROBE_SEED)
    traces.setflags(write=False)
    return traces


def circuit_signature(c: Circuit) -> np.ndarray:
    return netlsd_signature(to_dag(c))


def netlsd_divergence(a: Circuit | np.ndarray, b: Circuit | np.ndarray) -> float:
    """Distance between heat-trace signatures. Either side may be a signature
    precomputed by circuit_signature, so a side that is compared several
    times is estimated once; a signature of another shape than GRID's is a
    ValueError."""
    sig_a, sig_b = (s if isinstance(s, np.ndarray) else circuit_signature(s) for s in (a, b))
    if sig_a.shape != GRID.shape or sig_b.shape != GRID.shape:
        raise ValueError(f"signatures of shapes {sig_a.shape} and {sig_b.shape}, not {GRID.shape}")
    return float(np.linalg.norm(sig_a - sig_b))

