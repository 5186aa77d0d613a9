#!/usr/bin/env python3
"""Time the dense and the estimated heat-trace paths against each other.

For each DAG, the dense path (_heat_traces_dense, one eigvalsh) and the
estimator (_heat_traces_estimated with the shipped probes and seed) are timed
on netlsd.GRID, the minimum of --repeats calls each, under every BLAS
thread count of --threads. The DAGs are pipeline encodes (seed 3) of
gen_random_blocks(16, b, 1) over a range of block counts b, then the desk
DAGs that sit near the limit. netlsd.DENSE_NODE_LIMIT is set from this
sweep: dense at or below it, estimated above. Beside the times, each DAG's
error norm over the grid, |estimated - dense|, from the traces the timed
calls returned; the script exits 1 if any norm exceeds MAX_ERROR.

    python3 scripts/netlsd_crossover.py --threads 1 2

A BLAS library reads its thread count once, at load, so each count runs in
its own child process.
"""

import argparse
import os
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLOCKS = (4, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24, 28, 32, 40, 48)
DESK = ("qft4", "add4", "qft8", "add9")
SEED = 3
MAX_ERROR = 0.25  # the shipped estimator reads at most 0.12 on these DAGs


def _dags():
    from qcloak.analysis import make_baseline
    from qcloak.bench import desk_benchmarks, gen_random_blocks
    from qcloak.dag import to_dag
    from qcloak.pipeline import PipelineConfig, encode

    cfg = PipelineConfig(seed=SEED)
    for b in BLOCKS:
        yield f"random16 b={b} encoded", to_dag(encode(gen_random_blocks(16, b, 1), cfg).circuit)
    desk = desk_benchmarks()
    for name in DESK:
        yield f"{name} encoded", to_dag(encode(desk[name], cfg).circuit)
        yield f"{name} baseline", to_dag(make_baseline(desk[name]))


def _best_ms(fn, repeats: int):
    """The minimum time of repeats calls of fn, in ms, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best, result


def child(repeats: int) -> None:
    """Print one tab-separated row per DAG: label, nodes, dense ms, estimated
    ms, error norm."""
    sys.path.insert(0, SRC)
    import numpy as np

    from qcloak import netlsd

    for label, d in _dags():
        n, edges = d.num_nodes, netlsd._undirected_edges(d)
        dense, want = _best_ms(lambda: netlsd._heat_traces_dense(n, edges), repeats)
        est, got = _best_ms(
            lambda: netlsd._heat_traces_estimated(n, edges, netlsd.PROBES, netlsd.PROBE_SEED),
            repeats,
        )
        print(f"{label}\t{n}\t{dense:.1f}\t{est:.1f}\t{np.linalg.norm(got - want):.4f}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2], help="BLAS thread counts")
    ap.add_argument("--repeats", type=int, default=3, help="calls per path; the minimum is kept")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.repeats)
        return 0
    columns = {}
    for t in args.threads:
        env = dict(os.environ, **{var: str(t) for var in BLAS_VARS})
        cmd = [sys.executable, os.path.abspath(__file__), "--child", "--repeats", str(args.repeats)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
        columns[t] = [line.split("\t") for line in out.splitlines()]
    rows = columns[args.threads[0]]
    head = " | ".join(f"dense {t}T | estimated {t}T" for t in args.threads)
    print(f"| DAG | nodes | {head} | error |")
    print("|---|---|" + "---|---|" * len(args.threads) + "---|")
    errors = []
    for i, (label, nodes, *_rest) in enumerate(rows):
        cells = " | ".join(f"{columns[t][i][2]} | {columns[t][i][3]}" for t in args.threads)
        # the estimate's bits do not depend on the BLAS thread count, the dense one's last bits may
        errors.append(max(float(columns[t][i][4]) for t in args.threads))
        print(f"| {label} | {nodes} | {cells} | {errors[-1]:.4f} |")
    for t in args.threads:
        # the largest swept node count at which the dense path is still no slower
        dense_wins = [int(n) for _label, n, dense, est, _error in columns[t] if float(dense) <= float(est)]
        print(f"{t} BLAS thread(s): dense faster on no swept DAG above {max(dense_wins, default=0)} nodes")
    print(f"largest error norm: {max(errors):.4f}")
    if max(errors) > MAX_ERROR:
        print(f"an error norm exceeds MAX_ERROR = {MAX_ERROR}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
