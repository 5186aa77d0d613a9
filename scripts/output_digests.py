#!/usr/bin/env python3
"""Write sha256 digests of qcloak's deterministic outputs to one JSON file.

Two source trees that write identical files give byte-identical encoded
circuits, keys, baselines, compare reports and heat-trace signatures on these
inputs, so a change that must not move an output bit is checked with `cmp`:

    PYTHONHASHSEED=0 python3 scripts/output_digests.py out.json

BLAS thread counts move the last bits of dense products, so the script pins
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless they
are already set.

Digested outputs:
- encoded QASM and key JSON of every desk circuit, add9_sum (add9 measuring
  only its sum register), qft32 and random128 at pipeline seeds 0, 3 and 7;
- each of those circuits' make_baseline QASM, and for qft32 and random128
  the X-only baseline of the seed-3 encode, built from a table shared with
  the baseline pass, as compare builds it;
- for qft32 and random128, the identity reassembly of the seed-3 encode's
  X-injected circuit after RX injection at seed 3: the partition's own rows
  and bounds passed as the fragment set, so every block is placed back
  unchanged, which pins reassemble's placement apart from synthesis;
- compare JSON and CSV (wall times removed) on ghz4, qft4, add4 and w8, in
  analytic, 2000-shot and structural-only modes;
- dense and estimated heat-trace signatures of the qft8 and random16
  baselines;
- through circuit_signature, which takes the estimated path on both, the
  signatures of the random128 baseline (7.9k nodes) and of qft8's seed-3
  encode (1.1k nodes, above netlsd.DENSE_NODE_LIMIT).
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

# Before numpy loads, as perfbench pins its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qcloak import netlsd
from qcloak.analysis import compare, make_baseline, report_to_json, reports_to_csv
from qcloak.bench import (
    adder_layout,
    desk_benchmarks,
    gen_qft,
    gen_random_blocks,
    structural_benchmarks,
)
from qcloak.dag import to_dag
from qcloak.obfuscate import inject_rx_pairs, key_to_json
from qcloak.partition import form_blocks, reassemble
from qcloak.pipeline import PipelineConfig, encode
from qcloak.qasm import serialize_qasm

ENCODE_SEEDS = (0, 3, 7)
COMPARE_CIRCUITS = ("ghz4", "qft4", "add4", "w8")
COMPARE_MODES = {
    "analytic": {"shots": None},
    "shots2000": {"shots": 2000},
    "structural": {"structural_only": True},
}
COMPARE_SEED = 3
X_ONLY_CIRCUITS = ("qft32", "random128")  # also digested as an identity reassembly


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _circuits() -> dict:
    circs = dict(desk_benchmarks())
    _m, _a, b_wires, cout = adder_layout(9)
    sum_wires = b_wires + ([cout] if cout is not None else [])
    circs["add9_sum"] = replace(circs["add9"], measured_qubits=tuple(sum_wires))
    circs.update(structural_benchmarks())
    return circs


def _signature_digests(name: str, c) -> dict:
    d = to_dag(make_baseline(c))
    edges = netlsd._undirected_edges(d)
    dense = netlsd._heat_traces_dense(d.num_nodes, edges)
    est = netlsd._heat_traces_estimated(d.num_nodes, edges, netlsd.PROBES, netlsd.PROBE_SEED)
    return {f"{name}/dense": _sha(dense.tobytes()), f"{name}/estimated": _sha(est.tobytes())}


def digests() -> dict:
    out = {}
    circs = _circuits()
    for name, c in circs.items():
        table: dict = {}
        out[f"baseline/{name}"] = _sha(serialize_qasm(make_baseline(c, table)))
        for seed in ENCODE_SEEDS:
            enc = encode(c, PipelineConfig(seed=seed))
            out[f"encode/{name}/seed{seed}/qasm"] = _sha(serialize_qasm(enc.circuit))
            out[f"encode/{name}/seed{seed}/key"] = _sha(key_to_json(enc.key))
            if seed == COMPARE_SEED and name in X_ONLY_CIRCUITS:
                x_only = make_baseline(enc.x_injected, table)
                out[f"baseline/{name}/x_only"] = _sha(serialize_qasm(x_only))
                p, _record = inject_rx_pairs(form_blocks(enc.x_injected), seed)
                identity = reassemble(p, p.rows, p.bounds)
                out[f"encode/{name}/seed{seed}/rx_identity"] = _sha(serialize_qasm(identity))
    cfg = PipelineConfig(seed=COMPARE_SEED)
    for name in COMPARE_CIRCUITS:
        for mode, kwargs in COMPARE_MODES.items():
            r = replace(compare(circs[name], cfg, name=name, **kwargs), wall_times={})
            out[f"compare/{name}/{mode}/json"] = _sha(report_to_json(r))
            out[f"compare/{name}/{mode}/csv"] = _sha(reports_to_csv([r]))
    for name, c in (("qft8", gen_qft(8)), ("random16", gen_random_blocks(16, 30, seed=1))):
        out.update(
            {f"signature/{k}": v for k, v in _signature_digests(name, c).items()}
        )
    dispatched = {
        "random128": make_baseline(circs["random128"]),
        "qft8_encoded": encode(circs["qft8"], PipelineConfig(seed=3)).circuit,
    }
    for name, c in dispatched.items():
        assert netlsd.signature_path(to_dag(c)) == "estimated", name
        est = netlsd.circuit_signature(c)
        out[f"signature/{name}/estimated"] = _sha(est.tobytes())
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="output JSON path")
    args = ap.parse_args()
    result = digests()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(result)} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
