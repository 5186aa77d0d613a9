"""Command-line driver: encode, decode, simulate, compare, qaoa-demo.

Logs go to stderr; stdout carries a single JSON summary per invocation.
Exit codes: 0 success, 1 parse/validation error, 2 failed internal
equivalence check during encoding (one block candidate, the structural
whole-circuit certificate, the random-stimuli check up to 10 qubits, or the
CX count and CX depth against the baseline), 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import tempfile
import time

from . import distributions, netlsd
from .analysis import compare, make_baseline, report_to_json, reports_to_csv
from .bench import (
    QAOA_CASE_STUDY_START,
    QAOA_MODES,
    loss_trace_to_csv,
    ring_problem,
    run_qaoa_case_study,
)
from .circuit import gate_counts
from .dag import cx_depth, to_dag
from .netlsd import netlsd_divergence, signature_path
from .obfuscate import decode, key_from_json, key_to_json
from .pipeline import (
    PipelineConfig,
    SynthesisEquivalenceError,
    encode,
    whole_circuit_check,
)
from .qasm import parse_qasm, serialize_qasm
from .simulator import sample
from .synthesis import SynthesisError

log = logging.getLogger("qcloak")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qcloak-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_encode(args) -> int:
    circuit = parse_qasm(_read(args.input))
    t0 = time.perf_counter()
    enc = encode(circuit, PipelineConfig(seed=args.seed))
    wall = time.perf_counter() - t0
    baseline = make_baseline(circuit)
    counts_enc, counts_base = gate_counts(enc.circuit), gate_counts(baseline)
    depth_enc, depth_base = cx_depth(enc.circuit), cx_depth(baseline)
    if counts_enc.cx != counts_base.cx or depth_enc > depth_base:
        raise SynthesisEquivalenceError(
            f"CX budget: the encode has {counts_enc.cx} CX at CX depth {depth_enc}, "
            f"its baseline {counts_base.cx} at {depth_base}"
        )
    # the key first: an encoded circuit on disk without its key cannot be decoded
    _write_atomic(args.key, key_to_json(enc.key))
    _write_atomic(args.output, serialize_qasm(enc.circuit))
    t0 = time.perf_counter()
    # one DAG per circuit, signed once and named by the path it took; the
    # signatures are looked up in netlsd at call time, so tracing sees them
    dags = {"encoded": to_dag(enc.circuit), "baseline": to_dag(baseline)}
    sigs = {name: netlsd.netlsd_signature(d) for name, d in dags.items()}
    divergence = netlsd_divergence(sigs["encoded"], sigs["baseline"])
    netlsd_wall = time.perf_counter() - t0
    log.info("encoded %s -> %s (key %s)", args.input, args.output, args.key)
    _emit(
        {
            "num_qubits": circuit.num_qubits,
            "gates": {
                "encoded": counts_enc.total,
                "baseline": counts_base.total,
                "cx_encoded": counts_enc.cx,
                "cx_baseline": counts_base.cx,
                "cx_depth_encoded": depth_enc,
                "cx_depth_baseline": depth_base,
                "sx_x_encoded": counts_enc.sx_plus_x,
                "sx_x_baseline": counts_base.sx_plus_x,
            },
            "netlsd_vs_baseline": divergence,
            "netlsd_path": {name: signature_path(d) for name, d in dags.items()},
            "netlsd_seconds": netlsd_wall,
            "encode_seconds": wall,
            "whole_circuit_check": whole_circuit_check(circuit.num_qubits),
        }
    )
    return 0


def cmd_decode(args) -> int:
    dist = distributions.from_json(_read(args.distribution))
    key = key_from_json(_read(args.key))
    out = decode(dist, key.measured())
    # the summary first: top() fails on an empty distribution, and then no file is written
    summary = {"num_bits": out.num_bits, "outcomes": len(out.outcomes), "top": out.top()}
    _write_atomic(args.output, distributions.to_json(out))
    log.info("decoded %s with %s -> %s", args.distribution, args.key, args.output)
    _emit(summary)
    return 0


def cmd_simulate(args) -> int:
    circuit = parse_qasm(_read(args.input))
    if circuit.num_qubits > args.sim_cap:
        raise ValueError(
            f"{circuit.num_qubits} qubits exceeds simulation cap {args.sim_cap}"
        )
    dist = sample(circuit, args.shots, args.seed)
    _write_atomic(args.output, distributions.to_json(dist))
    log.info("sampled %d shots from %s -> %s", args.shots, args.input, args.output)
    _emit({"num_bits": dist.num_bits, "shots": args.shots, "top": dist.top()})
    return 0


def cmd_compare(args) -> int:
    if args.shots < 1:
        raise ValueError("shots must be at least 1")
    circuit = parse_qasm(_read(args.input))
    shots = None if args.analytic else args.shots
    report = compare(
        circuit,
        PipelineConfig(seed=args.seed),
        shots=shots,
        structural_only=args.structural_only,
        name=args.name or os.path.basename(args.input),
        sim_cap=args.sim_cap,
    )
    _write_atomic(args.json, report_to_json(report))
    if args.csv:
        _write_atomic(args.csv, reports_to_csv([report]))
    log.info("compared %s -> %s", args.input, args.json)
    print(report_to_json(report))
    return 0


def cmd_qaoa_demo(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    prob = ring_problem(4, 1, (args.gamma, args.beta))
    summary = {}
    for mode in QAOA_MODES:
        result = run_qaoa_case_study(
            prob, mode, iterations=args.iterations, seed=args.seed, shots=args.shots
        )
        _write_atomic(
            os.path.join(args.outdir, f"loss_{mode}.csv"), loss_trace_to_csv(result)
        )
        _write_atomic(
            os.path.join(args.outdir, f"final_{mode}.json"),
            distributions.to_json(result.final_distribution),
        )
        ranked = sorted(
            result.final_distribution.normalized().outcomes.items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        summary[mode] = {
            "final_loss": result.final_loss,
            "evaluations": len(result.losses),
            "parameters": list(result.parameters),
            "top2": [s for s, _ in ranked[:2]],
        }
        log.info("qaoa %s: final loss %.4f", mode, result.final_loss)
    _write_atomic(
        os.path.join(args.outdir, "summary.json"), json.dumps(summary, indent=2) + "\n"
    )
    _emit(summary)
    return 0


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--sim-cap", type=int, default=20, dest="sim_cap")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. Subcommand functions are
    not stored in it: main looks each one up by name at call time."""
    parser = _Parser(prog="qcloak", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="obfuscate a circuit and emit its key")
    p.add_argument("input", help="input QASM file")
    p.add_argument("output", help="obfuscated QASM file")
    p.add_argument("key", help="key JSON file")
    p.add_argument("--seed", type=int, default=0, help="master pipeline seed")

    p = sub.add_parser("decode", help="apply a key to a measured distribution")
    p.add_argument("distribution", help="distribution JSON file")
    p.add_argument("key", help="key JSON file")
    p.add_argument("output", help="decoded distribution JSON file")

    p = sub.add_parser("simulate", help="sample a circuit's output distribution")
    p.add_argument("input", help="input QASM file")
    p.add_argument("output", help="counts JSON file")
    p.add_argument("--seed", type=int, default=0)
    _add_sampling_flags(p)

    p = sub.add_parser("compare", help="encode and report metrics vs baseline")
    p.add_argument("input", help="input QASM file")
    p.add_argument("--json", default="report.json", help="report JSON path")
    p.add_argument("--csv", default="", help="optional report CSV path")
    p.add_argument("--name", default="", help="benchmark name for the report")
    p.add_argument("--analytic", action="store_true", help="exact distributions")
    p.add_argument(
        "--structural-only",
        action="store_true",
        dest="structural_only",
        help="skip simulation metrics",
    )
    p.add_argument("--seed", type=int, default=0, help="master pipeline seed")
    _add_sampling_flags(p)

    p = sub.add_parser("qaoa-demo", help="ring-4 MaxCut case study, all three modes")
    p.add_argument("outdir", help="directory for loss CSVs and final distributions")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=QAOA_CASE_STUDY_START[0])
    p.add_argument("--beta", type=float, default=QAOA_CASE_STUDY_START[1])

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (SynthesisEquivalenceError, SynthesisError) as exc:
        log.error("equivalence check failed: %s", exc)
        return 2
    except ValueError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
