"""The benchmark's three workloads. Importing this module imports qcloak.

Each workload is a closed loop with one client: ``next_batch`` draws the
next ops from the workload seed (untimed), ``run_op`` performs one op
(timed), and ``check`` verifies its outputs (untimed). qcloak functions are
always looked up through their module at call time, the way qcloak's own
callers look them up, so the trace wrappers see every call.

- desk_cli: each op takes one circuit through ``qcloak.cli.main``
  (encode, simulate, decode); a batch is one pass over the 11 circuits.
- qaoa_loop: each op is one evaluation of the ring-4, p=1 MaxCut case study,
  done the way ``bench.run_qaoa_case_study`` does one evaluation.
- structural_compare: each op is a structural-only ``analysis.compare`` of a
  fresh ``gen_random_blocks(128, 300)`` circuit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

import qcloak.cli as cli
from qcloak import analysis, bench, distributions, obfuscate, pipeline, qasm, simulator
from qcloak.circuit import gate_counts
from qcloak.dag import cx_depth

TVD_TOL = 1e-9
SEED_RANGE = 2**31
QAOA_SHOTS = 8192

# Known defects, recorded instead of hidden: the op still runs and counts as
# failed, but the run stays correct while this is the only way it fails.
EXPECTED_FAILURES = {
    "add9_sum": "decode of a partially measured circuit exits 1 "
                "(outcome length vs key length); ROADMAP item 4",
}


@dataclass
class Check:
    errors: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _sx_x_overhead_pct(encoded: int, baseline: int) -> float:
    return 100.0 * (encoded - baseline) / max(baseline, 1)


def _measured(c) -> tuple[int, ...]:
    return tuple(sorted(c.measured_qubits)) or tuple(range(c.num_qubits))


@dataclass(frozen=True)
class Reference:
    """Untimed ground truth for one input circuit: its baseline."""

    circuit: object
    cx: int
    depth: int
    dist: object  # analytic distribution of the baseline

    @classmethod
    def of(cls, circuit) -> "Reference":
        base = analysis.make_baseline(circuit)
        return cls(base, gate_counts(base).cx, cx_depth(base), simulator.ideal_distribution(base))


def _check_encoded(enc_circ, key, ref: Reference, measured, check: Check) -> None:
    """CX count equal, CX depth no greater, exact decode of the analytic
    distribution; also records the uncorrected TVD."""
    cx = gate_counts(enc_circ).cx
    if cx != ref.cx:
        check.errors.append(f"encoded CX count {cx} != baseline {ref.cx}")
    depth = cx_depth(enc_circ)
    if depth > ref.depth:
        check.errors.append(f"encoded CX depth {depth} > baseline {ref.depth}")
    enc_dist = simulator.ideal_distribution(enc_circ)
    gap = analysis.tvd(obfuscate.decode(enc_dist, key.restricted(measured)), ref.dist)
    if gap > TVD_TOL:
        check.errors.append(f"decoded analytic distribution off by TVD {gap:.3g}")
    check.quality["uncorrected_tvd"] = analysis.tvd(enc_dist, ref.dist)


class _LastError(logging.Handler):
    """Keeps the CLI's last error message for the failure record; emits nothing."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.message = ""

    def emit(self, record):
        self.message = record.getMessage()


@dataclass(frozen=True)
class DeskOp:
    circuit: str
    enc_seed: int
    sim_seed: int

    @property
    def label(self) -> str:
        return self.circuit


def desk_circuits(tiny: bool = False) -> dict:
    circs = dict(bench.desk_benchmarks())
    _m, _a, b_wires, cout = bench.adder_layout(9)
    sum_wires = b_wires + ([cout] if cout is not None else [])
    circs["add9_sum"] = replace(circs["add9"], measured_qubits=tuple(sum_wires))
    if tiny:
        circs = {k: circs[k] for k in ("ghz4", "w4", "qaoa_ring4")}
    return circs


class DeskCli:
    """Whole passes over the desk circuits, in an order set by the seed."""

    name = "desk_cli"
    COMMANDS = ("encode", "simulate", "decode")

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.circuits = desk_circuits(tiny)
        self.refs: dict[str, Reference] = {}
        self.paths = {}
        for name, circ in self.circuits.items():
            base = os.path.join(workdir, name)
            p = {s: f"{base}.{s}" for s in ("qasm", "enc.qasm", "key.json",
                                             "counts.json", "dec.json")}
            with open(p["qasm"], "w") as fh:
                fh.write(qasm.serialize_qasm(self.circuits[name]))
            self.paths[name] = p
        root = logging.getLogger()
        root.setLevel(logging.INFO)
        self.last_error = _LastError()
        # A handler on the root logger makes cli.main's basicConfig a no-op,
        # so the CLI's log lines are formatted nowhere and stderr stays quiet.
        root.addHandler(self.last_error)
        self.corrupt = False  # self-test hook: drop one CX from every encoded circuit

    def warm_up(self) -> None:
        op = DeskOp("ghz8" if "ghz8" in self.circuits else "ghz4", 0, 0)
        self.check(op, self.run_op(op))

    def next_batch(self) -> list[DeskOp]:
        names = list(self.circuits)
        order = self.rng.permutation(len(names))
        seeds = self.rng.integers(0, SEED_RANGE, size=(len(names), 2))
        return [DeskOp(names[i], int(s[0]), int(s[1])) for i, s in zip(order, seeds)]

    def _argv(self, cmd: str, op: DeskOp) -> list[str]:
        p = self.paths[op.circuit]
        if cmd == "encode":
            return ["encode", p["qasm"], p["enc.qasm"], p["key.json"], "--seed", str(op.enc_seed)]
        if cmd == "simulate":
            return ["simulate", p["enc.qasm"], p["counts.json"], "--seed", str(op.sim_seed)]
        return ["decode", p["counts.json"], p["key.json"], p["dec.json"]]

    def prepare(self, op: DeskOp) -> None:
        for s in ("enc.qasm", "key.json", "counts.json", "dec.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.paths[op.circuit][s])
        self.last_error.message = ""

    def run_op(self, op: DeskOp) -> dict:
        out = {}
        for cmd in self.COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(self._argv(cmd, op))
            out[cmd] = (code, buf.getvalue())
            if code != 0:
                break
            if cmd == "encode" and self.corrupt:
                _drop_one_cx(self.paths[op.circuit]["enc.qasm"])
        return out

    def check(self, op: DeskOp, out: dict) -> Check:
        check = Check()
        for cmd in self.COMMANDS:
            if cmd not in out:
                check.errors.append(f"{cmd} did not run")
            elif out[cmd][0] != 0:
                msg = self.last_error.message
                check.errors.append(f"{cmd} exited {out[cmd][0]}" + (f": {msg}" if msg else ""))
        if out.get("encode", (1,))[0] != 0:
            return check
        p = self.paths[op.circuit]
        circ = self.circuits[op.circuit]
        measured = _measured(circ)
        enc_text, key_text = _read(p["enc.qasm"]), _read(p["key.json"])
        check.digest = _sha(op.circuit, enc_text, key_text)
        key = obfuscate.key_from_json(key_text)
        if op.circuit not in self.refs:
            self.refs[op.circuit] = Reference.of(circ)
        _check_encoded(qasm.parse_qasm(enc_text), key, self.refs[op.circuit], measured, check)
        summary = json.loads(out["encode"][1])
        g = summary["gates"]
        check.quality["netlsd_vs_baseline"] = summary["netlsd_vs_baseline"]
        check.quality["sx_x_overhead_pct"] = _sx_x_overhead_pct(g["sx_x_encoded"], g["sx_x_baseline"])
        if out.get("decode", (1,))[0] == 0:
            counts = distributions.from_json(_read(p["counts.json"]))
            cli_dec = distributions.from_json(_read(p["dec.json"]))
            lib_dec = obfuscate.decode(counts, key.restricted(measured))
            if (cli_dec.num_bits, cli_dec.outcomes) != (lib_dec.num_bits, lib_dec.outcomes):
                check.errors.append("CLI decode differs from library decode with the restricted key")
        return check


def _drop_one_cx(path: str) -> None:
    lines = _read(path).splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("cx "))
    with open(path, "w") as fh:
        fh.writelines(lines[:i] + lines[i + 1:])


@dataclass(frozen=True)
class QaoaOp:
    mode: str
    params: tuple[float, float]
    enc_seed: int
    samp_seed: int

    @property
    def label(self) -> str:
        return self.mode


class QaoaLoop:
    """Single evaluations of the ring-4, p=1 MaxCut case study; modes rotate."""

    name = "qaoa_loop"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.prob = bench.ring_problem(4, 1, bench.QAOA_CASE_STUDY_START)
        self.table = bench.cut_values(self.prob)
        self.cfg = pipeline.PipelineConfig()
        self.count = 0

    def warm_up(self) -> None:
        for mode in bench.QAOA_MODES:
            op = QaoaOp(mode, bench.QAOA_CASE_STUDY_START, 0, 0)
            self.check(op, self.run_op(op))

    def next_batch(self) -> list[QaoaOp]:
        mode = bench.QAOA_MODES[self.count % len(bench.QAOA_MODES)]
        self.count += 1
        gamma, beta = self.rng.uniform(0, math.pi), self.rng.uniform(0, math.pi / 2)
        enc_seed, samp_seed = (int(v) for v in self.rng.integers(0, SEED_RANGE, size=2))
        return [QaoaOp(mode, (float(gamma), float(beta)), enc_seed, samp_seed)]

    def prepare(self, op: QaoaOp) -> None:
        pass

    def run_op(self, op: QaoaOp):
        circ = bench.build_qaoa_circuit(replace(self.prob, parameters=op.params))
        enc = None
        if op.mode == "baseline":
            dist = bench.sample(bench.make_baseline(circ), QAOA_SHOTS, op.samp_seed)
        else:
            enc = bench.encode(circ, replace(self.cfg, seed=op.enc_seed))
            dist = bench.sample(enc.circuit, QAOA_SHOTS, op.samp_seed)
            if op.mode == "corrected":
                dist = bench.decode(dist, enc.key)
        loss = -bench.expectation(dist, self.table)
        return circ, enc, dist, loss

    def check(self, op: QaoaOp, out) -> Check:
        circ, enc, dist, loss = out
        check = Check()
        if dist.kind != "counts" or dist.total != QAOA_SHOTS:
            check.errors.append(f"sampled {dist.total} shots, expected {QAOA_SHOTS}")
        if not -len(self.prob.edges) <= loss <= 0:
            check.errors.append(f"loss {loss} outside [-{len(self.prob.edges)}, 0]")
        parts = [op.mode, repr(loss), distributions.to_json(dist)]
        if enc is not None:
            parts += [qasm.serialize_qasm(enc.circuit), obfuscate.key_to_json(enc.key)]
            ref = Reference.of(circ)
            _check_encoded(enc.circuit, enc.key, ref, _measured(circ), check)
            check.quality["netlsd_vs_baseline"] = analysis.netlsd_divergence(enc.circuit, ref.circuit)
            check.quality["sx_x_overhead_pct"] = _sx_x_overhead_pct(
                gate_counts(enc.circuit).sx_plus_x, gate_counts(ref.circuit).sx_plus_x)
        check.digest = _sha(*parts)
        return check


@dataclass(frozen=True)
class StructuralOp:
    circuit: object
    circuit_seed: int
    pipeline_seed: int

    @property
    def label(self) -> str:
        return f"random{self.circuit.num_qubits}-{self.circuit_seed}"


class StructuralCompare:
    """Structural-only comparisons of fresh seeded 128-qubit random circuits."""

    name = "structural_compare"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.rng = np.random.default_rng(seed)
        self.size = (16, 40) if tiny else (128, 300)

    def warm_up(self) -> None:
        circ = bench.gen_random_blocks(8, 20, seed=0)
        op = StructuralOp(circ, 0, 0)
        self.check(op, self.run_op(op))

    def next_batch(self) -> list[StructuralOp]:
        circuit_seed, pipeline_seed = (int(v) for v in self.rng.integers(0, SEED_RANGE, size=2))
        circ = bench.gen_random_blocks(*self.size, seed=circuit_seed)
        return [StructuralOp(circ, circuit_seed, pipeline_seed)]

    def prepare(self, op: StructuralOp) -> None:
        pass

    def run_op(self, op: StructuralOp):
        return analysis.compare(op.circuit, pipeline.PipelineConfig(seed=op.pipeline_seed),
                                structural_only=True)

    def check(self, op: StructuralOp, report) -> Check:
        # Full 128-qubit equivalence cannot be checked until encode has a
        # check that scales (ROADMAP item 2); these are the structural claims.
        check = Check()
        if report.cx_delta != 0:
            check.errors.append(f"cx_delta {report.cx_delta} != 0")
        if report.depth_delta > 0:
            check.errors.append(f"depth_delta {report.depth_delta} > 0")
        if not report.netlsd > 0:
            check.errors.append(f"netlsd {report.netlsd} not > 0")
        check.quality["netlsd_vs_baseline"] = report.netlsd
        check.quality["sx_x_overhead_pct"] = report.sx_x_delta_pct
        enc = pipeline.encode(op.circuit, pipeline.PipelineConfig(seed=op.pipeline_seed))
        fields = json.loads(analysis.report_to_json(report))
        del fields["wall_times"]
        check.digest = _sha(qasm.serialize_qasm(enc.circuit), obfuscate.key_to_json(enc.key),
                            json.dumps(fields, sort_keys=True))
        return check


WORKLOADS = {w.name: w for w in (DeskCli, QaoaLoop, StructuralCompare)}
