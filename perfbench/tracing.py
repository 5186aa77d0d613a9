"""Outside-in layer trace of qcloak for the benchmark's traced runs.

Wrappers are installed on the module attribute through which each caller
looks a function up (qcloak modules use ``from .x import f``, so wrapping
``qcloak.x.f`` alone would miss them). Every target is resolved when the
tracer is installed; a missing name raises instead of reading zero later.

Spans live in memory (name, start, end, parent span, op id) and are written
out when the run ends. A span's self time is its duration minus the time its
child spans cover; spans nest strictly because the benchmark is one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter


class TraceTargetError(RuntimeError):
    """A trace wrapper's target does not exist in the program under test."""


def _count_key(tracer, args, kwargs, result):
    _circ, key = result
    tracer.counters["keys"] += 1
    if "1" not in key.flip_mask:
        tracer.counters["zero_keys"] += 1


def _count_rx_pairs(tracer, args, kwargs, result):
    tracer.counters["rx_pairs"] += len(result[1])


def _count_blocks(tracer, args, kwargs, result):
    for b in result.blocks:
        tracer.counters["blocks_1q" if len(b.qubits) == 1 else "blocks_2q"] += 1


def _count_candidates(tracer, args, kwargs, result):
    tracer.counters["candidate_sets"] += 1
    tracer.counters["candidates"] += len(result)


def _count_nodes(tracer, args, kwargs, result):
    d = args[0] if args else kwargs["d"]
    tracer.counters["nodes_max"] = max(tracer.counters["nodes_max"], d.num_nodes)


# (span name, module, attribute, counter hook). The span name "netlsd" is
# split into netlsd.dense / netlsd.estimated by DAG size at call time.
TARGETS = (
    ("cli.encode", "qcloak.cli", "cmd_encode", None),
    ("cli.simulate", "qcloak.cli", "cmd_simulate", None),
    ("cli.decode", "qcloak.cli", "cmd_decode", None),
    ("qasm.parse_qasm", "qcloak.cli", "parse_qasm", None),
    ("qasm.serialize_qasm", "qcloak.cli", "serialize_qasm", None),
    ("obfuscate.key_to_json", "qcloak.cli", "key_to_json", None),
    ("obfuscate.key_from_json", "qcloak.cli", "key_from_json", None),
    ("distributions.to_json", "qcloak.distributions", "to_json", None),
    ("distributions.from_json", "qcloak.distributions", "from_json", None),
    ("pipeline.encode", "qcloak.cli", "encode", None),
    ("pipeline.encode", "qcloak.analysis", "encode", None),
    ("pipeline.encode", "qcloak.bench", "encode", None),
    ("pipeline.circuit_unitary", "qcloak.pipeline", "circuit_unitary", None),
    ("pipeline.equal_up_to_global_phase", "qcloak.pipeline", "equal_up_to_global_phase", None),
    ("obfuscate.inject_x_end", "qcloak.pipeline", "inject_x_end", _count_key),
    ("obfuscate.inject_rx_pairs", "qcloak.pipeline", "inject_rx_pairs", _count_rx_pairs),
    ("obfuscate.decode", "qcloak.cli", "decode", None),
    ("obfuscate.decode", "qcloak.analysis", "decode", None),
    ("obfuscate.decode", "qcloak.bench", "decode", None),
    ("partition.form_blocks", "qcloak.pipeline", "form_blocks", _count_blocks),
    ("partition.form_blocks", "qcloak.analysis", "form_blocks", _count_blocks),
    ("partition.reassemble", "qcloak.pipeline", "reassemble", None),
    ("partition.reassemble", "qcloak.analysis", "reassemble", None),
    ("partition.block_unitary", "qcloak.synthesis", "block_unitary", None),
    ("synthesis.synthesize_block", "qcloak.pipeline", "synthesize_block", None),
    ("synthesis.generate_candidates", "qcloak.synthesis", "generate_candidates", _count_candidates),
    ("synthesis.generate_candidates", "qcloak.analysis", "generate_candidates", None),
    ("synthesis.select_candidate", "qcloak.synthesis", "select_candidate", None),
    ("synthesis.select_candidate", "qcloak.analysis", "select_candidate", None),
    ("synthesis.circuit_unitary", "qcloak.synthesis", "circuit_unitary", None),
    ("synthesis.equal_up_to_global_phase", "qcloak.synthesis", "equal_up_to_global_phase", None),
    ("synthesis.selection_netlsd", "qcloak.synthesis", "netlsd_divergence", None),
    ("kak.kak_decompose", "qcloak.synthesis", "kak_decompose", None),
    ("netlsd.netlsd_divergence", "qcloak.cli", "netlsd_divergence", None),
    ("netlsd.netlsd_divergence", "qcloak.analysis", "netlsd_divergence", None),
    ("netlsd", "qcloak.netlsd", "netlsd_signature", _count_nodes),
    ("dag.to_dag", "qcloak.netlsd", "to_dag", None),
    ("dag.cx_depth", "qcloak.analysis", "cx_depth", None),
    ("analysis.make_baseline", "qcloak.cli", "make_baseline", None),
    ("analysis.make_baseline", "qcloak.analysis", "make_baseline", None),
    ("analysis.make_baseline", "qcloak.bench", "make_baseline", None),
    ("analysis.compare", "qcloak.analysis", "compare", None),
    ("simulator.sample", "qcloak.cli", "sample", None),
    ("simulator.sample", "qcloak.analysis", "sample", None),
    ("simulator.sample", "qcloak.bench", "sample", None),
    ("simulator.ideal_distribution", "qcloak.simulator", "ideal_distribution", None),
    ("simulator.ideal_distribution", "qcloak.analysis", "ideal_distribution", None),
    ("simulator.expectation", "qcloak.bench", "expectation", None),
    ("bench.build_qaoa_circuit", "qcloak.bench", "build_qaoa_circuit", None),
)

# Metrics summed over several span names: (metric stem, timed spans, span counted as a call).
GROUPS = (
    ("pipeline.equiv_check", ("pipeline.circuit_unitary", "pipeline.equal_up_to_global_phase"),
     "pipeline.equal_up_to_global_phase"),
    ("synthesis.candidate_check", ("synthesis.circuit_unitary", "synthesis.equal_up_to_global_phase"),
     "synthesis.equal_up_to_global_phase"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self.active = False
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        resolved, missing = [], []
        for name, modname, attr, hook in TARGETS:
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                missing.append(f"{modname}.{attr}")
                continue
            if not callable(fn):
                missing.append(f"{modname}.{attr} (not callable)")
                continue
            resolved.append((name, modname, attr, fn, hook))
        try:
            dense_limit = importlib.import_module("qcloak.netlsd").DENSE_NODE_LIMIT
        except AttributeError:
            missing.append("qcloak.netlsd.DENSE_NODE_LIMIT")
        if missing:
            raise TraceTargetError("trace targets not found: " + ", ".join(missing))
        for name, modname, attr, fn, hook in resolved:
            mod = importlib.import_module(modname)
            if name == "netlsd":
                name = lambda args, kwargs, _lim=dense_limit: _netlsd_path(args, kwargs, _lim)
            setattr(mod, attr, self._wrap(fn, name, hook))
            self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name if isinstance(name, str) else name(args, kwargs))
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.ops.append(tracer.op)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def top_level_seconds(self) -> dict[int, float]:
        """Per op id, the time covered by spans that have no parent."""
        out: dict[int, float] = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent < 0:
                out[self.ops[i]] += self.ends[i] - self.starts[i]
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total ms, self ms and call count over the run."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            t = totals.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            dur = self.ends[i] - self.starts[i]
            t["ms"] += 1e3 * dur
            t["self_ms"] += 1e3 * (dur - child[i])
            t["calls"] += 1
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i],
                                     self.parents[i], self.ops[i]]) + "\n")


def _netlsd_path(args, kwargs, dense_limit: int) -> str:
    d = args[0] if args else kwargs["d"]
    if d.num_nodes > dense_limit or kwargs.get("force_estimate", False):
        return "netlsd.estimated"
    return "netlsd.dense"


def span_names() -> list[str]:
    names = {name for name, _m, _a, _h in TARGETS if name != "netlsd"}
    return sorted(names | {"netlsd.dense", "netlsd.estimated"})
