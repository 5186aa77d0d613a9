#!/usr/bin/env python3
"""qcloak benchmark: three closed-loop workloads with one client each.

Run from the repository root:

    python3 perfbench/run.py --workload desk_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20   # every workload, untraced and traced
    python3 perfbench/run.py --self-test                   # schema and failure-counting check

Workloads (see workloads.py): desk_cli, qaoa_loop, structural_compare.
Inputs come from --seed only. A run measures whole batches until the timed
op wall reaches --seconds; every op's outputs are checked untimed. Times are
normalised for the host's speed phases (hostspeed.py); raw wall times are
printed and saved beside them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 wraps
qcloak's functions from outside (tracing.py) and reports the per-layer ones,
per op. Human-readable lines come first; the last line of stdout is one JSON
object {correct, attempted, failed, metrics}. A results file with machine
info, every op and the output digest goes to perfbench/results/.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: op timings and float outputs both depend on it.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("desk_cli", "qaoa_loop", "structural_compare")
SETUP_PROBES = 2  # extra set-ups in fresh processes; setup_s is the median of 1 + this
P90_MIN_ABOVE = 10
PROBE_TIMEOUT_S = 120

# Every end-to-end metric a run reports, with its unit. The final JSON line
# carries the subset BENCHMARK.json lists; the others exist only on some
# workloads (op_s_p90, uncorrected_tvd_mean), are 0 on some (failed_op_share),
# constant on some (sx_x_overhead_pct_mean) or raw wall times that follow the
# host's phases (*_wall, host_slowdown), and are printed above it.
UNITS = {
    "setup_s": "s",
    "setup_s_wall": "s",
    "op_s_p50": "s",
    "op_s_p50_wall": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "ops_per_s_wall": "1/s",
    "host_slowdown": "x",
    "peak_rss_mb": "MB",
    "failed_op_share": "ratio",
    "uncorrected_tvd_mean": "tvd",
    "netlsd_vs_baseline_mean": "distance",
    "sx_x_overhead_pct_mean": "%",
}


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_qcloak_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "qcloak", "__init__.py")):
        _fail(f"no qcloak sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # a plain checkout has none; never ask a parent repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "qcloak")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "qcloak_source_sha256": src.hexdigest(),
    }


def set_up(name: str, seed: int, workdir: str, tiny: bool, speed):
    """Import qcloak.cli, generate the inputs and warm up, with `speed`
    already sampling; returns (workload, start, end, sampling seconds)."""
    t0, o0 = time.perf_counter(), speed.overhead
    import workloads  # imports qcloak.cli and the layers it pulls in

    wl = workloads.WORKLOADS[name](seed, workdir, tiny)
    wl.warm_up()
    return wl, t0, time.perf_counter(), speed.overhead - o0


def _setup_seconds(speed, t0, t1, sampling) -> tuple[float, float]:
    """(normalised, wall) set-up seconds; call after speed.stop()."""
    wall = t1 - t0 - sampling
    return wall * speed.scale(t0, t1), wall


def _probe_setups(name: str, seed: int, tiny: bool) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return out


def measure(wl, seconds: float, tracer, expected: dict, speed) -> list[dict]:
    """Closed loop: run whole batches, at least one, until the timed op wall
    reaches `seconds`. Each record's "wall_s" is its wall time less the time
    `speed` spent sampling inside it; normalise() adds "seconds"."""
    records: list[dict] = []
    timed = 0.0
    while not records or timed < seconds:
        for op in wl.next_batch():
            wl.prepare(op)
            i = len(records)
            speed.sample()
            if tracer is not None:
                tracer.begin_op(i)
            error = None
            o0 = speed.overhead
            t0 = time.perf_counter()
            try:
                out = wl.run_op(op)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out, error = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            dur = t1 - t0 - (speed.overhead - o0)
            if tracer is not None:
                tracer.end_op()
            speed.sample()
            timed += dur
            errors, quality, digest = [error], {}, ""
            if error is None:
                try:
                    check = wl.check(op, out)
                    errors, quality, digest = check.errors, check.quality, check.digest
                except Exception as exc:  # unreadable outputs fail the op
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
            records.append({"op": i, "label": op.label, "start": t0, "end": t1, "wall_s": dur,
                            "errors": errors, "expected_failure": op.label in expected,
                            "quality": quality, "digest": digest})
    return records


def normalise(records: list[dict], speed) -> None:
    """Set each record's "seconds" from its wall time; call after speed.stop()."""
    for r in records:
        r["seconds"] = r["wall_s"] * speed.scale(r["start"], r["end"])


def _percentile_p90(durations: list[float]):
    """p90 and the number of ops above it, or (None, n_above) when too few."""
    if len(durations) < 2:
        return None, 0
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1]
    above = sum(1 for d in durations if d > p90)
    return (p90 if above >= P90_MIN_ABOVE else None), above


def _mean_quality(records: list[dict], key: str):
    vals = [r["quality"][key] for r in records if key in r["quality"]]
    return statistics.fmean(vals) if vals else None


def end_to_end_metrics(records, setups, peak_rss_mb, slowdown) -> dict:
    durations = [r["seconds"] for r in records]
    walls = [r["wall_s"] for r in records]
    p90, above = _percentile_p90(durations)
    failed = sum(1 for r in records if r["errors"])
    return {
        "setup_s": statistics.median(s for s, _wall in setups),
        "setup_s_wall": statistics.median(wall for _s, wall in setups),
        "op_s_p50": statistics.median(durations),
        "op_s_p50_wall": statistics.median(walls),
        "op_s_p90": p90,
        "ops_per_s": len(records) / sum(durations),
        "ops_per_s_wall": len(records) / sum(walls),
        "host_slowdown": slowdown,
        "peak_rss_mb": peak_rss_mb,
        "failed_op_share": failed / len(records),
        "uncorrected_tvd_mean": _mean_quality(records, "uncorrected_tvd"),
        "netlsd_vs_baseline_mean": _mean_quality(records, "netlsd_vs_baseline"),
        "sx_x_overhead_pct_mean": _mean_quality(records, "sx_x_overhead_pct"),
    }, {"ops": len(records), "p90_ops_above": above}


def per_layer_metrics(tracer, records, op_s_p50: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the traced run: name -> (value, unit)."""
    import tracing

    n = len(records)
    totals = tracer.layer_totals()
    zero = {"ms": 0.0, "self_ms": 0.0, "calls": 0}
    out: dict[str, tuple[float, str]] = {}
    for name in tracing.span_names():
        t = totals.get(name, zero)
        out[f"{name}.ms"] = (t["ms"] / n, "ms/op")
        out[f"{name}.self_ms"] = (t["self_ms"] / n, "ms/op")
        out[f"{name}.calls"] = (t["calls"] / n, "calls/op")
    for stem, members, counted in tracing.GROUPS:
        out[f"{stem}.ms"] = (sum(totals.get(m, zero)["ms"] for m in members) / n, "ms/op")
        out[f"{stem}.calls"] = (totals.get(counted, zero)["calls"] / n, "calls/op")
    c = tracer.counters
    out["netlsd.nodes_max"] = (float(c["nodes_max"]), "nodes")
    out["partition.blocks_1q"] = (c["blocks_1q"] / n, "blocks/op")
    out["partition.blocks_2q"] = (c["blocks_2q"] / n, "blocks/op")
    out["obfuscate.rx_pairs"] = (c["rx_pairs"] / n, "pairs/op")
    out["obfuscate.zero_key_share"] = (c["zero_keys"] / c["keys"] if c["keys"] else 0.0, "ratio")
    out["synthesis.candidates_per_block"] = (
        c["candidates"] / c["candidate_sets"] if c["candidate_sets"] else 0.0, "count")
    top = tracer.top_level_seconds()
    untraced = [r["wall_s"] - top.get(r["op"], 0.0) for r in records]
    out["op.untraced_ms"] = (1e3 * statistics.fmean(untraced), "ms/op")
    out["op.traced_p50_ms"] = (1e3 * op_s_p50, "ms")
    return out


def _results_path(name: str, seed: int, trace: int, tiny: bool) -> str:
    return os.path.join(RESULTS, f"{name}{'-tiny' if tiny else ''}-seed{seed}-trace{trace}.json")


def _previous(name, seed, tiny) -> list[dict]:
    """Earlier results of the same workload and seed, traced or not."""
    out = []
    for trace in (0, 1):
        try:
            with open(_results_path(name, seed, trace, tiny)) as fh:
                out.append(json.load(fh))
        except (OSError, ValueError):
            pass
    return out


def _digest_match(op_digests: list[str], previous: list[dict]):
    """Compare output digests with earlier runs of the same seed on the ops both ran."""
    matches = []
    for prev in previous:
        theirs = prev.get("op_digests", [])
        k = min(len(theirs), len(op_digests))
        if k:
            matches.append(theirs[:k] == op_digests[:k])
    return all(matches) if matches else None


def run_one(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> int:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    # The timer sampler stays off in traced runs: its handler would run
    # inside spans, and their per-layer times are raw wall times anyway.
    speed = hostspeed.SpeedSampler()
    speed.start(periodic=not trace)
    try:
        wl, *setup_main = set_up(name, seed, workdir, tiny, speed)
        import tracing
        import workloads

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
        records = measure(wl, seconds, tracer, workloads.EXPECTED_FAILURES, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    normalise(records, speed)
    setups = [_setup_seconds(speed, *setup_main)] + _probe_setups(name, seed, tiny)
    e2e, counts = end_to_end_metrics(records, setups, peak_rss_mb, speed.slowdown())

    failed = [r for r in records if r["errors"]]
    unexpected = [r for r in failed if not r["expected_failure"]]
    op_digests = [r["digest"] for r in records]
    previous = _previous(name, seed, tiny)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "machine": machine_info(),
        "setup_runs_s": [{"normalised": s, "wall": wall} for s, wall in setups],
        "reference_kernel": {"ref_s": hostspeed.REF_S, "loops": hostspeed.REF_LOOPS,
                             "sampling_s": speed.overhead,
                             "samples": [[t - speed.times[0], r]
                                         for t, r in zip(speed.times, speed.refs)]},
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "ops": counts["ops"],
        "p90_ops_above": counts["p90_ops_above"],
        "failed": len(failed), "failed_unexpected": len(unexpected),
        "digest": hashlib.sha256("".join(op_digests).encode()).hexdigest(),
        "digest_match_previous": _digest_match(op_digests, previous),
        "op_digests": op_digests,
        "op_records": records,
    }
    layers = {}
    if tracer is not None:
        layers = per_layer_metrics(tracer, records, e2e["op_s_p50"])
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        untraced_runs = [p for p in previous if p.get("trace") == 0]
        if untraced_runs:
            base = untraced_runs[0]["end_to_end"]["op_s_p50"]["value"]
            result["trace_overhead_s"] = e2e["op_s_p50"] - base
        spans = _results_path(name, seed, trace, tiny).replace(".json", "-spans.jsonl")
        tracer.write_spans(spans)
    with open(_results_path(name, seed, trace, tiny), "w") as fh:
        json.dump(result, fh, indent=1)

    _print_report(result, e2e, counts, layers, failed)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()
                   if k in _benchmark_names("per_layer")}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()
                   if k in _benchmark_names("end_to_end")}
    print(json.dumps({"correct": not unexpected, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _benchmark_names(section: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def _print_report(result, e2e, counts, layers, failed) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"ops {counts['ops']}  failed {len(failed)} "
          f"(unexpected {result['failed_unexpected']})")
    for k, v in e2e.items():
        unit = UNITS[k]
        note = ""
        if k in ("op_s_p50", "op_s_p50_wall", "ops_per_s", "ops_per_s_wall", "failed_op_share"):
            note = f"  (n={counts['ops']})"
        if k == "op_s_p90" and v is None:
            print(f"  {k:26s} n/a: {counts['p90_ops_above']} of {counts['ops']} ops above p90,"
                  f" need {P90_MIN_ABOVE}")
            continue
        if k == "op_s_p90":
            note = f"  (n={counts['ops']}, {counts['p90_ops_above']} above)"
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {k:26s} {shown} {unit}{note}")
    if "trace_overhead_s" in result:
        print(f"  {'trace_overhead_s':26s} {result['trace_overhead_s']:.6g} s"
              f"  (traced op_s_p50 minus untraced, same seed)")
    for k, (v, u) in sorted(layers.items()):
        if v:
            print(f"  {k:40s} {v:.6g} {u}")
    for r in failed:
        tag = "expected" if r["expected_failure"] else "FAILED"
        print(f"  {tag} op {r['op']} {r['label']}: {'; '.join(r['errors'])}")
    print(f"  digest {result['digest'][:16]}  matches earlier run of this seed: "
          f"{result['digest_match_previous']}")


def setup_probe(name: str, seed: int, tiny: bool) -> int:
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"probe-{name}-{os.getpid()}")
    os.makedirs(workdir)
    speed = hostspeed.SpeedSampler()
    speed.start(periodic=True)
    try:
        _wl, *timing = set_up(name, seed, workdir, tiny, speed)
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(_setup_seconds(speed, *timing)))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, text=True, capture_output=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print("summary (untraced end-to-end; per-layer in the traced blocks above)")
    for name, row in zip(WORKLOAD_NAMES, rows[::2]):
        share = row["failed"] / row["attempted"]
        print(f"  {name:20s} correct {row['correct']}  failed_op_share {share:.4g}  " +
              "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in row["metrics"].items()))
    return 0 if all(r["correct"] for r in rows) else 1


def self_test() -> int:
    """Tiny inputs: output schema of every workload and trace mode, and a
    corrupted encoded circuit (one CX dropped) counted as a failed op."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, text=True, capture_output=True, timeout=PROBE_TIMEOUT_S)
            if proc.returncode != 0:
                problems.append(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(res)}")
            if got != want:
                problems.append(f"{name} trace {trace}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
                    and isinstance(res["failed"], int) and res["correct"] is True):
                problems.append(f"{name} trace {trace}: bad counts {res}")
            bad = [k for k, m in res["metrics"].items()
                   if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"]))]
            if bad:
                problems.append(f"{name} trace {trace}: non-finite metrics {bad}")

    import workloads  # noqa: E402  (after the subprocess runs: keeps their imports cold)

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.DeskCli(7, workdir, tiny=True)
        wl.corrupt = True
        records = measure(wl, 0.0, None, workloads.EXPECTED_FAILURES, hostspeed.SpeedSampler())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not records or not all(any("CX count" in e for e in r["errors"]) for r in records):
        problems.append(f"corrupted circuits not all counted as failed: {records}")
    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test: {'FAILED' if problems else 'ok'} "
          f"({len(WORKLOAD_NAMES) * 2} runs, {len(records)} corrupted ops failed)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--self-test", action="store_true", dest="self_test")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (self-test)")
    ap.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_qcloak_source()
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.tiny)
    return run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)


if __name__ == "__main__":
    sys.exit(main())
