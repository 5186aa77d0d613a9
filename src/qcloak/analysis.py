"""Output-quality and circuit-cost metrics plus the comparison report.

The reference point for every cost metric is the baseline: the same
block-resynthesis pass with no key, no RX pairs, and no candidate diversity.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field, fields

from .circuit import Circuit, gate_counts
from .dag import cx_depth
from .distributions import Distribution
from .netlsd import circuit_signature, netlsd_divergence
from .obfuscate import decode
from .partition import Block, form_blocks, reassemble
from .pipeline import PipelineConfig, encode
from .simulator import ideal_distribution, sample
from .synthesis import synthesize_blocks

# imported for perfbench/tracing.py, which wraps these names; not called here
from .synthesis import generate_candidates, select_candidate  # noqa: F401


def tvd(p1: Distribution, p2: Distribution) -> float:
    """Total variation distance, half the L1 gap over the union of supports."""
    if p1.num_bits != p2.num_bits:
        raise ValueError(
            f"bit-length mismatch: {p1.num_bits} vs {p2.num_bits}"
        )
    a = p1.normalized().outcomes
    b = p2.normalized().outcomes
    keys = sorted(set(a) | set(b))  # a fixed summation order, whatever the hash seed
    return 0.5 * sum(abs(a.get(s, 0.0) - b.get(s, 0.0)) for s in keys)


def dominant_percentile(reference: Distribution, candidate: Distribution) -> float:
    """Percentile rank, within the candidate's support, of the reference's
    dominant state. 100 means it is the candidate's unique top state."""
    ref = reference.normalized().outcomes
    if not ref:
        raise ValueError("reference distribution is empty")
    top = max(ref.values())
    dominants = [s for s, v in ref.items() if v == top]
    if len(dominants) != 1:
        raise ValueError("no unique dominant state in reference")
    star = dominants[0]
    cand = candidate.normalized().outcomes
    if star not in cand:
        return 0.0
    support = len(cand)
    if support == 1:
        return 100.0
    below = sum(1 for v in cand.values() if v < cand[star])
    return 100.0 * below / (support - 1)


def _block_key(b: Block) -> tuple:
    """Everything a block's plain fragment depends on: its width and its
    gates on local wires, each angle by its bits (so rz(0.0) and rz(-0.0)
    never share a key)."""
    lo = b.qubits[0]
    return len(b.qubits), tuple(
        (
            g.kind,
            tuple(0 if q == lo else 1 for q in g.qubits),
            None if g.angle is None else float(g.angle).hex(),
        )
        for g in b.gates
    )


def make_baseline(c: Circuit, table: dict | None = None) -> Circuit:
    """Resynthesize every block at minimal CX with plain (index-0) candidate
    selection; no injections of any kind.

    The plain fragment is a pure function of the block's local gates, so
    each distinct block is synthesized once, in one synthesize_blocks call
    with k = 1. table maps block keys to plain fragments; a caller that
    passes the same dict to several calls shares their fragments."""
    p = form_blocks(c)
    table = {} if table is None else table
    keys = {b.order_index: _block_key(b) for b in p.blocks}
    missing: dict[tuple, Block] = {}
    for b in p.blocks:
        key = keys[b.order_index]
        if key not in table and key not in missing:
            missing[key] = b
    made = synthesize_blocks(list(missing.values()), 1, 1, 0)
    for key, b in missing.items():
        table[key] = made[b.order_index]
    return reassemble(p, {order: table[key] for order, key in keys.items()})


@dataclass(frozen=True)
class ComparisonReport:
    name: str
    num_qubits: int
    tvd_uncorrected: float | None
    tvd_corrected: float | None
    dominant_percentile_uncorrected: float | None
    dominant_percentile_corrected: float | None
    dominant_note: str | None
    cx_delta: int
    sx_x_delta_pct: float
    rz_delta_pct: float
    depth_delta: int
    netlsd: float
    netlsd_x_only: float
    wall_times: dict[str, float] = field(default_factory=dict)


CSV_COLUMNS = [f.name for f in fields(ComparisonReport) if f.name != "wall_times"]
CSV_COLUMNS += ["encode_seconds", "baseline_seconds"]


def compare(
    original: Circuit,
    cfg: PipelineConfig,
    shots: int | None = None,
    structural_only: bool = False,
    name: str = "",
    sim_cap: int = 20,
) -> ComparisonReport:
    """Full encode-vs-baseline comparison. Simulation metrics are computed
    analytically when shots is None and skipped entirely in structural-only
    mode (or when the circuit has more than sim_cap qubits)."""
    if sim_cap < 1:
        raise ValueError("sim_cap must be positive")
    table: dict = {}  # plain fragments shared by the baseline and X-only passes
    t0 = time.perf_counter()
    baseline = make_baseline(original, table)
    t_base = time.perf_counter() - t0

    t0 = time.perf_counter()
    enc = encode(original, cfg)
    t_enc = time.perf_counter() - t0

    counts_base = gate_counts(baseline)
    counts_enc = gate_counts(enc.circuit)
    cx_delta = counts_enc.cx - counts_base.cx
    sx_x_delta_pct = 100.0 * (counts_enc.sx_plus_x - counts_base.sx_plus_x) / max(
        counts_base.sx_plus_x, 1
    )
    rz_delta_pct = 100.0 * (counts_enc.rz - counts_base.rz) / max(counts_base.rz, 1)
    depth_delta = cx_depth(enc.circuit) - cx_depth(baseline)

    t0 = time.perf_counter()
    x_only = make_baseline(enc.x_injected, table)
    t_x_only = time.perf_counter() - t0
    del table  # no later pass reads a block's plain fragment

    t0 = time.perf_counter()
    baseline_sig = circuit_signature(baseline)
    netlsd_full = netlsd_divergence(enc.circuit, baseline_sig)
    netlsd_x = netlsd_divergence(x_only, baseline_sig)
    t_netlsd = time.perf_counter() - t0

    tvd_unc = tvd_cor = pct_unc = pct_cor = None
    note = None
    if not structural_only and original.num_qubits <= sim_cap:
        if shots is None:
            base_dist = ideal_distribution(baseline)
            enc_dist = ideal_distribution(enc.circuit)
        else:
            base_dist = sample(baseline, shots, cfg.seed)
            enc_dist = sample(enc.circuit, shots, cfg.seed + 1)
        corrected = decode(enc_dist, enc.key.measured())
        tvd_unc = tvd(enc_dist, base_dist)
        tvd_cor = tvd(corrected, base_dist)
        try:
            pct_unc = dominant_percentile(base_dist, enc_dist)
            pct_cor = dominant_percentile(base_dist, corrected)
        except ValueError as exc:
            note = str(exc)

    return ComparisonReport(
        name=name,
        num_qubits=original.num_qubits,
        tvd_uncorrected=tvd_unc,
        tvd_corrected=tvd_cor,
        dominant_percentile_uncorrected=pct_unc,
        dominant_percentile_corrected=pct_cor,
        dominant_note=note,
        cx_delta=cx_delta,
        sx_x_delta_pct=sx_x_delta_pct,
        rz_delta_pct=rz_delta_pct,
        depth_delta=depth_delta,
        netlsd=netlsd_full,
        netlsd_x_only=netlsd_x,
        wall_times={
            "encode_seconds": t_enc,
            "baseline_seconds": t_base,
            "x_only_baseline_seconds": t_x_only,
            "netlsd_seconds": t_netlsd,
        },
    )


def report_to_json(r: ComparisonReport) -> str:
    return json.dumps(asdict(r), indent=2)


def reports_to_csv(reports: list[ComparisonReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        values = {**asdict(r), **r.wall_times}
        writer.writerow([_cell(values.get(c)) for c in CSV_COLUMNS])
    return buf.getvalue()


def _cell(v: object) -> object:
    if v is None:
        return ""
    return f"{v:.6g}" if isinstance(v, float) else v
