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

import numpy as np

from .circuit import Circuit, CircuitColumns, gate_counts, join_columns, offsets, ranges
from .dag import cx_depth
from .distributions import Distribution
from .netlsd import circuit_signature, netlsd_divergence
from .obfuscate import decode
from .partition import BlockPartition, form_blocks, reassemble, row_keys
from .pipeline import PipelineConfig, encode
from .simulator import ideal_distribution, sample
from .synthesis import candidate_chunks

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


def _block_keys(p: BlockPartition) -> list[tuple[int, bytes]]:
    """Everything each block's plain fragment depends on: its width and the
    bytes of its rows on local wires, each row's kind and local wire, then
    its angle's bits (so rz(0.0) and rz(-0.0) never share a key)."""
    rows = np.empty((len(p.local_wire), 9), dtype=np.uint8)
    rows[:, 0] = 2 * p.rows.kind + p.local_wire
    rows[:, 1:] = p.rows.angle.reshape(-1, 1).view(np.uint8)
    return row_keys(rows, p.bounds, p.width)


def make_baseline(c: Circuit, table: dict | None = None) -> Circuit:
    """Resynthesize every block at minimal CX with plain (index-0) candidate
    selection; no injections of any kind.

    The plain fragment is a pure function of the block's local gates, so
    each distinct block is synthesized once, with k = 1. table maps block
    keys to plain candidates as (Candidates, index); a caller that passes
    the same dict to several calls shares them. The candidates of each
    Candidates stack are placed on their blocks' qubits as one column set,
    and the sets are gathered into block order as the fragment set that
    reassemble takes, so no Gate is built."""
    p = form_blocks(c)
    table = {} if table is None else table
    keys = _block_keys(p)  # block i has order index i
    missing: dict[tuple, int] = {}  # each missing key's first block
    for i, key in enumerate(keys):
        if key not in table:
            missing.setdefault(key, i)
    for chunk, cands in candidate_chunks(p.take(list(missing.values())), 1, 0):
        for j, i in enumerate(chunk.order.tolist()):
            table[keys[i]] = cands, j
    stacks: dict[int, tuple] = {}  # per Candidates stack: it, its blocks, their candidates
    for i, key in enumerate(keys):
        cands, j = table[key]
        _cands, members, idx = stacks.setdefault(id(cands), (cands, [], []))
        members.append(i)
        idx.append(j)
    # each stack's candidates placed on its blocks' qubits, then the rows in block order
    placed = [(m, *cands.place(idx, p.lo[m], p.hi[m])) for cands, m, idx in stacks.values()]
    none = np.zeros(0, dtype=np.int64)
    by_block = np.argsort(np.concatenate([none, *(m for m, _cols, _n in placed)]))
    sizes = np.concatenate([none, *(n for _m, _cols, n in placed)])
    rows = ranges(offsets(sizes)[by_block], sizes[by_block])
    fragments = CircuitColumns(*(col[rows] for col in join_columns(c for _m, c, _n in placed)))
    return reassemble(p, fragments, offsets(sizes[by_block]))


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
    table: dict = {}  # plain candidates shared by the baseline and X-only passes
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
    del table  # no later pass reads a block's plain candidate

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
