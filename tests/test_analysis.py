import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import qcloak.analysis
import qcloak.synthesis
from qcloak.analysis import (
    compare,
    dominant_percentile,
    make_baseline,
    report_to_json,
    reports_to_csv,
    tvd,
)
from qcloak.bench import gen_ghz, gen_qft, gen_random_blocks
from qcloak.circuit import Circuit, GateKind, cx, gate_counts, rz, sx
from qcloak.distributions import Distribution
from qcloak.kak import kak_decompose
from qcloak.linalg import circuit_unitary, equal_up_to_global_phase
from qcloak.partition import block_unitary, form_blocks, reassemble
from qcloak.pipeline import PipelineConfig, encode
from qcloak.synthesis import minimal_cx_count
from strategies import (
    REPORT_CSV_HEADER,
    REPORT_JSON_KEYS,
    circuits,
    fragment_set,
    gate_bits,
    gates_on_wires,
    per_candidate_generate,
)

REPO = Path(__file__).resolve().parent.parent


def test_tvd_hand_values():
    a = Distribution(2, {"00": 0.5, "11": 0.5})
    b = Distribution(2, {"00": 1.0})
    assert tvd(a, a) == 0.0
    assert tvd(a, b) == pytest.approx(0.5)
    c = Distribution(2, {"01": 1.0})
    assert tvd(b, c) == pytest.approx(1.0)


def test_tvd_normalizes_counts():
    a = Distribution(1, {"0": 30, "1": 10}, "counts")
    b = Distribution(1, {"0": 0.75, "1": 0.25})
    assert tvd(a, b) == pytest.approx(0.0)


def test_tvd_length_mismatch():
    with pytest.raises(ValueError):
        tvd(Distribution(1, {"0": 1.0}), Distribution(2, {"00": 1.0}))


_TVD_BITS_SCRIPT = """
import numpy as np
from qcloak.analysis import tvd
from qcloak.distributions import Distribution

rng = np.random.default_rng(5)
def dist():
    keys = rng.choice(2**12, size=300, replace=False)
    weights = rng.random(300)
    return Distribution(12, {format(int(k), "012b"): float(v)
                             for k, v in zip(keys, weights / weights.sum())})
print(repr(tvd(dist(), dist())))
"""


def test_tvd_bits_do_not_depend_on_hash_seed():
    # string hashing, and so set order, changes with PYTHONHASHSEED; the
    # report's TVD bits must not
    out = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run([sys.executable, "-c", _TVD_BITS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1]


def test_dominant_percentile_cases():
    base = Distribution(2, {"00": 0.7, "01": 0.2, "10": 0.1})
    assert dominant_percentile(base, base) == 100.0
    moved = Distribution(2, {"00": 0.1, "01": 0.2, "10": 0.7})
    assert dominant_percentile(base, moved) == 0.0
    absent = Distribution(2, {"01": 1.0})
    assert dominant_percentile(base, absent) == 0.0
    single = Distribution(2, {"00": 1.0})
    assert dominant_percentile(base, single) == 100.0
    mid = Distribution(2, {"00": 0.2, "01": 0.1, "10": 0.7})
    assert dominant_percentile(base, mid) == 50.0


def test_dominant_percentile_requires_unique_dominant():
    tied = Distribution(1, {"0": 0.5, "1": 0.5})
    with pytest.raises(ValueError, match="no unique dominant state"):
        dominant_percentile(tied, tied)


def test_make_baseline_equivalent_and_minimal():
    c = gen_ghz(3)
    base = make_baseline(c)
    assert equal_up_to_global_phase(circuit_unitary(base), circuit_unitary(c), 1e-9)
    want = sum(
        minimal_cx_count(kak_decompose(block_unitary(b)).weyl)
        for b in form_blocks(c).blocks
        if len(b.qubits) == 2
    )
    assert gate_counts(base).cx == want


@given(circuits(max_qubits=4, max_gates=12))
@settings(max_examples=30, deadline=None)
def test_make_baseline_preserves_unitary(c):
    base = make_baseline(c)
    assert equal_up_to_global_phase(circuit_unitary(base), circuit_unitary(c), 1e-9)
    assert base.measured_qubits == c.measured_qubits


def _per_block_baseline(c: Circuit) -> Circuit:
    """The baseline with every block synthesized on its own by the
    per-candidate oracle."""
    p = form_blocks(c)
    return reassemble(
        p,
        *fragment_set(
            gates_on_wires(per_candidate_generate(b, 1, 0)[0].gates, b.qubits)
            for b in p.blocks
        ),
    )


def _counting_synthesis(monkeypatch) -> list[int]:
    """Block counts of every candidate_chunks call make_baseline makes."""
    real = qcloak.analysis.candidate_chunks
    counts: list[int] = []

    def counting(p, k, seed):
        counts.append(p.num_blocks)
        return real(p, k, seed)

    monkeypatch.setattr(qcloak.analysis, "candidate_chunks", counting)
    return counts


@pytest.mark.parametrize("name", ["qft6", "random12", "repeated"])
def test_baseline_synthesizes_each_distinct_block_once(monkeypatch, name):
    c = {
        "qft6": gen_qft(6),
        "random12": gen_random_blocks(12, 40, seed=2),
        # one block repeated on the same and on other wires
        "repeated": Circuit(4, (sx(0), cx(0, 1), rz(0.4, 1)) * 3 + (sx(2), cx(2, 3), rz(0.4, 3))),
    }[name]
    counts = _counting_synthesis(monkeypatch)
    table: dict = {}
    base = make_baseline(c, table)
    assert gate_bits(base) == gate_bits(_per_block_baseline(c))
    assert counts == [len(table)]
    assert len(table) <= len(form_blocks(c).blocks)
    if name != "random12":
        assert len(table) < len(form_blocks(c).blocks)
    # a warm table gives the same bits and synthesizes nothing
    assert gate_bits(make_baseline(c, table)) == gate_bits(base)
    assert counts == [len(table), 0]


def test_baseline_keeps_zero_angles_of_either_sign_apart(monkeypatch):
    counts = _counting_synthesis(monkeypatch)
    table: dict = {}
    for one in (Circuit(1, (rz(0.0, 0),)), Circuit(1, (rz(-0.0, 0),))):
        assert gate_bits(make_baseline(one, table)) == gate_bits(_per_block_baseline(one))
    # the -0.0 block misses the 0.0 block's entry: two keys, two syntheses
    assert counts == [1, 1] and len(table) == 2
    c = Circuit(2, (rz(0.0, 0), cx(0, 1), rz(-0.0, 1), rz(-0.0, 0), cx(0, 1), rz(0.0, 1)))
    assert gate_bits(make_baseline(c, table)) == gate_bits(_per_block_baseline(c))


def test_compare_shares_one_baseline_table(monkeypatch):
    real = qcloak.analysis.make_baseline
    calls = []

    def recording(c, table=None):
        out = real(c, table)
        calls.append((c, table, out))
        return out

    monkeypatch.setattr(qcloak.analysis, "make_baseline", recording)
    original, cfg = gen_random_blocks(12, 40, seed=2), PipelineConfig(seed=4)
    compare(original, cfg, structural_only=True)
    (c0, table0, base), (c1, table1, x_only) = calls
    assert c0 == original and table1 is table0 and isinstance(table0, dict)
    assert gate_bits(base) == gate_bits(real(original))
    # the X-only baseline, built from the shared table, equals a fresh one
    x_circ = encode(original, cfg).x_injected
    assert c1 == x_circ
    assert gate_bits(x_only) == gate_bits(real(x_circ))
    assert gate_bits(x_only) == gate_bits(_per_block_baseline(x_circ))


def test_compare_populates_fields():
    r = compare(gen_ghz(4), PipelineConfig(seed=5), shots=None, name="ghz4")
    assert r.name == "ghz4" and r.num_qubits == 4
    assert r.tvd_corrected < 1e-9
    assert r.tvd_uncorrected > 0.5
    assert r.cx_delta == 0 and r.depth_delta <= 0
    assert r.netlsd > r.netlsd_x_only > 0
    assert r.wall_times["encode_seconds"] > 0
    assert r.wall_times["x_only_baseline_seconds"] > 0


def test_compare_structural_only_skips_simulation():
    r = compare(gen_ghz(4), PipelineConfig(seed=5), structural_only=True)
    assert r.tvd_corrected is None and r.tvd_uncorrected is None
    assert r.dominant_percentile_corrected is None
    assert r.netlsd > 0


def test_compare_shot_mode_uses_counts():
    r = compare(gen_ghz(3), PipelineConfig(seed=5), shots=2000)
    assert 0 <= r.tvd_corrected < 0.2


def test_report_json_and_csv():
    r = compare(gen_ghz(3), PipelineConfig(seed=5), shots=None, name="g")
    payload = json.loads(report_to_json(r))
    assert payload["name"] == "g"
    assert list(payload) == REPORT_JSON_KEYS
    assert payload["wall_times"]["netlsd_seconds"] > 0
    csv_text = reports_to_csv([r])
    lines = csv_text.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("g,3,")


def test_csv_blank_for_structural_none():
    r = compare(gen_ghz(3), PipelineConfig(seed=5), structural_only=True, name="s")
    row = reports_to_csv([r]).strip().split("\n")[1]
    assert row.split(",")[2] == ""  # tvd_uncorrected blank


def test_run_benchmarks_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_benchmarks.py"),
         "--skip-structural", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "benchmarks.csv").read_text().split("\n")
    assert lines[0] == REPORT_CSV_HEADER and len(lines) == 12 and lines[-1] == ""
    reports = json.loads((tmp_path / "benchmarks.json").read_text())
    assert len(reports) == 10
    assert all(list(r) == REPORT_JSON_KEYS for r in reports)
