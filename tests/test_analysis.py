import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from qcloak.analysis import (
    compare,
    dominant_percentile,
    make_baseline,
    report_to_json,
    reports_to_csv,
    tvd,
)
from qcloak.bench import gen_ghz
from qcloak.circuit import GateKind, gate_counts
from qcloak.distributions import Distribution
from qcloak.kak import kak_decompose
from qcloak.linalg import circuit_unitary, equal_up_to_global_phase
from qcloak.partition import block_unitary, form_blocks
from qcloak.pipeline import PipelineConfig
from qcloak.synthesis import minimal_cx_count
from strategies import REPORT_CSV_HEADER, REPORT_JSON_KEYS, circuits

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


def test_compare_populates_fields():
    r = compare(gen_ghz(4), PipelineConfig(seed=5), shots=None, name="ghz4")
    assert r.name == "ghz4" and r.num_qubits == 4
    assert r.tvd_corrected < 1e-9
    assert r.tvd_uncorrected > 0.5
    assert r.cx_delta == 0 and r.depth_delta <= 0
    assert r.netlsd > r.netlsd_x_only > 0
    assert r.wall_times["encode_seconds"] > 0


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
