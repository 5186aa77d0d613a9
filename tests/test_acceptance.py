"""End-to-end acceptance gate.

One test per numbered claim about the full system, run against the desk
benchmark suite (GHZ/W/QFT/adder/QAOA) at a fixed pipeline seed chosen so
no benchmark draws a degenerate key mask (checked explicitly in criterion 3).
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import unitary_group

from qcloak.analysis import compare, dominant_percentile, make_baseline, tvd
from qcloak.bench import (
    QAOA_CASE_STUDY_START,
    desk_benchmarks,
    ring_problem,
    run_qaoa_case_study,
    structural_benchmarks,
)
from qcloak.circuit import gate_counts
from qcloak.dag import cx_depth
from qcloak.kak import kak_decompose, kak_reconstruct
from qcloak.linalg import circuit_unitary, equal_up_to_global_phase
from qcloak.netlsd import netlsd_divergence
from qcloak.obfuscate import decode
from qcloak.partition import form_blocks
from qcloak.pipeline import PipelineConfig, encode
from qcloak.simulator import ideal_distribution, sample
from qcloak.synthesis import minimal_cx_count, weyl_to_circuit

ACCEPT_SEED = 3
RING4_SOLUTIONS = {"0101", "1010"}


def _dominant_set(dist, tol=1e-9):
    out = dist.normalized().outcomes
    top = max(out.values())
    return {s for s, p in out.items() if p >= top - tol}


@pytest.fixture(scope="module")
def desk():
    cfg = PipelineConfig(seed=ACCEPT_SEED)
    t0 = time.perf_counter()
    cases = {}
    for name, circ in desk_benchmarks().items():
        baseline = make_baseline(circ)
        enc = encode(circ, cfg)
        measured = tuple(sorted(circ.measured_qubits))
        key = enc.key.restricted(measured)
        base_dist = ideal_distribution(baseline)
        enc_dist = ideal_distribution(enc.circuit)
        cases[name] = SimpleNamespace(
            circuit=circ,
            baseline=baseline,
            enc=enc,
            key=key,
            mask=key.flip_mask,
            base_dist=base_dist,
            enc_dist=enc_dist,
            corrected=decode(enc_dist, key),
        )
    wall = time.perf_counter() - t0
    return SimpleNamespace(cases=cases, cfg=cfg, wall=wall)


@pytest.fixture(scope="module")
def sampled(desk):
    shots = 100_000
    t0 = time.perf_counter()
    results = {}
    for name, case in desk.cases.items():
        base_s = sample(case.baseline, shots, desk.cfg.seed)
        enc_s = sample(case.enc.circuit, shots, desk.cfg.seed + 1)
        results[name] = (base_s, decode(enc_s, case.key))
    wall = time.perf_counter() - t0
    return SimpleNamespace(results=results, wall=wall)


def test_criterion_01_exact_decode_round_trip(desk):
    for name, case in desk.cases.items():
        gap = tvd(case.corrected, case.base_dist)
        assert gap < 1e-9, f"{name}: corrected TVD {gap:.3e}"
    assert desk.wall < 60.0, f"desk pipeline took {desk.wall:.1f}s"
    print(f"criterion 1: all 10 corrected TVDs < 1e-9 in {desk.wall:.1f}s")


def test_criterion_02_shot_level_decode(desk, sampled):
    worst = 0.0
    for name, (base_s, corrected_s) in sampled.results.items():
        gap = tvd(corrected_s, base_s)
        worst = max(worst, gap)
        assert gap < 0.05, f"{name}: shot-level corrected TVD {gap:.4f}"
    assert sampled.wall < 120.0, f"sampling took {sampled.wall:.1f}s"
    print(f"criterion 2: worst shot-level TVD {worst:.4f} in {sampled.wall:.1f}s")


def test_criterion_03_obfuscation_strength(desk):
    for name, case in desk.cases.items():
        weight = case.mask.count("1")
        n = len(case.mask)
        assert weight > 0, f"{name}: key mask is all zeros at this seed"
        if name.startswith("ghz"):
            assert weight < n, f"{name}: all-ones mask maps GHZ onto itself"
        if name == "w4":
            assert weight != 2, f"{name}: weight-2 mask gives TVD exactly 0.5"
        if name.startswith("qaoa"):
            assert weight % 2 == 1, f"{name}: even mask preserves ring cuts"
        if name.startswith("qft"):
            out = case.base_dist.outcomes
            assert max(out.values()) - min(out.values()) < 1e-12
            assert tvd(case.enc_dist, case.base_dist) < 1e-9
            continue
        gap = tvd(case.enc_dist, case.base_dist)
        assert gap > 0.5, f"{name}: uncorrected TVD {gap:.3f}"
        assert case.enc_dist.top() not in _dominant_set(case.base_dist), (
            f"{name}: uncorrected argmax still the dominant state"
        )
    print("criterion 3: uncorrected TVD > 0.5 and argmax displaced (QFT exempt)")


def test_criterion_04_dominant_state_percentile(desk):
    for name, case in desk.cases.items():
        dominants = _dominant_set(case.base_dist)
        if len(dominants) == 1:
            pct = dominant_percentile(case.base_dist, case.corrected)
            assert pct == 100.0, f"{name}: corrected percentile {pct}"
        else:
            assert case.corrected.top() in dominants, (
                f"{name}: corrected argmax outside the tied dominant set"
            )
    print("criterion 4: dominant state recovered on every benchmark")


def test_criterion_05_cx_budget_and_depth(desk):
    for name, case in desk.cases.items():
        enc_counts = gate_counts(case.enc.circuit)
        base_counts = gate_counts(case.baseline)
        assert enc_counts.cx == base_counts.cx, f"{name}: CX count changed"
        d_enc, d_base = cx_depth(case.enc.circuit), cx_depth(case.baseline)
        assert d_enc <= d_base, f"{name}: CX depth {d_base} -> {d_enc}"
    print("criterion 5: CX counts exactly preserved, CX depth never worse")


def test_criterion_06_structural_divergence(desk):
    soft = []
    for name, case in desk.cases.items():
        assert len(form_blocks(case.circuit).blocks) >= 2
        x_only = make_baseline(case.enc.x_injected)
        full = netlsd_divergence(case.enc.circuit, case.baseline)
        x_div = netlsd_divergence(x_only, case.baseline)
        assert full > x_div, f"{name}: full {full:.3g} <= X-only {x_div:.3g}"
        if case.circuit.num_qubits >= 9:
            assert full > 1e2, f"{name}: divergence {full:.3g} <= 1e2"
        else:
            soft.append(f"{name}={full:.3g}")
    print(f"criterion 6: ordering holds everywhere; sub-9-qubit values {soft}")


def test_criterion_07_synthesis_oracle():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    for _ in range(1000):
        u = unitary_group.rvs(4, random_state=rng)
        terms = kak_decompose(u)
        assert equal_up_to_global_phase(kak_reconstruct(terms), u, 1e-9)
        frag = weyl_to_circuit(terms)
        assert equal_up_to_global_phase(circuit_unitary(frag), u, 1e-9)
        assert gate_counts(frag).cx == minimal_cx_count(terms.weyl)
    wall = time.perf_counter() - t0
    assert wall < 30.0, f"synthesis oracle took {wall:.1f}s"
    print(f"criterion 7: 1000 unitaries decomposed, rebuilt, CX-minimal in {wall:.1f}s")


def test_criterion_08_one_qubit_overhead(desk):
    deltas = []
    for case in desk.cases.values():
        enc_counts = gate_counts(case.enc.circuit)
        base_counts = gate_counts(case.baseline)
        deltas.append(
            100.0
            * (enc_counts.sx_plus_x - base_counts.sx_plus_x)
            / max(base_counts.sx_plus_x, 1)
        )
    mean = sum(deltas) / len(deltas)
    assert mean > 0.0
    print(f"criterion 8 (informational): mean SX+X overhead {mean:.1f}%")


def test_criterion_09_qaoa_case_study():
    prob = ring_problem(4, 1, QAOA_CASE_STUDY_START)
    t0 = time.perf_counter()
    runs = {
        mode: run_qaoa_case_study(prob, mode, iterations=100, seed=0, shots=8192)
        for mode in ("baseline", "corrected", "uncorrected")
    }
    wall = time.perf_counter() - t0

    def top2(result):
        ranked = sorted(
            result.final_distribution.normalized().outcomes.items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return {s for s, _ in ranked[:2]}

    loss_gap = abs(runs["corrected"].final_loss - runs["baseline"].final_loss)
    assert loss_gap < 0.1, f"corrected vs baseline final loss gap {loss_gap:.3f}"
    assert top2(runs["corrected"]) == RING4_SOLUTIONS
    assert top2(runs["uncorrected"]) != RING4_SOLUTIONS
    assert wall < 300.0, f"case study took {wall:.1f}s"
    print(
        f"criterion 9: loss gap {loss_gap:.3f}, corrected top2 = solutions, "
        f"uncorrected top2 = {sorted(top2(runs['uncorrected']))} in {wall:.1f}s"
    )


def test_criterion_10_scale_smoke():
    big = structural_benchmarks()["random128"]
    t0 = time.perf_counter()
    report = compare(
        big, PipelineConfig(seed=ACCEPT_SEED), structural_only=True, name="random128"
    )
    wall = time.perf_counter() - t0
    assert wall < 300.0, f"128-qubit structural pipeline took {wall:.1f}s"
    assert report.tvd_corrected is None and report.tvd_uncorrected is None
    assert report.cx_delta == 0
    assert report.netlsd > 0
    print(f"criterion 10: 128-qubit structural pass in {wall:.1f}s")
