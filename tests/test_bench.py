import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qcloak
from qcloak.bench import (
    QAOA_MODES,
    QAOA_RING4_DESK_PARAMS,
    MaxCutProblem,
    adder_layout,
    build_qaoa_circuit,
    cut_values,
    desk_benchmarks,
    gen_adder,
    gen_ghz,
    gen_qft,
    gen_random_blocks,
    gen_wstate,
    loss_trace_to_csv,
    ring_problem,
    run_qaoa_case_study,
    structural_benchmarks,
)
from qcloak.circuit import gate_counts
from qcloak.dag import to_dag
from qcloak.linalg import circuit_unitary, equal_up_to_global_phase
from qcloak.simulator import expectation, ideal_distribution


def test_ghz_distribution():
    d = ideal_distribution(gen_ghz(5)).outcomes
    assert d == pytest.approx({"00000": 0.5, "11111": 0.5})


def test_wstate_distribution_uniform_one_hot():
    d = ideal_distribution(gen_wstate(5)).outcomes
    want = {"".join("1" if i == q else "0" for i in range(5)): 0.2 for q in range(5)}
    assert set(d) == set(want)
    for s, p in want.items():
        assert d[s] == pytest.approx(p)


def test_qft_matches_bit_reversed_dft():
    n = 3
    dim = 2**n
    omega = np.exp(2j * np.pi / dim)
    dft = np.array([[omega ** (j * k) for k in range(dim)] for j in range(dim)])
    dft /= math.sqrt(dim)
    rev = [int(format(j, f"0{n}b")[::-1], 2) for j in range(dim)]
    perm = np.zeros((dim, dim))
    for j in range(dim):
        perm[rev[j], j] = 1.0
    u = circuit_unitary(gen_qft(n))
    assert equal_up_to_global_phase(u, perm @ dft, 1e-9)


def test_adder_layout_pinned():
    assert adder_layout(4) == (1, [1], [2], 3)
    assert adder_layout(5) == (2, [1, 2], [3, 4], None)
    assert adder_layout(6) == (2, [1, 2], [3, 4], 5)
    assert adder_layout(9) == (4, [1, 2, 3, 4], [5, 6, 7, 8], None)
    with pytest.raises(ValueError):
        adder_layout(2)


def test_adder_exhaustive_mod_sum():
    n, m = 5, 2
    for a in range(4):
        for b in range(4):
            top = ideal_distribution(gen_adder(n, a, b)).top()
            s = (a + b) % (2**m)
            bits = [0] + [(a >> i) & 1 for i in range(m)] + [(s >> i) & 1 for i in range(m)]
            want = "".join(str(bits[q]) for q in reversed(range(n)))
            assert top == want, f"a={a} b={b}"


def test_adder_carry_out():
    d = ideal_distribution(gen_adder(6, a=3, b=2))
    # 3 + 2 = 5: sum bit 1 on wire 3, 0 on wire 4, carry on wire 5
    assert d.top() == "101110"
    assert d.outcomes["101110"] == pytest.approx(1.0)


def test_adder_operand_range():
    with pytest.raises(ValueError):
        gen_adder(5, a=4)


def test_cut_values_ring4():
    table = cut_values(ring_problem(4))
    assert len(table) == 16
    assert table["0000"] == 0 and table["1111"] == 0
    assert table["0101"] == 4 and table["1010"] == 4
    assert table["0001"] == 2 and table["0011"] == 2


def test_qaoa_desk_params_expected_cut():
    prob = ring_problem(4, 1, QAOA_RING4_DESK_PARAMS)
    dist = ideal_distribution(build_qaoa_circuit(prob))
    val = expectation(dist, cut_values(prob))
    assert val == pytest.approx(3.0, abs=1e-9)
    ranked = sorted(dist.outcomes.items(), key=lambda kv: -kv[1])
    assert {ranked[0][0], ranked[1][0]} == {"0101", "1010"}
    assert ranked[0][1] == pytest.approx(0.265625, abs=1e-9)


def test_maxcut_validation():
    with pytest.raises(ValueError):
        MaxCutProblem(3, ((0, 0),))
    with pytest.raises(ValueError):
        MaxCutProblem(3, ((0, 5),))
    with pytest.raises(ValueError):
        MaxCutProblem(3, ((0, 1),), qaoa_layers=0)
    with pytest.raises(ValueError):
        MaxCutProblem(3, ((0, 1),), parameters=(1.0,))
    with pytest.raises(ValueError):
        build_qaoa_circuit(MaxCutProblem(3, ((0, 1),)))


@pytest.mark.parametrize(
    "parameters", [(math.inf, 0.5), (0.5, -math.inf), (math.nan, 0.5), (0.5, 1e308)]
)
def test_maxcut_rejects_parameters_giving_a_non_finite_angle(parameters):
    # build_qaoa_circuit builds its rows unchecked, so the problem refuses
    # every parameter whose angle, twice it, is not finite
    with pytest.raises(ValueError, match="non-finite angle"):
        ring_problem(4, 1, parameters)


def test_maxcut_nodes_are_integers():
    # the node numbers become qubits, which build_qaoa_circuit does not check
    with pytest.raises(TypeError):
        MaxCutProblem(3, ((0, 1.5),))
    with pytest.raises(TypeError):
        MaxCutProblem(3.0, ((0, 1),))
    with pytest.raises(ValueError, match="at least one node"):
        MaxCutProblem(0, ())
    prob = MaxCutProblem(np.int64(3), ((np.int64(0), 2),), parameters=(0.1, 0.2))
    assert (prob.num_nodes, prob.edges) == (3, ((0, 2),))
    assert type(prob.num_nodes) is int and all(type(q) is int for q in prob.edges[0])


def test_random_blocks_deterministic():
    a = gen_random_blocks(8, 10, seed=5)
    b = gen_random_blocks(8, 10, seed=5)
    assert a == b
    assert gen_random_blocks(8, 10, seed=6) != a
    assert gate_counts(a).rz == 40
    assert gate_counts(a).cx >= 10
    assert all(q < 8 for g in a.gates for q in g.qubits)


def test_benchmark_suites():
    desk = desk_benchmarks()
    assert set(desk) == {
        "ghz4", "ghz8", "ghz12", "w4", "w8", "qft4", "qft8",
        "add4", "add9", "qaoa_ring4",
    }
    assert desk["ghz12"].num_qubits == 12
    big = structural_benchmarks()
    assert big["qft32"].num_qubits == 32
    assert big["random128"].num_qubits == 128
    assert to_dag(big["qft32"]).num_nodes <= 3000


def test_case_study_smoke_and_determinism():
    prob = ring_problem(4)
    res = run_qaoa_case_study(prob, "baseline", iterations=3, seed=1, shots=512)
    assert res.mode == "baseline"
    assert len(res.losses) >= 4
    assert res.final_loss == res.losses[-1]
    assert res.final_distribution.num_bits == 4
    again = run_qaoa_case_study(prob, "baseline", iterations=3, seed=1, shots=512)
    assert again.losses == res.losses
    with pytest.raises(ValueError):
        run_qaoa_case_study(prob, "exact")


def test_case_study_encoded_modes():
    prob = ring_problem(4)
    cor = run_qaoa_case_study(prob, "corrected", iterations=2, seed=1, shots=256)
    unc = run_qaoa_case_study(prob, "uncorrected", iterations=2, seed=1, shots=256)
    assert cor.mode == "corrected" and unc.mode == "uncorrected"
    assert len(cor.losses) >= 3 and len(unc.losses) >= 3
    assert "uncorrected" in QAOA_MODES


def test_loss_trace_csv_format():
    res = run_qaoa_case_study(ring_problem(4), "baseline", iterations=2, seed=2, shots=128)
    text = loss_trace_to_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,loss,mode"
    assert len(lines) == len(res.losses) + 1
    assert lines[1].startswith("0,") and lines[1].endswith(",baseline")


def test_importing_the_cli_does_not_load_the_optimizer():
    # only run_qaoa_case_study calls scipy.optimize, and it imports it itself
    src = os.path.dirname(os.path.dirname(qcloak.__file__))
    code = "import sys, qcloak, qcloak.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr
