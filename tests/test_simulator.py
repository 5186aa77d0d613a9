import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcloak.bench import gen_adder, gen_ghz, gen_wstate
from qcloak.circuit import Circuit, cx, rz, sx, x
from qcloak.simulator import (
    SIM_QUBIT_CAP,
    expectation,
    ideal_distribution,
    run_statevector,
    sample,
)
from strategies import circuits, one_qubit_runs, slow_circuit_unitary


def test_x_is_little_endian():
    assert ideal_distribution(Circuit(2, (x(0),), (0, 1))).outcomes == {"01": 1.0}
    assert ideal_distribution(Circuit(2, (x(1),), (0, 1))).outcomes == {"10": 1.0}


def test_cx_control_is_first_operand():
    d = ideal_distribution(Circuit(2, (x(0), cx(0, 1)), (0, 1)))
    assert d.outcomes == {"11": 1.0}
    d = ideal_distribution(Circuit(2, (x(1), cx(0, 1)), (0, 1)))
    assert d.outcomes == {"10": 1.0}


def test_statevector_ghz():
    s = run_statevector(gen_ghz(3))
    assert s.num_qubits == 3
    amps = s.amplitudes
    assert abs(abs(amps[0]) ** 2 - 0.5) < 1e-12
    assert abs(abs(amps[7]) ** 2 - 0.5) < 1e-12
    assert np.isclose(np.sum(s.probabilities()), 1.0)


def test_wstate_uniform_one_hot():
    d = ideal_distribution(gen_wstate(5))
    assert set(d.outcomes) == {format(1 << q, "05b") for q in range(5)}
    assert all(abs(v - 0.2) < 1e-12 for v in d.outcomes.values())


def test_adder_is_deterministic_point_mass():
    # wires [carry-in, a0, b0, carry-out], a=1, b=1: b -> 0, carry-out -> 1
    d = ideal_distribution(gen_adder(4, a=1, b=1))
    assert d.outcomes == {"1010": pytest.approx(1.0)}
    d = ideal_distribution(gen_adder(4, a=0, b=1))
    assert d.outcomes == {"0100": pytest.approx(1.0)}


def test_marginalization_on_measured_subset():
    c = Circuit(2, (x(1), sx(0)), (1,))
    assert ideal_distribution(c).outcomes == {"1": pytest.approx(1.0)}
    bell = Circuit(2, (sx(0), cx(0, 1)))
    d = ideal_distribution(Circuit(2, bell.gates, (1,)))
    assert set(d.outcomes) == {"0", "1"}
    assert all(abs(v - 0.5) < 1e-12 for v in d.outcomes.values())


def test_unmeasured_circuit_measures_all():
    d = ideal_distribution(Circuit(2, (x(0),)))
    assert d.outcomes == {"01": 1.0}


def test_sample_counts_and_determinism():
    c = gen_ghz(4)
    d = sample(c, 4096, seed=7)
    assert d.kind == "counts"
    assert d.total == 4096
    assert set(d.outcomes) <= {"0000", "1111"}
    assert d == sample(c, 4096, seed=7)
    assert d != sample(c, 4096, seed=8)


def test_expectation():
    d = ideal_distribution(gen_ghz(2))
    assert expectation(d, {"00": 0.0, "11": 2.0}) == pytest.approx(1.0)
    counts = sample(gen_ghz(2), 1000, seed=0)
    val = expectation(counts, {"00": 0.0, "11": 2.0})
    assert 0.8 < val < 1.2
    with pytest.raises(ValueError):
        expectation(d, {"00": 1.0})


def test_qubit_cap():
    with pytest.raises(ValueError):
        run_statevector(Circuit(SIM_QUBIT_CAP + 1))


@given(st.one_of(circuits(max_qubits=4, max_gates=14),
                 one_qubit_runs(max_qubits=6, min_gates=40)))
@settings(max_examples=60, deadline=None)
def test_distribution_matches_unitary_column(c):
    # <s|U|0> from an independent dense-unitary path; the second source runs
    # long fused one-qubit runs on the single column
    u = slow_circuit_unitary(c)
    assert np.max(np.abs(run_statevector(c).amplitudes - u[:, 0])) < 1e-12
    probs = np.abs(u[:, 0]) ** 2
    d = ideal_distribution(Circuit(c.num_qubits, c.gates, tuple(range(c.num_qubits))))
    for idx, p in enumerate(probs):
        s = format(idx, f"0{c.num_qubits}b")
        assert abs(d.outcomes.get(s, 0.0) - p) < 1e-10
