import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcloak.netlsd
import qcloak.synthesis
from qcloak.bench import gen_random_blocks
from qcloak.circuit import Circuit, GateKind, cx, gate_counts, rz, sx, x
from qcloak.kak import kak_decompose
from qcloak.linalg import (
    SX_MATRIX,
    circuit_unitary,
    equal_up_to_global_phase,
    rx_matrix,
    ry_matrix,
    rz_matrix,
)
from qcloak.netlsd import circuit_signature
from qcloak.partition import Block, block_unitary, form_blocks, to_local_circuit
from qcloak.synthesis import (
    DRESS_MARGIN,
    _candidate_1q,
    euler_1q,
    fragment_signature,
    generate_candidates,
    minimal_cx_count,
    select_candidate,
    synthesize_block,
    weyl_to_circuit,
)
from strategies import (
    peephole_1q,
    rewritten_candidate_1q,
    rewritten_euler_1q,
    unitaries,
)


def _u1(c: Circuit) -> np.ndarray:
    return circuit_unitary(c)


def test_peephole_pinned_rules():
    assert peephole_1q([sx(0)] * 4) == []
    assert peephole_1q([sx(0), sx(0)]) == [x(0)]
    assert peephole_1q([rz(0.25, 0), rz(0.5, 0)]) == [rz(0.75, 0)]
    assert peephole_1q([rz(2 * np.pi, 0)]) == []
    assert peephole_1q([rz(1e-15, 0)]) == []
    # non-adjacent runs are preserved
    kept = peephole_1q([sx(0), rz(1.0, 0), sx(0)])
    assert kept == [sx(0), rz(1.0, 0), sx(0)]


@given(st.lists(st.sampled_from(["sx", "rz"]), min_size=0, max_size=10), st.data())
def test_peephole_preserves_unitary(kinds, data):
    gates = []
    for kname in kinds:
        if kname == "sx":
            gates.append(sx(0))
        else:
            gates.append(rz(data.draw(st.floats(-6.3, 6.3, allow_nan=False)), 0))
    out = peephole_1q(gates)
    a = _u1(Circuit(1, tuple(gates)))
    b = _u1(Circuit(1, tuple(out)))
    assert equal_up_to_global_phase(a, b, 1e-9)


def test_euler_diagonal_collapses_to_rz():
    gates = euler_1q(rz_matrix(1.3))
    assert [g.kind for g in gates] == [GateKind.RZ]
    assert equal_up_to_global_phase(_u1(Circuit(1, tuple(gates))), rz_matrix(1.3), 1e-10)


def test_euler_basis_is_rz_sx_x():
    gates = euler_1q(rx_matrix(0.9))
    assert set(g.kind for g in gates) <= {GateKind.RZ, GateKind.SX, GateKind.X}
    assert len(gates) <= 5


# One-qubit edges where the reference rewriter drops or merges gates: theta
# near pi (trivial middle RZ, one X), lam near 0 and phi near -pi (trivial
# outer RZ), a diagonal u (one RZ, or none) and |a| < 1e-13 (antidiagonal u).
EDGE_UNITARIES = {
    "theta_pi": lambda e: rz_matrix(0.7 + e) @ ry_matrix(np.pi + e) @ rz_matrix(0.4 + e),
    "lam_0": lambda e: rz_matrix(0.7 + e) @ ry_matrix(1.1 + e) @ rz_matrix(e),
    "phi_minus_pi": lambda e: rz_matrix(-np.pi + e) @ ry_matrix(1.1 + e) @ rz_matrix(0.4 + e),
    "all_three": lambda e: rz_matrix(-np.pi + e) @ ry_matrix(np.pi + e) @ rz_matrix(e),
    "diagonal": lambda e: rz_matrix(1.3 + e),
    "diagonal_trivial": lambda e: rz_matrix(e),
    "a_zero": lambda e: np.array([[e, -1.0], [1.0, e]]) / np.sqrt(1 + e * e),
}
EDGE_EPS = [0.0, 1e-13, -1e-13, 1e-11]


def _dressing_angle(seed: int) -> float:
    # _candidate_1q's first draw from the same per-seed RNG
    return np.random.default_rng(seed).uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)


def _assert_matches_rewriter(u: np.ndarray, seed: int):
    assert euler_1q(u) == rewritten_euler_1q(u)
    assert euler_1q(u, 3) == rewritten_euler_1q(u, 3)
    assert _candidate_1q(u, None) == rewritten_candidate_1q(u, None)
    # From u RZ(psi) the dressed candidate re-derives u itself: for lam near 0
    # that run has no leading RZ and RZ(psi) is prepended, while from u the
    # run starts with RZ(-psi) and the folded RZ is trivial.
    for v in (u, u @ rz_matrix(_dressing_angle(seed))):
        got = _candidate_1q(v, np.random.default_rng(seed))
        assert got == rewritten_candidate_1q(v, np.random.default_rng(seed))
        assert equal_up_to_global_phase(_u1(got), v, 1e-9)


@given(
    st.one_of(
        unitaries(dim=2),
        st.builds(
            lambda case, e: EDGE_UNITARIES[case](e),
            st.sampled_from(sorted(EDGE_UNITARIES)),
            st.sampled_from(EDGE_EPS),
        ),
    ),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_one_qubit_emission_matches_rewriter_reference(u, seed):
    _assert_matches_rewriter(u, seed)


@pytest.mark.parametrize("eps", EDGE_EPS)
@pytest.mark.parametrize("case", sorted(EDGE_UNITARIES))
def test_euler_fast_path_at_trivial_rz_edges(case, eps):
    """Every edge at every eps, gate for gate against the reference rewriter."""
    u = EDGE_UNITARIES[case](eps)
    gates = euler_1q(u)
    assert equal_up_to_global_phase(_u1(Circuit(1, tuple(gates))), u, 1e-9)
    for seed in range(4):
        _assert_matches_rewriter(u, seed)


@given(unitaries(dim=2))
@settings(max_examples=150, deadline=None)
def test_euler_equivalence_property(u):
    gates = euler_1q(u)
    assert equal_up_to_global_phase(_u1(Circuit(1, tuple(gates))), u, 1e-9)
    assert sum(1 for g in gates if g.kind is GateKind.SX) <= 2


def test_minimal_cx_count_classes():
    assert minimal_cx_count(np.array([0.0, 0.0, 0.0])) == 0
    assert minimal_cx_count(np.array([np.pi / 4, 0.0, 0.0])) == 1
    assert minimal_cx_count(np.array([0.5, 0.3, 0.0])) == 2
    assert minimal_cx_count(np.array([np.pi / 4, np.pi / 4, np.pi / 4])) == 3
    assert minimal_cx_count(np.array([0.5, 0.3, 1e-12])) == 2


@given(unitaries())
@settings(max_examples=100, deadline=None)
def test_weyl_to_circuit_equivalence_and_minimality(u):
    t = kak_decompose(u)
    frag = weyl_to_circuit(t)
    assert equal_up_to_global_phase(circuit_unitary(frag), u, 1e-9)
    got = sum(1 for g in frag.gates if g.kind is GateKind.CX)
    assert got == minimal_cx_count(t.weyl)


def test_cx_block_synthesizes_to_one_cx():
    b = Block((0, 1), (cx(0, 1),), 0)
    frag = weyl_to_circuit(kak_decompose(block_unitary(b)))
    assert sum(1 for g in frag.gates if g.kind is GateKind.CX) == 1


def test_generate_candidates_all_equivalent_and_minimal():
    b = Block((0, 1), (sx(0), cx(0, 1), rz(0.8, 1), cx(1, 0)), 3)
    cands = generate_candidates(b, 4, 12)
    assert len(cands) == 4
    u = block_unitary(b)
    want = minimal_cx_count(kak_decompose(u).weyl)
    for c in cands:
        assert equal_up_to_global_phase(circuit_unitary(c), u, 1e-9)
        assert gate_counts(c).cx == want
    # dressed candidates differ from the plain one
    assert any(c.gates != cands[0].gates for c in cands[1:])


def test_generate_candidates_deterministic():
    b = Block((0, 1), (cx(0, 1), rz(0.8, 1)), 1)
    a = generate_candidates(b, 3, 5)
    assert a == generate_candidates(b, 3, 5)


def test_generate_candidates_one_qubit_block():
    b = Block((2,), (sx(2), rz(0.4, 2), sx(2)), 7)
    cands = generate_candidates(b, 3, 0)
    u = block_unitary(b)
    for c in cands:
        assert c.num_qubits == 1
        assert equal_up_to_global_phase(circuit_unitary(c), u, 1e-9)


def test_select_candidate_prefers_fewest_sx():
    b = Block((0, 1), (cx(0, 1),), 0)
    short = Circuit(2, (cx(0, 1),))
    long_ = Circuit(2, (sx(0), sx(0), sx(0), sx(0), cx(0, 1)))
    assert select_candidate([long_, short], b, 1) == short


def test_select_candidate_shortlist_bound():
    b = Block((0, 1), (sx(0), cx(0, 1), rz(0.8, 1), cx(1, 0)), 3)
    shortlist = 2
    cands = generate_candidates(b, 4, 12)
    chosen = select_candidate(cands, b, shortlist)
    sxx = sorted(gate_counts(c).sx_plus_x for c in cands)
    assert gate_counts(chosen).sx_plus_x <= sxx[shortlist - 1]


def test_select_candidate_signs_reference_block_once(monkeypatch):
    calls = []
    real = qcloak.netlsd.netlsd_signature

    def counting(d, *args, **kwargs):
        calls.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(qcloak.netlsd, "netlsd_signature", counting)
    qcloak.synthesis._wire_signature.cache_clear()
    b = Block((0, 1), (sx(0), cx(0, 1), rz(0.8, 1), cx(1, 0)), 3)
    shortlist = 3
    cands = generate_candidates(b, 3, 12)
    first = select_candidate(cands, b, shortlist)
    # at most one reference signature plus one per shortlisted candidate
    assert 1 <= len(calls) <= 1 + shortlist
    calls.clear()
    assert select_candidate(cands, b, shortlist) == first
    assert calls == []


def test_fragment_signature_memo_matches_fresh_signature():
    qcloak.synthesis._wire_signature.cache_clear()
    c = gen_random_blocks(16, 30, seed=1)
    frags = []
    for b in form_blocks(c).blocks:
        frags.append(to_local_circuit(b))
        frags.extend(generate_candidates(b, 3, 4))
    for frag in frags:
        memo = fragment_signature(frag)
        fresh = circuit_signature(frag)
        assert np.array_equal(memo.timescales, fresh.timescales)
        assert np.array_equal(memo.traces, fresh.traces)
    assert qcloak.synthesis._wire_signature.cache_info().hits > 0
    memo = fragment_signature(frags[0])
    with pytest.raises(ValueError, match="read-only"):
        memo.traces[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        memo.timescales[0] = 0.0


def test_synthesize_block_end_to_end():
    b = Block((1, 3), (cx(1, 3), rz(1.1, 1), sx(3), cx(3, 1)), 2)
    frag = synthesize_block(b, 3, 2, 8)
    assert frag.num_qubits == 2
    assert equal_up_to_global_phase(circuit_unitary(frag), block_unitary(b), 1e-9)
