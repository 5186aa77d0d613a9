from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcloak.netlsd
import qcloak.synthesis
from qcloak.bench import gen_random_blocks
from qcloak.circuit import Circuit, Gate, GateKind, cx, gate_counts, rx, rz, sx, x
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
    CANDIDATE_TOL,
    DRESS_MARGIN,
    SYNTH_CHUNK,
    SynthesisError,
    _candidate_sets,
    _emit_many,
    _euler_runs,
    _template_1q,
    fragment_signature,
    fragment_unitary,
    generate_candidates,
    minimal_cx_count,
    select_candidate,
    synthesize_block,
    synthesize_blocks,
    weyl_to_circuit,
)
from strategies import (
    CLASS_EDGE_EPS,
    CLASS_EDGES,
    ZeroFirstRng,
    boundary_blocks,
    circuits,
    class_edge_unitary,
    gate_bits,
    gates_on,
    peephole_1q,
    per_candidate_euler_1q,
    per_candidate_generate,
    rewritten_candidate_1q,
    rewritten_euler_1q,
    unitaries,
)


def _u1(c: Circuit) -> np.ndarray:
    return circuit_unitary(c)


def euler_1q(u: np.ndarray, wire: int = 0):
    """The one-matrix case of the stacked Euler emission."""
    return _euler_runs(np.asarray(u, dtype=complex)[None], [wire])[0]


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


def _candidate_1q(u: np.ndarray, rng: np.random.Generator | None) -> Circuit:
    return _emit_many([_template_1q(u, rng)])[0]


def _dressing_angle(seed: int) -> float:
    # _candidates_1q's first draw from the same per-seed RNG
    return np.random.default_rng(seed).uniform(DRESS_MARGIN, 2 * np.pi - DRESS_MARGIN)


def _assert_matches_rewriter(u: np.ndarray, seed: int):
    assert euler_1q(u) == rewritten_euler_1q(u)
    assert gate_bits(Circuit(1, tuple(euler_1q(u)))) == gate_bits(
        Circuit(1, tuple(per_candidate_euler_1q(u)))
    )
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


def _gates_on_wires(gates, wires):
    """The drawn gates, moved from local wires 0/1 onto the block's wires."""
    return tuple(Gate(g.kind, tuple(wires[q] for q in g.qubits), g.angle) for g in gates)


@st.composite
def blocks(draw):
    wires = draw(st.sampled_from([(0,), (2,), (0, 1), (1, 3)]))
    gates = draw(st.lists(gates_on(len(wires)), min_size=1, max_size=12))
    return Block(wires, _gates_on_wires(gates, wires), draw(st.integers(0, 500)))


def _assert_candidates_match_oracle(b: Block, k: int, seed: int):
    got = generate_candidates(b, k, seed)
    want = per_candidate_generate(b, k, seed)
    assert [gate_bits(c) for c in got] == [gate_bits(c) for c in want]
    assert [c.num_qubits for c in got] == [c.num_qubits for c in want]


@given(blocks(), st.sampled_from([1, 2, 3, 5]), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_stacked_candidates_match_per_candidate_oracle(b, k, seed):
    _assert_candidates_match_oracle(b, k, seed)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("eps", CLASS_EDGE_EPS)
@pytest.mark.parametrize("case", sorted(CLASS_EDGES))
def test_stacked_candidates_match_oracle_at_class_edges(case, eps, k):
    # random local frames keep the identity's block non-empty
    for frame_seed in range(1, 4):
        u = class_edge_unitary(case, eps, frame_seed)
        b = Block((0, 1), weyl_to_circuit(kak_decompose(u)).gates, 4 + frame_seed)
        _assert_candidates_match_oracle(b, k, frame_seed)


@given(circuits(min_qubits=1, max_qubits=2, max_gates=30))
@settings(max_examples=200, deadline=None)
def test_fragment_unitary_matches_circuit_unitary(c):
    assert np.max(np.abs(fragment_unitary(c) - circuit_unitary(c))) <= 1e-12


def _shift_first_rz(c: Circuit) -> Circuit:
    i = next(i for i, g in enumerate(c.gates) if g.kind is GateKind.RZ)
    g = c.gates[i]
    return Circuit(2, c.gates[:i] + (rz(g.angle + 1e-6, g.qubits[0]),) + c.gates[i + 1 :])


def _drop_first_cx(c: Circuit) -> Circuit:
    i = next(i for i, g in enumerate(c.gates) if g.kind is GateKind.CX)
    return Circuit(2, c.gates[:i] + c.gates[i + 1 :])


def _swap_first_cx(c: Circuit) -> Circuit:
    i = next(i for i, g in enumerate(c.gates) if g.kind is GateKind.CX)
    control, target = c.gates[i].qubits
    return Circuit(2, c.gates[:i] + (cx(target, control),) + c.gates[i + 1 :])


@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("mutate", [_shift_first_rz, _drop_first_cx, _swap_first_cx])
def test_candidate_check_names_the_mutated_candidate(monkeypatch, mutate, index):
    real = qcloak.synthesis._emit_many

    def mutating(templates):
        out = real(templates)
        out[index] = mutate(out[index])
        return out

    monkeypatch.setattr(qcloak.synthesis, "_emit_many", mutating)
    b = Block((0, 1), (sx(0), cx(0, 1), rz(0.8, 1), cx(1, 0), rz(0.3, 0)), 6)
    with pytest.raises(SynthesisError, match=f"^candidate {index} for block 6 failed"):
        generate_candidates(b, 3, 12)


# A generic two-qubit block: its magic-basis Gram matrix is not diagonal, so
# a zero diagonalizer mix fails and the search retries.
RETRY_BLOCK_GATES = (
    rx(0.3, 0), cx(0, 1), rz(0.7, 1), rx(1.1, 1), cx(1, 0), sx(0), rz(0.2, 0), cx(0, 1)
)


def _with_orders(bs: list[Block], first: int = 0) -> list[Block]:
    """The blocks with distinct order indices, in list order."""
    return [Block(b.qubits, b.gates, first + 3 * i) for i, b in enumerate(bs)]


def _oracle_rngs(seed: int, order_index: int, k: int, stub_order: int | None):
    rngs = [None] + [np.random.default_rng([seed, order_index, i]) for i in range(1, k)]
    if order_index == stub_order and k > 1:
        rngs[1] = ZeroFirstRng([seed, order_index, 1])
    return rngs


def _assert_stack_matches_per_block_oracle(bs, k, shortlist, seed, chunk, stub_order):
    """The stacked path with SYNTH_CHUNK = chunk against per-block,
    per-candidate synthesis; candidate 1 of the block stub_order draws from
    a stub whose first diagonalizer try fails."""
    stubs = []

    def stub_rngs(seed_, order_index, k_):
        rngs = _oracle_rngs(seed_, order_index, k_, stub_order)
        stubs.extend(r for r in rngs if isinstance(r, ZeroFirstRng))
        return rngs

    with mock.patch.object(qcloak.synthesis, "SYNTH_CHUNK", chunk), mock.patch.object(
        qcloak.synthesis, "_candidate_rngs", stub_rngs
    ):
        cand_sets = _candidate_sets(bs, k, seed)
        chosen = synthesize_blocks(bs, k, shortlist, seed)
    assert sorted(chosen) == sorted(b.order_index for b in bs)
    for b, cands in zip(bs, cand_sets):
        want = per_candidate_generate(
            b, k, seed, _oracle_rngs(seed, b.order_index, k, stub_order)
        )
        assert [gate_bits(c) for c in cands] == [gate_bits(c) for c in want]
        assert [c.num_qubits for c in cands] == [c.num_qubits for c in want]
        assert gate_bits(chosen[b.order_index]) == gate_bits(select_candidate(want, b, shortlist))
    if stub_order is not None and k > 1:
        # _candidate_sets and synthesize_blocks each drew one stub, and each retried
        assert len(stubs) == 2 and all(r.uniform_calls >= 2 for r in stubs)


@given(
    st.lists(blocks(), min_size=1, max_size=9),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, SYNTH_CHUNK]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_block_stack_matches_per_block_oracle(drawn, k, seed, chunk, data):
    # mixes of one- and two-qubit blocks; chunks of 1-3 blocks put chunk
    # boundaries inside the list, and one retrying block joins the stack
    at = data.draw(st.integers(0, len(drawn)))
    bs = _with_orders([*drawn[:at], Block((0, 1), RETRY_BLOCK_GATES, 0), *drawn[at:]])
    shortlist = data.draw(st.integers(1, k))
    _assert_stack_matches_per_block_oracle(bs, k, shortlist, seed, chunk, bs[at].order_index)


@pytest.mark.parametrize("count", [SYNTH_CHUNK - 1, SYNTH_CHUNK, SYNTH_CHUNK + 1])
def test_block_stack_matches_oracle_across_the_real_chunk_size(count):
    c = gen_random_blocks(24, 120, seed=3)
    bs = _with_orders(list(form_blocks(c).blocks)[:count], first=1)
    assert len(bs) == count and {len(b.qubits) for b in bs} == {1, 2}
    stub = next(b for b in reversed(bs) if len(b.qubits) == 2)
    _assert_stack_matches_per_block_oracle(bs, 3, 2, 11, SYNTH_CHUNK, stub.order_index)


def test_synthesize_blocks_of_nothing():
    assert synthesize_blocks([], 3, 2, 0) == {}


def test_kak_failure_names_its_block(monkeypatch):
    # a diagonalizer search that never succeeds fails the block's candidate
    # as a SynthesisError naming block and candidate, like a failed check
    class NeverRng(ZeroFirstRng):
        def uniform(self, *args, **kwargs):
            return np.zeros(2)  # every diagonalizer try mixes nothing

    real = qcloak.synthesis._candidate_rngs

    def rngs(seed, order_index, k):
        out = real(seed, order_index, k)
        if order_index == 9:
            out[2] = NeverRng(0)
        return out

    monkeypatch.setattr(qcloak.synthesis, "_candidate_rngs", rngs)
    bs = [Block((0, 1), RETRY_BLOCK_GATES, 4), Block((0, 1), RETRY_BLOCK_GATES, 9)]
    with pytest.raises(SynthesisError, match="^candidate 2 for block 9 has no KAK"):
        synthesize_blocks(bs, 3, 2, 0)


@given(st.data(), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_kak_class_boundaries_through_the_stack(data, k, seed):
    # Weyl coordinates within CLASS_TOL of 0 and pi/4, degenerate
    # magic-basis eigenvalues and near-identity blocks, under random local
    # frames: each candidate either matches its block or the stack raises
    bs = [data.draw(boundary_blocks(3 * i)) for i in range(data.draw(st.integers(1, 4)))]
    try:
        cand_sets = _candidate_sets(bs, k, seed)
    except SynthesisError:
        return
    for b, cands in zip(bs, cand_sets):
        u = block_unitary(b)
        for c in cands:
            assert c.num_qubits == 2
            assert {g.kind for g in c.gates} <= {GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX}
            assert gate_counts(c).cx <= 3
            assert equal_up_to_global_phase(circuit_unitary(c), u, CANDIDATE_TOL + 1e-12)
