import itertools
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcloak.netlsd
import qcloak.synthesis
from qcloak.bench import gen_random_blocks
from qcloak.circuit import Circuit, CircuitColumns, Gate, GateKind, cx, gate_counts, join_columns
from qcloak.circuit import offsets, rx, rz, sx, x
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
from qcloak.obfuscate import inject_rx_pairs
from qcloak.partition import Block, block_unitary, form_blocks, partition_of, reassemble
from qcloak.synthesis import (
    CANDIDATE_TOL,
    CX_CODE,
    DRAW_STRIDE,
    RZ_CODE,
    SYNTH_CHUNK,
    Candidates,
    SynthesisError,
    _checked_candidates,
    _cx_classes,
    _emit_many,
    _templates_1q,
    block_structures,
    candidate_chunks,
    candidate_unitaries,
    generate_candidates,
    minimal_cx_count,
    select_candidate,
    synthesize_block,
    synthesize_blocks,
    weyl_to_circuit,
)
from strategies import (
    BOUNDARY_OFFSETS,
    BOUNDARY_POINTS,
    CLASS_EDGE_EPS,
    CLASS_EDGES,
    ZERO_MIX_DRAWS,
    blocks,
    boundary_blocks,
    candidate_draw_rows,
    circuits,
    class_edge_unitary,
    counting_default_rng,
    divergence_loop_select,
    dress_angle,
    fragment_unitary,
    fragments_by_order,
    gate_bits,
    gates_on_wires,
    partition_of_blocks,
    peephole_1q,
    per_candidate_euler_1q,
    per_candidate_generate,
    rewritten_candidate_1q,
    rewritten_euler_1q,
    scalar_minimal_cx_count,
    to_local_circuit,
    unitaries,
)


def _u1(c: Circuit) -> np.ndarray:
    return circuit_unitary(c)


def euler_1q(u: np.ndarray, wire: int = 0):
    """The one-matrix case of the stacked Euler emission, on the given wire."""
    frag = _emit_many(np.asarray(u, dtype=complex)[None], [1], [0]).circuit(0)
    return [Gate(g.kind, (wire,), g.angle) for g in frag.gates]


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


def _candidate_1q(u: np.ndarray, draw: float | None) -> Circuit:
    mats = np.empty((1, 2, 2), dtype=complex)
    row = np.zeros((1, DRAW_STRIDE))
    row[0, 0] = draw or 0.0
    dressed = np.array([draw is not None])
    u = np.asarray(u, dtype=complex)[None]
    leads = _templates_1q(mats, np.zeros(1, dtype=int), u, row, dressed)
    return _emit_many(mats, [1], [0], *leads).circuit(0)


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
    draw = np.random.default_rng(seed).random()
    for v in (u, u @ rz_matrix(dress_angle(draw))):
        got = _candidate_1q(v, draw)
        assert got == rewritten_candidate_1q(v, draw)
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


def test_stacked_class_decision_matches_per_candidate_rule():
    # every boundary point with every offset on each coordinate, and the
    # offsets alone (near-identity blocks): the stacked decision keeps the
    # per-candidate rule exactly, its CLASS_TOL edges included
    offsets = np.array(list(itertools.product(BOUNDARY_OFFSETS, repeat=3)))
    weyl = np.concatenate([offsets] + [np.array(c) + offsets for c in BOUNDARY_POINTS.values()])
    want = [scalar_minimal_cx_count(c) for c in weyl]
    assert _cx_classes(weyl).tolist() == want
    assert [minimal_cx_count(c) for c in weyl] == want
    assert set(want) == {0, 1, 2, 3}


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


@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=k, max_size=6 * k)
            .map(lambda rows: rows[: len(rows) // k * k]),
            st.integers(1, 6),
        )
    )
)
def test_shortlists_rank_as_the_sorted_reference(drawn):
    # few distinct counts, so every tie rule is exercised
    k, counts, shortlist = drawn
    sx_plus_x, rz = np.array(counts).T
    got = qcloak.synthesis._shortlists(sx_plus_x, rz, k, shortlist).tolist()
    want = [
        sorted(range(j, j + k), key=lambda i: (sx_plus_x[i], rz[i], i))[:shortlist]
        for j in range(0, len(counts), k)
    ]
    assert got == want


@pytest.mark.parametrize("shortlist", [-1, 0])
def test_shortlist_below_one_is_rejected(shortlist):
    # a shortlist of -1 would drop each block's last candidate, and 0 keep none
    p = form_blocks(gen_random_blocks(3, 4, seed=0))
    message = f"^need shortlist >= 1 candidates per block, got {shortlist}$"
    with pytest.raises(ValueError, match=message):
        synthesize_blocks(p, 3, shortlist, 0)
    b = p.blocks[0]
    with pytest.raises(ValueError, match=message):
        select_candidate(generate_candidates(b, 3, 0), b, shortlist)


def test_select_candidate_signs_reference_block_once(monkeypatch):
    calls = []
    real = qcloak.netlsd.netlsd_signature

    def counting(d, *args, **kwargs):
        calls.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(qcloak.netlsd, "netlsd_signature", counting)
    qcloak.synthesis._structure_signature.cache_clear()
    b = Block((0, 1), (sx(0), cx(0, 1), rz(0.8, 1), cx(1, 0)), 3)
    shortlist = 3
    cands = generate_candidates(b, 3, 12)
    first = select_candidate(cands, b, shortlist)
    # at most one reference signature plus one per shortlisted candidate
    assert 1 <= len(calls) <= 1 + shortlist
    calls.clear()
    assert select_candidate(cands, b, shortlist) == first
    assert calls == []


def test_select_candidate_rejects_a_candidate_off_the_block_wires():
    # a 4-qubit candidate's wires 2 and 3 would read as local wires 0 and 1
    b = Block((0, 1), (cx(0, 1), sx(1)), 0)
    cands = [Circuit(4, (cx(2, 3), sx(3))), Circuit(2, (sx(0), cx(0, 1)))]
    with pytest.raises(ValueError, match="^candidate 0 on 4 qubits is not on the block's 2 local"):
        select_candidate(cands, b, 2)
    one = Block((3,), (sx(3),), 0)
    with pytest.raises(ValueError, match="^candidate 1 on 2 qubits is not on the block's 1 local"):
        select_candidate([Circuit(1, (sx(0),)), Circuit(2, (sx(1),))], one, 2)


def _stacked(circuits) -> Candidates:
    sizes = [c.num_gates for c in circuits]
    cols = join_columns(c.columns for c in circuits)
    return Candidates(cols, offsets(sizes), np.array([c.num_qubits for c in circuits]))


@pytest.mark.parametrize("k, shortlist", [(1, 1), (3, 1), (3, 2), (3, 3), (5, 3), (5, 5), (2, 4)])
def test_batched_selection_equals_the_divergence_loop(k, shortlist):
    p = form_blocks(gen_random_blocks(6, 40, seed=2))
    cands = _checked_candidates(p, k, 7)
    refs = block_structures(p)
    got = qcloak.synthesis._select(cands, refs, k, shortlist)
    assert got == divergence_loop_select(cands, refs, k, shortlist)


@pytest.mark.parametrize("shortlist", [2, 6])
def test_batched_selection_keeps_the_first_of_identical_structures(shortlist):
    # every candidate appears twice, so every shortlist's most distant
    # structure ties exactly with its copy; the first of them is kept
    p = form_blocks(gen_random_blocks(6, 40, seed=2))
    cands, circuits = _checked_candidates(p, 3, 7), []
    for j in range(p.num_blocks):
        block = [cands.circuit(3 * j + i) for i in range(3)]
        circuits += block + block
    stack, refs = _stacked(circuits), block_structures(p)
    got = qcloak.synthesis._select(stack, refs, 6, shortlist)
    assert got == divergence_loop_select(stack, refs, 6, shortlist)
    if shortlist == 6:
        # every candidate is shortlisted, so each block's first copy wins
        assert all(i % 6 < 3 for i in got)


def _memo_signature(c):
    one = Candidates(c.columns, np.array([0, c.num_gates]), np.array([c.num_qubits]))
    return qcloak.synthesis._structure_signature(*one.keys()[0])


def test_fragment_signature_memo_matches_fresh_signature():
    qcloak.synthesis._structure_signature.cache_clear()
    c = gen_random_blocks(16, 30, seed=1)
    frags = []
    for b in form_blocks(c).blocks:
        frags.append(to_local_circuit(b))
        frags.extend(generate_candidates(b, 3, 4))
    for frag in frags:
        memo = _memo_signature(frag)
        fresh = circuit_signature(frag)
        assert memo.shape == fresh.shape == qcloak.netlsd.GRID.shape
        assert memo.dtype == np.float64 and np.array_equal(memo, fresh)
    assert qcloak.synthesis._structure_signature.cache_info().hits > 0
    memo = _memo_signature(frags[0])
    with pytest.raises(ValueError, match="read-only"):
        memo[0] = 0.0


def test_synthesize_block_end_to_end():
    b = Block((1, 3), (cx(1, 3), rz(1.1, 1), sx(3), cx(3, 1)), 2)
    frag = synthesize_block(b, 3, 2, 8)
    # Block rejects a gate outside its qubits
    local = to_local_circuit(Block(b.qubits, frag, b.order_index))
    assert local.num_qubits == 2
    assert equal_up_to_global_phase(circuit_unitary(local), block_unitary(b), 1e-9)


@given(blocks(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_candidate_memo_key_is_one_read_three_ways(b, k, seed):
    # the stack's key, the key of its rows placed as a block on qubits 1 and 3
    # (or 2 alone), and the key select_candidate builds from the Circuits
    stack = _checked_candidates(partition_of(b), k, seed)
    keys = stack.keys()
    assert len(keys) == k
    for i, key in enumerate(keys):
        qubits = (1, 3) if stack.width[i] == 2 else (2,)
        rows, sizes = stack.place([i], [qubits[0]], [qubits[-1]])
        if sizes[0]:  # a partition's block has at least one gate
            placed = Block.from_rows(qubits, rows, b.order_index)
            assert block_structures(partition_of(placed)) == [key]
    seen = []
    real = qcloak.synthesis._select

    def spy(cands, *args):
        seen.append(cands)
        return real(cands, *args)

    with mock.patch.object(qcloak.synthesis, "_select", spy):
        select_candidate(generate_candidates(b, k, seed), b, 1)
    assert [c.keys() for c in seen] == [keys]


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


def _with_candidate(cands: Candidates, index: int, mutate) -> Candidates:
    """cands with the rows of candidate index replaced by mutate's."""
    parts = [
        CircuitColumns(*(col[a:z] for col in cands.rows))
        for a, z in pairwise(cands.start.tolist())
    ]
    parts[index] = mutate(parts[index])
    sizes = [len(part.kind) for part in parts]
    return Candidates(join_columns(parts), np.concatenate(([0], np.cumsum(sizes))), cands.width)


def _shift_first_rz(rows: CircuitColumns) -> CircuitColumns:
    angle = rows.angle.copy()
    angle[np.flatnonzero(rows.kind == RZ_CODE)[0]] += 1e-6
    return rows._replace(angle=angle)


def _drop_first_cx(rows: CircuitColumns) -> CircuitColumns:
    i = np.flatnonzero(rows.kind == CX_CODE)[0]
    return CircuitColumns(*(np.delete(col, i) for col in rows))


def _swap_first_cx(rows: CircuitColumns) -> CircuitColumns:
    q0, q1 = rows.q0.copy(), rows.q1.copy()
    i = np.flatnonzero(rows.kind == CX_CODE)[0]
    q0[i], q1[i] = rows.q1[i], rows.q0[i]
    return rows._replace(q0=q0, q1=q1)


def _mutating_emit(monkeypatch, index: int, mutate):
    real = qcloak.synthesis._emit_many
    monkeypatch.setattr(
        qcloak.synthesis,
        "_emit_many",
        lambda *args: _with_candidate(real(*args), index, mutate),
    )


MUTATED_BLOCK = Block((0, 1), (sx(0), cx(0, 1), rz(0.8, 1), cx(1, 0), rz(0.3, 0)), 6)


@pytest.mark.parametrize("index", [0, 2])
@pytest.mark.parametrize("mutate", [_shift_first_rz, _drop_first_cx, _swap_first_cx])
def test_candidate_check_names_the_mutated_candidate(monkeypatch, mutate, index):
    _mutating_emit(monkeypatch, index, mutate)
    with pytest.raises(SynthesisError, match=f"^candidate {index} for block 6 failed"):
        generate_candidates(MUTATED_BLOCK, 3, 12)


@pytest.mark.parametrize("mutate", [_shift_first_rz, _drop_first_cx, _swap_first_cx])
def test_candidate_check_covers_candidates_that_are_not_selected(monkeypatch, mutate):
    # the check runs on every candidate, not only on the one selected
    # MUTATED_BLOCK's qubits are its local wires
    chosen = synthesize_block(MUTATED_BLOCK, 3, 2, 12)
    cands = generate_candidates(MUTATED_BLOCK, 3, 12)
    dropped = [i for i, c in enumerate(cands) if c.gates != chosen]
    assert dropped
    _mutating_emit(monkeypatch, dropped[-1], mutate)
    with pytest.raises(SynthesisError, match=f"^candidate {dropped[-1]} for block 6 failed"):
        synthesize_blocks(partition_of_blocks([MUTATED_BLOCK]), 3, 2, 12)


def _assert_check_unitaries_match_circuits(bs: list[Block], k: int, seed: int):
    try:
        cands = _checked_candidates(partition_of_blocks(bs), k, seed)
    except SynthesisError:
        return
    groups = candidate_unitaries(cands)
    assert sorted(j for idx, _ in groups.values() for j in idx) == list(range(len(cands)))
    for idx, stack in groups.values():
        for j, u in zip(idx.tolist(), stack):
            assert np.max(np.abs(u - circuit_unitary(cands.circuit(j)))) <= 1e-12


@given(
    st.lists(blocks(), min_size=1, max_size=6),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_check_unitaries_match_materialized_candidates(drawn, k, seed):
    _assert_check_unitaries_match_circuits(_with_orders(drawn), k, seed)


@given(st.data(), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_check_unitaries_match_materialized_candidates_at_class_boundaries(data, k, seed):
    bs = [data.draw(boundary_blocks(3 * i)) for i in range(data.draw(st.integers(1, 4)))]
    _assert_check_unitaries_match_circuits(bs, k, seed)


def test_reassembly_builds_one_gate_per_output_gate(monkeypatch):
    # synthesis places each chunk's selected fragments on their blocks'
    # qubits as columns, and reassemble builds its output from columns: no
    # Gate and no validated Circuit until the output's gates are read, and
    # then one Gate per output gate
    p = form_blocks(gen_random_blocks(16, 60, seed=2))
    # also fills the signature memo
    want = gate_bits(reassemble(p, *synthesize_blocks(p, 3, 2, 5)))
    built = {Gate: 0, Circuit: 0}
    # Gate checks itself in __post_init__ and Circuit(n, gates) checks the
    # circuit in __init__, which Circuit.from_columns calls; the passes build
    # with Circuit.from_rows, which runs neither
    for cls, hook in ((Gate, "__post_init__"), (Circuit, "__init__")):

        def counting(self, *args, cls=cls, real=getattr(cls, hook)):
            built[cls] += 1
            real(self, *args)

        monkeypatch.setattr(cls, hook, counting)
    rows, bounds = synthesize_blocks(p, 3, 2, 5)
    out = reassemble(p, rows, bounds)
    assert built == {Gate: 0, Circuit: 0}
    assert out.num_gates == len(rows.kind)
    assert gate_bits(out) == want
    assert built == {Gate: out.num_gates, Circuit: 0}
    out.gates
    assert built == {Gate: out.num_gates, Circuit: 0}  # built once


# A generic two-qubit block: its magic-basis Gram matrix is not diagonal, so
# a zero diagonalizer mix fails and the search retries.
RETRY_BLOCK_GATES = (
    rx(0.3, 0), cx(0, 1), rz(0.7, 1), rx(1.1, 1), cx(1, 0), sx(0), rz(0.2, 0), cx(0, 1)
)


def _with_orders(bs: list[Block], first: int = 0) -> list[Block]:
    """The blocks with distinct order indices, in list order."""
    return [Block(b.qubits, b.gates, first + 3 * i) for i, b in enumerate(bs)]


def _oracle_draws(seed: int, order_index: int, k: int, stub_order: int | None) -> np.ndarray:
    draws = candidate_draw_rows(seed, order_index, k)
    if order_index == stub_order and k > 1:
        draws[1, :2] = ZERO_MIX_DRAWS
    return draws


def _assert_stack_matches_per_block_oracle(bs, k, shortlist, seed, chunk, stub_order):
    """The stacked path with SYNTH_CHUNK = chunk against per-block,
    per-candidate synthesis; the first diagonalizer try of candidate 1 of
    the block stub_order takes a zero mix, which fails, so it retries."""
    real = qcloak.synthesis._candidate_draws

    def stub_draws(seed_, order, k_):
        draws = real(seed_, order, k_)
        if k_ > 1:
            draws[np.asarray(order) == stub_order, 1, :2] = ZERO_MIX_DRAWS
        return draws

    with mock.patch.object(qcloak.synthesis, "SYNTH_CHUNK", chunk), mock.patch.object(
        qcloak.synthesis, "_candidate_draws", stub_draws
    ), pytest.MonkeyPatch.context() as monkeypatch:
        calls = counting_default_rng(monkeypatch)
        p = partition_of_blocks(bs)
        stack = _checked_candidates(p, k, seed)
        chosen = fragments_by_order(p, *synthesize_blocks(p, k, shortlist, seed))
    assert sorted(chosen) == sorted(b.order_index for b in bs)
    for j, b in enumerate(bs):
        cands = [stack.circuit(j * k + i) for i in range(k)]
        want = per_candidate_generate(
            b, k, seed, _oracle_draws(seed, b.order_index, k, stub_order)
        )
        assert [gate_bits(c) for c in cands] == [gate_bits(c) for c in want]
        assert [c.num_qubits for c in cands] == [c.num_qubits for c in want]
        picked = select_candidate(want, b, shortlist)
        assert gate_bits(chosen[b.order_index]) == gate_bits(gates_on_wires(picked.gates, b.qubits))
    if stub_order is not None and k > 1:
        # _checked_candidates and synthesize_blocks each retried the stub
        # from its own generator
        assert calls.count(([seed, stub_order, 1],)) == 2


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
    c = gen_random_blocks(24, 200, seed=3)  # 399 blocks, more than SYNTH_CHUNK + 1
    bs = _with_orders(list(form_blocks(c).blocks)[:count], first=1)
    assert len(bs) == count and {len(b.qubits) for b in bs} == {1, 2}
    stub = next(b for b in reversed(bs) if len(b.qubits) == 2)
    _assert_stack_matches_per_block_oracle(bs, 3, 2, 11, SYNTH_CHUNK, stub.order_index)


def test_synthesize_blocks_of_nothing():
    p = partition_of_blocks([])
    assert fragments_by_order(p, *synthesize_blocks(p, 3, 2, 0)) == {}


def test_kak_failure_names_its_block(monkeypatch):
    # a diagonalizer search that never succeeds fails the block's candidate
    # as a SynthesisError naming block and candidate, like a failed check
    class NeverRng:
        def uniform(self, *args, **kwargs):
            return np.zeros(2)  # every diagonalizer try mixes nothing

    real_draws, real_rng = qcloak.synthesis._candidate_draws, np.random.default_rng

    def draws(seed, order, k):
        out = real_draws(seed, order, k)
        out[np.asarray(order) == 9, 2, :2] = ZERO_MIX_DRAWS
        return out

    def rng(seed=None):
        return NeverRng() if seed == [0, 9, 2] else real_rng(seed)

    monkeypatch.setattr(qcloak.synthesis, "_candidate_draws", draws)
    monkeypatch.setattr(np.random, "default_rng", rng)
    bs = [Block((0, 1), RETRY_BLOCK_GATES, 4), Block((0, 1), RETRY_BLOCK_GATES, 9)]
    with pytest.raises(SynthesisError, match="^candidate 2 for block 9 has no KAK"):
        synthesize_blocks(partition_of_blocks(bs), 3, 2, 0)


@given(st.data(), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_kak_class_boundaries_through_the_stack(data, k, seed):
    # Weyl coordinates within CLASS_TOL of 0 and pi/4, degenerate
    # magic-basis eigenvalues and near-identity blocks, under random local
    # frames: each candidate either matches its block or the stack raises
    bs = [data.draw(boundary_blocks(3 * i)) for i in range(data.draw(st.integers(1, 4)))]
    try:
        stack = _checked_candidates(partition_of_blocks(bs), k, seed)
    except SynthesisError:
        return
    for j, b in enumerate(bs):
        u = block_unitary(b)
        for c in (stack.circuit(j * k + i) for i in range(k)):
            assert c.num_qubits == 2
            assert {g.kind for g in c.gates} <= {GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX}
            assert gate_counts(c).cx <= 3
            assert equal_up_to_global_phase(circuit_unitary(c), u, CANDIDATE_TOL + 1e-12)


# Candidate draws read from stream positions: a pure function of (seed, order
# index, candidate index, draw index).
def _candidate_bits(cands: Candidates, idx) -> list[tuple]:
    """The rows of candidates idx, each angle as its exact bits."""
    out = []
    for i in idx:
        a, z = cands.start[i], cands.start[i + 1]
        out.append((int(cands.width[i]), *(col[a:z].tobytes() for col in cands.rows)))
    return out


DRAW_PARTITION = inject_rx_pairs(form_blocks(gen_random_blocks(12, 140, seed=4)), 6)[0]


@pytest.mark.parametrize("chunk", [1, 3, SYNTH_CHUNK])
def test_candidates_do_not_depend_on_chunking(chunk):
    p, k = DRAW_PARTITION, 3
    whole = _checked_candidates(p, k, 21)
    with mock.patch.object(qcloak.synthesis, "SYNTH_CHUNK", chunk):
        stacks = [cands for _chunk, cands in candidate_chunks(p, k, 21)]
        rows, bounds = synthesize_blocks(p, k, 2, 21)
    assert len(stacks) == -(-p.num_blocks // chunk)
    got = [bits for cands in stacks for bits in _candidate_bits(cands, range(len(cands)))]
    assert got == _candidate_bits(whole, range(len(whole)))
    want_rows, want_bounds = synthesize_blocks(p, k, 2, 21)
    assert np.array_equal(bounds, want_bounds)
    for col, want in zip(rows, want_rows):
        assert col.tobytes() == want.tobytes()


def test_candidates_do_not_depend_on_k():
    p = DRAW_PARTITION
    three, five = _checked_candidates(p, 3, 8), _checked_candidates(p, 5, 8)
    for j in range(p.num_blocks):
        assert _candidate_bits(three, [3 * j + 1, 3 * j + 2]) == _candidate_bits(
            five, [5 * j + 1, 5 * j + 2]
        )


def test_one_block_candidates_equal_their_rows_in_the_partition():
    p, k = DRAW_PARTITION, 3
    stack = _checked_candidates(p, k, 13)
    blocks = p.blocks
    for j in range(0, p.num_blocks, 7):
        got = generate_candidates(blocks[j], k, 13)
        want = [stack.circuit(j * k + i) for i in range(k)]
        assert [gate_bits(c) for c in got] == [gate_bits(c) for c in want]


def test_candidate_draws_are_read_at_their_stream_positions():
    # order indices out of order, repeated and further apart than one run,
    # each uniform against the same position read alone
    order = np.array([5, 0, 1, 900, 5, 70, 71, 3000, 2])
    draws = qcloak.synthesis._candidate_draws(17, order, 4)
    assert draws.shape == (len(order), 4, DRAW_STRIDE)
    assert not draws[:, 0].any()  # the plain candidate draws nothing
    for b, o in enumerate(order.tolist()):
        assert np.array_equal(draws[b], candidate_draw_rows(17, o, 4))


def test_candidate_draw_marginals_are_uniform():
    from scipy.stats import chisquare, kstest

    # 20,000 blocks, candidates 1-5: 10^5 draws of each kind
    u = qcloak.synthesis._candidate_draws(5, np.arange(20_000), 6)[:, 1:].reshape(-1, DRAW_STRIDE)
    assert len(u) == 100_000
    margin = qcloak.synthesis.DRESS_MARGIN
    span = 2 * np.pi - 2 * margin
    dress = qcloak.synthesis._dress_angles
    for sample, cdf in (
        ((-1 + 2 * u[:, :2]).ravel(), ("uniform", (-1, 2))),  # KAK's first mix
        (dress(u[:, 0]), ("uniform", (margin, span))),  # a one-wire candidate's psi
        (dress(u[:, 3:]).ravel(), ("uniform", (margin, span))),  # the CX dressings
    ):
        assert kstest(sample, *cdf).pvalue > 1e-3
    pauli = np.bincount((4 * u[:, 2]).astype(int), minlength=4)
    assert len(pauli) == 4 and chisquare(pauli).pvalue > 1e-3
