import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qcloak.kak import (
    MAGIC,
    MAGIC_H,
    PLAIN_SEED,
    KakStack,
    KakTerms,
    _factor_kron_2x2,
    canonical_matrix,
    kak_decompose,
    kak_decompose_stack,
    kak_reconstruct,
)
from qcloak.linalg import CX_MATRIX, PAULI_X, PAULI_Y, PAULI_Z
from strategies import (
    CLASS_EDGE_EPS,
    CLASS_EDGES,
    class_edge_unitary,
    counting_default_rng,
    is_unitary,
    per_candidate_kak,
    per_matrix_factor_kron,
    unitaries,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)


def _chamber_ok(c: np.ndarray) -> bool:
    c1, c2, c3 = c
    if not (-1e-9 <= c2 <= c1 <= np.pi / 4 + 1e-9):
        return False
    if abs(c3) > c2 + 1e-9:
        return False
    if c1 > np.pi / 4 - 1e-9 and c3 < -1e-9:
        return False
    return True


def test_canonical_matrix_matches_exponential():
    xx = np.kron(PAULI_X, PAULI_X)
    yy = np.kron(PAULI_Y, PAULI_Y)
    zz = np.kron(PAULI_Z, PAULI_Z)
    for c in ((0.0, 0.0, 0.0), (0.7, 0.2, -0.4), (np.pi / 4, np.pi / 4, np.pi / 4)):
        want = expm(1j * (c[0] * xx + c[1] * yy + c[2] * zz))
        assert np.allclose(canonical_matrix(np.array(c)), want, atol=1e-12)


def test_known_coordinates():
    assert np.allclose(kak_decompose(CX_MATRIX).weyl, [np.pi / 4, 0, 0], atol=1e-9)
    assert np.allclose(kak_decompose(SWAP).weyl, [np.pi / 4] * 3, atol=1e-9)
    assert np.allclose(kak_decompose(ISWAP).weyl, [np.pi / 4, np.pi / 4, 0], atol=1e-9)
    assert np.allclose(kak_decompose(np.eye(4)).weyl, [0, 0, 0], atol=1e-9)


def test_local_unitary_has_zero_coordinates():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        b = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        t = kak_decompose(np.kron(b, a))
        assert np.allclose(t.weyl, [0, 0, 0], atol=1e-9)


def test_interior_coordinates_round_trip():
    c = np.array([0.6, 0.4, 0.2])
    t = kak_decompose(canonical_matrix(c))
    assert np.allclose(t.weyl, c, atol=1e-9)


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        kak_decompose(np.eye(3))
    with pytest.raises(ValueError):
        kak_decompose(2.0 * np.eye(4))


def test_decompose_deterministic():
    u = canonical_matrix(np.array([0.5, 0.3, -0.1]))
    a = kak_decompose(u)
    b = kak_decompose(u)
    assert np.array_equal(a.weyl, b.weyl)
    assert all(np.array_equal(x, y) for x, y in zip(a.left_locals, b.left_locals))


def test_reconstruct_is_exact_inverse_on_cx():
    t = kak_decompose(CX_MATRIX)
    assert np.max(np.abs(kak_reconstruct(t) - CX_MATRIX)) < 1e-10
    for m in (*t.left_locals, *t.right_locals):
        assert is_unitary(m, 1e-10)


def test_reconstruct_applies_phase_and_frame():
    t = KakTerms(
        left_locals=(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
        right_locals=(PAULI_X.astype(complex), np.eye(2, dtype=complex)),
        weyl=np.zeros(3),
        global_phase=np.pi / 2,
    )
    # wire-0 local sits in the low kron slot
    assert np.allclose(kak_reconstruct(t), 1j * np.kron(np.eye(2), PAULI_X), atol=1e-14)


@given(unitaries())
@settings(max_examples=150, deadline=None)
def test_decompose_reconstruct_property(u):
    t = kak_decompose(u)
    assert np.max(np.abs(kak_reconstruct(t) - u)) <= 1e-9
    assert _chamber_ok(t.weyl)
    for m in (*t.left_locals, *t.right_locals):
        assert is_unitary(m, 1e-9)
    assert -np.pi - 1e-12 < t.global_phase <= np.pi + 1e-12


def _special_orthogonal(rng):
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_stacked_frame_factorization_is_bit_identical_to_per_matrix():
    # the emitted angles derive from these bits, so stacking both frames into
    # one matmul, SVD and det must not move any of them
    rng = np.random.default_rng(5)
    for _ in range(50):
        # o1 is the real part of a complex array and o2 a transpose, as in
        # _raw_decompose
        o1 = (_special_orthogonal(rng) + 0j).real
        o2 = _special_orthogonal(rng).T
        frames = MAGIC @ np.stack((o1, o2)) @ MAGIC_H
        for o, frame in zip((o1, o2), frames):
            assert np.array_equal(frame, MAGIC @ o @ MAGIC.conj().T)
        g1, g0, phases = _factor_kron_2x2(frames)
        for i, frame in enumerate(frames):
            want = per_matrix_factor_kron(frame)
            assert np.array_equal(g1[i], want[0])
            assert np.array_equal(g0[i], want[1])
            assert phases[i] == want[2]


def _assert_terms_equal(got: KakTerms, want: KakTerms):
    got_locals = (*got.left_locals, *got.right_locals)
    want_locals = (*want.left_locals, *want.right_locals)
    for a, b in zip(got_locals, want_locals):
        assert np.array_equal(a, b)
    assert np.array_equal(got.weyl, want.weyl)
    assert got.global_phase == want.global_phase


def _draws(k: int, seed: int) -> tuple[np.ndarray, list]:
    """Mixes and retry seeds of k candidates: row 0 plain, row i >= 1 with
    its own first mix and retry seed [seed, i]."""
    mixes = np.random.default_rng([seed, 0]).uniform(-1, 1, (k, 2))
    return mixes, [None] + [[seed, i] for i in range(1, k)]


def _oracle(us, mixes, seeds) -> list[KakTerms]:
    return [per_candidate_kak(u, m, s) for u, m, s in zip(us, mixes, seeds)]


def _stack(us, mixes, seeds) -> KakStack:
    """kak_decompose_stack with a row dressed where its oracle seed is not
    None, retrying from that seed."""
    dressed = [s is not None for s in seeds]
    return kak_decompose_stack(us, dressed, mixes, lambda r: seeds[r])


def _assert_many_matches_oracle(u: np.ndarray, k: int, seed: int):
    got = _stack(np.broadcast_to(u, (k, 4, 4)), *_draws(k, seed))
    want = _oracle([u] * k, *_draws(k, seed))
    assert len(got) == k
    for g, w in zip(got, want):
        _assert_terms_equal(g, w)


@given(unitaries(), st.sampled_from([1, 2, 3, 5]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_stacked_kak_matches_per_candidate_oracle(u, k, seed):
    _assert_many_matches_oracle(u, k, seed)


@pytest.mark.parametrize("eps", CLASS_EDGE_EPS)
@pytest.mark.parametrize("case", sorted(CLASS_EDGES))
def test_stacked_kak_matches_oracle_at_class_edges(case, eps):
    for frame_seed in range(3):
        _assert_many_matches_oracle(class_edge_unitary(case, eps, frame_seed), 5, frame_seed)


def test_stacked_kak_retry_matches_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        # candidates 1 and 3 take a zero first mix and retry; 0 is plain,
        # and 2 and 4 take their first mix
        mixes, seeds = _draws(5, 7)
        mixes[[1, 3]] = 0.0
        want = _oracle([u] * 5, mixes, seeds)
        calls = counting_default_rng(monkeypatch)
        got = _stack(np.broadcast_to(u, (5, 4, 4)), mixes, seeds)
        # only the retrying rows built a generator, each from its own seed
        assert calls == [([7, 1],), ([7, 3],)]
        monkeypatch.undo()
        for g, w in zip(got, want):
            _assert_terms_equal(g, w)


def test_kak_decompose_is_the_one_rng_case():
    u = class_edge_unitary("c1_pi_4", 0.0, 4)
    _assert_terms_equal(kak_decompose(u), kak_decompose_stack(u[None])[0])
    _assert_terms_equal(kak_decompose(u), per_candidate_kak(u, None))


@given(
    st.lists(unitaries(), min_size=1, max_size=7),
    st.integers(0, 2**32 - 1),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kak_stack_of_distinct_unitaries_matches_per_candidate_oracle(us, seed, data):
    # one u per candidate, each with its own mix and retry seed; one
    # candidate's first diagonalizer try fails, so it alone retries
    stub = data.draw(st.integers(0, len(us) - 1))
    mixes = np.random.default_rng([seed, 0]).uniform(-1, 1, (len(us), 2))
    mixes[stub] = 0.0
    seeds = [[seed, i] for i in range(len(us))]
    if stub != 0:
        seeds[0] = None
    got = _stack(np.array(us), mixes, seeds)
    for g, w in zip(got, _oracle(us, mixes, seeds)):
        _assert_terms_equal(g, w)


def test_kak_stack_rejects_bad_input():
    u = class_edge_unitary("cx", 0.0, 1)
    with pytest.raises(ValueError, match="not unitary"):
        kak_decompose_stack(np.array([u, 2 * u]))
    with pytest.raises(ValueError, match="expected a stack of 4x4 matrices"):
        kak_decompose_stack(u)
    # a dressed mask comes with one mix per row and a retry seed
    def seed(r):
        return [1]

    for dressed, mixes, retry in (
        ([True, False], np.zeros((1, 2)), seed),
        ([True], None, seed),
        ([True], np.zeros((2, 2)), seed),
        ([True], np.zeros((1, 2)), None),
    ):
        with pytest.raises(ValueError, match="expected 1 dressed flags"):
            kak_decompose_stack(np.array([u]), dressed, mixes, retry)
    # mixes or a retry seed without a mask would be read by no row
    with pytest.raises(ValueError, match="need a dressed mask"):
        kak_decompose_stack(np.array([u]), mixes=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="need a dressed mask"):
        kak_decompose_stack(np.array([u]), retry_seed=seed)
    assert len(kak_decompose_stack(np.zeros((0, 4, 4)))) == 0


def test_plain_rows_build_no_generator(monkeypatch):
    # a plain row's first diagonalizer mix is fixed; its generator is built
    # only when that mix fails
    rng = np.random.default_rng(3)
    us = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0] for _ in range(6)]
    us += [class_edge_unitary(c, eps, 2) for c in sorted(CLASS_EDGES) for eps in CLASS_EDGE_EPS]
    want = [per_candidate_kak(u, None) for u in us]
    calls = counting_default_rng(monkeypatch)
    got = kak_decompose_stack(np.array(us))
    assert calls == []
    for g, w in zip(got, want):
        _assert_terms_equal(g, w)


def _plain_mix_degenerate_unitary(seed: int) -> np.ndarray:
    """A unitary whose magic-basis Gram matrix m2 has two eigenphases x1, x2
    on which the plain first mix a cos x + b sin x takes one value, so that
    mix's eigenvectors mix their eigenvectors and do not diagonalize m2."""
    a, b = np.random.default_rng(PLAIN_SEED).uniform(-1, 1, 2)
    phi = np.arctan2(b, a)
    x = np.array([phi + 0.7, phi - 0.7, 0.4, 0.0])
    x[3] = -x[:3].sum()  # det v = 1
    o = _special_orthogonal(np.random.default_rng(seed))
    v = o @ np.diag(np.exp(0.5j * x)) @ o.T  # m2 = v^T v = o diag(e^{i x}) o^T
    return MAGIC @ v @ MAGIC_H


@pytest.mark.parametrize("seed", range(4))
def test_plain_row_whose_first_try_fails_matches_oracle(monkeypatch, seed):
    u = _plain_mix_degenerate_unitary(seed)
    other = class_edge_unitary("c1_pi_4", 0.0, 3)
    want = [per_candidate_kak(m, None) for m in (u, other)]
    calls = counting_default_rng(monkeypatch)
    got = kak_decompose_stack(np.array([u, other]))
    # only the failing row built its generator, and it retried from the
    # plain generator's second draw on
    assert calls == [(PLAIN_SEED,)]
    for g, w in zip(got, want):
        _assert_terms_equal(g, w)
    assert np.max(np.abs(kak_reconstruct(got[0]) - u)) <= 1e-9
