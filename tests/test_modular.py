import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetatrace import modular
from thetatrace.errors import BoundTooLarge, IllConditioned
from thetatrace.lattice import EvenLattice
from thetatrace.modular import (
    IDENTITY,
    S,
    T,
    UnimodularMatrix,
    adapted_samples,
    decompose_ST,
    fit_alpha,
    fit_and_verify,
    fit_transition,
    random_words,
    s_matrix_prediction,
    sample_points,
    t_matrix_prediction,
    verify_cocycle,
    verify_relation,
    word_to_matrix,
)
from thetatrace.trace import TracePoint, t_phase

L4 = EvenLattice(((4,),))
A2 = EvenLattice(((2, -1), (-1, 2)))


# ---------------------------------------------------------------------------
# matrix arithmetic
# ---------------------------------------------------------------------------


def test_determinant_enforced():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 1, 1, 1)
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 0, 0, 1)


def test_group_operations():
    g = UnimodularMatrix(2, 1, 1, 1)
    assert g * g.inverse() == IDENTITY
    assert g.inverse() * g == IDENTITY
    assert -(-g) == g
    assert S * S == -IDENTITY
    assert (S * T).inverse() * (S * T) == IDENTITY


def test_act_tau():
    assert abs(S.act_tau(1j) - 1j) < 1e-15
    assert abs(S.act_tau(2j) - 0.5j) < 1e-15
    assert abs(T.act_tau(0.3 + 1j) - (1.3 + 1j)) < 1e-15
    assert abs((T * S).act_tau(2j) - (1 + 0.5j)) < 1e-15


def test_act_pair_generators():
    v, u = (0.3 + 0.1j,), (0.7 - 0.2j,)
    sv, su = S.act_pair(v, u)
    assert sv == (-u[0],) and su == (v[0],)
    tv, tu = T.act_pair(v, u)
    assert tv == (v[0] + u[0],) and tu == (u[0],)


def test_act_pair_composes_contravariantly():
    # the pair action of a product applies the left factor first
    rng = np.random.default_rng(3)
    words = [["T", "S"], ["S", "T", "T"], ["T^-1", "S", "T"]]
    v = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    u = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    for w in words:
        alpha, beta = word_to_matrix(w[:1]), word_to_matrix(w[1:])
        direct = (alpha * beta).act_pair(v, u)
        step = beta.act_pair(*alpha.act_pair(v, u))
        for x, y in zip(direct[0] + direct[1], step[0] + step[1]):
            assert abs(x - y) < 1e-14


def test_act_point_keeps_tau():
    pt = TracePoint((0.1,), (0.2,), 1.1j)
    moved = S.act_point(pt)
    assert moved.tau == pt.tau
    assert moved.a == (-0.2 + 0j,)
    assert moved.b == (0.1 + 0j,)


# ---------------------------------------------------------------------------
# generator decomposition
# ---------------------------------------------------------------------------


def test_decompose_generators():
    assert decompose_ST(T) == (["T"], 1)
    assert decompose_ST(S) == (["S"], 1)
    assert decompose_ST(IDENTITY) == ([], 1)
    assert decompose_ST(-IDENTITY) == ([], -1)
    tokens, sign = decompose_ST(UnimodularMatrix(1, 5, 0, 1))
    assert tokens == ["T"] * 5 and sign == 1


@pytest.mark.parametrize("seed", range(6))
def test_decompose_roundtrip_random_words(seed):
    for word in random_words(8, 7, seed):
        alpha = word_to_matrix(word)
        tokens, sign = decompose_ST(alpha)
        got = word_to_matrix(tokens)
        assert got == (alpha if sign == 1 else -alpha)


def test_decompose_large_entries():
    alpha = UnimodularMatrix(1, 0, 0, 1)
    for k in (3, -2, 5, -7):
        alpha = alpha * UnimodularMatrix(1, k, 0, 1) * S
    tokens, sign = decompose_ST(alpha)
    assert word_to_matrix(tokens) == (alpha if sign == 1 else -alpha)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["S", "T", "T^-1"]), max_size=12))
def test_decompose_roundtrip_property(word):
    alpha = word_to_matrix(word)
    tokens, sign = decompose_ST(alpha)
    assert sign in (1, -1)
    assert word_to_matrix(tokens) == (alpha if sign == 1 else -alpha)


def test_decompose_token_cap_refuses_before_building_a_word(monkeypatch):
    def no_word(tokens):
        raise AssertionError("a word was built past the token cap")

    monkeypatch.setattr(modular, "word_to_matrix", no_word)
    with pytest.raises(BoundTooLarge):
        decompose_ST(UnimodularMatrix(1, 10**6 + 1, 0, 1))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_points_deterministic():
    a = sample_points(2, 5, seed=11)
    b = sample_points(2, 5, seed=11)
    assert [(p.a, p.b, p.tau) for p in a] == [(p.a, p.b, p.tau) for p in b]
    c = sample_points(2, 5, seed=12)
    assert any(p.tau != q.tau for p, q in zip(a, c))


def test_adapted_samples_track_moved_tau():
    alpha = word_to_matrix(["T", "S", "T", "T"])
    pts = adapted_samples(alpha, 1, 10, seed=4)
    for pt in pts:
        assert alpha.act_tau(pt.tau).imag > 5e-3
        assert all(x.imag == 0 for x in pt.a + pt.b)


def test_adapted_samples_real_for_long_translations():
    # f = 0: (v, u) -> (d v + b u, a u) adds b Im u to Im v, so |b| > 1 draws real
    for alpha in (word_to_matrix(["T^-1"] * 6), word_to_matrix(["T", "T"])):
        for pt in adapted_samples(alpha, 2, 6, seed=22573):
            assert all(x.imag == 0 for x in pt.a + pt.b)
    for alpha in (IDENTITY, word_to_matrix(["T"])):
        pts = adapted_samples(alpha, 2, 6, seed=22573)
        assert any(x.imag != 0 for pt in pts for x in pt.a + pt.b)


# ---------------------------------------------------------------------------
# transition fitting
# ---------------------------------------------------------------------------


def test_fit_identity_is_identity_matrix():
    a, residual = fit_transition(L4, IDENTITY, sample_points(1, 8, seed=0))
    gap = np.max(np.abs(a - np.eye(4)))
    assert gap < 1e-10
    assert residual < 1e-12


def test_fit_requires_enough_samples():
    with pytest.raises(ValueError):
        fit_transition(L4, S, sample_points(1, 7, seed=0))


def test_fit_rejects_degenerate_samples():
    pt = sample_points(1, 1, seed=0)[0]
    with pytest.raises(IllConditioned):
        fit_transition(L4, S, [pt] * 8)


def test_fitted_s_matches_gauss_sum_norm4():
    a, _, holdout = fit_and_verify(L4, S, seed=0)
    gap = np.max(np.abs(np.subtract(a, s_matrix_prediction(L4))))
    assert gap < 1e-10
    assert holdout < 1e-10


def test_fitted_t_is_diagonal_of_phases():
    a, _, _ = fit_and_verify(L4, T, seed=1)
    gap = np.max(np.abs(np.subtract(a, t_matrix_prediction(L4))))
    assert gap < 1e-10
    diag = np.diag(a)
    for beta, lam in zip(L4.cosets, diag):
        assert abs(lam - t_phase(L4, beta)) < 1e-10


def test_fitted_s_matches_gauss_sum_a2():
    a, _, _ = fit_and_verify(A2, S, seed=2)
    gap = np.max(np.abs(np.subtract(a, s_matrix_prediction(A2))))
    assert gap < 1e-9


def test_verify_relation_returns_the_holdout_gap():
    a = fit_alpha(L4, S, 0)[0]
    gap = verify_relation(L4, S, adapted_samples(S, 1, 5, seed=99), a)
    assert type(gap) is float and gap < 1e-10
    # the holdout of fit_and_verify is N_HOLDOUT points at seed + 10**6
    holdout = adapted_samples(S, 1, modular.N_HOLDOUT, seed=10**6)
    want = (a, fit_alpha(L4, S, 0)[1], verify_relation(L4, S, holdout, a))
    assert fit_and_verify(L4, S, seed=0) == want


def test_cocycle_st():
    assert verify_cocycle(L4, S, T, seed=5) < 1e-10


def test_word_transition_matches_generator_product():
    # fit the word directly, then multiply the generator fits in word order
    word = ["T", "S", "T"]
    alpha = word_to_matrix(word)
    fit_word, _, holdout = fit_and_verify(L4, alpha, seed=7)
    assert holdout < 1e-9
    fit_t = fit_and_verify(L4, T, seed=8)[0]
    fit_s = fit_and_verify(L4, S, seed=9)[0]
    prod = np.array(fit_t) @ fit_s @ fit_t
    assert np.max(np.abs(fit_word - prod)) < 1e-9


def test_fitted_matrix_is_read_only():
    # fit_alpha shares one matrix between callers, so no caller may write it:
    # it is a tuple of row tuples of complex entries
    a, _ = fit_transition(L4, S, adapted_samples(S, 1, 8, seed=0))
    assert type(a) is tuple and [type(row) for row in a] == [tuple] * 4
    assert all(type(x) is complex for row in a for x in row) and [len(row) for row in a] == [4] * 4
    with pytest.raises(TypeError):
        a[0][0] = 0
    shared = fit_and_verify(L4, S, seed=0)[0]
    assert type(shared) is tuple and all(type(row) is tuple for row in shared)
    with pytest.raises(TypeError):
        shared[0] = ()


def _with_condition(m, seed, cond, scale):
    """A complex 2m x m matrix U diag(sigma) V^H with singular values spaced
    geometrically from scale down to scale / cond, and a right-hand side it
    solves exactly."""
    rng = np.random.default_rng(seed)

    def orthonormal(rows, cols):
        q, _ = np.linalg.qr(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
        return q

    sigma = scale * np.geomspace(1.0, 1.0 / cond, m)
    a = orthonormal(2 * m, m) @ np.diag(sigma) @ orthonormal(m, m).conj().T
    x = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return a, a @ x


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_cond=st.one_of(st.floats(0.0, 12.0), st.floats(8.0, 12.0), st.just(10.0)),
    log_scale=st.floats(-3.0, 3.0),
)
def test_solve_matches_numpy_lstsq_and_cond(m, seed, log_cond, log_scale):
    a, b = _with_condition(m, seed, 10.0**log_cond, 10.0**log_scale)
    x, cond = modular._solve(a.tolist(), b.tolist())
    want_cond = np.linalg.cond(a)
    want_x, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert abs(cond / want_cond - 1) < 1e-2
    # the IllConditioned decision, away from 1% of the cap
    if abs(want_cond / modular.COND_CAP - 1) > 1e-2:
        assert (cond > modular.COND_CAP) == (want_cond > modular.COND_CAP)
    assert np.max(np.abs(np.array(x) - want_x)) <= 1e-12 * want_cond * max(
        1.0, np.max(np.abs(want_x))
    )


def test_solve_refuses_when_the_sweeps_do_not_converge(monkeypatch):
    a, b = _with_condition(3, 0, 1e3, 1.0)
    monkeypatch.setattr(modular, "SWEEP_CAP", 1)
    with pytest.raises(IllConditioned, match="did not converge"):
        modular._solve(a.tolist(), b.tolist())


def test_fit_alpha_memo_is_shared_and_positional():
    first = fit_alpha(A2, T, 3)
    assert fit_alpha(A2, T, 3) is first
    assert fit_and_verify(A2, T, seed=3)[0] is first[0]
    # a keyword call would be memoized under a key of its own
    with pytest.raises(TypeError):
        fit_alpha(L4, S, seed=0)


# ---------------------------------------------------------------------------
# closed-form candidates
# ---------------------------------------------------------------------------


def test_s_prediction_is_symmetric_unitary():
    for L in (L4, A2):
        m = np.array(s_matrix_prediction(L))
        assert np.max(np.abs(m - m.T)) < 1e-15
        assert np.max(np.abs(m @ m.conj().T - np.eye(len(L.cosets)))) < 1e-14


def test_s_prediction_entries_norm4():
    m = s_matrix_prediction(L4)
    for h in range(4):
        for k in range(4):
            want = 0.5 * (1j) ** (-h * k)
            assert abs(m[h][k] - want) < 1e-15


def test_random_words_deterministic_and_bounded():
    a = random_words(6, 5, seed=3)
    assert a == random_words(6, 5, seed=3)
    assert all(1 <= len(w) <= 5 for w in a)
    assert all(tok in ("S", "T", "T^-1") for w in a for tok in w)
