from fractions import Fraction

import pytest

from thetatrace.errors import CutoffTooLarge
from thetatrace.fock import (
    FockState,
    apply_mode,
    apply_word,
    build_basis,
    census_by_grade,
    diagonal_entry,
    group_census_by_phase,
    s_function_trace,
    verify_trace_recursion,
)
from thetatrace.lattice import EvenLattice
from thetatrace.trace import colored_partition_counts, insertion_counts_by_grade

L4 = EvenLattice(((4,),))
A2 = EvenLattice(((2, -1), (-1, 2)))

VAC4 = FockState((0,))


# ---------------------------------------------------------------------------
# states and bases
# ---------------------------------------------------------------------------


def test_state_normalizes_and_validates():
    s = FockState((Fraction(1, 4),), ((2, 0), (1, 0)))
    assert s.modes == ((1, 0), (2, 0))
    assert s.oscillator_weight() == 3
    assert s.grade(L4) == Fraction(1, 8) + 3
    with pytest.raises(ValueError):
        FockState((0,), ((0, 0),))
    with pytest.raises(ValueError):
        FockState((0,), ((-1, 0),))


def test_build_basis_dimensions_match_partition_counts():
    # over a fixed lattice point the oscillator tower is counted by
    # d-colored partitions
    for L, beta in [(L4, (0,)), (A2, (Fraction(1, 3), Fraction(2, 3)))]:
        osc = colored_partition_counts(L.dim, 6)
        basis = build_basis(L, beta, 6)
        origin_like = min(basis, key=lambda gs: gs[0])[1].point
        base_grade = Fraction(L.norm2(origin_like)) / 2
        for n in range(7 - int(base_grade) - 1):
            got = sum(
                1
                for _, s in basis
                if s.point == origin_like and s.oscillator_weight() == n
            )
            assert got == osc[n]


def test_build_basis_sorted_and_capped():
    basis = build_basis(L4, (0,), 4)
    grades = [g for g, _ in basis]
    states = [s for _, s in basis]
    assert grades == sorted(grades)
    assert grades == [s.grade(L4) for s in states]
    assert len(states) == len(set(states))
    with pytest.raises(CutoffTooLarge):
        build_basis(L4, (0,), 100)


# ---------------------------------------------------------------------------
# mode operators
# ---------------------------------------------------------------------------


def test_zero_mode_eigenvalue():
    s = FockState((1,))
    assert apply_mode(L4, (1.0,), 0, s) == {s: 4.0}
    assert apply_mode(L4, (1.0,), 0, VAC4) == {}


def test_creation_then_annihilation_on_vacuum():
    h = (1.0,)
    up = apply_mode(L4, h, -1, VAC4)
    assert up == {FockState((0,), ((1, 0),)): 1.0}
    down = apply_mode(L4, h, 1, FockState((0,), ((1, 0),)))
    assert down == {VAC4: 4.0}
    # wrong mode number annihilates nothing
    assert apply_mode(L4, h, 2, FockState((0,), ((1, 0),))) == {}


def test_mode_action_shares_the_point():
    s = FockState((Fraction(1, 3), Fraction(2, 3)), ((1, 0), (2, 1)))
    for n in (-2, -1, 1, 2):
        out = apply_mode(A2, (1.0, 0.0), n, s)
        assert out
        assert all(new.point is s.point for new in out)


def test_annihilation_counts_multiplicity():
    s = FockState((0,), ((2, 0), (2, 0)))
    got = apply_mode(L4, (1.0,), 2, s)
    assert got == {FockState((0,), ((2, 0),)): 2 * 2 * 4.0}


@pytest.mark.parametrize("m,n", [(1, -1), (2, -2), (1, -2), (3, -3), (2, -1)])
def test_heisenberg_commutator_a2(m, n):
    """[h(m), h'(n)] = m <h,h'> delta_{m+n,0} on a populated state."""
    h, hp = (1.0, 0.0), (0.0, 1.0)
    s = FockState((1, 0), ((1, 0), (2, 1)))
    ab = apply_word(A2, [(h, m), (hp, n)], s)
    ba = apply_word(A2, [(hp, n), (h, m)], s)
    comm = dict(ab)
    for k, v in ba.items():
        comm[k] = comm.get(k, 0j) - v
    comm = {k: v for k, v in comm.items() if abs(v) > 1e-12}
    want_scalar = m * A2.inner(h, hp) if m + n == 0 else 0
    if want_scalar:
        assert comm == {s: complex(want_scalar)}
    else:
        assert comm == {}


def test_apply_word_rightmost_first():
    # h(1) h(-1) acting on vacuum: create then annihilate
    got = apply_word(L4, [((1.0,), 1), ((1.0,), -1)], VAC4)
    assert got == {VAC4: 4.0}
    assert diagonal_entry(L4, [((1.0,), 1), ((1.0,), -1)], VAC4) == 4.0
    # opposite order kills the vacuum
    assert apply_word(L4, [((1.0,), -1), ((1.0,), 1)], VAC4) == {}


# ---------------------------------------------------------------------------
# census cross-checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [(0,), (Fraction(1, 4),), (Fraction(1, 2),), (Fraction(3, 4),)])
def test_census_matches_closed_form_norm4(beta):
    assert census_by_grade(L4, beta, 6) == insertion_counts_by_grade(L4, beta, 6)


def test_census_matches_closed_form_a2():
    beta = (Fraction(1, 3), Fraction(2, 3))
    assert census_by_grade(A2, beta, 4) == insertion_counts_by_grade(A2, beta, 4)


def test_phase_census_grouping():
    a = (Fraction(1, 4),)
    census = census_by_grade(L4, (Fraction(1, 4),), 4)
    grouped = group_census_by_phase(L4, census, a)
    for grade, bucket in census.items():
        # totals preserved, phases recomputed independently
        assert sum(grouped[grade].values()) == sum(bucket.values())
        for m, count in bucket.items():
            phase = Fraction(L4.inner(a, m)) % 1
            assert grouped[grade][phase] >= count


# ---------------------------------------------------------------------------
# literal two-variable traces
# ---------------------------------------------------------------------------


def test_single_insertion_trace_is_x_independent():
    v = (1.0,)
    series = s_function_trace(L4, (Fraction(1, 4),), [v], 3, 4)
    assert (series.x_min, series.x_max) == (0, 0)
    assert all(j == 0 for (j, _) in series.coeffs)


def test_single_insertion_matches_weighted_character():
    from thetatrace.trace import graded_trace_series

    beta = (Fraction(1, 4),)
    v = (0.7,)
    series = s_function_trace(L4, beta, [v], 0, 5)
    closed = graded_trace_series(L4, beta, 5, weights=[v])
    for (_, m), val in closed.coeffs.items():
        assert abs(series.coefficient(0, Fraction(m, closed.q_denom)) - val) < 1e-12


def test_orthogonal_insertions_have_no_x_dependence():
    # <v1, v2> = 0 kills every k != 0 trace, though not state by state
    v1, v2 = (1.0, 0.0), (1.0, 2.0)
    assert A2.inner(v1, v2) == 0
    series = s_function_trace(A2, (0, 0), [v1, v2], 2, 3)
    for (j, _), val in series.coeffs.items():
        if j != 0:
            assert abs(val) < 1e-12


def test_two_insertion_trace_window():
    series = s_function_trace(L4, (0,), [(1.0,), (0.6,)], 2, 3)
    assert (series.x_min, series.x_max) == (-2, 2)
    assert series.q_denom % 24 == 0
    # x^1 q^(1 - 1/24) term: the level-one tower contributes
    assert abs(series.coefficient(1, 1 - Fraction(1, 24))) > 0.1


# ---------------------------------------------------------------------------
# the recursion itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L,beta", [(L4, (0,)), (L4, (Fraction(1, 4),))])
def test_one_point_recursion(L, beta):
    rep = verify_trace_recursion(L, beta, [(1.0,)], 0, 5)
    assert rep["n_insertions"] == 1
    assert rep["max_error"] < 1e-12


def test_two_point_recursion_norm4():
    rep = verify_trace_recursion(L4, (Fraction(1, 4),), [(1.0,), (0.6,)], 2, 4)
    assert rep["max_error"] < 1e-10
    assert rep["basis_size"] > 10


def test_two_point_recursion_a2():
    rep = verify_trace_recursion(A2, (0, 0), [(1.0, 0.5), (0.6, 0.3)], 2, 3)
    assert rep["max_error"] < 1e-10


def test_recursion_rejects_bad_arity():
    with pytest.raises(ValueError):
        verify_trace_recursion(L4, (0,), [(1.0,), (1.0,), (1.0,)], 2, 3)
