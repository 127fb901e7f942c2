import ast
import gc
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from thetatrace import fock, qseries
from thetatrace.cli import Q_ORDER, X_SPAN, _insertion_vectors
from thetatrace.errors import CutoffTooLarge
from thetatrace.fock import (
    apply_mode,
    apply_word,
    build_basis,
    census_by_grade,
    diagonal_entry,
    group_census_by_phase,
    s_function_trace,
    verify_trace_recursion,
)
from thetatrace.lattice import EvenLattice, load_lattice
from thetatrace.qseries import BiSeries
from thetatrace.trace import (
    colored_partition_counts,
    graded_trace_series,
    insertion_counts_by_grade,
    recursion_series,
)

L4 = EvenLattice(((4,),))
A2 = EvenLattice(((2, -1), (-1, 2)))


# ---------------------------------------------------------------------------
# states and bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "L,beta", [(L4, (0,)), (L4, (Fraction(1, 4),)), (A2, (Fraction(1, 3), Fraction(2, 3)))]
)
def test_basis_states_are_canonical(L, beta):
    den, basis = build_basis(L, beta, 4)
    for key, offsets, modes in basis:
        assert modes == tuple(sorted(modes))
        assert all(n >= 1 and 0 <= i < L.dim for n, i in modes)
        m = [Fraction(b) + x for b, x in zip(beta, offsets)]
        assert Fraction(key, den) == Fraction(L.norm2(m)) / 2 + sum(n for n, _ in modes)


def test_creation_returns_canonical_modes():
    assert apply_mode(L4, (1.0,), -1, ((2, 0),)) == {((1, 0), (2, 0)): 1.0}
    got = apply_mode(A2, (1.0, 0.5), -1, ((1, 0), (2, 1)))
    assert got == {((1, 0), (1, 0), (2, 1)): 1.0, ((1, 0), (1, 1), (2, 1)): 0.5}
    # one multiset reached in two orders is one key
    a = apply_word(A2, [((0.0, 1.0), -2), ((1.0, 0.0), -1)], (0, 0), ())
    b = apply_word(A2, [((1.0, 0.0), -1), ((0.0, 1.0), -2)], (0, 0), ())
    assert a == b == {((1, 0), (2, 1)): 1.0}


def test_build_basis_dimensions_match_partition_counts():
    # over a fixed lattice point the oscillator tower is counted by
    # d-colored partitions
    for L, beta in [(L4, (0,)), (A2, (Fraction(1, 3), Fraction(2, 3)))]:
        osc = colored_partition_counts(L.dim, 6)
        _, basis = build_basis(L, beta, 6)
        origin_like = min(basis)[1]
        base_grade = Fraction(L.norm2([b + x for b, x in zip(beta, origin_like)])) / 2
        for n in range(7 - int(base_grade) - 1):
            got = sum(
                1
                for _, m, modes in basis
                if m == origin_like and sum(k for k, _ in modes) == n
            )
            assert got == osc[n]


def test_build_basis_sorted_and_capped():
    _, basis = build_basis(L4, (0,), 4)
    grades = [g for g, _, _ in basis]
    states = [(m, modes) for _, m, modes in basis]
    assert grades == sorted(grades)
    assert list(basis) == sorted(basis)
    assert len(states) == len(set(states))
    with pytest.raises(CutoffTooLarge):
        build_basis(L4, (0,), 100)
    # one cap for both sides of the census cross-check
    assert fock.GRADE_CAP == qseries.GRADE_CAP == 60


def test_colored_multisets_leave_no_reference_cycle():
    # the recursive rec refers to itself; the cycle is broken once the
    # generator finishes, so a call leaves nothing for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert len(list(fock._colored_multisets(3, 2))) == 1 + 2 + 5 + 10  # 2-colored p(0..3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# mode operators
# ---------------------------------------------------------------------------


def test_zero_mode_eigenvalue():
    h0 = [((1.0,), 0)]
    assert apply_word(L4, h0, (1,), ()) == {(): 4.0}
    assert diagonal_entry(L4, h0, (1,), ((2, 0),)) == 4.0
    assert apply_word(L4, h0, (0,), ()) == {}
    with pytest.raises(ValueError):
        apply_mode(L4, (1.0,), 0, ())


def test_creation_then_annihilation_on_vacuum():
    h = (1.0,)
    up = apply_mode(L4, h, -1, ())
    assert up == {((1, 0),): 1.0}
    down = apply_mode(L4, h, 1, ((1, 0),))
    assert down == {(): 4.0}
    # wrong mode number annihilates nothing
    assert apply_mode(L4, h, 2, ((1, 0),)) == {}


def test_annihilation_counts_multiplicity():
    got = apply_mode(L4, (1.0,), 2, ((2, 0), (2, 0)))
    assert got == {((2, 0),): 2 * 2 * 4.0}


@pytest.mark.parametrize("m,n", [(1, -1), (2, -2), (1, -2), (3, -3), (2, -1)])
def test_heisenberg_commutator_a2(m, n):
    """[h(m), h'(n)] = m <h,h'> delta_{m+n,0} on every state of a basis."""
    h, hp = (1.0, 0.0), (0.0, 1.0)
    want_scalar = m * A2.inner(h, hp) if m + n == 0 else 0
    for _, point, modes in build_basis(A2, A2.cosets[1], 3)[1]:
        ab = apply_word(A2, [(h, m), (hp, n)], point, modes)
        ba = apply_word(A2, [(hp, n), (h, m)], point, modes)
        comm = dict(ab)
        for k, v in ba.items():
            comm[k] = comm.get(k, 0j) - v
        comm = {k: v for k, v in comm.items() if abs(v) > 1e-12}
        if want_scalar:
            assert comm == {modes: complex(want_scalar)}
        else:
            assert comm == {}


@pytest.mark.parametrize(
    "L,beta,h,hp",
    [
        (A2, A2.cosets[0], (1.0, 0.5), (0.6, -0.3)),
        (A2, A2.cosets[1], (1.0, 0.5), (0.6, -0.3)),
        (L4, (Fraction(1, 4),), (1.0,), (0.6,)),
    ],
)
def test_paired_mode_diagonal_closed_form(L, beta, h, hp):
    """<s| h(k) h'(-k) |s> = k <h,h'> + k sum_j mu_j(k) h'_j <h, e_j>, where
    mu_j(k) counts the (k, j) excitations of s: h'(-k) adds one (k, j) and
    h(k) removes it again with its raised multiplicity."""
    gram = np.array(L.gram, dtype=float)
    h_dot_e = np.asarray(h) @ gram
    h_dot_hp = float(h_dot_e @ np.asarray(hp))
    for _, point, modes in build_basis(L, beta, 4)[1]:
        for k in range(1, 4):
            mu = [modes.count((k, j)) for j in range(L.dim)]
            want = k * h_dot_hp + k * sum(mu[j] * hp[j] * h_dot_e[j] for j in range(L.dim))
            got = diagonal_entry(L, [(h, k), (hp, -k)], point, modes)
            assert abs(got - want) <= 1e-12


def test_apply_word_rightmost_first():
    # h(1) h(-1) acting on vacuum: create then annihilate
    vac = (0,)
    got = apply_word(L4, [((1.0,), 1), ((1.0,), -1)], vac, ())
    assert got == {(): 4.0}
    assert diagonal_entry(L4, [((1.0,), 1), ((1.0,), -1)], vac, ()) == 4.0
    # opposite order kills the vacuum
    assert apply_word(L4, [((1.0,), -1), ((1.0,), 1)], vac, ()) == {}


# ---------------------------------------------------------------------------
# census cross-checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [(0,), (Fraction(1, 4),), (Fraction(1, 2),), (Fraction(3, 4),)])
def test_census_matches_closed_form_norm4(beta):
    assert census_by_grade(L4, beta, 6) == insertion_counts_by_grade(L4, beta, 6)


def test_census_matches_closed_form_a2():
    beta = (Fraction(1, 3), Fraction(2, 3))
    assert census_by_grade(A2, beta, 4) == insertion_counts_by_grade(A2, beta, 4)


def test_census_accepts_a_list_beta():
    beta = (Fraction(1, 3), Fraction(2, 3))
    assert census_by_grade(A2, list(beta), 4) == census_by_grade(A2, beta, 4)
    assert census_by_grade(L4, [0], 4) == insertion_counts_by_grade(L4, (0,), 4)


def test_phase_census_grouping():
    a = (Fraction(1, 4),)
    census = census_by_grade(L4, (Fraction(1, 4),), 4)
    grouped = group_census_by_phase(L4, (Fraction(1, 4),), census, a)
    for grade, bucket in census.items():
        # totals preserved, phases recomputed independently
        assert sum(grouped[grade].values()) == sum(bucket.values())
        for (n,), count in bucket.items():
            phase = Fraction(L4.inner(a, (Fraction(1, 4) + n,))) % 1
            assert grouped[grade][phase] >= count


@pytest.mark.parametrize("coset", range(len(A2.cosets)))
def test_phase_census_matches_the_integer_route_on_a2(coset):
    # oracle: <a, beta> and G a over their common denominator, so that each
    # point's phase takes d integer products
    beta = A2.cosets[coset]
    a = (Fraction(1, 3), Fraction(1, 2))
    base = A2.inner(a, beta)
    ga = [sum(g * x for g, x in zip(row, a)) for row in A2.gram]
    den = math.lcm(base.denominator, *(x.denominator for x in ga))
    base, ga = int(base * den), [int(x * den) for x in ga]
    census = census_by_grade(A2, beta, 6)
    want: dict = {}
    for grade, bucket in census.items():
        grouped = want[grade] = {}
        for n, count in bucket.items():
            phase = Fraction((base + sum(g * x for g, x in zip(ga, n))) % den, den)
            grouped[phase] = grouped.get(phase, 0) + count
    assert any(len(grouped) > 1 for grouped in want.values())
    assert group_census_by_phase(A2, beta, census, a) == want


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
    for m, val in closed.coeffs.items():
        assert abs(series.coefficient(0, Fraction(m, closed.denom)) - val) < 1e-12


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


def recursion(L, beta, vectors, x_span, q_order):
    """The literal trace against recursion_series of the same arguments."""
    closed = recursion_series(L, beta, vectors, x_span, q_order)
    return verify_trace_recursion(L, beta, vectors, x_span, q_order, closed)


# a valid closed side for the rejection tests, so that each error comes
# from the literal side
A2_VECTORS = [(1.0, 0.5), (0.6, 0.3)]
A2_CLOSED = recursion_series(A2, A2.cosets[0], A2_VECTORS, 1, 2)


@pytest.mark.parametrize("L,beta", [(L4, (0,)), (L4, (Fraction(1, 4),))])
def test_one_point_recursion(L, beta):
    assert recursion(L, beta, [(1.0,)], 0, 5) < 1e-12


def test_two_point_recursion_norm4():
    assert recursion(L4, (Fraction(1, 4),), [(1.0,), (0.6,)], 2, 4) < 1e-10
    assert len(build_basis(L4, (Fraction(1, 4),), 4)[1]) > 10


def test_two_point_recursion_a2():
    assert recursion(A2, (0, 0), A2_VECTORS, 2, 3) < 1e-10


def test_recursion_rejects_bad_arity():
    closed = recursion_series(L4, (0,), [(1.0,), (1.0,)], 2, 3)
    with pytest.raises(ValueError):
        verify_trace_recursion(L4, (0,), [(1.0,), (1.0,), (1.0,)], 2, 3, closed)


def test_recursion_nan_insertion_fails():
    # max() drops a NaN difference; the comparison must report it
    assert recursion(A2, A2.cosets[0], [(math.nan, 0.0)], 1, 2) == math.inf


@pytest.mark.parametrize("q_order", [-1, 2.5, True])
def test_recursion_rejects_a_bad_q_order(q_order):
    with pytest.raises(ValueError, match="q_order"):
        verify_trace_recursion(A2, A2.cosets[0], A2_VECTORS, 1, q_order, A2_CLOSED)


@pytest.mark.parametrize("x_span", [1.5, -1])
def test_recursion_rejects_a_bad_x_span(x_span):
    with pytest.raises(ValueError, match="x_span"):
        verify_trace_recursion(A2, A2.cosets[0], A2_VECTORS, x_span, 2, A2_CLOSED)


@pytest.mark.parametrize("vectors", [[(1.0,)], [(1.0, 0.5), (0.6, 0.3, 0.1)]])
def test_recursion_rejects_a_wrong_length_vector(vectors):
    with pytest.raises(ValueError, match="coordinates"):
        verify_trace_recursion(A2, A2.cosets[0], vectors, 1, 2, A2_CLOSED)


@pytest.mark.parametrize("vectors", [[(1.0, 0.5)], A2_VECTORS])
def test_recursion_enumerates_the_coset_once(monkeypatch, vectors):
    # the closed side enumerates L + beta once, for the weighted and the
    # plain trace alike; the literal side's basis is built beforehand
    beta = A2.cosets[1]
    build_basis(A2, beta, 3)
    calls = []
    enumerate_vectors = EvenLattice.enumerate_vectors
    monkeypatch.setattr(
        EvenLattice,
        "enumerate_vectors",
        lambda self, *args: calls.append(args) or enumerate_vectors(self, *args),
    )
    assert recursion(A2, beta, vectors, 2, 3) < 1e-10
    assert calls == [(beta, 3)]


D4 = EvenLattice(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))


@pytest.mark.parametrize("name", ["norm4", "a2", "a3", "n10", "d4"])
def test_integer_insertions_give_an_exact_recursion(name):
    # both sides compute in the insertion vectors' own number type: int
    # vectors give int and Fraction coefficients (the zero modes see the
    # exact point beta + n), and the recursion then holds exactly
    if name == "d4":
        L = D4
    else:
        L = load_lattice(str(Path(__file__).resolve().parent.parent / "lattices" / f"{name}.json"))
    beta = L.cosets[1]
    v1 = tuple(range(1, L.dim + 1))
    v2 = tuple(3 - 2 * i for i in range(L.dim))
    for vectors in ([v1], [v1, v2]):
        closed = recursion_series(L, beta, vectors, 2, 2)
        literal = s_function_trace(L, beta, vectors, 2, 2)
        for series in (closed, literal):
            assert {type(v) for v in series.coeffs.values()} <= {int, Fraction}
        # on a root lattice the Weyl group fixes each coset, so a one-point
        # trace vanishes there
        assert literal.coeffs or (L.dim > 1 and len(vectors) == 1)
        assert verify_trace_recursion(L, beta, vectors, 2, 2, closed) == 0


def zero_mode_cube(L, beta, grade):
    """tr v(0)^3 q^(L(0) - d/24) through grade, summed state by state over
    build_basis with fock.diagonal_entry, v the squares vector."""
    v = _insertion_vectors(L.dim)[0]
    den, basis = build_basis(L, beta, grade)
    qden = math.lcm(24, den)
    shift = L.dim * qden // 24
    coeffs = Counter()
    for key, n, modes in basis:
        point = [b + x for b, x in zip(beta, n)]
        coeffs[key * (qden // den) - shift] += fock.diagonal_entry(L, [(v, 0)] * 3, point, modes)
    return qseries.TruncatedSeries(qden, coeffs, grade * qden - shift)


def shipped(name):
    return load_lattice(str(Path(__file__).resolve().parent.parent / "lattices" / f"{name}.json"))


@pytest.mark.parametrize("name", ["norm4", "a2", "a3", "a2a2", "n10", "d4"])
def test_zero_mode_cube_matches_its_closed_form(name):
    # an odd power of v(0) that, unlike tr v(0), does not vanish on the root
    # lattices a2, a3 and a2a2, so a zero mode acting by -<h, m> shows there.
    # On d4 every coset is its own negative and the cube vanishes by m -> -m:
    # d4 does not see that fault
    L = shipped(name)
    v = _insertion_vectors(L.dim)[0]
    cubes = [zero_mode_cube(L, beta, 4) for beta in L.cosets]
    assert cubes == [graded_trace_series(L, beta, 4, [v, v, v]) for beta in L.cosets]
    assert any(cube.coeffs for cube in cubes) == (name != "d4")


def test_zero_mode_cube_catches_a_flipped_zero_mode(monkeypatch):
    # h(0) acting by -<h, m>, which the one-insertion recursion check cannot
    # see on a2: tr v(0) q^(L(0) - d/24) vanishes on every coset there
    entry = fock.diagonal_entry

    def flipped(L, word, point, modes):
        if all(n == 0 for _, n in word):
            point = [-x for x in point]
        return entry(L, word, point, modes)

    monkeypatch.setattr(fock, "diagonal_entry", flipped)
    L = shipped("a2")
    v = _insertion_vectors(L.dim)[0]
    gaps = []
    for beta in L.cosets:
        diff = zero_mode_cube(L, beta, 4) - graded_trace_series(L, beta, 4, [v, v, v])
        gaps.append(max(map(abs, diff.coeffs.values()), default=0))
    assert gaps == [0, 720, 720]


def test_fock_imports_nothing_from_trace():
    # the oracle stays independent of the closed forms it checks; importing
    # thetatrace loads trace anyway, so only the source can show this
    tree = ast.parse(Path(fock.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name.split(".")[-1] == "trace"}
    assert imported >= {"lattice", "qseries"}


# ---------------------------------------------------------------------------
# a coset outside the dual lattice is no module
# ---------------------------------------------------------------------------

# G beta = (2/7, -1/7) is not integral
A2_NON_DUAL = (Fraction(1, 7), Fraction(0))


def test_build_basis_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        build_basis(A2, A2_NON_DUAL, 2)


def test_census_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        census_by_grade(L4, (Fraction(1, 5),), 4)


def test_s_function_trace_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        s_function_trace(A2, A2_NON_DUAL, [(1.0, 0.5), (0.6, 0.3)], 1, 2)


def test_recursion_rejects_a_coset_outside_the_dual():
    # before the check this compared the trace of no module and passed
    with pytest.raises(ValueError, match="dual"):
        verify_trace_recursion(A2, A2_NON_DUAL, A2_VECTORS, 1, 2, A2_CLOSED)


# ---------------------------------------------------------------------------
# the per-call memo of diagonal entries
# ---------------------------------------------------------------------------


def per_state_trace(L, beta, vectors, x_span, q_order):
    """s_function_trace as it was before the memo: every word of the x
    window applied to every basis state, the q exponent taken per state,
    in the number type of the vectors."""
    if len(vectors) == 1:
        x_span = 0
        words = [(0, [(vectors[0], 0)])]
    else:
        v1, v2 = vectors
        words = [(k, [(v1, k), (v2, -k)]) for k in range(-x_span, x_span + 1)]
    beta = tuple(Fraction(x) for x in beta)
    den, basis = build_basis(L, beta, q_order)
    qden = math.lcm(24, den)
    shift = Fraction(L.dim, 24)
    coeffs: dict = {}
    for key, n, modes in basis:
        q_key = int((Fraction(key, den) - shift) * qden)
        m = tuple(b + x for b, x in zip(beta, n))
        for k, word in words:
            val = diagonal_entry(L, word, m, modes)
            if val:
                coeffs[k, q_key] = coeffs.get((k, q_key), 0) + val
    q_top = int((Fraction(q_order) - shift) * qden)
    return BiSeries(-x_span, x_span, q_top, coeffs, qden)


MEMO_CASES = [
    (L4, (Fraction(1, 4),)),
    (A2, A2.cosets[0]),
    (A2, A2.cosets[len(A2.cosets) // 2]),
]


def float_vectors(dim):
    """Float insertion vectors, whose sums depend on their order."""
    return tuple(1.0 / (i + 1) for i in range(dim)), tuple(0.6 / (i + 1) for i in range(dim))


# the float pair pins the order of the sums; the recursion checks' integer
# pair pins the exact route
VECTOR_PAIRS = (float_vectors, _insertion_vectors)


@pytest.mark.parametrize("n_insertions", [1, 2])
@pytest.mark.parametrize("L,beta", MEMO_CASES)
def test_memo_matches_the_per_state_loop_exactly(L, beta, n_insertions):
    for make_vectors in VECTOR_PAIRS:
        vectors = list(make_vectors(L.dim))[:n_insertions]
        got = s_function_trace(L, beta, vectors, X_SPAN, Q_ORDER)
        want = per_state_trace(L, beta, vectors, X_SPAN, Q_ORDER)
        assert (got.x_min, got.x_max, got.q_order, got.q_denom) == (
            want.x_min, want.x_max, want.q_order, want.q_denom
        )
        # same numbers, summed in the same order: equal, not close
        assert list(got.coeffs.items()) == list(want.coeffs.items()), make_vectors


@pytest.mark.parametrize(
    "n_insertions,coset", [(1, 0), (2, 0), (1, 1), (2, 1)], ids=["1", "2", "1-coset1", "2-coset1"]
)
def test_diagonal_entry_runs_once_per_distinct_key(monkeypatch, n_insertions, coset):
    # the zero-mode keys are the exact points b + x that s_function_trace
    # passes; on the integral coset 0 a float key would compare equal too
    beta = A2.cosets[coset]
    calls = Counter()
    entry = fock.diagonal_entry

    def counting_entry(L, word, point, modes):
        k = word[0][1]
        calls[(k, modes) if k else (0, tuple(point))] += 1
        return entry(L, word, point, modes)

    monkeypatch.setattr(fock, "diagonal_entry", counting_entry)
    vectors = list(_insertion_vectors(A2.dim))[:n_insertions]
    s_function_trace(A2, beta, vectors, X_SPAN, Q_ORDER)
    _, basis = build_basis(A2, beta, Q_ORDER)
    ks = range(-X_SPAN, X_SPAN + 1) if n_insertions == 2 else [0]
    want = {(k, modes) for k in ks if k for _, _, modes in basis}
    want |= {(0, tuple(b + x for b, x in zip(beta, n))) for _, n, _ in basis}
    assert set(calls) == want
    assert set(calls.values()) == {1}
    assert sum(calls.values()) < len(basis) * len(ks)


def test_diagonal_entries_depend_on_what_the_memo_keys():
    """Over the whole a2 basis at Q_ORDER, for float and for integer
    vectors: a k != 0 entry is the same number on every point that carries
    the modes tuple, and the zero-mode entry is the same number on every
    modes tuple over the exact point that s_function_trace passes."""
    for make_vectors in VECTOR_PAIRS:
        v1, v2 = make_vectors(A2.dim)
        for beta in A2.cosets:
            _, basis = build_basis(A2, beta, Q_ORDER)
            by_modes: dict = {}
            by_point: dict = {}
            for _, n, modes in basis:
                m = tuple(b + x for b, x in zip(beta, n))
                for k in range(-X_SPAN, X_SPAN + 1):
                    val = diagonal_entry(A2, [(v1, k), (v2, -k)], m, modes)
                    bucket = by_modes if k else by_point
                    bucket.setdefault((k, modes) if k else m, set()).add(val)
                by_point.setdefault(("one", m), set()).add(
                    diagonal_entry(A2, [(v1, 0)], m, modes)
                )
            assert all(len(vals) == 1 for vals in by_modes.values())
            assert all(len(vals) == 1 for vals in by_point.values())
            # the keys do merge states: the memo has work to save
            assert len({modes for _, _, modes in basis}) < len(basis)
            assert len({m for _, m, _ in basis}) < len(basis)
