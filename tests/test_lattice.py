import itertools
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetatrace.errors import (
    BoundTooLarge,
    CutoffTooLarge,
    LatticeFileError,
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
)
from thetatrace import lattice, trace
from thetatrace.lattice import EvenLattice, load_lattice
from thetatrace.qseries import GRADE_CAP
from thetatrace.trace import TracePoint

L4 = EvenLattice(((4,),))
A2 = EvenLattice(((2, -1), (-1, 2)))
Z2SQ = EvenLattice(((2, 0), (0, 2)))
# Cartan matrices of A3 and D4 (node 2 of D4 is the central one)
A3 = EvenLattice(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
D4 = EvenLattice(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("entry", [2.5, Fraction(9, 2), "4"])
def test_rejects_non_integer_entries(entry):
    with pytest.raises(ValueError, match="integers"):
        EvenLattice(((entry,),))


def test_accepts_integral_floats():
    assert EvenLattice(((4.0,),)).gram == ((4,),)


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        EvenLattice(((2, 0),))


def test_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        EvenLattice(((2, 1), (0, 2)))


def test_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        EvenLattice(((2, 3), (3, 2)))
    with pytest.raises(NotPositiveDefinite):
        EvenLattice(((-2,),))


def test_rejects_odd_diagonal():
    with pytest.raises(NotEven):
        EvenLattice(((1, 0), (0, 2)))


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------


def test_dims_and_determinants():
    assert (L4.dim, L4.det) == (1, 4)
    assert (A2.dim, A2.det) == (2, 3)
    assert (Z2SQ.dim, Z2SQ.det) == (2, 4)


def test_inner_is_bilinear_no_conjugation():
    assert A2.inner((1, 0), (0, 1)) == -1
    assert A2.norm2((1, 1)) == 2
    assert A2.norm2((2, 1)) == 6
    # complex inputs pass straight through the bilinear form
    assert L4.inner((1j,), (1j,)) == -4


def test_cosets_norm4():
    assert L4.cosets == (
        (Fraction(0),),
        (Fraction(1, 4),),
        (Fraction(1, 2),),
        (Fraction(3, 4),),
    )


def test_cosets_a2():
    assert A2.cosets == (
        (Fraction(0), Fraction(0)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
    )


def test_cosets_square_lattice():
    assert Z2SQ.cosets == tuple(
        sorted((Fraction(a, 2), Fraction(b, 2)) for a in (0, 1) for b in (0, 1))
    )


@pytest.mark.parametrize("L", [L4, A2, Z2SQ])
def test_cosets_are_dual_vectors(L):
    # beta is dual iff <beta, e_i> is an integer for every basis vector
    for beta in L.cosets:
        for i in range(L.dim):
            e = [0] * L.dim
            e[i] = 1
            assert Fraction(L.inner(beta, e)).denominator == 1


def _brute_cosets(L):
    """Every y in ((1/|det|) Z cap [0,1))^d with G y integral, sorted: the
    dual lattice mod L by exhaustion, since |det| y is integral on L*."""
    n = abs(L.det)
    ks = np.array(list(itertools.product(range(n), repeat=L.dim)), dtype=np.int64).T
    hits = ((np.array(L.gram, dtype=np.int64) @ ks) % n == 0).all(axis=0)
    return tuple(sorted(tuple(Fraction(int(k), n) for k in col) for col in ks[:, hits].T))


@pytest.mark.parametrize("L", [L4, A2, Z2SQ, A3, D4])
def test_cosets_match_brute_force(L):
    assert L.cosets == _brute_cosets(L)


@st.composite
def _even_grams(draw):
    d = draw(st.integers(1, 3))
    g = [[0] * d for _ in range(d)]
    for i in range(d):
        g[i][i] = draw(st.sampled_from([2, 4, 6, 8]))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    return tuple(map(tuple, g))


@settings(max_examples=60, deadline=None)
@given(gram=_even_grams())
def test_cosets_match_brute_force_random_grams(gram):
    try:
        L = EvenLattice(gram)
    except NotPositiveDefinite:
        assume(False)
    assume(L.det <= 64)
    assert L.cosets == _brute_cosets(L)


def test_cosets_refuse_a_huge_discriminant():
    # the closure would list 2e12 cosets; the cap refuses before it starts
    huge = EvenLattice(((2 * 10**12,),))
    with pytest.raises(BoundTooLarge):
        huge.cosets


def test_coset_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(lattice, "COSET_CAP", 3)
    assert len(EvenLattice(A2.gram).cosets) == 3
    with pytest.raises(BoundTooLarge):
        EvenLattice(L4.gram).cosets


def test_coset_norm_half():
    assert L4.coset_norm_half((Fraction(1, 4),)) == Fraction(1, 8)
    assert L4.coset_norm_half((Fraction(1, 2),)) == Fraction(1, 2)
    assert A2.coset_norm_half((Fraction(1, 3), Fraction(2, 3))) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _brute_ball(L, beta, center, bound, span=12):
    out = []
    for idx in _grid(L.dim, span):
        m = tuple(idx[i] + Fraction(beta[i]) for i in range(L.dim))
        diff = [m[i] - Fraction(center[i]) for i in range(L.dim)]
        if L.norm2(diff) <= bound:
            out.append(m)
    return sorted(out)


def _grid(dim, span):
    if dim == 1:
        for a in range(-span, span + 1):
            yield (a,)
    else:
        for a in range(-span, span + 1):
            for rest in _grid(dim - 1, span):
                yield (a,) + rest


def _ball_in_order(L, beta, center, bound, span=12):
    """The brute-force ball in enumeration order: last coordinate outermost,
    each coordinate increasing."""
    pts = _brute_ball(L, beta, center, bound, span)
    # no point on the edge of the grid, so the grid holds the whole ball
    assert all(abs(m[i] - Fraction(beta[i])) < span for m in pts for i in range(L.dim))
    return sorted(pts, key=lambda m: m[::-1])


def _near(x):
    # a center as _lattice_sums passes it: the exact value of a float
    return Fraction(x)


@pytest.mark.parametrize(
    "L,beta,center,bound",
    [
        (L4, (Fraction(0),), (Fraction(0),), Fraction(20)),
        (L4, (Fraction(1, 4),), (Fraction(1, 3),), Fraction(15)),
        (A2, (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)), Fraction(10)),
        (A2, (Fraction(1, 3), Fraction(2, 3)), (Fraction(-1, 2), Fraction(1, 5)), Fraction(8)),
        (Z2SQ, (Fraction(1, 2), Fraction(0)), (Fraction(1, 4), Fraction(0)), Fraction(9)),
    ],
)
def test_points_in_ball_matches_brute_force(L, beta, center, bound):
    assert L.points_in_ball(beta, center, bound) == _ball_in_order(L, beta, center, bound)


@pytest.mark.parametrize(
    "L,beta,center,bound,span",
    [
        # a2 coset with float centers and bound, as _lattice_sums passes them
        (A2, (Fraction(1, 3), Fraction(2, 3)), (_near(0.3183), _near(-1.4142)),
         _near(6.283185307), 12),
        (Z2SQ, (Fraction(1, 2), Fraction(0)), (_near(0.1), _near(-0.7)), Fraction(9), 12),
        (A3, (Fraction(0),) * 3, (Fraction(0),) * 3, Fraction(6), 5),
        (A3, (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), (_near(0.41), _near(-0.27), _near(1.3)),
         Fraction(5), 5),
        (D4, (Fraction(0),) * 4, (Fraction(0),) * 4, Fraction(4), 4),
        (D4, (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 2)),
         (_near(0.2), _near(-0.35), _near(0.6), _near(0.05)), Fraction(7, 2), 4),
    ],
)
def test_points_in_ball_rounded_centers_and_rank_3_4(L, beta, center, bound, span):
    assert L.points_in_ball(beta, center, bound) == _ball_in_order(L, beta, center, bound, span)


def _trace_covers(L, point):
    """The covering balls (center, bound) that the trace kernel enumerates
    for a batch of the point and a shifted copy: raw floats."""
    pts = [TracePoint(*point), TracePoint(point[0], tuple(x + 0.3j for x in point[1]), point[2])]
    covers = trace._covers(L, trace._prepare(L, pts, trace.TRACE_RTOL))
    return [(center, bound) for _, center, bound in covers]


@pytest.mark.parametrize(
    "L,beta,center,bound",
    [
        *((A2, beta, c, r) for beta in A2.cosets
          for c, r in _trace_covers(A2, ((0.1 + 0.03j, -0.07j), (0.15, 0.08 - 0.04j), -0.22 + 0.95j))),
        *((A3, beta, c, r) for beta in A3.cosets
          for c, r in _trace_covers(A3, ((0.1j, 0.2, -0.05j), (0.15, 0.0, 0.1), 0.3 + 1.4j))),
        # one point: the origin alone lies within 0.5 of (0.1, -0.2)
        (A2, (Fraction(0), Fraction(0)), (0.1, -0.2), 0.5),
        # empty: the nearest points of L4 lie at squared distance 4 (0.5)^2 = 1
        (L4, (Fraction(0),), (0.5,), 0.999),
        (A2, (Fraction(1, 3), Fraction(2, 3)), (0.25, -0.125), -0.5),
    ],
)
def test_ball_offsets_of_floats_match_their_exact_fractions(L, beta, center, bound):
    # the kernel passes its float centers and bounds as they are; their
    # integer ratios make the ball of the exact Fractions, in order
    got = L._ball_offsets(beta, center, bound)
    assert got == L._ball_offsets(beta, [Fraction(x) for x in center], Fraction(bound))
    points = list(zip(*([b + n for n in col] for b, col in zip(beta, got))))
    assert points == _ball_in_order(L, beta, center, bound, 6)


def test_ball_offsets_of_floats_one_point_and_empty():
    # the one-point and empty cases of the cases above
    assert A2._ball_offsets((Fraction(0), Fraction(0)), (0.1, -0.2), 0.5) == [[0], [0]]
    assert L4._ball_offsets((Fraction(0),), (0.5,), 0.999) == [[]]
    assert L4._ball_offsets((Fraction(0),), (0.5,), 1.0) == [[0, 1]]


def test_points_in_ball_includes_points_on_the_bound():
    # the six roots of A2 have norm exactly 2
    zero = (Fraction(0), Fraction(0))
    on = A2.points_in_ball(zero, zero, Fraction(2))
    assert len(on) == 7
    assert on == _ball_in_order(A2, zero, zero, Fraction(2))
    assert A2.points_in_ball(zero, zero, Fraction(2) - Fraction(1, 10**9)) == [zero]
    # off-center: m = 0 sits at squared distance exactly 4 (1/3)^2 = 4/9; an
    # integer beta still gives Fraction coordinates
    (m,) = L4.points_in_ball((0,), (Fraction(1, 3),), Fraction(4, 9))
    assert m == (0,) and type(m[0]) is Fraction
    assert L4.points_in_ball((0,), (Fraction(1, 3),), Fraction(4, 9) - Fraction(1, 10**9)) == []


@settings(max_examples=60, deadline=None)
@given(
    coset=st.integers(0, 2),
    center=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    bound=st.one_of(st.integers(0, 12).map(Fraction), st.floats(0, 12).map(_near)),
)
def test_points_in_ball_property_a2(coset, center, bound):
    beta = A2.cosets[coset]
    c = tuple(_near(x) for x in center)
    assert A2.points_in_ball(beta, c, bound) == _ball_in_order(A2, beta, c, bound)


def test_points_in_ball_cap(monkeypatch):
    monkeypatch.setattr(lattice, "ENUM_CAP", 3)
    with pytest.raises(BoundTooLarge):
        L4.points_in_ball((Fraction(0),), (Fraction(0),), Fraction(400))


def test_points_in_ball_cap_counts_every_accepted_candidate(monkeypatch):
    # rank one: one candidate per point, |n| <= 10 for 4 n^2 <= 400
    zero1 = (Fraction(0),)
    monkeypatch.setattr(lattice, "ENUM_CAP", 21)
    assert len(L4.points_in_ball(zero1, zero1, Fraction(400))) == 21
    monkeypatch.setattr(lattice, "ENUM_CAP", 20)
    with pytest.raises(BoundTooLarge):
        L4.points_in_ball(zero1, zero1, Fraction(400))
    # rank two: the points plus every accepted last coordinate, boxed by the
    # last LDL pivot 3/2
    monkeypatch.undo()  # the reference ball runs under the real cap
    zero2 = (Fraction(0), Fraction(0))
    bound = Fraction(12)
    pts = A2.points_in_ball(zero2, zero2, bound)
    cap = len(pts) + sum(1 for n in range(-10, 11) if Fraction(3, 2) * n * n <= bound)
    monkeypatch.setattr(lattice, "ENUM_CAP", cap)
    assert A2.points_in_ball(zero2, zero2, bound) == pts
    monkeypatch.setattr(lattice, "ENUM_CAP", cap - 1)
    with pytest.raises(BoundTooLarge):
        A2.points_in_ball(zero2, zero2, bound)


@pytest.mark.parametrize(
    "L,beta,center",
    [
        (L4, (0, 0), (0, 0)),
        (L4, (0, Fraction(1, 2)), (0,)),
        (L4, (0,), (0, 0)),
        (A2, (0,), (0, 0)),
        (A2, (0, 0), (0,)),
    ],
    ids=["l4-both", "l4-coset", "l4-center", "a2-coset", "a2-center"],
)
def test_points_in_ball_rejects_the_wrong_dimension(L, beta, center):
    with pytest.raises(ValueError, match="coordinates"):
        L.points_in_ball(beta, center, Fraction(4))


def test_theta_series_rejects_a_coset_of_the_wrong_dimension():
    with pytest.raises(ValueError, match="coordinates"):
        L4.theta_series((0, Fraction(1, 2)), 4)


def test_enumerate_vectors_shifted_coset_tight_bound():
    # <m,m>/2 <= 1 around the quarter coset catches exactly one vector,
    # m = 1/4 + 0 with <m,m>/2 = 1/8 (the next, -3/4, has 9/8): key 1 over 8
    assert L4.enumerate_vectors((Fraction(1, 4),), 1) == (8, [((0,), 1)])


def test_enumerate_vectors_sorted_and_bounded():
    pts = [m for m, _ in A2.enumerate_vectors((Fraction(0), Fraction(0)), 6)[1]]
    assert pts == sorted(pts)
    assert all(Fraction(A2.norm2(m)) / 2 <= 6 for m in pts)
    assert len(pts) == len(set(pts))
    assert len(pts) == len(_brute_ball(A2, (0, 0), (0, 0), 12))


@pytest.mark.parametrize("L", [L4, A2, A3, D4], ids=["L4", "A2", "A3", "D4"])
def test_enumerate_vectors_pairs_carry_exact_half_norms(L):
    # the oracle grades exact points: points_in_ball's Fraction points with
    # their Fraction half-norms, sorted, over the lcm of their denominators
    zero = [0] * L.dim
    empty = 0
    for beta in L.cosets:
        for bound in range(4):
            pts = L.points_in_ball(beta, zero, 2 * bound)
            graded = sorted((m, Fraction(L.norm2(m)) / 2) for m in pts)
            den = math.lcm(*(h.denominator for _, h in graded))
            want = [(tuple(x - b for x, b in zip(m, beta)), h * den) for m, h in graded]
            got_den, got = L.enumerate_vectors(beta, bound)
            assert (got_den, got) == (den, want)
            assert all(type(x) is int for n, k in got for x in n + (k,))
            empty += not got
    # the bound-0 ball of a nonzero coset holds no point: den is then 1
    assert empty == len(L.cosets) - 1


@pytest.mark.parametrize(
    "beta,bound,error,match",
    [
        ((Fraction(1, 5),), 4, ValueError, "dual"),
        ((0, 0), 4, ValueError, "coordinates"),
        ((0,), -1, ValueError, "negative"),
        ((0,), GRADE_CAP + 1, CutoffTooLarge, "cap"),
        ((0,), 2.5, ValueError, "int"),
        ((0,), Fraction(5, 2), ValueError, "int"),
        ((0,), True, ValueError, "int"),
    ],
    ids=["non-dual", "wrong-dimension", "negative", "above-cap", "float", "fraction", "bool"],
)
def test_enumerate_vectors_refuses_bad_input_before_enumerating(
    monkeypatch, beta, bound, error, match
):
    # the one gate of every exact coset series
    def boom(*args):
        raise AssertionError("enumerated a refused input")

    monkeypatch.setattr(EvenLattice, "_ball_offsets", boom)
    with pytest.raises(error, match=match):
        L4.enumerate_vectors(beta, bound)


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------


def test_theta_series_refuses_a_grade_above_the_cap(monkeypatch):
    # without the cap, order 2000 on A3 enumerated for over a minute
    assert L4.theta_series((0,), GRADE_CAP).guaranteed_order == GRADE_CAP

    def boom(*args):
        raise AssertionError("enumerated above the grade cap")

    monkeypatch.setattr(EvenLattice, "_ball_offsets", boom)
    with pytest.raises(CutoffTooLarge):
        A3.theta_series(A3.cosets[1], GRADE_CAP + 1)


def test_theta_series_rejects_a_coset_outside_the_dual():
    # G beta = 4/5 is not integral; every dual coset of L4 and A2 passes
    with pytest.raises(ValueError, match="dual"):
        L4.theta_series((Fraction(1, 5),), 4)
    for L in (L4, A2):
        for beta in L.cosets:
            assert L.check_dual(beta) == beta


def test_theta_series_norm4():
    s = L4.theta_series((Fraction(0),), 10)
    assert s.denom == 1
    assert {k: int(v.real) for k, v in s.coeffs.items()} == {0: 1, 2: 2, 8: 2}


def test_theta_series_norm4_quarter_coset():
    s = L4.theta_series((Fraction(1, 4),), 7)
    # exponents (4k+1)^2/8 for k in Z
    assert s.denom == 8
    assert s.coefficient(Fraction(1, 8)) == 1
    assert s.coefficient(Fraction(9, 8)) == 1
    assert s.coefficient(Fraction(25, 8)) == 1
    assert s.coefficient(Fraction(49, 8)) == 1
    assert sum(int(v.real) for v in s.coeffs.values()) == 4


def test_theta_series_a2_matches_brute_count():
    s = A2.theta_series((Fraction(0), Fraction(0)), 8)
    want = {}
    for m in _brute_ball(A2, (0, 0), (0, 0), 16):
        e = Fraction(A2.norm2(m)) / 2
        if e <= 8:
            want[e] = want.get(e, 0) + 1
    for e, c in want.items():
        assert s.coefficient(e) == c
    assert s.coefficient(1) == 6
    assert s.coefficient(3) == 6
    assert s.coefficient(4) == 6


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def test_load_lattice_roundtrip(tmp_path):
    p = tmp_path / "lat.json"
    p.write_text(json.dumps({"name": "toy", "gram": [[2, -1], [-1, 2]]}))
    L = load_lattice(str(p))
    assert L.name == "toy"
    assert L.gram == ((2, -1), (-1, 2))


def test_load_shipped_lattice_files():
    root = Path(__file__).resolve().parent.parent / "lattices"
    assert load_lattice(str(root / "norm4.json")).det == 4
    assert load_lattice(str(root / "a2.json")).det == 3


def test_load_lattice_missing_file(tmp_path):
    with pytest.raises(LatticeFileError):
        load_lattice(str(tmp_path / "nope.json"))


def test_load_lattice_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(LatticeFileError):
        load_lattice(str(p))


def test_load_lattice_nesting_beyond_the_recursion_limit(tmp_path):
    # the json decoder raises RecursionError, not JSONDecodeError, here
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000)
    with pytest.raises(LatticeFileError):
        load_lattice(str(p))


@pytest.mark.parametrize(
    "payload",
    [
        {"gram": [[2, 0]]},
        {"gram": [[2.5]]},
        {"gram": "nope"},
        {"name": "x"},
        {"gram": [[1]]},
        {"gram": [[2, 1], [0, 2]]},
        {"gram": [[2, True], [True, 2]]},
    ],
)
def test_load_lattice_rejects_bad_payloads(tmp_path, payload):
    p = tmp_path / "lat.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(LatticeFileError):
        load_lattice(str(p))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["gram", "name"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=16,
)
# objects that reach the checks past the JSON shape: a gram of small ints
# (and stray booleans), sometimes named
_gram_objects = st.fixed_dictionaries(
    {"gram": st.lists(st.lists(st.integers(-3, 4) | st.booleans(), max_size=3), max_size=3)},
    optional={"name": _json_values},
)


@settings(max_examples=200, deadline=None)
@given(
    data=st.one_of(
        _json_values.map(lambda v: json.dumps(v).encode()),
        _gram_objects.map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=48),
    )
)
def test_load_lattice_fuzz(data):
    # a lattice or a typed LatticeFileError; any other exception fails
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "lat.json"
        p.write_bytes(data)
        try:
            L = load_lattice(str(p))
        except LatticeFileError:
            return
    assert isinstance(L, EvenLattice)
