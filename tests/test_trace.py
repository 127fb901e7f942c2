import cmath
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from thetatrace import trace
from thetatrace.errors import CutoffTooLarge, ImTooSmall, TailBoundViolated
from thetatrace.fock import build_basis
from thetatrace.lattice import EvenLattice, load_lattice
from thetatrace.qseries import GRADE_CAP, dedekind_eta, eta_eval, jacobi_theta
from thetatrace.trace import (
    TRACE_RTOL,
    TracePoint,
    colored_partition_counts,
    graded_trace_series,
    insertion_counts_by_grade,
    moment_series,
    recursion_series,
    state_pairing,
    t_phase,
    theta_w,
    z_table,
    z_trace,
    z_vector,
)

L4 = EvenLattice(((4,),))
A2 = EvenLattice(((2, -1), (-1, 2)))
A3 = EvenLattice(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
L60 = EvenLattice(((60,),))
HALF = Fraction(1, 2)
LATTICE_DIR = Path(__file__).resolve().parent.parent / "lattices"


def _brute_z_trace(L, beta, point, span=40):
    """Literal definition: sum over a large box, divided by eta^d."""
    d = L.dim
    a, b, tau = point.a, point.b, point.tau
    acc = 0j
    for idx in _grid(d, span):
        m = [idx[i] + float(Fraction(beta[i])) for i in range(d)]
        mb = [m[i] + b[i] for i in range(d)]
        mb2 = [m[i] + b[i] / 2 for i in range(d)]
        acc += cmath.exp(
            2j * math.pi * (complex(L.inner(a, mb2)) + tau * complex(L.inner(mb, mb)) / 2)
        )
    return acc / eta_eval(tau) ** d


def _grid(dim, span):
    if dim == 1:
        return [(k,) for k in range(-span, span + 1)]
    return [(k,) + rest for k in range(-span, span + 1) for rest in _grid(dim - 1, span)]


def _literal_ball(L, beta, point, rtol):
    """A point's own ball (shift, center, norm bound), written out as
    _lattice_sums chooses it: the exact rationals of its floats."""
    d = L.dim
    a, b, tau = point.a, point.b, point.tau
    w = [tau.real * b[i].imag + a[i].imag for i in range(d)]
    margin = (math.log(1.0 / rtol) + math.log(1e4)) / (2 * math.pi)
    radius2 = Fraction(2 * margin / tau.imag)
    center = [Fraction(-w[i] / tau.imag - b[i].real) for i in range(d)]
    return beta, center, radius2


def _literal_lattice_sum(L, beta, point, rtol):
    """The trace numerator term by term over the exact ball: float points,
    two bilinear forms and one cmath.exp per term."""
    d = L.dim
    a, b, tau = point.a, point.b, point.tau
    acc = 0j
    for m in L.points_in_ball(*_literal_ball(L, beta, point, rtol)):
        mf = [float(x) for x in m]
        mb = [mf[i] + b[i] for i in range(d)]
        mb2 = [mf[i] + b[i] / 2 for i in range(d)]
        expo = complex(L.inner(a, mb2)) + tau * complex(L.inner(mb, mb)) / 2
        acc += cmath.exp(2j * math.pi * expo)
    return acc


# ---------------------------------------------------------------------------
# the graded trace itself
# ---------------------------------------------------------------------------


def test_trace_point_validation():
    with pytest.raises(ValueError):
        TracePoint((0.1,), (0.2, 0.3), 1j)
    with pytest.raises(ValueError):
        TracePoint((0.1,), (0.2,), 1.0 - 0.5j)
    for tau in (complex(0.1, math.nan), complex(math.nan, 1.0), complex(math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TracePoint((0.1,), (0.2,), tau)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 0.0)])
@pytest.mark.parametrize("side", ["a", "b"])
def test_trace_point_refuses_non_finite_insertion_coordinates(bad, side):
    # accepted before, z_trace then blamed the sum for overflowing
    vec = (0.1, bad)
    a, b = (vec, (0.2, 0.3)) if side == "a" else ((0.2, 0.3), vec)
    with pytest.raises(ValueError, match="finite"):
        TracePoint(a, b, 1j)


@pytest.mark.parametrize(
    "L,beta,a",
    [
        (A2, (Fraction(1, 3), Fraction(2, 3)), (0.1,)),
        (A2, (Fraction(1, 3),), (0.1, 0.2)),
        (L4, (Fraction(1, 4),), (0.1, 0.2)),
        (L4, (Fraction(1, 4), Fraction(0)), (0.1,)),
    ],
    ids=["a2-point", "a2-coset", "l4-point", "l4-coset"],
)
def test_z_trace_rejects_the_wrong_dimension(L, beta, a):
    pt = TracePoint(a, (0.05,) * len(a), 0.1 + 1.1j)
    with pytest.raises(ValueError, match="coordinates"):
        z_trace(L, beta, pt)


@pytest.mark.parametrize("beta", [(Fraction(0),), (Fraction(1, 4),), (Fraction(1, 2),)])
def test_z_trace_matches_literal_sum_norm4(beta):
    pt = TracePoint((0.11 + 0.05j,), (0.21 - 0.09j,), 0.31 + 1.12j)
    assert abs(z_trace(L4, beta, pt) - _brute_z_trace(L4, beta, pt)) < 1e-12


def test_z_trace_matches_literal_sum_a2():
    pt = TracePoint((0.1 + 0.03j, -0.07j), (0.15, 0.08 - 0.04j), -0.22 + 0.95j)
    for beta in A2.cosets:
        got = z_trace(A2, beta, pt)
        want = _brute_z_trace(A2, beta, pt, span=14)
        assert abs(got - want) < 1e-11


def test_z_vector_follows_coset_order():
    pt = TracePoint((0.1,), (0.05,), 1.2j)
    vec = z_vector(L4, pt)
    assert len(vec) == 4
    for beta, val in zip(L4.cosets, vec):
        assert val == z_trace(L4, beta, pt)


def test_z_trace_where_q_underflows():
    # at Im tau = 200 q is 0 in double precision; eta used to take log(0)
    pt = TracePoint((0.1,), (0.1,), 200j)
    got = z_trace(L4, (0,), pt)
    assert cmath.isfinite(got)
    assert abs(got - _brute_z_trace(L4, (0,), pt, span=3)) < 1e-12 * abs(got)


@pytest.mark.parametrize("L", [L4, A2, A3], ids=["norm4", "a2", "a3"])
def test_z_table_of_no_points_is_empty(L):
    assert z_table(L, []) == []


def test_z_trace_rejects_low_tau():
    with pytest.raises(ImTooSmall):
        z_trace(L4, (0,), TracePoint((0.0,), (0.0,), 0.05j))


@pytest.mark.parametrize("L", [L4, A2])
@pytest.mark.parametrize("im_tau", [0.006, 0.04, 0.3, 1.2])
def test_lattice_sum_matches_term_by_term_sum(L, im_tau):
    # the kernel against the literal per-term sum over the same ball
    d = L.dim
    pt = TracePoint(
        tuple(0.07 - 0.03j * (i + 1) for i in range(d)),
        tuple(-0.11 + 0.02j * (i + 2) for i in range(d)),
        complex(0.17, im_tau),
    )
    for beta in L.cosets:
        lhs = trace._lattice_sums(L, beta, trace._covers(L, trace._prepare(L, [pt], TRACE_RTOL)))[0]
        rhs = _literal_lattice_sum(L, beta, pt, TRACE_RTOL)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
        # the kernel's integer offsets are the exact ball, in order
        ball = _literal_ball(L, beta, pt, TRACE_RTOL)
        cols = L._ball_offsets(*ball)
        assert list(zip(*([b + n for n in col] for b, col in zip(beta, cols)))) == (
            L.points_in_ball(*ball)
        )


@pytest.mark.parametrize("L", [L4, A2])
def test_z_table_batch_matches_z_trace_per_point(L):
    # Im tau from 0.006 to 1.2 and complex insertion vectors spread the
    # centers, so each coset's covering ball is wider than any point's own
    d = L.dim
    pts = [
        TracePoint(
            tuple(0.07 * k - 0.03j * (i + k) for i in range(d)),
            tuple(-0.11 + 0.02j * (i + 2) * k for i in range(d)),
            complex(0.17 - 0.1 * k, im_tau),
        )
        for k, im_tau in enumerate([0.006, 0.04, 0.3, 1.2])
    ]
    table = z_table(L, pts, im_floor=0.001)
    assert [len(row) for row in table] == [len(L.cosets)] * len(pts)
    for pt, row in zip(pts, table):
        for beta, got in zip(L.cosets, row):
            want = z_trace(L, beta, pt, im_floor=0.001)
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("L", [L4, A2, A3])
def test_factor_tables_match_whole_exponents(monkeypatch, L):
    # each term is a product of tabulated factors; with FACTOR_LOG_CAP below
    # zero every point sums its whole exponents instead, and both agree
    d = L.dim
    pts = [
        TracePoint(
            tuple(0.05 * k - 0.04j * (i - k) for i in range(d)),
            tuple(0.1 - 0.03j * (i + 1) * k for i in range(d)),
            complex(0.2 - 0.15 * k, im_tau),
        )
        for k, im_tau in enumerate([0.3, 0.7, 1.2])
    ]
    products = []
    monkeypatch.setattr(trace, "mul", lambda x, y: products.append(1) or x * y)
    tabulated = z_table(L, pts)
    assert products
    monkeypatch.setattr(trace, "FACTOR_LOG_CAP", -1.0)
    products.clear()
    whole = z_table(L, pts)
    assert not products
    for row_t, row_w in zip(tabulated, whole):
        for t, w in zip(row_t, row_w):
            assert abs(t - w) <= 1e-13 * max(1.0, abs(w))


@pytest.mark.parametrize("shift,covering", [(0.07, 1), (0.35, 0)])
def test_z_table_splits_a_batch_beyond_the_cushion(monkeypatch, shift, covering):
    # at Im tau = 0.004 each a2 own ball holds 5,985 points, under the 1e4
    # cushion, but Im a moves the second center by shift / Im tau, so their
    # covering ball holds more: about 1.2e4 points at shift 0.07, which is
    # enumerated and then split, and about 6e4 at 0.35, which is split
    # unenumerated; either way the batch returns its single points' values
    pts = [
        TracePoint((0.0, 0.0), (0.0, 0.0), 0.004j),
        TracePoint((shift * 1j, 0.0), (0.0, 0.0), 0.004j),
    ]
    counts = []
    offsets = EvenLattice._ball_offsets

    def counted(self, beta, center, bound):
        cols = offsets(self, beta, center, bound)
        counts.append(len(cols[0]))
        return cols

    want = [[z_trace(A2, beta, pt, im_floor=0.001) for beta in A2.cosets] for pt in pts]
    monkeypatch.setattr(EvenLattice, "_ball_offsets", counted)
    assert z_table(A2, pts, im_floor=0.001) == want
    assert len(counts) == len(A2.cosets) * (len(pts) + covering)
    assert sum(n > trace.CUSHION for n in counts) == len(A2.cosets) * covering
    assert all(n > 5900 for n in counts)


@pytest.mark.parametrize("L", [L4, A2, A3], ids=["norm4", "a2", "a3"])
def test_z_table_covers_a_batch_once_for_all_cosets(monkeypatch, L):
    # a batch that needs no split: one covering ball is worked out for the
    # batch, and each coset enumerates it once
    d = L.dim
    pts = [
        TracePoint(tuple(0.02 * k for _ in range(d)), tuple(0.01 * k for _ in range(d)), 1.1j)
        for k in range(5)
    ]
    want = z_table(L, pts)
    covers, enumerated = [], []
    cover = trace._covers
    offsets = EvenLattice._ball_offsets

    def counted_cover(L, batch):
        covers.append(len(batch))
        return cover(L, batch)

    def counted_offsets(self, beta, center, bound):
        enumerated.append(beta)
        return offsets(self, beta, center, bound)

    monkeypatch.setattr(trace, "_covers", counted_cover)
    monkeypatch.setattr(EvenLattice, "_ball_offsets", counted_offsets)
    assert z_table(L, pts) == want
    assert covers == [len(pts)]
    assert enumerated == list(L.cosets)


@pytest.mark.parametrize("cap", [trace.FACTOR_LOG_CAP, -1.0], ids=["tables", "whole"])
def test_gaussian_sums_over_a_one_point_ball(monkeypatch, cap):
    # on Gram [[10]] at Im tau = 3 the own ball around 0 holds m = 0 alone,
    # whose term is e^0; a one-index itemgetter returns no tuple
    L10 = EvenLattice(((10,),))
    pt = TracePoint((0.0,), (0.0,), 3j)
    monkeypatch.setattr(trace, "FACTOR_LOG_CAP", cap)
    covers = trace._covers(L10, trace._prepare(L10, [pt, pt], TRACE_RTOL))
    assert [len(L10._ball_offsets((0,), c, r)[0]) for _, c, r in covers] == [1]
    assert trace._lattice_sums(L10, (Fraction(0),), covers) == [1, 1]


@pytest.mark.parametrize(
    "L", [L4, A2, A3, L60, EvenLattice(((10, 1), (1, 10)))], ids=["norm4", "a2", "a3", "l60", "l10-1"]
)
def test_own_balls_past_the_rounding_reach_hold_a_point(L):
    # a batch skips the empty-own-ball check of a point whose radius^2
    # exceeds sum |g_ij| / 4; no center, not even a deep hole, has an empty
    # ball of that radius^2 in any coset
    reach = sum(abs(x) for row in L.gram for x in row) / 4
    rng = random.Random(5)
    centers = [[0.5] * L.dim] + [[rng.uniform(-3, 3) for _ in range(L.dim)] for _ in range(40)]
    for beta in L.cosets:
        for c in centers:
            assert L._ball_offsets(beta, c, reach)[0]


def test_z_table_refuses_a_point_with_an_empty_own_ball():
    # on Gram [[60]] at Im tau = 1 the own ball has coordinate radius 0.47:
    # around 0 it holds the origin, around -1/2 nothing, although the
    # covering ball of the two holds the origin
    full = TracePoint((0.0,), (0.0,), 1j)
    empty = TracePoint((0.0,), (0.5,), 1j)
    with pytest.raises(TailBoundViolated, match="empty"):
        z_trace(L60, (0,), empty)
    assert abs(z_trace(L60, (0,), full)) > 0
    with pytest.raises(TailBoundViolated, match="empty"):
        z_table(L60, [full, empty])


def test_z_trace_ball_is_not_rounded(monkeypatch):
    # the ball is the exact one at the float center and radius, so no
    # rational approximation of them is taken
    pt = TracePoint((0.1 + 0.03j, -0.07j), (0.15, 0.08 - 0.04j), -0.22 + 0.95j)
    want = [z_trace(A2, beta, pt) for beta in A2.cosets]

    def refuse(self, max_denominator=10**6):
        raise AssertionError("limit_denominator called")

    monkeypatch.setattr(Fraction, "limit_denominator", refuse)
    assert [z_trace(A2, beta, pt) for beta in A2.cosets] == want


def test_z_trace_overflow_guard():
    # absurd imaginary insertion makes individual terms overflow; the guard
    # raises without letting a floating-point warning escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TailBoundViolated):
            z_trace(L4, (0,), TracePoint((40j,), (0.0,), 1.0j))


def test_z_trace_tail_cushion_checked_before_summing(monkeypatch):
    # at Im tau = 0.002 the a2 ball holds 11,977 points, more than the 1e4
    # cushion covers; the sum must be refused before any term is evaluated
    def no_terms(*args):
        raise AssertionError("a term was summed")

    monkeypatch.setattr(trace, "_gaussian_sums", no_terms)
    with pytest.raises(TailBoundViolated, match="11977 enumerated points"):
        z_trace(A2, A2.cosets[0], TracePoint((0, 0), (0, 0), 0.002j), im_floor=0.001)


def test_z_trace_rejects_a_coset_outside_the_dual():
    # G beta = 4/5 is not integral: L4 + 1/5 is no module of the family
    with pytest.raises(ValueError, match="dual"):
        z_trace(L4, (Fraction(1, 5),), TracePoint((0.1,), (0.05,), 0.1 + 1.1j))


def test_moment_series_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        moment_series(L4, (Fraction(1, 5),), [(1.0,)], 4)


def test_graded_trace_series_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        graded_trace_series(A2, (Fraction(1, 7), Fraction(0)), 4)


def test_recursion_series_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        recursion_series(A2, (Fraction(1, 7), Fraction(0)), [(1.0, 0.5), (0.6, 0.3)], 1, 2)


@pytest.mark.parametrize("count", [0, 3])
def test_recursion_series_takes_one_or_two_vectors(count):
    with pytest.raises(ValueError, match="one or two"):
        recursion_series(A2, A2.cosets[0], [(1.0, 0.5)] * count, 1, 2)


def test_recursion_series_of_one_vector_is_the_weighted_character():
    got = recursion_series(A2, A2.cosets[1], [(1.0, 0.5)], 3, 4)
    want = graded_trace_series(A2, A2.cosets[1], 4, [(1.0, 0.5)])
    assert (got.denom, got.guaranteed_order) == (want.denom, want.guaranteed_order)
    assert got.coeffs == want.coeffs


def test_insertion_counts_reject_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        insertion_counts_by_grade(L4, (Fraction(1, 5),), 4)


def _refuse_enumeration(monkeypatch):
    def boom(*args):
        raise AssertionError("enumerated above the grade cap")

    monkeypatch.setattr(EvenLattice, "_ball_offsets", boom)
    monkeypatch.setattr(trace, "colored_partition_counts", boom)


def test_insertion_counts_refuse_a_grade_above_the_cap(monkeypatch):
    assert max(insertion_counts_by_grade(L4, (0,), GRADE_CAP)) == GRADE_CAP
    _refuse_enumeration(monkeypatch)
    with pytest.raises(CutoffTooLarge):
        insertion_counts_by_grade(L4, (0,), GRADE_CAP + 1)


def test_moment_series_refuses_a_grade_above_the_cap(monkeypatch):
    _refuse_enumeration(monkeypatch)
    with pytest.raises(CutoffTooLarge):
        moment_series(L4, (0,), [(1.0,)], GRADE_CAP + 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: L4.theta_series((0,), g),
        lambda g: moment_series(L4, (0,), [(1.0,)], g),
        lambda g: graded_trace_series(L4, (0,), g),
        lambda g: insertion_counts_by_grade(L4, (0,), g),
        lambda g: build_basis(L4, (0,), g),
    ],
    ids=["theta_series", "moment_series", "graded_trace_series", "insertion_counts", "build_basis"],
)
def test_exact_builders_refuse_a_negative_cutoff(monkeypatch, build):
    # two used to raise IndexError and three to return an empty result
    build(1)  # a memoized basis of cutoff 1 must not answer for True or 1.0
    _refuse_enumeration(monkeypatch)
    with pytest.raises(ValueError, match="negative"):
        build(-1)
    # nor is any cutoff but an int graded: 2.5 and 5/2 raised a bare TypeError
    for cutoff in (2.5, Fraction(5, 2), True, 1.0):
        with pytest.raises(ValueError, match="int"):
            build(cutoff)


@pytest.mark.parametrize("vector", [(1.0,), (1.0, 0.5, 9.0)], ids=["short", "long"])
@pytest.mark.parametrize(
    "build",
    [
        lambda w: moment_series(A2, A2.cosets[1], [w], 3),
        lambda w: graded_trace_series(A2, A2.cosets[1], 3, [(1.0, 0.5), w]),
        lambda w: recursion_series(A2, A2.cosets[1], [w], 2, 3),
        lambda w: recursion_series(A2, A2.cosets[1], [(1.0, 0.5), w], 2, 3),
    ],
    ids=["moment_series", "graded_trace_series", "recursion_one", "recursion_two"],
)
def test_weighted_series_refuse_a_wrong_length_vector(monkeypatch, vector, build):
    # a third coordinate used to be dropped silently, and a missing one to
    # raise a bare IndexError; both are refused before enumerating
    def boom(*args):
        raise AssertionError("enumerated a wrong-length weight")

    monkeypatch.setattr(EvenLattice, "enumerate_vectors", boom)
    with pytest.raises(ValueError, match="need 2 coordinates"):
        build(vector)


def test_colored_partition_counts_refuse_a_negative_order():
    assert colored_partition_counts(1, 0) == [1]
    with pytest.raises(ValueError, match="nonnegative"):
        colored_partition_counts(1, -1)


@pytest.mark.parametrize("L", [L4, A2, A3], ids=["norm4", "a2", "a3"])
def test_moment_series_without_weights_is_the_coset_theta_series(L):
    # the two exact coset series are one type: equal field by field
    for beta in L.cosets:
        assert moment_series(L, beta, (), 8) == L.theta_series(beta, 8)


def test_graded_trace_series_refuses_a_grade_above_the_cap(monkeypatch):
    _refuse_enumeration(monkeypatch)
    with pytest.raises(CutoffTooLarge):
        graded_trace_series(A2, A2.cosets[1], GRADE_CAP + 1)


def test_theta_w_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        theta_w(L4, (Fraction(1, 5),), (0.1,), 0.1 + 1.1j)


def test_t_phase_rejects_a_coset_outside_the_dual():
    with pytest.raises(ValueError, match="dual"):
        t_phase(L4, (Fraction(1, 5),))


def test_state_pairing_sign_convention():
    assert state_pairing(L4, (1,), (1,)) == -4
    assert state_pairing(A2, (1, 0), (0, 1)) == 1


# ---------------------------------------------------------------------------
# numerator theta function and the classical dictionary
# ---------------------------------------------------------------------------


def test_theta_w_is_numerator_sum():
    beta = (Fraction(1, 4),)
    a = (0.13 - 0.06j,)
    tau = 0.21 + 1.07j
    acc = 0j
    for k in range(-40, 41):
        m = k + 0.25
        acc += cmath.exp(2j * math.pi * (a[0] * 4 * m + tau * 4 * m * m / 2))
    assert abs(theta_w(L4, beta, a, tau) - acc) < 1e-12


@pytest.mark.parametrize(
    "z,tau", [(0.31 + 0.12j, 0.2 + 1.3j), (-0.15 + 0.4j, 1.05j), (0.05 - 0.22j, -0.3 + 0.9j)]
)
def test_norm4_module_thetas_assemble_classical_thetas(z, tau):
    """The four coset thetas at z*x combine, in pairs, into the four
    half-characteristic theta functions evaluated at z."""
    w = [theta_w(L4, (Fraction(j, 4),), (z / 2,), tau) for j in range(4)]
    combos = [
        (w[0] + w[2], jacobi_theta(0, 0, z, tau)),
        (w[0] - w[2], jacobi_theta(0, HALF, z, tau)),
        (w[1] + w[3], jacobi_theta(HALF, 0, z, tau)),
        (1j * w[1] - 1j * w[3], jacobi_theta(HALF, HALF, z, tau)),
    ]
    for lhs, rhs in combos:
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# tau -> tau + 1
# ---------------------------------------------------------------------------


def test_t_phase_values_norm4():
    assert abs(t_phase(L4, (0,)) - cmath.exp(-2j * math.pi / 24)) < 1e-15
    # <beta,beta>/2 = 1/8 at the quarter coset: phase e^(2 pi i (1/8 - 1/24))
    assert abs(t_phase(L4, (Fraction(1, 4),)) - cmath.exp(2j * math.pi / 12)) < 1e-15


@pytest.mark.parametrize("L", [L4, A2])
def test_t_phase_checked_at_a_point(L):
    pt = TracePoint(
        tuple(0.1 + 0.02j for _ in range(L.dim)),
        tuple(0.07 - 0.03j for _ in range(L.dim)),
        0.23 + 1.1j,
    )
    shifted = TracePoint(tuple(x + y for x, y in zip(pt.a, pt.b)), pt.b, pt.tau)
    for beta in L.cosets:
        lhs = z_trace(L, beta, TracePoint(pt.a, pt.b, pt.tau + 1))
        rhs = t_phase(L, beta) * z_trace(L, beta, shifted)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_t_phase_against_direct_ratio():
    beta = (Fraction(1, 2),)
    pt = TracePoint((0.12,), (0.31,), 0.4 + 1.3j)
    lhs = z_trace(L4, beta, TracePoint(pt.a, pt.b, pt.tau + 1))
    shifted = TracePoint((pt.a[0] + pt.b[0],), pt.b, pt.tau)
    assert abs(lhs / z_trace(L4, beta, shifted) - t_phase(L4, beta)) < 1e-12


# ---------------------------------------------------------------------------
# exact q-expansion helpers
# ---------------------------------------------------------------------------


def test_colored_partition_counts_one_color():
    assert colored_partition_counts(1, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_colored_partition_counts_convolution():
    one = colored_partition_counts(1, 12)
    two = colored_partition_counts(2, 12)
    for n in range(13):
        assert two[n] == sum(one[k] * one[n - k] for k in range(n + 1))


def test_moment_series_no_weights_is_theta():
    got = moment_series(L4, (0,), (), 8)
    assert got.denom == 1
    assert got.coeffs == {0: 1 + 0j, 2: 2 + 0j, 8: 2 + 0j}


def test_moment_series_odd_moment_cancels():
    assert moment_series(L4, (0,), ((1.0,),), 10).coeffs == {}


def test_moment_series_second_moment_hand_value():
    got = moment_series(L4, (0,), ((1.0,), (1.0,)), 8)
    # m = +-k contributes <w,m>^2 = (4k)^2 each at exponent 2k^2
    assert {Fraction(k, got.denom) for k in got.coeffs} == {Fraction(2), Fraction(8)}
    assert abs(got.coefficient(2) - 32) < 1e-12
    assert abs(got.coefficient(8) - 128) < 1e-12


def test_graded_trace_series_zero_mode_free():
    got = graded_trace_series(L4, (0,), 4)
    shift = Fraction(1, 24)
    osc = colored_partition_counts(1, 4)
    # vacuum tower plus the two norm-2 vectors' towers
    for n in range(5):
        want = osc[n] + (2 * osc[n - 2] if n >= 2 else 0)
        assert abs(got.coefficient(n - shift) - want) < 1e-12


def test_graded_trace_series_trusted_through_q_order_every_coset():
    # half norms are >= 0, so the eta^-2 factor's horizon q^(6 - 1/12) binds
    for beta in A2.cosets:
        got = graded_trace_series(A2, beta, 6)
        assert got.guaranteed_order == (6 - Fraction(1, 12)) * got.denom


def test_insertion_counts_by_grade_matches_series():
    grade_max = 5
    census = insertion_counts_by_grade(L4, (0,), grade_max)
    series = graded_trace_series(L4, (0,), grade_max)
    shift = Fraction(1, 24)
    for grade, by_point in census.items():
        total = sum(by_point.values())
        assert abs(series.coefficient(grade - shift) - total) < 1e-12


@pytest.mark.parametrize("name", ["norm4", "a2", "a3", "n10"])
def test_counting_series_are_int_series(name):
    # eta, the theta series, the plain moment series and the characters are
    # built from integers, so every coefficient stays an exact int
    L = load_lattice(str(LATTICE_DIR / f"{name}.json"))
    series = [dedekind_eta(40), dedekind_eta(6) ** 2]
    for beta in L.cosets:
        series += [
            L.theta_series(beta, 4),
            moment_series(L, beta, (), 4),
            graded_trace_series(L, beta, 4),
        ]
    for s in series:
        assert s.coeffs and {type(v) for v in s.coeffs.values()} == {int}
    # and the character equals the closed-form census exactly
    for beta in L.cosets:
        got = graded_trace_series(L, beta, 4)
        den = L.enumerate_vectors(beta, 4)[0]
        for key, by_point in insertion_counts_by_grade(L, beta, 4).items():
            grade = Fraction(key, den) - Fraction(L.dim, 24)
            assert got.coefficient(grade) == sum(by_point.values())
