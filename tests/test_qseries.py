import cmath
import math
from fractions import Fraction

import pytest

from thetatrace.errors import ImTooSmall, OutOfAnnulus, PoleAtLatticePoint
from thetatrace.qseries import (
    BiSeries,
    TruncatedSeries,
    dedekind_eta,
    eisenstein_g2,
    eta_eval,
    g2_eval,
    jacobi_theta,
    p2_eval,
    p2_series,
    q_power,
    theta_s_constant,
    weierstrass_p,
)

HALF = Fraction(1, 2)
CHARS = [(0, 0), (0, HALF), (HALF, 0), (HALF, HALF)]


# ---------------------------------------------------------------------------
# truncated series arithmetic
# ---------------------------------------------------------------------------


def test_series_add_aligns_denominators():
    a = TruncatedSeries(2, {1: 1.0}, 10)   # q^(1/2)
    b = TruncatedSeries(3, {1: 2.0}, 12)   # q^(1/3)
    c = a + b
    assert c.denom == 6
    assert c.coefficient(Fraction(1, 2)) == 1.0
    assert c.coefficient(Fraction(1, 3)) == 2.0
    assert c.guaranteed_order == 24  # min(10*3, 12*2)


def test_series_mul_trust_window():
    # (1 + q + q^2 + O(q^3)) * (1 - q + O(q^2)): only the q^1 coefficient
    # of the product is still fully determined
    a = TruncatedSeries(1, {0: 1, 1: 1, 2: 1}, 2)
    b = TruncatedSeries(1, {0: 1, 1: -1}, 1)
    c = a * b
    assert c.guaranteed_order == 1
    assert c.coefficient(0) == 1
    assert c.coefficient(1) == 0


def _types(series) -> set:
    return {type(v) for v in series.coeffs.values()}


def test_series_keep_the_type_of_their_coefficients():
    # sums and products start from the integers 0 and 1: int series stay int
    # series, exactly, and a number enters only through scale
    a = TruncatedSeries(2, {-1: 3, 0: 1, 4: -2}, 6)
    b = TruncatedSeries(3, {0: 1, 2: 5}, 9)
    for got in (a + b, a - b, -a, a * b, b ** 3, a.with_denom(4)):
        assert _types(got) == {int}
    assert (a * b).coeffs == {-3: 3, 0: 1, 1: 15, 4: 5, 12: -2}
    assert _types(a.scale(0.5)) == {float}
    assert _types(a.scale(1j)) == {complex}
    assert int not in _types(b.reciprocal())  # division works in floats
    x = BiSeries(-2, 2, 4, {(1, 0): 2, (-1, 1): -1})
    for got in (x + a, x - x.scale(2), -x, x * b, x.with_q_denom(2)):
        assert _types(got) <= {int} and got.coeffs
    assert (x * b).coeffs == {(1, 0): 2, (1, 2): 10, (-1, 3): -1, (-1, 5): -5}
    assert a.coefficient(Fraction(1, 3)) == 0 and type(a.coefficient(Fraction(1, 3))) is int


def test_series_mul_laurent_shift_extends_trust():
    a = TruncatedSeries(1, {-2: 1.0}, 10)  # monomial q^-2, known through q^10
    b = TruncatedSeries(1, {0: 1, 1: 5}, 4)
    c = a * b
    assert c.guaranteed_order == 2
    assert c.coefficient(-1) == 5


def test_series_pow_matches_repeated_mul():
    s = TruncatedSeries(1, {0: 1, 1: 2, 3: -1}, 6)
    assert (s ** 3).coeffs == (s * s * s).coeffs
    with pytest.raises(ValueError):
        s ** 0


def test_series_reciprocal_roundtrip():
    s = dedekind_eta(12)
    inv = s.reciprocal()
    prod = s * inv
    assert abs(prod.coefficient(0) - 1) < 1e-12
    for k, v in prod.coeffs.items():
        if k != 0:
            assert abs(v) < 1e-12


def test_series_reciprocal_runs_through_the_horizon():
    s = TruncatedSeries(1, {0: 1, 1: 1}, 5)
    inv = s.reciprocal()
    assert inv.guaranteed_order == 5
    assert inv.coeffs == {k: (-1) ** k for k in range(6)}  # 1/(1+q) = 1 - q + q^2 - ...


def test_series_eval_tau_sums_terms():
    s = TruncatedSeries(2, {1: 2.0, 4: -3.0}, 8)
    tau = 0.3 + 1.1j
    want = 2 * cmath.exp(2j * math.pi * tau / 2) - 3 * cmath.exp(2j * math.pi * tau * 2)
    assert abs(s.eval_tau(tau) - want) < 1e-14


def test_q_power_uses_tau_branch_not_principal_root():
    # for Re tau in (1/2, 1) the principal square root of q is the wrong
    # branch; the exponent must act on tau itself
    tau = 0.8 + 1.0j
    q = cmath.exp(2j * math.pi * tau)
    half = q_power(tau, Fraction(1, 2))
    assert abs(half - cmath.exp(1j * math.pi * tau)) < 1e-15
    assert abs(half + cmath.sqrt(q)) < 1e-15  # differs from principal by sign
    assert abs(half * half - q) < 1e-15


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def _euler_product_coeffs(order):
    # prod_{k=1}^{order} (1 - q^k) by integer convolution
    c = [0] * (order + 1)
    c[0] = 1
    for k in range(1, order + 1):
        for j in range(order, k - 1, -1):
            c[j] -= c[j - k]
    return c


def test_eta_series_matches_euler_product():
    order = 40
    s = dedekind_eta(order)
    assert s.denom == 24
    want = _euler_product_coeffs(order)
    for n in range(order + 1):
        got = s.coefficient(Fraction(24 * n + 1, 24))
        assert got == want[n], n


def test_eta_value_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    want = math.gamma(0.25) / (2 * math.pi ** 0.75)
    assert abs(eta_eval(1j) - want) < 1e-13


@pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.45 + 0.8j, 1.7j])
def test_eta_inversion_law(tau):
    lhs = eta_eval(-1 / tau)
    rhs = cmath.sqrt(-1j * tau) * eta_eval(tau)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.45 + 0.8j])
def test_eta_shift_law(tau):
    assert abs(eta_eval(tau + 1) - cmath.exp(1j * math.pi / 12) * eta_eval(tau)) < 1e-13


def test_eta_eval_respects_im_floor():
    with pytest.raises(ImTooSmall):
        eta_eval(0.1j)


NON_FINITE = [complex(0.1, math.nan), complex(math.nan, 1.0), complex(0.1, math.inf),
              complex(math.inf, 1.0)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["im-nan", "re-nan", "im-inf", "re-inf"])
def test_non_finite_tau_or_z_is_refused(bad):
    # a NaN Im(tau) compares False with the floor, so it used to reach the
    # adaptive orders and fail there with a bare ValueError
    at_tau = (eta_eval, g2_eval, lambda t: p2_eval(0.1, t), lambda t: weierstrass_p(0.3, t),
              lambda t: jacobi_theta(0, 0, 0.1, t))
    for evaluate in at_tau:
        with pytest.raises(ImTooSmall):
            evaluate(bad)
    for evaluate in (p2_eval, weierstrass_p, lambda z, t: jacobi_theta(0, 0, z, t)):
        with pytest.raises(OutOfAnnulus):
            evaluate(bad, 1.1j)


# ---------------------------------------------------------------------------
# weight-two Eisenstein
# ---------------------------------------------------------------------------


def _sigma1(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_g2_series_coefficients():
    s = eisenstein_g2(12)
    assert abs(s.coefficient(0) - math.pi ** 2 / 3) < 1e-12
    for n in range(1, 13):
        assert abs(s.coefficient(n) + 8 * math.pi ** 2 * _sigma1(n)) < 1e-9


def test_g2_value_at_i():
    assert abs(g2_eval(1j) - math.pi) < 1e-13


@pytest.mark.parametrize("tau", [0.23 + 1.1j, 1j, -0.4 + 0.8j, 0.5 + 1.4j])
def test_g2_against_row_sum_oracle(tau):
    """Independent evaluation: G2 = pi^2/3 + 2 sum_m pi^2 / sin^2(pi m tau)."""
    acc = complex(math.pi ** 2 / 3)
    for m in range(1, 60):
        acc += 2 * math.pi ** 2 / cmath.sin(math.pi * m * tau) ** 2
    assert abs(g2_eval(tau) - acc) < 1e-12


def test_g2_quasimodular_inversion():
    # G2(-1/tau) = tau^2 G2(tau) - 2 pi i tau
    for tau in (0.3 + 1.2j, 0.9j):
        lhs = g2_eval(-1 / tau)
        rhs = tau ** 2 * g2_eval(tau) - 2j * math.pi * tau
        assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# elliptic kernel and Weierstrass function
# ---------------------------------------------------------------------------


def _p_double_sum(z, tau, n_cut=200):
    # absolutely convergent rectangular double sum; the symmetric box makes
    # the odd 1/w^3 parts cancel exactly, leaving an O(1/N^2) tail
    import numpy as np

    m, n = np.mgrid[-n_cut : n_cut + 1, -n_cut : n_cut + 1]
    w = m * tau + n
    w = w[(m != 0) | (n != 0)]
    return 1.0 / z ** 2 + complex(np.sum(1.0 / (z - w) ** 2 - 1.0 / w ** 2))


@pytest.mark.parametrize(
    "z,tau",
    [
        (0.31 + 0.17j, 0.3 + 1.1j),
        (0.5 + 0j, 1.2j),
        (0.21 - 0.34j, -0.25 + 0.9j),
    ],
)
def test_weierstrass_against_double_sum(z, tau):
    assert abs(weierstrass_p(z, tau) - _p_double_sum(z, tau)) < 2e-5


def test_weierstrass_even_and_periodic():
    z, tau = 0.27 + 0.21j, 0.4 + 1.3j
    base = weierstrass_p(z, tau)
    assert abs(weierstrass_p(-z, tau) - base) < 1e-10
    assert abs(weierstrass_p(z + 1, tau) - base) < 1e-10
    assert abs(weierstrass_p(z + tau, tau) - base) < 1e-10


def test_weierstrass_refuses_pole():
    with pytest.raises(PoleAtLatticePoint):
        weierstrass_p(1e-12 + 0j, 1.1j)


@pytest.mark.parametrize("tau", [1.1j, 0.3 + 1.1j])
def test_weierstrass_refuses_a_pole_off_the_origin(tau):
    # the reduction carries every period lattice point to p2_eval's guard at 0
    for z in (1 + 1e-12, tau + 1e-12, -tau - 1 + 1e-12):
        with pytest.raises(PoleAtLatticePoint):
            weierstrass_p(z, tau)


def test_evaluators_where_q_underflows():
    # |q| = e^{-400 pi} is 0 in double precision, so no product term is
    # left; the evaluators used to take log(0) and raise a bare ValueError
    tau = 200j
    assert q_power(tau, 1) == 0
    assert eta_eval(tau) == q_power(tau, Fraction(1, 24)) != 0
    assert eta_eval(119j) == q_power(119j, Fraction(1, 24))
    assert g2_eval(tau) == math.pi**2 / 3
    qz = cmath.exp(2j * math.pi * 0.3)
    want = (2j * math.pi) ** 2 * qz / (1 - qz) ** 2 - math.pi**2 / 3
    assert abs(weierstrass_p(0.3, tau) - want) < 1e-12 * abs(want)


def test_weierstrass_refuses_a_z_too_large_to_reduce():
    # both shifts are periods, but in double precision 1e16 and 1e17 tau
    # swamp z: the reduction used to return -25.3 and 11.9 for 3.26-6.10i
    z, tau = 0.3 + 0.2j, 1.1j
    base = weierstrass_p(z, tau)
    for shifted in (z + 1e16, z + 1e17 * tau):
        with pytest.raises(OutOfAnnulus, match="too large to reduce"):
            weierstrass_p(shifted, tau)
    # a thousand periods away the reduction still moves z by under 1e-12
    for shifted in (z + 1000, z + 1000 * tau):
        assert abs(weierstrass_p(shifted, tau) - base) < 1e-10


def test_jacobi_theta_refuses_an_overflowing_im_z(monkeypatch):
    # the largest term is exp(pi (Im z)^2 / Im tau): e^643 at Im z = 15 and
    # Im tau = 1.1, beyond double precision at 16 and far beyond at 1e7,
    # which used to raise a bare OverflowError after millions of terms
    assert cmath.isfinite(jacobi_theta(0, 0, 15j, 1.1j))

    def no_terms(w):
        raise AssertionError("a term was summed")

    monkeypatch.setattr(cmath, "exp", no_terms)
    for z in (16j, -16j, 1e7j, 0.3 + 1e7j):
        with pytest.raises(OutOfAnnulus, match="overflow"):
            jacobi_theta(0, 0, z, 1.1j)


def test_p2_eval_annulus_guard():
    # Im z large enough pushes q_z out of |q| < |q_z| < 1/|q|
    with pytest.raises(OutOfAnnulus):
        p2_eval(0.0 + 2.0j, 0.5j)


@pytest.mark.parametrize("z", [0, 1, -2 + 1e-12j, 3 - 1e-9])
def test_p2_eval_refuses_its_poles(z):
    # the integers are the kernel's only poles in its annulus: at 0 it used
    # to divide by zero, and at 1 to return 6.58e32 - 1.61e17i
    with pytest.raises(PoleAtLatticePoint, match="integer"):
        p2_eval(z, 1j)
    assert cmath.isfinite(p2_eval(z + 1e-6, 1j))


def test_p2_series_window_and_coefficients():
    w = (2j * math.pi) ** 2
    s = p2_series(3, 6)
    assert (s.x_min, s.x_max, s.q_order, s.q_denom) == (-3, 3, 6, 1)
    assert s.coefficient(1, 0) == w
    assert s.coefficient(2, 0) == 2 * w
    assert s.coefficient(2, 2) == 2 * w
    assert s.coefficient(-2, 2) == 2 * w
    assert s.coefficient(-1, 0) == 0j  # mirror terms start at q^n
    assert s.coefficient(2, 1) == 0j


def test_p2_series_evaluates_to_kernel():
    # inside the annulus, with |x| small enough that the x-window tail is
    # negligible, the window sum reproduces the resummed evaluator
    z, tau = 0.21 + 0.15j, 1.15j
    s = p2_series(60, 10)
    x = cmath.exp(2j * math.pi * z)
    window = sum(
        v * x**j * cmath.exp(2j * math.pi * tau * m / s.q_denom) for (j, m), v in s.coeffs.items()
    )
    assert abs(window - p2_eval(z, tau)) < 1e-10


# ---------------------------------------------------------------------------
# theta functions with half characteristics
# ---------------------------------------------------------------------------


def test_theta_value_at_i():
    # theta_{0,0}(0, i) = pi^(1/4) / Gamma(3/4)
    want = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(jacobi_theta(0, 0, 0.0, 1j) - want) < 1e-13


def test_theta_odd_characteristic_vanishes_at_origin():
    for tau in (1j, 0.3 + 0.9j):
        assert abs(jacobi_theta(HALF, HALF, 0.0, tau)) < 1e-13


def test_theta_series_definition_spot_check():
    # brute-force partial sum at a generic point
    h, k = HALF, Fraction(0)
    z, tau = 0.23 - 0.31j, 0.17 + 1.05j
    acc = 0j
    for n in range(-40, 41):
        a = n + float(h)
        acc += cmath.exp(1j * math.pi * a * a * tau + 2j * math.pi * a * (z + float(k)))
    assert abs(jacobi_theta(h, k, z, tau) - acc) < 1e-13


@pytest.mark.parametrize("h,k", CHARS)
def test_theta_z_periodicity(h, k):
    z, tau = 0.31 + 0.14j, 0.2 + 1.1j
    lhs = jacobi_theta(h, k, z + 1, tau)
    rhs = cmath.exp(2j * math.pi * float(h)) * jacobi_theta(h, k, z, tau)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("h,k", CHARS)
def test_theta_quasi_periodicity_in_tau_direction(h, k):
    z, tau = 0.11 - 0.21j, 0.4 + 1.2j
    lhs = jacobi_theta(h, k, z + tau, tau)
    rhs = cmath.exp(-1j * math.pi * tau - 2j * math.pi * (z + float(k))) * jacobi_theta(
        h, k, z, tau
    )
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_theta_s_constants():
    assert theta_s_constant(0, 0) == 1
    assert theta_s_constant(0, HALF) == 1
    assert theta_s_constant(HALF, 0) == 1
    assert abs(theta_s_constant(HALF, HALF) - (-1j)) < 1e-15


@pytest.mark.parametrize("h,k", CHARS)
def test_theta_inversion_law(h, k):
    """theta_{h,k}(z/tau, -1/tau) = c (-i tau)^(1/2) e^(pi i z^2/tau) theta_{k,h}(z, tau)."""
    for z, tau in [(0.19 + 0.07j, 0.3 + 1.2j), (-0.23 + 0.11j, 1.45j)]:
        lhs = jacobi_theta(h, k, z / tau, -1 / tau)
        rhs = (
            theta_s_constant(h, k)
            * cmath.sqrt(-1j * tau)
            * cmath.exp(1j * math.pi * z * z / tau)
            * jacobi_theta(k, h, z, tau)
        )
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


@pytest.mark.parametrize("h,k", CHARS)
def test_theta_shift_law(h, k):
    # tau -> tau+1 permutes the second characteristic and scales by e^(pi i h^2)
    z, tau = 0.21 + 0.09j, 0.15 + 1.05j
    kp = (Fraction(k) + Fraction(h) + HALF) % 1
    lhs = jacobi_theta(h, k, z, tau + 1)
    rhs = cmath.exp(1j * math.pi * float(Fraction(h) ** 2)) * jacobi_theta(h, kp, z, tau)
    assert abs(lhs - rhs) < 1e-12


def test_theta_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        jacobi_theta(Fraction(1, 3), 0, 0.0, 1j)


# ---------------------------------------------------------------------------
# two-variable series
# ---------------------------------------------------------------------------


def test_biseries_add_intersects_truncated_windows():
    a = BiSeries(-2, 2, 5, {(1, 0): 1.0})
    b = BiSeries(-1, 3, 4, {(1, 0): 2.0})
    c = a + b
    assert (c.x_min, c.x_max, c.q_order) == (-1, 2, 4)
    assert c.coefficient(1, 0) == 3.0


def test_biseries_add_exact_side_never_narrows():
    wide = BiSeries(-4, 4, 6, {(k, 0): 1.0 for k in range(-4, 5)})
    char = TruncatedSeries(1, {0: 2.0, 1: 5.0}, 6)
    c = wide + char
    assert (c.x_min, c.x_max) == (-4, 4)
    assert isinstance(c, BiSeries)
    assert c.coefficient(-4, 0) == 1.0
    assert c.coefficient(0, 0) == 3.0
    d = char + wide
    assert (d.x_min, d.x_max) == (-4, 4)
    assert d.coefficient(3, 0) == 1.0


def test_biseries_mul_needs_exact_factor():
    a = BiSeries(-2, 2, 5, {(1, 0): 1.0})
    with pytest.raises(ValueError):
        a * a
    char = TruncatedSeries(1, {0: 2.0}, 5)
    prod = a * char
    assert prod.coefficient(1, 0) == 2.0
    assert (prod.x_min, prod.x_max) == (-2, 2)


def test_biseries_mul_q_trust_accounts_for_leading_exponent():
    # a's unknown tail starts at q^5 and meets b's leading q^0, so the
    # product is only trusted through q^4 = min(4+0, 3+2)
    a = TruncatedSeries(1, {2: 1.0}, 4)
    b = BiSeries(-1, 1, 3, {(1, 0): 1.0, (1, 3): 4.0})
    prod = a * b
    assert prod.q_order == 4
    assert prod.coefficient(1, 2) == 1.0
    assert prod.coefficient(1, 5) == 0j  # beyond trust, dropped


def test_biseries_q_denom_alignment():
    a = TruncatedSeries(24, {1: 1.0}, 24)   # q^(1/24)
    b = BiSeries(0, 0, 2, {(0, 1): 1.0}, 2)  # q^(1/2)
    c = b + a
    assert c.q_denom == 24
    assert c.coefficient(0, Fraction(1, 24)) == 1.0
    assert c.coefficient(0, Fraction(1, 2)) == 1.0


def test_truncated_series_operand_works_in_either_position():
    t = TruncatedSeries(1, {0: 1.0, 2: 3.0}, 3)
    bi = BiSeries(-1, 1, 4, {(1, 0): 2.0, (0, 1): 5.0})
    for s in (t + bi, bi + t):
        assert isinstance(s, BiSeries)
        assert (s.x_min, s.x_max, s.q_order) == (-1, 1, 3)
        assert s.coeffs == {(1, 0): 2.0, (0, 1): 5.0, (0, 0): 1.0, (0, 2): 3.0}
    assert (t * bi).coeffs == (bi * t).coeffs
    assert (t * bi).coefficient(1, 2) == 6.0
    assert (t - bi).coefficient(1, 0) == -2.0
    assert bi.max_abs_diff(t) == 5.0


def test_biseries_lifts_a_truncated_series_into_any_window():
    # x^0 lies outside the window, yet the factor is known there
    bi = BiSeries(1, 3, 4, {(2, 1): 1.0})
    prod = bi * TruncatedSeries(1, {0: 2.0, 1: 1.0}, 4)
    assert (prod.x_min, prod.x_max, prod.q_order) == (1, 3, 4)
    assert prod.coeffs == {(2, 1): 2.0, (2, 2): 1.0}
    # a constant factor known through bi's horizon scales bi
    doubled = TruncatedSeries(1, {0: 2.0}, 4) * bi
    assert doubled == bi.scale(2)
    # x^0 is outside the window, so the sum does not keep it
    assert bi + TruncatedSeries(1, {0: 1.0}, 4) == bi


@pytest.mark.parametrize("other", ["x", None, [1.0], 3, 2.0, 1j])
def test_series_arithmetic_refuses_a_foreign_operand(other):
    t = TruncatedSeries(1, {0: 1.0}, 3)
    bi = BiSeries(-1, 1, 3, {(1, 0): 1.0})
    for s in (t, bi):
        for op in (lambda: s + other, lambda: other + s, lambda: s * other,
                   lambda: s - other, lambda: other - s):
            with pytest.raises(TypeError):
                op()


@pytest.mark.parametrize("other", [3, "x", None])
def test_biseries_max_abs_diff_refuses_a_foreign_operand(other):
    with pytest.raises(TypeError):
        BiSeries(-1, 1, 3, {(1, 0): 1.0}).max_abs_diff(other)


@pytest.mark.parametrize("denom", [1.5, True, 0])
def test_truncated_series_refuses_a_denom_that_is_no_positive_int(denom):
    with pytest.raises(ValueError, match="positive integer"):
        TruncatedSeries(denom, {1: 1.0}, 3)


@pytest.mark.parametrize("q_denom", [1.5, True, 0, -2])
def test_biseries_refuses_a_q_denom_that_is_no_positive_int(q_denom):
    with pytest.raises(ValueError, match="positive integer"):
        BiSeries(0, 1, 2, {(0, 1): 1.0}, q_denom)


@pytest.mark.parametrize("horizon", [None, math.inf, 2.5, Fraction(2), True])
def test_series_refuse_a_horizon_that_is_no_int(horizon):
    with pytest.raises(ValueError, match="horizon"):
        TruncatedSeries(1, {1: 1.0}, horizon)
    with pytest.raises(ValueError, match="horizon"):
        BiSeries(0, 1, horizon, {(0, 1): 1.0})


@pytest.mark.parametrize("key", [0.5, 1.0, Fraction(1, 2)])
def test_series_refuse_a_key_that_is_no_int(key):
    # int() used to truncate such a key onto a neighbouring exponent
    with pytest.raises(TypeError):
        TruncatedSeries(1, {key: 1.0}, 3)
    with pytest.raises(TypeError):
        BiSeries(0, 1, 2, {(key, 1): 1.0})
    with pytest.raises(TypeError):
        BiSeries(0, 1, 2, {(0, key): 1.0})


def test_biseries_max_abs_diff_ignores_outside_window():
    a = BiSeries(-2, 2, 4, {(1, 1): 1.0, (2, 1): 9.0})
    b = BiSeries(-1, 1, 4, {(1, 1): 1.5})
    assert a.max_abs_diff(b) == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_biseries_max_abs_diff_reports_a_non_finite_difference(bad):
    a = BiSeries(-1, 1, 4, {(0, 0): 1.0, (1, 1): bad})
    b = BiSeries(-1, 1, 4, {(0, 0): 3.0, (1, 1): 1.0})
    assert a.max_abs_diff(b) == math.inf
    assert b.max_abs_diff(a) == math.inf
    # outside the common window a NaN is not compared
    c = BiSeries(-2, 2, 4, {(2, 1): bad})
    assert c.max_abs_diff(b) == 3.0
