"""Truncated q-expansions and the classical special functions built on them.

Two series containers live here, one per number of variables.
`TruncatedSeries` is a Laurent series in q^(1/denom) with an explicit trust
horizon: coefficients at exponents beyond `guaranteed_order` are unknown, not
zero, and every arithmetic operation propagates that horizon instead of
silently pretending exactness.  Eta, the coset theta series and the module
characters are such series.  `BiSeries` is the two-variable analogue in x and
q used by the trace recursion, truncated in both variables.

Neither container converts its coefficients: a series keeps the type it was
built with, and sums and products start from the integers 0 and 1, so integer
series (eta, the theta series, the characters) stay exact integer series.
Numbers enter only through scale, and reciprocal works in floats.

On top of them sit the evaluators: the Dedekind eta product, the weight-two
Eisenstein series, the two-variable kernel

    P2(q_z, q) = (2 pi i)^2 sum_{n>=1} [ n q_z^n / (1-q^n)
                                         + n q_z^-n q^n / (1-q^n) ],

the Weierstrass elliptic function P2 - G2, and the four half-characteristic
theta functions

    theta_{h,k}(z, tau) = sum_n exp(pi i (n+h)^2 tau + 2 pi i (n+h)(z+k)).

All evaluators treat tau (not the number q) as the underlying variable:
fractional powers of q are computed as exp(2 pi i tau w).  This is what makes
monodromy come out right, e.g. eta(tau+1) = e^{i pi/12} eta(tau); a principal
24th root of q would be periodic instead.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from fractions import Fraction
from typing import Optional

from ._frozen import Frozen
from .errors import CutoffTooLarge, ImTooSmall, OutOfAnnulus, PoleAtLatticePoint

TWO_PI_I = 2j * math.pi

# Evaluations refuse tau below this imaginary-part floor rather than
# degrading silently.
IM_TAU_FLOOR = 0.25

# Adaptive truncations run until the certified tail is below this fraction
# of the accumulated magnitude (1e-16 target with a 1e3 safety factor).
TAIL_RTOL = 1e-19

_MAX_TERMS = 200_000

# p2_eval refuses z this close to an integer, its only poles in its annulus.
POLE_RADIUS = 1e-8

# weierstrass_p refuses z whose reduction into the period cell may move it
# by more than this in double precision.
REDUCTION_ATOL = 1e-12

# jacobi_theta refuses z whose largest term would reach e^THETA_LOG_CAP; the
# whole sum is then below 3 e^THETA_LOG_CAP, inside double precision.
THETA_LOG_CAP = math.log(sys.float_info.max) - 2

# Graded module censuses and traces, literal or closed-form, refuse an
# L(0)-grade cutoff above this.
GRADE_CAP = 60


def require_im(tau: complex, floor: float = IM_TAU_FLOOR) -> None:
    # tested first: NaN compares False with the floor and would pass
    if not cmath.isfinite(tau):
        raise ImTooSmall(f"tau = {tau} is not finite")
    if tau.imag < floor:
        raise ImTooSmall(f"Im(tau) = {tau.imag} is below the floor {floor}")


def _require_finite_z(z: complex) -> None:
    if not cmath.isfinite(z):
        raise OutOfAnnulus(f"z = {z} is not finite")


def require_grade(grade_max) -> None:
    if type(grade_max) is not int:
        raise ValueError(f"grade cutoff must be an int, got {grade_max!r}")
    if grade_max < 0:
        raise ValueError(f"grade cutoff {grade_max} is negative")
    if grade_max > GRADE_CAP:
        raise CutoffTooLarge(f"grade cutoff {grade_max} exceeds the cap {GRADE_CAP}")


def q_power(tau: complex, exponent) -> complex:
    """exp(2 pi i tau * exponent); exponent may be int, float or Fraction."""
    return cmath.exp(TWO_PI_I * tau * float(exponent))


def _require_positive_int(name: str, value) -> None:
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer")


def _require_int_horizon(value) -> None:
    if type(value) is not int:
        raise ValueError(f"the trust horizon must be an int, got {value!r}")


class TruncatedSeries(Frozen):
    """Laurent series in q^(1/denom), trusted through guaranteed_order.

    coeffs maps integer keys k to the coefficient of q^(k/denom), stored as
    given: int coefficients stay ints through +, - and *.  Stored keys never
    exceed guaranteed_order.  A number enters a series only through scale.
    """

    __slots__ = _fields = ("denom", "coeffs", "guaranteed_order")

    def __init__(self, denom: int, coeffs: dict, guaranteed_order: int):
        _require_positive_int("denom", denom)
        _require_int_horizon(guaranteed_order)
        index = operator.index
        cleaned = {}
        for k, v in coeffs.items():
            k = index(k)
            if v != 0 and k <= guaranteed_order:
                cleaned[k] = v
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "guaranteed_order", guaranteed_order)

    # -- basic views -------------------------------------------------

    @property
    def min_exp(self) -> Optional[int]:
        return min(self.coeffs) if self.coeffs else None

    def coefficient(self, exponent):
        """Coefficient at a rational exponent (in q-units, not key units),
        0 where none is stored."""
        key = Fraction(exponent) * self.denom
        if key.denominator != 1:
            return 0
        return self.coeffs.get(int(key), 0)

    # -- denominator lifting -----------------------------------------

    def with_denom(self, denom: int) -> "TruncatedSeries":
        if denom == self.denom:
            return self
        if denom % self.denom != 0:
            raise ValueError(f"cannot lift denom {self.denom} to {denom}")
        s = denom // self.denom
        coeffs = {k * s: v for k, v in self.coeffs.items()}
        return TruncatedSeries(denom, coeffs, self.guaranteed_order * s)

    def _aligned(self, other: "TruncatedSeries"):
        d = math.lcm(self.denom, other.denom)
        return self.with_denom(d), other.with_denom(d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._aligned(other)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            out[k] = out.get(k, 0) + v
        return TruncatedSeries(a.denom, out, min(a.guaranteed_order, b.guaranteed_order))

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(
            self.denom, {k: -v for k, v in self.coeffs.items()}, self.guaranteed_order
        )

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "TruncatedSeries":
        return TruncatedSeries(
            self.denom,
            {k: v * value for k, v in self.coeffs.items()},
            self.guaranteed_order,
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._aligned(other)
        # the product coefficient at e is exact only while every contributing
        # split lands inside both trust horizons
        g = min(
            a.guaranteed_order + (b.min_exp if b.coeffs else 0),
            b.guaranteed_order + (a.min_exp if a.coeffs else 0),
        )
        out: dict = {}
        for ka, va in a.coeffs.items():
            for kb, vb in b.coeffs.items():
                k = ka + kb
                if k <= g:
                    out[k] = out.get(k, 0) + va * vb
        return TruncatedSeries(a.denom, out, g)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("only positive integer powers are supported")
        # self times self^(n-1) by repeated squaring
        result, base, n = self, self, n - 1
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse by recursive division, through as many
        key-steps past the leading exponent as the trust horizon supports.

        The leading coefficient must be nonzero.
        """
        if not self.coeffs:
            raise ZeroDivisionError("reciprocal of the zero series")
        k0 = self.min_exp
        c0 = self.coeffs[k0]
        order = self.guaranteed_order - k0
        if order > 10**6:
            raise CutoffTooLarge(f"reciprocal order {order} exceeds the desk-scale cap")
        inv = {-k0: 1.0 / c0}
        for e in range(1, order + 1):
            acc = 0j
            for i in range(1, e + 1):
                ai = self.coeffs.get(k0 + i)
                if ai is not None:
                    bj = inv.get(-k0 + e - i)
                    if bj is not None:
                        acc += ai * bj
            if acc != 0:
                inv[-k0 + e] = -acc / c0
        return TruncatedSeries(self.denom, inv, -k0 + order)

    # -- evaluation ---------------------------------------------------

    def eval_tau(self, tau: complex) -> complex:
        """Sum the stored terms at q = exp(2 pi i tau), branch-correctly."""
        return sum(
            v * q_power(tau, Fraction(k, self.denom)) for k, v in self.coeffs.items()
        )

    def __repr__(self):
        n = len(self.coeffs)
        return (
            f"TruncatedSeries(denom={self.denom}, {n} terms, "
            f"guaranteed_order={self.guaranteed_order})"
        )


class BiSeries(Frozen):
    """Series in x and q, truncated in both variables.

    coeffs maps (j, m) to the coefficient of x^j q^(m/q_denom), stored as
    given, like TruncatedSeries'.  Coefficients are trusted for x_min <= j <=
    x_max and m <= q_order; outside that window they are unknown.  A series
    without x is a TruncatedSeries, never a BiSeries.
    """

    __slots__ = _fields = ("x_min", "x_max", "q_order", "coeffs", "q_denom")

    def __init__(
        self, x_min: int, x_max: int, q_order: int, coeffs: Optional[dict] = None, q_denom: int = 1
    ):
        _require_positive_int("q_denom", q_denom)
        _require_int_horizon(q_order)
        index = operator.index
        cleaned = {}
        for (j, m), v in (coeffs or {}).items():
            j, m = index(j), index(m)
            if v != 0 and m <= q_order and x_min <= j <= x_max:
                cleaned[(j, m)] = v
        object.__setattr__(self, "x_min", x_min)
        object.__setattr__(self, "x_max", x_max)
        object.__setattr__(self, "q_order", q_order)
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "q_denom", q_denom)

    def coefficient(self, j: int, q_exponent):
        key = Fraction(q_exponent) * self.q_denom
        if key.denominator != 1:
            return 0
        return self.coeffs.get((j, int(key)), 0)

    def with_q_denom(self, q_denom: int) -> "BiSeries":
        if q_denom == self.q_denom:
            return self
        if q_denom % self.q_denom != 0:
            raise ValueError(f"cannot lift q_denom {self.q_denom} to {q_denom}")
        s = q_denom // self.q_denom
        coeffs = {(j, m * s): v for (j, m), v in self.coeffs.items()}
        return BiSeries(self.x_min, self.x_max, self.q_order * s, coeffs, q_denom)

    def _aligned(self, other):
        """self and other over a common q-denominator.  A TruncatedSeries is
        x^0 times a q-series, known at every x-degree: it is lifted into
        self's window widened to hold x^0."""
        if isinstance(other, TruncatedSeries):
            lifted = {(0, k): v for k, v in other.coeffs.items()}
            other = BiSeries(
                min(self.x_min, 0), max(self.x_max, 0), other.guaranteed_order, lifted, other.denom
            )
        d = math.lcm(self.q_denom, other.q_denom)
        return self.with_q_denom(d), other.with_q_denom(d)

    def __add__(self, other) -> "BiSeries":
        if not isinstance(other, (BiSeries, TruncatedSeries)):
            return NotImplemented
        a, b = self._aligned(other)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            out[k] = out.get(k, 0) + v
        x_lo, x_hi = max(a.x_min, b.x_min), min(a.x_max, b.x_max)
        return BiSeries(x_lo, x_hi, min(a.q_order, b.q_order), out, a.q_denom)

    __radd__ = __add__

    def __neg__(self):
        coeffs = {k: -v for k, v in self.coeffs.items()}
        return BiSeries(self.x_min, self.x_max, self.q_order, coeffs, self.q_denom)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value) -> "BiSeries":
        coeffs = {k: v * value for k, v in self.coeffs.items()}
        return BiSeries(self.x_min, self.x_max, self.q_order, coeffs, self.q_denom)

    def __mul__(self, other) -> "BiSeries":
        """Product with a TruncatedSeries, over self's window."""
        if isinstance(other, BiSeries):
            raise ValueError("a product of two BiSeries has no trustworthy x-window")
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._aligned(other)
        qa_min = min((m for (_, m) in a.coeffs), default=0)
        qb_min = min((m for (_, m) in b.coeffs), default=0)
        q_g = min(a.q_order + qb_min, b.q_order + qa_min)
        out: dict = {}
        for (ja, ma), va in a.coeffs.items():
            for (jb, mb), vb in b.coeffs.items():
                key = (ja + jb, ma + mb)
                if key[1] <= q_g:
                    out[key] = out.get(key, 0) + va * vb
        return BiSeries(a.x_min, a.x_max, q_g, out, a.q_denom)

    __rmul__ = __mul__

    def max_abs_diff(self, other) -> float:
        """Largest coefficient discrepancy on the common trusted window;
        math.inf if any compared difference is not finite (max() alone
        would drop a NaN)."""
        if not isinstance(other, (BiSeries, TruncatedSeries)):
            raise TypeError(f"cannot compare a BiSeries with {type(other).__name__}")
        a, b = self._aligned(other)
        x_lo, x_hi = max(a.x_min, b.x_min), min(a.x_max, b.x_max)
        q_hi = min(a.q_order, b.q_order)
        keys = set(a.coeffs) | set(b.coeffs)
        worst = 0.0
        for (j, m) in keys:
            if x_lo <= j <= x_hi and m <= q_hi:
                d = abs(a.coeffs.get((j, m), 0j) - b.coeffs.get((j, m), 0j))
                if not math.isfinite(d):
                    return math.inf
                worst = max(worst, d)
        return worst

    def __repr__(self):
        return (
            f"BiSeries(x in [{self.x_min},{self.x_max}], q_order={self.q_order}"
            f"/{self.q_denom}, {len(self.coeffs)} terms)"
        )


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def _adaptive_order(abs_q: float) -> int:
    """Smallest N with |q|^N below TAIL_RTOL (plus a fixed pad); 0 once q underflows."""
    if abs_q >= 1.0:
        raise ImTooSmall("q is not inside the unit disc")
    if abs_q == 0.0:
        return 0
    return max(4, math.ceil(math.log(TAIL_RTOL) / math.log(abs_q))) + 4


def dedekind_eta(order: int) -> TruncatedSeries:
    """q-expansion of eta = q^(1/24) prod (1-q^n), exact through q^order.

    Sparse by the pentagonal number theorem: the product expands as
    sum_k (-1)^k q^(k(3k-1)/2).
    """
    if order > 10**6:
        raise CutoffTooLarge(f"eta expansion order {order} exceeds the cap")
    coeffs = {}
    k = 0
    # g(k) = k(3k-1)/2 < g(-k) for k > 0, so no term lies past the first k
    # with g(k) > order; pentagonal numbers never collide, and k = 0 writes
    # q^(1/24) twice
    while k * (3 * k - 1) // 2 <= order:
        for kk in (k, -k):
            g = kk * (3 * kk - 1) // 2
            if g <= order:
                coeffs[24 * g + 1] = (-1) ** k
        k += 1
    return TruncatedSeries(24, coeffs, 24 * order + 1)


def eta_eval(tau: complex, im_floor: float = IM_TAU_FLOOR) -> complex:
    require_im(tau, im_floor)
    q = q_power(tau, 1)
    n_max = _adaptive_order(abs(q))
    prod = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(n_max):
        qn *= q
        prod *= 1.0 - qn
    return q_power(tau, Fraction(1, 24)) * prod


def _sigma1_table(order: int) -> list:
    sig = [0] * (order + 1)
    for d in range(1, order + 1):
        for n in range(d, order + 1, d):
            sig[n] += d
    return sig


def eisenstein_g2(order: int) -> TruncatedSeries:
    """Weight-two Eisenstein series: pi^2/3 - 8 pi^2 sum sigma_1(n) q^n.

    The constant term is 2 zeta(2).  This normalization is the one that
    satisfies G2((a tau + b)/(f tau + d)) = (f tau + d)^2 G2(tau)
    - 2 pi i f (f tau + d), and in particular G2(i) = pi.
    """
    if order > 10**6:
        raise CutoffTooLarge(f"G2 expansion order {order} exceeds the cap")
    sig = _sigma1_table(order)
    coeffs = {0: math.pi**2 / 3}
    for n in range(1, order + 1):
        coeffs[n] = -8 * math.pi**2 * sig[n]
    return TruncatedSeries(1, coeffs, order)


def g2_eval(tau: complex) -> complex:
    require_im(tau)
    q = q_power(tau, 1)
    aq = abs(q)
    # sigma_1(n) < n^2, so pad the plain adaptive order until n^2 |q|^n dies
    n_max = _adaptive_order(aq)
    while n_max**2 * aq**n_max > TAIL_RTOL and n_max < _MAX_TERMS:
        n_max *= 2
    sig = _sigma1_table(n_max)
    acc = 0j
    qn = 1.0 + 0j
    for n in range(1, n_max + 1):
        qn *= q
        acc += sig[n] * qn
    return math.pi**2 / 3 - 8 * math.pi**2 * acc


def p2_eval(z: complex, tau: complex) -> complex:
    """The two-variable kernel at q_z = e^{2 pi i z}, q = e^{2 pi i tau}.

    Geometric resummation over q-shells:

        P2/(2 pi i)^2 = s(q_z) + sum_{i>=1} [ s(q_z q^i) + s(q_z^{-1} q^i) ],
        s(w) = w/(1-w)^2,

    which converges exactly on the annulus |q| < |q_z| < 1/|q| and is what
    the direct double sum rearranges to.  Its poles there are the integers
    z; z within POLE_RADIUS of one is refused (PoleAtLatticePoint).
    """
    require_im(tau)
    _require_finite_z(z)
    if abs(z - round(z.real)) < POLE_RADIUS:
        raise PoleAtLatticePoint(f"z = {z} is within {POLE_RADIUS} of an integer")
    q = q_power(tau, 1)
    qz = cmath.exp(TWO_PI_I * z)
    ratio = max(abs(q * qz), abs(q / qz))
    if ratio >= 0.999:
        raise OutOfAnnulus(
            f"|q_z| = {abs(qz):.6g} is outside (or too close to the edge of) "
            f"the annulus |q| < |q_z| < 1/|q| with |q| = {abs(q):.6g}"
        )

    def s(w: complex) -> complex:
        return w / (1.0 - w) ** 2

    acc = s(qz)
    w_up, w_dn = qz, 1.0 / qz
    for i in range(1, _MAX_TERMS):
        w_up *= q
        w_dn *= q
        term = s(w_up) + s(w_dn)
        acc += term
        # certified geometric tail: |s(w)| <= |w|/(1-|w|)^2 and the shell
        # magnitudes shrink by |q| each step
        biggest = max(abs(w_up), abs(w_dn))
        tail = 2 * (biggest * abs(q)) / (1.0 - ratio) ** 2 / (1.0 - abs(q))
        if tail < TAIL_RTOL * max(1.0, abs(acc)):
            break
    else:
        raise OutOfAnnulus("q-shell resummation did not converge within the term cap")
    return TWO_PI_I**2 * acc


def p2_series(x_span: int, q_order: int) -> BiSeries:
    """Window of the kernel as a BiSeries: coefficient of x^n q^(ni) is
    (2 pi i)^2 n for n in [1, x_span], i >= 0, and the mirror x^(-n) q^(ni)
    for i >= 1."""
    if x_span < 1 or q_order < 0:
        raise ValueError("need x_span >= 1 and q_order >= 0")
    if x_span * q_order > 10**7:
        raise CutoffTooLarge("requested kernel window exceeds the cap")
    w = TWO_PI_I**2
    coeffs = {}
    for n in range(1, x_span + 1):
        i = 0
        while n * i <= q_order:
            coeffs[(n, n * i)] = w * n
            if i > 0:
                coeffs[(-n, n * i)] = w * n
            i += 1
    return BiSeries(-x_span, x_span, q_order, coeffs)


def weierstrass_p(z: complex, tau: complex) -> complex:
    """Weierstrass elliptic function for the lattice Z tau + Z.

    Computed as P2(z, tau) - G2(tau) after reducing z to |Re z| <= 1/2 and
    |Im z| <= Im tau/2: z near any period lattice point lands near 0, where
    p2_eval refuses it (PoleAtLatticePoint).  z so large that the reduction's
    rounding may move it by more than REDUCTION_ATOL is refused (OutOfAnnulus).
    """
    require_im(tau)
    _require_finite_z(z)
    m = round(z.imag / tau.imag)
    lost = sys.float_info.epsilon * (abs(z) + abs(m * tau))
    if lost > REDUCTION_ATOL:
        raise OutOfAnnulus(
            f"z = {z} is too large to reduce into the period cell: the reduction "
            f"may move it by {lost:.1e}, above {REDUCTION_ATOL}"
        )
    z_red = z - m * tau
    z_red -= round(z_red.real)
    return p2_eval(z_red, tau) - g2_eval(tau)


_HALF = Fraction(1, 2)
_VALID_CHARS = (Fraction(0), _HALF)


def _check_char(h) -> Fraction:
    hf = Fraction(h)
    if hf not in _VALID_CHARS:
        raise ValueError(f"characteristic {h} is not 0 or 1/2")
    return hf


def jacobi_theta(h, k, z: complex, tau: complex) -> complex:
    """theta_{h,k}(z, tau) = sum_n exp(pi i (n+h)^2 tau + 2 pi i (n+h)(z+k))
    for half-integer characteristics h, k in {0, 1/2}.  An Im z whose
    largest term would overflow double precision is refused (OutOfAnnulus)
    before any term is summed."""
    hf, kf = _check_char(h), _check_char(k)
    require_im(tau)
    _require_finite_z(z)
    # Gaussian tail: |term| = exp(-pi (n+h)^2 Im tau - 2 pi (n+h) Im z),
    # at most exp(pi (Im z)^2 / Im tau) over real n + h
    b = abs(z.imag)
    if math.pi * b * b / tau.imag > THETA_LOG_CAP:
        raise OutOfAnnulus(
            f"Im z = {z.imag} makes the theta terms overflow double precision "
            f"at Im tau = {tau.imag}"
        )
    L = -math.log(TAIL_RTOL) + 5
    n_max = math.ceil((b + math.sqrt(b * b + tau.imag * L / math.pi)) / tau.imag) + 3
    acc = 0j
    hF, kF = float(hf), float(kf)
    for n in range(-n_max, n_max + 1):
        a = n + hF
        acc += cmath.exp(1j * math.pi * a * a * tau + TWO_PI_I * a * (z + kF))
    return acc


def theta_s_constant(h, k) -> complex:
    """Constant c in theta_{h,k}(z/tau, -1/tau) = c (-i tau)^{1/2}
    exp(pi i z^2 / tau) theta_{k,h}(z, tau).

    Equals exp(-2 pi i h k): trivial except for the odd-odd characteristic,
    where it is -i (verified by Poisson summation and direct numerics).
    """
    hf, kf = _check_char(h), _check_char(k)
    return cmath.exp(-TWO_PI_I * float(hf * kf))
