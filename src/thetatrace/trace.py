"""Graded trace functions of even-lattice module families.

For a rank-d even lattice L and a dual coset beta, the module W_beta carries
the graded trace

    z_trace(W_beta, (a, b, tau))
        = eta(tau)^-d * sum_{m in L+beta} e^{2 pi i <a, m + b/2>} q^{<m+b, m+b>/2},

an entire function of the complex insertion vectors a and b, holomorphic in
tau on the upper half-plane.  The oscillator trace prod (1-q^n)^-d combined
with the grading shift q^{-d/24} is exactly eta^-d, which is why eta carries
the whole non-lattice part.

The sum is a Gaussian: terms decay like exp(-pi Im(tau) <y,y>) around a
computable center, so each point needs only the lattice points of one ball
around it, and the discarded tail is certified per point.  Evaluation is
batched (z_table; z_trace, z_vector and theta_w are batches of one): one
covering ball, worked out once per batch, covers the balls of all its
points, and each coset enumerates it once and turns its points into integer
lists.  One batched Gaussian sum per coset ball builds the ball's index
getters and ranges, and each point tabulates the d + 1 exponential factors
of its terms over them with cmath.exp and sums their products in C-level
maps.  The kernel is plain Python.

Sign bookkeeping: the natural pairing on weight-one module elements is the
negative of the lattice form, <a(-1)1, b(-1)1> = -<a, b>.  That single sign
lives in PAIRING_SIGN and nowhere else.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from operator import itemgetter, mul
from typing import Sequence

from . import qseries
from ._frozen import Frozen
from .errors import TailBoundViolated
from .eta import IM_TAU_FLOOR, TWO_PI_I, eta_eval, require_im
from .lattice import EvenLattice

# <a(-1)1, b(-1)1> = PAIRING_SIGN * <a, b>_lattice for weight-one elements.
PAIRING_SIGN = -1

# Relative tail target for the Gaussian lattice sums.
TRACE_RTOL = 1e-14

# Most enumerated points one ball may hold: the factor by which the
# lattice count may swell the tail beyond its largest discarded term.
CUSHION = 10**4

# Relative slack of a float distance^2 against rounding, where a ball is
# derived from distances rather than enumerated at its own center.
COVER_SLACK = 1 + 1e-9

# Largest sum of |log| of the factors that _gaussian_sums multiplies into a
# term, so that no partial product leaves double precision; beyond it every
# term's exponent is summed and exponentiated whole.
FACTOR_LOG_CAP = 600.0


class TracePoint(Frozen):
    """An evaluation point (a, b, tau): two complex insertion vectors in
    lattice basis coordinates, and tau in the upper half-plane."""

    __slots__ = _fields = ("a", "b", "tau")

    def __init__(self, a: Sequence, b: Sequence, tau: complex):
        a = tuple(complex(x) for x in a)
        b = tuple(complex(x) for x in b)
        tau = complex(tau)
        if len(a) != len(b):
            raise ValueError("a and b must have the same dimension")
        if not all(map(cmath.isfinite, a + b)):
            raise ValueError("insertion vectors must have finite coordinates")
        if not cmath.isfinite(tau) or tau.imag <= 0:
            raise ValueError("tau must be a finite point of the upper half-plane")
        self._set(a, b, tau)


def state_pairing(L: EvenLattice, a: Sequence, b: Sequence):
    """Pairing of the weight-one states labelled by lattice vectors a, b."""
    return PAIRING_SIGN * L.inner(a, b)


def _prepare(L: EvenLattice, points: Sequence[TracePoint], rtol: float) -> list:
    """The per-point, per-coset-independent part of the kernel: for each point
    (center, radius^2, coefficients).  With the exponent

        <a, m+b/2> + tau <m+b, m+b>/2
            = tau/2 <m,m> + <a + tau b, G m> + (<a,b> + tau <b,b>)/2,

    the coefficients are (h, c, l, G l) with h = 2 pi i tau/2, c = 2 pi i
    times the constant and l = 2 pi i (a + tau b), as _gaussian_sums takes
    them.  (center, radius^2) is the own ball outside which every term of
    its sum is below exp(-2 pi margin) of the Gaussian's peak; the margin
    leaves a factor CUSHION for the lattice count of the discarded tail."""
    d = L.dim
    g = L.gram
    margin = (math.log(1.0 / rtol) + math.log(CUSHION)) / (2 * math.pi)
    out = []
    for pt in points:
        if len(pt.a) != d:
            raise ValueError(f"insertion vectors need {d} coordinates, got {len(pt.a)}")
        a, b, tau = pt.a, pt.b, pt.tau
        # |term| = exp(-2 pi weight), weight = Im(tau) <y,y>/2 + <w, y> + const
        # with y = m + Re b and w = Re(tau) Im b + Im a; the minimum over real
        # y sits at y* = -w / Im(tau), i.e. at m = y* - Re b
        center = [-(tau.real * b[i].imag + a[i].imag) / tau.imag - b[i].real for i in range(d)]
        lin = [TWO_PI_I * (a[i] + tau * b[i]) for i in range(d)]
        g_lin = [sum(gij * w for gij, w in zip(row, lin)) for row in g]
        const = (L.inner(a, b) + tau * L.inner(b, b)) / 2
        coeffs = (TWO_PI_I * tau / 2, TWO_PI_I * const, lin, g_lin)
        out.append((center, 2 * margin / tau.imag, coeffs))
    return out


def _covers(L: EvenLattice, batch: list) -> list:
    """[(points, center, bound)]: the covering balls of a prepared batch,
    which depend on neither the coset nor the terms, so z_table works them
    out once for all cosets.

    A covering ball is centered at the center of the largest own ball, with
    radius max_p (dist(c_p, c_0) + r_p) and a relative slack for rounding;
    a single point's is its own ball.  A batch whose covering ball holds an
    estimated count far beyond the tail cushion is split in halves before
    anything is enumerated, each half with its own cover.
    """
    c0, bound, _ = max(batch, key=lambda p: p[1])
    if len(batch) > 1:
        bound = COVER_SLACK * max(
            (math.sqrt(r2) + math.sqrt(abs(L.norm2([x - y for x, y in zip(c, c0)])))) ** 2
            for c, r2, _ in batch
        )
        # its volume over the covolume estimates its count: split without
        # enumerating a ball estimated far beyond the cushion, and leave
        # the exact count to decide near it
        d = L.dim
        vol = math.pi ** (d / 2) / math.gamma(d / 2 + 1) * bound ** (d / 2)
        if vol > 4 * CUSHION * math.sqrt(L.det):
            half = len(batch) // 2
            return _covers(L, batch[:half]) + _covers(L, batch[half:])
    return [(batch, c0, bound)]


def _lattice_sums(L: EvenLattice, beta: Sequence[Fraction], covers: list) -> list:
    """[sum_{m in L+beta} e^{2 pi i <a, m+b/2>} q^{<m+b,m+b>/2} for each
    prepared point of the covers' batches, in order], each batch summed over
    one enumerated ball of L + beta: its cover (see _covers).

    A point's own ball is the exact one at its float center and radius;
    terms outside it are below its cutoff, so summing a covering ball's
    extra terms only shrinks the truncation error.  A covering ball whose
    exact count exceeds the tail cushion splits its batch in halves, each
    with its own cover, down to single points, whose covering ball is their
    own: the tail checks are those of each point alone, and they run before
    any term is evaluated.
    """
    beta_f = [float(x) for x in beta]
    # rounding a center coordinatewise to the coset moves each coordinate
    # by at most 1/2, so by a norm of at most sum |g_ij| / 4: an own ball
    # of larger radius^2 holds a point of every coset
    settled = COVER_SLACK * sum(abs(x) for row in L.gram for x in row) / 4
    out = []
    for batch, center, bound in covers:
        # the floats are exact binary fractions, so this is the exact ball
        cols = L._ball_offsets(beta, center, bound)
        count = len(cols[0])
        if not count:
            # the own ball holds every term within exp(-2 pi margin) of the
            # Gaussian's peak, but its radius does not grow with the lattice:
            # when no point of L + beta lies that near the center, the ball is
            # empty and no relative tail is certified; `verify main-theorem`
            # meets this above the Im tau floor on Gram [[60]] and [[100]], and
            # in the S fits on [[10,1],[1,10]]
            raise TailBoundViolated("empty enumeration ball for the trace sum")
        # discarded terms are below exp(-2 pi margin) of the peak, with a 1e4
        # cushion covering the lattice-count factor at desk scale
        if count > CUSHION:
            if len(batch) == 1:
                raise TailBoundViolated(f"tail cushion cannot cover {count} enumerated points")
            half = len(batch) // 2
            out += _lattice_sums(L, beta, _covers(L, batch[:half]) + _covers(L, batch[half:]))
            continue
        if len(batch) > 1:
            for c, r2, _ in batch:
                if r2 > settled:
                    continue
                # the coordinatewise rounding of the center settles almost
                # every other point; the rest enumerate their own ball alone
                near = [x + round(y - x) - y for x, y in zip(beta_f, c)]
                if L.norm2(near) * COVER_SLACK > r2 and not L._ball_offsets(beta, c, r2)[0]:
                    raise TailBoundViolated("empty enumeration ball for the trace sum")
        out += _gaussian_sums(L, beta_f, cols, batch)
    return out


def _gaussian_sums(L: EvenLattice, beta_f: list, cols: list, batch: list) -> list:
    """[sum_m exp(h <m, G m> + <l, G m> + c) over the enumerated ball cols
    of L + beta, for the coefficients (h, c, l, G l) of each prepared point
    of batch].

    A point of the ball is m = m_0 + y, with m_0 the coset point nearest the
    origin coordinatewise (so the exponent's parts stay as small as m) and
    y = offs + idx integral: idx lists each coordinate's y from its least,
    offs, over its range.  The exponent is k + <u, y> + 2 h <y, G y>/2, with
    k and u once per point and <y, G y>/2 one of the ball's distinct integer
    levels (L is even).  While the factors exp(k), exp(h <y, G y>) and
    exp(u_i y_i) together stay within e^FACTOR_LOG_CAP of 1, each is
    tabulated over its levels or range by cmath.exp, and a term is the
    product of d + 1 table entries, all in C-level maps; otherwise each
    term's exponent takes d + 1 list passes and cmath.exp.  What depends
    only on the ball, its integer lists, index getters, ranges and spans,
    is built once for the whole batch.
    """
    shift = [round(b) for b in beta_f]
    ys = [[n + k for n in col] for col, k in zip(cols, shift)]
    offs = [min(y) for y in ys]
    idx = [[v - o for v in y] for y, o in zip(ys, offs)]
    ranges = [range(o, max(y) + 1) for y, o in zip(ys, offs)]
    spans = [max(abs(r[0]), abs(r[-1])) for r in ranges]
    half = L._half_norms(ys)
    levels = sorted(set(half))
    at = {v: i for i, v in enumerate(levels)}
    level_idx = list(map(at.__getitem__, half))
    m_0 = [b - k for b, k in zip(beta_f, shift)]
    g_m0 = [sum(x * y for x, y in zip(row, m_0)) for row in L.gram]
    mm_0 = sum(x * y for x, y in zip(m_0, g_m0))
    if len(level_idx) > 1:
        level_get, *gets = [itemgetter(*ix) for ix in (level_idx, *idx)]
    else:
        # itemgetter of one index returns the item, not a 1-tuple; the
        # tables of a one-point ball hold just its entry
        level_get, *gets = [tuple] * (len(idx) + 1)
    sums = []
    for _, _, (h, c, lin, g_lin) in batch:
        try:
            h2 = 2 * h
            u = [h2 * x + y for x, y in zip(g_m0, g_lin)]
            k = h * mm_0 + sum(map(complex.__mul__, lin, g_m0)) + c
            quad = list(map(h2.__mul__, levels))
            reach = abs(k.real) - quad[-1].real + sum(
                abs(uj.real) * span for uj, span in zip(u, spans)
            )
            if reach <= FACTOR_LOG_CAP:
                terms = level_get(list(map(cmath.exp, quad)))
                for uj, r, get in zip(u, ranges, gets):
                    terms = map(mul, terms, get(list(map(cmath.exp, map(uj.__mul__, r)))))
                acc = cmath.exp(k) * sum(terms)
            else:
                k += sum(uj * o for uj, o in zip(u, offs))
                expo = [k + q for q in level_get(quad)]
                for uj, ix in zip(u, idx):
                    expo = [e + uj * i for e, i in zip(expo, ix)]
                acc = sum(map(cmath.exp, expo))
        except OverflowError:
            acc = math.inf
        if not cmath.isfinite(acc):
            raise TailBoundViolated(
                "trace sum overflows double precision; insertion vectors are "
                "outside the desk-scale range"
            )
        sums.append(acc)
    return sums


def z_table(
    L: EvenLattice,
    points: Sequence[TracePoint],
    im_floor: float = IM_TAU_FLOOR,
    rtol: float = TRACE_RTOL,
) -> list:
    """z_trace of every point (rows) at every dual coset (columns, in the
    canonical sorted coset order), eta(tau)^d computed once per point and
    each coset's sum over one batched ball (see _lattice_sums)."""
    if not points:
        return []
    eta_d = [eta_eval(pt.tau, im_floor) ** L.dim for pt in points]
    covers = _covers(L, _prepare(L, points, rtol))
    sums = [_lattice_sums(L, beta, covers) for beta in L.cosets]
    return [[s[p] / e for s in sums] for p, e in enumerate(eta_d)]


def z_trace(
    L: EvenLattice,
    beta: Sequence,
    point: TracePoint,
    im_floor: float = IM_TAU_FLOOR,
    rtol: float = TRACE_RTOL,
) -> complex:
    """Graded trace of e^{2 pi i (a(0) + <a,b>/2)} q^{b(0) + <b,b>/2 + L(0) - d/24}
    over the module attached to the coset L + beta, which must be dual: the
    batch kernel on one point."""
    eta_d = eta_eval(point.tau, im_floor) ** L.dim
    return _lattice_sums(L, L.check_dual(beta), _covers(L, _prepare(L, [point], rtol)))[0] / eta_d


def z_vector(L: EvenLattice, point: TracePoint) -> list:
    """z_trace for every dual coset, in the canonical sorted coset order:
    z_table on one point."""
    return z_table(L, [point])[0]


def theta_w(L: EvenLattice, beta: Sequence, a: Sequence, tau: complex) -> complex:
    """Numerator theta function of the module, z_trace at b = 0 without the
    eta^-d factor: sum_{m in L+beta} e^{2 pi i <a, m>} q^{<m,m>/2}, beta
    dual; the batch kernel on one point."""
    point = TracePoint(tuple(a), (0.0,) * L.dim, tau)
    require_im(point.tau)
    return _lattice_sums(L, L.check_dual(beta), _covers(L, _prepare(L, [point], TRACE_RTOL)))[0]


def t_phase(L: EvenLattice, beta: Sequence) -> complex:
    """Diagonal phase e^{2 pi i (<beta,beta>/2 - d/24)} relating the trace at
    tau+1 to the trace at the shifted insertion pair:

        z_trace(W, (a, b, tau+1)) = t_phase * z_trace(W, (a+b, b, tau)).

    The exponent is well defined modulo 1 because the lattice is even and
    beta is dual.
    """
    frac = L.coset_norm_half(L.check_dual(beta)) - Fraction(L.dim, 24)
    return cmath.exp(TWO_PI_I * float(frac % 1))


# ---------------------------------------------------------------------------
# exact q-expansion helpers (closed-form side of the cross-oracles)
# ---------------------------------------------------------------------------


def colored_partition_counts(colors: int, n_max: int) -> list:
    """Coefficients of prod_{k>=1} (1-q^k)^(-colors) through q^n_max,
    exact integers; a negative n_max raises ValueError."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    c = [0] * (n_max + 1)
    c[0] = 1
    for k in range(1, n_max + 1):
        for _ in range(colors):
            for j in range(k, n_max + 1):
                c[j] += c[j - k]
    return c


def moment_series(
    L: EvenLattice, beta: Sequence, weights: Sequence[Sequence], q_order: int
) -> qseries.TruncatedSeries:
    """sum_m prod_w <w, m> q^{<m,m>/2} over L+beta, trusted through
    q^q_order.

    weights is a (possibly empty) list of vectors, in whose number type it is
    computed; the empty product 1 gives the plain coset theta series, an int
    series.  Grades are enumerate_vectors' keys, summed in the pairs' order.
    """
    return _moments(L, beta, q_order, [weights])[0]


def _moments(
    L: EvenLattice, beta: Sequence, q_order: int, weight_lists: Sequence[Sequence[Sequence]]
) -> list:
    """moment_series for each weights of weight_lists (every vector of dim
    coordinates) from one enumeration of L + beta, points as exact Fractions."""
    if any(len(w) != L.dim for weights in weight_lists for w in weights):
        raise ValueError(f"weight vectors need {L.dim} coordinates")
    den, pairs = L.enumerate_vectors(beta, q_order)
    beta = [Fraction(b) for b in beta]
    points = [(key, [b + x for b, x in zip(beta, n)]) for n, key in pairs]
    out = []
    for weights in weight_lists:
        coeffs: dict = {}
        for key, m in points:
            coeffs[key] = coeffs.get(key, 0) + math.prod(L.inner(w, m) for w in weights)
        out.append(qseries.TruncatedSeries(den, coeffs, q_order * den))
    return out


def graded_trace_series(
    L: EvenLattice, beta: Sequence, q_order: int, weights: Sequence[Sequence] = ()
) -> qseries.TruncatedSeries:
    """q-expansion of tr_{W_beta} [prod_w w(0)] q^{L(0) - d/24} through
    lattice grade q_order.

    Zero modes are constant on oscillator towers, so the trace factors into
    the weighted coset sum times eta^-d = q^{-d/24} prod (1-q^n)^-d, an
    int series: without weights the character is one too.  Half norms are
    >= 0, so the product is trusted through q^{q_order - d/24}.
    """
    return _graded_traces(L, beta, q_order, [weights])[0]


def _graded_traces(
    L: EvenLattice, beta: Sequence, q_order: int, weight_lists: Sequence[Sequence[Sequence]]
) -> list:
    """graded_trace_series for each weights of weight_lists, all from one
    enumeration of L + beta."""
    moments = _moments(L, beta, q_order, weight_lists)
    d = L.dim
    osc = colored_partition_counts(d, q_order)
    eta_inv = qseries.TruncatedSeries(24, {24 * n - d: c for n, c in enumerate(osc)}, 24 * q_order - d)
    return [m * eta_inv for m in moments]


def recursion_series(
    L: EvenLattice, beta: Sequence, vectors: Sequence[Sequence], x_span: int, q_order: int
) -> qseries.TruncatedSeries | qseries.BiSeries:
    """Closed side of the trace recursion whose literal side is
    fock.s_function_trace, through lattice grade q_order.

    One vector v: the TruncatedSeries tr v(0) q^{L(0)-d/24}.  Two vectors:
    the BiSeries <-v1, v2> P2(x, q)/(2 pi i)^2 times the plain character
    plus the weighted character tr v1(0) v2(0) q^{L(0)-d/24}, both
    characters from one enumeration of L + beta and the kernel through
    x^{+-x_span}.  Any other number of vectors, or a beta outside the dual
    lattice, raises ValueError.
    """
    if len(vectors) not in (1, 2):
        raise ValueError("only one or two insertion vectors are supported")
    if len(vectors) == 1:
        return _graded_traces(L, beta, q_order, [list(vectors)])[0]
    weighted, plain = _graded_traces(L, beta, q_order, [list(vectors), ()])
    v1, v2 = vectors
    pairing = state_pairing(L, [-x for x in v1], v2)
    return qseries.p2_series(x_span, q_order).scale(pairing) * plain + weighted


def insertion_counts_by_grade(
    L: EvenLattice, beta: Sequence, grade_max: int
) -> dict:
    """Closed-form per-grade census of the module: for each L(0)-grade g
    up to grade_max, keyed as enumerate_vectors', {offsets: states over m}.

    The count over m at grade g is the colored-partition number of
    g - <m,m>/2.  This is the exact-integer side of the Fock cross-check.
    """
    den, pairs = L.enumerate_vectors(beta, grade_max)
    osc = colored_partition_counts(L.dim, grade_max)
    out: dict = {}
    for n, key in pairs:
        for j in range((grade_max * den - key) // den + 1):
            out.setdefault(key + j * den, {})[n] = osc[j]
    return out
