"""Integer 2x2 matrices of determinant one, their action on the trace data,
and numerical recovery of the transition matrices between module traces.

The central object is the linear relation

    z_vector(L, (v, u, alpha.tau))  =  A(alpha) . z_vector(L, psi_alpha(v, u), tau)

with A(alpha) a constant matrix indexed by dual cosets and

    psi_alpha(v, u) = (d v + b u, f v + a u)      alpha = (a b; f d).

A is recovered by least squares over sampled (v, u, tau) triples and then
validated on held-out points.  The pair map composes contravariantly,
psi_beta(psi_alpha(v, u)) = psi_{alpha beta}(v, u), which makes A a
homomorphism: A(alpha beta) = A(alpha) A(beta); verify_cocycle measures
exactly that.  The checks return bare max gaps as floats; the reports that
carry them are built by `cli`.  Matrices are tuples of row tuples: the
least-squares solve is one small one-sided Jacobi SVD (_solve), and matmul
and max_gap are the only other matrix arithmetic.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
import sys
from functools import lru_cache
from typing import List, Sequence, Tuple

from ._frozen import Frozen
from .errors import BoundTooLarge, IllConditioned, ThetaTraceError
from .eta import require_im
from .lattice import EvenLattice
from .trace import TracePoint, t_phase, z_table

COND_CAP = 1e10
WORD_FLOOR = 5e-3
WORD_RTOL = 1e-10
TOKEN_CAP = 10**6  # most T-tokens a decomposition word may hold
ENTRY_CAP = 10**6  # largest |entry| of alpha that adapted_samples accepts
SAMPLE_SCALE = 0.2  # insertion-vector scale of sample_points
N_HOLDOUT = 20  # held-out points per validated fit
SWEEP_CAP = 60  # most Jacobi sweeps of one least-squares solve


class UnimodularMatrix(Frozen):
    """(a b; f d) with integer entries and ad - bf = 1."""

    __slots__ = _fields = ("a", "b", "f", "d")

    def __init__(self, a: int, b: int, f: int, d: int):
        entries = tuple(map(int, (a, b, f, d)))
        if entries != (a, b, f, d):
            raise ValueError("entries must be integers")
        a, b, f, d = entries
        if a * d - b * f != 1:
            raise ValueError("determinant must be 1")
        self._set(a, b, f, d)

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.f,
            self.a * other.b + self.b * other.d,
            self.f * other.a + self.d * other.f,
            self.f * other.b + self.d * other.d,
        )

    def __neg__(self) -> "UnimodularMatrix":
        # -1 = S * S, still determinant one
        return UnimodularMatrix(-self.a, -self.b, -self.f, -self.d)

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.f, self.a)

    def act_tau(self, tau: complex) -> complex:
        require_im(tau, 0.0)
        return (self.a * tau + self.b) / (self.f * tau + self.d)

    def act_pair(self, v: Sequence, u: Sequence) -> Tuple[tuple, tuple]:
        """The insertion-pair substitution attached to this matrix.

        Note the arrangement (d v + b u, f v + a u): it is the unique one
        that composes contravariantly with matrix products, so that the
        fitted transition matrices multiply in word order.  The naive
        row-action (a v + b u, f v + d u) agrees on S and T but admits no
        constant transition matrix already for length-two words.
        """
        vv = tuple(self.d * x + self.b * y for x, y in zip(v, u))
        uu = tuple(self.f * x + self.a * y for x, y in zip(v, u))
        return vv, uu

    def act_point(self, point: TracePoint) -> TracePoint:
        vv, uu = self.act_pair(point.a, point.b)
        return TracePoint(vv, uu, point.tau)


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
S = UnimodularMatrix(0, -1, 1, 0)
T = UnimodularMatrix(1, 1, 0, 1)

_TOKENS = {"S": S, "T": T, "T^-1": T.inverse()}


def word_to_matrix(tokens: Sequence[str]) -> UnimodularMatrix:
    out = IDENTITY
    for t in tokens:
        out = out * _TOKENS[t]
    return out


def decompose_ST(alpha: UnimodularMatrix):
    """Write alpha as a word in S, T, T^-1 up to overall sign.

    Returns (tokens, sign) with word_to_matrix(tokens) == sign * alpha; the
    reconstruction is checked before returning.  Continued-fraction style:
    while the lower-left entry is nonzero, strip T^k S with k = round(a/f),
    which at least halves |f|.
    """
    tokens: List[str] = []
    s_inv = S.inverse()
    m = alpha
    budget = TOKEN_CAP

    def emit_t(k: int):
        nonlocal budget
        if abs(k) > budget:
            raise BoundTooLarge("decomposition word exceeds the token cap")
        budget -= abs(k)
        tokens.extend(["T" if k > 0 else "T^-1"] * abs(k))

    while m.f != 0:
        k = round(m.a / m.f)
        emit_t(k)
        tokens.append("S")
        m = s_inv * UnimodularMatrix(1, -k, 0, 1) * m
    # now m = (sign, sign*m.b; 0, sign)
    sign = m.a
    emit_t(sign * m.b)
    check = word_to_matrix(tokens)
    if check != (alpha if sign == 1 else -alpha):
        raise ThetaTraceError(f"reconstruction failed: the word gives {check}, not ±{alpha}")
    return tokens, sign


def seeded_rng(seed: int) -> random.Random:
    """random.Random(seed), the stream every sample is drawn from.  A negative
    seed is refused, since Random would fold -seed onto seed, and so is a
    non-integer seed, a bool included, which operator.index reads as 0 or 1."""
    if isinstance(seed, bool):
        raise TypeError(f"expected an integer seed, got {seed!r}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    return random.Random(seed)


def sample_points(
    dim: int, count: int, seed: int, real_vectors: bool = False, center: float | None = None
) -> List[TracePoint]:
    """Deterministic batch of trace evaluation points in general position.

    Vector components are bounded draws (uniform in a disc-like box of half
    side SAMPLE_SCALE) so term magnitudes in the trace sums stay controlled;
    real_vectors draws no imaginary parts.  tau is drawn from Re tau in
    (-0.4, 0.4), Im tau in (0.8, 1.6), or, given a center, from Re tau in
    center +- 0.15, Im tau in (0.3, 0.55) with vectors at half the scale.
    """
    rng = seeded_rng(seed)
    if center is None:
        scale, re_range, im_range, center = SAMPLE_SCALE, (-0.4, 0.4), (0.8, 1.6), 0.0
    else:
        scale, re_range, im_range = SAMPLE_SCALE / 2, (-0.15, 0.15), (0.3, 0.55)

    def vec():
        re = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        im = (0.0,) * dim if real_vectors else [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        return tuple(complex(x * scale, y * scale) for x, y in zip(re, im))

    out = []
    for _ in range(count):
        tau = complex(center + rng.uniform(*re_range), rng.uniform(*im_range))
        out.append(TracePoint(vec(), vec(), tau))
    return out


def adapted_samples(alpha: UnimodularMatrix, dim: int, count: int, seed: int) -> List[TracePoint]:
    """Sample points keeping both tau and alpha.tau comfortably evaluable.

    Im(alpha.tau) = Im tau / |f tau + d|^2 collapses when tau strays from
    -d/f, so for f != 0 the real parts are drawn near that center with a
    moderate Im tau; then Im(alpha.tau) >= roughly 1/f^2.  Insertion vectors
    are kept real there: theta values with complex characteristics grow like
    exp(pi |Im a|^2 / Im tau), which at small Im(alpha.tau) would swamp an
    absolute residual with double-precision cancellation noise, while the
    relation itself extends from real to complex vectors by analyticity.
    For f = 0 the pair map (v, u) -> (d v + b u, a u) adds b Im u to Im v,
    which for |b| > 1 brings the same growth at any Im tau, so those draws
    are real too.
    """
    if max(abs(alpha.a), abs(alpha.b), abs(alpha.f), abs(alpha.d)) > ENTRY_CAP:
        # beyond this bound alpha.tau loses double precision: Im(alpha.tau)
        # rounds to zero or below, b swamps Re tau, or an entry overflows a
        # float
        raise BoundTooLarge(
            f"alpha has an entry beyond {ENTRY_CAP}; alpha.tau loses double precision"
        )
    if alpha.f == 0:
        return sample_points(dim, count, seed, real_vectors=abs(alpha.b) > 1)
    return sample_points(dim, count, seed, real_vectors=True, center=-alpha.d / alpha.f)


def _vector_table(
    L: EvenLattice,
    alpha: UnimodularMatrix,
    points: Sequence[TracePoint],
):
    """(lhs, rhs) sample matrices: rows are points, columns are cosets,
    evaluated with the word floor and tail target, one z_table batch each."""
    moved = [TracePoint(pt.a, pt.b, alpha.act_tau(pt.tau)) for pt in points]
    lhs = z_table(L, moved, WORD_FLOOR, WORD_RTOL)
    return lhs, z_table(L, [alpha.act_point(pt) for pt in points], WORD_FLOOR, WORD_RTOL)


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    """The product of two matrices given as rows, as a tuple of row tuples."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def max_gap(a: Sequence[Sequence], b: Sequence[Sequence]) -> float:
    """max |a[i][j] - b[i][j]| of two equally shaped matrices given as rows;
    0.0 for matrices without entries."""
    return max(
        (abs(x - y) for ra, rb in zip(a, b, strict=True) for x, y in zip(ra, rb, strict=True)),
        default=0.0,
    )


def _solve(rhs: Sequence[Sequence], lhs: Sequence[Sequence]) -> Tuple[tuple, float]:
    """(x, cond): the least-squares solution of rhs x = lhs and the 2-norm
    condition number of rhs, from one one-sided (Hestenes) Jacobi SVD.

    The columns of rhs are rotated pairwise by unitary 2x2 transforms,
    accumulated in V, until every pair is orthogonal to working precision;
    then rhs = U Sigma V^H with Sigma the column norms.  rhs^H rhs is never
    formed, as it would square the condition number.  As numpy.linalg.lstsq
    with rcond=None, x treats singular values at or below eps max(shape)
    sigma_max as zero; cond is inf only for a zero singular value.
    """
    eps = sys.float_info.epsilon
    rows, n = len(rhs), len(rhs[0])
    cols = [list(col) for col in zip(*rhs)]
    v = [[complex(i == j) for i in range(n)] for j in range(n)]  # v[j]: column j of V
    tol = math.sqrt(rows) * eps
    for _ in range(SWEEP_CAP):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = cols[p], cols[q]
                alpha = sum(x.real * x.real + x.imag * x.imag for x in ap)
                beta = sum(x.real * x.real + x.imag * x.imag for x in aq)
                gamma = sum(x.conjugate() * y for x, y in zip(ap, aq))
                if abs(gamma) <= tol * math.sqrt(alpha * beta):
                    continue
                rotated = True
                # the real rotation that diagonalizes [[alpha, |gamma|],
                # [|gamma|, beta]], after the phase of gamma moves to column q
                zeta = (beta - alpha) / (2 * abs(gamma))
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                phase = gamma.conjugate() / abs(gamma)
                cq, sq = c * phase, s * phase
                for mat in (cols, v):
                    xp, xq = mat[p], mat[q]
                    mat[p] = [c * x - sq * y for x, y in zip(xp, xq)]
                    mat[q] = [s * x + cq * y for x, y in zip(xp, xq)]
        if not rotated:
            break
    else:
        raise IllConditioned(f"Jacobi SVD did not converge in {SWEEP_CAP} sweeps")
    sigma = [math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in col)) for col in cols]
    top = max(sigma)
    cut = eps * max(rows, n) * top
    cond = top / min(sigma) if min(sigma) > 0 else math.inf
    # x = V Sigma^+ U^H lhs, with U^H lhs / sigma = cols^H lhs / sigma^2
    x = [[0j] * len(lhs[0]) for _ in range(n)]
    for col, vj, sj in zip(cols, v, sigma):
        if sj <= cut:
            continue
        w = [
            sum(a.conjugate() * b for a, b in zip(col, lhs_col)) / (sj * sj)
            for lhs_col in zip(*lhs)
        ]
        for i, vij in enumerate(vj):
            x[i] = [u + vij * wk for u, wk in zip(x[i], w)]
    return tuple(map(tuple, x)), cond


def fit_transition(
    L: EvenLattice,
    alpha: UnimodularMatrix,
    samples: Sequence[TracePoint],
) -> Tuple[tuple, float]:
    """Least-squares recovery of the transition matrix from sample triples.

    Solves lhs[s, h] = sum_k A[h, k] rhs[s, k] for A over all samples at
    once; the shared coefficient matrix rhs must be well conditioned or
    IllConditioned is raised.  Returns (A, residual): A a tuple of row
    tuples, immutable as fit_alpha shares it, and residual the largest
    misfit on the samples.
    """
    m = len(L.cosets)
    if len(samples) < 2 * m:
        raise ValueError(f"need at least {2 * m} samples, got {len(samples)}")
    lhs, rhs = _vector_table(L, alpha, samples)
    x, cond = _solve(rhs, lhs)
    if not math.isfinite(cond) or cond > COND_CAP:
        raise IllConditioned(f"sample matrix condition number {cond:.3e}")
    return tuple(zip(*x)), max_gap(matmul(rhs, x), lhs)


def verify_relation(
    L: EvenLattice,
    alpha: UnimodularMatrix,
    holdout: Sequence[TracePoint],
    a: Sequence[Sequence],
) -> float:
    """Max residual of the transition relation with matrix a on held-out
    points."""
    lhs, rhs = _vector_table(L, alpha, holdout)
    return max_gap(lhs, matmul(rhs, tuple(zip(*a))))


@lru_cache(maxsize=None)
def fit_alpha(L: EvenLattice, alpha: UnimodularMatrix, seed: int, /) -> Tuple[tuple, float]:
    """(A, residual) of A(alpha) fitted on adapted_samples(alpha, L.dim, 2m,
    seed), m = |L*/L|.

    Memoized: the fit is a pure function of its arguments, all frozen value
    types, so the checks of one run that need the same A(alpha) share one
    fit.  Positional-only, as lru_cache keys f(L, a, 0) and f(L, a, seed=0)
    apart.
    """
    samples = adapted_samples(alpha, L.dim, 2 * len(L.cosets), seed)
    return fit_transition(L, alpha, samples)


def fit_and_verify(
    L: EvenLattice, alpha: UnimodularMatrix, seed: int = 0
) -> Tuple[tuple, float, float]:
    """(A, residual, holdout_error): the memoized fit_alpha(L, alpha, seed)
    and its max residual on a disjoint batch of N_HOLDOUT points; only the
    holdout is computed afresh."""
    a, residual = fit_alpha(L, alpha, seed)
    hold_pts = adapted_samples(alpha, L.dim, N_HOLDOUT, seed + 10**6)
    return a, residual, verify_relation(L, alpha, hold_pts, a)


def verify_cocycle(
    L: EvenLattice, alpha: UnimodularMatrix, beta: UnimodularMatrix, seed: int = 0
) -> float:
    """||A(alpha beta) - A(alpha) A(beta)||_max, with the three matrices fitted
    independently at seeds seed, seed + 1 and seed + 2 through the fit_alpha
    memo.  No holdout is evaluated."""
    a = fit_alpha(L, alpha, seed)[0]
    b = fit_alpha(L, beta, seed + 1)[0]
    return max_gap(fit_alpha(L, alpha * beta, seed + 2)[0], matmul(a, b))


def random_words(count: int, max_len: int, seed: int) -> List[List[str]]:
    """Deterministic batch of words over {S, T, T^-1}."""
    rng = seeded_rng(seed)
    names = ("S", "T", "T^-1")
    out = []
    for _ in range(count):
        length = rng.randrange(1, max_len + 1)
        out.append([names[rng.randrange(3)] for _ in range(length)])
    return out


def s_matrix_prediction(L: EvenLattice) -> tuple:
    """Closed-form candidate for A(S): |L*/L|^(-1/2) e^(-2 pi i <b_h, b_k>).

    Used as an independent oracle against the fitted matrix; the library
    itself never assumes it.
    """
    cosets = L.cosets
    scale = 1.0 / math.sqrt(len(cosets))
    return tuple(
        tuple(scale * cmath.exp(-2j * cmath.pi * float(L.inner(bh, bk))) for bk in cosets)
        for bh in cosets
    )


def t_matrix_prediction(L: EvenLattice) -> tuple:
    """Diagonal of phases e^(2 pi i (<b,b>/2 - d/24)) for alpha = T."""
    cosets = L.cosets
    return tuple(
        tuple(t_phase(L, bh) if h == k else 0j for k in range(len(cosets)))
        for h, bh in enumerate(cosets)
    )
