"""Even positive-definite lattices, their dual cosets, and theta series.

A lattice is described by an integer Gram matrix in a fixed basis; vectors
are coordinate tuples in that basis, so a point of the coset L + beta has
coordinates n + beta with n integral.  Everything that feeds a frozen test
value is computed in exact rational arithmetic: positive definiteness via an
LDL^T split over Q, coset representatives via Smith normal form, and vector
enumeration by recursive completion of squares with an exact final filter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    BoundTooLarge,
    LatticeFileError,
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
    ThetaTraceError,
)
from .qseries import TruncatedSeries

ENUM_CAP = 10**7


def _ldl(gram: Sequence[Sequence[int]]):
    """Exact G = L D L^T for symmetric G; returns (diag, lower) with
    diag[i] = D_ii as Fractions and lower unit lower-triangular.

    Raises NotPositiveDefinite when some pivot is <= 0.
    """
    d = len(gram)
    diag = [Fraction(0)] * d
    low = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        acc = Fraction(gram[i][i])
        for k in range(i):
            acc -= low[i][k] * low[i][k] * diag[k]
        if acc <= 0:
            raise NotPositiveDefinite(
                f"pivot {i} of the Gram matrix is {acc} after elimination"
            )
        diag[i] = acc
        low[i][i] = Fraction(1)
        for j in range(i + 1, d):
            s = Fraction(gram[j][i])
            for k in range(i):
                s -= low[j][k] * low[i][k] * diag[k]
            low[j][i] = s / acc
    return diag, low


def _smith_normal_form(mat: Sequence[Sequence[int]]):
    """U A V = D with U, V unimodular and D diagonal; returns (U, D, V)."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, mult):
        for k in range(n):
            a[dst][k] += mult * a[src][k]
            u[dst][k] += mult * u[src][k]

    def add_col(src, dst, mult):
        for r in a:
            r[dst] += mult * r[src]
        for r in v:
            r[dst] += mult * r[src]

    for t in range(n):
        while True:
            # move a smallest nonzero entry of the trailing block to (t, t)
            pivot = None
            for i in range(t, n):
                for j in range(t, n):
                    if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            done = True
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        done = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        done = False
            if done:
                break
    # fix signs on the diagonal
    for t in range(n):
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
                u[t][k] = -u[t][k]
    return u, a, v


def _invert_rational(mat: Sequence[Sequence[int]]):
    """Exact inverse of an integer matrix as Fractions (Gauss-Jordan)."""
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class EvenLattice:
    """Even positive-definite lattice given by its Gram matrix."""

    gram: tuple
    name: str = ""

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.gram)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise ValueError("Gram matrix must be square and nonempty")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
        _ldl(rows)  # raises NotPositiveDefinite
        for i in range(d):
            if rows[i][i] % 2 != 0:
                raise NotEven(f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd")
        object.__setattr__(self, "gram", rows)

    # -- basics --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def det(self) -> int:
        # product of LDL pivots is exact
        diag, _ = _ldl(self.gram)
        val = Fraction(1)
        for p in diag:
            val *= p
        if val.denominator != 1:
            raise ThetaTraceError(f"determinant {val} of an integer Gram matrix is not an integer")
        return int(val)

    @cached_property
    def _scaled_completion(self):
        """The LDL split cleared of denominators: (Ld, Dd, c, q) with
        c[i][j] = low[j][i] * Ld for j > i and q[i] = diag[i] * Dd, where Ld
        and Dd are the lcms of the denominators of low and diag."""
        diag, low = _ldl(self.gram)
        d = self.dim
        ld = math.lcm(*(low[j][i].denominator for i in range(d) for j in range(i + 1, d)))
        dd = math.lcm(*(x.denominator for x in diag))
        c = [[int(low[j][i] * ld) for j in range(d)] for i in range(d)]
        q = [int(x * dd) for x in diag]
        return ld, dd, c, q

    def inner(self, x: Sequence, y: Sequence):
        """Bilinear form <x, y> in basis coordinates (no conjugation)."""
        g = self.gram
        return sum(x[i] * g[i][j] * y[j] for i in range(self.dim) for j in range(self.dim))

    def norm2(self, x: Sequence):
        return self.inner(x, x)

    # -- dual cosets -----------------------------------------------------

    @cached_property
    def cosets(self) -> tuple:
        """Representatives of (dual lattice)/L, canonical in [0,1)^d, sorted.

        y = G^{-1} k runs over the dual as k runs over Z^d, and k lands in L
        exactly when k is in G Z^d; a transversal comes from the Smith form
        U G V = D as k = U^{-1} r with 0 <= r_i < D_ii.
        """
        u, dmat, _ = _smith_normal_form(self.gram)
        uinv = _invert_rational(u)
        ginv = _invert_rational(self.gram)
        d = self.dim
        reps = set()
        counters = [range(dmat[i][i]) for i in range(d)]

        def products(level, current):
            if level == d:
                yield tuple(current)
                return
            for val in counters[level]:
                yield from products(level + 1, current + [val])

        for r in products(0, []):
            k = [sum(uinv[i][j] * r[j] for j in range(d)) for i in range(d)]
            beta = [sum(ginv[i][j] * k[j] for j in range(d)) for i in range(d)]
            beta = tuple(Fraction(b) % 1 for b in beta)
            reps.add(beta)
        expected = abs(self.det)
        if len(reps) != expected:
            raise ThetaTraceError(
                f"found {len(reps)} coset representatives, expected |det| = {expected}"
            )
        return tuple(sorted(reps))

    def coset_norm_half(self, beta: Sequence[Fraction]) -> Fraction:
        """<beta, beta>/2 as an exact rational."""
        return Fraction(self.norm2(list(map(Fraction, beta)))) / 2

    # -- enumeration -----------------------------------------------------

    def _ball_offsets(
        self,
        beta: Sequence,
        center: Sequence,
        norm_bound: Fraction,
        cap: int = ENUM_CAP,
    ) -> list:
        """Integer offsets n of all m = beta + n with <m - c, m - c> <=
        norm_bound, as one list per coordinate: column i holds n_i of every
        point, in the order of points_in_ball.

        Recursion over the completed-squares form: with <x,x> =
        sum_i q_i (x_i + sum_{j>i} c_ij x_j)^2 the last coordinate is boxed
        first, and each prefix spends its exact residual budget.

        The recursion runs in integers.  With x = n + shift, P the lcm of
        the shift denominators and M = P * Ld, each x_j is carried as
        X_j = x_j P, the completed center t as T = t M, and the budget as
        budget * K with K = M^2 * Dd * den(bound).  The admissible n at a
        level are then the integers with |n M + T| <= isqrt(budget // q),
        an exact interval.
        """
        ld, dd, c_scaled, q_scaled = self._scaled_completion
        d = self.dim
        cols = [[] for _ in range(d)]
        bound = Fraction(norm_bound)
        if bound < 0:
            return cols
        shift = [Fraction(beta[i]) - Fraction(center[i]) for i in range(d)]
        p = math.lcm(*(s.denominator for s in shift))
        m = p * ld
        sp = [int(s * p) for s in shift]  # shift * P
        sm = [v * ld for v in sp]  # shift * M
        q = [v * bound.denominator for v in q_scaled]  # q_i K / M^2
        count = 0
        xs = [0] * d  # X_j = x_j P
        ns = [0] * d  # offsets of the current prefix

        def descend(level: int, budget: int):
            nonlocal count
            row = c_scaled[level]
            t = sm[level] + sum(row[j] * xs[j] for j in range(level + 1, d))
            q_level = q[level]
            # q_level r^2 <= budget  <=>  |r| <= isqrt(budget // q_level)
            r_max = math.isqrt(budget // q_level)
            lo = -((r_max + t) // m)
            hi = (r_max - t) // m
            if hi < lo:
                return
            count += hi - lo + 1
            if count > cap:
                raise BoundTooLarge(f"enumeration visited more than {cap} candidates")
            if level == 0:
                cols[0].extend(range(lo, hi + 1))
                for j in range(1, d):
                    cols[j].extend([ns[j]] * (hi - lo + 1))
                return
            for n in range(lo, hi + 1):
                r = n * m + t
                ns[level] = n
                xs[level] = n * p + sp[level]
                descend(level - 1, budget - q_level * r * r)

        descend(d - 1, bound.numerator * m * m * dd)
        return cols

    def points_in_ball(
        self,
        beta: Sequence,
        center: Sequence,
        norm_bound: Fraction,
        cap: int = ENUM_CAP,
    ) -> list:
        """All m in L + beta with <m - c, m - c> <= norm_bound, exact, as
        tuples of Fractions (see _ball_offsets for the order and the cap).
        """
        beta = [Fraction(b) for b in beta]
        cols = self._ball_offsets(beta, center, norm_bound, cap)
        return list(zip(*([b + n for n in col] for b, col in zip(beta, cols))))

    def enumerate_vectors(self, beta: Sequence, bound) -> list:
        """All m in L + beta with <m, m>/2 <= bound, sorted."""
        zero = [Fraction(0)] * self.dim
        return sorted(self.points_in_ball(beta, zero, 2 * Fraction(bound)))

    # -- theta series ------------------------------------------------------

    def theta_series(self, beta: Sequence, q_order: int) -> TruncatedSeries:
        """sum_{m in L+beta} q^{<m,m>/2} with exact integer coefficients,
        trusted through q^q_order."""
        pts = self.enumerate_vectors(beta, q_order)
        norms = [Fraction(self.norm2(m)) / 2 for m in pts]
        denom = 1
        for nm in norms:
            denom = math.lcm(denom, nm.denominator)
        coeffs: dict = {}
        for nm in norms:
            key = int(nm * denom)
            coeffs[key] = coeffs.get(key, 0) + 1
        return TruncatedSeries(denom, coeffs, q_order * denom)


def load_lattice(path: str) -> EvenLattice:
    """Read a lattice description {"name": str, "gram": [[int]]} from JSON."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise LatticeFileError(f"cannot read lattice file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LatticeFileError(f"lattice file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "gram" not in raw:
        raise LatticeFileError(f"lattice file {path} must be an object with a 'gram' key")
    gram = raw["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise LatticeFileError(f"'gram' in {path} must be a list of integer rows")
    for row in gram:
        for x in row:
            if not isinstance(x, int):
                raise LatticeFileError(f"'gram' in {path} contains a non-integer entry {x!r}")
    name = raw.get("name", "")
    if not isinstance(name, str):
        raise LatticeFileError(f"'name' in {path} must be a string")
    try:
        return EvenLattice(tuple(tuple(r) for r in gram), name=name)
    except (NotSymmetric, NotPositiveDefinite, NotEven, ValueError) as exc:
        raise LatticeFileError(f"lattice file {path} is invalid: {exc}") from exc
