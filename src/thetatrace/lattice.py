"""Even positive-definite lattices, their dual cosets, and theta series.

A lattice is described by an integer Gram matrix in a fixed basis; vectors
are coordinate tuples in that basis, so a point of the coset L + beta has
coordinates n + beta with n integral.  Everything that feeds a frozen test
value is computed in exact rational arithmetic: positive definiteness via one
LDL^T split over Q per lattice, coset representatives as the closure of the
dual basis that split solves for, and vector enumeration by recursive
completion of squares in integers, which also grades the points by integer
keys: on L + beta every <m, m>/2 is <beta, beta>/2 plus an integer.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import qseries
from ._frozen import Frozen
from .errors import (
    BoundTooLarge,
    LatticeFileError,
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
    ThetaTraceError,
)

ENUM_CAP = 10**7
COSET_CAP = 10**4  # largest |det| = |L*/L| whose cosets are listed


def _dual_basis(diag, low):
    """The columns x_j of G^{-1} for G = L D L^T, as lists of Fractions:
    x_j solves L D L^T x = e_j by forward substitution, division by D, and
    back substitution."""
    d = len(diag)
    cols = []
    for j in range(d):
        y = [Fraction(int(i == j)) for i in range(d)]
        for i in range(d):
            y[i] -= sum(low[i][k] * y[k] for k in range(i))
        x = [y[i] / diag[i] for i in range(d)]
        for i in reversed(range(d)):
            x[i] -= sum(low[k][i] * x[k] for k in range(i + 1, d))
        cols.append(x)
    return cols


class EvenLattice(Frozen):
    """Even positive-definite lattice given by its Gram matrix."""

    _fields = ("gram", "name")

    def __init__(self, gram, name: str = ""):
        rows = tuple(tuple(int(x) for x in row) for row in gram)
        if rows != tuple(map(tuple, gram)):
            raise ValueError("Gram matrix entries must be integers")
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise ValueError("Gram matrix must be square and nonempty")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
        self._set(rows, name)
        self._ldl  # raises NotPositiveDefinite
        for i in range(d):
            if rows[i][i] % 2 != 0:
                raise NotEven(f"diagonal entry gram[{i}][{i}] = {rows[i][i]} is odd")

    # -- basics --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.gram)

    @cached_property
    def _ldl(self):
        """Exact G = L D L^T; (diag, low) with diag[i] = D_ii as Fractions and
        low unit lower-triangular.

        Raises NotPositiveDefinite when some pivot is <= 0.
        """
        gram = self.gram
        d = self.dim
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

    @cached_property
    def det(self) -> int:
        # the LDL factor is unit triangular: the pivots multiply to det G, an int
        return int(math.prod(self._ldl[0]))

    @cached_property
    def _scaled_completion(self):
        """The LDL split cleared of denominators: (Ld, Dd, c, q) with
        c[i][j] = low[j][i] * Ld for j > i and q[i] = diag[i] * Dd, where Ld
        and Dd are the lcms of the denominators of low and diag."""
        diag, low = self._ldl
        d = self.dim
        ld = math.lcm(*(low[j][i].denominator for i in range(d) for j in range(i + 1, d)))
        dd = math.lcm(*(x.denominator for x in diag))
        c = [[int(low[j][i] * ld) for j in range(d)] for i in range(d)]
        q = [int(x * dd) for x in diag]
        return ld, dd, c, q

    def inner(self, x: Sequence, y: Sequence):
        """Bilinear form <x, y> in basis coordinates (no conjugation)."""
        g = self.gram
        d = range(self.dim)
        return sum(x[i] * g[i][j] * y[j] for i in d for j in d)

    def norm2(self, x: Sequence):
        return self.inner(x, x)

    # -- dual cosets -----------------------------------------------------

    @cached_property
    def cosets(self) -> tuple:
        """Representatives of (dual lattice)/L, canonical in [0,1)^d, sorted.

        The dual is G^{-1} Z^d, so its columns reduced mod 1 generate the
        quotient; the cosets are their closure under addition mod 1.
        Raises BoundTooLarge when |det| exceeds COSET_CAP.
        """
        expected = abs(self.det)
        if expected > COSET_CAP:
            raise BoundTooLarge(f"{expected} dual cosets exceed the cap of {COSET_CAP}")
        gens = _dual_basis(*self._ldl)
        zero = (Fraction(0),) * self.dim
        reps = {zero}
        todo = [zero]
        while todo:
            beta = todo.pop()
            for g in gens:
                nxt = tuple((b + x) % 1 for b, x in zip(beta, g))
                if nxt not in reps:
                    reps.add(nxt)
                    todo.append(nxt)
        if len(reps) != expected:
            raise ThetaTraceError(
                f"found {len(reps)} coset representatives, expected |det| = {expected}"
            )
        return tuple(sorted(reps))

    def check_dual(self, beta: Sequence) -> tuple:
        """beta as a tuple of Fractions; raises ValueError unless it has dim
        coordinates and lies in the dual lattice, i.e. G beta is integral."""
        d = self.dim
        if len(beta) != d:
            raise ValueError(f"coset needs {d} coordinates, got {len(beta)}")
        beta = tuple(map(Fraction, beta))
        if any(sum(map(operator.mul, row, beta)).denominator != 1 for row in self.gram):
            raise ValueError(f"coset {beta} is not in the dual lattice: G beta is not integral")
        return beta

    def coset_norm_half(self, beta: Sequence[Fraction]) -> Fraction:
        """<beta, beta>/2 as an exact rational."""
        return Fraction(self.norm2(list(map(Fraction, beta)))) / 2

    # -- enumeration -----------------------------------------------------

    def _ball_offsets(self, beta: Sequence, center: Sequence, norm_bound) -> list:
        """Integer offsets n of all m = beta + n with <m - c, m - c> <=
        norm_bound, as one list per coordinate: column i holds n_i of every
        point, in the order of points_in_ball.  Raises ValueError unless beta
        and center have dim coordinates, and BoundTooLarge once more than
        ENUM_CAP candidates are accepted.

        Recursion over the completed-squares form: with <x,x> =
        sum_i q_i (x_i + sum_{j>i} c_ij x_j)^2 the last coordinate is boxed
        first, and each prefix spends its exact residual budget.

        The recursion runs in integers, from the exact integer ratios of
        beta, center and norm_bound (ints, Fractions or floats).  With
        x = n + shift, P the lcm of the denominators of beta and center and
        M = P * Ld, each x_j is carried as X_j = x_j P, the completed center
        t as T = t M, and the budget as budget * K with K = M^2 * Dd *
        den(bound).  The admissible n at a level are then the integers with
        |n M + T| <= isqrt(budget // q), an exact interval.
        """
        d = self.dim
        if len(beta) != d or len(center) != d:
            raise ValueError(
                f"coset and center need {d} coordinates, got {len(beta)} and {len(center)}"
            )
        ld, dd, c_scaled, q_scaled = self._scaled_completion
        cols = [[] for _ in range(d)]
        num, den = norm_bound.as_integer_ratio()
        if num < 0:
            return cols
        # shift = beta - center over the common denominator P of both
        ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in zip(beta, center)]
        p = math.lcm(*(v for (_, bd), (_, cd) in ratios for v in (bd, cd)))
        sp = [bn * (p // bd) - cn * (p // cd) for (bn, bd), (cn, cd) in ratios]  # shift * P
        m = p * ld
        sm = [v * ld for v in sp]  # shift * M
        q = [v * den for v in q_scaled]  # q_i K / M^2
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
            if count > ENUM_CAP:
                raise BoundTooLarge(f"enumeration visited more than {ENUM_CAP} candidates")
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

        try:
            descend(d - 1, num * m * m * dd)
        finally:
            descend = None  # descend refers to itself: break the cycle so it is freed now
        return cols

    def points_in_ball(self, beta: Sequence, center: Sequence, norm_bound: Fraction) -> list:
        """All m in L + beta with <m - c, m - c> <= norm_bound, exact, as
        tuples of Fractions (see _ball_offsets for the order and the errors).
        """
        beta = [Fraction(b) for b in beta]
        cols = self._ball_offsets(beta, center, norm_bound)
        return list(zip(*([b + n for n in col] for b, col in zip(beta, cols))))

    def _half_norms(self, cols: list) -> list:
        """The integers <y, G y>/2 of integer points y, one list per coordinate."""
        half = [0] * len(cols[0])
        for i, row in enumerate(self.gram):
            for j in range(i, self.dim):
                w = row[i] // 2 if i == j else row[j]
                if w:
                    half = [h + w * a * b for h, a, b in zip(half, cols[i], cols[j])]
        return half

    def enumerate_vectors(self, beta: Sequence, bound: int) -> tuple:
        """Every m = beta + n in L + beta with <m, m>/2 <= bound, as (den,
        pairs sorted by n) with integer pairs (n, den <m, m>/2); den is that
        of <beta, beta>/2, or 1 for an empty ball.  This is the one place
        that grades the coset points of the exact series, and their one gate:
        before enumerating, it refuses a non-dual beta, a bound that is no int
        or negative (ValueError) and one above GRADE_CAP (CutoffTooLarge)."""
        qseries.require_grade(bound)
        beta = self.check_dual(beta)
        cols = self._ball_offsets(beta, [0] * self.dim, 2 * bound)
        # den <m,m>/2 = den <beta,beta>/2 + den (<n,Gn>/2 + <G beta, n>)
        base = self.coset_norm_half(beta) if cols[0] else Fraction(0)  # den 1: empty ball
        keys = self._half_norms(cols)
        for col, row in zip(cols, self.gram):
            w = int(sum(map(operator.mul, row, beta)))  # integral: beta is dual
            keys = [k + w * n for k, n in zip(keys, col)]
        keys = [base.numerator + base.denominator * k for k in keys]
        return base.denominator, sorted(zip(zip(*cols), keys))

    # -- theta series ------------------------------------------------------

    def theta_series(self, beta: Sequence, q_order: int) -> qseries.TruncatedSeries:
        """sum_{m in L+beta} q^{<m,m>/2} with exact integer coefficients,
        trusted through q^q_order; the grades are enumerate_vectors' keys
        over its denominator."""
        den, pairs = self.enumerate_vectors(beta, q_order)
        return qseries.TruncatedSeries(den, Counter(key for _, key in pairs), q_order * den)


def load_lattice(path: str) -> EvenLattice:
    """Read a lattice description {"name": str, "gram": [[int]]} from JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise LatticeFileError(f"cannot read lattice file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LatticeFileError(f"lattice file {path} is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise LatticeFileError(f"lattice file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "gram" not in raw:
        raise LatticeFileError(f"lattice file {path} must be an object with a 'gram' key")
    gram = raw["gram"]
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise LatticeFileError(f"'gram' in {path} must be a list of integer rows")
    for row in gram:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise LatticeFileError(f"'gram' in {path} contains a non-integer entry {x!r}")
    name = raw.get("name", "")
    if not isinstance(name, str):
        raise LatticeFileError(f"'name' in {path} must be a string")
    try:
        return EvenLattice(tuple(tuple(r) for r in gram), name=name)
    except (NotSymmetric, NotPositiveDefinite, NotEven, ValueError) as exc:
        raise LatticeFileError(f"lattice file {path} is invalid: {exc}") from exc
