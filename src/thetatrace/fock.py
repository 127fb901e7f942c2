"""Literal graded module spaces over lattice cosets.

A basis state is a lattice point m in L + beta together with a multiset of
oscillator excitations (mode n >= 1, basis direction); its L(0)-grade is
<m,m>/2 plus the sum of the modes.  Mode operators act symbolically on
states, so products of operators are exact on any state; no basis-matrix
truncation enters.  Traces over all states of grade <= N are therefore exact
through q^N.

This module is deliberately independent of the closed-form machinery in
`trace`: it is the oracle that the closed form is checked against, and the
literal side of the two-variable trace recursion

    sum_k x^k tr v1(k) v2(-k) q^{L(0)-d/24}
        = tr v1(0) v2(0) q^{L(0)-d/24}
          + <-v1, v2> P2(x, q)/(2 pi i)^2 * tr q^{L(0)-d/24}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .errors import CutoffTooLarge
from .lattice import EvenLattice
from .qseries import TWO_PI_I, BiSeries, p2_series
from .trace import graded_trace_series, state_pairing

GRADE_CAP = 60


@dataclass(frozen=True)
class FockState:
    """Basis state: lattice point coordinates plus sorted excitation modes.

    modes is a tuple of (n, direction) pairs with n >= 1, kept sorted so
    equal multisets compare equal.  A point tuple is kept as given, so
    states derived from one another share it.
    """

    point: tuple
    modes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(self.point))
        object.__setattr__(
            self, "modes", tuple(sorted((int(n), int(i)) for n, i in self.modes))
        )
        if any(n < 1 for n, _ in self.modes):
            raise ValueError("excitation modes must be positive")

    def oscillator_weight(self) -> int:
        return sum(n for n, _ in self.modes)

    def grade(self, L: EvenLattice) -> Fraction:
        return Fraction(L.norm2(self.point)) / 2 + self.oscillator_weight()


def _colored_multisets(budget: int, dims: int):
    """All multisets of (n, dir) with total n <= budget, as sorted tuples."""

    def rec(remaining: int, max_part: Tuple[int, int]):
        yield ()
        n_hi, i_hi = max_part
        for n in range(min(remaining, n_hi), 0, -1):
            dir_top = i_hi if n == n_hi else dims - 1
            for i in range(dir_top, -1, -1):
                for rest in rec(remaining - n, (n, i)):
                    yield ((n, i),) + rest

    yield from rec(budget, (budget, dims - 1))


@lru_cache(maxsize=None)
def build_basis(
    L: EvenLattice, beta: Sequence, grade_max
) -> Tuple[Tuple[Fraction, FockState], ...]:
    """Every state of grade <= grade_max as a (grade, state) pair, sorted by
    (grade, point, modes); each grade is computed once, here.

    Memoized: the census and recursion checks of one run share each basis.
    beta must be hashable (a tuple).
    """
    grade_max = Fraction(grade_max)
    if grade_max > GRADE_CAP:
        raise CutoffTooLarge(f"grade cutoff {grade_max} exceeds the cap {GRADE_CAP}")
    beta = tuple(Fraction(x) for x in beta)
    states = []
    for m in L.enumerate_vectors(beta, grade_max):
        budget = grade_max - Fraction(L.norm2(m)) / 2
        for modes in _colored_multisets(int(budget), L.dim):
            s = FockState(m, modes)
            states.append((s.grade(L), s))
    states.sort(key=lambda gs: (gs[0], gs[1].point, gs[1].modes))
    return tuple(states)


def apply_mode(
    L: EvenLattice, h: Sequence, n: int, state: FockState
) -> Dict[FockState, complex]:
    """Action of the mode h(n) on a basis state, as a state -> coefficient map.

    Creation (n < 0) appends an excitation per direction with coefficient
    h_i; annihilation (n > 0) removes one matching-mode excitation with
    coefficient n * <h, e_j> * multiplicity; h(0) scales by <h, m>.  This
    normalization realizes [h(m), h'(n)] = m <h, h'> delta_{m+n,0}.
    """
    d = L.dim
    g = L.gram
    out: Dict[FockState, complex] = {}
    if n == 0:
        lam = complex(L.inner(h, [float(x) for x in state.point]))
        if lam != 0:
            out[state] = lam
        return out
    if n < 0:
        k = -n
        for i in range(d):
            hi = complex(h[i])
            if hi == 0:
                continue
            new = FockState(state.point, state.modes + ((k, i),))
            out[new] = out.get(new, 0j) + hi
        return out
    # n > 0: annihilate
    mult: Dict[int, int] = {}
    for mode, i in state.modes:
        if mode == n:
            mult[i] = mult.get(i, 0) + 1
    for i, mu in mult.items():
        pair = complex(sum(h[a] * g[a][i] for a in range(d)))
        coeff = mu * n * pair
        if coeff == 0:
            continue
        modes = list(state.modes)
        modes.remove((n, i))
        new = FockState(state.point, tuple(modes))
        out[new] = out.get(new, 0j) + coeff
    return out


def apply_word(
    L: EvenLattice, ops: Sequence[Tuple[Sequence, int]], state: FockState
) -> Dict[FockState, complex]:
    """Apply a product of modes ops = [(h_1, n_1), ..., (h_r, n_r)] to a
    state, rightmost operator first, returning the expanded combination."""
    current: Dict[FockState, complex] = {state: 1.0 + 0j}
    for h, n in reversed(list(ops)):
        nxt: Dict[FockState, complex] = {}
        for s, c in current.items():
            for s2, c2 in apply_mode(L, h, n, s).items():
                nxt[s2] = nxt.get(s2, 0j) + c * c2
        current = nxt
    return current


def diagonal_entry(
    L: EvenLattice, ops: Sequence[Tuple[Sequence, int]], state: FockState
) -> complex:
    """Coefficient of `state` in ops applied to `state` (one trace term)."""
    return apply_word(L, ops, state).get(state, 0j)


def census_by_grade(L: EvenLattice, beta: Sequence, grade_max) -> dict:
    """{grade: {lattice point: number of states}} by literal enumeration."""
    out: dict = {}
    for g, s in build_basis(L, beta, grade_max):
        bucket = out.setdefault(g, {})
        bucket[s.point] = bucket.get(s.point, 0) + 1
    return out


def group_census_by_phase(L: EvenLattice, census: dict, a: Sequence) -> dict:
    """Regroup a {grade: {point: count}} census by the zero-mode phase.

    For rational a the eigenvalue <a, m> of a(0) on every state over m is an
    exact rational, so the weighted trace per grade is determined by the map
    {<a, m> mod 1: count}.  Comparing these groupings between the literal
    and closed-form censuses checks the zero-mode insertion exactly, with no
    floating point.
    """
    a = tuple(Fraction(x) for x in a)
    out: dict = {}
    for grade, bucket in census.items():
        grouped: dict = {}
        for m, count in bucket.items():
            phase = Fraction(L.inner(a, m)) % 1
            grouped[phase] = grouped.get(phase, 0) + count
        out[grade] = grouped
    return out


def s_function_trace(
    L: EvenLattice,
    beta: Sequence,
    vectors: Sequence[Sequence],
    x_span: int,
    q_order: int,
) -> BiSeries:
    """Literal two-variable trace of one or two weight-one insertions.

    For one vector v: tr v(0) q^{L(0)-d/24}, an x-independent series.  For
    two vectors: sum_{|k| <= x_span} x^k tr v1(k) v2(-k) q^{L(0)-d/24}, the
    only diagonal piece of Y(v1, q_{z1}) Y(v2, q_{z2}) q_{z1} q_{z2} since
    the total mode degree must vanish for a graded trace; x = q_{z2 - z1}.

    Every trace is a finite exact sum over the grade <= q_order basis, so
    coefficients are trusted through lattice grade q_order in q and the full
    |k| <= x_span window in x.
    """
    if len(vectors) not in (1, 2):
        raise ValueError("only one or two insertion vectors are supported")
    beta = tuple(Fraction(x) for x in beta)
    basis = build_basis(L, beta, q_order)
    qden = math.lcm(24, *(g.denominator for g, _ in basis))
    shift = Fraction(L.dim, 24)
    coeffs: dict = {}

    def add(k: int, grade: Fraction, val: complex):
        if val == 0:
            return
        key = (k, int((grade - shift) * qden))
        coeffs[key] = coeffs.get(key, 0j) + val

    if len(vectors) == 1:
        (v,) = vectors
        for g, s in basis:
            add(0, g, diagonal_entry(L, [(v, 0)], s))
        x_lo = x_hi = 0
    else:
        v1, v2 = vectors
        x_lo, x_hi = -x_span, x_span
        for g, s in basis:
            for k in range(-x_span, x_span + 1):
                add(k, g, diagonal_entry(L, [(v1, k), (v2, -k)], s))
    q_top = int((Fraction(q_order) - shift) * qden)
    return BiSeries(x_lo, x_hi, q_top, coeffs, qden, x_exact=False)


def verify_trace_recursion(
    L: EvenLattice,
    beta: Sequence,
    vectors: Sequence[Sequence],
    x_span: int,
    q_order: int,
) -> dict:
    """Compare the literal trace against its closed-form recursion.

    One insertion: the literal trace must equal the zero-mode-weighted
    character.  Two insertions: literal = weighted character (both zero
    modes) + <-v1,v2> * kernel/(2 pi i)^2 * character, everything expanded
    as BiSeries and compared coefficient-by-coefficient on the common
    trusted window.  The right-hand side never touches Fock states.
    """
    beta = tuple(Fraction(x) for x in beta)
    lhs = s_function_trace(L, beta, vectors, x_span, q_order)
    rhs = graded_trace_series(L, beta, q_order, weights=list(vectors))
    if len(vectors) == 2:
        v1, v2 = vectors
        pairing = state_pairing(L, [-complex(x) for x in v1], v2)
        kernel = p2_series(x_span, q_order).scale(pairing / TWO_PI_I**2)
        rhs = rhs + kernel * graded_trace_series(L, beta, q_order)
    err = lhs.max_abs_diff(rhs)
    return {
        "max_error": err,
        "x_span": x_span,
        "q_order": q_order,
        "n_insertions": len(vectors),
        "basis_size": len(build_basis(L, beta, q_order)),
    }
