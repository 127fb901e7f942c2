"""Literal graded module spaces over lattice cosets.

A basis state is a pair (point, modes): the integer offsets n of a point
m = beta + n of L + beta and a sorted tuple of oscillator excitations (mode
>= 1, basis direction); its L(0)-grade is <m,m>/2 plus the sum of the modes,
as an integer key over the coset's denominator.  In V_L = M(1) (x) C[L+beta]
every h(n) with n != 0 acts on the modes alone and h(0) is the scalar <h, m>
at the exact point m, so modes act symbolically, in the number type of h
(float, int or Fraction), and products of operators are exact on any state:
traces over all states of grade <= N are exact through q^N.

This module imports only `lattice` and `qseries`: it is the oracle that
the closed forms of `trace` are checked against, and the literal side of
the two-variable trace recursion

    sum_k x^k tr v1(k) v2(-k) q^{L(0)-d/24}
        = tr v1(0) v2(0) q^{L(0)-d/24}
          + <-v1, v2> P2(x, q)/(2 pi i)^2 * tr q^{L(0)-d/24},

whose right-hand side is `trace.recursion_series`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .lattice import EvenLattice
from .qseries import GRADE_CAP, BiSeries, TruncatedSeries  # noqa: F401  build_basis's cap


def _colored_multisets(budget: int, dims: int):
    """All multisets of (n, dir) with total n <= budget, as ascending tuples."""

    def rec(remaining: int, low: Tuple[int, int]):
        yield ()
        n_lo, i_lo = low
        for n in range(n_lo, remaining + 1):
            for i in range(i_lo if n == n_lo else 0, dims):
                for rest in rec(remaining - n, (n, i)):
                    yield ((n, i),) + rest

    try:
        yield from rec(budget, (1, 0))
    finally:
        rec = None  # rec refers to itself: break the cycle so it is freed now


@lru_cache(maxsize=None, typed=True)
def build_basis(L: EvenLattice, beta: Sequence, grade_max: int) -> Tuple[int, tuple]:
    """(den, every state of grade <= grade_max as a sorted (key, offsets,
    modes) triple): den and the point's key from enumerate_vectors, and
    key = den * grade, computed once, here.

    Memoized, typed so that True or 1.0 never reuse the basis of 1: the
    census and recursion checks of one run share each basis.  beta must be
    hashable (a tuple).  enumerate_vectors refuses a coset outside the dual
    lattice (L + beta is then no module) and a bad grade_max.
    """
    den, pairs = L.enumerate_vectors(beta, grade_max)
    states = []
    for n, key in pairs:
        for modes in _colored_multisets((grade_max * den - key) // den, L.dim):
            states.append((key + den * sum(j for j, _ in modes), n, modes))
    states.sort()
    return den, tuple(states)


def apply_mode(L: EvenLattice, h: Sequence, n: int, modes: tuple) -> dict:
    """Action of the mode h(n), n != 0, on the excitations of a state, as a
    modes -> coefficient map.

    Creation (n < 0) adds an excitation per direction with coefficient h_i;
    annihilation (n > 0) removes one matching-mode excitation with
    coefficient n * <h, e_j> * multiplicity.  No such mode moves the lattice
    point; h(0) is the scalar <h, m>, which `apply_word` applies.  This
    normalization realizes [h(m), h'(n)] = m <h, h'> delta_{m+n,0}.
    """
    if n == 0:
        raise ValueError("h(0) acts on the lattice point; use apply_word")
    d = L.dim
    g = L.gram
    out: dict = {}
    if n < 0:
        k = -n
        for i in range(d):
            hi = h[i]
            if hi == 0:
                continue
            new = tuple(sorted(modes + ((k, i),)))
            out[new] = out.get(new, 0) + hi
        return out
    # n > 0: annihilate
    mult: Dict[int, int] = {}
    for mode, i in modes:
        if mode == n:
            mult[i] = mult.get(i, 0) + 1
    for i, mu in mult.items():
        pair = sum(h[a] * g[a][i] for a in range(d))
        coeff = mu * n * pair
        if coeff == 0:
            continue
        rest = list(modes)
        rest.remove((n, i))
        new = tuple(rest)
        out[new] = out.get(new, 0) + coeff
    return out


def apply_word(
    L: EvenLattice, ops: Sequence[Tuple[Sequence, int]], point: tuple, modes: tuple
) -> dict:
    """Apply a product of modes ops = [(h_1, n_1), ..., (h_r, n_r)] to the
    state (point, modes), rightmost operator first, returning the expanded
    combination as a modes -> coefficient map over the same point."""
    current: dict = {modes: 1}
    for h, n in reversed(list(ops)):
        if n == 0:
            lam = L.inner(h, point)
            current = {s: c * lam for s, c in current.items()} if lam != 0 else {}
            continue
        nxt: dict = {}
        for s, c in current.items():
            for s2, c2 in apply_mode(L, h, n, s).items():
                nxt[s2] = nxt.get(s2, 0) + c * c2
        current = nxt
    return current


def diagonal_entry(
    L: EvenLattice, ops: Sequence[Tuple[Sequence, int]], point: tuple, modes: tuple
):
    """Coefficient of the state (point, modes) in ops applied to it (one
    trace term)."""
    return apply_word(L, ops, point, modes).get(modes, 0)


def census_by_grade(L: EvenLattice, beta: Sequence, grade_max: int) -> dict:
    """{grade key: {offsets: number of states}} of build_basis."""
    beta = tuple(Fraction(x) for x in beta)
    out: dict = {}
    for key, n, _ in build_basis(L, beta, grade_max)[1]:
        bucket = out.setdefault(key, {})
        bucket[n] = bucket.get(n, 0) + 1
    return out


def group_census_by_phase(L: EvenLattice, beta: Sequence, census: dict, a: Sequence) -> dict:
    """Regroup a {key: {offsets: count}} census of L + beta by zero-mode phase.

    For rational a the eigenvalue <a, m> of a(0) on every state over m is an
    exact rational, so the phase trace tr e^{2 pi i a(0)} per grade is
    determined by the map {<a, m> mod 1: count}, with no floating point.  A
    regrouping of the census, it adds nothing to a comparison of two equal
    censuses; the zero mode's exact literal check is the one-insertion
    recursion.
    """
    a = tuple(Fraction(x) for x in a)
    beta = tuple(Fraction(x) for x in beta)
    out: dict = {}
    for grade, bucket in census.items():
        grouped: dict = {}
        for n, count in bucket.items():
            phase = L.inner(a, [b + x for b, x in zip(beta, n)]) % 1
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
    |k| <= x_span window in x.  One pass over the basis sums the diagonal
    entry of every word of the x window on each state.

    Each entry is computed once per distinct argument: a word v1(k) v2(-k)
    with k != 0 acts on the modes tuple alone, and the zero-mode word is the
    scalar prod <v, m> on every state over m, so those entries are keyed by
    (k, modes) and (0, m).  A reused entry is the very number it replaces,
    and the basis is summed in the same order.
    """
    if len(vectors) not in (1, 2):
        raise ValueError("only one or two insertion vectors are supported")
    if any(len(v) != L.dim for v in vectors):
        raise ValueError(f"insertion vectors need {L.dim} coordinates")
    if isinstance(x_span, bool) or not isinstance(x_span, int) or x_span < 0:
        raise ValueError(f"x_span must be a nonnegative int, got {x_span!r}")
    if isinstance(q_order, bool) or not isinstance(q_order, int) or q_order < 0:
        raise ValueError(f"q_order must be a nonnegative int, got {q_order!r}")
    if len(vectors) == 1:
        x_span = 0  # tr v(0) q^{L(0)-d/24} does not depend on x
        words = [(0, [(vectors[0], 0)])]
    else:
        v1, v2 = vectors
        words = [(k, [(v1, k), (v2, -k)]) for k in range(-x_span, x_span + 1)]
    beta = tuple(Fraction(x) for x in beta)
    den, basis = build_basis(L, beta, q_order)
    qden = math.lcm(24, den)
    scale, shift = qden // den, L.dim * qden // 24  # q^{key/den - d/24}
    entries: dict = {}  # (k, modes) or (0, offsets) -> diagonal entry
    coeffs: dict = {}
    for key, n, modes in basis:
        q_key = key * scale - shift
        for k, word in words:
            memo = (k, modes) if k else (0, n)
            val = entries.get(memo)
            if val is None:
                point = n if k else [b + x for b, x in zip(beta, n)]
                val = entries[memo] = diagonal_entry(L, word, point, modes)
            if val:
                coeffs[k, q_key] = coeffs.get((k, q_key), 0) + val
    return BiSeries(-x_span, x_span, q_order * qden - shift, coeffs, qden)


def verify_trace_recursion(
    L: EvenLattice,
    beta: Sequence,
    vectors: Sequence[Sequence],
    x_span: int,
    q_order: int,
    closed: BiSeries | TruncatedSeries,
) -> float:
    """The largest coefficient gap between the literal trace of
    s_function_trace and its closed form, such as trace.recursion_series of
    the same arguments, on the common trusted window.  The closed form of
    one insertion is a TruncatedSeries, which BiSeries.max_abs_diff lifts to
    x^0.
    """
    return s_function_trace(L, beta, vectors, x_span, q_order).max_abs_diff(closed)
