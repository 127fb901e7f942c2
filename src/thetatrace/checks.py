"""Every library-level identity as a named check, grouped into suites.

SUITE_CHECKS maps each suite to its (name, check, tolerance) rows.  A check
takes the run's config (a `cli.RunConfig`: lattice, lattice_label, seed) and
returns its max error as a float; `cli.run_suite` times each row and builds
the report.

The package registers this module as a lazy layer, so a `fit` or an
`expand` never compiles it.  It imports nothing from `cli`, which under
`python -m thetatrace.cli` is `__main__`: such an import would run `cli` a
second time.  It reaches `fock` and `involutions` through the lazy modules
that the package registered, so a suite that calls neither compiles neither.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Tuple

from . import fock, involutions, modular
from .lattice import EvenLattice
from .qseries import (
    IM_TAU_FLOOR,
    dedekind_eta,
    eta_eval,
    g2_eval,
    jacobi_theta,
    p2_eval,
    theta_s_constant,
    weierstrass_p,
)
from .trace import TracePoint, insertion_counts_by_grade, recursion_series, t_phase, z_table

EXACT_TOL = 0.5  # exact integer checks report max_error 0 or 1
N_POINTS = 20  # sample points of the special-function, theta and t-phase checks
X_SPAN = 4  # x-exponent span of the two-insertion recursion checks
Q_ORDER = 6  # q-order of the recursion checks and the censuses
HALF = Fraction(1, 2)  # the nonzero theta characteristic
MATS = (modular.S, modular.T, modular.T * modular.S * modular.T)  # alphas of the weight-two laws


def _sample_taus(seed: int, count: int, im_lo: float = 0.6, for_laws: bool = False):
    """With for_laws set, a tau is redrawn until alpha.tau for every alpha of
    MATS also clears IM_TAU_FLOOR (Im(TST.tau) = Im tau / |tau + 1|^2
    reaches 0.244 in this box); seeds that never redraw keep their samples."""
    rng = modular.seeded_rng(seed)
    out = []
    while len(out) < count:
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(im_lo, 1.7))
        if not for_laws or all(a.act_tau(tau).imag >= IM_TAU_FLOOR for a in MATS):
            out.append(tau)
    return out


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def _eta_law(seed: int, image: Callable, factor: Callable) -> float:
    """max |eta(image(tau)) - factor(tau) eta(tau)| over N_POINTS taus."""
    return max(
        abs(eta_eval(image(tau)) - factor(tau) * eta_eval(tau))
        for tau in _sample_taus(seed, N_POINTS)
    )


def check_eta_shift(cfg) -> float:
    w = cmath.exp(1j * cmath.pi / 12)
    return _eta_law(cfg.seed + 1, lambda tau: tau + 1, lambda tau: w)


def check_eta_inversion(cfg) -> float:
    return _eta_law(cfg.seed + 2, lambda tau: -1 / tau, lambda tau: cmath.sqrt(-1j * tau))


def check_eta_series(cfg) -> float:
    series = dedekind_eta(36)
    return max(
        abs(eta_eval(tau) - series.eval_tau(tau))
        for tau in _sample_taus(cfg.seed + 3, 6, im_lo=0.9)
    )


def check_g2_at_i(cfg) -> float:
    return abs(g2_eval(1j) - math.pi)


def _weight_two_law(fn: Callable, taus: list, rng, anomaly: bool) -> float:
    """max |fn(z/j, alpha.tau) - j^2 fn(z, tau) [+ 2 pi i f j]| over MATS
    x taus, with j = f tau + d and the bracket present when anomaly is set.
    Each (alpha, tau) draws its z from rng; without an rng, z = 0."""
    worst, z = 0.0, 0j
    for alpha in MATS:
        f, d = alpha.f, alpha.d
        for tau in taus:
            if rng is not None:
                z = rng.uniform(0.12, 0.88) + rng.uniform(-0.4, 0.4) * tau
            j = f * tau + d
            rhs = j * j * fn(z, tau)
            if anomaly:
                rhs = rhs - 2j * cmath.pi * f * j
            worst = max(worst, abs(fn(z / j, alpha.act_tau(tau)) - rhs))
    return worst


def _p2_full(z: complex, tau: complex) -> complex:
    # periodicity-reducing evaluation path, defined for every non-lattice z
    return weierstrass_p(z, tau) + g2_eval(tau)


def check_g2_law(cfg) -> float:
    taus = _sample_taus(cfg.seed + 4, 8, for_laws=True)
    return _weight_two_law(lambda z, tau: g2_eval(tau), taus, None, True)


def check_weierstrass_law(cfg) -> float:
    rng = modular.seeded_rng(cfg.seed + 5)
    return _weight_two_law(weierstrass_p, _sample_taus(cfg.seed + 6, 6, for_laws=True), rng, False)


def check_p2_law(cfg) -> float:
    rng = modular.seeded_rng(cfg.seed + 7)
    return _weight_two_law(_p2_full, _sample_taus(cfg.seed + 8, 6, for_laws=True), rng, True)


def check_p2_annulus(cfg) -> float:
    rng = modular.seeded_rng(cfg.seed + 9)
    worst = 0.0
    for tau in _sample_taus(cfg.seed + 10, 10, im_lo=0.5):
        # Im z/Im tau in (0.55, 0.9): weierstrass_p must reduce z by tau
        z = rng.uniform(0.1, 0.9) + rng.uniform(0.55, 0.9) * tau
        worst = max(worst, abs(p2_eval(z, tau) - _p2_full(z, tau)))
    return worst


# ---------------------------------------------------------------------------
# classical theta table
# ---------------------------------------------------------------------------


def _theta_table(seed: int, gap: Callable) -> float:
    """max |gap(h, k, z, tau)| over N_POINTS draws of (tau, z) and the four
    characteristics h, k in {0, 1/2}."""
    rng = modular.seeded_rng(seed)
    worst = 0.0
    for _ in range(N_POINTS):
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.5, 1.7))
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        for h in (0, HALF):
            for k in (0, HALF):
                worst = max(worst, abs(gap(h, k, z, tau)))
    return worst


def _theta_inversion_gap(h, k, z: complex, tau: complex) -> complex:
    front = cmath.sqrt(-1j * tau) * cmath.exp(1j * cmath.pi * z * z / tau)
    rhs = theta_s_constant(h, k) * front * jacobi_theta(k, h, z, tau)
    return jacobi_theta(h, k, z / tau, -1 / tau) - rhs


def _theta_shift_gap(h, k, z: complex, tau: complex) -> complex:
    """tau -> tau+1 sends theta_{h,k} to e^{pi i h(1-h)} theta_{h,h+k-1/2}
    in characteristic conventions; verified here in the equivalent direct
    form theta_{h,k}(z, tau+1) = e^{pi i h^2} theta_{h,k'}(z, tau) with
    k' = k + h - 1/2 reduced mod 1 into {0, 1/2}."""
    phase = cmath.exp(1j * cmath.pi * float(h) ** 2)
    return jacobi_theta(h, k, z, tau + 1) - phase * jacobi_theta(h, (k + h + HALF) % 1, z, tau)


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------


def check_fixed_counts(cfg) -> float:
    for n in range(1, involutions.N_CAP + 1):
        for r in range(n % 2, n + 1, 2):
            p = (n - r) // 2
            if involutions.count_with_fixed(n, r) != involutions.closed_form_fixed_count(p, r):
                return 1.0
    return 0.0


def check_sign_lemma(cfg) -> float:
    # enumerate_decompositions partitions the pairs as opaque items, so the
    # signed sum depends on the pair count p alone: one involution for each
    # p = 1..4, the pair counts of the involutions of {1..8}
    for p in range(1, 5):
        if not involutions.verify_sign_lemma([(2 * k + 1, 2 * k + 2) for k in range(p)]):
            return 1.0
    return 0.0


def check_decomposition_products(cfg) -> float:
    # {1..6}'s involutions hold those of {1..2} and {1..4}
    for s in involutions.list_involutions(6):
        if not s:
            continue
        for parts in involutions.enumerate_decompositions(s):
            if not involutions.decomposition_is_valid(s, parts):
                return 1.0
    return 0.0


def check_multinomial(cfg) -> float:
    ok = all(
        involutions.verify_multinomial_identity(p, r)
        for p in range(31)
        for r in range(31)
    )
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# n-point traces on the literal module
# ---------------------------------------------------------------------------


def _insertion_vectors(dim: int) -> Tuple[tuple, tuple]:
    """The integer vectors (1, 4, ..., dim^2) and (dim^2, ..., 4, 1).

    <v, m> is an integer for an integer v and a point m of a dual coset, and
    P2/(2 pi i)^2 has integer coefficients, so both sides of the recursion
    are exact integer series and any mismatch is at least 1.  A point moved
    by a basis vector e_j moves <v, m> by (G v)_j, which no check sees where
    it is 0.  An arithmetic progression such as (1, 2, ..., dim) has
    (G v)_j = 0 for every simple root of A_dim but the last; the squares
    have no zero (G v)_j on any shipped lattice."""
    v = tuple((i + 1) ** 2 for i in range(dim))
    return v, v[::-1]


def _recursion(cfg, n_insertions: int, mid: bool) -> float:
    """The literal trace against its closed form, recursion_series, with the
    first n_insertions vectors.  Two insertions run on the first or the
    middle coset.  One insertion, the exact check of the zero mode v(0) on
    the literal module, runs on the first coset that is not its own
    negative: on one that is, tr v(0) q^(L(0) - d/24) vanishes by m -> -m.
    It vanishes on every coset of d4, whose cosets are all their own
    negatives, and of a2, a3 and a2a2, whose shells sum to 0 under their
    Weyl groups; there the check sees only faults that break the symmetry."""
    L = cfg.lattice
    if n_insertions == 1:
        beta = next((b for b in L.cosets if any((2 * x).denominator > 1 for x in b)), L.cosets[0])
    else:
        beta = L.cosets[len(L.cosets) // 2 if mid else 0]
    vectors = list(_insertion_vectors(L.dim)[:n_insertions])
    closed = recursion_series(L, beta, vectors, X_SPAN, Q_ORDER)
    return fock.verify_trace_recursion(L, beta, vectors, X_SPAN, Q_ORDER, closed)


def check_fock_census(cfg) -> float:
    L = cfg.lattice
    ok = all(
        fock.census_by_grade(L, beta, Q_ORDER) == insertion_counts_by_grade(L, beta, Q_ORDER)
        for beta in L.cosets
    )
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def check_t_phase(cfg) -> float:
    L = cfg.lattice
    pts = modular.sample_points(L.dim, N_POINTS, cfg.seed + 13)
    lhs = z_table(L, [TracePoint(pt.a, pt.b, pt.tau + 1) for pt in pts])
    shifted = [TracePoint(tuple(x + y for x, y in zip(pt.a, pt.b)), pt.b, pt.tau) for pt in pts]
    phases = [t_phase(L, beta) for beta in L.cosets]
    rhs = [[p * z for p, z in zip(phases, row)] for row in z_table(L, shifted)]
    return modular.max_gap(lhs, rhs)


def _fit_gap(cfg, alpha, target: Callable) -> float:
    """Largest entry of |A(alpha) - target(L)| for the run's fit of alpha."""
    a, _ = modular.fit_alpha(cfg.lattice, alpha, cfg.seed)
    return modular.max_gap(a, target(cfg.lattice))


def _identity(L: EvenLattice) -> list:
    m = len(L.cosets)
    return [[float(h == k) for k in range(m)] for h in range(m)]


def _holdout(L: EvenLattice, alpha, seed: int) -> float:
    return modular.fit_and_verify(L, alpha, seed)[2]


def _cocycle(cfg, a, b) -> float:
    return modular.verify_cocycle(cfg.lattice, a, b, seed=cfg.seed + 17)


def check_random_words(cfg) -> float:
    # words that multiply out to the same matrix share one holdout
    alphas = dict.fromkeys(map(modular.word_to_matrix, modular.random_words(5, 6, cfg.seed + 19)))
    worst = 0.0
    for alpha in alphas:
        worst = max(worst, _holdout(cfg.lattice, alpha, cfg.seed + 23))
    return worst


def check_word_roundtrip(cfg) -> float:
    # decompose_ST checks its own word against ±alpha and raises
    # ThetaTraceError on a mismatch, which _run_check reports as inf
    for word in modular.random_words(8, 6, cfg.seed + 29):
        modular.decompose_ST(modular.word_to_matrix(word))
    return 0.0


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

# suite -> [(name, check, tolerance)]; cli.run_suite raises a main-theorem
# tolerance to cli.GENERIC_TOL off the built-in Gram

SUITE_CHECKS = {
    "special-functions": [
        ("eta-shift", check_eta_shift, 1e-12),
        ("eta-inversion", check_eta_inversion, 1e-12),
        ("eta-series-consistency", check_eta_series, 1e-12),
        ("g2-at-i", check_g2_at_i, 1e-12),
        ("g2-transformation", check_g2_law, 1e-9),
        ("weierstrass-transformation", check_weierstrass_law, 1e-9),
        ("p2-transformation", check_p2_law, 1e-9),
        ("p2-annulus-consistency", check_p2_annulus, 1e-9),
    ],
    "theta-classical": [
        (
            "theta-inversion-table",
            lambda cfg: _theta_table(cfg.seed + 11, _theta_inversion_gap),
            1e-10,
        ),
        ("theta-shift-table", lambda cfg: _theta_table(cfg.seed + 12, _theta_shift_gap), 1e-10),
    ],
    "combinatorics": [
        ("fixed-point-counts", check_fixed_counts, EXACT_TOL),
        ("decomposition-products", check_decomposition_products, EXACT_TOL),
        ("sign-lemma", check_sign_lemma, EXACT_TOL),
        ("multinomial-identity", check_multinomial, EXACT_TOL),
    ],
    "npoint": [
        ("recursion-one-insertion", lambda cfg: _recursion(cfg, 1, False), EXACT_TOL),
        ("recursion-two-insertions-first-coset", lambda cfg: _recursion(cfg, 2, False), EXACT_TOL),
        ("recursion-two-insertions-mid-coset", lambda cfg: _recursion(cfg, 2, True), EXACT_TOL),
        ("fock-census", check_fock_census, EXACT_TOL),
    ],
    "main-theorem": [
        ("t-phase-identity", check_t_phase, 1e-12),
        (
            "fit-t-diagonal",
            lambda cfg: _fit_gap(cfg, modular.T, modular.t_matrix_prediction),
            1e-10,
        ),
        ("holdout-t", lambda cfg: _holdout(cfg.lattice, modular.T, cfg.seed), 1e-10),
        (
            "fit-s-oracle",
            lambda cfg: _fit_gap(cfg, modular.S, modular.s_matrix_prediction),
            1e-8,
        ),
        ("holdout-s", lambda cfg: _holdout(cfg.lattice, modular.S, cfg.seed), 1e-8),
        (
            "fit-identity",
            lambda cfg: _fit_gap(cfg, modular.IDENTITY, _identity),
            1e-10,
        ),
        ("cocycle-st", lambda cfg: _cocycle(cfg, modular.S, modular.T), 1e-7),
        ("cocycle-ts", lambda cfg: _cocycle(cfg, modular.T, modular.S), 1e-7),
        ("cocycle-ss", lambda cfg: _cocycle(cfg, modular.S, modular.S), 1e-7),
        ("random-words-holdout", check_random_words, 1e-7),
        ("word-decomposition-roundtrip", check_word_roundtrip, EXACT_TOL),
    ],
}
