"""Acceptance suite: one test (and one pass/fail line) per shipping criterion.

Each test states its tolerance inline and prints a summary line on success.
Criterion 9 owns the whole-suite wall-clock bound, so it is defined last;
everything else runs in numeric order.
"""

import math
import time
from fractions import Fraction

import numpy as np

from thetatrace import cli
from thetatrace.fock import census_by_grade, group_census_by_phase, verify_trace_recursion
from thetatrace.involutions import (
    closed_form_fixed_count,
    count_with_fixed,
    exponential_regroup_check,
    list_involutions,
    verify_multinomial_identity,
    verify_sign_lemma,
)
from thetatrace.lattice import EvenLattice
from thetatrace.modular import (
    S,
    T,
    adapted_samples,
    fit_and_verify,
    fit_transition,
    random_words,
    s_matrix_prediction,
    verify_cocycle,
    verify_relation,
    word_to_matrix,
)
from thetatrace.qseries import g2_eval, jacobi_theta
from thetatrace.trace import insertion_counts_by_grade, recursion_series, theta_w

_T0 = time.perf_counter()

L4 = EvenLattice(((4,),), name="norm4")
A2 = EvenLattice(((2, -1), (-1, 2)), name="a2")
HALF = Fraction(1, 2)


CFG4 = cli.RunConfig(lattice=L4, lattice_label="builtin-norm4")
CFGA2 = cli.RunConfig(lattice=A2, lattice_label="a2")
CHECKS = {name: check for rows in cli.SUITE_CHECKS.values() for name, check, _ in rows}


def test_c01_classical_theta_inversion_table():
    """All four half-characteristic thetas satisfy the inversion law at 20
    seeded points, max error < 1e-10, in under 5 seconds."""
    start = time.perf_counter()
    err = CHECKS["theta-inversion-table"](CFG4)
    elapsed = time.perf_counter() - start
    assert err < 1e-10
    assert elapsed < 5.0
    print(f"c01 theta inversion table: max_error={err:.3e} tol=1e-10 {elapsed:.2f}s PASS")


def test_c02_kernel_eisenstein_weierstrass_laws():
    """G2, Weierstrass p, and the two-variable kernel transform with weight
    two (G2 and the kernel with the f(f tau + d) anomaly) under S, T, TST,
    max error < 1e-9; G2(i) = pi to 1e-12."""
    errs = {
        "g2": cli.check_g2_law(CFG4),
        "weierstrass": cli.check_weierstrass_law(CFG4),
        "kernel": cli.check_p2_law(CFG4),
    }
    g2_gap = abs(g2_eval(1j) - math.pi)
    for name, err in errs.items():
        assert err < 1e-9, (name, err)
    assert g2_gap < 1e-12
    worst = max(errs.values())
    print(f"c02 weight-two laws: max_error={worst:.3e} tol=1e-9 g2(i) gap={g2_gap:.1e} PASS")


def test_c03_coset_theta_dictionary():
    """The four coset thetas of the norm-4 lattice assemble into the four
    classical thetas, max error < 1e-10 at 20 seeded points."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.8, 1.6))
        w = [theta_w(L4, (Fraction(j, 4),), (z / 2,), tau) for j in range(4)]
        combos = [
            (w[0] + w[2], jacobi_theta(0, 0, z, tau)),
            (w[0] - w[2], jacobi_theta(0, HALF, z, tau)),
            (w[1] + w[3], jacobi_theta(HALF, 0, z, tau)),
            (1j * w[1] - 1j * w[3], jacobi_theta(HALF, HALF, z, tau)),
        ]
        for lhs, rhs in combos:
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    print(f"c03 theta dictionary: max_error={worst:.3e} tol=1e-10 PASS")


def test_c04_two_insertion_recursion():
    """Literal two-insertion traces over the first and middle norm-4 cosets
    match the kernel recursion through x-span 4, q-order 6, < 1e-9, < 60 s."""
    start = time.perf_counter()
    v1, v2 = (1.0,), (0.6,)
    worst = 0.0
    for beta in [(Fraction(0),), (Fraction(1, 2),)]:
        closed = recursion_series(L4, beta, [v1, v2], 4, 6)
        worst = max(worst, verify_trace_recursion(L4, beta, [v1, v2], 4, 6, closed))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 60.0
    print(f"c04 two-insertion recursion: max_error={worst:.3e} tol=1e-9 {elapsed:.1f}s PASS")


def test_c05_pairing_combinatorics_exact():
    """Sign lemma for every involution through n=8; fixed-point counts match
    the closed form through n=12; the multinomial identity holds for
    p, r <= 30; the exponential regrouping matches through degree 12."""
    for n in range(2, 9):
        for sigma in list_involutions(n):
            if sigma:
                assert verify_sign_lemma(sigma), sigma
    for n in range(1, 13):
        for r in range(n % 2, n + 1, 2):
            assert count_with_fixed(n, r) == closed_form_fixed_count((n - r) // 2, r)
    for p in range(31):
        for r in range(31):
            if p or r:
                assert verify_multinomial_identity(p, r), (p, r)
    rep = exponential_regroup_check(12, 12)
    assert rep["equal"] is True
    print(f"c05 pairing combinatorics: {rep['terms_checked']} regrouped terms, all exact PASS")


def test_c06_t_shift_phase_builtin():
    """tau -> tau+1 is the predicted diagonal phase on every norm-4 coset,
    max error < 1e-12 over 20 seeded points."""
    err = cli.check_t_phase(CFG4)
    assert err < 1e-12
    print(f"c06 t-shift phase: max_error={err:.3e} tol=1e-12 PASS")


def test_c07_s_transition_norm4():
    """The S transition matrix fitted from 8 samples validates on 20 held-out
    points < 1e-8, and every entry has modulus 1/2 within 1e-8."""
    a, _ = fit_transition(L4, S, adapted_samples(S, 1, 8, seed=0))
    holdout = verify_relation(L4, S, adapted_samples(S, 1, 20, seed=10**6), a)
    assert holdout < 1e-8
    moduli_gap = float(np.max(np.abs(np.abs(a) - 0.5)))
    assert moduli_gap < 1e-8
    gauss_gap = float(np.max(np.abs(np.subtract(a, s_matrix_prediction(L4)))))
    assert gauss_gap < 1e-8
    print(
        f"c07 S transition: holdout={holdout:.3e} moduli gap={moduli_gap:.1e} "
        f"gauss gap={gauss_gap:.1e} tol=1e-8 PASS"
    )


def test_c08_random_words_and_cocycle():
    """Five seeded words of length <= 6 each admit a fitted transition matrix
    validating < 1e-7 on holdout, and independently fitted matrices satisfy
    the product rule for (S,T), (T,S), (S,S) within 1e-7."""
    worst_word = 0.0
    for i, word in enumerate(random_words(5, 6, seed=19)):
        alpha = word_to_matrix(word)
        worst_word = max(worst_word, fit_and_verify(L4, alpha, seed=23 + i)[2])
    assert worst_word < 1e-7
    worst_cocycle = 0.0
    for a, b in [(S, T), (T, S), (S, S)]:
        worst_cocycle = max(worst_cocycle, verify_cocycle(L4, a, b, seed=17))
    assert worst_cocycle < 1e-7
    print(
        f"c08 words and cocycle: word holdout={worst_word:.3e} "
        f"cocycle gap={worst_cocycle:.3e} tol=1e-7 PASS"
    )


def test_c10_fock_census_matches_closed_form():
    """Literal mode-operator bases agree exactly with the closed-form census
    per grade through grade 6 on all four norm-4 cosets, including the
    rational-phase zero-mode grouping."""
    for beta in L4.cosets:
        literal = census_by_grade(L4, beta, 6)
        closed = insertion_counts_by_grade(L4, beta, 6)
        assert literal == closed, beta
        for a in ((Fraction(1, 4),), (Fraction(1, 3),)):
            assert group_census_by_phase(L4, beta, literal, a) == group_census_by_phase(
                L4, beta, closed, a
            ), (beta, a)
    print("c10 module census: literal == closed form through grade 6, all cosets PASS")


def test_c09_rank_two_lattice_and_suite_runtime():
    """The t-shift phase and fitted S matrix hold on the rank-two hexagonal
    lattice within 1e-7, and the whole acceptance suite finishes in under
    five minutes.  Defined last so the wall-clock covers every criterion."""
    err_t = cli.check_t_phase(CFGA2)
    assert err_t < 1e-7
    a, _, holdout = fit_and_verify(A2, S, seed=0)
    assert holdout < 1e-7
    moduli_gap = float(np.max(np.abs(np.abs(a) - 1 / math.sqrt(3))))
    assert moduli_gap < 1e-7
    gauss_gap = float(np.max(np.abs(np.subtract(a, s_matrix_prediction(A2)))))
    assert gauss_gap < 1e-7
    elapsed = time.perf_counter() - _T0
    assert elapsed < 300.0
    print(
        f"c09 rank-two lattice: t-phase={err_t:.3e} S holdout={holdout:.3e} "
        f"moduli gap={moduli_gap:.1e} tol=1e-7; suite {elapsed:.0f}s < 300s PASS"
    )
