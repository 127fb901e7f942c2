"""Verification harness: every library-level identity as a named check,
grouped into suites, with machine-readable JSON reports.

Report layout (schema 1):

    {"schema": 1, "suite": ..., "lattice": ..., "seed": ...,
     "checks": [{"name", "status", "max_error", "tolerance", "runtime_ms"}],
     "overall": "pass" | "fail"}

Reports are deterministic for a fixed seed and config except for the
runtime_ms fields.  Complex numbers are serialized as [re, im] pairs and
q-expansions as integer exponent numerators over a single shared
denominator.

`fock` and `involutions` load on first attribute access, by a LazyLoader and not
local imports, so a `fit` never compiles them and `sys.modules` still holds both.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import modular
from ._frozen import Frozen
from .errors import ConfigError, IllConditioned, LatticeFileError, ThetaTraceError
from .lattice import EvenLattice, load_lattice
from .qseries import (
    IM_TAU_FLOOR,
    dedekind_eta,
    eisenstein_g2,
    eta_eval,
    g2_eval,
    jacobi_theta,
    p2_eval,
    theta_s_constant,
    weierstrass_p,
)
from .trace import TracePoint, insertion_counts_by_grade, recursion_series, t_phase, z_table


def _lazy_layer(name: str):
    """thetatrace.<name> if imported, else registered in sys.modules and on
    the package now, its body compiled and run on first attribute access."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


fock, involutions = _lazy_layer("fock"), _lazy_layer("involutions")

DEFAULT_GRAM = ((4,),)
DEFAULT_LABEL = "builtin-norm4"

EXACT_TOL = 0.5  # exact integer checks report max_error 0 or 1
GENERIC_TOL = 1e-7  # floor of the main-theorem tolerances off the built-in Gram
N_POINTS = 20  # sample points of the special-function, theta and t-phase checks
X_SPAN = 4  # x-exponent span of the two-insertion recursion checks
Q_ORDER = 6  # q-order of the recursion checks and the censuses
HALF = Fraction(1, 2)  # the nonzero theta characteristic


class RunConfig(Frozen):
    _fields = ("lattice", "lattice_label", "seed")

    def __init__(self, lattice: EvenLattice, lattice_label: str, seed: int = 0):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "lattice_label", lattice_label)
        object.__setattr__(self, "seed", seed)


def _mats():
    t, s = modular.T, modular.S
    return [s, t, t * s * t]


def _sample_taus(seed: int, count: int, im_lo: float = 0.6, for_laws: bool = False):
    """With for_laws set, a tau is redrawn until alpha.tau for every alpha of
    _mats() also clears IM_TAU_FLOOR (Im(TST.tau) = Im tau / |tau + 1|^2
    reaches 0.244 in this box); seeds that never redraw keep their samples."""
    rng = modular.seeded_rng(seed)
    out = []
    while len(out) < count:
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(im_lo, 1.7))
        if not for_laws or all(a.act_tau(tau).imag >= IM_TAU_FLOOR for a in _mats()):
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


def check_eta_shift(cfg: RunConfig) -> float:
    w = cmath.exp(1j * cmath.pi / 12)
    return _eta_law(cfg.seed + 1, lambda tau: tau + 1, lambda tau: w)


def check_eta_inversion(cfg: RunConfig) -> float:
    return _eta_law(cfg.seed + 2, lambda tau: -1 / tau, lambda tau: cmath.sqrt(-1j * tau))


def check_eta_series(cfg: RunConfig) -> float:
    series = dedekind_eta(36)
    return max(
        abs(eta_eval(tau) - series.eval_tau(tau))
        for tau in _sample_taus(cfg.seed + 3, 6, im_lo=0.9)
    )


def check_g2_at_i(cfg: RunConfig) -> float:
    return abs(g2_eval(1j) - math.pi)


def _weight_two_law(fn: Callable, taus: list, rng, anomaly: bool) -> float:
    """max |fn(z/j, alpha.tau) - j^2 fn(z, tau) [+ 2 pi i f j]| over _mats()
    x taus, with j = f tau + d and the bracket present when anomaly is set.
    Each (alpha, tau) draws its z from rng; without an rng, z = 0."""
    worst, z = 0.0, 0j
    for alpha in _mats():
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


def check_g2_law(cfg: RunConfig) -> float:
    taus = _sample_taus(cfg.seed + 4, 8, for_laws=True)
    return _weight_two_law(lambda z, tau: g2_eval(tau), taus, None, True)


def check_weierstrass_law(cfg: RunConfig) -> float:
    rng = modular.seeded_rng(cfg.seed + 5)
    return _weight_two_law(weierstrass_p, _sample_taus(cfg.seed + 6, 6, for_laws=True), rng, False)


def check_p2_law(cfg: RunConfig) -> float:
    rng = modular.seeded_rng(cfg.seed + 7)
    return _weight_two_law(_p2_full, _sample_taus(cfg.seed + 8, 6, for_laws=True), rng, True)


def check_p2_annulus(cfg: RunConfig) -> float:
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


def check_involution_recurrence(cfg: RunConfig) -> float:
    n_cap = involutions.N_CAP
    t = [1, 1]  # counts for n = 0, 1
    for n in range(2, n_cap + 1):
        t.append(t[-1] + (n - 1) * t[-2])
    ok = all(
        sum(involutions.count_with_fixed(n, r) for r in range(n % 2, n + 1, 2)) == t[n]
        for n in range(1, n_cap + 1)
    )
    return 0.0 if ok else 1.0


def check_fixed_counts(cfg: RunConfig) -> float:
    for n in range(1, involutions.N_CAP + 1):
        for r in range(n % 2, n + 1, 2):
            p = (n - r) // 2
            if involutions.count_with_fixed(n, r) != involutions.closed_form_fixed_count(p, r):
                return 1.0
    return 0.0


def check_sign_lemma(cfg: RunConfig) -> float:
    # enumerate_decompositions partitions the pairs as opaque items, so the
    # signed sum depends on the pair count p alone: one involution for each
    # p = 1..4, the pair counts of the involutions of {1..8}
    for p in range(1, 5):
        if not involutions.verify_sign_lemma([(2 * k + 1, 2 * k + 2) for k in range(p)]):
            return 1.0
    return 0.0


def check_decomposition_products(cfg: RunConfig) -> float:
    # {1..6}'s involutions hold those of {1..2} and {1..4}
    for s in involutions.list_involutions(6):
        if not s:
            continue
        for parts in involutions.enumerate_decompositions(s):
            if not involutions.decomposition_is_valid(s, parts):
                return 1.0
    return 0.0


def check_multinomial(cfg: RunConfig) -> float:
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


def _recursion(cfg: RunConfig, n_insertions: int, mid: bool) -> float:
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


def check_fock_census(cfg: RunConfig) -> float:
    L = cfg.lattice
    ok = all(
        fock.census_by_grade(L, beta, Q_ORDER) == insertion_counts_by_grade(L, beta, Q_ORDER)
        for beta in L.cosets
    )
    return 0.0 if ok else 1.0


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def check_t_phase(cfg: RunConfig) -> float:
    L = cfg.lattice
    pts = modular.sample_points(L.dim, N_POINTS, cfg.seed + 13)
    lhs = z_table(L, [TracePoint(pt.a, pt.b, pt.tau + 1) for pt in pts])
    shifted = [TracePoint(tuple(x + y for x, y in zip(pt.a, pt.b)), pt.b, pt.tau) for pt in pts]
    phases = [t_phase(L, beta) for beta in L.cosets]
    rhs = [[p * z for p, z in zip(phases, row)] for row in z_table(L, shifted)]
    return modular.max_gap(lhs, rhs)


def _fit_gap(cfg: RunConfig, alpha, target: Callable) -> float:
    """Largest entry of |A(alpha) - target(L)| for the run's fit of alpha."""
    a, _ = modular.fit_alpha(cfg.lattice, alpha, cfg.seed)
    return modular.max_gap(a, target(cfg.lattice))


def _identity(L: EvenLattice) -> list:
    m = len(L.cosets)
    return [[float(h == k) for k in range(m)] for h in range(m)]


def _holdout(L: EvenLattice, alpha, seed: int) -> float:
    return modular.fit_and_verify(L, alpha, seed)[2]


def _cocycle(cfg: RunConfig, a, b) -> float:
    return modular.verify_cocycle(cfg.lattice, a, b, seed=cfg.seed + 17)


def check_random_words(cfg: RunConfig) -> float:
    # words that multiply out to the same matrix share one holdout
    alphas = dict.fromkeys(map(modular.word_to_matrix, modular.random_words(5, 6, cfg.seed + 19)))
    worst = 0.0
    for alpha in alphas:
        worst = max(worst, _holdout(cfg.lattice, alpha, cfg.seed + 23))
    return worst


def check_word_roundtrip(cfg: RunConfig) -> float:
    # decompose_ST checks its own word against ±alpha and raises
    # ThetaTraceError on a mismatch, which _run_check reports as inf
    for word in modular.random_words(8, 6, cfg.seed + 29):
        modular.decompose_ST(modular.word_to_matrix(word))
    return 0.0


# ---------------------------------------------------------------------------
# suite assembly
# ---------------------------------------------------------------------------

# suite -> [(name, check, tolerance)]; run_suite raises a main-theorem
# tolerance to GENERIC_TOL off the built-in Gram

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
        ("involution-recurrence", check_involution_recurrence, EXACT_TOL),
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
SUITES = tuple(SUITE_CHECKS)


def _run_check(name: str, fn: Callable[[RunConfig], float], tol: float, cfg: RunConfig) -> dict:
    start = time.perf_counter()
    try:
        err = float(fn(cfg))
    except ThetaTraceError as exc:
        err = math.inf
        detail = f"{type(exc).__name__}: {exc}"
    else:
        detail = None
    entry = {
        "name": name,
        "status": "pass" if err <= tol else "fail",
        "max_error": err,
        "tolerance": tol,
        "runtime_ms": int((time.perf_counter() - start) * 1000),
    }
    if detail:
        entry["error"] = detail
    return entry


def run_suite(suite: str, cfg: RunConfig) -> dict:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITE_CHECKS:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    # off the built-in Gram a main-theorem tolerance is at least GENERIC_TOL
    generic = cfg.lattice.gram != DEFAULT_GRAM
    checks = []
    for s in names:
        floor = GENERIC_TOL if generic and s == "main-theorem" else 0.0
        checks += [_run_check(name, fn, max(tol, floor), cfg) for name, fn, tol in SUITE_CHECKS[s]]
    overall = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {
        "schema": 1,
        "suite": suite,
        "lattice": cfg.lattice_label,
        "seed": cfg.seed,
        "checks": checks,
        "overall": overall,
    }


# ---------------------------------------------------------------------------
# fit / expand commands
# ---------------------------------------------------------------------------


def _parse_alpha(text: str) -> modular.UnimodularMatrix:
    try:
        a, b, f, d = (int(x) for x in text.split(","))
        return modular.UnimodularMatrix(a, b, f, d)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"--alpha must be four comma-separated integers with det 1: {exc}")


def _c(x: complex) -> list:
    return [x.real, x.imag]


def run_fit(cfg: RunConfig, alpha: modular.UnimodularMatrix) -> dict:
    a, residual, holdout = modular.fit_and_verify(cfg.lattice, alpha, cfg.seed)
    return {
        "schema": 1,
        "suite": "fit",
        "lattice": cfg.lattice_label,
        "seed": cfg.seed,
        "alpha": [alpha.a, alpha.b, alpha.f, alpha.d],
        "cosets": [[str(x) for x in beta] for beta in cfg.lattice.cosets],
        "matrix": [[_c(v) for v in row] for row in a],
        "fit_residual": residual,
        "holdout_max_error": holdout,
        "n_holdout": modular.N_HOLDOUT,
    }


def _series_terms(series) -> list:
    """[key, re, im] per term; an int coefficient prints as [key, n, 0]."""
    return [[k, v.real, v.imag] for k, v in sorted(series.coeffs.items())]


def run_expand(cfg: RunConfig, what: str, order: int, coset: int) -> dict:
    if order < 0:
        raise ConfigError(f"--order must be a nonnegative integer, got {order}")
    if what == "eta":
        series = dedekind_eta(order)
    elif what == "g2":
        series = eisenstein_g2(order)
    elif what == "theta-series":
        cosets = cfg.lattice.cosets
        if not (0 <= coset < len(cosets)):
            raise ConfigError(f"coset index {coset} out of range 0..{len(cosets) - 1}")
        series = cfg.lattice.theta_series(cosets[coset], order)
    else:
        raise ConfigError(f"unknown expansion target {what!r}")
    return {
        "schema": 1,
        "suite": "expand",
        "what": what,
        "lattice": cfg.lattice_label,
        "order": order,
        "denom": series.denom,
        "terms": _series_terms(series),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_config(args) -> RunConfig:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    if args.lattice:
        lat = load_lattice(args.lattice)
        label = lat.name or args.lattice
    else:
        lat = EvenLattice(DEFAULT_GRAM, name=DEFAULT_LABEL)
        label = DEFAULT_LABEL
    return RunConfig(lattice=lat, lattice_label=label, seed=args.seed)


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    if args.human:
        _human_summary(report)


def _human_summary(report: dict) -> None:
    put = sys.stderr.write
    put(f"suite {report['suite']} on {report.get('lattice', '-')}\n")
    for c in report.get("checks", ()):
        put(
            f"  [{c['status']:>4}] {c['name']:40s} "
            f"max_error={c['max_error']:.3e} tol={c['tolerance']:.1e} "
            f"({c['runtime_ms']} ms)\n"
        )
    if "overall" in report:
        put(f"overall: {report['overall']}\n")
    if "fit_residual" in report:
        put(f"fit residual {report['fit_residual']:.3e}, holdout {report['holdout_max_error']:.3e}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="thetatrace",
        description="verify lattice module trace identities and transition matrices",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--lattice", help="path to a lattice JSON file {name, gram}")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument("--human", action="store_true", help="also print a summary to stderr")

    v = sub.add_parser("verify", parents=[common], help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("all",))

    f = sub.add_parser("fit", parents=[common], help="fit one transition matrix")
    f.add_argument(
        "--alpha",
        required=True,
        help='matrix "a,b,f,d" with det 1; write a negative first entry with "=", '
        "as in --alpha=-1,0,0,-1",
    )

    e = sub.add_parser("expand", parents=[common], help="print a q-expansion")
    e.add_argument("--what", required=True, choices=("eta", "g2", "theta-series"))
    e.add_argument("--order", type=int, default=8)
    e.add_argument("--coset", type=int, default=0)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "verify":
            report = run_suite(args.suite, cfg)
            _emit(report, args)
            return 0 if report["overall"] == "pass" else 1
        if args.command == "fit":
            alpha = _parse_alpha(args.alpha)
            try:
                report = run_fit(cfg, alpha)
            except IllConditioned as exc:
                sys.stderr.write(f"fit failed: {exc}\n")
                return 1
            _emit(report, args)
            return 0
        if args.command == "expand":
            report = run_expand(cfg, args.what, args.order, args.coset)
            _emit(report, args)
            return 0
    except (ConfigError, LatticeFileError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ThetaTraceError as exc:
        sys.stderr.write(f"verification aborted: {type(exc).__name__}: {exc}\n")
        return 1
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    raise SystemExit(main())
