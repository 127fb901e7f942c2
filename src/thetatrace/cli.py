"""Verification harness: the checks of `checks` run as suites, and the
`fit` and `expand` commands, with machine-readable JSON reports.

Report layout (schema 1):

    {"schema": 1, "suite": ..., "lattice": ..., "seed": ...,
     "checks": [{"name", "status", "max_error", "tolerance", "runtime_ms"}],
     "overall": "pass" | "fail"}

Reports are deterministic for a fixed seed and config except for the
runtime_ms fields.  Complex numbers are serialized as [re, im] pairs and
q-expansions as integer exponent numerators over a single shared
denominator.

The package loads `qseries`, `fock`, `involutions` and `checks` lazily, so
a `fit` compiles none of them; `cli` reaches `checks` and `qseries` only at
call time.  `SUITE_CHECKS` lives in `checks`; `cli.SUITE_CHECKS` reads it
from there.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, List, Optional

from . import checks, modular, qseries
from ._frozen import Frozen
from .errors import ConfigError, IllConditioned, LatticeFileError, ThetaTraceError
from .lattice import EvenLattice, load_lattice


def __getattr__(name: str):
    # cli.SUITE_CHECKS stays readable (perfbench/worker.py reads it) and
    # loads the check layer only when read
    if name == "SUITE_CHECKS":
        return checks.SUITE_CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


DEFAULT_GRAM = ((4,),)
DEFAULT_LABEL = "builtin-norm4"

GENERIC_TOL = 1e-7  # floor of the main-theorem tolerances off the built-in Gram
# the keys of checks.SUITE_CHECKS, spelled out so that parsing loads no checks
SUITES = ("special-functions", "theta-classical", "combinatorics", "npoint", "main-theorem")


class RunConfig(Frozen):
    _fields = ("lattice", "lattice_label", "seed")

    def __init__(self, lattice: EvenLattice, lattice_label: str, seed: int = 0):
        self._set(lattice, lattice_label, seed)


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
    elif suite in SUITES:
        names = [suite]
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    # loads the check layer here, so that no check's runtime_ms holds its compile
    suite_checks = checks.SUITE_CHECKS
    # off the built-in Gram a main-theorem tolerance is at least GENERIC_TOL
    generic = cfg.lattice.gram != DEFAULT_GRAM
    rows = []
    for s in names:
        floor = GENERIC_TOL if generic and s == "main-theorem" else 0.0
        rows += [_run_check(name, fn, max(tol, floor), cfg) for name, fn, tol in suite_checks[s]]
    overall = "pass" if all(c["status"] == "pass" for c in rows) else "fail"
    return {
        "schema": 1,
        "suite": suite,
        "lattice": cfg.lattice_label,
        "seed": cfg.seed,
        "checks": rows,
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
        series = qseries.dedekind_eta(order)
    elif what == "g2":
        series = qseries.eisenstein_g2(order)
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
        # expand: the required subparsers admit no other command
        report = run_expand(cfg, args.what, args.order, args.coset)
        _emit(report, args)
        return 0
    except (ConfigError, LatticeFileError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ThetaTraceError as exc:
        sys.stderr.write(f"verification aborted: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
