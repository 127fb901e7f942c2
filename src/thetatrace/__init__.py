"""Trace functions of even-lattice module families and the machinery to
verify their modular transformation laws.

Layers, bottom up:

- eta: the eta evaluator the trace kernel runs, with its tau guards and
  constants; imports only `errors`
- qseries: truncated one- and two-variable q-expansions plus the classical
  evaluators (eta, re-exported from `eta`, weight-two Eisenstein, the
  elliptic kernel, theta functions with half characteristics)
- lattice: even positive-definite Gram data, dual cosets, exact enumeration
- trace: the graded trace z_trace of each coset module, closed form, and
  z_table, its batch over points and cosets
- fock: literal graded module bases and mode operators, the independent
  oracle for the closed form
- involutions: the fixed-point/pairing combinatorics behind the n-point
  trace recursion
- modular: SL2(Z) actions, generator decomposition, and least-squares
  fitting of the transition matrices between transformed trace families
- checks: every identity of `verify` as a named check, and SUITE_CHECKS,
  the table of suites; imports nothing from cli
- cli: JSON-reporting verification harness

`qseries`, `fock`, `involutions` and `checks` are lazy layers: this module
registers each in sys.modules before it imports any other layer, and its
source is compiled and run on first attribute access, so a fit compiles
none of them.  The q-series names of __all__ resolve through __getattr__.
"""

import importlib.util
import sys


def _lazy_layer(name: str):
    """thetatrace.<name> if imported, else registered in sys.modules now, its
    body compiled and run on first attribute access."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


# registered before any eager layer runs `from . import qseries`
qseries, fock = _lazy_layer("qseries"), _lazy_layer("fock")
involutions, checks = _lazy_layer("involutions"), _lazy_layer("checks")

from .errors import ThetaTraceError  # noqa: E402
from .lattice import EvenLattice, load_lattice  # noqa: E402
from .trace import TracePoint, t_phase, theta_w, z_table, z_trace, z_vector  # noqa: E402


def __getattr__(name: str):
    # the names of __all__ not bound above are qseries' own, and load it
    # only when read
    if name in __all__:
        return getattr(qseries, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BiSeries",
    "EvenLattice",
    "ThetaTraceError",
    "TracePoint",
    "TruncatedSeries",
    "dedekind_eta",
    "eisenstein_g2",
    "eta_eval",
    "g2_eval",
    "jacobi_theta",
    "load_lattice",
    "p2_eval",
    "p2_series",
    "t_phase",
    "theta_s_constant",
    "theta_w",
    "weierstrass_p",
    "z_table",
    "z_trace",
    "z_vector",
]

__version__ = "0.1.0"
