"""Trace functions of even-lattice module families and the machinery to
verify their modular transformation laws.

Layers, bottom up:

- qseries: truncated one- and two-variable q-expansions plus the classical
  evaluators (eta, weight-two Eisenstein, the elliptic kernel, theta
  functions with half characteristics)
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
- cli: JSON-reporting verification harness; it loads fock, involutions and
  checks lazily, so a fit or an expand compiles none of them
"""

from .errors import ThetaTraceError
from .lattice import EvenLattice, load_lattice
from .qseries import (
    BiSeries,
    TruncatedSeries,
    dedekind_eta,
    eisenstein_g2,
    eta_eval,
    g2_eval,
    jacobi_theta,
    p2_eval,
    p2_series,
    theta_s_constant,
    weierstrass_p,
)
from .trace import TracePoint, t_phase, theta_w, z_table, z_trace, z_vector

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
