"""The Dedekind eta function at a point, the one classical evaluator the
trace kernel runs, and the tau guards and constants it shares with `qseries`.

`qseries` re-exports every name here, so `qseries.eta_eval` is this
module's function.  A fit imports this module and not `qseries`, which the
package loads lazily.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import ImTooSmall

TWO_PI_I = 2j * math.pi

# Evaluations refuse tau below this imaginary-part floor rather than
# degrading silently.
IM_TAU_FLOOR = 0.25

# Adaptive truncations run until the certified tail is below this fraction
# of the accumulated magnitude (1e-16 target with a 1e3 safety factor).
TAIL_RTOL = 1e-19


def require_im(tau: complex, floor: float = IM_TAU_FLOOR) -> None:
    # tested first: NaN compares False with the floor and would pass
    if not cmath.isfinite(tau):
        raise ImTooSmall(f"tau = {tau} is not finite")
    if tau.imag < floor:
        raise ImTooSmall(f"Im(tau) = {tau.imag} is below the floor {floor}")


def q_power(tau: complex, exponent) -> complex:
    """exp(2 pi i tau * exponent); exponent may be int, float or Fraction."""
    return cmath.exp(TWO_PI_I * tau * float(exponent))


def _adaptive_order(abs_q: float) -> int:
    """Smallest N with |q|^N below TAIL_RTOL (plus a fixed pad); 0 once q underflows."""
    if abs_q >= 1.0:
        raise ImTooSmall("q is not inside the unit disc")
    if abs_q == 0.0:
        return 0
    return max(4, math.ceil(math.log(TAIL_RTOL) / math.log(abs_q))) + 4


def eta_eval(tau: complex, im_floor: float = IM_TAU_FLOOR) -> complex:
    require_im(tau, im_floor)
    q = q_power(tau, 1)
    n_max = _adaptive_order(abs(q))
    prod = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(n_max):
        qn *= q
        prod *= 1.0 - qn
    return q_power(tau, Fraction(1, 24)) * prod
