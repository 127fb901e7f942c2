"""mpmath at 30 digits as an oracle for the classical evaluators.

mpmath shares no code with `qseries`: eta is q^{1/24} (q; q)_inf from
`mp.qp`, and every theta function with half characteristics is one of
`mp.jtheta`'s four in the nome e^{pi i tau}.  Sample points run down to
the evaluators' floor Im tau = 0.25, and each error is scaled by
max(1, |lhs|, |rhs|).
"""

import random
from fractions import Fraction

import mpmath
import pytest

from thetatrace.qseries import IM_TAU_FLOOR, eta_eval, jacobi_theta

mp = mpmath.mp.clone()  # a private context: the global precision is left alone
mp.dps = 30

HALF = Fraction(1, 2)
TOL = 1e-13  # measured worst: 1.2e-15
IM_TAUS = (IM_TAU_FLOOR, 0.3, 0.45, 0.7, 1.0, 1.6, 3.0)


def _taus(seed: int) -> list:
    rng = random.Random(seed)
    return [complex(rng.uniform(-0.5, 0.5), y) for y in IM_TAUS for _ in range(3)]


def _scaled_error(lhs: complex, rhs) -> float:
    rhs = complex(rhs)
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _mp_eta(tau: complex):
    t = mp.mpc(tau)
    q = mp.exp(2j * mp.pi * t)
    return mp.exp(2j * mp.pi * t / 24) * mp.qp(q)


def _mp_theta(h, k, z: complex, tau: complex):
    """theta_{h,k}(z, tau) = sum_n exp(pi i (n+h)^2 tau + 2 pi i (n+h)(z+k))
    through jtheta(n, pi z, e^{pi i tau}): theta_3, theta_4 and theta_2 for
    (0, 0), (0, 1/2) and (1/2, 0), and -theta_1 for (1/2, 1/2)."""
    nome = mp.exp(1j * mp.pi * mp.mpc(tau))
    w = mp.pi * mp.mpc(z)
    n, sign = {(0, 0): (3, 1), (0, HALF): (4, 1), (HALF, 0): (2, 1), (HALF, HALF): (1, -1)}[h, k]
    return sign * mp.jtheta(n, w, nome)


def _mp_theta_sum(h, k, z: complex, tau: complex):
    """The defining double-ended sum at 30 digits, to pin the jtheta map."""
    t, w = mp.mpc(tau), mp.mpc(z)
    return mp.fsum(
        mp.exp(1j * mp.pi * (n + h) ** 2 * t + 2j * mp.pi * (n + h) * (w + k))
        for n in (mp.mpf(m) for m in range(-40, 41))
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_eta_eval_matches_mpmath(seed):
    errors = [_scaled_error(eta_eval(tau), _mp_eta(tau)) for tau in _taus(seed)]
    assert max(errors) < TOL


@pytest.mark.parametrize("h,k", [(0, 0), (0, HALF), (HALF, 0), (HALF, HALF)])
def test_jacobi_theta_matches_mpmath(h, k):
    rng = random.Random(7)
    worst = 0.0
    for tau in _taus(3):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5) * tau.imag)
        worst = max(worst, _scaled_error(jacobi_theta(h, k, z, tau), _mp_theta(h, k, z, tau)))
    assert worst < TOL


@pytest.mark.parametrize("h,k", [(0, 0), (0, HALF), (HALF, 0), (HALF, HALF)])
def test_jtheta_map_is_the_defining_sum(h, k):
    tau, z = complex(0.31, 0.27), complex(0.2, -0.05)
    assert abs(_mp_theta(h, k, z, tau) - _mp_theta_sum(h, k, z, tau)) < mp.mpf(10) ** -25


def test_eta_oracle_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4}), independent of both sides
    closed = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))
    assert abs(_mp_eta(1j) - closed) < mp.mpf(10) ** -28
    assert _scaled_error(eta_eval(1j), closed) < TOL
