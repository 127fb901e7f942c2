"""The pure-Python PCG64 stream against numpy's default_rng, its oracle.

Every sampler draws from modular.Pcg64, which must give the draws of
np.random.default_rng(seed) bit for bit; the samplers must give the points
their numpy formulas gave, signed zeros included; and no command may load
numpy.random.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetatrace import cli, modular
from thetatrace.modular import SAMPLE_SCALE, Pcg64, UnimodularMatrix
from thetatrace.trace import TracePoint

REPO_DIR = Path(__file__).resolve().parent.parent
SEEDS = list(range(200)) + [2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**160 + 1]


def _interleaved(rng, ops: int = 48) -> list:
    """Scalar and size=k draws of both methods, in turn, so the 32-bit half
    that integers() leaves in the generator is carried across calls and
    across uniform() calls."""
    out = []
    for k in range(ops):
        size = None if k % 8 < 4 else k % 5
        if k % 2:
            x = rng.uniform(-0.45, 1.7, size)
            out.append([float(v).hex() for v in np.atleast_1d(x)])
        else:
            x = rng.integers(1, 2 + k, size)
            out.append([int(v) for v in np.atleast_1d(x)])
    return out


# ---------------------------------------------------------------------------
# the stream
# ---------------------------------------------------------------------------


def test_stream_matches_numpy():
    for seed in SEEDS:
        assert _interleaved(Pcg64(seed)) == _interleaved(np.random.default_rng(seed)), seed


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**200 - 1))
def test_stream_matches_numpy_on_any_seed(seed):
    assert _interleaved(Pcg64(seed), 12) == _interleaved(np.random.default_rng(seed), 12)


class _Counted(Pcg64):
    draws = 0

    def _next32(self):
        self.draws += 1
        return super()._next32()


def test_lemire_rejection_matches_numpy():
    # 2^32 mod 3 * 2^30 = 2^30, so a quarter of the 32-bit draws are rejected
    n = 3 * 2**30
    ours = _Counted(7)
    got = [ours.integers(0, n) for _ in range(50)] + ours.integers(0, n, 50)
    assert got == np.random.default_rng(7).integers(0, n, 100).tolist()
    assert ours.draws > 100, "the rejection loop never ran"


def test_range_of_one_draws_nothing():
    a, b = Pcg64(5), np.random.default_rng(5)
    assert a.integers(4, 5) == b.integers(4, 5) == 4
    assert a.integers(4, 5, 3) == b.integers(4, 5, 3).tolist()
    assert a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        Pcg64(-1)


@pytest.mark.parametrize("lo, hi", [(0, 0), (3, 1), (0, 2**32)])
def test_integers_outside_the_32_bit_range_raise(lo, hi):
    with pytest.raises(ValueError):
        Pcg64(0).integers(lo, hi)


def test_golden_stream_of_seed_zero():
    # np.random.default_rng(0) under numpy 2.4.6, pinned here so that the
    # stream is checked on whatever numpy is installed
    rng = Pcg64(0)
    assert [rng.uniform(0, 1).hex() for _ in range(8)] == [
        "0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5",
        "0x1.0ec9ed84d0bc0p-6", "0x1.a064f4f059bcap-1", "0x1.d354b2f34c803p-1",
        "0x1.3698f6e301db6p-1", "0x1.758092bff1053p-1",
    ]
    rng = Pcg64(0)
    assert [rng.integers(0, 3) for _ in range(8)] == [2, 1, 1, 0, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# the samplers against their numpy formulas
# ---------------------------------------------------------------------------


def _numpy_sample_points(dim, count, seed, scale=0.2, re_range=(-0.4, 0.4),
                         im_range=(0.8, 1.6), re_center=0.0, real_vectors=False):
    rng = np.random.default_rng(seed)

    def vec():
        re = rng.uniform(-1.0, 1.0, size=dim)
        im = 0.0 if real_vectors else rng.uniform(-1.0, 1.0, size=dim)
        return tuple((re + 1j * im) * scale)

    out = []
    for _ in range(count):
        tau = complex(re_center + rng.uniform(*re_range), rng.uniform(*im_range))
        out.append(TracePoint(vec(), vec(), tau))
    return out


def _numpy_adapted_samples(alpha, dim, count, seed):
    if alpha.f == 0:
        return _numpy_sample_points(dim, count, seed, SAMPLE_SCALE, real_vectors=abs(alpha.b) > 1)
    return _numpy_sample_points(
        dim, count, seed, SAMPLE_SCALE / 2, re_range=(-0.15, 0.15), im_range=(0.3, 0.55),
        re_center=-alpha.d / alpha.f, real_vectors=True,
    )


def _hex(z) -> tuple:
    return float.hex(float(z.real)), float.hex(float(z.imag))


def _bits(points) -> list:
    return [([_hex(x) for x in p.a], [_hex(x) for x in p.b], _hex(p.tau)) for p in points]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("real_vectors", [False, True])
def test_sample_points_match_numpy_formula(dim, real_vectors):
    for seed in (0, 1, 900, 2**64 + 3):
        got = modular.sample_points(dim, 12, seed, real_vectors=real_vectors)
        want = _numpy_sample_points(dim, 12, seed, real_vectors=real_vectors)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize(
    "alpha",
    [
        UnimodularMatrix(1, 0, 8, 1),  # f != 0: real vectors near -d/f
        UnimodularMatrix(1, 1, 0, 1),  # f = 0, |b| <= 1: complex vectors
        UnimodularMatrix(1, 3, 0, 1),  # f = 0, |b| > 1: real vectors
    ],
)
def test_adapted_samples_match_numpy_formula(alpha):
    for dim, seed in ((1, 0), (2, 17), (3, 22573)):
        got = modular.adapted_samples(alpha, dim, 16, seed)
        assert _bits(got) == _bits(_numpy_adapted_samples(alpha, dim, 16, seed))


def test_random_words_match_numpy_formula():
    rng = np.random.default_rng(31)
    names = ("S", "T", "T^-1")
    want = []
    for _ in range(40):
        length = int(rng.integers(1, 7))
        want.append([names[int(k)] for k in rng.integers(0, 3, size=length)])
    assert modular.random_words(40, 6, 31) == want


@pytest.mark.parametrize("im_lo", [0.6, 0.1])
def test_law_taus_match_numpy_formula(im_lo):
    # with the default im_lo no tau of this box is redrawn; at 0.1 some are
    rng = np.random.default_rng(12)
    want = []
    while len(want) < 8:
        tau = complex(rng.uniform(-0.45, 0.45), rng.uniform(im_lo, 1.7))
        if all(a.act_tau(tau).imag >= cli.IM_TAU_FLOOR for a in cli._mats()):
            want.append(tau)
    got = cli._sample_taus(12, 8, im_lo, for_laws=True)
    assert [_hex(t) for t in got] == [_hex(t) for t in want]


# ---------------------------------------------------------------------------
# no command loads numpy.random
# ---------------------------------------------------------------------------


def test_commands_do_not_import_numpy_random():
    script = (
        "import contextlib, io, json, sys\n"
        "from thetatrace import cli\n"
        "codes = []\n"
        "for args in (['fit', '--alpha', '1,0,8,1', '--lattice', 'lattices/a2.json'],\n"
        "             ['verify', 'all', '--lattice', 'lattices/a2.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(args))\n"
        "print(json.dumps([codes, [m for m in ('numpy.random', 'secrets', '_hashlib')\n"
        "                          if m in sys.modules]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        cwd=REPO_DIR, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], []]
