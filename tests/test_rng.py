"""The sample stream: random.Random(seed) through modular.seeded_rng.

The stream is pinned by a golden draw of seed 0, so a Python whose random
module draws differently fails here before any report moves; every sampler
is deterministic per seed and refuses a negative or non-integer seed; and no
command loads numpy.random.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thetatrace import modular

REPO_DIR = Path(__file__).resolve().parent.parent


def _hex(z) -> tuple:
    return float.hex(z.real), float.hex(z.imag)


def _bits(points) -> list:
    return [([_hex(x) for x in p.a], [_hex(x) for x in p.b], _hex(p.tau)) for p in points]


# ---------------------------------------------------------------------------
# the stream
# ---------------------------------------------------------------------------


def test_golden_stream_of_seed_zero():
    # random.Random(0) on CPython 3.10 to 3.13
    rng = modular.seeded_rng(0)
    assert [rng.uniform(0, 1).hex() for _ in range(8)] == [
        "0x1.b0580f98a7dbep-1", "0x1.84129978f9c1ap-1", "0x1.aeaa51052e978p-2",
        "0x1.092178fb945a6p-2", "0x1.05c5ccdf19707p-1", "0x1.9ea70df588b3cp-2",
        "0x1.914e0c751c4f5p-1", "0x1.36979c7be0decp-2",
    ]
    rng = modular.seeded_rng(0)
    assert [rng.randrange(3) for _ in range(12)] == [1, 1, 0, 1, 2, 1, 1, 1, 1, 1, 2, 0]
    assert _bits(modular.sample_points(2, 2, 0)) == [
        (
            [("-0x1.044563229e1b3p-5", "0x1.278f5fd1e349ap-8"),
             ("-0x1.8afda4d3df6f7p-4", "-0x1.37830687e4274p-5")],
            [("0x1.d0f9c176c0fddp-4", "-0x1.32bf974ef8d00p-7"),
             ("-0x1.42409f39cb687p-4", "0x1.1139eca06c987p-5")],
            ("0x1.1a267f5aa62cap-2", "0x1.68077096ca4d8p+0"),
        ),
        (
            [("-0x1.656fd716947f4p-4", "0x1.83df1c7aa2a27p-5"),
             ("0x1.a31c0f469f100p-4", "-0x1.98c5399c3595dp-4")],
            [("0x1.4faa049cef3c7p-3", "0x1.fc428a14de9a7p-4"),
             ("0x1.8b7f73e1cf447p-3", "0x1.4974500f0c814p-3")],
            ("0x1.4e5379aff7f1ep-2", "0x1.3428ed1d2a582p+0"),
        ),
    ]


def test_samples_are_deterministic_per_seed():
    assert _bits(modular.sample_points(3, 4, 7)) == _bits(modular.sample_points(3, 4, 7))
    assert _bits(modular.sample_points(3, 4, 7)) != _bits(modular.sample_points(3, 4, 8))
    assert modular.random_words(6, 6, 7) == modular.random_words(6, 6, 7)
    assert modular.random_words(6, 6, 7) != modular.random_words(6, 6, 8)


def test_negative_seed_raises_like_numpy():
    # as numpy's default_rng(-3) did; random.Random(-3) would silently give
    # the stream of seed 3
    with pytest.raises(ValueError):
        modular.sample_points(2, 1, -3)
    with pytest.raises(ValueError):
        modular.random_words(1, 6, -3)


@pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
def test_non_integer_seed_raises(seed):
    with pytest.raises(TypeError):
        modular.sample_points(2, 1, seed)
    with pytest.raises(TypeError):
        modular.random_words(1, 6, seed)


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
