"""In-process timings that reproduce the ROADMAP's re-anchor row.

    python3 perfbench/reanchor.py

Unlike perfbench/run.py, which starts a fresh interpreter per command, this
times inside one warm interpreter:

- ``verify all`` through ``thetatrace.cli.main`` on the built-in norm-4
  lattice and on lattices/a2.json.  The involution cache is cleared before
  each lattice's first run, which therefore pays every cache the cold CLI
  pays except the interpreter start and the imports; the REPEAT - 1 runs
  after it reuse the cache, so the first and the median of the rest are
  printed;
- one ``z_trace`` call, median over every coset and 20 * REPEAT
  repetitions, on
  norm4 and a2 at Im tau = 1.1 with the library defaults, and on a2 at
  Im tau = 0.06, below the default floor, with the floor and tail target
  the transition fits use (``modular.WORD_FLOOR``, ``modular.WORD_RTOL``).
"""

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from thetatrace import EvenLattice, TracePoint, cli, involutions, load_lattice, modular, z_trace  # noqa: E402

REPEAT = 3


def time_verify(argv: list, repeat: int) -> list:
    involutions._all_involutions.cache_clear()
    out = []
    for _ in range(repeat):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        out.append(time.perf_counter() - start)
        if rc != 0:
            raise SystemExit(f"verify {' '.join(argv)} failed with exit code {rc}")
    return out


def time_z_trace(L: EvenLattice, point: TracePoint, repeat: int, **kwargs) -> float:
    """Median milliseconds per z_trace call over every coset."""
    samples = []
    for _ in range(repeat):
        for beta in L.cosets:
            start = time.perf_counter()
            z_trace(L, beta, point, **kwargs)
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1000


def main() -> int:
    norm4 = EvenLattice(cli.DEFAULT_GRAM, name=cli.DEFAULT_LABEL)
    a2 = load_lattice(str(ROOT / "lattices" / "a2.json"))
    for label, argv in (("norm4", ["verify", "all"]),
                        ("a2", ["verify", "all", "--lattice", str(ROOT / "lattices" / "a2.json")])):
        times = time_verify(argv, REPEAT)
        rest = statistics.median(times[1:]) if len(times) > 1 else float("nan")
        print(f"verify all {label:5s}  first {times[0]:.2f} s  warm median {rest:.2f} s "
              f"({len(times) - 1} runs)")
    fit_path = {"im_floor": modular.WORD_FLOOR, "rtol": modular.WORD_RTOL}
    points = (
        ("norm4", norm4, TracePoint((0.1 + 0.05j,), (0.2,), 0.3 + 1.1j), {}),
        ("a2", a2, TracePoint((0.1 + 0.05j, 0.0), (0.2, -0.1j), 0.3 + 1.1j), {}),
        ("a2", a2, TracePoint((0.1 + 0.05j, 0.0), (0.2, -0.1j), 0.3 + 0.06j), fit_path),
    )
    for label, L, pt, kwargs in points:
        ms = time_z_trace(L, pt, 20 * REPEAT, **kwargs)
        print(f"z_trace {label:5s} Im tau = {pt.tau.imag:<4}  {ms:.3f} ms per call (median)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
