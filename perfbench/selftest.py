"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload NAME]

Makes two traced runs of one workload (fit-ladder-a2 by default, the
fastest) at seed SEED and checks that

- each run is correct: every op passed its gate, the traced ops printed the
  same reports as the untraced ones apart from runtime_ms, and the traced
  ops within a run repeated their counts exactly;
- the two runs report identical count metrics (units "count" and "ratio").

Exits 0 when all of that holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_UNITS = ("count", "ratio")
SEED = 0


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="two traced runs must agree on every count")
    ap.add_argument("--workload", default="fit-ladder-a2")
    args = ap.parse_args()
    first, second = (traced_run(args.workload) for _ in range(2))
    ok = True
    for i, run in enumerate((first, second), 1):
        if not run["correct"] or run["failed"]:
            print(f"run {i} is not correct: {run['failed']} of {run['attempted']} ops failed")
            ok = False
    counts = [n for n, m in first["metrics"].items() if m["unit"] in EXACT_UNITS]
    for name in counts:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            print(f"{name}: {a} != {b}")
            ok = False
    print(f"{args.workload} seed {SEED}: {len(counts)} count metrics compared, "
          f"{'all equal' if ok else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
