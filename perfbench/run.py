"""Benchmark of the thetatrace command line: time to a correct verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Load model: one closed-loop client.  An operation (op) is one workload's
list of CLI commands; each command runs in a fresh worker process
(perfbench/worker.py) and starts only after the previous one returned, so
every command pays interpreter start, imports and the process-level caches,
as a user of the CLI does.  Ops repeat for S seconds (at least MIN_OPS of
them), all with the inputs drawn from --seed; the program sees only the
generated --seed/--alpha values.

The host's speed changes within seconds by more than the bounds of
BENCHMARK.json, so a thread of this process (SpeedProbe) times a fixed
pure-Python loop of the benchmark's own every PROBE_PERIOD_S, on the one CPU
it and the workers share; the workers run at nice WORKER_NICE, so the probe
runs as soon as it wakes and times the host, not the worker.  Each time the
benchmark reports is a measured interval divided by the mean slowdown of the
probes inside it, and so reads as seconds at the reference speed; the
measured seconds and the slowdowns are printed too.

Every op is gated: a verify command passes only with exit code 0 and every
check "pass"; a fit passes only with exit code 0, holdout error <= 1e-7 and
a unitary fitted matrix (the Weil representation is unitary, an oracle that
shares no code with the fit).  Failed ops are counted, never dropped, and
every op must print the same report (apart from runtime_ms) as the first.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: it alternates traced and untraced ops, takes counts and
self times from the traced ones, and checks that tracing changes no report.
Human-readable lines go to stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
A2 = "lattices/a2.json"

WORKLOADS = ("verify-norm4", "verify-a2", "fit-ladder-a2")
LADDER_F = (0, 1, 2, 3, 4, 5, 6, 8)  # lower-left entries; Im(alpha.tau) ~ 1/f^2
HIGH_IM_F = (0, 1)
LOW_IM_F = (4, 5, 6, 8)
HOLDOUT_TOL = 1e-7
UNITARY_TOL = 1e-9

MIN_OPS = 3
MIN_TRACED_OPS = 2
SETUP_ONLY_PER_OP = 2  # set-up-only workers, spread over the run like the ops
LAST_START_S = 120  # start no op later than this, so a run ends within 180 s
COMMAND_TIMEOUT_S = 55
WORKER_NICE = 19
PROBE_PERIOD_S = 0.05
PROBE_LOOPS = 25_000
PROBE_REF_S = 0.00153  # a probe's time when the reference host runs fast

SUITES = ("special-functions", "theta-classical", "combinatorics", "npoint", "main-theorem")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def ladder_alphas(rng: random.Random) -> list:
    """One (a, b, f, d) with ad - bf = 1 per f in LADDER_F; d coprime to f
    and b drawn from the seed."""
    out = []
    for f in LADDER_F:
        if f == 0:
            a = d = 1
            b = rng.randint(-2, 2)
        else:
            d = rng.choice([x for x in range(1, 8) if math.gcd(x, f) == 1])
            b = -pow(f, -1, d) % d - d * rng.randint(0, 1)  # b f = -1 mod d
            a = (1 + b * f) // d
        out.append((a, b, f, d))
    return out


def commands(workload: str, seed: int) -> list:
    """CLI argument lists of one op."""
    rng = random.Random(seed)
    program_seed = str(rng.randrange(100_000))
    if workload == "verify-norm4":
        return [["verify", "all", "--seed", program_seed]]
    if workload == "verify-a2":
        return [["verify", "all", "--lattice", A2, "--seed", program_seed]]
    return [
        ["fit", "--alpha=" + ",".join(map(str, alpha)), "--lattice", A2, "--seed", program_seed]
        for alpha in ladder_alphas(rng)
    ]


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def run_command(args: list, mode: str) -> dict:
    """Start a worker, time its set-up and the whole command."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), mode, *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    os.setpriority(os.PRIO_PROCESS, proc.pid, WORKER_NICE)
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter()
        out, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        out, err = "", f"timed out after {COMMAND_TIMEOUT_S} s\n{err}"
    end = time.perf_counter()
    cmd = {"args": args, "start": start, "ready": ready, "end": end,
           "worker_rc": proc.returncode, "stderr": err}
    if ready_line.strip() == "ready" and proc.returncode == 0 and mode != "setup":
        cmd.update(json.loads(out))
        cmd["report"] = json.loads(cmd["report"]) if cmd["report"] else None
    return cmd


def run_op(cmd_args: list, mode: str) -> dict:
    cmds = [run_command(args, mode) for args in cmd_args]
    return {"mode": mode, "cmds": cmds, "wall_s": cmds[-1]["end"] - cmds[0]["start"]}


class SpeedProbe:
    """The host's slowdown over time: a thread that times PROBE_LOOPS turns
    of a pure-Python loop every PROBE_PERIOD_S, over PROBE_REF_S.  The loop
    is the benchmark's own code, so no change to the program moves it."""

    def __init__(self):
        self.starts, self.slowdowns = [], []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            x = 0
            for i in range(PROBE_LOOPS):
                x += i * i % 7
            self.starts.append(start)
            self.slowdowns.append((time.perf_counter() - start) / PROBE_REF_S)

    def ref_seconds(self, a: float, b: float) -> float:
        """The interval [a, b] in seconds at the reference speed: its length
        over the mean slowdown of the probes in it, the interval widened
        until it holds at least 3."""
        pad = 0.0
        while True:
            i = bisect.bisect_left(self.starts, a - pad)
            j = bisect.bisect_left(self.starts, b + pad)
            if j - i >= 3 or j - i == len(self.starts):
                return (b - a) / statistics.mean(self.slowdowns[i:j])
            pad += PROBE_PERIOD_S


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def unitary_error(matrix: list) -> float:
    """max |(A A^H - I)_{hk}| of a matrix given as rows of [re, im] pairs."""
    rows = [[complex(re, im) for re, im in row] for row in matrix]
    n = len(rows)
    return max(
        abs(sum(rows[h][j] * rows[k][j].conjugate() for j in range(n)) - (h == k))
        for h in range(n)
        for k in range(n)
    )


def gate(cmd: dict) -> tuple:
    """(attempted, failed) operations of one command."""
    report = cmd.get("report")
    if cmd["args"][0] == "verify":
        if report is None:
            return 1, 1
        checks = report.get("checks", [])
        failed = sum(c["status"] != "pass" for c in checks)
        if cmd.get("rc") != 0 or report.get("overall") != "pass":
            failed = max(failed, 1)
        return max(len(checks), 1), failed
    ok = (
        report is not None
        and cmd.get("rc") == 0
        and report["holdout_max_error"] <= HOLDOUT_TOL
        and unitary_error(report["matrix"]) <= UNITARY_TOL
    )
    return 1, 0 if ok else 1


def canonical(report):
    """The report without its timing fields."""
    if not isinstance(report, dict):
        return report
    out = dict(report)
    if "checks" in out:
        out["checks"] = [{k: v for k, v in c.items() if k != "runtime_ms"} for c in out["checks"]]
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def ladder_fit_seconds(op: dict, fs: tuple) -> float:
    return sum(c["run_s"] for c, f in zip(op["cmds"], LADDER_F) if f in fs)


def end_to_end(ops: list, all_ops: list) -> dict:
    return {
        "wall_s": [op["ref_wall_s"] for op in ops],
        "setup_s": [s for op in all_ops for s in op["setups"]],
        "peak_rss_mb": [max(c.get("maxrss_kb", 0) for c in op["cmds"]) / 1024 for op in ops],
        "measured_wall_s": [op["wall_s"] for op in ops],
        "slowdown": [op["wall_s"] / op["ref_wall_s"] for op in all_ops],
    }


def merge_traces(op: dict) -> dict:
    """Sum the span summaries of an op's commands."""
    stats, errors = {}, {}
    suite_s = {s: 0.0 for s in SUITES}
    cpu = 0.0
    for c in op["cmds"]:
        tr = c.get("trace", {"stats": {}, "errors": {}, "suite_s": {}})
        for name, s in tr["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(s, 0))
            for k, v in s.items():
                acc[k] += v
        for layer, n in tr["errors"].items():
            errors[layer] = errors.get(layer, 0) + n
        for suite, sec in tr["suite_s"].items():
            suite_s[suite] += sec
        cpu += c.get("cpu_s", 0.0)
    return {"stats": stats, "errors": errors, "suite_s": suite_s, "cpu_s": cpu}


def exact_counts(merged: dict) -> dict:
    """The parts of a trace that must repeat exactly."""
    return {
        "stats": {n: (s["calls"], s["items"], s["points_below"], s["distinct"])
                  for n, s in merged["stats"].items()},
        "errors": merged["errors"],
    }


LAYERS = ("qseries", "lattice", "trace", "fock", "involutions", "modular", "cli")
TRACE_SERIES = ("trace.graded_trace_series", "trace.moment_series",
                "trace.insertion_counts_by_grade")
QSERIES_SPECIAL = ("qseries.g2_eval", "qseries.p2_eval", "qseries.weierstrass_p")
SERIES_OP_PREFIXES = ("qseries.TruncatedSeries.", "qseries.BiSeries.")

# per-layer metric name -> (function name in the trace, field)
FIELD_METRICS = {
    "involutions.list_involutions.calls": ("involutions.list_involutions", "calls"),
    "involutions.list_involutions.items": ("involutions.list_involutions", "items"),
    "involutions.list_involutions.self_s": ("involutions.list_involutions", "self_s"),
    "involutions.count_with_fixed.calls": ("involutions.count_with_fixed", "calls"),
    "involutions.count_with_fixed.self_s": ("involutions.count_with_fixed", "self_s"),
    "involutions.decompositions.items": ("involutions.enumerate_decompositions", "items"),
    "involutions.decompositions.self_s": ("involutions.enumerate_decompositions", "self_s"),
    "lattice.points_in_ball.calls": ("lattice.EvenLattice.points_in_ball", "calls"),
    "lattice.points_in_ball.points": ("lattice.EvenLattice.points_in_ball", "items"),
    "lattice.points_in_ball.self_s": ("lattice.EvenLattice.points_in_ball", "self_s"),
    "lattice.enumerate_vectors.calls": ("lattice.EvenLattice.enumerate_vectors", "calls"),
    "trace.z_trace.calls": ("trace.z_trace", "calls"),
    "trace.z_trace.self_s": ("trace.z_trace", "self_s"),
    "modular.fit_transition.calls": ("modular.fit_transition", "calls"),
    "modular.fit_transition.self_s": ("modular.fit_transition", "self_s"),
    "modular.verify_relation.calls": ("modular.verify_relation", "calls"),
    "modular.verify_relation.self_s": ("modular.verify_relation", "self_s"),
    "fock.build_basis.calls": ("fock.build_basis", "calls"),
    "fock.build_basis.states": ("fock.build_basis", "items"),
    "fock.build_basis.self_s": ("fock.build_basis", "self_s"),
    "fock.diagonal_entry.calls": ("fock.diagonal_entry", "calls"),
    "qseries.eta_eval.calls": ("qseries.eta_eval", "calls"),
    "qseries.eta_eval.self_s": ("qseries.eta_eval", "self_s"),
    "qseries.jacobi_theta.calls": ("qseries.jacobi_theta", "calls"),
    "qseries.jacobi_theta.self_s": ("qseries.jacobi_theta", "self_s"),
}

# per-layer metric name -> function whose distinct-argument share it reports
DISTINCT_METRICS = {
    "lattice.enumerate_vectors.distinct_ratio": "lattice.EvenLattice.enumerate_vectors",
    "trace.z_trace.distinct_ratio": "trace.z_trace",
    "modular.fit_transition.distinct_ratio": "modular.fit_transition",
    "fock.build_basis.distinct_ratio": "fock.build_basis",
}


def layer_values(merged: dict) -> dict:
    """Every per-layer metric of one traced op, except those measured on
    untraced ops."""
    stats = merged["stats"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0,
            "points_below": 0, "distinct": 0}

    def get(name):
        return stats.get(name, zero)

    def self_sum(names):
        return sum(get(n)["self_s"] for n in names)

    out = {metric: get(fn)[field] for metric, (fn, field) in FIELD_METRICS.items()}
    for metric, fn in DISTINCT_METRICS.items():
        s = get(fn)
        out[metric] = s["distinct"] / s["calls"] if s["calls"] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_sum(n for n in stats if n.startswith(layer + "."))
        out[f"{layer}.errors"] = merged["errors"].get(layer, 0)
    z = get("trace.z_trace")
    out["trace.z_trace.us_per_point"] = (
        z["total_s"] / z["points_below"] * 1e6 if z["points_below"] else 0.0
    )
    out["trace.series.self_s"] = self_sum(TRACE_SERIES)
    out["modular.samples"] = get("modular.fit_transition")["items"] + get("modular.verify_relation")["items"]
    out["qseries.special.self_s"] = self_sum(QSERIES_SPECIAL)
    series_ops = [n for n in stats if n.startswith(SERIES_OP_PREFIXES)]
    out["qseries.series_ops.calls"] = sum(get(n)["calls"] for n in series_ops)
    out["qseries.series_ops.self_s"] = self_sum(series_ops)
    for suite in SUITES:
        out[f"cli.suite_s.{suite}"] = merged["suite_s"][suite]
    out["cli.cpu_s"] = merged["cpu_s"]
    out["tracing.spans"] = sum(s["calls"] for s in stats.values())
    return out


# ---------------------------------------------------------------------------
# measurement loop
# ---------------------------------------------------------------------------


def enough_ops(ops: list, trace: bool) -> bool:
    if not trace:
        return len(ops) >= MIN_OPS
    traced = sum(op["mode"] == "traced" for op in ops)
    return traced >= MIN_TRACED_OPS and len(ops) > traced


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the ops under a SpeedProbe and give every command's set-up and
    run time, and every op's wall time, in seconds at the reference speed."""
    with SpeedProbe() as probe:
        ops = run_ops(commands(workload, seed), seconds, trace)
    for op in ops:
        for c in op["cmds"]:
            c["setup_s"] = probe.ref_seconds(c["start"], c["ready"])
            c["run_s"] = probe.ref_seconds(c["ready"], c["end"])
        op["setups"] = ([probe.ref_seconds(c["start"], c["ready"]) for c in op["setup_only"]]
                        + [c["setup_s"] for c in op["cmds"]])
        op["ref_wall_s"] = sum(c["setup_s"] + c["run_s"] for c in op["cmds"])
    return {"workload": workload, "seed": seed, "trace": trace, "ops": ops}


def run_ops(cmd_args: list, seconds: float, trace: bool) -> list:
    """Repeat ops (untraced, or alternating traced and untraced, a traced
    one first) and stop at the op boundary nearest to `seconds` after the
    start, once enough ops have run."""
    ops = []
    start = time.perf_counter()
    while True:
        mode = "traced" if trace and (not ops or ops[-1]["mode"] == "plain") else "plain"
        elapsed = time.perf_counter() - start
        if ops:
            durations = [op["end"] - op["start"] for op in ops]
            same = [d for d, op in zip(durations, ops) if op["mode"] == mode]
            next_end = elapsed + statistics.median(same or durations) / 2
            if elapsed > LAST_START_S or (enough_ops(ops, trace) and next_end > seconds):
                return ops
        op_start = time.perf_counter()
        setup_only = [run_command(cmd_args[0], "setup") for _ in range(SETUP_ONLY_PER_OP)]
        op = run_op(cmd_args, mode)
        op.update(start=op_start, end=time.perf_counter(), setup_only=setup_only)
        ops.append(op)


def verdict(run: dict) -> dict:
    """Gate every op and check that all ops agree with the first."""
    attempted = failed = 0
    problems = []
    for op in run["ops"]:
        for c in op["cmds"]:
            a, f = gate(c)
            attempted += a
            failed += f
            if f:
                checks = (c.get("report") or {}).get("checks", [])
                bad = [f"{k['name']} ({k.get('error') or k.get('max_error')})"
                       for k in checks if k["status"] != "pass"]
                problems.append(f"failed: {' '.join(c['args'])}: {', '.join(bad)} "
                                f"{c['stderr'].strip()[-300:]}")
    first = [canonical(c.get("report")) for c in run["ops"][0]["cmds"]]
    for op in run["ops"][1:]:
        if [canonical(c.get("report")) for c in op["cmds"]] != first:
            problems.append(f"a {op['mode']} op printed a different report than the first op")
    traced = [exact_counts(merge_traces(op)) for op in run["ops"] if op["mode"] == "traced"]
    if any(t != traced[0] for t in traced[1:]):
        problems.append("traced ops disagree on exact counts")
    if run["trace"] and len(traced) < MIN_TRACED_OPS:
        problems.append("too few traced ops to check that counts repeat")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "problems": problems}


def metric_units(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def summarize(run: dict) -> tuple:
    """(samples of the printed figures, reported metric values, their units)."""
    ops = run["ops"]
    plain = [op for op in ops if op["mode"] == "plain"]
    samples = end_to_end(plain, ops)
    if run["workload"] == "fit-ladder-a2":
        samples["fit_s.high_im"] = [ladder_fit_seconds(op, HIGH_IM_F) for op in plain]
        samples["fit_s.low_im"] = [ladder_fit_seconds(op, LOW_IM_F) for op in plain]
    else:
        samples["fit_s.high_im"] = samples["fit_s.low_im"] = [0.0]
    if not run["trace"]:
        units = metric_units("end_to_end")
        return samples, {n: statistics.median(samples[n]) for n in units}, units
    traced = [op for op in ops if op["mode"] == "traced"]
    per_op = [layer_values(merge_traces(op)) for op in traced]
    units = metric_units("per_layer")
    values = {n: statistics.median(v[n] for v in per_op) for n in per_op[0]}
    values["fit_s.high_im"] = statistics.median(samples["fit_s.high_im"])
    values["fit_s.low_im"] = statistics.median(samples["fit_s.low_im"])
    samples["traced_wall_s"] = [op["ref_wall_s"] for op in traced]
    values["tracing.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                    - statistics.median(samples["wall_s"]))
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics without a value: {sorted(missing)}")
    return samples, {n: values[n] for n in units}, units


def print_human(run: dict, verdict_: dict, samples: dict) -> None:
    n_ops = len(run["ops"])
    share = verdict_["failed"] / verdict_["attempted"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
          f"ops {n_ops}  commands/op {len(run['ops'][0]['cmds'])}")
    print(f"  failed ops         {verdict_['failed']} of {verdict_['attempted']} ({share:.1%})")
    units = {"wall_s": "s", "traced_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "measured_wall_s": "s", "slowdown": "x",
             "fit_s.high_im": "s", "fit_s.low_im": "s"}
    for name, values in samples.items():
        if run["workload"] != "fit-ladder-a2" and name.startswith("fit_s."):
            continue
        q1, q3 = quartiles(values)
        print(f"  {name:18s} {statistics.median(values):10.4f} {units[name]:3s} "
              f"median of {len(values)} (quartiles {q1:.4f} .. {q3:.4f})")
    for p in verdict_["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for needed in (ROOT / "src" / "thetatrace" / "cli.py", ROOT / A2):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a "
                  "checkout of the thetatrace repository", file=sys.stderr)
            return 2

    # this host's CPUs change speed independently of each other, so the
    # workers (which inherit the affinity) and the SpeedProbe share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        run = measure(workload, args.seed, args.seconds, bool(args.trace))
        v = verdict(run)
        samples, values, units = summarize(run)
        print_human(run, v, samples)
        results[workload] = (v, values, units)
    verdicts = [v for v, _, _ in results.values()]
    metrics = {}
    for workload, (_, values, units) in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        metrics.update({prefix + n: {"value": values[n], "unit": units[n]} for n in units})
    print(json.dumps({
        "correct": all(v["correct"] for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
