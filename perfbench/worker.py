"""One cold CLI invocation, as the benchmark's worker process.

    python3 perfbench/worker.py MODE CLI_ARGS...

MODE is ``setup`` (set up, then exit), ``plain`` (set up, then run
``thetatrace.cli.main(CLI_ARGS)``) or ``traced`` (the same with every layer
wrapped by perfbench/tracer.py).  Set-up is the CLI's own: the interpreter
start, ``import thetatrace.cli``, parsing CLI_ARGS and ``cli._build_config``
(which loads the lattice), plus the lattice's dual cosets.  The command then
runs on that same config, so it repeats none of this work.  The worker
writes ``ready`` on its own line when set-up is done, so the parent can time
it.  After the command it writes one JSON object: the exit code, the report
the CLI printed, its stderr, peak RSS, CPU time and, when traced, the span
summary.
"""

import os
import sys

# only what set-up needs is imported before "ready", so set-up time is the
# program's own
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _suite_seconds(report: dict, suite_checks: dict) -> dict:
    suite_of = {name: suite for suite, checks in suite_checks.items() for name, *_ in checks}
    out = {suite: 0.0 for suite in suite_checks}
    for check in report.get("checks", ()):
        out[suite_of[check["name"]]] += check["runtime_ms"] / 1000
    return out


def main() -> int:
    mode, cli_args = sys.argv[1], sys.argv[2:]
    import thetatrace.cli as cli

    cfg = cli._build_config(cli.build_parser().parse_args(cli_args))
    cfg.lattice.cosets
    print("ready", flush=True)
    if mode == "setup":
        return 0
    # cli.main parses the arguments again (cheap) and runs on the config
    # built above instead of building a second one
    cli._build_config = lambda args: cfg

    import contextlib
    import io
    import json
    import resource

    tracer = None
    if mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "report": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        report = json.loads(out.getvalue()) if out.getvalue() else {}
        result["trace"]["suite_s"] = _suite_seconds(report, cli.SUITE_CHECKS)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
