"""Outside-in tracing of the thetatrace layers.

The benchmark does not instrument the package's source.  Instead it wraps
public functions and methods of each module at run time and records one span
per call: its duration, the duration covered by nested (child) spans, and a
few exact counts taken from the arguments or the result.  A layer's self
time is the sum of its functions' self times (span minus child spans).

Modules import each other's functions by name (``cli.z_trace``,
``modular.z_vector``, ``fock.graded_trace_series`` and so on), so every
alias of a wrapped function in every ``thetatrace.*`` namespace is rebound,
and ``install`` refuses to run if one is left over.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> public functions of thetatrace.<layer> that get a span
FUNCTIONS = {
    "qseries": (
        "eta_eval", "jacobi_theta", "g2_eval", "p2_eval", "weierstrass_p",
        "dedekind_eta", "eisenstein_g2", "p2_series",
    ),
    "lattice": ("load_lattice",),
    "trace": (
        "z_trace", "z_vector", "theta_w", "t_phase", "colored_partition_counts",
        "moment_series", "graded_trace_series", "insertion_counts_by_grade",
    ),
    "fock": (
        "build_basis", "diagonal_entry", "census_by_grade",
        "group_census_by_phase", "s_function_trace", "verify_trace_recursion",
    ),
    "involutions": (
        "list_involutions", "count_with_fixed", "enumerate_decompositions",
        "decomposition_is_valid", "verify_sign_lemma",
        "verify_multinomial_identity", "exponential_regroup_check",
    ),
    "modular": (
        "sample_points", "adapted_samples", "fit_transition", "verify_relation",
        "fit_and_verify", "verify_cocycle", "decompose_ST",
        "s_matrix_prediction", "t_matrix_prediction",
    ),
    "cli": ("main", "run_suite", "run_fit", "run_expand"),
}

SERIES_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "scale")

# (layer, class name) -> methods that get a span; class-level aliases such as
# __radd__ = __add__ are rebound with them
METHODS = {
    ("lattice", "EvenLattice"): ("points_in_ball", "enumerate_vectors", "theta_series"),
    ("qseries", "TruncatedSeries"): SERIES_OPS + ("__rsub__", "__pow__", "reciprocal"),
    ("qseries", "BiSeries"): SERIES_OPS,
}

# functions whose distinct argument tuples are counted
DISTINCT = {
    "trace.z_trace", "modular.fit_transition", "fock.build_basis",
    "lattice.EvenLattice.enumerate_vectors",
}


def _result_len(args, kwargs, result):
    return len(result)


def _sample_count(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs.get("samples", kwargs.get("holdout")))


# function -> how many items one call handles
ITEMS = {
    "involutions.list_involutions": _result_len,
    "involutions.enumerate_decompositions": _result_len,
    "lattice.EvenLattice.points_in_ball": _result_len,
    "fock.build_basis": _result_len,
    "modular.fit_transition": _sample_count,
    "modular.verify_relation": _sample_count,
}

# enumerated lattice points are also credited to every enclosing span, so
# z_trace can report time per point
POINTS = "lattice.EvenLattice.points_in_ball"


def _freeze(x):
    """Hashable, value-based key for an argument (lists become tuples)."""
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    return x


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "items", "points_below", "keys")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.points_below = 0
        self.keys = set()


class Tracer:
    """Span bookkeeping for one worker process."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.errors = defaultdict(int)  # layer -> ThetaTraceErrors leaving it
        self._stack = []  # [layer, stat, child seconds]

    def wrap(self, layer: str, name: str, fn, error_type):
        stat = self.stats[name]
        stack = self._stack
        errors = self.errors
        items = ITEMS.get(name)
        distinct = name in DISTINCT
        is_points = name == POINTS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, stat, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type:
                # count an error once per layer it leaves
                if len(stack) < 2 or stack[-2][0] != layer:
                    errors[layer] += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if items is not None:
                n = items(args, kwargs, result)
                stat.items += n
                if is_points:
                    for outer in stack:
                        outer[1].points_below += n
            if distinct:
                stat.keys.add((_freeze(args), _freeze(sorted(kwargs.items()))))
            return result

        return traced

    def summary(self) -> dict:
        return {
            "stats": {
                name: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "items": s.items,
                    "points_below": s.points_below,
                    "distinct": len(s.keys),
                }
                for name, s in self.stats.items()
            },
            "errors": dict(self.errors),
        }


def install(tracer: Tracer) -> None:
    """Wrap every traced function and rebind all of its aliases."""
    import thetatrace.cli  # noqa: F401  (imports every layer)
    from thetatrace.errors import ThetaTraceError

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "thetatrace" or n.startswith("thetatrace."))]
    replace = {}  # id(original) -> (original, wrapper)
    for layer, names in FUNCTIONS.items():
        mod = sys.modules[f"thetatrace.{layer}"]
        for fname in names:
            fn = getattr(mod, fname)
            replace[id(fn)] = (fn, tracer.wrap(layer, f"{layer}.{fname}", fn, ThetaTraceError))
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = replace.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])

    classes = []
    for (layer, cls_name), names in METHODS.items():
        cls = getattr(sys.modules[f"thetatrace.{layer}"], cls_name)
        classes.append(cls)
        wrapped = {}
        for mname in names:
            fn = vars(cls)[mname]
            wrapped[id(fn)] = (fn, tracer.wrap(layer, f"{layer}.{cls_name}.{mname}", fn,
                                               ThetaTraceError))
        for attr, val in list(vars(cls).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(cls, attr, hit[1])
        replace.update(wrapped)

    originals = {id(fn) for fn, _ in replace.values()}
    for holder in modules + classes:
        for attr, val in vars(holder).items():
            if id(val) in originals:
                raise RuntimeError(f"{holder.__name__}.{attr} escaped tracing")
