"""Spans and kernel counts recorded from outside the engine.

A :class:`Tracer` records one span (name, start, end, parent) per call.  The
job function opens stage spans itself; :meth:`Tracer.install` replaces
public functions in the module namespaces where their callers look them up,
so calls made inside ``analyze`` are recorded too.  Nothing in ``loopmoments``
is edited.  Kernel call counts and the kernel's self time come from a
separate ``cProfile`` pass (:func:`kernel_profile`).
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import importlib
import pstats
import sys
import time
from fractions import Fraction

# (module, attribute, span name): each attribute is the name under which the
# calling module looks the function up.
HOOKS = (
    ("loopmoments.pipeline", "parse_program", "frontend.parse"),
    ("loopmoments.pipeline", "validate_program", "frontend.validate"),
    ("loopmoments.pipeline", "moment_closure", "moments.closure"),
    ("loopmoments.moments", "moment_equation", "moments.equation"),
    ("loopmoments.pipeline", "initial_moment", "moments.initial"),
    ("loopmoments.pipeline", "topo_order", "recurrences.topo"),
    ("loopmoments.pipeline", "solve_all", "recurrences.solve_all"),
    ("loopmoments.recurrences", "build_recurrence", "recurrences.build"),
    ("loopmoments.recurrences", "solve_first_order", "recurrences.solve"),
)

# Per-layer time metric -> span names whose self time it sums.
LAYER_TIMES = {
    "frontend.s": ("frontend.parse", "frontend.validate"),
    "moments.closure_s": ("moments.closure", "moments.equation"),
    "moments.initial_s": ("moments.initial",),
    "recurrences.topo_s": ("recurrences.topo",),
    "recurrences.build_s": ("recurrences.build",),
    "recurrences.solve_s": ("recurrences.solve_all", "recurrences.solve"),
    "pipeline.self_s": ("pipeline.analyze",),
    "verifier.simulate_s": ("verifier.simulate",),
    "verifier.check_s": ("verifier.check",),
    "report.txt_s": ("report.txt",),
    "report.json_s": ("report.json",),
    "trace.unattributed_s": ("job",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every hook that exists; report the ones that do not."""
        for module_name, attr, name in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"tracing: {module_name}.{attr} not found; {name} stays empty",
                      file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def layer_times(self) -> dict[str, float]:
        """Sum of span self times per layer metric; the metrics partition
        the total duration of the ``job`` spans."""
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                self_time[parent] -= end - start
        by_name: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, self_time):
            by_name[name] = by_name.get(name, 0.0) + t
        return {
            metric: sum(by_name.get(n, 0.0) for n in names)
            for metric, names in LAYER_TIMES.items()
        }


def kernel_profile(run) -> dict[str, float]:
    """Run ``run()`` under cProfile; return kernel call counts and the self
    time spent in ``loopmoments.symbolic`` and ``fractions``."""
    from loopmoments.symbolic import Poly

    counted = {
        "symbolic.fraction_new": Fraction.__new__,
        "symbolic.poly_new": Poly.__init__,
        "symbolic.poly_mul": Poly.__mul__,
        "symbolic.poly_add": Poly.__add__,
        "symbolic.substitute_calls": Poly.substitute,
    }
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    out = {}
    for metric, fn in counted.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[metric] = stats[key][1] if key in stats else 0
    kernel_files = {Poly.__init__.__code__.co_filename, Fraction.__new__.__code__.co_filename}
    out["symbolic.kernel_self_s"] = sum(
        tottime for (filename, _, _), (_, _, tottime, _, _) in stats.items()
        if filename in kernel_files
    )
    return out
