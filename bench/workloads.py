"""Workload definitions shared by bench/run.py, its job process and
the reference generator.

This module imports nothing from ``loopmoments`` and nothing heavy, so the
job process can load it after ``loopmoments.cli`` without disturbing the
cold-start and memory measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

# The README random walk.
WALK = """\
x = 0
while true:
  u = RV(uniform, 0, b)
  g = RV(gauss, 0, 1)
  x = x - u @ 1/2; x + u @ 1/2
  y = y + x + g
"""

# The three-variable program from the ROADMAP, pinned with only ``x = 0`` so
# the coefficients stay multivariate in y(0) and z(0).
THREE_VAR = """\
x = 0
while true:
  u = RV(uniform, 0, 1)
  g = RV(gauss, 0, 1)
  x = 1/2*x + u @ 1/3; x - u @ 2/3
  y = y + x*x + g
  z = 1/3*z + x*y + 1
"""

PROGRAMS = {"walk": WALK, "three-var": THREE_VAR}

# Exact bindings under which closed forms are compared with the reference
# values; for the walk they are also the verifier's bindings.
BINDINGS = {
    "walk": {"b": "2", "y(0)": "1/3"},
    "three-var": {"y(0)": "1/2", "z(0)": "-1/3"},
}

# Verifier budget of walk-verify: the CLI defaults.
VERIFY_ITERATIONS = 20
VERIFY_TRIALS = 100_000


@dataclass(frozen=True)
class Workload:
    """A pass runs one job per goal list, in order; each job analyses
    ``program`` from source text, verifies when ``verify`` is set, and
    renders txt and json."""

    program: str
    goal_lists: tuple[tuple[int, ...], ...]
    verify: bool = False


WORKLOADS = {
    "walk-ladder": Workload("walk", tuple((k,) for k in range(1, 9))),
    "three-var": Workload("three-var", ((4,),)),
    "walk-verify": Workload("walk", ((1, 2),), verify=True),
}
