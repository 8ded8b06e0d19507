"""End-to-end analysis: from loop source text to closed-form moments.

A goal is a plain value: an ``int`` k for "the k-th moments of every
program variable" (every name in the validated program's ``variables``) or
the :class:`Moment` of one specific monomial (written like ``x^2`` or
``x^2*y``).
:func:`analyze` runs the whole pipeline -- parse, validate, collect the
needed moments, order and solve their recurrences -- and returns one
:class:`InvariantReport` that holds every stage's output once: the closed
forms and what a renderer prints, plus the validated program, the moment
equations and their solve order as working state.  Its symbolic initials
are the symbols of unspecified initial values that the initial moments
hold, its side conditions are the list that ``solve_all`` returns, and its
verification is the verifier's ``VerifyReport``.  The stage functions are
looked up in this module's namespace at call time, so a caller can wrap
them.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Iterable, Mapping, Sequence, Union

from .frontend import ValidatedProgram, parse_program, validate_program
from .moments import (
    Moment,
    MomentEquation,
    MomentTable,
    initial_moment,
    moment_closure,
)
from .recurrences import solve_all, topo_order
from .symbolic import ExpPoly, Poly
from .verifier import VerifyReport


# A goal: the k-th moments of every variable, or one moment.
Goal = Union[int, Moment]


class GoalError(ValueError):
    """A goal token is malformed or refers to an unknown variable."""


def parse_goals(
    raw: Sequence[Union[Goal, str]], variables: Iterable[str] | None = None
) -> list[Goal]:
    """Turn goal tokens into goals and check them.

    A :class:`Moment` is taken as it is, an integer token (or a string of an
    optional ``-`` and digits) becomes a plain ``int``, and anything else is
    parsed as a monomial.  Every order must be at least 1; when
    ``variables`` is given, moment goals must only mention those names.
    """
    if not raw:
        raise GoalError("at least one goal is required")
    known = set(variables) if variables is not None else None
    goals: list[Goal] = []
    for token in raw:
        if isinstance(token, Moment):
            goal = token
        elif isinstance(token, Integral) or (isinstance(token, str) and re.fullmatch(r"-?\d+", token.strip())):
            try:
                goal = int(token)
            except ValueError:  # more digits than the interpreter reads as an int
                length = len(token.strip())
                raise GoalError(f"moment order too long ({length} characters)") from None
        else:
            try:
                goal = Moment.parse(str(token))
            except ValueError as exc:
                raise GoalError(str(exc)) from None
        if isinstance(goal, int):
            if goal < 1:
                raise GoalError(f"moment order must be >= 1, got {goal}")
        elif known is not None:
            unknown = sorted(set(goal.variables()) - known)
            if unknown:
                raise GoalError(
                    f"goal {str(token)!r} mentions unknown variable(s): {', '.join(unknown)}"
                )
        goals.append(goal)
    return goals


def goal_moments(goals: Sequence[Goal], vp: ValidatedProgram) -> set[Moment]:
    """The concrete moments a goal list asks for."""
    wanted: set[Moment] = set()
    for goal in goals:
        if isinstance(goal, int):
            for var in vp.variables:
                wanted.add(Moment.single(var, goal))
        else:
            wanted.add(goal)
    return wanted


@dataclass(frozen=True)
class InvariantReport:
    """Every stage's output of one :func:`analyze` run, ready for rendering.

    ``goals`` are the parsed goals, ``invariants`` the closed form of every
    moment in the closure, ``initial_moments`` their values at ``n = 0`` and
    ``side_conditions`` what the solver assumed.  ``invariants`` and
    ``initial_moments`` are kept in canonical moment order
    (:meth:`Moment.sort_key`), the order every renderer prints.

    ``validated`` (the validated program), ``equations`` (the one-step
    equation of every moment in the closure) and ``order`` (the dependency
    order they are solved in) are the working state, for follow-up stages
    such as the simulation verifier.  They are ``None`` on a report read
    back from JSON and excluded from equality and ``repr``, so reports
    survive serialization round-trips.
    """

    program_name: str
    variables: tuple[str, ...]
    parameters: tuple[str, ...]
    goals: tuple[Goal, ...]
    invariants: Mapping[Moment, ExpPoly]
    initial_moments: Mapping[Moment, Poly]
    symbolic_initials: tuple[str, ...]
    side_conditions: tuple[str, ...]
    elapsed_seconds: float
    verification: VerifyReport | None = None
    validated: ValidatedProgram | None = field(default=None, compare=False, repr=False)
    equations: Mapping[Moment, MomentEquation] | None = field(
        default=None, compare=False, repr=False
    )
    order: tuple[Moment, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("invariants", "initial_moments"):
            moments = getattr(self, name)
            ordered = {m: moments[m] for m in sorted(moments, key=Moment.sort_key)}
            object.__setattr__(self, name, ordered)

    def with_verification(self, verification: VerifyReport) -> "InvariantReport":
        return replace(self, verification=verification)


def analyze(
    source_text: str, goals: Sequence[Union[Goal, str]], *, name: str = "<input>"
) -> InvariantReport:
    """Compute closed-form moments of a loop program for the given goals."""
    started = time.perf_counter()
    vp = validate_program(parse_program(source_text))
    parsed_goals = tuple(parse_goals(goals, vp.variables))
    table = MomentTable()
    equations = moment_closure(goal_moments(parsed_goals, vp), vp, table)
    order = topo_order(equations, vp)
    init_moments = {m: initial_moment(vp, m, table) for m in equations}
    solved, side_conditions = solve_all(order, equations, init_moments)

    # The self-check makes every closed form equal its initial moment at
    # n = 0, and an initial value enters a closed form only through one, so
    # the symbols of the initial moments other than the parameters are the
    # initial values that the closed forms carry.
    carried = set().union(*(value.symbols() for value in init_moments.values()))

    elapsed = time.perf_counter() - started
    return InvariantReport(
        program_name=name,
        variables=vp.variables,
        parameters=tuple(sorted(vp.parameters)),
        goals=parsed_goals,
        invariants=solved,
        initial_moments=init_moments,
        symbolic_initials=tuple(sorted(carried - vp.parameters)),
        side_conditions=tuple(side_conditions),
        elapsed_seconds=elapsed,
        validated=vp,
        equations=equations,
        order=tuple(order),
    )
