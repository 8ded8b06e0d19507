"""End-to-end analysis: from loop source text to closed-form moments.

A goal is either "the k-th moments of every program variable" (every name
in the validated program's ``variables``, written as a bare integer) or one
specific monomial moment (written like ``x^2`` or ``x^2*y``).
:func:`analyze` runs the whole pipeline -- parse, validate, collect the
needed moments, order and solve their recurrences -- records every stage's
output in one :class:`Analysis`, and returns the :class:`InvariantReport`
built from it, whose symbolic initials are the symbols of unspecified
initial values that the initial moments hold.  The stage functions are
looked up in this module's namespace at call time, so a caller can wrap
them.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence, Union

from .frontend import ValidatedProgram, parse_program, validate_program
from .moments import (
    CLOSURE_CAP,
    Moment,
    MomentEquation,
    MomentTable,
    initial_moment,
    moment_closure,
)
from .recurrences import solve_all, topo_order
from .symbolic import ExpPoly, Poly


@dataclass(frozen=True)
class AllVarsGoal:
    """The k-th moment of every assigned variable."""

    k: int

    def __str__(self) -> str:
        return str(self.k)


@dataclass(frozen=True)
class MomentGoal:
    """One specific monomial moment."""

    moment: Moment

    def __str__(self) -> str:
        return str(self.moment)


Goal = Union[AllVarsGoal, MomentGoal]


class GoalError(ValueError):
    """A goal token is malformed or refers to an unknown variable."""


def parse_goals(
    raw: Sequence[Union[Goal, str, int]], variables: Iterable[str] | None = None
) -> list[Goal]:
    """Turn goal tokens into goals and check them.

    Goal objects are taken as they are, integer tokens (or strings of an
    optional ``-`` and digits) become :class:`AllVarsGoal`, and anything
    else is parsed as a monomial.  Every order must be at least 1; when
    ``variables`` is given, monomial goals must only mention those names.
    """
    if not raw:
        raise GoalError("at least one goal is required")
    known = set(variables) if variables is not None else None
    goals: list[Goal] = []
    for token in raw:
        if isinstance(token, (AllVarsGoal, MomentGoal)):
            goal = token
        elif isinstance(token, int) or (isinstance(token, str) and re.fullmatch(r"-?\d+", token.strip())):
            try:
                order = int(token)
            except ValueError:  # more digits than the interpreter reads as an int
                length = len(token.strip())
                raise GoalError(f"moment order too long ({length} characters)") from None
            goal = AllVarsGoal(order)
        else:
            try:
                goal = MomentGoal(Moment.parse(str(token)))
            except ValueError as exc:
                raise GoalError(str(exc)) from None
        if isinstance(goal, AllVarsGoal):
            if goal.k < 1:
                raise GoalError(f"moment order must be >= 1, got {goal.k}")
        elif known is not None:
            unknown = sorted(set(goal.moment.variables()) - known)
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
        if isinstance(goal, AllVarsGoal):
            for var in vp.variables:
                wanted.add(Moment.single(var, goal.k))
        else:
            wanted.add(goal.moment)
    return wanted


@dataclass(frozen=True)
class VerifyEntry:
    """Comparison of one closed form against its simulation estimate."""

    moment: Moment
    expected: float
    mean: float
    sd: float
    se: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    iterations: int
    trials: int
    seed: int
    z: float
    bindings: tuple[tuple[str, str], ...]  # parameter -> exact rational, as text
    entries: tuple[VerifyEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


@dataclass(frozen=True)
class Analysis:
    """Every stage's output of one :func:`analyze` run, in stage order.

    ``program`` is the validated program, ``goals`` the parsed goals,
    ``equations`` the one-step equation of every moment in the closure,
    ``order`` the dependency order they are solved in, ``initial_moments``
    their values at ``n = 0``, ``solved`` the closed form of every one, and
    ``side_conditions`` what the solver assumed.
    """

    program: ValidatedProgram
    goals: tuple[Goal, ...]
    equations: Mapping[Moment, MomentEquation]
    order: tuple[Moment, ...]
    initial_moments: Mapping[Moment, Poly]
    solved: Mapping[Moment, ExpPoly]
    side_conditions: tuple[str, ...]


@dataclass(frozen=True)
class InvariantReport:
    """Everything the analysis produced, ready for rendering.

    ``invariants`` and ``initial_moments`` are copied in canonical moment
    order (:meth:`Moment.sort_key`), the order every renderer prints.
    ``analysis`` is the working state behind the report, for follow-up
    stages such as the simulation verifier; it is ``None`` on a report read
    back from JSON and excluded from equality, so reports survive
    serialization round-trips.
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
    analysis: Analysis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for name in ("invariants", "initial_moments"):
            moments = getattr(self, name)
            ordered = {m: moments[m] for m in sorted(moments, key=Moment.sort_key)}
            object.__setattr__(self, name, ordered)

    @property
    def validated(self) -> ValidatedProgram | None:
        """The validated program, or ``None`` when there is no analysis."""
        return self.analysis.program if self.analysis is not None else None

    def with_verification(self, verification: VerifyReport) -> "InvariantReport":
        return replace(self, verification=verification)


def analyze(
    source_text: str,
    goals: Sequence[Union[Goal, str, int]],
    *,
    name: str = "<input>",
    max_closure: int = CLOSURE_CAP,
) -> InvariantReport:
    """Compute closed-form moments of a loop program for the given goals."""
    started = time.perf_counter()
    vp = validate_program(parse_program(source_text))
    parsed_goals = tuple(parse_goals(goals, vp.variables))
    table = MomentTable()
    equations = moment_closure(goal_moments(parsed_goals, vp), vp, table, cap=max_closure)
    order = topo_order(equations)
    init_moments = {m: initial_moment(vp, m, table) for m in equations}
    solved, side_conditions = solve_all(order, equations, init_moments)
    analysis = Analysis(
        program=vp,
        goals=parsed_goals,
        equations=equations,
        order=tuple(order),
        initial_moments=init_moments,
        solved=solved,
        side_conditions=tuple(side_conditions),
    )

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
        goals=analysis.goals,
        invariants=analysis.solved,
        initial_moments=analysis.initial_moments,
        symbolic_initials=tuple(sorted(carried - vp.parameters)),
        side_conditions=analysis.side_conditions,
        elapsed_seconds=elapsed,
        analysis=analysis,
    )
