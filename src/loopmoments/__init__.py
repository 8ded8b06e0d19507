"""Exact closed-form moments for probabilistic loop programs.

The public surface: :func:`analyze` runs source text through the whole
pipeline and returns an :class:`InvariantReport`, the one record of every
stage's output (``validated``, ``equations``, ``order`` and the closed forms
in ``invariants``); the frontend, moment, recurrence, report, and verifier
modules expose the individual stages.
"""

from .frontend import (
    Distribution,
    ParseError,
    Program,
    UnsupportedProgramError,
    UpdateBranch,
    ValidatedProgram,
    parse_program,
    validate_program,
)
from .moments import (
    ClosureOverflowError,
    Moment,
    MomentEquation,
    MomentTable,
    initial_moment,
    moment_closure,
    moment_equation,
)
from .pipeline import (
    Goal,
    GoalError,
    InvariantReport,
    analyze,
    goal_moments,
    parse_goals,
)
from .recurrences import (
    Recurrence,
    SolverError,
    UnresolvedBaseError,
    build_recurrence,
    solve_all,
    solve_first_order,
    topo_order,
)
from .report import emit, emit_json, emit_tex, emit_txt, report_from_json
from .symbolic import ExpPoly, Poly, UnboundSymbolError
from .verifier import (
    MomentEstimate,
    SimConfig,
    VerifierError,
    VerifyEntry,
    VerifyReport,
    check,
    simulate,
)

__version__ = "0.1.0"
