"""Input language frontend: parsing and structural validation.

The input language describes a single infinite probabilistic loop::

    x = 0
    while true:
      u = RV(uniform, 0, b)
      g = RV(gauss, 0, 1)
      x = x - u @ 1/2; x + u @ 1/2
      y = y + x + g

Three sections, one assignment per line: initial values before the loop
header, random-variable draws at the top of the body, then probabilistic
updates.  An update line lists branches separated by ``;`` with branch
probabilities after ``@``; a single branch may omit its probability.
Expressions are sums of signed products of names and numerals (decimals
and fractions like ``1/2``, both read exactly), with no parentheses and no
powers.  The two lexical rules, what a name and what a numeral is, are
written once, as :data:`NAME` and :data:`NUMERAL`; the expression reader,
the assignment targets and the goal monomials all build their patterns
from them.  Names never assigned anywhere are parameters.  Lines starting
with ``#`` are comments, and only the literal header ``while true:`` is
accepted.

:func:`parse_program` builds a :class:`Program`; :func:`validate_program`
checks the structural restrictions that make moment computation possible
and returns a :class:`ValidatedProgram` for the rest of the pipeline, with
every variable resolved once: its ``variables``, the ``state`` carried
between iterations, the ``draws``, each variable's ``initial`` value, the
``symbols`` a binding must give, the ``draw_schedule`` by which the
moment equations average the draws out, and the solve-order ``rank``.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Mapping, Union

from .symbolic import ONE, Poly

# The loop counter name is reserved so reports stay unambiguous.
RESERVED_NAMES = frozenset({"n", "RV"})


class ParseError(Exception):
    """Syntax error, with 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where = f" ({where})"
        super().__init__(f"{message}{where}")


class UnsupportedProgramError(Exception):
    """The program parses but violates a structural restriction.

    ``restriction`` names which of the four requirements failed:
    ``"distinctness"`` (assigned names pairwise distinct, variables never
    used where only parameters are allowed), ``"probability-sum"``
    (branch probabilities of an update sum to 1),
    ``"dependency-structure"`` (updates depend on themselves linearly and
    otherwise only on previously assigned variables), or
    ``"distribution-argument"`` (constant distribution arguments meet their
    kind's rule, such as a gauss variance >= 0).
    """

    def __init__(self, restriction: str, message: str, line: int | None = None):
        self.restriction = restriction
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{restriction}: {message}{where}")


@dataclass(frozen=True)
class Distribution:
    """A parametrized sampling distribution.

    ``uniform`` takes lower and upper bound; ``gauss`` takes mean and
    variance.  Both arguments are polynomials over parameters only.
    """

    kind: str
    arg1: Poly
    arg2: Poly

    def symbols(self) -> set[str]:
        return self.arg1.symbols() | self.arg2.symbols()


def _uniform_raw_moment(a: Poly, b: Poly, k: int, lower: Callable[[int], Poly]) -> Poly:
    # E[X^k] = (b^(k+1) - a^(k+1)) / ((k+1)(b-a)) expands to the polynomial
    # sum_{i<=k} a^i b^(k-i) / (k+1), which also covers the point mass a == b;
    # k*b times the sum for k-1 holds every term of it but a^k.
    if k == 0:
        return ONE
    return (k * b * lower(k - 1) + a**k) / (k + 1)


def _uniform_sampler(a: float, b: float):
    import numpy as np

    lo, hi = min(a, b), max(a, b)
    if lo == hi:
        return lambda rng, size: np.full(size, lo)
    if not math.isfinite(hi - lo):
        raise OverflowError("the width of the uniform draw")
    if lo == 0:  # 0.0 + x is x for every x >= 0
        return lambda rng, size: hi * rng.random(size)
    return lambda rng, size: lo + (hi - lo) * rng.random(size)


def _gauss_raw_moment(mean: Poly, variance: Poly, k: int, lower: Callable[[int], Poly]) -> Poly:
    # m_0 = 1, m_1 = mean, m_k = mean*m_{k-1} + (k-1)*variance*m_{k-2}.
    if k < 2:
        return mean if k else ONE
    return mean * lower(k - 1) + (k - 1) * variance * lower(k - 2)


def _gauss_check(mean, variance) -> str | None:
    if variance is not None and variance < 0:
        return f"gauss variance evaluates to the negative value {variance}"
    return None


def _gauss_sampler(mean: float, variance: float):
    sd = math.sqrt(variance)
    if mean == 0 and sd == 1:
        return lambda rng, size: rng.standard_normal(size)
    return lambda rng, size: mean + sd * rng.standard_normal(size)


# Each kind of ``RV(kind, arg1, arg2)``: ``raw_moment(arg1, arg2, k, lower)``,
# E[X^k] as a polynomial in the arguments, one step from ``lower(j)``, the
# kind's E[X^j] for j < k (the caller builds the orders bottom-up, so no step
# recurses further); why exact or float arguments (None for one with
# parameters) make no distribution, or None; and for float arguments that do,
# ``sample(rng, size)`` (OverflowError names what is beyond float range).
DistributionKind = namedtuple("DistributionKind", "raw_moment check sampler")
DISTRIBUTIONS = {
    "uniform": DistributionKind(_uniform_raw_moment, lambda lo, hi: None, _uniform_sampler),
    "gauss": DistributionKind(_gauss_raw_moment, _gauss_check, _gauss_sampler),
}


@dataclass(frozen=True)
class UpdateBranch:
    expr: Poly
    prob: Poly


InitValue = Union[Poly, Distribution]


@dataclass(frozen=True)
class InitAssignment:
    var: str
    value: InitValue
    line: int = field(compare=False)


@dataclass(frozen=True)
class RvAssignment:
    var: str
    dist: Distribution
    line: int = field(compare=False)


@dataclass(frozen=True)
class UpdateAssignment:
    var: str
    branches: tuple[UpdateBranch, ...]
    line: int = field(compare=False)


@dataclass(frozen=True)
class Program:
    """A parsed loop, before validation.

    Assignment order is textual order; ``parameters`` holds every symbol
    that is never assigned anywhere in the program.  Equality ignores the
    source line numbers.
    """

    init_assignments: tuple[InitAssignment, ...]
    rv_assignments: tuple[RvAssignment, ...]
    update_assignments: tuple[UpdateAssignment, ...]
    parameters: frozenset[str]


@dataclass(frozen=True, eq=False)
class ValidatedProgram:
    """A :class:`Program` that passed :func:`validate_program`, with every
    variable resolved once.

    ``variables`` lists the assigned variables in program order: draws,
    then updates, then init-only constants.  ``state`` holds those carried
    from iteration to iteration (updates and constants), ``draws`` maps each
    body draw to its :class:`Distribution`, and ``initial`` maps every
    variable, in ``variables`` order, to its value at ``n = 0``: its init
    assignment, else its draw's distribution (a measurement sees the latest
    draw), else the symbol ``v(0)``.  ``symbols`` holds every name a binding
    must give: the parameters and those ``v(0)`` symbols.

    ``draw_schedule`` says when the moment equations average each draw out.
    Entry ``i`` names, sorted, the draws that update ``i`` (in text order)
    is the first to mention: the reverse walk over the updates eliminates
    them right after passing it.  One more entry, the last, names the draws
    that no update mentions, eliminated before the walk.

    ``rank`` lists the updates in reverse text order, then the init-only
    constants, then the draws.  By the dependency-structure rule, sorting
    moments on their exponent vectors over it puts dependencies first.
    """

    program: Program
    variables: tuple[str, ...]
    state: frozenset[str]
    draws: Mapping[str, Distribution]
    initial: Mapping[str, InitValue]
    symbols: frozenset[str]
    draw_schedule: tuple[tuple[str, ...], ...]
    rank: tuple[str, ...]

    @property
    def parameters(self) -> frozenset[str]:
        return self.program.parameters

    @property
    def update_assignments(self) -> tuple[UpdateAssignment, ...]:
        return self.program.update_assignments


# ---------------------------------------------------------------------------
# Expression reading
# ---------------------------------------------------------------------------

# The two lexical rules: a name, and an unsigned numeral (a decimal, or a
# decimal over a positive integer).
NAME = r"[A-Za-z][A-Za-z0-9]*"
NUMERAL = r"\d+\.?\d*(?:/[1-9]\d*)?"

_NAME = re.compile(NAME)

# One token of an expression after optional blanks; any other non-blank
# character is a ``bad`` token, so every character is read by one branch.
_TOKEN = re.compile(rf"\s*(?:(?P<num>{NUMERAL})|(?P<name>{NAME})|(?P<op>[-+*])|(?P<bad>\S))")


def _numeral(text: str) -> tuple[int, int] | None:
    """A :data:`NUMERAL`'s exact value as ``(numerator, denominator)``, or
    ``None`` when one of its digit strings (before the ``.``, after it, or
    the denominator) is longer than the interpreter reads as an ``int``
    (4300 digits on CPython by default)."""
    decimal, _, den = text.partition("/")
    whole, _, fraction = decimal.partition(".")
    scale = 10 ** len(fraction)
    try:
        return int(whole) * scale + int(fraction or 0), scale * int(den or 1)
    except ValueError:
        return None


def parse_expression(text: str, line: int = 0) -> Poly:
    """Read one expression, a sum of signed products of names and numerals
    (no parentheses, no powers), in one pass from left to right.

    Each product is kept as its integer numerator and denominator and the
    names it multiplies, and :meth:`Poly.sum_of_products` builds the
    polynomial once at the end.  Error columns are 1-based positions in
    ``text``.  A bad character is reported wherever it is, before any other
    error; an expression cut short is reported one past its end (at the
    separator that ended the piece, or past the end of the line)."""
    if not text.strip():
        raise ParseError("empty expression", line, len(text) + 1)
    # The product being read is ``num / den`` times ``names``, its sign in
    # ``num``; ``due`` is set while a factor must come next.
    products: list[tuple[int, int, list[str]]] = []
    num, den, names, due = 1, 1, [], True
    error = None
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, m.start(kind) + 1)
        if error is not None:
            continue
        if due and tok == "-":
            num = -num
        elif due and kind == "num":
            value = _numeral(tok)
            if value is None:
                error = ParseError(
                    f"numeral too long ({len(tok)} characters)", line, m.start(kind) + 1
                )
            else:
                num, den, due = num * value[0], den * value[1], False
        elif due and kind == "name" and tok in RESERVED_NAMES:
            error = ParseError(f"{tok!r} is a reserved name", line, m.start(kind) + 1)
        elif due and kind == "name":
            names.append(tok)
            due = False
        elif not due and kind == "op":
            due = True
            if tok != "*":
                products.append((num, den, names))
                num, den, names = (1 if tok == "+" else -1), 1, []
        else:
            error = ParseError(f"unexpected {tok!r}", line, m.start(kind) + 1)
    if error is not None:
        raise error
    if due:
        raise ParseError("unexpected end of expression", line, len(text) + 1)
    products.append((num, den, names))
    return Poly.sum_of_products(products)


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------

_HEADER = "while true:"
_RV_PREFIX = re.compile(r"^\s*RV\s*\(")


def _split(text: str, sep: str, maxsplit: int = -1) -> list[str]:
    """``text.split(sep, maxsplit)``, each piece indented by blanks to where
    it starts in ``text``: positions in a piece stay columns of the line."""
    pieces, col = [], 0
    for piece in text.split(sep, maxsplit):
        pieces.append(" " * col + piece)
        col += len(piece) + len(sep)
    return pieces


def _parse_distribution(text: str, line: int) -> Distribution:
    body = text.rstrip()
    if not body.endswith(")"):
        raise ParseError("random-variable expression must end with ')'", line)
    inner = _RV_PREFIX.sub(lambda m: " " * len(m[0]), body, count=1)[:-1]
    parts = _split(inner, ",")
    if len(parts) != 3:
        raise ParseError("RV(...) takes a distribution name and two arguments", line)
    kind = parts[0].strip()
    if kind not in DISTRIBUTIONS:
        raise ParseError(
            f"unknown distribution {kind!r}; expected one of {', '.join(DISTRIBUTIONS)}", line
        )
    arg1 = parse_expression(parts[1], line)
    arg2 = parse_expression(parts[2], line)
    return Distribution(kind, arg1, arg2)


def _split_assignment(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise ParseError("expected an assignment 'var = expression'", line)
    lhs, rhs = _split(text, "=", 1)
    var = lhs.strip()
    if not _NAME.fullmatch(var):
        raise ParseError(f"bad variable name {var!r}", line)
    if var in RESERVED_NAMES:
        raise ParseError(f"{var!r} is a reserved name", line)
    return var, rhs


def _parse_update(rhs: str, line: int) -> tuple[UpdateBranch, ...]:
    chunks = _split(rhs, ";")
    branches: list[UpdateBranch] = []
    for chunk in chunks:
        if "@" in chunk:
            expr_text, prob_text = _split(chunk, "@", 1)
            if "@" in prob_text:
                raise ParseError("multiple '@' in one branch", line)
            expr = parse_expression(expr_text, line)
            prob = parse_expression(prob_text, line)
        else:
            if len(chunks) > 1:
                raise ParseError(
                    "'@' probability missing on a multi-branch update", line
                )
            expr = parse_expression(chunk, line)
            prob = Poly.const(1)
        branches.append(UpdateBranch(expr, prob))
    return tuple(branches)


def parse_program(source_text: str) -> Program:
    """Parse loop source text into a :class:`Program`.

    Raises :class:`ParseError` on malformed input, with the line and, where
    known, the 1-based column in the line as written; structural
    restrictions are checked separately by :func:`validate_program`.
    """
    # Lines are kept as written, so that columns count the indentation.
    lines: list[tuple[int, str]] = []
    for no, raw in enumerate(source_text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((no, raw))

    header_at = [i for i, (_, text) in enumerate(lines) if text.strip() == _HEADER]
    if not header_at:
        for no, text in lines:
            if text.lstrip().startswith("while"):
                raise ParseError(
                    f"only the literal loop header {_HEADER!r} is supported", no
                )
        raise ParseError(f"missing loop header {_HEADER!r}")
    if len(header_at) > 1:
        raise ParseError("duplicate loop header", lines[header_at[1]][0])
    split = header_at[0]

    inits: list[InitAssignment] = []
    for no, text in lines[:split]:
        var, rhs = _split_assignment(text, no)
        if _RV_PREFIX.match(rhs):
            value: InitValue = _parse_distribution(rhs, no)
        else:
            value = parse_expression(rhs, no)
        inits.append(InitAssignment(var, value, no))

    rvs: list[RvAssignment] = []
    updates: list[UpdateAssignment] = []
    for no, text in lines[split + 1 :]:
        var, rhs = _split_assignment(text, no)
        if _RV_PREFIX.match(rhs):
            if updates:
                raise ParseError(
                    "random-variable assignments must precede update assignments", no
                )
            rvs.append(RvAssignment(var, _parse_distribution(rhs, no), no))
        else:
            updates.append(UpdateAssignment(var, _parse_update(rhs, no), no))

    if not updates:
        raise ParseError("the loop body must contain at least one update assignment")

    assigned = {a.var for a in inits} | {r.var for r in rvs} | {u.var for u in updates}
    mentioned: set[str] = set()
    for a in inits:
        mentioned |= a.value.symbols()
    for r in rvs:
        mentioned |= r.dist.symbols()
    for u in updates:
        for br in u.branches:
            mentioned |= br.expr.symbols() | br.prob.symbols()
    parameters = frozenset(mentioned - assigned)

    return Program(tuple(inits), tuple(rvs), tuple(updates), parameters)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check_parameter_only(
    value: Poly | Distribution, program_vars: set[str], what: str, line: int
) -> None:
    clash = sorted(value.symbols() & program_vars)
    if clash:
        raise UnsupportedProgramError(
            "distinctness",
            f"{what} must not reference program variables (found {', '.join(clash)})",
            line,
        )


def validate_program(p: Program) -> ValidatedProgram:
    """Confirm the restrictions that guarantee solvable moment recurrences.

    Checked in order: assigned names are pairwise distinct and variables
    never occur in parameter-only positions (distribution arguments,
    branch probabilities); branch probabilities of each update sum to the
    constant 1; every update is linear in its own variable with a
    parameter-only self-coefficient and otherwise references only
    variables assigned earlier; a distribution whose arguments are both
    constants meets its kind's argument rule.  Violations raise
    :class:`UnsupportedProgramError` with the restriction named; a program
    that passes comes back with its variable table resolved.
    """
    seen: dict[str, int] = {}
    for a in p.init_assignments:
        if a.var in seen:
            raise UnsupportedProgramError(
                "distinctness", f"variable {a.var!r} initialized twice", a.line
            )
        seen[a.var] = a.line
    loop_seen: dict[str, int] = {}
    for a in (*p.rv_assignments, *p.update_assignments):
        if a.var in loop_seen:
            raise UnsupportedProgramError(
                "distinctness", f"variable {a.var!r} assigned twice in the body", a.line
            )
        loop_seen[a.var] = a.line

    draws = {r.var: r.dist for r in p.rv_assignments}
    updated = [u.var for u in p.update_assignments]
    constants = [a.var for a in p.init_assignments if a.var not in loop_seen]
    variables = (*draws, *updated, *constants)
    program_vars = set(variables)

    for a in p.init_assignments:
        what = "distribution argument" if isinstance(a.value, Distribution) else "initial value"
        _check_parameter_only(a.value, program_vars, what, a.line)
    for r in p.rv_assignments:
        _check_parameter_only(r.dist, program_vars, "distribution argument", r.line)

    for u in p.update_assignments:
        total = Poly()
        for br in u.branches:
            _check_parameter_only(br.prob, program_vars, "branch probability", u.line)
            if br.prob.is_const() and br.prob.const_value() < 0:
                raise UnsupportedProgramError(
                    "probability-sum",
                    f"negative branch probability {br.prob} in update of {u.var!r}",
                    u.line,
                )
            total = total + br.prob
        if total != ONE:
            raise UnsupportedProgramError(
                "probability-sum",
                f"branch probabilities of {u.var!r} sum to {total}, not 1",
                u.line,
            )

    # Dependency structure: linear in self, polynomial only in variables
    # assigned earlier (random draws, earlier updates, init-only constants).
    visible = set(draws) | set(constants)
    for u in p.update_assignments:
        for br in u.branches:
            by_power = {
                part[0][1] if part else 0: coeff.symbols()
                for part, coeff in br.expr.split({u.var}).items()
            }
            if any(d > 1 for d in by_power):
                raise UnsupportedProgramError(
                    "dependency-structure",
                    f"update of {u.var!r} is nonlinear in itself",
                    u.line,
                )
            bad = sorted(by_power.get(1, set()) & program_vars)
            if bad:
                raise UnsupportedProgramError(
                    "dependency-structure",
                    f"self-coefficient of {u.var!r} references program "
                    f"variable(s) {', '.join(bad)}",
                    u.line,
                )
            forward = sorted(by_power.get(0, set()) & (program_vars - visible))
            if forward:
                raise UnsupportedProgramError(
                    "dependency-structure",
                    f"update of {u.var!r} references {', '.join(forward)} "
                    "before assignment in the body",
                    u.line,
                )
        visible.add(u.var)

    # Distribution arguments known exactly meet their kind's rule, whatever
    # the other argument; one with parameters is passed as None and checked
    # where it is bound (the verifier).
    dists = [(a.value, a.line) for a in p.init_assignments if isinstance(a.value, Distribution)]
    for dist, line in dists + [(r.dist, r.line) for r in p.rv_assignments]:
        args = [arg.const_value() if arg.is_const() else None for arg in (dist.arg1, dist.arg2)]
        problem = DISTRIBUTIONS[dist.kind].check(*args)
        if problem is not None:
            raise UnsupportedProgramError("distribution-argument", problem, line)

    # An init assignment wins over a draw's distribution, which wins over v(0).
    initial: dict[str, InitValue] = {v: draws.get(v) or Poly.var(f"{v}(0)") for v in variables}
    initial.update((a.var, a.value) for a in p.init_assignments)

    # Each draw is eliminated right after the reverse walk has passed the
    # earliest update that mentions it: no later step can bring it back.
    draw_schedule = []
    unmentioned = set(draws)
    for u in p.update_assignments:
        mentioned = set().union(*(br.expr.symbols() for br in u.branches))
        draw_schedule.append(tuple(sorted(unmentioned & mentioned)))
        unmentioned -= mentioned
    draw_schedule.append(tuple(sorted(unmentioned)))

    return ValidatedProgram(
        program=p,
        variables=variables,
        state=frozenset(updated + constants),
        draws=draws,
        initial=initial,
        symbols=p.parameters.union(*(value.symbols() for value in initial.values())),
        draw_schedule=tuple(draw_schedule),
        rank=(*reversed(updated), *constants, *draws),
    )
