"""Rewriting probabilistic updates into linear equations over moments.

A tracked moment is a :class:`Moment`, the canonical monomial over program
variables whose expected value ``E[m](n)`` is followed.  For a tracked
moment ``E[m](n+1)`` the engine walks the body's updates in reverse
textual order through the monomial ``m``.  Substituting an update
``var = e_b @ p_b`` writes the polynomial as ``sum_k c_k * var^k`` and
replaces each ``var^k`` by the update's image ``sum_b p_b * e_b^k``, which
mixes the branches by their probabilities in the same step; this one step,
:meth:`Poly.substitute`, also replaces the powers of a draw.  Each fresh
random draw is eliminated as soon as the walk has passed the earliest
update that mentions it (a draw no update mentions, before the walk): its
powers are replaced by raw moments of its distribution, since the draw is
independent of everything else left; the validated program resolves
this ``draw_schedule`` once.  A draw that the polynomial does not
hold yet when that update is substituted enters only through the update's
image, so it is averaged out inside the image instead, once per power.
What remains is a polynomial over state variables and parameters, which
linearity of expectation splits into one linear equation per tracked
moment:

    E[m](n+1) = sum coeff_e * E[e](n) + constant

with coefficients that are polynomials over parameters.  The demand-driven
closure in :func:`moment_closure` collects every moment such an equation
mentions, which is a finite set for validated programs; ``CLOSURE_CAP``
bounds the number of tracked moments, the goals included.  The
:class:`MomentTable` of one analysis memoises the images, the powers of
every polynomial and the raw moments, each built from the order below,
once across all targets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Mapping

from .frontend import (
    DISTRIBUTIONS,
    NAME,
    Distribution,
    InitValue,
    UpdateAssignment,
    ValidatedProgram,
)
from .symbolic import ONE, ZERO, Mono, Poly, canonical_mono


class Moment(tuple):
    """A monomial over program variables whose expected value is tracked.

    ``Moment((("x", 2), ("y", 1)))`` stands for the sequence
    ``E[x(n)^2 * y(n)]``.  A moment is its canonical monomial: the tuple of
    ``(variable, exponent)`` pairs sorted by name with repeated names merged,
    so it compares, orders and hashes as that tuple, and the rendering
    ``x^2*y^1`` is canonical.
    """

    __slots__ = ()

    def __new__(cls, powers: Iterable[tuple[str, int]]) -> "Moment":
        pairs = tuple(powers)
        if any(e < 1 for _, e in pairs):
            raise ValueError("moment exponents must be positive")
        mono = canonical_mono(pairs)
        if not mono:
            raise ValueError("a tracked moment needs at least one variable")
        return super().__new__(cls, mono)

    @classmethod
    def single(cls, var: str, exp: int = 1) -> "Moment":
        return cls(((var, exp),))

    _TOKEN = re.compile(rf"^({NAME}(?:\(0\))?)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "Moment":
        """Parse goal syntax like ``x^2*y`` (an omitted exponent means 1)."""
        pairs = []
        for chunk in text.split("*"):
            m = cls._TOKEN.match(chunk.strip())
            if m is None:
                raise ValueError(f"bad monomial syntax: {text!r}")
            pairs.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
        return cls(pairs)

    @property
    def powers(self) -> Mono:
        return tuple(self)

    def degree(self) -> int:
        return sum(e for _, e in self)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self)

    def as_poly(self) -> Poly:
        return Poly.monomial(self)

    def sort_key(self) -> tuple:
        return (self.degree(), self)

    def __str__(self) -> str:
        return "*".join(f"{v}^{e}" for v, e in self)

    def __repr__(self) -> str:
        return f"Moment({self.powers!r})"


# Draws to average out, as (name, distribution) pairs.
Draws = tuple[tuple[str, Distribution], ...]


# The cap on the number of tracked moments, the goals included: a safety
# net, since the closure of a validated program is finite.
CLOSURE_CAP = 10_000


class ClosureOverflowError(Exception):
    """The closure needs more than ``CLOSURE_CAP`` moments."""


@dataclass(frozen=True)
class MomentEquation:
    """One step of a tracked moment as a linear form over moments at n."""

    target: Moment
    linear: Mapping[Moment, Poly]
    constant: Poly

    def __post_init__(self):
        object.__setattr__(self, "linear", dict(self.linear))

    def dependencies(self) -> set[Moment]:
        deps = set(self.linear)
        deps.discard(self.target)
        return deps

    def self_coefficient(self) -> Poly:
        return self.linear.get(self.target, ZERO)

    def __str__(self) -> str:
        parts = []
        for m in sorted(self.linear, key=Moment.sort_key):
            coeff = self.linear[m]
            if coeff == ONE:
                parts.append(f"E[{m}]")
            else:
                parts.append(f"({coeff})*E[{m}]")
        if not self.constant.is_zero() or not parts:
            parts.append(f"{self.constant}")
        return f"E[{self.target}]' = " + " + ".join(parts)


class MomentTable:
    """Memoised one-step building blocks of the moment equations.

    ``power(p, k)`` returns ``p^k`` from one list of powers per polynomial,
    so an update branch and an initial value that are equal share it.

    ``moment(d, k)`` returns E[X^k] for X drawn from ``d`` as a polynomial
    over the distribution's parameters.  It builds the missing orders
    bottom-up, each one step from the orders below it, so no call recurses
    more than one order.  Subclasses may override :meth:`_compute` to swap
    in other distributions (the test suite uses finite two-point
    distributions this way).

    ``expect(poly, draws)`` averages each ``(name, dist)`` of ``draws`` out
    of ``poly`` by replacing each power of ``name`` with its raw moment;
    :func:`moment_equation` uses it to eliminate each draw once the reverse
    walk has passed the earliest update that mentions the draw.

    ``image(a, k, draws)`` returns the branch-mixed power
    ``sum_b p_b * e_b^k`` of an update ``a`` with the given draws averaged
    out.  It is keyed on the update's value (variable and branches, not its
    line) and on the draws with their distributions, so a table shared by
    programs that update one variable differently, or draw from another
    distribution, stays correct.  A table lives as long as one analysis,
    and so does its memo.

    ``tracked(part)`` returns the one :class:`Moment` of the analysis that
    stands for a canonical monomial, so equal moments across the equations
    are one object.

    ``initial(value, k)`` returns E[X^k] for an initial value X: the raw
    moment of a distribution, or the power of a polynomial such as ``v(0)``.
    """

    def __init__(self):
        # distribution -> its raw moments E[X^0], E[X^1], ... built so far
        self._memo: dict[Distribution, list[Poly]] = {}
        # polynomial -> its powers p^0, p^1, ... built so far
        self._powers: dict[Poly, list[Poly]] = {}
        # Keyed by the moment itself, which equals its monomial.
        self._moments: dict[Moment, Moment] = {}
        # (update, draws) -> its images img(a, 0), img(a, 1), ... built so far
        self._images: dict[tuple[UpdateAssignment, Draws], list[Poly]] = {}

    def power(self, p: Poly, k: int) -> Poly:
        powers = self._powers.setdefault(p, [ONE])
        while len(powers) <= k:
            powers.append(powers[-1] * p)
        return powers[k]

    def expect(self, poly: Poly, draws: Iterable[tuple[str, Distribution]]) -> Poly:
        for name, dist in draws:
            poly = poly.substitute(name, partial(self.moment, dist))
        return poly

    def image(self, update: UpdateAssignment, k: int, draws: Draws = ()) -> Poly:
        """``sum_b p_b * e_b^k`` over the update's branches ``(e_b, p_b)``:
        what ``var^k`` becomes when one step of the update is taken and its
        branch choice averaged out.  Each ``(name, dist)`` of ``draws`` is
        averaged out too, which is sound only for a draw that nothing else
        in the polynomial being rewritten mentions."""
        images = self._images.setdefault((update, draws), [ONE])
        while len(images) <= k:
            j = len(images)
            mixed = Poly.linear_combination(
                (branch.prob, self.power(branch.expr, j)) for branch in update.branches
            )
            images.append(self.expect(mixed, draws))
        return images[k]

    def tracked(self, part: Mono) -> Moment:
        moment = self._moments.get(part)
        if moment is None:
            moment = Moment(part)
            self._moments[moment] = moment
        return moment

    def initial(self, value: InitValue, k: int) -> Poly:
        return self.moment(value, k) if isinstance(value, Distribution) else self.power(value, k)

    def moment(self, dist: Distribution, k: int) -> Poly:
        if k < 0:
            raise ValueError("raw moments need k >= 0")
        moments = self._memo.setdefault(dist, [])
        while len(moments) <= k:
            moments.append(self._compute(dist, len(moments)))
        return moments[k]

    def _compute(self, dist: Distribution, k: int) -> Poly:
        lower = partial(self.moment, dist)
        return DISTRIBUTIONS[dist.kind].raw_moment(dist.arg1, dist.arg2, k, lower)


def _check_assigned(target: Moment, vp: ValidatedProgram) -> None:
    for var, _ in target:
        if var not in vp.initial:
            raise ValueError(f"{var!r} is not an assigned variable of the program")


def moment_equation(target: Moment, vp: ValidatedProgram, table: MomentTable) -> MomentEquation:
    """The one-step equation for a tracked moment.

    A draw variable in the target denotes the sample of the iteration being
    measured, so every occurrence -- whether from the target itself or
    introduced by substituting an update -- refers to one and the same
    fresh value.  A target over draw variables only therefore reduces to a
    constant, and a mixed target keeps the exact joint expectation.
    """
    _check_assigned(target, vp)
    draws = vp.draws
    updates = vp.update_assignments
    # Each draw is eliminated right after the reverse walk has passed the
    # earliest update that mentions it (``draw_schedule[i]``); one that no
    # update mentions, before the walk (the last entry).
    schedule = vp.draw_schedule
    # A fresh draw is independent of everything else left in the polynomial.
    poly = table.expect(target.as_poly(), [(name, draws[name]) for name in schedule[-1]])
    # Walk updates in reverse textual order: occurrences of a variable seen
    # before its own substitution step denote post-update values, afterwards
    # pre-update values; the ordering restriction (validate_program's
    # dependency-structure check) keeps the two apart.
    for i in reversed(range(len(updates))):
        assignment = updates[i]
        # A draw that enters only through this update is averaged out inside
        # its memoised image; one the polynomial already holds (from the
        # target, or from an update after it in the text) is correlated with
        # the rest, so it is eliminated from the substituted polynomial.
        symbols = poly.symbols()
        owned = tuple((name, draws[name]) for name in schedule[i] if name not in symbols)
        poly = poly.substitute(assignment.var, partial(table.image, assignment, draws=owned))
        poly = table.expect(poly, [(name, draws[name]) for name in schedule[i] if name in symbols])

    # Only state variables and parameters are left: split by linearity.
    parts = poly.split(vp.state)
    constant = parts.pop((), ZERO)
    linear = {table.tracked(part): c for part, c in parts.items()}
    return MomentEquation(target, linear, constant)


def moment_closure(
    goals: Iterable[Moment], vp: ValidatedProgram, table: MomentTable | None = None
) -> dict[Moment, MomentEquation]:
    """Equations for the goals and everything they depend on.

    One walk over a list that starts with the sorted goals; each equation's
    new dependencies join its end, sorted, until the set is closed.  The set
    is finite for validated programs; a closure of more than ``CLOSURE_CAP``
    moments, the goals included, raises :class:`ClosureOverflowError` before
    any further equation is built.  The equations come in discovery order,
    which the sorted goals and dependencies make deterministic.
    """
    table = table or MomentTable()
    walk = sorted(set(goals), key=Moment.sort_key)
    seen = set(walk)
    equations: dict[Moment, MomentEquation] = {}
    for current in walk:  # grows while it is walked
        if len(seen) > CLOSURE_CAP:
            raise ClosureOverflowError(
                f"the goals need more than {CLOSURE_CAP} moments, the closure cap"
            )
        equations[current] = eq = moment_equation(current, vp, table)
        new = sorted(eq.dependencies() - seen, key=Moment.sort_key)
        seen.update(new)
        walk.extend(new)
    return equations


def initial_moment(vp: ValidatedProgram, target: Moment, table: MomentTable) -> Poly:
    """E[target] before the first iteration.

    Initial values of distinct variables are independent (deterministic
    parameters or independent draws), so the joint initial moment is the
    product of per-variable initial moments.
    """
    _check_assigned(target, vp)
    total = ONE
    for var, exp in target:
        total = total * table.initial(vp.initial[var], exp)
    return total
