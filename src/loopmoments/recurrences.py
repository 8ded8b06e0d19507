"""First-order linear recurrences over tracked moments and their closed forms.

:func:`topo_order` puts every moment after its dependencies by sorting the
moments on their exponent vectors over the validated program's ``rank``.
Each moment equation becomes, once its non-self dependencies are solved,

    f(n+1) = c * f(n) + inhom(n)

with a constant ``c`` and an exponential-polynomial inhomogeneity.  Such
recurrences are solved exactly by undetermined coefficients: every base of
the inhomogeneity contributes an ansatz polynomial of matching degree (one
higher when the base equals ``c``; indicators ``[n = k]`` for base 0), and
the homogeneous term absorbs the initial value.  The resulting triangular
systems are solved top-down over exact polynomial coefficients.  What a
closed form assumes about its parameters is
:meth:`Recurrence.side_conditions`; :func:`solve_all` owns the
side-condition list, merging every moment's in solve order.

Every closed form is verified symbolically before it is returned: the
kernel's residual ``f(n+1) - c*f(n) - inhom(n)`` (:meth:`ExpPoly.residual`)
must vanish and ``f(0)`` must equal the initial moment.  A failure of that
check is a bug, never an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .frontend import ValidatedProgram
from .moments import Moment, MomentEquation
from .symbolic import ONE, ExpPoly, Poly


class SolverError(Exception):
    """The solver could not produce (or verify) a closed form."""


class UnresolvedBaseError(SolverError):
    """A parameterized base comparison or division could not be resolved.

    Raised when deciding whether a base equals the self-coefficient -- or
    dividing by their difference -- would require reasoning about parameter
    values.  The honest outcome is an error naming the moment and both
    quantities, not a guess.
    """

    def __init__(self, moment: Moment, numerator: Poly, divisor: Poly):
        super().__init__(
            f"E[{moment}]: cannot divide {numerator} exactly by the parameterized "
            f"quantity {divisor}; closed-form coefficients would leave the polynomial ring"
        )
        self.moment = moment
        self.numerator = numerator
        self.divisor = divisor


@dataclass(frozen=True)
class Recurrence:
    """E[target](n+1) = self_coeff * E[target](n) + inhom(n), with the
    initial moment E[target](0) = init."""

    target: Moment
    self_coeff: Poly
    inhom: ExpPoly
    init: Poly

    @cached_property
    def by_base(self) -> dict[Poly, tuple[Poly, dict[int, Poly]]]:
        """``{base: (base - self_coeff, {degree: coeff})}`` over the
        inhomogeneity, with the bases in print order, so what is derived
        base by base does not depend on the order the terms were built in.
        The solver and :meth:`side_conditions` both read it."""
        c = self.self_coeff
        table: dict[Poly, tuple[Poly, dict[int, Poly]]] = {}
        for base, degree, coeff in self.inhom.sorted_terms():
            entry = table.get(base)
            if entry is None:
                entry = table[base] = (base - c, {})
            entry[1][degree] = coeff
        return table

    def side_conditions(self) -> list[str]:
        """What the closed form assumes: each inhomogeneity base whose
        difference from ``self_coeff`` (the solver's divisor) is not
        constant is assumed distinct from it, as ``"base != c"``, in the
        closed form's print order."""
        c = self.self_coeff
        return [f"{b} != {c}" for b, (delta, _) in self.by_base.items() if not delta.is_const()]


def topo_order(equations: Mapping[Moment, MomentEquation], vp: ValidatedProgram) -> list[Moment]:
    """The moments sorted on their exponent vectors over ``vp.rank``.

    Validation makes each update linear in itself and otherwise read only
    earlier variables, so every non-self dependency has a smaller vector and
    comes first.  No two moments share a vector, so the order is unique.
    """

    def vector(m: Moment) -> tuple[int, ...]:
        powers = dict(m)
        return tuple(powers.get(v, 0) for v in vp.rank)

    return sorted(equations, key=vector)


def build_recurrence(
    eq: MomentEquation,
    solved: Mapping[Moment, ExpPoly],
    init_moments: Mapping[Moment, Poly],
) -> Recurrence:
    """Fold already-solved dependencies into a single-variable recurrence."""
    pairs = [(ONE, ExpPoly.const(eq.constant))]
    linear = dict(eq.linear)
    linear.pop(eq.target, None)
    for moment, coeff in linear.items():
        if moment not in solved:
            raise SolverError(
                f"missing closed form for E[{moment}] while building E[{eq.target}]"
            )
        pairs.append((coeff, solved[moment]))
    if eq.target not in init_moments:
        raise SolverError(f"missing initial moment for E[{eq.target}]")
    return Recurrence(
        target=eq.target,
        self_coeff=eq.self_coefficient(),
        inhom=ExpPoly.linear_combination(pairs),
        init=init_moments[eq.target],
    )


def solve_first_order(rec: Recurrence) -> ExpPoly:
    """Exact closed form of a first-order constant-coefficient recurrence.

    Per inhomogeneity base rho with polynomial part P of degree d, the
    particular solution is Q(n)*rho^n with rho*Q(n+1) - c*Q(n) = P(n):

    * rho != c: Q has degree d, and each coefficient is divided by rho - c.
    * rho == c (resonance, including the ubiquitous c == 1 with constant
      inhomogeneity): Q has degree d+1 and no constant term, and the
      coefficient of n^(m+1) is divided by rho*(m+1).

    A base-0 part sum a_k*[n = k] has the particular solution sum
    q_k*[n = k], whose [n = k] coefficient in P(n+1) - c*P(n) is
    q_(k+1) - c*q_k.  At c == 0 each a_k*[n = k] becomes a_k*[n = k+1];
    otherwise the q_k are solved top-down, one exact division by -c each.
    The homogeneous term alpha*c^n matches the initial value.  What it
    assumes about the parameters is :meth:`Recurrence.side_conditions`.
    """
    c = rec.self_coeff
    particular: dict[tuple[Poly, int], Poly] = {}

    for base, (delta, parts) in rec.by_base.items():
        degree = max(parts)
        resonant = delta.is_zero()
        # Q(n) = sum_j q_j n^j with base*Q(n+1) - c*Q(n) = P(n); the
        # coefficient of n^m gives (base - c)*q_m + base*sum_{j>m} C(j,m)*q_j
        # = P_m, solved top-down.  At resonance the first term vanishes, so
        # every q is offset by one: base*(m+1)*q_{m+1} is the leading term.
        # Each row is one exact quotient of a sum, reduced once.
        shift = 1 if resonant else 0
        q: dict[int, Poly] = {}
        for m in range(degree, -1, -1):
            row = [(1, ONE, parts[m])] if m in parts else []
            if base.is_zero():  # [n + 1 = j] is [n = j - 1]: q_(m+1) - c*q_m = P_m
                row += [(-1, q[m + 1], ONE)] if m < degree and not resonant else []
                divisor, times = (ONE if resonant else delta), 1
            else:
                for j in range(m + shift + 1, degree + shift + 1):
                    row.append((-math.comb(j, m), q[j], base))
                divisor, times = (base, m + 1) if resonant else (delta, 1)
            quotient = Poly.quotient(row, divisor, times)
            if quotient is None:
                raise UnresolvedBaseError(rec.target, Poly.quotient(row, ONE), divisor * times)
            q[m + shift] = quotient
        # Distinct bases give distinct keys, so nothing here sums; ExpPoly
        # drops the zero coefficients.
        for j, qj in q.items():
            particular[(base, j)] = qj

    at_zero = [(ONE, qj) for (_, j), qj in particular.items() if j == 0]
    alpha = rec.init - Poly.linear_combination(at_zero)
    # At resonance q starts at n^1, so (c, 0) is no key of the particular part.
    particular[(c, 0)] = alpha
    closed = ExpPoly(particular)
    _check_closed_form(rec, closed)
    return closed


def _check_closed_form(rec: Recurrence, closed: ExpPoly) -> None:
    """Raise unless ``closed`` meets the recurrence and the initial value."""
    residual = closed.residual(rec.self_coeff, rec.inhom)
    if not residual.is_zero():
        raise SolverError(
            f"internal: closed form for E[{rec.target}] failed its defining "
            f"identity (residual {residual})"
        )
    start = closed.value_at(0)
    if start != rec.init:
        raise SolverError(
            f"internal: closed form for E[{rec.target}] gives f(0) = {start}, "
            f"not the initial moment {rec.init}"
        )


def solve_all(
    order: list[Moment],
    equations: Mapping[Moment, MomentEquation],
    init_moments: Mapping[Moment, Poly],
) -> tuple[dict[Moment, ExpPoly], list[str]]:
    """Closed forms for every moment along a dependency order.

    Returns the solution map and the side conditions assumed while solving:
    every moment's :meth:`Recurrence.side_conditions` in solve order, each
    kept at its first occurrence.
    """
    solved: dict[Moment, ExpPoly] = {}
    notes: list[str] = []
    for moment in order:
        rec = build_recurrence(equations[moment], solved, init_moments)
        solved[moment] = solve_first_order(rec)
        notes += rec.side_conditions()
    return solved, list(dict.fromkeys(notes))
