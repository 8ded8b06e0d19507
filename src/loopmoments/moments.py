"""Rewriting probabilistic updates into linear equations over moments.

For a tracked moment ``E[m](n+1)`` the engine substitutes the body's
updates backwards through the monomial ``m``, mixes update branches by
their probabilities, replaces powers of fresh random draws by raw moments
of their distributions, and finally splits the result by linearity of
expectation.  The outcome is one linear equation per tracked moment:

    E[m](n+1) = sum coeff_e * E[e](n) + constant

with coefficients that are polynomials over parameters.  The demand-driven
closure in :func:`moment_closure` collects every moment such an equation
mentions, which is a finite set for validated programs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .frontend import Distribution, ValidatedProgram, resolve_initial_value
from .symbolic import ONE, Mono, Moment, Poly


class ClosureOverflowError(Exception):
    """The set of required moments exceeded the configured cap."""

    def __init__(self, cap: int):
        super().__init__(
            f"more than {cap} moments required; the dependency structure "
            "is growing without bound"
        )
        self.cap = cap


@dataclass(frozen=True)
class MomentEquation:
    """One step of a tracked moment as a linear form over moments at n."""

    target: Moment
    linear: Mapping[Moment, Poly]
    constant: Poly

    def __post_init__(self):
        object.__setattr__(self, "linear", dict(self.linear))

    def dependencies(self) -> set[Moment]:
        return {m for m in self.linear if m != self.target}

    def self_coefficient(self) -> Poly:
        return self.linear.get(self.target, Poly())

    def __str__(self) -> str:
        parts = []
        for m in sorted(self.linear, key=Moment.sort_key):
            coeff = self.linear[m]
            if coeff == Poly.const(1):
                parts.append(f"E[{m}]")
            else:
                parts.append(f"({coeff})*E[{m}]")
        if not self.constant.is_zero() or not parts:
            parts.append(f"{self.constant}")
        return f"E[{self.target}]' = " + " + ".join(parts)


class MomentTable:
    """Memoized raw moments of sampling distributions.

    ``moment(d, k)`` returns E[X^k] for X drawn from ``d`` as a polynomial
    over the distribution's parameters.  Subclasses may override
    :meth:`moment` to swap in other distributions (the test suite uses
    finite two-point distributions this way).
    """

    def __init__(self):
        self._memo: dict[tuple[Distribution, int], Poly] = {}

    def moment(self, dist: Distribution, k: int) -> Poly:
        if k < 0:
            raise ValueError("raw moments need k >= 0")
        key = (dist, k)
        if key not in self._memo:
            self._memo[key] = self._compute(dist, k)
        return self._memo[key]

    def _compute(self, dist: Distribution, k: int) -> Poly:
        if dist.kind == "uniform":
            return _uniform_raw_moment(dist.arg1, dist.arg2, k)
        if dist.kind == "gauss":
            return _gauss_raw_moment(dist.arg1, dist.arg2, k)
        raise ValueError(f"no moment rule for distribution kind {dist.kind!r}")


def _uniform_raw_moment(a: Poly, b: Poly, k: int) -> Poly:
    # E[X^k] = (b^(k+1) - a^(k+1)) / ((k+1)(b-a)) expands to the polynomial
    # sum_{i<=k} a^i b^(k-i) / (k+1), which also covers the point mass a == b.
    total = Poly()
    for i in range(k + 1):
        total = total + a**i * b ** (k - i)
    return total / (k + 1)


def _gauss_raw_moment(mean: Poly, variance: Poly, k: int) -> Poly:
    # m_0 = 1, m_1 = mean, m_k = mean*m_{k-1} + (k-1)*variance*m_{k-2}.
    m_prev, m_cur = Poly.const(1), mean
    if k == 0:
        return m_prev
    for i in range(2, k + 1):
        m_prev, m_cur = m_cur, mean * m_cur + (i - 1) * variance * m_prev
    return m_cur


def rv_raw_moment(dist: Distribution, k: int, table: MomentTable | None = None) -> Poly:
    """E[X^k] for a draw X from ``dist``, as a polynomial over parameters."""
    return (table or MomentTable()).moment(dist, k)


def moment_equation(
    target: Moment, vp: ValidatedProgram, table: MomentTable
) -> MomentEquation:
    """The one-step equation for a tracked moment.

    A draw variable in the target denotes the sample of the iteration being
    measured, so every occurrence -- whether from the target itself or
    introduced by substituting an update -- refers to one and the same
    fresh value.  A target over draw variables only therefore reduces to a
    constant, and a mixed target keeps the exact joint expectation.
    """
    state_vars = vp.state_vars()
    for var, _ in target.powers:
        if var not in vp.rv_dists and var not in state_vars:
            raise ValueError(f"{var!r} is not an assigned variable of the program")

    poly = target.as_poly()
    # Walk updates in reverse textual order: occurrences of a variable seen
    # before its own substitution step denote post-update values, afterwards
    # pre-update values; the ordering restriction (validate_program's
    # dependency-structure check) keeps the two apart.
    for assignment in reversed(vp.update_assignments):
        var = assignment.var
        if var not in poly.symbols():
            continue
        poly = Poly.linear_combination(
            (branch.prob, poly.substitute(var, branch.expr)) for branch in assignment.branches
        )

    # Fresh draws are independent of the state at n: group the terms by their
    # state part, and replace each draw part r^k*s^j by the product of raw
    # moments E[r^k]*E[s^j], computed once per draw part.
    draws = vp.rv_dists
    draw_moments: dict[Mono, Poly] = {}
    pairs: dict[Mono, list[tuple[Poly, Poly]]] = {}
    for part, coeff in poly.split(state_vars | draws.keys()).items():
        draw_part = tuple(f for f in part if f[0] in draws)
        factor = draw_moments.get(draw_part)
        if factor is None:
            factor = ONE
            for name, exp in draw_part:
                factor = factor * table.moment(draws[name], exp)
            draw_moments[draw_part] = factor
        state_part = tuple(f for f in part if f[0] not in draws)
        pairs.setdefault(state_part, []).append((factor, coeff))
    constant = Poly.linear_combination(pairs.pop((), ()))
    linear = {}
    for state_part, products in pairs.items():
        coeff = Poly.linear_combination(products)
        if not coeff.is_zero():
            linear[Moment(state_part)] = coeff
    return MomentEquation(target, linear, constant)


def moment_closure(
    goals: Iterable[Moment],
    vp: ValidatedProgram,
    table: MomentTable | None = None,
    cap: int = 10_000,
) -> dict[Moment, MomentEquation]:
    """Equations for the goals and everything they depend on.

    Breadth-first from the goal moments; each equation's right-hand side
    enqueues the moments it mentions, until the set is closed.  The cap
    guards against dependency structures that grow without bound (which a
    validated program cannot produce, but defense is cheap).
    """
    table = table or MomentTable()
    queue = sorted(set(goals), key=Moment.sort_key)
    equations: dict[Moment, MomentEquation] = {}
    pending = deque(queue)
    enqueued = set(queue)
    while pending:
        current = pending.popleft()
        eq = moment_equation(current, vp, table)
        equations[current] = eq
        for dep in sorted(eq.dependencies(), key=Moment.sort_key):
            if dep not in enqueued:
                if len(enqueued) >= cap:
                    raise ClosureOverflowError(cap)
                enqueued.add(dep)
                pending.append(dep)
    return {m: equations[m] for m in sorted(equations, key=Moment.sort_key)}


def initial_moment(vp: ValidatedProgram, target: Moment, table: MomentTable) -> Poly:
    """E[target] before the first iteration.

    Initial values of distinct variables are independent (deterministic
    parameters or independent draws), so the joint initial moment is the
    product of per-variable initial moments.
    """
    total = Poly.const(1)
    for var, exp in target.powers:
        desc = resolve_initial_value(vp, var)
        if isinstance(desc, Distribution):
            total = total * table.moment(desc, exp)
        else:
            total = total * desc**exp
    return total
