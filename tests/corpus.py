"""Shared test corpus and independent oracles.

The corpus holds small loop programs covering the solver's case analysis:
self-coefficients 0, 1, 1/2, -1/2 and 2, with and without resonance,
deterministic and probabilistic, with and without random draws and
parameters.  The oracles here deliberately avoid the code paths they
check: recurrences are iterated step by step with exact rationals, and
discrete programs are enumerated over every branch combination.  The
references build a result the plain way (a shifted sequence term by term,
the JSON report as one document tree), so the library's leaner versions
can be compared with them exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
from fractions import Fraction
from typing import Any, Mapping

import pytest

from loopmoments import (
    ExpPoly,
    InvariantReport,
    Moment,
    MomentEquation,
    MomentTable,
    Poly,
    ValidatedProgram,
    parse_program,
    validate_program,
)
from loopmoments.frontend import Distribution
from loopmoments.report import render_closed_form

WALK = """\
x=0
while true:
  u = RV(uniform, 0, b)
  g = RV(gauss, 0, 1)
  x = x - u @ 1/2; x + u @ 1/2
  y = y + x + g
"""

# Three chained state variables with multivariate coefficients in y(0) and
# z(0): the largest program the golden reports cover.
THREE_VAR = """\
x = 0
while true:
  u = RV(uniform, 0, 1)
  g = RV(gauss, 0, 1)
  x = 1/2*x + u @ 1/3; x - u @ 2/3
  y = y + x*x + g
  z = 1/3*z + x*y + 1
"""

# Branch mixing cancels the self-coefficient of x (1/3*2 + 2/3*(-1) = 0),
# so E[x] carries an [n = 0] term and the moments it feeds hold their
# closed forms only from n = 2 on, with their own values at n = 0 and 1.
TRANSIENT = """\
while true:
  g = RV(gauss, 0, 1)
  x = 2*x @ 1/3; -1*x + g + 1 @ 2/3
  y = x*x + g
"""
TRANSIENT_Z = TRANSIENT + "  z = y*y + x\n"


def mixing_program(rng: random.Random) -> str:
    """A random program of the family of ``TRANSIENT``: 1-3 state variables,
    each updated either by two branches at 1/3 and 2/3 with self-coefficients
    2 and -1 (whose mean is 0) or without a self-term, plus small products of
    earlier variables and a Gaussian draw.  No parameters; an initial value
    is a small integer or left symbolic."""
    names = ["x", "y", "z"][: rng.randint(1, 3)]
    lines = [f"{v} = {rng.randint(-2, 2)}" for v in names if rng.random() < 0.5]
    lines += ["while true:", "  g = RV(gauss, 0, 1)"]
    for i, v in enumerate(names):
        factors = names[:i] + ["g"]

        def extra() -> str:
            terms = [
                "*".join([str(rng.randint(-2, 3))] + rng.choices(factors, k=rng.randint(0, 2)))
                for _ in range(rng.randint(0, 2))
            ]
            return "".join(f" + {t}" for t in terms)

        if rng.random() < 0.7:
            lines.append(f"  {v} = 2*{v}{extra()} @ 1/3; -1*{v}{extra()} @ 2/3")
        else:
            lines.append(f"  {v} = 1{extra()}")
    return "\n".join(lines) + "\n"

# name -> (source, goals, example bindings for numeric oracles)
CORPUS: dict[str, tuple[str, list, dict[str, Fraction]]] = {
    "walk": (WALK, [1, 2], {"b": Fraction(2), "y(0)": Fraction(1, 3)}),
    "counter": ("v = 0\nwhile true:\nv = v + 1\n", [1, 2], {}),
    "identity": ("x = 5\nwhile true:\nx = x\n", [1, 2], {}),
    "half": ("v = 1\nwhile true:\nv = v @ 1/2; 0 @ 1/2\n", [1, 2], {}),
    "half_drift": ("v = 0\nwhile true:\nv = 1/2*v + 1\n", [1, 2], {}),
    "alternating": ("v = 1\nwhile true:\nv = -v @ 3/4; v @ 1/4\n", [1, 2], {}),
    "double_resonant": (
        "z = 1\nw = 0\nwhile true:\nz = 2*z\nw = 2*w + z\n",
        [1],
        {},
    ),
    "fresh_draw": (
        "while true:\nu = RV(uniform, 0, 1)\nv = u\n",
        [1, 2],
        {"v(0)": Fraction(7, 2)},
    ),
    "param_drift": (
        "v = 0\nwhile true:\nv = v + c\n",
        [1, 2],
        {"c": Fraction(5, 3)},
    ),
    "gauss_sum": (
        "s = 0\nwhile true:\ng = RV(gauss, m, s2)\ns = s + g\n",
        [1, 2],
        {"m": Fraction(1, 2), "s2": Fraction(3, 4)},
    ),
    "stutter": (
        "s = 0\nwhile true:\ns = s + 1 @ 3/4; s @ 1/4\n",
        [1, 2],
        {},
    ),
    "sum_squares": (
        "x = 0\ny = 0\nwhile true:\nx = x + 1\ny = y + x*x\n",
        [1, 2],
        {},
    ),
    "uniform_sum": (
        "a = 0\nwhile true:\nu = RV(uniform, lo, hi)\na = a + u\n",
        [1, 2],
        {"lo": Fraction(-1, 2), "hi": Fraction(3, 2)},
    ),
    "init_from_draw": (
        "z = RV(uniform, 0, 1)\nwhile true:\nz = z + 1\n",
        [1, 2],
        {},
    ),
    "biased_mixture": (
        "v = 2\nwhile true:\nv = v + 1 @ 1/3; v - 1 @ 2/3\n",
        [1, 2],
        {},
    ),
    # accumulating a parameterized geometric: solvable exactly, but only
    # under the side condition p != 1
    "geometric_chain": (
        "v = p - 1\nw = 0\nwhile true:\nv = p*v\nw = w + v\n",
        ["v^1", "w^1"],
        {"p": Fraction(3)},
    ),
    # three parameterized bases meeting several self-coefficients: pins the
    # order of many side conditions
    "three_bases": (
        "a = p - r\nb = q - r\nz = 0\nwhile true:\na = p*a\nb = q*b\nz = r*z + a + b\n",
        ["z^1", "z^2", "a^1*z^1"],
        {"p": Fraction(1, 2), "q": Fraction(1, 3), "r": Fraction(1, 5)},
    ),
}

# Programs whose randomness is branch choices only (no continuous draws):
# eligible for exact enumeration.
DISCRETE = (
    "counter",
    "identity",
    "half",
    "half_drift",
    "alternating",
    "double_resonant",
    "param_drift",
    "stutter",
    "sum_squares",
    "biased_mixture",
    "geometric_chain",
)


def load(name: str) -> ValidatedProgram:
    source, _, _ = CORPUS[name]
    return validate_program(parse_program(source))


def naive_moment_equation(
    target: Moment, vp: ValidatedProgram, table: MomentTable
) -> MomentEquation:
    """Reference for ``moment_equation`` without its memoised images and
    early draw elimination: every branch of every update is substituted
    with ``Poly.substitute`` in reverse textual order and mixed by its
    probability, and draws are replaced by raw moments only at the end."""
    poly = target.as_poly()
    for assignment in reversed(vp.update_assignments):
        mixed = Poly()
        for branch in assignment.branches:
            mixed = mixed + branch.prob * poly.substitute(assignment.var, branch.expr.__pow__)
        poly = mixed
    linear: dict[Moment, Poly] = {}
    constant = Poly()
    for mono, coeff in poly.terms():
        value = Poly.const(coeff)
        state_part = []
        for name, exp in mono:
            if name in vp.draws:
                value = value * table.moment(vp.draws[name], exp)
            elif name in vp.state:
                state_part.append((name, exp))
            else:
                value = value * Poly.var(name) ** exp
        if state_part:
            moment = Moment(tuple(state_part))
            linear[moment] = linear.get(moment, Poly()) + value
        else:
            constant = constant + value
    linear = {m: coeff for m, coeff in linear.items() if not coeff.is_zero()}
    return MomentEquation(target, linear, constant)


def shifted(f: ExpPoly) -> ExpPoly:
    """The sequence n -> f(n+1): each term ``coeff*base**(n+1)*(n+1)**d``
    expanded by the binomial theorem with public ``Poly`` arithmetic, one
    product at a time; a base-0 key ``(0, k)``, the indicator ``[n = k]``,
    moves to ``(0, k - 1)``, and ``(0, 0)`` vanishes."""
    terms: dict[tuple[Poly, int], Poly] = {}
    for base, degree, coeff in f.terms():
        if base.is_zero():
            if degree:
                terms[(base, degree - 1)] = terms.get((base, degree - 1), Poly()) + coeff
            continue
        for j in range(degree + 1):
            term = math.comb(degree, j) * coeff * base
            terms[(base, j)] = terms.get((base, j), Poly()) + term
    return ExpPoly(terms)


def reference_linear_combination(pairs) -> ExpPoly:
    """``sum coeff * f`` over ``(coeff, f)`` pairs, multiplied out term by
    term over the public ``Fraction`` coefficients and handed to the
    validating constructors, which merge the monomials and sum the keys."""
    products: dict[tuple[Poly, int], list] = {}
    for coeff, f in pairs:
        for base, degree, c in f.terms():
            out = products.setdefault((base, degree), [])
            for m1, q1 in coeff.terms():
                for m2, q2 in c.terms():
                    out.append((m1 + m2, q1 * q2))
    return ExpPoly({key: Poly(terms) for key, terms in products.items()})


def _json_float(x: float) -> Any:
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def _poly_json(p: Poly) -> list[dict[str, Any]]:
    # descending graded-lex order: total degree first, then the exponents
    # over the sorted names
    def grlex(term):
        mono = term[0]
        return (-sum(exp for _, exp in mono), [(name, -exp) for name, exp in mono])

    return [
        {"num": q.numerator, "den": q.denominator, "powers": [[name, exp] for name, exp in mono]}
        for mono, q in sorted(p.terms(), key=grlex)
    ]


def reference_json(report: InvariantReport) -> str:
    """The JSON report as one document tree handed to ``json.dumps``, with
    non-finite floats written as the strings ``float()`` reads back."""
    v = report.verification
    doc = {
        "program": report.program_name,
        "variables": list(report.variables),
        "parameters": list(report.parameters),
        "goals": [
            {"kind": "all", "k": g} if isinstance(g, int) else {"kind": "moment", "moment": str(g)}
            for g in report.goals
        ],
        "invariants": [
            {
                "moment": str(moment),
                "closed_form": [
                    {"coeff": _poly_json(coeff), "base": _poly_json(base), "degree": degree}
                    for base, degree, coeff in form.sorted_terms()
                ],
                "text": render_closed_form(form),
            }
            for moment, form in report.invariants.items()
        ],
        "initial_moments": [
            {"moment": str(moment), "value": _poly_json(value)}
            for moment, value in report.initial_moments.items()
        ],
        "symbolic_initials": list(report.symbolic_initials),
        "side_conditions": list(report.side_conditions),
        "elapsed_seconds": _json_float(report.elapsed_seconds),
        "verification": None if v is None else {
            "iterations": v.iterations,
            "trials": v.trials,
            "seed": v.seed,
            "z": _json_float(v.z),
            "bindings": [[name, value] for name, value in v.bindings],
            "passed": v.passed,
            "entries": [
                {
                    "moment": str(e.moment),
                    "expected": _json_float(e.expected),
                    "mean": _json_float(e.mean),
                    "sd": _json_float(e.sd),
                    "se": _json_float(e.se),
                    "margin": _json_float(e.margin),
                    "passed": e.passed,
                }
                for e in v.entries
            ],
        },
    }
    return json.dumps(doc) + "\n"


def iterate_equations(
    equations, init_moments, bindings: Mapping[str, Fraction], steps: int
) -> list[dict[Moment, Fraction]]:
    """Iterate the coupled moment equations exactly; an oracle for closed
    forms that never touches the solver."""
    values = {m: init_moments[m].evaluate(bindings) for m in equations}
    history = [dict(values)]
    for _ in range(steps):
        nxt = {}
        for m, eq in equations.items():
            total = eq.constant.evaluate(bindings)
            for dep, coeff in eq.linear.items():
                total += coeff.evaluate(bindings) * values[dep]
            nxt[m] = total
        values = nxt
        history.append(dict(values))
    return history


def enumerate_moments(
    vp: ValidatedProgram,
    bindings: Mapping[str, Fraction],
    targets: list[Moment],
    steps: int,
    rv_supports: Mapping[str, list[tuple[Fraction, Fraction]]] | None = None,
    initial_overrides: Mapping[str, Fraction] | None = None,
) -> list[dict[Moment, Fraction]]:
    """Exact expected values by enumerating every branch combination.

    ``rv_supports`` gives finite (value, probability) supports standing in
    for draw variables; continuous draws without a support are rejected.
    States are merged by value so the enumeration stays small.
    """
    rv_supports = rv_supports or {}
    for rv in vp.program.rv_assignments:
        if rv.var not in rv_supports:
            raise ValueError(f"no finite support supplied for draw variable {rv.var!r}")

    initial: dict[str, Fraction] = {}
    overrides = dict(initial_overrides or {})
    init_values = {a.var: a.value for a in vp.program.init_assignments}
    for var in vp.variables:
        if var in vp.draws and var not in init_values:
            continue  # first draw happens inside the body
        if var in overrides:
            initial[var] = overrides[var]
            continue
        value = init_values.get(var)
        if value is None:
            key = f"{var}(0)"
            if key not in bindings:
                raise ValueError(f"binding needed for initial value {key}")
            initial[var] = Fraction(bindings[key])
        elif isinstance(value, Distribution):
            raise ValueError(f"override needed for distribution-initialized {var!r}")
        else:
            initial[var] = value.evaluate(bindings)

    states: dict[tuple, Fraction] = {tuple(sorted(initial.items())): Fraction(1)}

    def expectations(current: dict[tuple, Fraction]) -> dict[Moment, Fraction]:
        # A target mentioning a draw variable is undefined (None) until the
        # first iteration samples it.
        out = {}
        for target in targets:
            total = Fraction(0)
            for key, prob in current.items():
                vals = dict(key)
                term = prob
                for var, exp in target.powers:
                    if var not in vals:
                        term = None
                        break
                    term *= vals[var] ** exp
                if term is None:
                    total = None
                    break
                total += term
            out[target] = total
        return out

    history = [expectations(states)]
    for _ in range(steps):
        nxt: dict[tuple, Fraction] = {}

        def spread(vals: dict[str, Fraction], weight: Fraction, pending: list) -> None:
            if not pending:
                key = tuple(sorted(vals.items()))
                nxt[key] = nxt.get(key, Fraction(0)) + weight
                return
            kind, payload = pending[0]
            rest = pending[1:]
            if kind == "rv":
                var = payload
                for value, prob in rv_supports[var]:
                    spread({**vals, var: value}, weight * prob, rest)
            else:
                var, branches = payload
                env = {**bindings, **vals}
                for branch in branches:
                    prob = branch.prob.evaluate(bindings)
                    if prob == 0:
                        continue
                    new_val = branch.expr.evaluate(env)
                    spread({**vals, var: new_val}, weight * prob, rest)

        plan = [("rv", rv.var) for rv in vp.program.rv_assignments]
        plan += [("upd", (u.var, u.branches)) for u in vp.update_assignments]
        for key, prob in states.items():
            spread(dict(key), prob, plan)
        states = nxt
        history.append(expectations(states))
    return history


class FiniteSupportTable(MomentTable):
    """Moment table backed by explicit finite supports, for swapping a
    two-point stand-in under the same program text."""

    def __init__(self, supports: Mapping[Distribution, list[tuple[Fraction, Fraction]]]):
        super().__init__()
        self.supports = dict(supports)

    def _compute(self, dist: Distribution, k: int) -> Poly:
        if dist in self.supports:
            total = Fraction(0)
            for value, prob in self.supports[dist]:
                total += prob * value**k
            return Poly.const(total)
        return super()._compute(dist, k)


def reference_simulate(
    vp: ValidatedProgram,
    bindings: Mapping[str, Fraction],
    iterations: int,
    trials: int,
    seed: int,
    targets,
    block: int = 4096,
) -> dict[Moment, tuple[float, float]]:
    """``{target: (mean, sd)}`` by the simulation loop ``simulate`` had
    before its hot loop was made lean: numpy's ``uniform``/``normal``
    samplers, every polynomial summed from ``np.zeros`` term by term
    (``term = c; term = term * x**e``), each multi-branch update choosing
    by ``searchsorted`` on the cumulative probabilities over the stacked
    branch values, and each target's product started from ``np.ones``.
    The RNG substreams and call order are the verifier's own, so the
    estimates must agree bit for bit."""
    import numpy as np

    names = frozenset(vp.variables)

    def compiled(poly):
        terms = []
        for mono, coeff in poly.terms():
            c = coeff
            for name, exp in mono:
                if name not in names:
                    c *= Fraction(bindings[name]) ** exp
            terms.append((float(c), [(n, e) for n, e in mono if n in names]))

        def evaluate(state, size):
            total = np.zeros(size)
            for c, factors in terms:
                term = c
                for name, exp in factors:
                    term = term * state[name] ** exp
                total += term
            return total

        return evaluate

    def sampler(value):
        if isinstance(value, Poly):
            c = float(value.evaluate(bindings))
            return lambda rng, size: np.full(size, c)
        a = float(value.arg1.evaluate(bindings))
        b = float(value.arg2.evaluate(bindings))
        if value.kind == "uniform":
            lo, hi = min(a, b), max(a, b)
            if lo == hi:
                return lambda rng, size: np.full(size, lo)
            return lambda rng, size: rng.uniform(lo, hi, size)
        return lambda rng, size: rng.normal(a, math.sqrt(b), size)

    updates = [
        (
            u.var,
            np.cumsum([float(b.prob.evaluate(bindings)) for b in u.branches]),
            [compiled(b.expr) for b in u.branches],
        )
        for u in vp.update_assignments
    ]
    inits = [(v, sampler(value)) for v, value in vp.initial.items()]
    draws = [(v, sampler(dist)) for v, dist in vp.draws.items()]
    targets = sorted(set(targets), key=Moment.sort_key)
    sums = dict.fromkeys(targets, 0.0)
    s1s = dict.fromkeys(targets, 0.0)
    s2s = dict.fromkeys(targets, 0.0)
    shifts: dict[Moment, float] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range((trials + block - 1) // block):
            size = min(block, trials - b * block)
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
            state = {var: sample(rng, size) for var, sample in inits}
            for _ in range(iterations):
                for var, sample in draws:
                    state[var] = sample(rng, size)
                for var, thresholds, exprs in updates:
                    if len(exprs) == 1:
                        state[var] = exprs[0](state, size)
                        continue
                    u = rng.random(size)
                    choice = np.searchsorted(thresholds, u, side="right")
                    np.clip(choice, 0, len(exprs) - 1, out=choice)
                    stacked = np.stack([ev(state, size) for ev in exprs])
                    state[var] = np.take_along_axis(stacked, choice[None, :], axis=0)[0]
            for t in targets:
                values = np.ones(size)
                for var, exp in t.powers:
                    values = values * state[var] ** exp
                sums[t] += float(values.sum())
                shifted = values - shifts.setdefault(t, float(values[0]))
                s1s[t] += float(shifted.sum())
                s2s[t] += float(np.dot(shifted, shifted))
    return {
        t: (
            sums[t] / trials,
            math.sqrt(max(s2s[t] - s1s[t] * s1s[t] / trials, 0.0) / (trials - 1)),
        )
        for t in targets
    }


def assert_normal_poly(p: Poly) -> None:
    """Assert the kernel's normal form: nonzero integer numerators over one
    positive denominator, with no factor common to all of them and the
    denominator (zero is ``({}, 1)``), and canonical monomials."""
    assert type(p._den) is int and p._den > 0, p
    assert all(type(num) is int and num != 0 for num in p._terms.values()), p
    assert math.gcd(p._den, *p._terms.values()) == 1, p
    for mono, coeff in p.terms():
        assert type(coeff) is Fraction and coeff == Fraction(p._terms[mono], p._den), p
        names = [name for name, _ in mono]
        assert names == sorted(set(names)), p
        assert all(type(e) is int and e > 0 for _, e in mono), p


@contextlib.contextmanager
def counting_fractions():
    """Count the Fraction constructions made inside the block."""
    original = Fraction.__dict__["__new__"]
    count = [0]

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield count
    finally:
        Fraction.__new__ = original


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children this process forks from now on."""
    forked, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def assert_no_child_is_left() -> None:
    """No child of this process is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
