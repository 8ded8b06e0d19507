"""Regenerate ``bench/reference.json``: exact moment values at n = 0..3.

Run from the repository root::

    python3 bench/make_reference.py

The values do not come from the engine under test.  This script parses each
workload program with its own small parser, expands the loop body forward
``n`` times with sympy, enumerating every branch path with its probability,
and takes expectations by replacing each power of a draw by that draw's raw
moment (uniform moments by integration, Gaussian moments from the moment
generating function).  Only the list of moments to tabulate -- the moment
closure of each job -- is taken from ``loopmoments``.

Draw variables in a moment denote the sample of the iteration that produced
the state (at n = 0 an independent initial sample), as in the engine's
semantics.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import sympy
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import BINDINGS, PROGRAMS, WORKLOADS  # noqa: E402

N_MAX = 3
_RV = re.compile(r"^RV\(\s*(uniform|gauss)\s*,(.*),(.*)\)$")


def parse(source: str, bindings: dict[str, sympy.Rational]):
    """(variables, draws, inits, updates) with parameters already bound.

    draws: [(name, kind, arg1, arg2)]; inits: {var: value or draw spec};
    updates: [(var, [(expr, prob)])] with sympy expressions over variables.
    """
    local = {}

    def expr(text: str) -> sympy.Expr:
        assert "." not in text, "decimal literals are not used by the workloads"
        for name in re.findall(r"[A-Za-z][A-Za-z0-9]*", text):
            local.setdefault(name, sympy.Symbol(name))
        value = sympy.sympify(text, locals=local)
        return value.subs({local[k]: v for k, v in bindings.items() if k in local})

    inits, draws, updates, in_body = {}, [], [], False
    for raw in source.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "while true:":
            in_body = True
            continue
        var, rhs = (part.strip() for part in line.split("=", 1))
        rv = _RV.match(rhs)
        if rv:
            spec = (rv.group(1), expr(rv.group(2)), expr(rv.group(3)))
            if in_body:
                draws.append((var,) + spec)
            else:
                inits[var] = spec
        elif not in_body:
            inits[var] = expr(rhs)
        else:
            branches = []
            for branch in rhs.split(";"):
                body, _, prob = branch.partition("@")
                branches.append((expr(body), expr(prob) if prob.strip() else sympy.Integer(1)))
            assert sum(p for _, p in branches) == 1
            updates.append((var, branches))
    variables = list(dict.fromkeys(list(inits) + [d[0] for d in draws] + [u[0] for u in updates]))
    for var, _ in updates:
        if var not in inits:
            inits[var] = sympy.Rational(bindings[f"{var}(0)"])
    return variables, draws, inits, updates


def raw_moment(kind: str, a: sympy.Expr, b: sympy.Expr, k: int) -> sympy.Rational:
    t = sympy.Symbol("t")
    if kind == "uniform":
        return sympy.integrate(t**k, (t, a, b)) / (b - a)
    mgf = sympy.series(sympy.exp(a * t + b * t**2 / 2), t, 0, k + 1).removeO()
    return mgf.coeff(t, k) * math.factorial(k)


def reference_values(program: str, moments: list[tuple[tuple[str, int], ...]]):
    bindings = {k: sympy.Rational(v) for k, v in BINDINGS[program].items()}
    variables, draws, inits, updates = parse(PROGRAMS[program], bindings)
    names = [f"{d[0]}_{i}" for i in range(N_MAX + 1) for d in draws]
    R, *gens = ring(names, QQ)
    gen = dict(zip(names, gens))
    raw = {}

    def expect(p):
        total = QQ.zero
        for monom, coeff in p.terms():
            for i, e in enumerate(monom):
                if e:
                    if (i, e) not in raw:
                        _, kind, a, b = draws[i % len(draws)]
                        raw[i, e] = QQ.convert(raw_moment(kind, a, b, e))
                    coeff *= raw[i, e]
            total += coeff
        return total

    def apply(e: sympy.Expr, state: dict):
        poly = sympy.Poly(e, *[sympy.Symbol(v) for v in variables])
        total = R.zero
        for monom, coeff in poly.terms():
            term = R(QQ.convert(coeff))
            for var, exp in zip(variables, monom):
                if exp:
                    term *= state[var] ** exp
            total += term
        return total

    start = {}
    for var in variables:
        if var in {d[0] for d in draws}:
            start[var] = gen[f"{var}_0"]
        elif isinstance(inits[var], tuple):
            raise NotImplementedError("distribution-valued initial values")
        else:
            start[var] = R(QQ.convert(inits[var]))
    paths = [(QQ.one, start)]
    values = {m: [] for m in moments}
    for n in range(N_MAX + 1):
        for m in moments:
            total = QQ.zero
            for prob, state in paths:
                product = R.one
                for var, exp in m:
                    product *= state[var] ** exp
                total += prob * expect(product)
            values[m].append(QQ.to_sympy(total))
        if n == N_MAX:
            break
        stepped = []
        for prob, state in paths:
            fresh = dict(state)
            for d in draws:
                fresh[d[0]] = gen[f"{d[0]}_{n + 1}"]
            partial = [(prob, fresh)]
            for var, branches in updates:
                partial = [
                    (p * QQ.convert(q), {**s, var: apply(e, s)}) for p, s in partial for e, q in branches
                ]
            stepped.extend(partial)
        paths = stepped
    return variables, values


def closure_moments(program: str) -> list[tuple[tuple[str, int], ...]]:
    from loopmoments import analyze

    found = set()
    for workload in WORKLOADS.values():
        if workload.program == program:
            for goals in workload.goal_lists:
                found |= {m.powers for m in analyze(PROGRAMS[program], list(goals)).invariants}
    return sorted(found, key=lambda p: (sum(e for _, e in p), p))


def main() -> None:
    out = {"n_max": N_MAX, "programs": {}}
    for program in PROGRAMS:
        moments = closure_moments(program)
        variables, values = reference_values(program, moments)
        out["programs"][program] = {
            "variables": variables,
            "bindings": BINDINGS[program],
            "values": {
                "*".join(f"{v}^{e}" for v, e in m): [str(x) for x in values[m]] for m in moments
            },
        }
        print(f"{program}: {len(moments)} moments", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
