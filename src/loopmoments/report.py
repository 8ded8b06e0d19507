"""Rendering and serialization of analysis reports.

Three output surfaces share one canonical content model:

* ``txt`` -- one plain-text line per moment, ``E[x^2] = b^2*n/3`` style.
  The closed-form syntax is deliberately simple enough to re-parse;
  :func:`parse_closed_form` turns an emitted right-hand side back into an
  equal :class:`~loopmoments.symbolic.ExpPoly`.
* ``tex`` -- the same invariants as LaTeX math lines.
* ``json`` -- a machine-readable document; :func:`report_from_json` is the
  bundled reader and reproduces an equal report.

A closed form containing a base-0 term (an indicator of ``n == 0``) is
printed as its ``n >= 1`` form with the initial value annotated, since the
one-point correction has no conventional surface syntax.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .pipeline import (
    AllVarsGoal,
    Goal,
    InvariantReport,
    MomentGoal,
    VerifyEntry,
    VerifyReport,
)
from .symbolic import ExpPoly, Moment, Poly

FORMATS = ("txt", "tex", "json")


def emit(report: InvariantReport, fmt: str) -> str:
    if fmt == "txt":
        return emit_txt(report)
    if fmt == "tex":
        return emit_tex(report)
    if fmt == "json":
        return emit_json(report)
    raise ValueError(f"unknown output format {fmt!r}; expected one of {FORMATS}")


# ---------------------------------------------------------------------------
# Plain text
# ---------------------------------------------------------------------------


def invariant_lines(report: InvariantReport) -> list[str]:
    """The deterministic ``E[...] = ...`` lines, without surrounding info."""
    lines = []
    for moment in sorted(report.invariants, key=Moment.sort_key):
        lines.append(f"E[{moment}] = {render_closed_form(report.invariants[moment])}")
    return lines


def render_closed_form(form: ExpPoly) -> str:
    plain = form.drop_zero_base()
    correction = form.zero_base_part()
    if correction.is_zero():
        return str(form)
    return f"{plain}  [n >= 1; at n = 0: {form.value_at_zero()}]"


def emit_txt(report: InvariantReport) -> str:
    out: list[str] = []
    out.append(f"program: {report.program_name}")
    out.append(f"variables: {', '.join(report.variables)}")
    out.append(f"parameters: {', '.join(report.parameters) or 'none'}")
    out.append(f"goals: {', '.join(str(g) for g in report.goals)}")
    out.append("")
    out.extend(invariant_lines(report))
    out.append("")
    if report.symbolic_initials:
        out.append(
            "symbolic initial values: " + ", ".join(report.symbolic_initials)
        )
    if report.side_conditions:
        out.append("side conditions: " + "; ".join(report.side_conditions))
    if report.verification is not None:
        out.extend(_verification_txt(report.verification))
    out.append(f"elapsed: {report.elapsed_seconds:.3f} s")
    return "\n".join(out) + "\n"


def _verification_txt(v: VerifyReport) -> list[str]:
    bindings = ", ".join(f"{name}={value}" for name, value in v.bindings)
    lines = [
        f"verification: n={v.iterations}, trials={v.trials}, seed={v.seed}, "
        f"z={v.z:g}, bindings: {bindings or 'none'}"
    ]
    for e in v.entries:
        verdict = "pass" if e.passed else "FAIL"
        lines.append(
            f"  E[{e.moment}]: expected {e.expected:.10g}, estimate {e.mean:.10g} "
            f"(se {e.se:.3g}) -> {verdict} (margin {e.margin:.3g})"
        )
    lines.append(f"verification result: {'PASS' if v.passed else 'FAIL'}")
    return lines


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def emit_tex(report: InvariantReport) -> str:
    out = [f"% closed-form moments for: {report.program_name}"]
    out.append(f"% goals: {', '.join(str(g) for g in report.goals)}")
    out.append(r"\begin{align*}")
    body = []
    for moment in sorted(report.invariants, key=Moment.sort_key):
        lhs = "E[" + "".join(
            f"{var}^{{{exp}}}" for var, exp in moment.powers
        ) + "]"
        body.append(f"{lhs} &= {_tex_closed_form(report.invariants[moment])}")
    out.append("\\\\\n".join(body))
    out.append(r"\end{align*}")
    for note in report.side_conditions:
        out.append(f"% assuming {note}")
    if report.verification is not None:
        out.extend("% " + line for line in _verification_txt(report.verification))
    out.append(f"% elapsed: {report.elapsed_seconds:.3f} s")
    return "\n".join(out) + "\n"


def _tex_closed_form(form: ExpPoly) -> str:
    plain = form.drop_zero_base()
    text = _tex_exp_poly(plain)
    if not form.zero_base_part().is_zero():
        init = _tex_poly(form.value_at_zero())
        text += rf" \quad (n \geq 1;\ {init}\text{{ at }}n=0)"
    return text


def _tex_monomial(mono) -> str:
    return " ".join(
        name if exp == 1 else f"{name}^{{{exp}}}" for name, exp in mono
    )


def _tex_summand(coeff: Fraction, mono, ndeg: int, base: Poly | None) -> str:
    num_parts = []
    num = abs(coeff.numerator)
    mono_text = _tex_monomial(mono)
    if num != 1 or (not mono_text and ndeg == 0 and base is None):
        num_parts.append(str(num))
    if mono_text:
        num_parts.append(mono_text)
    if ndeg:
        num_parts.append("n" if ndeg == 1 else f"n^{{{ndeg}}}")
    if base is not None:
        num_parts.append(f"{_tex_base(base)}^{{n}}")
    body = " ".join(num_parts)
    if coeff.denominator != 1:
        body = rf"\frac{{{body}}}{{{coeff.denominator}}}"
    return body


def _tex_base(base: Poly) -> str:
    if base.is_const():
        q = base.const_value()
        if q.denominator == 1 and q >= 0:
            return str(q.numerator)
        sign = "-" if q < 0 else ""
        return rf"\left({sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}\right)"
    return rf"\left({_tex_poly(base)}\right)"


def _tex_poly(p: Poly) -> str:
    parts = []
    for mono, coeff in p.sorted_terms():
        body = _tex_summand(coeff, mono, 0, None)
        if not parts:
            parts.append(body if coeff >= 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff >= 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _tex_exp_poly(form: ExpPoly) -> str:
    parts = []
    for base, degree, coeff in form.sorted_terms():
        base_part = None if base == Poly.const(1) else base
        for mono, q in coeff.sorted_terms():
            body = _tex_summand(q, mono, degree, base_part)
            if not parts:
                parts.append(body if q >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if q >= 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _poly_to_json(p: Poly) -> list[dict[str, Any]]:
    return [
        {
            "num": coeff.numerator,
            "den": coeff.denominator,
            "powers": [[name, exp] for name, exp in mono],
        }
        for mono, coeff in p.sorted_terms()
    ]


def _poly_from_json(data: list[dict[str, Any]]) -> Poly:
    # File input: the public constructor canonicalises the monomials and
    # sums repeated ones.
    terms = []
    for entry in data:
        den = int(entry["den"])
        if den == 0:
            raise ValueError(f"coefficient with denominator 0 in {entry!r}")
        mono = tuple((str(n), int(e)) for n, e in entry["powers"])
        terms.append((mono, Fraction(int(entry["num"]), den)))
    return Poly(terms)


def _exp_poly_to_json(f: ExpPoly) -> list[dict[str, Any]]:
    return [
        {
            "coeff": _poly_to_json(coeff),
            "base": _poly_to_json(base),
            "degree": degree,
        }
        for base, degree, coeff in f.sorted_terms()
    ]


def _exp_poly_from_json(data: list[dict[str, Any]]) -> ExpPoly:
    total = ExpPoly.zero()
    for entry in data:
        total = total + ExpPoly.term(
            _poly_from_json(entry["coeff"]),
            _poly_from_json(entry["base"]),
            int(entry["degree"]),
        )
    return total


def _goal_to_json(goal: Goal) -> dict[str, Any]:
    if isinstance(goal, AllVarsGoal):
        return {"kind": "all", "k": goal.k}
    return {"kind": "moment", "moment": str(goal.moment)}


def _goal_from_json(data: dict[str, Any]) -> Goal:
    if data["kind"] == "all":
        return AllVarsGoal(int(data["k"]))
    return MomentGoal(Moment.parse(data["moment"]))


def emit_json(report: InvariantReport) -> str:
    doc: dict[str, Any] = {
        "program": report.program_name,
        "variables": list(report.variables),
        "parameters": list(report.parameters),
        "goals": [_goal_to_json(g) for g in report.goals],
        "invariants": [
            {
                "moment": str(moment),
                "closed_form": _exp_poly_to_json(report.invariants[moment]),
                "text": render_closed_form(report.invariants[moment]),
            }
            for moment in sorted(report.invariants, key=Moment.sort_key)
        ],
        "initial_moments": [
            {"moment": str(moment), "value": _poly_to_json(value)}
            for moment, value in report.initial_moments.items()
        ],
        "symbolic_initials": list(report.symbolic_initials),
        "side_conditions": list(report.side_conditions),
        "elapsed_seconds": report.elapsed_seconds,
        "verification": _verification_to_json(report.verification),
    }
    return json.dumps(doc, indent=2) + "\n"


def _verification_to_json(v: VerifyReport | None) -> dict[str, Any] | None:
    if v is None:
        return None
    return {
        "iterations": v.iterations,
        "trials": v.trials,
        "seed": v.seed,
        "z": v.z,
        "bindings": [[name, value] for name, value in v.bindings],
        "passed": v.passed,
        "entries": [
            {
                "moment": str(e.moment),
                "expected": e.expected,
                "mean": e.mean,
                "sd": e.sd,
                "se": e.se,
                "margin": e.margin,
                "passed": e.passed,
            }
            for e in v.entries
        ],
    }


def _verification_from_json(data: dict[str, Any] | None) -> VerifyReport | None:
    if data is None:
        return None
    return VerifyReport(
        iterations=int(data["iterations"]),
        trials=int(data["trials"]),
        seed=int(data["seed"]),
        z=float(data["z"]),
        bindings=tuple((str(n), str(v)) for n, v in data["bindings"]),
        entries=tuple(
            VerifyEntry(
                moment=Moment.parse(e["moment"]),
                expected=float(e["expected"]),
                mean=float(e["mean"]),
                sd=float(e["sd"]),
                se=float(e["se"]),
                margin=float(e["margin"]),
                passed=bool(e["passed"]),
            )
            for e in data["entries"]
        ),
    )


def report_from_json(text: str) -> InvariantReport:
    """Rebuild a report emitted by :func:`emit_json`."""
    doc = json.loads(text)
    return InvariantReport(
        program_name=doc["program"],
        variables=tuple(doc["variables"]),
        parameters=tuple(doc["parameters"]),
        goals=tuple(_goal_from_json(g) for g in doc["goals"]),
        invariants={
            Moment.parse(entry["moment"]): _exp_poly_from_json(entry["closed_form"])
            for entry in doc["invariants"]
        },
        initial_moments={
            Moment.parse(entry["moment"]): _poly_from_json(entry["value"])
            for entry in doc["initial_moments"]
        },
        symbolic_initials=tuple(doc["symbolic_initials"]),
        side_conditions=tuple(doc["side_conditions"]),
        elapsed_seconds=float(doc["elapsed_seconds"]),
        verification=_verification_from_json(doc.get("verification")),
    )


# ---------------------------------------------------------------------------
# Re-parsing emitted closed forms
# ---------------------------------------------------------------------------

_CF_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*(?:\(0\))?)|(?P<int>\d+)|(?P<sym>[-+*/^()]))"
)


def _cf_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _CF_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize closed form near {text[pos:]!r}")
            break
        tokens.append(m.group().strip())
        pos = m.end()
    return tokens


class _ClosedFormParser:
    """Parses the rendered closed-form syntax back into an ExpPoly.

    Handles exactly what the renderer produces: sums of products of an
    integer numerator, named powers, ``n^k``, a ``base^n`` factor, and a
    trailing integer denominator.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise ValueError("unexpected end of closed form")
        self.pos += 1
        return tok

    def _expect(self, token: str) -> None:
        got = self._next()
        if got != token:
            raise ValueError(f"expected {token!r}, got {got!r}")

    def parse(self) -> ExpPoly:
        total = ExpPoly.zero()
        sign = 1
        if self._peek() in {"+", "-"}:
            sign = -1 if self._next() == "-" else 1
        total = total + self._summand(sign)
        while self._peek() is not None:
            op = self._next()
            if op not in {"+", "-"}:
                raise ValueError(f"expected '+' or '-', got {op!r}")
            total = total + self._summand(-1 if op == "-" else 1)
        return total

    def _summand(self, sign: int) -> ExpPoly:
        coeff = Fraction(sign)
        powers: dict[str, int] = {}
        ndeg = 0
        base: Poly | None = None
        while True:
            coeff, powers, ndeg, base = self._factor(coeff, powers, ndeg, base)
            nxt = self._peek()
            if nxt == "*":
                self._next()
                continue
            if nxt == "/":
                self._next()
                den = self._next()
                if not den.isdigit():
                    raise ValueError(f"expected integer denominator, got {den!r}")
                coeff /= int(den)
            break
        coeff_poly = Poly.monomial(powers, coeff)
        return ExpPoly.term(coeff_poly, base if base is not None else Poly.const(1), ndeg)

    def _factor(self, coeff, powers, ndeg, base):
        tok = self._next()
        if tok == "(":
            inner = self._poly_until_close()
            self._expect("^")
            self._expect("n")
            if base is not None:
                raise ValueError("two exponential factors in one summand")
            return coeff, powers, ndeg, inner
        if tok.isdigit():
            if self._peek() == "^" and self._peek(1) == "n":
                self._next(), self._next()
                if base is not None:
                    raise ValueError("two exponential factors in one summand")
                return coeff, powers, ndeg, Poly.const(int(tok))
            return coeff * int(tok), powers, ndeg, base
        if tok == "n":
            exp = 1
            if self._peek() == "^":
                self._next()
                exp = int(self._next())
            return coeff, powers, ndeg + exp, base
        # a named symbol, possibly exponentiated by an integer or by n
        if self._peek() == "^":
            if self._peek(1) == "n":
                self._next(), self._next()
                if base is not None:
                    raise ValueError("two exponential factors in one summand")
                return coeff, powers, ndeg, Poly.var(tok)
            self._next()
            exp = int(self._next())
        else:
            exp = 1
        powers[tok] = powers.get(tok, 0) + exp
        return coeff, powers, ndeg, base

    def _poly_until_close(self) -> Poly:
        # Inside parentheses the renderer writes either a rational constant
        # like -1/2 or a parameter polynomial like p + 1 or b^2/3 + 1.
        total = Poly()
        sign = 1
        if self._peek() in {"+", "-"}:
            sign = -1 if self._next() == "-" else 1
        total = total + self._poly_summand(sign)
        while self._peek() != ")":
            op = self._next()
            if op not in {"+", "-"}:
                raise ValueError(f"expected '+' or '-' inside base, got {op!r}")
            total = total + self._poly_summand(-1 if op == "-" else 1)
        self._expect(")")
        return total

    def _poly_summand(self, sign: int) -> Poly:
        coeff = Fraction(sign)
        powers: dict[str, int] = {}
        while True:
            tok = self._next()
            if tok.isdigit():
                coeff *= int(tok)
            else:
                exp = 1
                if self._peek() == "^":
                    self._next()
                    exp = int(self._next())
                powers[tok] = powers.get(tok, 0) + exp
            nxt = self._peek()
            if nxt == "*":
                self._next()
                continue
            if nxt == "/":
                self._next()
                coeff /= int(self._next())
            break
        return Poly.monomial(powers, coeff)


def parse_closed_form(text: str) -> ExpPoly:
    """Parse an emitted right-hand side (txt format) back into an ExpPoly.

    The ``[n >= 1; ...]`` annotation of forms with a one-point correction is
    not re-parsed; strip it first or parse the JSON output instead.
    """
    if "[" in text:
        raise ValueError("annotated closed forms cannot be re-parsed from text")
    return _ClosedFormParser(_cf_tokens(text)).parse()
