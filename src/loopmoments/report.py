"""Rendering and serialization of analysis reports.

Three output surfaces share one canonical content model:

* ``txt`` -- one plain-text line per moment, ``E[x^2] = b^2*n/3`` style.
* ``tex`` -- the same invariants as LaTeX math lines.
* ``json`` -- a machine-readable document and the one report format that
  is read back: :func:`report_from_json` reproduces an equal report.  Its
  bytes are those of ``json.dumps`` on the whole tree, but no tree of the
  closed forms is built: each term is written as text, each monomial's
  ``powers`` and each base are encoded once per report, and only strings
  (program and moment names, the ``text``) go through the JSON encoder;
  non-finite floats are the strings ``"Infinity"``, ``"-Infinity"`` and
  ``"NaN"``.

Every surface walks a closed form's terms once, in print order
(``ExpPoly.sorted_terms()``), through the one per-term formatter
:func:`~loopmoments.symbolic.render_terms` in its ``TEXT`` or ``TEX``
style, and :func:`_closed_form_text` sums the terms' texts.  The JSON takes
each entry's ``num`` and ``den`` and its ``text`` from the same pass, so the
gcd and decimal conversions of a term are made once per writer.  A closed
form containing a base-0 term (an indicator of ``n == 0``) is printed as its
``n >= 1`` form with the initial value annotated, since the one-point
correction has no conventional surface syntax.  Moments come in the
report's own order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Iterator

from .moments import Moment
from .pipeline import Goal, InvariantReport
from .symbolic import (
    ONE,
    TEX,
    TEXT,
    ExpPoly,
    Mono,
    Poly,
    Style,
    joined,
    render_sum,
    render_terms,
)
from .verifier import VerifyEntry, VerifyReport

# ---------------------------------------------------------------------------
# Plain text
# ---------------------------------------------------------------------------


def invariant_lines(report: InvariantReport) -> list[str]:
    """The deterministic ``E[...] = ...`` lines, without surrounding info."""
    texts: dict = {}
    return [
        f"E[{moment}] = {render_closed_form(form, TEXT, texts)}"
        for moment, form in report.invariants.items()
    ]


def render_closed_form(form: ExpPoly, style: Style = TEXT, texts: dict | None = None) -> str:
    """``form`` in ``style``; ``texts`` is :func:`render_terms`'s memo of
    factor texts, shared by the closed forms of one report."""
    if texts is None:
        texts = {}
    pieces = [
        piece
        for base, degree, coeff in form.sorted_terms()
        if not base.is_zero()
        for _, _, _, piece in render_terms(base, degree, coeff, style, texts)
    ]
    return _closed_form_text(form, pieces, style)


# The note on a one-point correction at n = 0, around the initial value.
_AT_ZERO = {
    TEXT: "  [n >= 1; at n = 0: {}]",
    TEX: r" \quad (n \geq 1;\ {}\text{{ at }}n=0)",
}


def _closed_form_text(form: ExpPoly, pieces: list[str], style: Style) -> str:
    """``form`` in ``style`` from the pieces of its terms with a nonzero
    base, with a one-point correction at n = 0 noted as the initial value."""
    text = joined(pieces)
    if form.zero_base_part().is_zero():
        return text
    initial = render_sum([(ONE, 0, form.value_at_zero())], style)
    return text + _AT_ZERO[style].format(initial)


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
        head = f"  E[{e.moment}]: expected {e.expected:.10g}, estimate"
        if math.isfinite(e.mean) and math.isfinite(e.se):
            lines.append(
                f"{head} {e.mean:.10g} (se {e.se:.3g}) -> {verdict} (margin {e.margin:.3g})"
            )
        else:
            lines.append(f"{head} overflowed -> {verdict}")
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
    texts: dict = {}
    for moment, form in report.invariants.items():
        powers = "".join(f"{var}^{{{exp}}}" for var, exp in moment.powers)
        body.append(f"E[{powers}] &= {render_closed_form(form, TEX, texts)}")
    out.append("\\\\\n".join(body))
    out.append(r"\end{align*}")
    for note in report.side_conditions:
        out.append(f"% assuming {note}")
    if report.verification is not None:
        out.extend("% " + line for line in _verification_txt(report.verification))
    out.append(f"% elapsed: {report.elapsed_seconds:.3f} s")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


class _JsonTerms:
    """The JSON text of polynomials and closed forms for one report, written
    term by term from :func:`render_terms`.  Bases and monomials repeat
    across the closed forms, so each base's JSON, each monomial's ``powers``
    and each factor text is made once."""

    def __init__(self):
        self._powers: dict[Mono, str] = {}
        self._bases: dict[Poly, str] = {}
        self._texts: dict = {}

    def _entries(self, terms: Iterator[tuple[Mono, str, str, str]], pieces: list[str]) -> str:
        """The JSON entries of :func:`render_terms` output; its pieces go to
        ``pieces``."""
        out = []
        powers_text = self._powers
        for mono, num, den, piece in terms:
            powers = powers_text.get(mono)
            if powers is None:
                powers = powers_text[mono] = (
                    "[" + ", ".join(f"[{_encode(name)}, {exp}]" for name, exp in mono) + "]"
                )
            out.append(f'{{"num": {num}, "den": {den}, "powers": {powers}}}')
            pieces.append(piece)
        return "[" + ", ".join(out) + "]"

    def poly(self, p: Poly) -> str:
        return self._entries(render_terms(ONE, 0, p, TEXT, self._texts), [])

    def invariant(self, moment: Moment, form: ExpPoly) -> str:
        """The ``closed_form`` entries and the ``text`` of
        :func:`render_closed_form`, both from one pass over the terms."""
        closed_form, pieces = [], []
        for base, degree, coeff in form.sorted_terms():
            base_json = self._bases.get(base)
            if base_json is None:
                base_json = self._bases[base] = self.poly(base)
            terms = render_terms(base, degree, coeff, TEXT, self._texts)
            coeff_json = self._entries(terms, [] if base.is_zero() else pieces)
            closed_form.append(
                f'{{"coeff": {coeff_json}, "base": {base_json}, "degree": {degree}}}'
            )
        text = _encode(_closed_form_text(form, pieces, TEXT))
        return (
            f'{{"moment": {_encode(str(moment))}, "closed_form": '
            f'[{", ".join(closed_form)}], "text": {text}}}'
        )

    def initial(self, moment: Moment, value: Poly) -> str:
        return f'{{"moment": {_encode(str(moment))}, "value": {self.poly(value)}}}'


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


def _exp_poly_from_json(data: list[dict[str, Any]]) -> ExpPoly:
    """A closed form from its terms, summing repeated ``(base, degree)``
    keys."""
    terms: dict[tuple[Poly, int], Poly] = {}
    for entry in data:
        key = (_poly_from_json(entry["base"]), int(entry["degree"]))
        coeff = _poly_from_json(entry["coeff"])
        terms[key] = terms[key] + coeff if key in terms else coeff
    return ExpPoly(terms)  # without the coefficients that summed to zero


def _goal_to_json(goal: Goal) -> dict[str, Any]:
    if isinstance(goal, int):
        return {"kind": "all", "k": goal}
    return {"kind": "moment", "moment": str(goal)}


def _goal_from_json(data: dict[str, Any]) -> Goal:
    if data["kind"] == "all":
        return int(data["k"])
    return Moment.parse(data["moment"])


# Standard JSON has no Infinity or NaN: a value that needs one is a bug.
_encode = json.JSONEncoder(allow_nan=False).encode


def _json_float(x: float) -> float | str:
    """``x``, or a non-finite ``x`` as the string that ``float()`` reads back."""
    if math.isfinite(x):
        return x
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def emit_json(report: InvariantReport) -> str:
    # The keys are plain ASCII, so each one is its own JSON text.  The entries
    # of the two long lists come as their own JSON text, and the pieces are
    # joined once, so the long lists are not copied twice.
    terms = _JsonTerms()
    out = [
        f'{{"program": {_encode(report.program_name)}, '
        f'"variables": {_encode(report.variables)}, '
        f'"parameters": {_encode(report.parameters)}, '
        f'"goals": {_encode([_goal_to_json(g) for g in report.goals])}, "invariants": ['
    ]
    for i, (moment, form) in enumerate(report.invariants.items()):
        out += (", " if i else "", terms.invariant(moment, form))
    out.append('], "initial_moments": [')
    for i, (moment, value) in enumerate(report.initial_moments.items()):
        out += (", " if i else "", terms.initial(moment, value))
    out.append(
        f'], "symbolic_initials": {_encode(report.symbolic_initials)}, '
        f'"side_conditions": {_encode(report.side_conditions)}, '
        f'"elapsed_seconds": {_encode(_json_float(report.elapsed_seconds))}, '
        f'"verification": {_encode(_verification_to_json(report.verification))}}}\n'
    )
    return "".join(out)


def _verification_to_json(v: VerifyReport | None) -> dict[str, Any] | None:
    if v is None:
        return None
    return {
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


# One writer per output format; ``FORMATS`` is the CLI's ``--format`` choices.
_WRITERS = {"txt": emit_txt, "tex": emit_tex, "json": emit_json}
FORMATS = tuple(_WRITERS)


def emit(report: InvariantReport, fmt: str) -> str:
    if fmt not in _WRITERS:
        raise ValueError(f"unknown output format {fmt!r}; expected one of {FORMATS}")
    return _WRITERS[fmt](report)
