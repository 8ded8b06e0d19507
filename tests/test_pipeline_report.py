"""Goal handling, the analysis pipeline, and report rendering."""

import hashlib
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from loopmoments import (
    ExpPoly,
    GoalError,
    InvariantReport,
    Moment,
    Poly,
    analyze,
    emit,
    emit_json,
    emit_tex,
    emit_txt,
    parse_goals,
    report_from_json,
    solve_all,
)
from loopmoments.report import invariant_lines, render_closed_form
from loopmoments.symbolic import ONE, TEX, ZERO
from loopmoments.verifier import SimConfig, VerifierError, simulate

from corpus import CORPUS, THREE_VAR, TRANSIENT, WALK, counting_fractions, reference_json


def M(text: str) -> Moment:
    return Moment.parse(text)


# -- goals ------------------------------------------------------------------------


def test_integer_goals():
    assert parse_goals([1, 2]) == [1, 2]
    assert parse_goals(["3"]) == [3]
    # a goal is a plain int: True and numpy integers go through int()
    import numpy as np

    goals = parse_goals([True, np.int64(2), " 4 "])
    assert goals == [1, 2, 4] and all(type(g) is int for g in goals)


def test_monomial_goal():
    assert parse_goals(["x^2"]) == [M("x^2")]


def test_mixed_goal_list():
    goals = parse_goals([1, "x^2", "x^3"])
    assert goals == [1, M("x^2"), M("x^3")]


def test_goal_errors():
    with pytest.raises(GoalError):
        parse_goals([0])
    with pytest.raises(GoalError):
        parse_goals([-2])
    with pytest.raises(GoalError):
        parse_goals([])
    with pytest.raises(GoalError):
        parse_goals(["x^"])
    with pytest.raises(GoalError):
        parse_goals(["²"])
    with pytest.raises(GoalError):
        parse_goals(["--1"])
    with pytest.raises(GoalError):  # longer than the interpreter reads as an int
        parse_goals(["1" * 5000])
    with pytest.raises(GoalError):
        parse_goals(["z^2"], variables=["x", "y"])


def test_repeated_names_in_a_goal_merge():
    goal = Moment((("x", 1), ("x", 1)))
    report = analyze("x = 0\nwhile true:\n  x = x + 1\n", [goal])
    assert invariant_lines(report) == ["E[x^1] = n", "E[x^2] = n^2"]


def test_analyze_rejects_unknown_goal_variable():
    with pytest.raises(GoalError):
        analyze(WALK, ["q^2"])


def test_analyze_checks_goal_objects_like_tokens():
    with pytest.raises(GoalError, match="order must be >= 1"):
        analyze(WALK, [0])
    with pytest.raises(GoalError, match="unknown variable"):
        analyze(WALK, [M("q^2")])
    with pytest.raises(GoalError, match="at least one goal"):
        analyze(WALK, [])
    assert parse_goals([2, M("x^2")]) == [2, M("x^2")]
    assert analyze(WALK, [1, M("x^2")]).invariants == (
        analyze(WALK, [1, "x^2"]).invariants
    )


def test_goal_coverage_in_report():
    report = analyze(WALK, [1, "x^2"])
    lines = "\n".join(invariant_lines(report))
    for var in ("u", "g", "x", "y"):
        assert f"E[{var}^1] =" in lines
    assert "E[x^2] =" in lines


# -- rendering ----------------------------------------------------------------------


def walk_report():
    return analyze(WALK, [1, 2], name="walk")


def test_txt_contains_the_expected_lines():
    text = emit_txt(walk_report())
    assert "E[x^2] = b^2*n/3" in text
    assert "E[x^1] = 0" in text
    assert "E[y^1] = y(0)" in text
    assert "program: walk" in text
    assert "goals: 1, 2" in text
    assert "elapsed:" in text


def test_tex_has_one_line_per_moment():
    report = walk_report()
    tex = emit_tex(report)
    assert r"\begin{align*}" in tex
    assert "E[x^{2}] &= \\frac{b^{2} n}{3}" in tex
    assert tex.count("&=") == len(report.invariants)


def test_tex_bases_follow_the_txt_rules():
    # a negative integer base is grouped without a fraction, as in txt
    report = analyze("x = 1\nwhile true:\nx = -3*x + 1\n", [1])
    assert "(-3)^n" in emit_txt(report)
    tex = emit_tex(report)
    assert r"\left(-3\right)^{n}" in tex
    assert r"\frac{3}{1}" not in tex
    # a rational base keeps its fraction; a single-symbol base is bare
    report = analyze("x = 1\nwhile true:\nx = -1/2*x + 1\n", [1])
    assert r"\left(-\frac{1}{2}\right)^{n}" in emit_tex(report)
    source, goals, _ = CORPUS["geometric_chain"]
    assert "E[w^{1}] &= p p^{n} - p" in emit_tex(analyze(source, goals))


def test_json_round_trip():
    report = walk_report()
    assert report_from_json(emit_json(report)) == report
    # a monomial goal is written as its moment and read back as a goal
    report = analyze(WALK, [1, "x^2*y"], name="walk")
    assert report.goals == (1, M("x^2*y")) and isinstance(report.goals[1], Moment)
    assert json.loads(emit_json(report))["goals"] == [
        {"kind": "all", "k": 1},
        {"kind": "moment", "moment": "x^2*y^1"},
    ]
    assert report_from_json(emit_json(report)) == report


def test_json_is_one_line_and_indented_reports_still_load():
    report = walk_report()
    text = emit_json(report)
    assert text.count("\n") == 1 and text.endswith("\n")
    # the layout of earlier versions, which wrote the same document indented
    indented = json.dumps(json.loads(text), indent=2) + "\n"
    assert report_from_json(indented) == report


def test_json_loader_canonicalises_polynomials():
    report = analyze(WALK, [2], name="walk")
    doc = json.loads(emit_json(report))
    for entry in doc["invariants"]:
        for term in entry["closed_form"]:
            for poly in (term["coeff"], term["base"]):
                for t in poly:
                    t["powers"].reverse()
    # split one coefficient into two entries of the same monomial
    entry = next(e for e in doc["invariants"] if e["moment"] == "x^2")
    [summand] = entry["closed_form"][0]["coeff"]
    assert (summand["num"], summand["den"]) == (1, 3)
    summand["den"] = 6
    entry["closed_form"][0]["coeff"].append(dict(summand))
    assert report_from_json(json.dumps(doc)) == report


def test_json_loader_sums_repeated_closed_form_keys():
    # A hand-written closed form may list one (base, degree) key more than
    # once, with the base written in other terms; the load sums them, and a
    # key whose entries cancel is dropped.
    report = analyze(WALK, [2], name="walk")
    doc = json.loads(emit_json(report))
    entry = next(e for e in doc["invariants"] if e["moment"] == "x^2")
    term = entry["closed_form"][0]
    [summand] = term["coeff"]
    one = [{"num": 1, "den": 1, "powers": []}]
    assert (summand["num"], summand["den"], term["base"]) == (1, 3, one)
    term["coeff"] = [dict(summand, den=6)]
    entry["closed_form"].append(
        {"coeff": [dict(summand, den=12)], "base": one, "degree": term["degree"]}
    )
    entry["closed_form"].append(
        {
            "coeff": [dict(summand, den=12)],
            "base": [{"num": 2, "den": 2, "powers": []}],
            "degree": term["degree"],
        }
    )
    for num in (5, -5):
        entry["closed_form"].append(
            {"coeff": [{"num": num, "den": 1, "powers": [["b", 1]]}], "base": one, "degree": 9}
        )
    assert report_from_json(json.dumps(doc)) == report


def test_json_loader_rejects_a_zero_denominator():
    doc = json.loads(emit_json(walk_report()))
    doc["initial_moments"][0]["value"] = [{"num": 1, "den": 0, "powers": []}]
    with pytest.raises(ValueError, match="denominator"):
        report_from_json(json.dumps(doc))


def verified_walk_report() -> InvariantReport:
    from loopmoments.verifier import SimConfig, check, simulate

    report = analyze(WALK, [1], name="walk")
    cfg = SimConfig(
        bindings={"b": Fraction(2), "y(0)": Fraction(0)},
        iterations=5,
        trials=2000,
        seed=11,
    )
    estimates = simulate(report.validated, cfg, set(report.invariants))
    return report.with_verification(check(report.invariants, estimates, cfg))


def test_json_round_trip_with_verification():
    report = verified_walk_report()
    assert report.verification is not None
    restored = report_from_json(emit_json(report))
    assert restored == report
    assert restored.verification == report.verification


def overflowed_report() -> InvariantReport:
    """A verified report whose E[x^39] and E[x^40] overflowed (expected and
    estimate -inf and inf, spread nan), with E[x^1] made to FAIL."""
    from loopmoments.verifier import SimConfig, check, simulate

    report = analyze("x = -2\nwhile true:\nx = 1000*x\n", [1, 39, 40], name="overflow")
    cfg = SimConfig(bindings={}, iterations=5, trials=100, seed=0)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    verification = check(report.invariants, estimates, cfg)
    first, *rest = verification.entries
    failed = replace(first, expected=first.expected + 1, passed=False)
    return report.with_verification(replace(verification, entries=(failed, *rest)))


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_overflowed_verification_is_standard_json():
    report = overflowed_report()
    text = emit_json(report)
    entries = strict_json(text)["verification"]["entries"]
    assert [(e["moment"], e["expected"], e["mean"], e["sd"]) for e in entries[1:]] == [
        ("x^39", "-Infinity", "-Infinity", "NaN"),
        ("x^40", "Infinity", "Infinity", "NaN"),
    ]
    assert [e["passed"] for e in entries] == [False, False, False]
    # NaN equals nothing, so the round trip is compared field by field
    restored = report_from_json(text).verification
    for got, want in zip(restored.entries, report.verification.entries):
        for name in ("moment", "expected", "mean", "sd", "se", "margin", "passed"):
            a, b = getattr(got, name), getattr(want, name)
            assert a == b or (math.isnan(a) and math.isnan(b)), (want.moment, name)
    assert replace(restored, entries=()) == replace(report.verification, entries=())


def test_emit_json_matches_the_document_tree_on_edge_reports():
    counter = analyze(CORPUS["counter"][0], [1, 2])
    assert not counter.parameters and not counter.side_conditions
    reports = [
        overflowed_report(),
        replace(verified_walk_report(), program_name='a "quoted" \\ näme \u2713'),
        counter,
        replace(counter, invariants={}, initial_moments={}, goals=()),
    ]
    for report in reports:
        assert emit_json(report) == reference_json(report), report.program_name


def test_emit_json_holds_little_beyond_its_output():
    # the document is written entry by entry: no tree of the whole report
    # exists beside the text
    report = analyze(THREE_VAR, [3])
    tracemalloc.start()
    try:
        text = emit_json(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


def test_tex_carries_the_verification_as_comments():
    report = verified_walk_report()
    txt = emit_txt(report).splitlines()
    start = next(i for i, line in enumerate(txt) if line.startswith("verification:"))
    section = ["% " + line for line in txt[start:-1]]
    assert section[-1] == "% verification result: PASS"
    assert emit_tex(report).splitlines()[-len(section) - 1 : -1] == section


def test_one_point_corrections_render_with_validity_range():
    source, goals, _ = CORPUS["fresh_draw"]
    report = analyze(source, goals)
    line = render_closed_form(report.invariants[M("v^1")])
    assert "[n >= 1; at n = 0: v(0)]" in line
    # JSON carries the exact correction term
    restored = report_from_json(emit_json(report))
    assert restored.invariants[M("v^1")] == report.invariants[M("v^1")]


def test_the_note_lists_every_point_before_the_form_holds():
    v0 = Poly.var("v(0)")
    form = ExpPoly({(ONE, 0): ONE, (ZERO, 0): v0 - 1, (ZERO, 2): Poly.const(3)})
    assert render_closed_form(form) == "1  [n >= 3; at n = 0: v(0); at n = 1: 1; at n = 2: 4]"
    assert render_closed_form(form, TEX) == (
        r"1 \quad (n \geq 3;\ v(0)\text{ at }n=0;\ 1\text{ at }n=1;\ 4\text{ at }n=2)"
    )
    # only n = 0 special: the one-point note
    assert render_closed_form(ExpPoly({(ZERO, 0): v0})) == "0  [n >= 1; at n = 0: v(0)]"
    assert render_closed_form(ExpPoly({(ZERO, 0): v0}), TEX) == (
        r"0 \quad (n \geq 1;\ v(0)\text{ at }n=0)"
    )


def test_json_round_trip_with_a_transient_at_n_1():
    report = analyze(TRANSIENT, ["y^2"], name="transient")
    terms = report.invariants[M("y^2")].terms()
    assert any(base.is_zero() and degree == 1 for base, degree, _ in terms)
    assert report_from_json(emit_json(report)) == report


def test_json_base_0_term_reads_as_an_indicator():
    # a hand-written term with "base": [] and "degree": 1 is [n = 1]
    report = analyze("x = 3\nwhile true:\nx = x\n", [1], name="ident")
    doc = json.loads(emit_json(report))
    [entry] = doc["invariants"]
    two = [{"num": 2, "den": 1, "powers": []}]
    entry["closed_form"].append({"coeff": two, "base": [], "degree": 1})
    form = report_from_json(json.dumps(doc)).invariants[M("x^1")]
    assert form == ExpPoly({(ONE, 0): Poly.const(3), (ZERO, 1): Poly.const(2)})
    assert [form.evaluate(n) for n in range(4)] == [3, 5, 3, 3]


def test_side_conditions_appear_in_txt():
    source, goals, _ = CORPUS["geometric_chain"]
    text = emit_txt(analyze(source, goals))
    assert "side conditions: p != 1" in text


def test_emitters_reject_unknown_format():
    message = "unknown output format 'yaml'; expected one of ('txt', 'tex', 'json')"
    with pytest.raises(ValueError) as err:
        emit(walk_report(), "yaml")
    assert str(err.value) == message


def test_emitters_follow_the_canonical_order_not_the_dict_order():
    report = walk_report()
    backwards = replace(
        report,
        invariants=dict(reversed(report.invariants.items())),
        initial_moments=dict(reversed(report.initial_moments.items())),
    )
    for fmt in ("txt", "tex", "json"):
        assert emit(backwards, fmt) == emit(report, fmt), fmt
    assert list(backwards.invariants) == list(report.invariants)
    assert list(backwards.initial_moments) == list(report.initial_moments)


def test_invariant_lines_are_deterministic():
    first = invariant_lines(analyze(WALK, [1, 2]))
    second = invariant_lines(analyze(WALK, [1, 2]))
    assert first == second
    third = invariant_lines(report_from_json(emit_json(analyze(WALK, [1, 2]))))
    assert third == first


_HASH_SEED_RUN = """
import json, sys
from dataclasses import replace
from fractions import Fraction
from loopmoments import analyze, emit_json
from loopmoments.verifier import SimConfig, check, simulate
goals, bindings = json.loads(sys.argv[1])
report = analyze(sys.stdin.read(), goals)
if bindings is not None:
    bindings = {name: Fraction(value) for name, value in bindings.items()}
    cfg = SimConfig(bindings=bindings, iterations=5, trials=3 * 4096, seed=0)
    estimates = simulate(report.validated, cfg, set(report.invariants))
    report = report.with_verification(check(report.invariants, estimates, cfg))
text = emit_json(replace(report, elapsed_seconds=0.0))
json.dump([text, [str(m) for m in report.equations]], sys.stdout)
"""


def _runs_under_two_hash_seeds(source: str, goals: list, bindings: dict | None = None) -> list:
    src = str(Path(__file__).parents[1] / "src")
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN, json.dumps([goals, bindings])],
            input=source, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    return runs


def test_analysis_does_not_depend_on_the_hash_seed():
    # Set and dict orders of moments follow the string hashes, which change
    # with the seed; the report and the closure's equation order must not.
    runs = _runs_under_two_hash_seeds(THREE_VAR, [3])
    assert runs[0] == runs[1]
    # nor must a verified report, whose targets come as a set of moments:
    # its target order and bindings, over three blocks of trials
    runs = _runs_under_two_hash_seeds(WALK, [1, 2], {"b": "2", "y(0)": "0"})
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["verification"]["passed"] is True


def test_symbolic_bases_do_not_depend_on_the_hash_seed():
    # THREE_VAR has constant bases only; here the bases are the polynomials
    # q^2, p*q and p^2, which the report sorts by their text, and the side
    # conditions compare them pairwise.
    source = "x = 0\nwhile true:\ny = q*y\nx = p*x + p*y - q*y\n"
    runs = _runs_under_two_hash_seeds(source, [2])
    assert runs[0] == runs[1]
    report = json.loads(runs[0][0])
    assert report["side_conditions"] == ["q^2 != p*q", "q^2 != p^2", "p*q != p^2"]


def test_symbolic_initials_are_reported():
    report = walk_report()
    assert report.symbolic_initials == ("y(0)",)
    assert "symbolic initial values: y(0)" in emit_txt(report)


def test_fifth_moments_verify_against_exact_iteration():
    from corpus import iterate_equations

    report = analyze(WALK, [5])
    bindings = {"b": Fraction(3), "y(0)": Fraction(-1, 2)}
    history = iterate_equations(report.equations, report.initial_moments, bindings, 15)
    for moment, form in report.invariants.items():
        for n in (0, 7, 15):
            assert form.evaluate(n, bindings) == history[n][moment], (str(moment), n)


def test_coupled_polynomial_chain():
    # three state variables with chained polynomial dependencies; the
    # degree-2 closure reaches degree-6 moments of the leading variable
    source = (
        "a = 0\nb = 0\nc = 0\n"
        "while true:\n"
        "u = RV(uniform, 0, 1)\n"
        "a = a + u\n"
        "b = b + a*a @ 1/2; b @ 1/2\n"
        "c = c + a*b\n"
    )
    from corpus import iterate_equations

    report = analyze(source, [2])
    assert max(m.degree() for m in report.invariants) >= 4
    history = iterate_equations(report.equations, report.initial_moments, {}, 12)
    for moment, form in report.invariants.items():
        assert form.evaluate(12, {}) == history[12][moment], str(moment)


# -- golden reports -----------------------------------------------------------------

# sha256 digests of the txt, tex and json reports, recorded before the exact
# kernel and the renderers were last rewritten; such a change must reproduce
# every report byte for byte.  Regenerate (only for a deliberate output change) with
#   PYTHONPATH=src:tests python -c "import json, test_pipeline_report as t;
#   print(json.dumps({n: t.golden_digests(n) for n in sorted(t.GOLDEN_CASES)},
#   indent=1, sort_keys=True))"
# A new case's entry is recorded the same way, as "name": t.golden_digests("name"),
# on the commit before any change that it is meant to pin.
GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
GOLDEN_CASES = {name: (source, goals) for name, (source, goals, _) in CORPUS.items()}
GOLDEN_CASES["three-var"] = (THREE_VAR, [3])
# the benchmark's own three-var job, at goal 4
GOLDEN_CASES["three-var-k4"] = (THREE_VAR, [4])
# the walk-ladder benchmark's heaviest job, at goal 8
GOLDEN_CASES["walk-k8"] = (WALK, [8])
# the writers' rarer branches: a symbolic base with an n^k factor
# (E[x^2] = n^2*(p^2)^n) and a multi-term parametric base
# (E[z^1] = z(0)*(p*q/2 - 2*q + 1)^n)
GOLDEN_CASES["symbolic-bases"] = (
    "y = 1\nx = 0\nwhile true:\n"
    "  z = 1/2*p*z - z @ q; z @ 1 - q\n"
    "  y = p*y\n"
    "  x = p*x + y\n",
    [1, 2],
)


def golden_digests(name: str) -> dict[str, str]:
    """Digests of one case's txt, tex and json reports, with the run-dependent
    ``elapsed_seconds`` zeroed."""
    source, goals = GOLDEN_CASES[name]
    report = replace(analyze(source, goals, name=name), elapsed_seconds=0.0)
    return {
        fmt: hashlib.sha256(emit(report, fmt).encode()).hexdigest()
        for fmt in ("txt", "tex", "json")
    }


def test_golden_digests_cover_every_case():
    assert sorted(GOLDEN) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_reports_match_golden_digests(name):
    assert golden_digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_text_is_the_txt_right_hand_side(name):
    # the JSON renders its "text" in the same pass as its "closed_form", not
    # through render_closed_form, so the two must be compared
    source, goals = GOLDEN_CASES[name]
    report = analyze(source, goals)
    txt = {}
    for line in emit_txt(report).splitlines():
        if line.startswith("E["):
            lhs, rhs = line.split(" = ", 1)
            txt[lhs[2:-1]] = rhs
    doc = json.loads(emit_json(report))
    assert {entry["moment"]: entry["text"] for entry in doc["invariants"]} == txt
    if name == "fresh_draw":
        # a closed form with a base-0 term, i.e. a one-point correction at n = 0
        assert "[n >= 1; at n = 0: v(0)]" in txt["v^1"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_symbolic_initials_are_those_the_closed_forms_carry(name):
    # analyze reads them off the initial moments; every closed form equals
    # its initial moment at n = 0, so the closed forms carry the same ones
    source, goals = GOLDEN_CASES[name]
    report = analyze(source, goals)
    carried = {
        sym
        for form in report.invariants.values()
        for base, _, coeff in form.terms()
        for sym in base.symbols() | coeff.symbols()
        if sym.endswith("(0)")
    }
    assert report.symbolic_initials == tuple(sorted(carried))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_validated_program_resolves_every_variable(name):
    # every variable has one initial value, in program order, and the
    # symbols are exactly the names a simulation must have bound
    source, goals = GOLDEN_CASES[name]
    report = analyze(source, goals)
    vp = report.validated
    assert tuple(vp.initial) == vp.variables
    cfg = SimConfig(bindings={}, iterations=1, trials=2, seed=0)
    if vp.symbols:
        with pytest.raises(VerifierError) as err:
            simulate(vp, cfg, set(report.invariants))
        assert str(err.value) == f"unbound parameter(s): {', '.join(sorted(vp.symbols))}"
    else:
        simulate(vp, cfg, set(report.invariants))
    assert set(report.symbolic_initials) <= vp.symbols - vp.parameters


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_emit_json_matches_the_document_tree(name):
    source, goals = GOLDEN_CASES[name]
    report = analyze(source, goals, name=name)
    text = emit_json(report)
    assert text == reference_json(report)
    restored = report_from_json(text)
    # the working state is not serialized, and equality ignores it
    assert restored == report
    assert (restored.validated, restored.equations, restored.order) == (None, None, None)
    assert "validated=" not in repr(report) and "equations=" not in repr(report)
    # the report holds the full solved map, one closed form per equation,
    # solved along a dependency order
    assert list(report.invariants) == sorted(report.equations, key=Moment.sort_key)
    assert list(report.initial_moments) == list(report.invariants)
    assert sorted(report.order, key=Moment.sort_key) == list(report.invariants)
    position = {m: i for i, m in enumerate(report.order)}
    for moment, equation in report.equations.items():
        assert all(position[d] < position[moment] for d in equation.dependencies()), moment


def test_emit_json_matches_the_document_tree_on_large_and_verified_reports():
    # the writer's shared powers and base texts, over many closed forms
    reports = [analyze(THREE_VAR, [k], name=f"three-var k={k}") for k in (1, 2, 3, 4)]
    reports.append(verified_walk_report())
    for report in reports:
        text = emit_json(report)
        assert text == reference_json(report), report.program_name
        assert report_from_json(text) == report, report.program_name


def test_solve_and_report_build_no_fractions():
    # the solver and the emitters work on the kernel's integer numerators
    report = analyze(THREE_VAR, [3])
    with counting_fractions() as count:
        Fraction(1, 3)  # the counter sees a construction
    assert count == [1]
    with counting_fractions() as count:
        solved, sides = solve_all(report.order, report.equations, report.initial_moments)
    assert count == [0]
    assert solved == report.invariants
    assert tuple(sides) == report.side_conditions
    for fmt in ("txt", "json"):
        with counting_fractions() as count:
            emit(report, fmt)
        assert count == [0], fmt


# -- public surface -----------------------------------------------------------------


def test_public_names_resolve():
    # the names the README's library section uses
    namespace: dict = {}
    exec("from loopmoments import *", namespace)
    assert {"analyze", "emit", "report_from_json", "ExpPoly"} <= set(namespace)


def readme_text() -> str:
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_library_snippet_runs_on_the_walk():
    # the "Library" block as written: the one report record holds a closed
    # form for every equation and the validated program, and a report read
    # back from JSON holds no working state
    snippet = readme_text().split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {"source_text": WALK}
    exec(snippet, namespace)
    report = namespace["report"]
    assert set(report.equations) == set(report.invariants)
    assert report.validated is not None
    assert report_from_json(emit(report, "json")).validated is None


def test_readme_example_output_is_in_report_order():
    block = readme_text().split("Example output for the program above", 1)[1].split("```")[1]
    shown = [line for line in block.splitlines() if line.startswith("E[")]
    assert len(shown) == 3
    lines = iter(emit_txt(analyze(WALK, [1, 2])).splitlines())
    # each shown line appears after the one before it
    assert all(line in lines for line in shown), shown


def test_benchmark_trace_hooks_resolve(monkeypatch):
    # bench/tracing.py wraps these functions by name and only warns about a
    # missing one, so a renamed stage would silently leave its layer empty
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _ in tracing.HOOKS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
        # teardown puts the unwrapped function back
        monkeypatch.setattr(module, attr, getattr(module, attr))
    # the wrappers replace module globals, so each is called only if the
    # pipeline looks its function up at call time: one captured at import
    # would leave its span, and its per-layer metric, empty
    tracer = tracing.Tracer()
    tracer.install()
    analyze(WALK, [2])
    recorded = {span[0] for span in tracer.spans}
    assert {name for *_, name in tracing.HOOKS} <= recorded, recorded
    # kernel_profile reads the kernel functions' code objects by name: each
    # must exist and be one the pipeline calls, or its count reads 0
    counts = tracing.kernel_profile(lambda: analyze(WALK, [2]))
    assert counts and all(value > 0 for value in counts.values()), counts


@pytest.mark.parametrize("workload, goals", [("walk-ladder", (2,)), ("walk-verify", (1, 2))])
def test_benchmark_job_reads_the_report(monkeypatch, workload, goals):
    # bench/job.py runs the analysis, the verifier and both emitters, then
    # checks the outputs through the report's fields and report_from_json:
    # a renamed field would fail the benchmark, not tier-1
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_job", bench / "job.py")
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    work = job.WORKLOADS[workload]
    assert goals in work.goal_lists
    report, txt, js = job.run_job(work, goals, 1, job._Untraced())
    assert job.check_job(work, goals, report, txt, js) == []
