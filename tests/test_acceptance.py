"""Acceptance suite.

Each test here covers one exit criterion at its stated tolerance and prints
a PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Everything symbolic is checked for exact equality; the only
tolerances are the statistical z-rule of the simulation check and the
relative 1e-9 of the quadrature oracle.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from loopmoments import (
    ExpPoly,
    Moment,
    MomentEquation,
    Poly,
    analyze,
    MomentTable,
    build_recurrence,
    solve_first_order,
)
from loopmoments.cli import main
from loopmoments.frontend import Distribution
from loopmoments.symbolic import ONE
from loopmoments.verifier import SimConfig, check, simulate

from corpus import CORPUS, WALK, iterate_equations, shifted

b = Poly.var("b")
y0 = Poly.var("y(0)")


def M(text: str) -> Moment:
    return Moment.parse(text)


def _passed(number: int, description: str, elapsed: float | None = None) -> None:
    timing = f" ({elapsed:.3f} s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} PASS: {description}{timing}")


def test_criterion_1_running_example_equations():
    started = time.perf_counter()
    report = analyze(WALK, [1, 2], name="walk")
    expected = {
        M("u^1"): ({}, b / 2),
        M("g^1"): ({}, Poly()),
        M("x^1"): ({M("x^1"): Poly.const(1)}, Poly()),
        M("y^1"): ({M("y^1"): Poly.const(1), M("x^1"): Poly.const(1)}, Poly()),
        M("u^2"): ({}, b**2 / 3),
        M("g^2"): ({}, Poly.const(1)),
        M("x^2"): ({M("x^2"): Poly.const(1)}, b**2 / 3),
        M("x^1*y^1"): (
            {M("x^1*y^1"): Poly.const(1), M("x^2"): Poly.const(1)},
            b**2 / 3,
        ),
        M("y^2"): (
            {
                M("y^2"): Poly.const(1),
                M("x^2"): Poly.const(1),
                M("x^1*y^1"): Poly.const(2),
            },
            b**2 / 3 + 1,
        ),
    }
    equations = report.equations
    assert set(equations) == set(expected), "exactly the nine equations"
    for moment, (linear, constant) in expected.items():
        assert equations[moment] == MomentEquation(moment, linear, constant), str(moment)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(1, "running-example equation system matches all nine lines exactly", elapsed)


def test_criterion_2_running_example_closed_forms():
    started = time.perf_counter()
    report = analyze(WALK, [1, 2], name="walk")
    expected = {
        M("u^2"): ExpPoly.const(b**2 / 3),
        M("x^1"): ExpPoly(),
        M("y^1"): ExpPoly.const(y0),
        M("x^2"): ExpPoly({(ONE, 1): b**2 / 3}),
        M("u^1"): ExpPoly.const(b / 2),
        M("x^1*y^1"): ExpPoly({(ONE, 2): b**2 / 6, (ONE, 1): b**2 / 6}),
        M("y^2"): ExpPoly(
            {(ONE, 3): b**2 / 9, (ONE, 2): b**2 / 6, (ONE, 1): b**2 / 18 + 1, (ONE, 0): y0**2}
        ),
        M("g^1"): ExpPoly(),
        M("g^2"): ExpPoly.const(1),
    }
    assert set(report.invariants) == set(expected)
    for moment, form in expected.items():
        assert report.invariants[moment] == form, str(moment)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passed(2, "all nine running-example closed forms reproduced exactly", elapsed)


def test_criterion_3_symbolic_self_check_across_corpus():
    started = time.perf_counter()
    assert len(CORPUS) >= 11  # running example plus >= 10 synthetic programs
    coefficients_seen = set()
    resonant = nonresonant = 0
    checked = 0
    for name in sorted(CORPUS):
        source, goals, _ = CORPUS[name]
        report = analyze(source, goals, name=name)
        solved = {}
        for moment in report.order:
            recurrence = build_recurrence(
                report.equations[moment], solved, report.initial_moments
            )
            form = solve_first_order(recurrence)
            solved[moment] = form
            # the defining identity, recomputed here from scratch
            residual = ExpPoly.linear_combination(
                [(ONE, shifted(form)), (-recurrence.self_coeff, form), (-ONE, recurrence.inhom)]
            )
            assert residual.is_zero(), (name, str(moment))
            assert form.value_at_zero() == recurrence.init, (name, str(moment))
            checked += 1
            c = recurrence.self_coeff
            if c.is_const():
                coefficients_seen.add(c.const_value())
            if any(base == c for base, _, _ in recurrence.inhom.terms()):
                resonant += 1
            elif not recurrence.inhom.is_zero():
                nonresonant += 1
    required = {Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)}
    assert required <= coefficients_seen
    assert resonant > 0 and nonresonant > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(
        3,
        f"self-check f(n+1) - c*f(n) - inhom(n) == 0 and f(0) == init for "
        f"{checked} closed forms over {len(CORPUS)} programs",
        elapsed,
    )


def test_criterion_4_iteration_oracle():
    started = time.perf_counter()
    rng = random.Random(20260808)
    total = 0
    for name in sorted(CORPUS):
        source, goals, example = CORPUS[name]
        report = analyze(source, goals, name=name)
        equations = report.equations
        needed = set()
        for form in report.invariants.values():
            for base, _, coeff in form.terms():
                needed |= base.symbols() | coeff.symbols()
        for value in report.initial_moments.values():
            needed |= value.symbols()
        for equation in equations.values():
            needed |= equation.constant.symbols()
            for coeff in equation.linear.values():
                needed |= coeff.symbols()
        binding_sets = [
            {s: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for s in needed},
            {**{s: Fraction(0) for s in needed}, **example},
        ]
        for bindings in binding_sets:
            init_values = {m: report.initial_moments[m] for m in equations}
            history = iterate_equations(equations, init_values, bindings, 25)
            for n in range(26):
                for moment, form in report.invariants.items():
                    assert form.evaluate(n, bindings) == history[n][moment], (
                        name,
                        str(moment),
                        n,
                    )
                    total += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(
        4,
        f"exact iteration for n <= 25 equals closed-form evaluation "
        f"({total} comparisons)",
        elapsed,
    )


def test_criterion_5_distribution_moments_against_quadrature():
    from scipy import integrate

    started = time.perf_counter()
    rng = random.Random(55)
    checked = 0
    for _ in range(5):
        a_val = Fraction(rng.randint(-8, 4), rng.randint(1, 4))
        b_val = a_val + Fraction(rng.randint(1, 8), rng.randint(1, 3))
        dist = Distribution("uniform", Poly.var("a"), Poly.var("b"))
        bindings = {"a": a_val, "b": b_val}
        lo, hi = float(a_val), float(b_val)
        for k in range(0, 9):
            exact = float(MomentTable().moment(dist, k).evaluate(bindings))
            numeric, _ = integrate.quad(
                lambda t, k=k: t**k / (hi - lo), lo, hi, epsabs=1e-13, epsrel=1e-13
            )
            assert abs(numeric - exact) <= 1e-9 * max(abs(exact), 1e-12)
            checked += 1
    for _ in range(5):
        mean = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        variance = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        dist = Distribution("gauss", Poly.var("m"), Poly.var("v"))
        bindings = {"m": mean, "v": variance}
        mu, sigma = float(mean), math.sqrt(float(variance))
        for k in range(0, 9):
            exact = float(MomentTable().moment(dist, k).evaluate(bindings))
            numeric, _ = integrate.quad(
                lambda t, k=k: t**k
                * math.exp(-((t - mu) ** 2) / (2 * sigma**2))
                / (sigma * math.sqrt(2 * math.pi)),
                -math.inf,
                math.inf,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert abs(numeric - exact) <= 1e-9 * max(abs(exact), 1e-12)
            checked += 1
    elapsed = time.perf_counter() - started
    _passed(
        5,
        f"uniform and gauss raw moments (k <= 8) match quadrature within "
        f"relative 1e-9 at {checked} points",
        elapsed,
    )


def test_criterion_6_monte_carlo_agreement():
    started = time.perf_counter()
    report = analyze(WALK, [1, 2], name="walk")
    cfg = SimConfig(
        bindings={"b": Fraction(2), "y(0)": Fraction(0)},
        iterations=20,
        trials=100_000,
        seed=2026,
    )
    targets = {M("x^1"), M("x^2"), M("y^1"), M("x^1*y^1"), M("y^2")}
    estimates = simulate(report.validated, cfg, targets)
    result = check(report.invariants, estimates, cfg)
    assert result.z == 5.0
    by_moment = {str(e.moment): e for e in result.entries}
    assert by_moment["x^2"].expected == pytest.approx(80.0 / 3.0)
    for name, entry in by_moment.items():
        assert entry.passed, f"E[{name}] off by more than 5 standard errors"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(
        6,
        "simulation at b=2, y(0)=0, n=20, 1e5 trials agrees with the exact "
        "closed forms at z=5",
        elapsed,
    )


def test_criterion_7_third_moments_complete_quickly():
    started = time.perf_counter()
    report = analyze(WALK, [1, 2, 3], name="walk")
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert M("y^3") in report.invariants
    # spot-check the run numerically rather than trusting speed alone
    bindings = {"b": Fraction(2), "y(0)": Fraction(0)}
    history = iterate_equations(
        report.equations, report.initial_moments, bindings, 10
    )
    for moment, form in report.invariants.items():
        assert form.evaluate(10, bindings) == history[10][moment]
    _passed(7, "first three moments of the running example solved", elapsed)


def test_criterion_8_validation_rejection_suite(tmp_path, capsys):
    cases = {
        "clash": (
            "x=0\nwhile true:\nu = RV(uniform, 0, x)\nx = x + u\n",
            "distinctness",
        ),
        "mass": (
            "x=0\nwhile true:\nx = x+1 @ 1/3; x @ 1/3\n",
            "probability-sum",
        ),
        "nonlinear": (
            "x=0\nwhile true:\nx = x*x\n",
            "dependency-structure",
        ),
        "forward": (
            "x=0\ny=0\nwhile true:\nx = y*x + 1\ny = y\n",
            "dependency-structure",
        ),
    }
    for name, (source, needle) in cases.items():
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        code = main([str(path), "--goal", "1"])
        err = capsys.readouterr().err
        assert code == 3, name
        assert needle in err, name
    _passed(8, "each structural violation exits 3 with its own diagnostic")
