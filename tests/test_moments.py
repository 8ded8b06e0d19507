"""Distribution moments, one-step equations, and the moment closure."""

import math
import sys
from fractions import Fraction
from functools import partial

import pytest

from loopmoments import (
    ClosureOverflowError,
    Moment,
    MomentEquation,
    MomentTable,
    Poly,
    analyze,
    goal_moments,
    initial_moment,
    moment_closure,
    moment_equation,
    parse_program,
    validate_program,
)
from loopmoments.frontend import Distribution

from corpus import (
    CORPUS,
    THREE_VAR,
    WALK,
    FiniteSupportTable,
    enumerate_moments,
    load,
    naive_moment_equation,
)

a, b, mu, var = (Poly.var(s) for s in ("a", "b", "mu", "var"))


def M(text: str) -> Moment:
    return Moment.parse(text)


# -- raw moments ---------------------------------------------------------------


def test_uniform_moments():
    moment = MomentTable().moment
    d = Distribution("uniform", Poly.const(0), b)
    assert moment(d, 0) == Poly.const(1)
    assert moment(d, 1) == b / 2
    assert moment(d, 2) == b**2 / 3
    general = Distribution("uniform", a, b)
    assert moment(general, 1) == (a + b) / 2
    assert moment(general, 2) == (a**2 + a * b + b**2) / 3


def test_uniform_point_mass():
    moment = MomentTable().moment
    d = Distribution("uniform", a, a)
    for k in range(5):
        assert moment(d, k) == a**k


def test_gauss_moments():
    moment = MomentTable().moment
    std = Distribution("gauss", Poly.const(0), Poly.const(1))
    assert moment(std, 2) == Poly.const(1)
    assert moment(std, 3) == Poly.const(0)
    general = Distribution("gauss", mu, var)
    assert moment(general, 2) == mu**2 + var
    # frozen expansion of the recurrence, cross-checked numerically below
    assert moment(general, 4) == mu**4 + 6 * mu**2 * var + 3 * var**2


def test_gauss_fourth_moment_against_quadrature():
    from scipy import integrate

    d = Distribution("gauss", mu, var)
    exact = MomentTable().moment(d, 4).evaluate({"mu": 1, "var": 2})

    def integrand(t):
        return t**4 * math.exp(-((t - 1.0) ** 2) / 4.0) / math.sqrt(4.0 * math.pi)

    numeric, _ = integrate.quad(integrand, -math.inf, math.inf, epsabs=1e-13, epsrel=1e-13)
    assert abs(numeric - float(exact)) <= 1e-9 * abs(float(exact))


def test_moment_table_memoizes():
    table = MomentTable()
    d = Distribution("uniform", Poly.const(0), b)
    first = table.moment(d, 5)
    assert table.moment(d, 5) is first
    # the powers of an initial polynomial value, as of a draw's raw moments
    y0 = Poly.var("y(0)") + b
    fifth = table.initial(y0, 5)
    assert fifth == y0**5 and table.initial(Poly.var("y(0)") + b, 5) is fifth
    assert table.initial(y0, 2) == y0**2 and table.initial(d, 5) is first


def _uniform_closed_form(lo: Poly, hi: Poly, k: int) -> Poly:
    # sum_{i<=k} lo^i * hi^(k-i) / (k+1), every order on its own
    return Poly.linear_combination((lo**i, hi ** (k - i)) for i in range(k + 1)) / (k + 1)


def _gauss_from_scratch(mean: Poly, variance: Poly, k: int) -> Poly:
    # m_k = mean*m_{k-1} + (k-1)*variance*m_{k-2}, run up from m_0 = 1 and m_1 = mean
    m_prev, m_cur = Poly.const(1), mean
    if k == 0:
        return m_prev
    for i in range(2, k + 1):
        m_prev, m_cur = m_cur, mean * m_cur + (i - 1) * variance * m_prev
    return m_cur


def test_raw_moments_match_their_closed_forms():
    cases = [
        (Distribution("uniform", a, b), partial(_uniform_closed_form, a, b)),
        (Distribution("uniform", Poly.const(0), b), partial(_uniform_closed_form, Poly(), b)),
        (Distribution("uniform", a, a), partial(_uniform_closed_form, a, a)),
        (Distribution("gauss", mu, var), partial(_gauss_from_scratch, mu, var)),
    ]
    for dist, closed_form in cases:
        table = MomentTable()
        top = table.moment(dist, 30)  # a first call fills every order below it
        assert top == closed_form(30), dist
        for k in range(31):
            assert table.moment(dist, k) == closed_form(k), (dist, k)


def test_a_first_order_above_the_recursion_limit_recurses_no_deeper():
    k = 2 * (sys.getrecursionlimit() // 2 + 1)  # even, so the gauss moment is not 0
    table = MomentTable()
    unit = Distribution("uniform", Poly.const(0), Poly.const(1))
    assert table.moment(unit, k) == Poly.const(Fraction(1, k + 1))
    standard = Distribution("gauss", Poly.const(0), Poly.const(1))
    assert table.moment(standard, k) == Poly.const(math.prod(range(1, k, 2)))


def test_equal_update_branch_and_initial_value_share_their_powers():
    vp = validate_program(parse_program("x = c\nwhile true:\n  x = c @ 1/2; 2*x @ 1/2\n"))
    table = MomentTable()
    update = vp.update_assignments[0]
    c, x = Poly.var("c"), Poly.var("x")
    assert table.image(update, 3) == (c**3 + 8 * x**3) / 2
    assert table.initial(vp.initial["x"], 3) is table.power(update.branches[0].expr, 3)


def test_negative_raw_moment_order_is_rejected():
    with pytest.raises(ValueError, match=r"^raw moments need k >= 0$"):
        MomentTable().moment(Distribution("uniform", Poly.const(0), b), -1)


# -- one-step equations ---------------------------------------------------------


def walk_equation(target: str) -> MomentEquation:
    vp = load("walk")
    return moment_equation(M(target), vp, MomentTable())


def test_walk_first_moment_of_y():
    eq = walk_equation("y^1")
    assert eq.linear == {M("y^1"): Poly.const(1), M("x^1"): Poly.const(1)}
    assert eq.constant == Poly()


def test_walk_second_moment_of_x():
    eq = walk_equation("x^2")
    assert eq.linear == {M("x^2"): Poly.const(1)}
    assert eq.constant == b**2 / 3


def test_walk_cross_moment():
    eq = walk_equation("x^1*y^1")
    assert eq.linear == {M("x^1*y^1"): Poly.const(1), M("x^2"): Poly.const(1)}
    assert eq.constant == b**2 / 3


def test_walk_second_moment_of_y():
    eq = walk_equation("y^2")
    assert eq.linear == {
        M("y^2"): Poly.const(1),
        M("x^2"): Poly.const(1),
        M("x^1*y^1"): Poly.const(2),
    }
    assert eq.constant == b**2 / 3 + 1


def test_equation_text_on_the_walk():
    report = analyze(WALK, [2])
    assert [str(report.equations[m]) for m in report.order] == [
        "E[g^2]' = 1",
        "E[u^2]' = b^2/3",
        "E[x^2]' = E[x^2] + b^2/3",
        "E[x^1*y^1]' = E[x^1*y^1] + E[x^2] + b^2/3",
        "E[y^2]' = (2)*E[x^1*y^1] + E[x^2] + E[y^2] + b^2/3 + 1",
    ]
    # an equation with no terms at all still shows its constant
    assert str(MomentEquation(M("v^1"), {}, Poly())) == "E[v^1]' = 0"


def test_identity_update_equation():
    vp = validate_program(parse_program("v=0\nwhile true:\nv = v\n"))
    eq = moment_equation(M("v^1"), vp, MomentTable())
    assert eq.linear == {M("v^1"): Poly.const(1)}
    assert eq.constant == Poly()


def test_draw_variable_equation_is_constant():
    vp = load("walk")
    eq = moment_equation(M("u^2"), vp, MomentTable())
    assert eq.linear == {}
    assert eq.constant == b**2 / 3


def test_mixed_target_on_walk():
    vp = load("walk")
    eq = moment_equation(M("u^1*x^1"), vp, MomentTable())
    # the +u/-u mixture cancels the u^2 cross terms, leaving (b/2) E[x]
    assert eq.linear == {M("x^1"): b / 2}
    assert eq.constant == Poly()


def test_mixed_target_keeps_the_joint_expectation():
    # x = x + u correlates x with the latest draw: E[x*u] picks up the
    # draw's second moment, not the square of its mean.
    source = "x = 0\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + u\n"
    vp = validate_program(parse_program(source))
    eq = moment_equation(M("u^1*x^1"), vp, MomentTable())
    assert eq.linear == {M("x^1"): Poly.const(Fraction(1, 2))}
    assert eq.constant == Poly.const(Fraction(1, 3))

    # cross-checked by exact enumeration with a two-point stand-in
    dist = vp.draws["u"]
    support = [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]
    table = FiniteSupportTable({dist: support})
    eq2 = moment_equation(M("u^1*x^1"), vp, table)
    closure = moment_closure({M("u^1*x^1")}, vp, table)
    history = enumerate_moments(
        vp,
        {},
        sorted(closure, key=Moment.sort_key),
        steps=5,
        rv_supports={"u": support},
    )
    for n in range(1, 5):
        predicted = eq2.constant.evaluate({})
        for dep, coeff in eq2.linear.items():
            predicted += coeff.evaluate({}) * history[n][dep]
        assert predicted == history[n + 1][M("u^1*x^1")], n


def test_probability_mass_conservation():
    # identical branch expressions make the probabilities irrelevant
    template = "v = 1\nwhile true:\nv = 2*v + 1 @ {p1}; 2*v + 1 @ {p2}\n"
    one = validate_program(parse_program(template.format(p1="1/3", p2="2/3")))
    two = validate_program(parse_program(template.format(p1="1/2", p2="1/2")))
    for k in range(1, 4):
        eq_one = moment_equation(M(f"v^{k}"), one, MomentTable())
        eq_two = moment_equation(M(f"v^{k}"), two, MomentTable())
        assert eq_one.linear == eq_two.linear
        assert eq_one.constant == eq_two.constant


def test_deterministic_drift_matches_binomial_expansion():
    vp = validate_program(parse_program("v = 0\nwhile true:\nv = v + c\n"))
    c = Poly.var("c")
    for k in range(1, 5):
        eq = moment_equation(M(f"v^{k}"), vp, MomentTable())
        expected_linear = {
            M(f"v^{j}"): math.comb(k, j) * c ** (k - j) for j in range(1, k + 1)
        }
        assert eq.linear == expected_linear
        assert eq.constant == c**k


# -- closure --------------------------------------------------------------------


def test_closure_of_y_squared():
    vp = load("walk")
    closure = moment_closure({M("y^2")}, vp)
    # x*g and y*g monomials vanish because the gauss mean is 0, so E[x^1]
    # never acquires a nonzero coefficient and stays out of the closure.
    assert set(closure) == {M("y^2"), M("x^1*y^1"), M("x^2")}


def test_closure_of_x_is_self_contained():
    vp = load("walk")
    closure = moment_closure({M("x^1")}, vp)
    assert set(closure) == {M("x^1")}


def test_closure_of_self_contained_counter():
    vp = validate_program(parse_program("v=0\nwhile true:\nv = v + 1\n"))
    closure = moment_closure({M("v^1")}, vp)
    assert set(closure) == {M("v^1")}


def test_closure_cap_is_enforced():
    vp = load("walk")
    with pytest.raises(ClosureOverflowError) as info:
        moment_closure({M("y^2")}, vp, cap=2)
    assert info.value.cap == 2
    assert str(info.value) == (
        "the goals need more than 2 moments, the closure cap; "
        "raise it with --max-closure (max_closure in analyze)"
    )


@pytest.mark.parametrize("cap", [1, 2, 0, -3])
def test_closure_cap_counts_the_goals(cap):
    # each goal of the identity loop depends on itself only, so the three
    # goals alone are more than the cap
    vp = validate_program(parse_program("while true:\na = a\nb = b\nc = c\n"))
    goals = {M("a^1"), M("b^1"), M("c^1")}
    with pytest.raises(ClosureOverflowError) as info:
        moment_closure(goals, vp, cap=cap)
    assert info.value.cap == cap
    assert set(moment_closure(goals, vp, cap=3)) == goals


# The closure's equations against the reference that substitutes every
# branch separately and replaces draws only at the end.
EQUIVALENCE_CASES = {
    **{name: (source, goals) for name, (source, goals, _) in CORPUS.items()},
    **{f"three_var_k{k}": (THREE_VAR, [k]) for k in (1, 2, 3)},
    "walk_draw_targets": (WALK, ["u^1*x^1", "g^2*y^1", "u^1*g^1*x^1*y^1"]),
    "three_var_draw_targets": (
        THREE_VAR,
        ["u^1*x^1", "u^2*x^1*y^1", "g^1*y^1*z^1", "u^1*g^2"],
    ),
    # one draw in two updates: it is already in the polynomial when the
    # walk reaches its earliest update
    "shared_draw": (
        "x = 0\ny = 0\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + u\ny = y + u*x\n",
        [1, 2, 3, "u^1*y^1"],
    ),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_closure_matches_the_naive_reference(case):
    source, goals = EQUIVALENCE_CASES[case]
    report = analyze(source, goals)
    for target, eq in report.equations.items():
        assert eq == naive_moment_equation(target, report.validated, MomentTable()), target


def test_analysis_shares_one_moment_per_monomial():
    # The table hands out one Moment per monomial, so an equation link holds
    # a reference, not a copy: memory stays flat in the number of links.
    shared: dict[Moment, Moment] = {}
    links = 0
    for eq in analyze(THREE_VAR, [3]).equations.values():
        for m in eq.linear:
            links += 1
            assert shared.setdefault(m, m) is m, m
    assert links > len(shared)


def test_shared_table_matches_fresh_tables():
    # One table across programs: the same variable with different updates
    # must not share images, nor an equal update whose draw has another
    # distribution; an equal update on another line may.
    sources = [
        "x = 0\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + u\n",
        "x = 0\nwhile true:\nu = RV(uniform, 0, 1)\nx = 2*x - u @ 1/2; x @ 1/2\n",
        "x = 0\nwhile true:\nu = RV(gauss, 1, 2)\nx = x + u\n",
        "x = 0\ny = 1\nwhile true:\nu = RV(uniform, 0, 1)\ny = 1/2*y + 1\nx = x + u\n",
    ]
    reports = [analyze(source, [3, "u^1*x^2"]) for source in sources]
    shared = MomentTable()
    for report in reports:
        targets = goal_moments(report.goals, report.validated)
        assert moment_closure(targets, report.validated, shared) == report.equations
    first, _, _, last = (r.validated.update_assignments[-1] for r in reports)
    assert first.line != last.line
    assert shared.image(first, 3) is shared.image(last, 3)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_closure_degree_bound(name):
    source, goals, _ = CORPUS[name]
    vp = validate_program(parse_program(source))
    update_degrees = [
        sum(exp for _, exp in mono)
        for assignment in vp.update_assignments
        for branch in assignment.branches
        for mono, _ in branch.expr.terms()
    ]
    max_update_degree = max(update_degrees + [1])
    for k in (g for g in goals if isinstance(g, int)):
        targets = {Moment.single(v, k) for v in vp.variables}
        closure = moment_closure(targets, vp)
        bound = k * max_update_degree ** len(vp.update_assignments)
        assert all(m.degree() <= bound for m in closure)
        if max_update_degree == 1:
            assert all(m.degree() <= k for m in closure)


# -- one-step prediction against exact enumeration ------------------------------


def test_one_step_prediction_matches_enumeration_with_two_point_draws():
    # Swap the uniform draw for a two-point stand-in with the same support
    # bounds; the equation built from the stand-in's moments must agree
    # with brute-force enumeration at every step.
    source = "x = 1\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + u @ 2/3; x - u @ 1/3\n"
    vp = validate_program(parse_program(source))
    dist = vp.draws["u"]
    support = [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]
    table = FiniteSupportTable({dist: support})

    targets = [M("x^1"), M("x^2")]
    equations = {t: moment_equation(t, vp, table) for t in targets}
    closure = moment_closure(set(targets), vp, table)
    history = enumerate_moments(
        vp, {}, sorted(closure, key=Moment.sort_key), steps=6, rv_supports={"u": support}
    )
    for n in range(6):
        for t in targets:
            eq = equations[t]
            predicted = eq.constant.evaluate({})
            for dep, coeff in eq.linear.items():
                predicted += coeff.evaluate({}) * history[n][dep]
            assert predicted == history[n + 1][t], (t, n)


def test_initial_moments_multiply_across_variables():
    vp = load("walk")
    table = MomentTable()
    assert initial_moment(vp, M("x^2"), table) == Poly.const(0)
    assert initial_moment(vp, M("y^2"), table) == Poly.var("y(0)") ** 2
    assert initial_moment(vp, M("u^2"), table) == b**2 / 3
    assert initial_moment(vp, M("u^1*y^1"), table) == b / 2 * Poly.var("y(0)")


def test_unknown_variable_is_a_value_error():
    vp = load("walk")
    message = "^'q' is not an assigned variable of the program$"
    with pytest.raises(ValueError, match=message):
        moment_equation(M("q^1"), vp, MomentTable())
    with pytest.raises(ValueError, match=message):
        initial_moment(vp, M("x^1*q^2"), MomentTable())
