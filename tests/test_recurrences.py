"""Dependency ordering and closed-form solving."""

import random
from fractions import Fraction

import pytest

from loopmoments import (
    ClosureOverflowError,
    ExpPoly,
    Moment,
    MomentEquation,
    Poly,
    Recurrence,
    SolverError,
    UnresolvedBaseError,
    analyze,
    build_recurrence,
    goal_moments,
    moment_closure,
    parse_goals,
    parse_program,
    solve_all,
    solve_first_order,
    topo_order,
    validate_program,
)
from loopmoments import recurrences
from loopmoments.symbolic import ONE, ZERO

from corpus import (
    CORPUS,
    THREE_VAR,
    TRANSIENT,
    TRANSIENT_Z,
    WALK,
    assert_normal_poly,
    counting_fractions,
    iterate_equations,
    mixing_program,
)

b = Poly.var("b")


def M(text: str) -> Moment:
    return Moment.parse(text)


def const_eq(target, value: Poly) -> MomentEquation:
    return MomentEquation(M(target), {}, value)


def corpus_report(name: str):
    source, goals, _ = CORPUS[name]
    return analyze(source, goals, name=name)


# -- ordering --------------------------------------------------------------------


def test_walk_order_respects_dependencies():
    walk = corpus_report("walk")
    order = topo_order(walk.equations, walk.validated)
    assert tuple(order) == walk.order
    pos = {m: i for i, m in enumerate(order)}
    assert pos[M("x^1")] < pos[M("x^1*y^1")]
    assert pos[M("x^2")] < pos[M("x^1*y^1")]
    assert pos[M("x^2")] < pos[M("y^2")]
    assert pos[M("x^1*y^1")] < pos[M("y^2")]
    # constant draw moments come first
    assert [str(m) for m in order] == [
        "g^1", "g^2", "u^1", "u^2", "x^1", "x^2", "y^1", "x^1*y^1", "y^2"
    ]


ORDER_CASES = [
    *((f"{name} k={k}", entry[0], [k]) for name, entry in CORPUS.items() for k in range(1, 5)),
    *((f"three-var k={k}", THREE_VAR, [k]) for k in range(1, 5)),
    ("walk mixed", WALK, ["u^1*x^1", "g^1*y^1", "u^2*x^1*y^1"]),
]


def test_order_puts_every_dependency_first():
    for label, source, goals in ORDER_CASES:
        vp = validate_program(parse_program(source))
        equations = moment_closure(goal_moments(parse_goals(goals, vp.variables), vp), vp)
        order = topo_order(equations, vp)
        assert sorted(order) == sorted(equations), label
        position = {m: i for i, m in enumerate(order)}
        for moment, equation in equations.items():
            assert all(position[d] < position[moment] for d in equation.dependencies()), (
                label,
                moment,
            )
        # the order is the moments' own, not the map's insertion order
        assert topo_order(dict(reversed(list(equations.items()))), vp) == order, label


def deps_eq(target: str, *deps: str) -> MomentEquation:
    return MomentEquation(M(target), {M(d): Poly.const(1) for d in deps}, Poly())


def test_solving_requires_a_closed_set():
    equations = {M("a^1"): deps_eq("a^1", "b^1")}
    with pytest.raises(SolverError) as err:
        solve_all([M("a^1")], equations, {M("a^1"): Poly()})
    assert str(err.value) == "missing closed form for E[b^1] while building E[a^1]"


# -- recurrence assembly -----------------------------------------------------------


def test_build_recurrence_for_x_squared():
    walk = corpus_report("walk")
    rec = build_recurrence(walk.equations[M("x^2")], {}, walk.initial_moments)
    assert rec.self_coeff == Poly.const(1)
    assert rec.inhom == ExpPoly.const(b**2 / 3)
    assert rec.init == Poly.const(0)


def test_build_recurrence_folds_solved_dependencies():
    walk = corpus_report("walk")
    solved = {M("x^2"): ExpPoly({(ONE, 1): b**2 / 3})}  # (b^2/3) n
    rec = build_recurrence(walk.equations[M("x^1*y^1")], solved, walk.initial_moments)
    assert rec.self_coeff == Poly.const(1)
    assert rec.inhom == ExpPoly({(ONE, 1): b**2 / 3, (ONE, 0): b**2 / 3})
    assert rec.init == Poly.const(0)  # x(0) = 0 times the symbolic y(0)


def test_build_recurrence_reports_missing_dependency():
    walk = corpus_report("walk")
    with pytest.raises(SolverError):
        build_recurrence(walk.equations[M("x^1*y^1")], {}, walk.initial_moments)


def test_build_recurrence_reports_missing_initial_moment():
    walk = corpus_report("walk")
    with pytest.raises(SolverError, match=r"^missing initial moment for E\[x\^2\]$"):
        build_recurrence(walk.equations[M("x^2")], {}, {})


def rec(target: str, c, inhom: ExpPoly, init) -> Recurrence:
    coeff = c if isinstance(c, Poly) else Poly.const(c)
    start = init if isinstance(init, Poly) else Poly.const(init)
    return Recurrence(M(target), coeff, inhom, start)


# -- closed forms -------------------------------------------------------------------


def test_constant_drift():
    f = solve_first_order(rec("x^2", 1, ExpPoly.const(b**2 / 3), 0))
    assert f == ExpPoly({(ONE, 1): b**2 / 3})


def test_linear_drift_resonance():
    inhom = ExpPoly({(ONE, 1): b**2 / 3, (ONE, 0): b**2 / 3})
    f = solve_first_order(rec("x^1*y^1", 1, inhom, 0))
    # b^2 n (n+1) / 6
    assert f == ExpPoly({(ONE, 2): b**2 / 6, (ONE, 1): b**2 / 6})


def test_quadratic_drift_resonance():
    # inhom = 2*(b^2 n(n+1)/6) + b^2 n/3 + b^2/3 + 1, init = y(0)^2
    inhom = ExpPoly(
        {(ONE, 2): b**2 / 3, (ONE, 1): b**2 / 3 + b**2 / 3, (ONE, 0): b**2 / 3 + 1}
    )
    y0 = Poly.var("y(0)")
    f = solve_first_order(rec("y^2", 1, inhom, y0**2))
    expected = ExpPoly(
        {(ONE, 3): b**2 / 9, (ONE, 2): b**2 / 6, (ONE, 1): b**2 / 18 + 1, (ONE, 0): y0**2}
    )
    assert f == expected


def test_geometric_decay():
    f = solve_first_order(rec("v^1", Fraction(1, 2), ExpPoly(), 1))
    assert f == ExpPoly({(Poly.const(Fraction(1, 2)), 0): ONE})


def test_counter():
    f = solve_first_order(rec("v^1", 1, ExpPoly.const(1), 0))
    assert f == ExpPoly({(ONE, 1): ONE})


def test_resonant_doubling():
    two = Poly.const(2)
    f = solve_first_order(rec("w^1", 2, ExpPoly({(two, 0): ONE}), 0))
    # n * 2^(n-1) == (1/2) n 2^n
    assert f == ExpPoly({(two, 1): Poly.const(Fraction(1, 2))})
    # oracle: iterate the recurrence directly
    value = Fraction(0)
    for n in range(15):
        assert f.evaluate(n) == value
        value = 2 * value + Fraction(2) ** n
    assert f.evaluate(15) == value


def test_zero_self_coefficient_gets_a_one_point_correction():
    v0 = Poly.var("v(0)")
    f = solve_first_order(rec("v^1", 0, ExpPoly.const(Fraction(1, 2)), v0))
    assert f.value_at(0) == v0
    assert [t for t in f.terms() if not t[0].is_zero()] == [(ONE, 0, Poly.const(Fraction(1, 2)))]
    assert f.evaluate(0, {"v(0)": 9}) == 9
    assert f.evaluate(4, {"v(0)": 9}) == Fraction(1, 2)


def test_zero_base_resonance_moves_the_indicator_to_n_1():
    # f(n+1) = [n = 0] + 1 with f(0) = 0 is 0, 2, 1, 1, ...: 1 - [n = 0] + [n = 1]
    inhom = ExpPoly({(ZERO, 0): ONE, (ONE, 0): ONE})
    f = solve_first_order(rec("v^1", 0, inhom, 0))
    assert f == ExpPoly({(ONE, 0): ONE, (ZERO, 0): -ONE, (ZERO, 1): ONE})
    assert [f.evaluate(n) for n in range(5)] == [0, 2, 1, 1, 1]


@pytest.mark.parametrize("c", ["0", "2", "p"])
@pytest.mark.parametrize("k", range(4))
def test_an_indicator_inhomogeneity_matches_direct_iteration(c, k):
    # f(n+1) = c*f(n) + a*[n = k]: at c == 0 the indicator moves to n = k + 1,
    # otherwise every point up to k takes one division by -c
    p, v0 = Poly.var("p"), Poly.var("v(0)")
    coeff = {"0": ZERO, "2": Poly.const(2), "p": p}[c]
    a = Fraction(3, 2) * p ** (k + 1)
    f = solve_first_order(rec("v^1", coeff, ExpPoly({(ZERO, k): a}), v0))
    points = {degree for base, degree, _ in f.terms() if base.is_zero()}
    assert points == ({0, k + 1} if c == "0" else set(range(k + 1)))
    for bindings in (
        {"p": Fraction(3), "v(0)": Fraction(-2, 3)},
        {"p": Fraction(-1, 2), "v(0)": Fraction(5)},
    ):
        value, cv = bindings["v(0)"], coeff.evaluate(bindings)
        for n in range(10):
            assert f.evaluate(n, bindings) == value, (n, bindings)
            value = cv * value + (a.evaluate(bindings) if n == k else 0)
    if c == "p":  # the divisions by -p leave the ring
        with pytest.raises(UnresolvedBaseError):
            solve_first_order(rec("v^1", p, ExpPoly({(ZERO, k): p**k}), v0))


def test_parameterized_drift_is_an_honest_error():
    p = Poly.var("p")
    with pytest.raises(UnresolvedBaseError):
        solve_first_order(rec("v^1", p + 1, ExpPoly.const(1), 0))


def test_parameterized_base_with_exact_division_records_side_condition():
    # f(n+1) = f(n) + (p-1) p^n with f(0) = 0 solves to p^n - 1, valid for
    # p != 1, and that assumption must end up in the side conditions.
    p = Poly.var("p")
    f = solve_first_order(rec("w^1", 1, ExpPoly({(p, 0): p - 1}), 0))
    assert f == ExpPoly({(p, 0): ONE, (ONE, 0): -ONE})
    for n in range(8):
        assert f.evaluate(n, {"p": Fraction(3)}) == Fraction(3) ** n - 1

    # w sums the post-update v, so E[w](n) = p^(n+1) - p
    chain = corpus_report("geometric_chain")
    solved, notes = solve_all(chain.order, chain.equations, chain.initial_moments)
    assert notes == ["p != 1"]
    assert solved[M("w^1")] == ExpPoly({(p, 0): p, (ONE, 0): -p})
    for n in range(6):
        assert solved[M("w^1")].evaluate(n, {"p": 3}) == Fraction(3) ** (n + 1) - 3


def test_solve_all_merges_side_conditions_in_solve_order():
    def per_moment(report) -> list[str]:
        notes = []
        for moment in report.order:
            equation = report.equations[moment]
            rec = build_recurrence(equation, report.invariants, report.initial_moments)
            notes += rec.side_conditions()
        return notes

    # w and u both sum p^n: each recurrence assumes p != 1, and the merged
    # list names it once
    source = "v = p - 1\nw = 0\nu = 0\nwhile true:\nv = p*v\nw = w + v\nu = u + v\n"
    twice = analyze(source, ["w", "u"])
    assert per_moment(twice) == ["p != 1", "p != 1"]
    assert twice.side_conditions == ("p != 1",)
    # a longer list keeps each note at its first occurrence, in solve order
    three = corpus_report("three_bases")
    notes = per_moment(three)
    assert notes[:2] == ["q != r", "p != r"]
    assert three.side_conditions == tuple(dict.fromkeys(notes))


def test_side_condition_order_ignores_term_insertion_order():
    # the same inhomogeneity built in two insertion orders: the side
    # conditions follow the closed form's print order either way
    p, q, r = Poly.var("p"), Poly.var("q"), Poly.var("r")
    pq = ExpPoly({(p, 0): p - r, (q, 0): q - r})
    qp = ExpPoly({(q, 0): q - r, (p, 0): p - r})
    assert pq == qp
    rec_pq, rec_qp = rec("z^1", r, pq, 0), rec("z^1", r, qp, 0)
    assert solve_first_order(rec_pq) == solve_first_order(rec_qp)
    assert rec_pq.side_conditions() == rec_qp.side_conditions() == ["q != r", "p != r"]


def test_side_conditions_name_each_base_not_a_constant_away_from_c():
    p, q = Poly.var("p"), Poly.var("q")
    inhom = ExpPoly({(p + 1, 0): ONE, (q, 1): ONE, (ONE, 0): ONE, (Poly.const(2), 0): ONE})
    # c = p: p + 1 is a constant away, while q and the constants are not
    assert rec("v^1", p, inhom, 0).side_conditions() == ["q != p", "2 != p", "1 != p"]
    # a constant c: exactly the parameterized bases
    assert rec("v^1", 1, inhom, 0).side_conditions() == ["q != 1", "p + 1 != 1"]
    assert rec("v^1", 1, ExpPoly.const(1), 0).side_conditions() == []


def test_negative_base_stays_symbolic():
    f = solve_first_order(rec("v^1", Fraction(-1, 2), ExpPoly(), 1))
    assert f == ExpPoly({(Poly.const(Fraction(-1, 2)), 0): ONE})
    assert f.evaluate(3) == Fraction(-1, 8)


def test_resonance_raises_degree_by_exactly_one():
    rng = random.Random(5150)
    for c_val in (1, 2, Fraction(1, 2), Fraction(-1, 2)):
        for degree in range(0, 3):
            inhom = ExpPoly({(Poly.const(c_val), degree): Poly.const(rng.randint(1, 5))})
            f = solve_first_order(rec("v^1", c_val, inhom, 0))
            got = max(d for _, d, _ in f.terms())
            assert got == degree + 1


def test_random_recurrences_match_exact_iteration():
    rng = random.Random(424242)
    base_pool = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(0)]
    for _ in range(120):
        c_val = rng.choice(base_pool)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            base = rng.choice(base_pool)
            coeff = Poly.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            pairs.append((coeff, ExpPoly({(Poly.const(base), rng.randint(0, 2)): ONE})))
        inhom = ExpPoly.linear_combination(pairs)
        init = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        f = solve_first_order(rec("v^1", c_val, inhom, init))
        value = init
        for n in range(0, 25):
            assert f.evaluate(n) == value
            value = c_val * value + inhom.evaluate(n)


def _assert_matches_iteration(report, bindings, steps: int) -> None:
    history = iterate_equations(report.equations, report.initial_moments, bindings, steps)
    for moment, form in report.invariants.items():
        got = [form.evaluate(n, bindings) for n in range(steps + 1)]
        assert got == [values[moment] for values in history], str(moment)


@pytest.mark.parametrize(
    "name, goal",
    [("transient", g) for g in ("y^2", 2, 3)] + [("transient_z", g) for g in ("y^2", "z^2", 2, 3)],
)
def test_transient_programs_match_exact_iteration(name, goal):
    # E[x] carries [n = 0], so the moments it feeds carry [n = 1]
    report = analyze({"transient": TRANSIENT, "transient_z": TRANSIENT_Z}[name], [goal])
    assert any(
        base.is_zero() and degree == 1
        for form in report.invariants.values()
        for base, degree, _ in form.terms()
    )
    for bindings in (
        {"x(0)": Fraction(1, 2), "y(0)": Fraction(-3), "z(0)": Fraction(2)},
        {"x(0)": Fraction(-2), "y(0)": Fraction(1, 3), "z(0)": Fraction(0)},
    ):
        _assert_matches_iteration(report, bindings, 8)


def test_mixing_programs_solve_exactly():
    # the family whose branch mixing cancels self-coefficients: each program
    # solves and matches exact iteration, or fails with an honest solver error
    outcomes = {"solved": 0, "transient after n = 0": 0}
    for seed in range(300):
        rng = random.Random(seed)
        source = mixing_program(rng)
        try:
            report = analyze(source, [rng.choice([1, 2])])
        except (UnresolvedBaseError, ClosureOverflowError) as exc:
            outcomes[type(exc).__name__] = outcomes.get(type(exc).__name__, 0) + 1
            continue
        symbols = sorted(set().union(*(v.symbols() for v in report.initial_moments.values())))
        _assert_matches_iteration(report, {s: Fraction(rng.randint(-3, 3), 2) for s in symbols}, 6)
        late = any(
            base.is_zero() and degree
            for form in report.invariants.values()
            for base, degree, _ in form.terms()
        )
        outcomes["transient after n = 0" if late else "solved"] += 1
    assert outcomes["transient after n = 0"] > 0, outcomes


def test_self_check_rejects_a_wrong_closed_form(monkeypatch):
    exact = Poly.quotient
    monkeypatch.setattr(
        Poly, "quotient", staticmethod(lambda *args: exact(*args) + 1)
    )
    with pytest.raises(SolverError, match="failed its defining identity"):
        solve_first_order(rec("x^1", Fraction(1, 2), ExpPoly.const(1), 0))


def test_self_check_rejects_a_wrong_homogeneous_term():
    # f(n+1) = 1/2*f(n) + 1 with f(0) = 0.  Every multiple of (1/2)^n solves
    # the homogeneous part, so only the initial value can catch a wrong alpha.
    half = Poly.const(Fraction(1, 2))
    r = rec("x^1", Fraction(1, 2), ExpPoly.const(1), 0)
    assert solve_first_order(r) == ExpPoly({(ONE, 0): Poly.const(2), (half, 0): Poly.const(-2)})
    wrong = ExpPoly({(ONE, 0): Poly.const(2), (half, 0): Poly.const(-1)})
    with pytest.raises(SolverError) as err:
        recurrences._check_closed_form(r, wrong)
    assert str(err.value) == (
        "internal: closed form for E[x^1] gives f(0) = 1, not the initial moment 0"
    )


def test_self_check_rejects_a_residual_at_a_key_the_closed_form_lacks():
    # f(n+1) = 1/2*f(n) + 1 + 2^n with f(0) = 0, solved without its 2^n term
    # and with alpha moved so that f(0) still holds: the residual is -2^n,
    # at a key that no term of f expands to.
    half, two = Poly.const(Fraction(1, 2)), Poly.const(2)
    r = rec("x^1", Fraction(1, 2), ExpPoly({(ONE, 0): ONE, (two, 0): ONE}), 0)
    assert solve_first_order(r) == ExpPoly({
        (ONE, 0): Poly.const(2),
        (two, 0): Poly.const(Fraction(2, 3)),
        (half, 0): Poly.const(Fraction(-8, 3)),
    })
    missing = ExpPoly({(ONE, 0): Poly.const(2), (half, 0): Poly.const(-2)})
    assert missing.value_at(0) == r.init
    with pytest.raises(SolverError, match=r"failed its defining identity \(residual -2\^n\)"):
        recurrences._check_closed_form(r, missing)


def test_self_check_rejects_a_wrong_coefficient_at_the_resonant_key():
    # f(n+1) = 2*f(n) + 2^n with f(0) = 0 is n*2^n/2.  At the resonant key
    # (2, 1) the product (base - c)*coeff is zero, so only the binomial
    # expansion's lower-degree term can see a wrong coefficient there.
    two = Poly.const(2)
    r = rec("w^1", 2, ExpPoly({(two, 0): ONE}), 0)
    assert solve_first_order(r) == ExpPoly({(two, 1): Poly.const(Fraction(1, 2))})
    wrong = ExpPoly({(two, 1): Poly.const(Fraction(1, 3))})
    assert wrong.value_at(0) == r.init
    with pytest.raises(SolverError, match=r"failed its defining identity \(residual -2\^n/3\)"):
        recurrences._check_closed_form(r, wrong)


def test_self_check_rejects_a_wrong_lower_degree_coefficient():
    # f(n+1) = 1/2*f(n) + n*2^n with f(0) = 0; the 2^n coefficient is off by
    # one and alpha is moved so that f(0) still holds
    half, two = Poly.const(Fraction(1, 2)), Poly.const(2)
    r = rec("x^1", Fraction(1, 2), ExpPoly({(two, 1): ONE}), 0)
    right = {(two, 1): Fraction(2, 3), (two, 0): Fraction(-8, 9), (half, 0): Fraction(8, 9)}
    assert solve_first_order(r) == ExpPoly({k: Poly.const(v) for k, v in right.items()})
    right[(two, 0)] += 1
    right[(half, 0)] -= 1
    wrong = ExpPoly({k: Poly.const(v) for k, v in right.items()})
    assert wrong.value_at(0) == r.init
    with pytest.raises(SolverError, match=r"failed its defining identity \(residual 3\*2\^n/2\)"):
        recurrences._check_closed_form(r, wrong)


def test_self_check_rejects_a_wrong_one_point_correction():
    # f(n+1) = 1/2*f(n) + [n = 0] with f(0) = 0 is 2*(1/2)^n - 2*[n = 0].
    # With the base-0 correction at -1 the product (0 - c)*coeff leaves a
    # residual; with alpha moved as well f(0) fails instead.
    half = Poly.const(Fraction(1, 2))
    r = rec("v^1", Fraction(1, 2), ExpPoly({(ZERO, 0): ONE}), 0)
    assert solve_first_order(r) == ExpPoly({(half, 0): Poly.const(2), (ZERO, 0): Poly.const(-2)})
    wrong = ExpPoly({(half, 0): ONE, (ZERO, 0): -ONE})
    assert wrong.value_at(0) == r.init
    residual = r"failed its defining identity \(residual -\[n = 0\]/2\)"
    with pytest.raises(SolverError, match=residual):
        recurrences._check_closed_form(r, wrong)
    # f(n+1) = 0*f(n) + 1/2 with f(0) = v(0): the correction is all that
    # carries the initial value, and only f(0) can see it
    v0 = Poly.var("v(0)")
    r = rec("v^1", 0, ExpPoly.const(Fraction(1, 2)), v0)
    assert solve_first_order(r) == ExpPoly({(ONE, 0): half, (ZERO, 0): v0 - half})
    with pytest.raises(SolverError) as err:
        recurrences._check_closed_form(r, ExpPoly({(ONE, 0): half, (ZERO, 0): v0 - 1}))
    assert str(err.value) == (
        "internal: closed form for E[v^1] gives f(0) = v(0) - 1/2, not the initial moment v(0)"
    )


def _row(*pairs) -> list:
    """A coefficient row of the solver: the products ``1 * a * b`` of the
    pairs, whose sum need not be in lowest terms."""
    return [(1, a, b) for a, b in pairs]


def test_divide_by_a_constant_matches_fraction_division():
    p, q = Poly.var("p"), Poly.var("q")
    quarter = Poly.const(Fraction(1, 4))
    rows = [
        (),
        ((ONE, Poly.const(5)),),
        ((ONE, p * q / 4 - Fraction(3, 7) * p + 2),),
        ((ONE, (p - 3) ** 3 / 9),),
        # p/4 + p/4 leaves the sum at denominator 4 with an even numerator
        ((quarter, p), (quarter, p), (Poly.const(Fraction(-1, 6)), q)),
        # a sum that cancels to zero
        ((ONE, p / 3), (Poly.const(-1), p / 3)),
    ]
    values = (Fraction(-3), Fraction(-7, 4), Fraction(-1), Fraction(2, 9), Fraction(5), Fraction(1))
    for pairs in rows:
        numerator = Poly.linear_combination(pairs)
        for value in values:
            row, divisor = _row(*pairs), Poly.const(value)
            with counting_fractions() as count:
                got = Poly.quotient(row, divisor)
            assert count == [0], value
            assert dict(got.terms()) == {mono: c / value for mono, c in numerator.terms()}
            assert got == numerator / value
            assert_normal_poly(got)


def test_divide_by_a_resonant_divisor():
    # at resonance the coefficient of n^(m+1) is divided by base*(m+1)
    p = Poly.var("p")
    pairs = ((Poly.const(Fraction(1, 6)), p**2 - 1), (Poly.const(Fraction(1, 10)), p))
    numerator = Poly.linear_combination(pairs)
    for base in (Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(-2), Fraction(5, 4)):
        for m in range(4):
            with counting_fractions() as count:
                got = Poly.quotient(_row(*pairs), Poly.const(base), m + 1)
            assert count == [0], (base, m)
            value = base * (m + 1)
            assert dict(got.terms()) == {mono: c / value for mono, c in numerator.terms()}
            assert got == Poly.quotient(_row(*pairs), Poly.const(value))
            assert_normal_poly(got)


def test_divide_by_a_parameterized_divisor():
    p = Poly.var("p")
    assert Poly.quotient(_row((ONE, p * p - 1)), p - 1) == p + 1
    third = Poly.const(Fraction(1, 3))
    assert Poly.quotient(_row((third, p), (third, -ONE)), 2 * p - 2) == Poly.const(
        Fraction(1, 6)
    )
    # integer weights scale their products; times scales the divisor
    assert Poly.quotient([(3, p, p), (-3, ONE, ONE)], p - 1) == 3 * p + 3
    assert Poly.quotient([(3, p, p), (-3, ONE, ONE)], p - 1, 3) == p + 1
    assert Poly.quotient(_row((ONE, p)), p, 2) == Poly.const(Fraction(1, 2))
    assert Poly.quotient(_row((ONE, p), (ONE, Poly.const(2))), p - 1) is None
    # f(n+1) = f(n) + (p + 2)*p^n: the row of p^n divides p + 2 by p - 1
    with pytest.raises(UnresolvedBaseError) as err:
        solve_first_order(rec("v^1", 1, ExpPoly({(p, 0): p + 2}), 0))
    assert str(err.value) == (
        "E[v^1]: cannot divide p + 2 exactly by the parameterized quantity p - 1; "
        "closed-form coefficients would leave the polynomial ring"
    )
    assert (err.value.moment, err.value.numerator, err.value.divisor) == (M("v^1"), p + 2, p - 1)
    # f(n+1) = p*f(n) + n*p^n is resonant: its top row divides 1 by 2*p
    with pytest.raises(UnresolvedBaseError) as err:
        solve_first_order(rec("v^1", p, ExpPoly({(p, 1): ONE}), 0))
    assert (err.value.numerator, err.value.divisor) == (ONE, 2 * p)
    assert "cannot divide 1 exactly by the parameterized quantity 2*p;" in str(err.value)
    with pytest.raises(ZeroDivisionError):
        Poly.quotient(_row((ONE, p)), Poly())


def test_solver_failures_name_the_moment():
    p = Poly.var("p")
    equations = {
        M("v^1"): MomentEquation(M("v^1"), {M("v^1"): p + 1}, Poly.const(1)),
    }
    inits = {M("v^1"): Poly.const(0)}
    with pytest.raises(SolverError) as err:
        solve_all([M("v^1")], equations, inits)
    assert "E[v^1]" in str(err.value)


def test_solve_all_walks_the_whole_corpus_entry():
    walk = corpus_report("walk")
    solved, notes = solve_all(walk.order, walk.equations, walk.initial_moments)
    assert notes == []
    assert solved[M("x^2")] == ExpPoly({(ONE, 1): b**2 / 3})
    assert solved[M("y^1")] == ExpPoly.const(Poly.var("y(0)"))
    assert solved[M("u^2")] == ExpPoly.const(b**2 / 3)


def test_solutions_are_deterministic():
    results = []
    for _ in range(2):
        walk = corpus_report("walk")
        solved, _ = solve_all(walk.order, walk.equations, walk.initial_moments)
        results.append({str(m): str(f) for m, f in solved.items()})
    assert results[0] == results[1]
