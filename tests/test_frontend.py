"""Parsing and structural validation of the input language."""

import random
from fractions import Fraction

import pytest

from loopmoments import (
    ParseError,
    Poly,
    UnsupportedProgramError,
    parse_program,
    validate_program,
)
from loopmoments.frontend import DISTRIBUTIONS, Distribution, parse_expression
from loopmoments.symbolic import ONE

from corpus import CORPUS, WALK, assert_normal_poly


def test_walk_program_structure():
    p = parse_program(WALK)
    assert [(a.var, a.value) for a in p.init_assignments] == [("x", Poly.const(0))]
    assert [r.var for r in p.rv_assignments] == ["u", "g"]
    u_dist = p.rv_assignments[0].dist
    assert u_dist == Distribution("uniform", Poly.const(0), Poly.var("b"))
    g_dist = p.rv_assignments[1].dist
    assert g_dist == Distribution("gauss", Poly.const(0), Poly.const(1))
    assert [a.var for a in p.update_assignments] == ["x", "y"]

    x_update = p.update_assignments[0]
    assert len(x_update.branches) == 2
    assert x_update.branches[0].expr == Poly.var("x") - Poly.var("u")
    assert x_update.branches[0].prob == Poly.const(Fraction(1, 2))
    assert x_update.branches[1].expr == Poly.var("x") + Poly.var("u")

    y_update = p.update_assignments[1]
    assert len(y_update.branches) == 1
    assert y_update.branches[0].prob == Poly.const(1)
    assert p.parameters == frozenset({"b"})


def test_single_rv_identity_update():
    p = parse_program("x=0\nwhile true:\nu = RV(uniform, 0, 1)\nx = x")
    assert len(p.rv_assignments) == 1
    assert p.update_assignments[0].branches[0].expr == Poly.var("x")


def test_probability_sum_violation_is_rejected():
    p = parse_program("x=0\nwhile true:\nx = x+1 @ 1/3; x @ 1/3")
    with pytest.raises(UnsupportedProgramError) as err:
        validate_program(p)
    assert err.value.restriction == "probability-sum"
    assert "2/3" in str(err.value)


def test_decimal_literals_become_exact_rationals():
    p = parse_program("v = 0.5\nwhile true:\nv = 0.1*v + 0.25 @ 0.5; v @ 0.5")
    assert p.init_assignments[0].value == Poly.const(Fraction(1, 2))
    branch = p.update_assignments[0].branches[0]
    assert branch.expr == Fraction(1, 10) * Poly.var("v") + Fraction(1, 4)
    assert branch.prob == Poly.const(Fraction(1, 2))


def test_fraction_literals_parse_exactly():
    p = parse_program("v = 22/7\nwhile true:\nv = v")
    assert p.init_assignments[0].value == Poly.const(Fraction(22, 7))


def test_comments_and_blank_lines_are_ignored():
    src = "# a counter\n\nv = 0\n  # indented comment\nwhile true:\n\nv = v + 1\n"
    p = parse_program(src)
    assert [a.var for a in p.update_assignments] == ["v"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_program_equality_ignores_line_numbers(name):
    source, _, _ = CORPUS[name]
    assert parse_program("# shifted\n\n" + source) == parse_program(source)


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("x=0\nx = x + 1\n", "missing loop header"),
        ("x=0\nwhile True:\nx = x\n", "literal loop header"),
        ("x=0\nwhile true:\n", "at least one update"),
        ("x=0\nwhile true:\nx = x + @ 1\n", "unexpected"),
        ("x=0\nwhile true:\nx = x+1 @ 1/2; x\n", "probability missing"),
        ("x=0\nwhile true:\nx = x ^ 2\n", "unexpected character"),
        ("x=0\nwhile true:\nn = n + 1\n", "reserved"),
        ("x=0\nwhile true:\nx = RV(poisson, 1, 2)\n", "unknown distribution"),
        ("x=0\nwhile true:\nx = x\nu = RV(uniform, 0, 1)\n", "must precede"),
        ("x=0\nwhile true:\nwhile true:\nx = x\n", "duplicate loop header"),
        ("x=0\nwhile true:\n3 = x\n", "bad variable name"),
        ("x=0\nwhile true:\nx = \n", "empty expression"),
        ("x=0\nwhile true:\nu = RV(uniform, 0, 1\nx = x + u\n", "must end with ')'"),
        ("x=0\nwhile true:\nu = RV(uniform, 1)\nx = x + u\n", "two arguments"),
        ("x=0\nwhile true:\nx + 1\n", "expected an assignment"),
        ("x=0\nwhile true:\nx = x @ 1/2 @ 1/2; x @ 1/2\n", "multiple '@'"),
        ("x=0\nwhile true:\nx = x + n\n", "'n' is a reserved name"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert fragment in str(err.value)


def test_parse_error_carries_line_and_column():
    # The column is 1-based and counts in the source line as written,
    # indentation included, whichever branch or argument the error is in;
    # an expression cut short names the column just past its end.
    cases = [
        ("x = x + $", 9),
        ("x = x + é", 9),
        ("x = x + ²", 9),
        ("x = x ^ 2", 7),
        ("  x = x + 1 @ 1/2; x $ 2 @ 1/2", 22),
        ("u = RV(uniform, 0, #)\nx = x + u", 20),
        ("x = x + y z", 11),
        ("  x = x + @ 1/2; x @ 1/2", 11),
        ("  x = ", 7),
        ("  x = x +", 10),
        ("u = RV(uniform, 0, )\nx = x + u", 20),
        # a numeral longer than the interpreter reads as an int
        ("x = x + " + "1" * 5000, 9),
    ]
    for body, col in cases:
        with pytest.raises(ParseError) as err:
            parse_program(f"x=0\nwhile true:\n{body}\n")
        assert (err.value.line, err.value.col) == (3, col), body


def _schedule_per_call(vp):
    """The draw schedule as ``moment_equation`` used to derive it on every
    call: per update in text order, the draws it is the first to mention,
    then the draws that no update mentions."""
    eliminate_after, unmentioned = [], set(vp.draws)
    for assignment in vp.update_assignments:
        mentioned = {name for b in assignment.branches for name in b.expr.symbols()}
        eliminate_after.append(tuple(sorted(unmentioned & mentioned)))
        unmentioned -= mentioned
    return (*eliminate_after, tuple(sorted(unmentioned)))


def test_mutated_programs_raise_only_input_errors():
    # Seeded insertions and deletions over the corpus, with characters just
    # outside the lexical rules (a non-ASCII letter, a superscript digit, a
    # non-ASCII decimal digit): each input is read or rejected with one of
    # the two input errors, never a crash.  A program that passes, the
    # corpus itself included, carries the draw schedule of the per-call rule.
    rng = random.Random(0)
    inserts = [*"xyn019/.*+-@;=,() \t#$^", "é", "²", "٣", "RV", "1/2"]
    sources = [source for source, _, _ in CORPUS.values()]
    for source in sources:
        vp = validate_program(parse_program(source))
        assert vp.draw_schedule == _schedule_per_call(vp), source
    for _ in range(2000):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:i] + text[i + rng.randint(1, 3) :]
            else:
                text = text[:i] + rng.choice(inserts) + text[i:]
        try:
            vp = validate_program(parse_program(text))
        except (ParseError, UnsupportedProgramError):
            continue
        except Exception as exc:
            pytest.fail(f"{text!r} raised {exc!r}")
        assert vp.draw_schedule == _schedule_per_call(vp), text


def _reference_literal(text):
    # a numeral read the way the reader once did: through Fraction's parser
    num, _, den = text.partition("/")
    return Fraction(num) / int(den or 1)


def test_reader_matches_poly_arithmetic():
    # Seeded expressions, each read once by the reader and once by Poly
    # arithmetic over the same tokens: the two agree term for term and in
    # the denominator.  Numerals include decimals, fractions, leading
    # zeros and non-ASCII decimal digits; names repeat within a product,
    # and a product is sometimes followed by its own negation, so terms
    # cancel.
    rng = random.Random(24)
    numerals = ["0", "1", "2", "007", "10", "0.5", "1.", "2.25", "1/3", "22/7", "0.75/12",
                "٣", "1٣", "٣.5/1٣"]
    names = ["x", "y", "b", "y0"]
    for _ in range(2500):
        products = []
        for _ in range(rng.randint(1, 5)):
            factors = [
                rng.choice(numerals) if rng.random() < 0.4 else rng.choice(names)
                for _ in range(rng.randint(1, 4))
            ]
            products.append((rng.choice(["", "-", "--"]), factors))
            if rng.random() < 0.2:
                products.append(("-" + products[-1][0], products[-1][1]))
        text, want = "", Poly()
        for i, (signs, factors) in enumerate(products):
            value = Poly.const(-1 if signs.count("-") % 2 else 1)
            for factor in factors:
                if factor in names:
                    value = value * Poly.var(factor)
                else:
                    value = value * Poly.const(_reference_literal(factor))
            op = rng.choice([" + ", "+", " - "]) if i else ""
            want = want - value if op.strip() == "-" else want + value
            text += op + signs + rng.choice(["*", " * "]).join(factors)
        got = parse_expression(text)
        assert_normal_poly(got)
        assert (got._terms, got._den) == (want._terms, want._den), text
    # The digits before the point, after it and of the denominator are each
    # held to the interpreter's int-string limit on their own, not together.
    long = "1" * 3000 + "." + "2" * 3000 + "/" + "3" * 3000
    assert parse_expression(long) == Poly.const(_reference_literal(long))


@pytest.mark.parametrize("kind", list(DISTRIBUTIONS))
def test_every_distribution_kind_parses(kind):
    p = parse_program(f"x = RV({kind}, 0, 1)\nwhile true:\nr = RV({kind}, a, 2)\nx = x + r\n")
    assert p.init_assignments[0].value == Distribution(kind, Poly.const(0), Poly.const(1))
    assert p.rv_assignments[0].dist == Distribution(kind, Poly.var("a"), Poly.const(2))
    assert p.parameters == frozenset({"a"})


def test_walk_program_is_accepted():
    vp = validate_program(parse_program(WALK))
    assert vp.variables == ("u", "g", "x", "y")
    assert vp.state == frozenset({"x", "y"})
    assert set(vp.draws) == {"u", "g"}
    assert vp.symbols == frozenset({"b", "y(0)"})


@pytest.mark.parametrize(
    "source,restriction,fragment",
    [
        # nonlinear self-dependence
        ("x=0\nwhile true:\nx = x*x\n", "dependency-structure", "nonlinear"),
        # forward dependence: y is assigned after x
        ("x=0\ny=0\nwhile true:\nx = y*x + 1\ny = y\n", "dependency-structure", "x"),
        ("x=0\ny=0\nwhile true:\nx = y + 1\ny = y\n", "dependency-structure", "before assignment"),
        # probability mass
        ("x=0\nwhile true:\nx = x+1 @ 1/3; x @ 1/3\n", "probability-sum", "sum to"),
        ("x=0\nwhile true:\nx = x+1 @ 3/2; x @ -1/2\n", "probability-sum", "negative"),
        # distinctness: variables where only parameters may appear
        ("x=0\nwhile true:\nu = RV(uniform, 0, x)\nx = x + u\n", "distinctness", "distribution argument"),
        # both arguments of one draw: every clashing name is listed
        ("x=0\ny=0\nwhile true:\nu = RV(uniform, y, x)\nx = x + u\ny = y\n",
         "distinctness", "(found x, y)"),
        ("x=0\nwhile true:\nx = x + 1 @ x; x @ 1 - x\n", "distinctness", "branch probability"),
        ("x=0\nwhile true:\nx = x\nx = x + 1\n", "distinctness", "twice"),
        ("x=0\nx=1\nwhile true:\nx = x\n", "distinctness", "twice"),
        ("x=0\nwhile true:\nx = RV(uniform, 0, 1)\nx = x + 1\n", "distinctness", "twice"),
        # a draw assigned twice
        ("x=0\nwhile true:\nu = RV(gauss, 0, 1)\nu = RV(gauss, 0, 1)\nx = x + u\n",
         "distinctness", "twice"),
        # a constant argument outside its kind's rule, in the body or as an initial value
        ("x=0\nwhile true:\ng = RV(gauss, 0, -1)\nx = x + g\n", "distribution-argument",
         "gauss variance evaluates to the negative value -1 (line 3)"),
        ("x = RV(gauss, 0, -4)\nwhile true:\nx = x + 1\n", "distribution-argument",
         "gauss variance evaluates to the negative value -4 (line 1)"),
        # a constant negative variance whatever the mean: a symbolic one here
        ("x=0\nwhile true:\ng = RV(gauss, m, -1)\nx = x + g\n", "distribution-argument",
         "gauss variance evaluates to the negative value -1 (line 3)"),
    ],
)
def test_restriction_violations(source, restriction, fragment):
    p = parse_program(source)
    with pytest.raises(UnsupportedProgramError) as err:
        validate_program(p)
    assert err.value.restriction == restriction
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "source,message",
    [
        ("x=0\nwhile true:\nx = x*x\n",
         "dependency-structure: update of 'x' is nonlinear in itself (line 3)"),
        ("x=0\ny=0\nwhile true:\nx = y*x + 1\ny = y\n",
         "dependency-structure: self-coefficient of 'x' references program variable(s) y (line 4)"),
        ("x=0\ny=0\nwhile true:\nx = y + 1\ny = y\n",
         "dependency-structure: update of 'x' references y before assignment in the body (line 4)"),
        # a draw in the self-coefficient
        ("x=0\nwhile true:\nu = RV(uniform, 0, 1)\nx = u*x\n",
         "dependency-structure: self-coefficient of 'x' references program variable(s) u (line 4)"),
        # every program variable beside x is named, sorted
        ("x=0\ny=0\nz=0\nwhile true:\nx = z*y*x + 1\ny = y\nz = z\n",
         "dependency-structure: self-coefficient of 'x' references program variable(s) y, z (line 5)"),
    ],
)
def test_dependency_structure_messages(source, message):
    with pytest.raises(UnsupportedProgramError) as err:
        validate_program(parse_program(source))
    assert str(err.value) == message


def test_parameter_in_self_coefficient_is_accepted():
    vp = validate_program(parse_program("x=0\nwhile true:\nx = p*x + 1\n"))
    assert vp.variables == ("x",)
    assert vp.symbols == frozenset({"p"})


@pytest.mark.parametrize(
    "source",
    [
        # a symbolic argument is checked where it is bound (the verifier)
        "x=0\nwhile true:\ng = RV(gauss, 0, s)\nx = x + g\n",
        "x=0\nwhile true:\nu = RV(uniform, a, 3)\nx = x + u\n",
        "x=0\nwhile true:\ng = RV(gauss, m, 0)\nx = x + g\n",
    ],
)
def test_distribution_arguments_with_parameters_are_accepted(source):
    validate_program(parse_program(source))


def test_self_coefficient_may_be_a_parameter():
    vp = validate_program(parse_program("v=1\nwhile true:\nv = p*v + q\n"))
    assert vp.parameters == frozenset({"p", "q"})


def test_dependence_on_init_only_constant_is_allowed():
    vp = validate_program(parse_program("c0 = 5\nx = 0\nwhile true:\nx = x + c0\n"))
    assert vp.variables == ("x", "c0")
    assert vp.state == frozenset({"x", "c0"})
    assert vp.initial == {"x": Poly.const(0), "c0": Poly.const(5)}


def test_resolve_initial_values():
    vp = validate_program(parse_program(WALK))
    assert vp.initial["x"] == Poly.const(0)
    assert vp.initial["y"] == Poly.var("y(0)")
    assert vp.initial["u"] == vp.draws["u"]
    # an init assignment wins over the draw's distribution
    vp = validate_program(parse_program(
        "u = 2\nx = RV(gauss, 0, 1)\nwhile true:\nu = RV(uniform, 0, 1)\nx = x + u\n"
    ))
    assert vp.initial == {"u": Poly.const(2), "x": Distribution("gauss", Poly.const(0), ONE)}
    assert vp.symbols == frozenset()


def test_distribution_initialized_variable_moments():
    # z starts as a uniform(0, 1) draw; its k-th initial moment is 1/(k+1)
    # (oracle: the integral of z^k over [0, 1]).
    from loopmoments import Moment, MomentTable, initial_moment

    vp = validate_program(parse_program("z = RV(uniform, 0, 1)\nwhile true:\nz = z + 1\n"))
    table = MomentTable()
    for k in range(1, 6):
        value = initial_moment(vp, Moment.single("z", k), table)
        assert value == Poly.const(Fraction(1, k + 1))
