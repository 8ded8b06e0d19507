"""Polynomial and exponential-polynomial algebra."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from loopmoments import ExpPoly, Moment, Poly, symbolic
from loopmoments.symbolic import ONE, ZERO, UnboundSymbolError, _Acc

from corpus import (
    assert_normal_poly,
    counting_fractions,
    reference_linear_combination,
    shifted,
)

x, y, g, u, b = (Poly.var(s) for s in "xygub")


def test_difference_of_squares():
    assert (x + u) * (x - u) == x**2 - u**2


def test_square_of_three_term_sum():
    expanded = (y + x + g) ** 2
    expected = y**2 + x**2 + g**2 + 2 * x * y + 2 * x * g + 2 * y * g
    assert expanded == expected


def test_multiplication_by_zero_absorbs():
    p = 3 * x**2 - y + Poly.const(Fraction(1, 7))
    assert p * Poly() == Poly()
    assert Poly() * p == Poly()


def test_powers():
    assert (x - u) ** 2 == x**2 - 2 * x * u + u**2
    assert x**0 == Poly.const(1)
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_pow_rejects_negative_exponents():
    with pytest.raises(ValueError):
        x ** (-1)


def test_substitute_identity():
    p = y + x + g
    assert p.substitute("y", y.__pow__) == p
    assert p.substitute("b", b.__pow__) is p


def test_substitute_power_expands():
    # oracle: direct expansion via the power operator
    assert (x**2).substitute("x", (x - u).__pow__) == (x - u) ** 2


def test_substitute_product_expands():
    # oracle: direct expansion via polynomial multiplication
    assert (x * y).substitute("y", (y + x + g).__pow__) == x * (y + x + g)


def test_substitute_replaces_each_power_by_its_own_value():
    # the powers of x become the raw moments of a uniform draw on [0, b]
    raw = [ONE, b / 2, b**2 / 3]
    p = 6 * x**2 * y + 4 * x + 1
    assert p.substitute("x", raw.__getitem__) == 2 * b**2 * y + 2 * b + 1


def _random_mono(rng: random.Random, names: str) -> tuple:
    picked = rng.sample(names, rng.randint(0, len(names)))
    return tuple(sorted((name, rng.randint(1, 4)) for name in picked))


def test_memoised_mono_mul_matches_the_dict_merge():
    rng = random.Random(8128)
    for _ in range(500):
        # shared names, disjoint names, and the empty monomial on either side
        a = _random_mono(rng, "wxyz")
        bb = _random_mono(rng, rng.choice(("wxyz", "xy", "pq", "")))
        merged: dict[str, int] = {}
        for name, exp in a + bb:
            merged[name] = merged.get(name, 0) + exp
        want = tuple(sorted(merged.items()))
        assert symbolic._mono_mul(a, bb) == want
        assert symbolic._mono_mul(bb, a) == want
    assert symbolic._mono_mul.cache_info().maxsize is not None


def _shared_factor_poly(rng: random.Random) -> Poly:
    """``sum_k x^k * c_k / den`` where the numerators of each power share a
    factor with ``den``, so a power's own coefficient reduces further than
    the whole polynomial does."""
    den = rng.choice((6, 12, 35, 36, 1024))
    terms = {}
    for k in rng.sample(range(5), rng.randint(1, 4)):
        factor = rng.choice([f for f in range(1, den + 1) if den % f == 0])
        for _ in range(rng.randint(1, 3)):
            mono = _random_mono(rng, "yz") + ((("x", k),) if k else ())
            terms[mono] = Fraction(factor * rng.choice((-3, -1, 1, 2, 5)), den)
    return Poly(terms)


def test_substitute_matches_the_sum_over_powers():
    rng = random.Random(496)
    for _ in range(300):
        p = _shared_factor_poly(rng)
        q = _random_const(rng) * _random_poly(rng, "xyz", 3)
        # power(0) is 1, as for every power of a value
        values = {k: _random_const(rng) * _random_poly(rng, "yz", 3) for k in range(1, 5)}
        values[0] = ONE
        for power in (q.__pow__, values.__getitem__):
            got = p.substitute("x", power)
            want = Poly.linear_combination(
                (c, power(part[0][1] if part else 0)) for part, c in p.split({"x"}).items()
            )
            assert_normal_poly(got)
            _assert_same_value(got, want)
        assert p.substitute("w", values.__getitem__) is p
    # a sum that cancels is the zero value, in normal form
    cancelled = (x * y / 6 - y**2 / 6).substitute("x", y.__pow__)
    assert_normal_poly(cancelled)
    _assert_same_value(cancelled, ZERO)
    for absent in (ZERO, Poly.const(Fraction(3, 4)), y / 2):
        assert absent.substitute("x", y.__pow__) is absent


def _random_poly(rng: random.Random, symbols="abc", max_terms=4) -> Poly:
    total = Poly()
    for _ in range(rng.randint(0, max_terms)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        mono = Poly.const(1)
        for s in symbols:
            mono = mono * Poly.var(s) ** rng.randint(0, 2)
        total = total + coeff * mono
    return total


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20240)
    for _ in range(200):
        a, bb, c = (_random_poly(rng) for _ in range(3))
        assert a + bb == bb + a
        assert a * bb == bb * a
        assert a * (bb + c) == a * bb + a * c
        assert (a - a).is_zero()


def test_normal_form_is_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        p = _random_poly(rng)
        rebuilt = Poly(dict(p.terms()))
        assert rebuilt == p
        assert str(rebuilt) == str(p)


def test_public_constructor_canonicalises_monomials():
    assert Poly({(("y", 1), ("x", 1)): 1}) == x * y
    assert Poly({(("x", 1), ("x", 2)): 1}) == x**3
    zero_exponent = Poly({(("x", 0),): 1})
    assert zero_exponent.is_const()
    assert zero_exponent == Poly.const(1)
    assert hash(zero_exponent) == hash(Poly.const(1))
    # monomials that become equal are summed, and a zero sum is dropped
    assert Poly({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): 2}) == 3 * x * y
    assert Poly({(("x", 1), ("y", 1)): 1, (("y", 1), ("x", 1)): -1}).is_zero()
    assert Poly([((("x", 1),), 1), ((("x", 1),), Fraction(1, 2))]) == 3 * x / 2
    with pytest.raises(ValueError):
        Poly({(("x", -1),): 1})


def test_a_poly_equals_only_a_poly_so_equality_agrees_with_hashing():
    three = Poly.const(3)
    assert three == Poly.const(3) and hash(three) == hash(Poly.const(3))
    # a number is no Poly: were it equal, a set holding the Poly would have
    # to find it, and the hash of the normal form cannot promise that
    assert three != 3 and 3 != three and three != Fraction(3)
    assert 3 not in {three} and three not in {3}
    assert ZERO != 0
    # arithmetic still coerces numbers
    assert three + 1 == Poly.const(4) and 2 * three == Poly.const(6)


def _assert_normal_exp_poly(f: ExpPoly) -> None:
    for base, degree, coeff in f.terms():
        assert_normal_poly(base)
        assert_normal_poly(coeff)
        assert not coeff.is_zero() and degree >= 0, f


def _assert_same_value(p, q) -> None:
    assert p == q
    assert hash(p) == hash(q)


def test_kernel_results_stay_in_normal_form():
    rng = random.Random(4711)
    for _ in range(60):
        p, q, r = (_random_poly(rng, symbols="xyz") for _ in range(3))
        results = [p + q, p - q, -p, p * q, p / Fraction(-3, 7), p**3]
        results += [p.substitute("x", q.__pow__), p.substitute("y", (q * r).__pow__)]
        results += p.split({"y"}).values()
        results.append(Poly.quotient([(1, ONE, p)], Poly.var("y") + 1))
        if not q.is_zero():
            results += [Poly.quotient([(1, ONE, p)], q), Poly.quotient([(1, ONE, p * q)], q)]
        for res in results:
            if res is not None:
                assert_normal_poly(res)
                _assert_same_value(res, Poly(dict(res.terms())))
        _assert_same_value(p + q, q + p)
        _assert_same_value(p * q, q * p)
        _assert_same_value(p * (q + r), p * q + p * r)
        _assert_same_value(p.substitute("x", q.__pow__), p.substitute("x", (q + r - r).__pow__))

        f, h = (_random_exp_poly(rng, lambda: _random_poly(rng, "xy", 2)) for _ in range(2))
        combined = ExpPoly.linear_combination([(ONE, ExpPoly.const(r)), (p, f), (q, h), (-p, f)])
        for res in (ExpPoly.linear_combination([(p, f)]), shifted(f), combined):
            _assert_normal_exp_poly(res)
        # (p, f) and (-p, f) cancel, in whatever order the pairs come
        reordered = ExpPoly.linear_combination([(q, h), (ONE, ExpPoly.const(r))])
        _assert_same_value(combined, reordered)
        point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for s in "xyz"}
        rv, qv = r.evaluate(point), q.evaluate(point)
        for n in range(11):
            assert combined.evaluate(n, point) == rv + qv * h.evaluate(n, point)


def _fraction_value(p: Poly, point: dict[str, Fraction]) -> Fraction:
    """``p`` at ``point``, summed from its public Fraction terms."""
    total = Fraction(0)
    for mono, coeff in p.terms():
        for name, exp in mono:
            coeff *= point[name] ** exp
        total += coeff
    return total


def test_kernel_agrees_with_fraction_evaluation():
    rng = random.Random(31337)
    for _ in range(80):
        p, q, r = (_random_poly(rng, symbols="xyz") for _ in range(3))
        point = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for s in "xyz"}
        pv, qv, rv = (_fraction_value(v, point) for v in (p, q, r))
        assert _fraction_value(p + q, point) == pv + qv
        assert _fraction_value(p - q, point) == pv - qv
        assert _fraction_value(p * q, point) == pv * qv
        assert _fraction_value(p**3, point) == pv**3
        assert _fraction_value(p / Fraction(-3, 7), point) == pv * Fraction(-7, 3)
        # substituting q for x is evaluating p with x at q's value
        at_q = dict(point, x=qv)
        assert _fraction_value(p.substitute("x", q.__pow__), point) == _fraction_value(p, at_q)
        assert p.evaluate(point) == pv
        f, h = (_random_exp_poly(rng, lambda: _random_poly(rng, "xy", 2)) for _ in range(2))
        combined = ExpPoly.linear_combination([(p, f), (q, h), (r, f)])
        for n in range(4):
            expected = (pv + rv) * f.evaluate(n, point) + qv * h.evaluate(n, point)
            assert combined.evaluate(n, point) == expected
        for res in (p + q, p - q, p * q, p**3, p.substitute("x", q.__pow__)):
            assert_normal_poly(res)
        # scalar-left operands (__radd__, __rmul__) and zero operands
        scalar_cases = [
            (Fraction(-2, 5) + p, Fraction(-2, 5) + pv),
            (7 * p, 7 * pv),
            (p + 0, pv),
        ]
        for res, value in scalar_cases:
            assert _fraction_value(res, point) == value
            assert_normal_poly(res)
        _assert_normal_exp_poly(combined)


def test_cancellation_gives_the_empty_value():
    for zero in ((x + y) - (x + y), x * (y - y)):
        assert zero.is_zero()
        _assert_same_value(zero, Poly())
    two = Poly.const(2)
    f = ExpPoly({(two, 1): x, (ONE, 0): y})
    minus_x = ExpPoly({(two, 1): -x})
    cancelled = [
        ExpPoly.linear_combination([(ONE, f), (ONE, minus_x), (-ONE, ExpPoly.const(y))]),
        ExpPoly({(two, 1): x - x}),
        ExpPoly.linear_combination([(y, f), (-y, f)]),
        ExpPoly.linear_combination([(x - x, f)]),
    ]
    for zero in cancelled:
        assert zero.is_zero()
        _assert_same_value(zero, ExpPoly())
    partial = ExpPoly.linear_combination([(ONE, f), (ONE, minus_x)])
    assert [(base, degree) for base, degree, _ in partial.terms()] == [(ONE, 0)]


# Denominators that make a sum start empty, take a product whose denominator
# divides its own, and grow to a larger lcm.
_DENS = (1, 2, 3, 4, 6, 9, 12, 35, 1024)


def _random_const(rng: random.Random) -> Poly:
    return Poly.const(Fraction(rng.choice((0, 1, -1, rng.randint(-50, 50))), rng.choice(_DENS)))


def test_constant_coefficients_match_the_fraction_reference():
    rng = random.Random(2718)
    for _ in range(150):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            # mostly constants, as in the solver; zero and symbolic ones too
            coeff = _random_const(rng) if rng.random() < 0.8 else _random_poly(rng, "xy", 2)
            f = _random_exp_poly(rng, lambda: _random_const(rng) * _random_poly(rng, "xy", 3))
            pairs.append((coeff, f))
        combined = ExpPoly.linear_combination(pairs)
        _assert_normal_exp_poly(combined)
        _assert_same_value(combined, reference_linear_combination(pairs))
        # the same pairs negated cancel to the empty value
        cancelled = ExpPoly.linear_combination(pairs + [(-coeff, f) for coeff, f in pairs])
        _assert_same_value(cancelled, ExpPoly())
        # a constant operand on either side of a sum of products
        acc, want = _Acc(), Poly()
        for _ in range(rng.randint(1, 5)):
            c, p = _random_const(rng), _random_poly(rng, "xy", 3)
            k = rng.choice((1, -1, 3))
            if rng.random() < 0.5:
                acc.add(c, p, k)
            else:
                acc.add(p, c, k)
            want = want + k * c * p
        got = acc.poly()
        assert_normal_poly(got)
        _assert_same_value(got, want)


def test_sums_start_empty_stay_divisible_and_rescale():
    # 1/4*p starts the sum at denominator 4, -1/2*q divides it and 1/3*r
    # grows it to 12
    p, q, r = x + 1, x - 1, x
    pairs = [(Poly.const(Fraction(1, 4)), p), (Poly.const(Fraction(-1, 2)), q),
             (Poly.const(Fraction(1, 3)), r)]
    want = x / 12 + Fraction(3, 4)
    for swap in (False, True):
        acc = _Acc()
        for c, poly in pairs:
            if swap:
                acc.add(poly, c)
            else:
                acc.add(c, poly)
        assert_normal_poly(acc.poly())
        _assert_same_value(acc.poly(), want)
    fs = [(c, ExpPoly({(ONE, 1): poly, (ZERO, 0): -poly})) for c, poly in pairs]
    combined = ExpPoly.linear_combination(fs)
    _assert_same_value(combined, reference_linear_combination(fs))
    _assert_same_value(combined, ExpPoly({(ONE, 1): want, (ZERO, 0): -want}))
    # zero coefficients add nothing, and a contribution can cancel another
    zeros = [(Poly.const(0), f) for _, f in fs]
    undo = [fs[0], (Poly.const(Fraction(-1, 4)), fs[0][1])]
    _assert_same_value(ExpPoly.linear_combination(zeros + undo), ExpPoly())


def test_a_sum_started_from_a_polynomial_leaves_it_unchanged():
    # the first contribution to an empty sum gives the sum its own dict;
    # later adds, rescaling included, must not write through to the operand
    rng = random.Random(1618)
    for _ in range(60):
        p = _random_poly(rng, "xy", 4)
        frozen = dict(p.terms())
        more = [(_random_const(rng), _random_poly(rng, "xy", 4)) for _ in range(3)]
        more.append((Poly.const(Fraction(1, 35)), p))
        for k in (1, -1, 3):
            acc = _Acc()
            acc.add(ONE, p, k)
            for c, q in more:
                acc.add(c, q)
            got = acc.poly()
            assert_normal_poly(got)
            _assert_same_value(got, k * p + sum((c * q for c, q in more), Poly()))
            assert dict(p.terms()) == frozen
        # a keyed sum started from the whole of f, then added to
        f = ExpPoly({(ONE, 0): p, (Poly.const(2), 1): p * x})
        kept = {key: dict(c.terms()) for key, c in f._terms.items()}
        pairs = [(ONE, f), (Poly.const(Fraction(-2, 3)), f), (y, f)]
        combined = ExpPoly.linear_combination(pairs)
        _assert_same_value(combined, reference_linear_combination(pairs))
        assert {key: dict(c.terms()) for key, c in f._terms.items()} == kept
        assert dict(p.terms()) == frozen


_CONSTANTS = (
    0, 1, -1, 7, -12, Fraction(-3), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(-7, 6)
)


def test_constant_plus_constant_is_exact_integer_arithmetic(monkeypatch):
    class NoAcc:
        def __init__(self):
            raise AssertionError("two constants were summed through an accumulator")

    monkeypatch.setattr(symbolic, "_Acc", NoAcc)
    for a in _CONSTANTS:
        for b_ in _CONSTANTS:
            with counting_fractions() as count:
                # a Fraction operand is read, not copied
                pa, pb = Poly.const(a), Poly.const(b_)
                results = [pa + pb, pa - pb, pb - pa]
            assert count == [0], (a, b_)
            want = [Fraction(a) + b_, Fraction(a) - b_, Fraction(b_) - a]
            for res, value in zip(results, want):
                assert_normal_poly(res)
                _assert_same_value(res, Poly.const(value))
            # a scalar operand on either side of +, on the right of -
            assert pa + b_ == Poly.const(want[0]) and b_ + pa == Poly.const(want[0])
            assert pa - b_ == Poly.const(want[1])
        # exact cancellation gives the zero polynomial ({}, 1)
        zero = Poly.const(a) - Poly.const(a)
        assert zero._terms == {} and zero._den == 1
    # a scalar minus a polynomial is not defined; negate and add instead
    with pytest.raises(TypeError):
        1 - Poly.const(1)


def test_evaluate_and_unbound_error():
    p = b**2 * x / 3
    assert p.evaluate({"b": 2, "x": 5}) == Fraction(20, 3)
    with pytest.raises(UnboundSymbolError):
        p.evaluate({"b": 2})


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: (x + 1).const_value(), symbolic.SymbolicError, "x + 1 is not a constant"),
        (lambda: x / 0, ZeroDivisionError, "division of polynomial by zero"),
        (lambda: x / Fraction(0), ZeroDivisionError, "division of polynomial by zero"),
        (lambda: ExpPoly.const(ONE).evaluate(-1), ValueError, "the loop counter is nonnegative"),
    ],
    ids=["const-value-of-non-constant", "divide-by-int-zero", "divide-by-fraction-zero",
         "evaluate-at-negative-n"],
)
def test_public_guards_raise(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_exact_division():
    a_, b_ = Poly.var("a"), Poly.var("b")
    for k in range(1, 7):
        numerator = b_ ** (k + 1) - a_ ** (k + 1)
        telescoped = sum((a_**i * b_ ** (k - i) for i in range(k + 1)), Poly())
        assert Poly.quotient([(1, ONE, numerator)], b_ - a_) == telescoped
    assert Poly.quotient([(1, ONE, x**2 + 1)], x + 1) is None
    assert Poly.quotient([(1, ONE, x * 6)], Poly.const(3)) == 2 * x
    # a constant divisor scales the integer numerators: no Fraction is built
    p = x**2 / 3 - 2 * x * y + Fraction(5, 7)
    for value in (Fraction(-3), Fraction(-7, 4), Fraction(2, 9)):
        divisor = Poly.const(value)
        with counting_fractions() as count:
            quotient = Poly.quotient([(1, ONE, p)], divisor)
        assert count == [0], value
        assert quotient == p / value
    with pytest.raises(ZeroDivisionError):
        Poly.quotient([(1, ONE, x)], Poly())


def test_split_by_the_powers_of_one_name():
    p = 2 * x**2 * y + x * b - y + 5
    split = p.split({"x"})
    assert split[(("x", 2),)] == 2 * y
    assert split[(("x", 1),)] == b
    assert split[()] == -y + 5
    recombined = sum((c * Poly.monomial(part) for part, c in split.items()), Poly())
    assert recombined == p


def test_monomial_is_canonical():
    assert Poly.monomial((("y", 1), ("x", 2), ("y", 1), ("b", 0))) == x**2 * y**2
    assert Poly.monomial(()) == ONE
    with pytest.raises(ValueError, match="negative exponent"):
        Poly.monomial((("x", -1),))


# -- exponential polynomials -------------------------------------------------


def test_only_the_kernel_reads_the_number_format():
    # Poly's integer numerators over one denominator belong to symbolic.py:
    # every other module builds and reads values through public names.
    private = {"_terms", "_den", "_trusted", "_scaled"}
    found = []
    for path in sorted(Path(symbolic.__file__).parent.glob("*.py")):
        if path.name == "symbolic.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("symbolic"):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
    assert found == []


def test_exp_poly_evaluation_examples():
    f = ExpPoly({(ONE, 1): b**2 / 3})  # (b^2/3) * n
    assert f.evaluate(20, {"b": 2}) == Fraction(80, 3)
    assert ExpPoly().evaluate(13, {}) == 0
    geometric = ExpPoly({(Poly.const(Fraction(1, 2)), 0): ONE})
    assert geometric.evaluate(3, {}) == Fraction(1, 8)


def test_exp_poly_zero_base_is_an_indicator():
    # the key (0, k) is [n = k]: 1 at n == k and 0 at every other n
    for k in range(4):
        indicator = ExpPoly({(ZERO, k): ONE})
        assert indicator != ExpPoly()
        assert [indicator.evaluate(n) for n in range(6)] == [int(n == k) for n in range(6)]
        assert [indicator.value_at(n) for n in range(6)] == [ONE if n == k else ZERO for n in range(6)]
        assert str(indicator) == f"[n = {k}]"
    y = Poly.var("y")
    f = ExpPoly({(ONE, 0): Poly.const(4), (ZERO, 0): Poly.const(3), (ZERO, 2): y, (ONE, 1): ONE})
    assert [f.evaluate(n, {"y": 5}) for n in range(5)] == [7, 5, 11, 7, 8]
    assert [f.value_at(n) for n in (0, 1, 3)] == [Poly.const(7), Poly.const(5), Poly.const(7)]
    assert f.value_at(2) == y + 6
    assert [t for t in f.terms() if not t[0].is_zero()] == [(ONE, 0, Poly.const(4)), (ONE, 1, ONE)]


def _random_exp_poly(rng: random.Random, random_coeff=None) -> ExpPoly:
    bases = [Poly.const(1), Poly.const(2), Poly.const(Fraction(1, 2)),
             Poly.const(Fraction(-1, 2)), Poly.const(0)]
    pairs = []
    for _ in range(rng.randint(1, 4)):
        if random_coeff is None:
            coeff = Poly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        else:
            coeff = random_coeff()
        pairs.append((coeff, ExpPoly({(rng.choice(bases), rng.randint(0, 3)): ONE})))
    return ExpPoly.linear_combination(pairs)


def test_shift_agrees_with_pointwise_evaluation():
    rng = random.Random(99)
    indicators = set()
    for _ in range(100):
        f = _random_exp_poly(rng)
        indicators |= {degree for base, degree, _ in f.terms() if base.is_zero()}
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        residual = ExpPoly.linear_combination([(ONE, shifted(f)), (Poly.const(-c), f)])
        for n in range(0, 11):
            expected = f.evaluate(n + 1) - c * f.evaluate(n)
            assert residual.evaluate(n) == expected
    assert indicators == {0, 1, 2, 3}  # [n = k] moves to [n = k - 1] at every k


def test_residual_agrees_with_pointwise_evaluation():
    # f(n+1) - c*f(n) - inhom(n) over constant, base-0, resonant (base == c)
    # and parameterised bases, with c itself constant or parameterised
    rng = random.Random(2525)
    p = Poly.var("p")
    points = ({"p": Fraction(3)}, {"p": Fraction(-2, 5)})
    for _ in range(150):
        c = rng.choice((Poly.const(Fraction(1, 2)), Poly.const(2), ZERO, ONE, p, p + 1))
        bases = (c, ZERO, ONE, Poly.const(Fraction(-1, 3)), p, 2 * p - 1)

        def random_f():
            pairs = []
            for _ in range(rng.randint(0, 4)):
                coeff = _random_const(rng) * (p if rng.random() < 0.3 else ONE)
                pairs.append((coeff, ExpPoly({(rng.choice(bases), rng.randint(0, 3)): ONE})))
            return ExpPoly.linear_combination(pairs)

        f, inhom = random_f(), random_f()
        residual = f.residual(c, inhom)
        _assert_normal_exp_poly(residual)
        for point in points:
            cv = c.evaluate(point)
            for n in range(6):
                want = f.evaluate(n + 1, point) - cv * f.evaluate(n, point)
                assert residual.evaluate(n, point) == want - inhom.evaluate(n, point)
        # f solves the recurrence whose inhomogeneity is its own left side
        assert f.residual(c, f.residual(c, ExpPoly())).is_zero()


def _fraction_sorted_terms(f: ExpPoly) -> list[tuple[Poly, int, Poly]]:
    """The print order by its defining rule, on Fraction keys: symbolic bases
    before constant ones, bases descending (constants by value, symbolic ones
    by their text), then degrees descending."""

    def key(term):
        base, degree, _ = term
        if base.is_const():
            return (0, base.const_value(), "", degree)
        return (1, Fraction(0), str(base), degree)

    return sorted(f.terms(), key=key, reverse=True)


def test_base_order_is_exact_and_matches_the_fraction_rule():
    third = Fraction(1, 3)
    close = third + Fraction(1, 10**40)
    assert float(third) == float(close)  # a float key could not order these
    f = ExpPoly({
        (Poly.const(third), 0): Poly.const(1),
        (Poly.const(close), 1): Poly.const(2),
        (Poly.const(close), 0): Poly.const(3),
    })
    assert [(base.const_value(), d) for base, d, _ in f.sorted_terms()] == [
        (close, 1), (close, 0), (third, 0)
    ]

    p, q = Poly.var("p"), Poly.var("q")
    constants = [Poly.const(c) for c in (0, 1, 2, -1, Fraction(-1, 2), Fraction(1, 2),
                                         Fraction(-7, 3), third, close, -close,
                                         Fraction(10**30 + 1, 10**30))]
    symbolic = [p, q, p - 1, -p, p * q + Fraction(1, 2), q**2]
    rng = random.Random(2024)
    cases = [
        constants,  # positive, negative and zero constant bases only
        symbolic,
        constants + symbolic,
    ] + [rng.sample(constants + symbolic, rng.randint(1, 9)) for _ in range(200)]
    for bases in cases:
        f = ExpPoly({
            (base, degree): Poly.const(i + 1)
            for i, base in enumerate(bases)
            for degree in range(rng.randint(1, 3))
        })
        assert f.sorted_terms() == _fraction_sorted_terms(f), bases


# -- tracked moments ----------------------------------------------------------


def test_moment_parsing_and_rendering():
    m = Moment.parse("x^2*y")
    assert m == Moment((("x", 2), ("y", 1)))
    assert str(m) == "x^2*y^1"
    assert m.degree() == 3
    assert Moment.parse("y^1*x^2") == m
    assert Moment.parse("y(0)^2") == Moment.single("y(0)", 2)


def test_moment_is_its_canonical_monomial():
    m = Moment.parse("x^2*y")
    assert Moment((("x", 1), ("x", 1))) == Moment.parse("x^2")
    assert Moment((("y", 1), ("x", 1), ("x", 1))) == m
    assert Moment(pair for pair in [("y", 1), ("x", 2)]) == m
    assert m == (("x", 2), ("y", 1)) == m.powers
    assert repr(Moment.parse("x^2")) == "Moment((('x', 2),))"


def test_equal_moments_hash_alike():
    first, second = Moment([("x", 2), ("y", 1)]), Moment([("y", 1), ("x", 2)])
    assert first is not second
    assert hash(first) == hash(second)
    assert {first: "found"}[second] == "found"


def test_moment_rejects_empty_and_nonpositive_exponents():
    with pytest.raises(ValueError, match="at least one variable"):
        Moment(())
    for exp in (0, -1):
        with pytest.raises(ValueError, match="must be positive"):
            Moment((("x", 2), ("y", exp)))


def test_moment_rejects_bad_syntax():
    for bad in ("", "x^0", "2x", "x^", "x**2"):
        with pytest.raises(ValueError):
            Moment.parse(bad)


def test_moment_ordering_is_by_degree_then_name():
    moments = [Moment.parse(t) for t in ("y^2", "x^1", "x^1*y^1", "u^1", "x^2")]
    ordered = sorted(moments, key=Moment.sort_key)
    assert [str(m) for m in ordered] == ["u^1", "x^1", "x^1*y^1", "x^2", "y^2"]
