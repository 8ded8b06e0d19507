"""Exact symbolic algebra for the moment engine.

Two value families live here:

* :class:`Poly` -- multivariate polynomials over named symbols with exact
  rational coefficients, kept in a canonical expanded normal form.  Program
  variables, parameters and symbolic initial values (``y(0)``) are all just
  symbols; which symbol plays which role is decided by the frontend.
* :class:`ExpPoly` -- exponential polynomials in the loop counter ``n``:
  finite sums of ``coeff * base**n * n**degree`` where ``coeff`` and ``base``
  are :class:`Poly` values constant in ``n``.

Everything is immutable and hashable; arithmetic never leaves the exact
rational world.  There is deliberately no factorization, GCD or
simplification beyond the expanded normal form.

Normal form, the invariant every value holds:

* a :class:`Poly` maps monomials to nonzero :class:`~fractions.Fraction`
  coefficients, and each monomial is a tuple of ``(name, exponent)`` pairs
  sorted by name, with distinct names and positive integer exponents;
* an :class:`ExpPoly` maps ``(base, degree)`` keys to nonzero coefficient
  polynomials.

So structural equality is algebraic equality, and equal values hash alike.
Only the public constructors ``Poly(...)`` and ``ExpPoly(...)`` validate
(canonicalising monomials, summing coefficients and dropping zeros).  Every
operation builds its result through the private ``_trusted`` constructors,
which store an already canonical dict as it is; operations drop a zero
only where a sum cancels, since a product of nonzero rationals or of
nonzero polynomials is never zero.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

# A monomial maps symbol names to positive integer exponents, stored as a
# tuple sorted by name so it can key dicts.
Mono = tuple[tuple[str, int], ...]

_ONE_MONO: Mono = ()

Scalar = Union[int, Fraction]


class SymbolicError(Exception):
    """Base class for errors raised by the symbolic layer."""


class UnboundSymbolError(SymbolicError):
    """Evaluation met a symbol with no binding."""

    def __init__(self, name: str):
        super().__init__(f"no binding for symbol {name!r}")
        self.name = name


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged: dict[str, int] = dict(a)
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


def _canonical_mono(mono: Iterable[tuple[str, int]]) -> Mono:
    merged: dict[str, int] = {}
    for name, exp in mono:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {name!r} in a monomial")
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((name, exp) for name, exp in merged.items() if exp))


def _accumulate(acc: dict[Mono, Fraction], items: Iterable[tuple[Mono, Fraction]]) -> None:
    """``acc += items`` in place; a monomial whose sum cancels is deleted,
    as a fold of ``+`` would drop it."""
    for key, value in items:
        prev = acc.get(key)
        if prev is None:
            acc[key] = value
        else:
            total = prev + value
            if total:
                acc[key] = total
            else:
                del acc[key]


def _add_product(
    acc: dict[Mono, Fraction], a: Mapping[Mono, Fraction], b: Mapping[Mono, Fraction]
) -> None:
    """``acc += a * b`` in place over normal-form term dicts."""
    for m1, c1 in a.items():
        if m1:
            _accumulate(acc, ((_mono_mul(m1, m2), c1 * c2) for m2, c2 in b.items()))
        elif c1 == 1:
            _accumulate(acc, b.items())
        else:
            _accumulate(acc, ((m2, c1 * c2) for m2, c2 in b.items()))


def _mono_degree(a: Mono) -> int:
    return sum(exp for _, exp in a)


def _grlex_key(mono: Mono) -> tuple:
    # Sorted ascending, these keys give descending graded-lex order: total
    # degree first, then the exponent vector over the sorted names.  Two
    # monomials of equal degree first differ at a name that the larger one
    # lists with a higher exponent (or the other omits), so the comparison
    # needs no symbol universe.
    return (-_mono_degree(mono), tuple((name, -exp) for name, exp in mono))


class Poly:
    """Immutable multivariate polynomial with Fraction coefficients, kept in
    the module's normal form."""

    __slots__ = ("_terms", "_hash")

    _terms: dict[Mono, Fraction]

    def __init__(
        self,
        terms: Mapping[Mono, Scalar] | Iterable[tuple[Mono, Scalar]] | None = None,
    ):
        """Validate ``terms`` (a mapping or a sequence of pairs) into normal
        form: monomials are canonicalised (names sorted and merged, zero
        exponents dropped, negative ones a ``ValueError``), coefficients of
        equal monomials are summed and zero sums dropped."""
        clean: dict[Mono, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                key = _canonical_mono(mono)
                q = Fraction(coeff)
                clean[key] = clean[key] + q if key in clean else q
        self._terms = {mono: q for mono, q in clean.items() if q}
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, terms: dict[Mono, Fraction]) -> "Poly":
        """Wrap ``terms`` as they are; they must already be in normal form."""
        poly = object.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        q = Fraction(value)
        return cls._trusted({_ONE_MONO: q} if q else {})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._trusted({((name, 1),): Fraction(1)})

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coeff: Scalar = 1) -> "Poly":
        return cls({tuple(powers.items()): coeff})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _ONE_MONO in self._terms)

    def const_value(self) -> Fraction:
        """The value of a constant polynomial; raises if symbols remain."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_const():
            raise SymbolicError(f"{self} is not a constant")
        return self._terms[_ONE_MONO]

    def symbols(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    def total_degree(self) -> int:
        return max((_mono_degree(m) for m in self._terms), default=0)

    def terms(self) -> Iterator[tuple[Mono, Fraction]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """Terms in descending graded-lex order; the canonical print order."""
        return sorted(self._terms.items(), key=lambda item: _grlex_key(item[0]))

    def coefficients_by_power(self, name: str) -> dict[int, "Poly"]:
        """Split into { d : poly } with self == sum poly_d * name**d."""
        buckets: dict[int, dict[Mono, Fraction]] = {}
        for mono, coeff in self._terms.items():
            exp = 0
            rest = []
            for sym, e in mono:
                if sym == name:
                    exp = e
                else:
                    rest.append((sym, e))
            buckets.setdefault(exp, {})[tuple(rest)] = coeff
        return {d: Poly._trusted(t) for d, t in buckets.items()}

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._terms:
            return self
        terms = dict(self._terms)
        _accumulate(terms, o._terms.items())
        return Poly._trusted(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        _accumulate(terms, ((mono, -coeff) for mono, coeff in o._terms.items()))
        return Poly._trusted(terms)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Poly":
        return Poly._trusted({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if len(b) == 1 and _ONE_MONO in b:
            return self._scaled(b[_ONE_MONO])
        if len(a) == 1 and _ONE_MONO in a:
            return o._scaled(a[_ONE_MONO])
        # Inline rather than _add_product: this is the kernel's hottest loop,
        # and summing first and dropping cancelled monomials once is faster.
        terms: dict[Mono, Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                prev = terms.get(mono)
                terms[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly._trusted({m: c for m, c in terms.items() if c})

    __rmul__ = __mul__

    def _scaled(self, q: Fraction) -> "Poly":
        """``self * q`` for a nonzero rational ``q``."""
        if q == 1:
            return self
        return Poly._trusted({m: c * q for m, c in self._terms.items()})

    def __truediv__(self, other) -> "Poly":
        # Exact division by a nonzero rational only; polynomial divisors go
        # through exact_div so callers must handle failure explicitly.
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("division of polynomial by zero")
            return self._scaled(1 / q)
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- substitution, evaluation, division ---------------------------------

    def substitute(self, name: str, replacement: "Poly") -> "Poly":
        """Replace every occurrence of ``name``; the result is expanded."""
        if name not in self.symbols():
            return self
        powers = [Poly.const(1)]
        out: dict[Mono, Fraction] = {}
        for exp, coeff in self.coefficients_by_power(name).items():
            while len(powers) <= exp:
                powers.append(powers[-1] * replacement)
            _add_product(out, powers[exp]._terms, coeff._terms)
        return Poly._trusted(out)

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Exact value under a full binding of the symbols."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for sym, exp in mono:
                if sym not in bindings:
                    raise UnboundSymbolError(sym)
                value *= Fraction(bindings[sym]) ** exp
            total += value
        return total

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        """Exact polynomial quotient, or None when the division has a remainder.

        Multivariate long division against the graded-lex leading term; the
        quotient is returned only when it is exact.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division of polynomial by zero")
        if divisor.is_const():
            return self / divisor.const_value()

        def leading(p: Poly) -> tuple[Mono, Fraction]:
            mono = min(p._terms, key=_grlex_key)
            return mono, p._terms[mono]

        quotient = Poly()
        rem = self
        lead_d, coeff_d = leading(divisor)
        d_exps = dict(lead_d)
        while not rem.is_zero():
            lead_r, coeff_r = leading(rem)
            r_exps = dict(lead_r)
            exps = {s: r_exps.get(s, 0) - d_exps.get(s, 0) for s in set(r_exps) | set(d_exps)}
            if any(e < 0 for e in exps.values()):
                return None
            factor = Poly._trusted(
                {tuple(sorted((s, e) for s, e in exps.items() if e)): coeff_r / coeff_d}
            )
            quotient = quotient + factor
            rem = rem - factor * divisor
        return quotient

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return render_sum(poly_summands(self))

    def __repr__(self) -> str:
        return f"Poly({self})"


ONE = Poly.const(1)


@dataclass(frozen=True)
class Moment:
    """A monomial over program variables whose expected value is tracked.

    ``Moment((("x", 2), ("y", 1)))`` stands for the sequence
    ``E[x(n)^2 * y(n)]``.  Variables are kept sorted so the rendering
    ``x^2*y^1`` is canonical.
    """

    powers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.powers:
            raise ValueError("a tracked moment needs at least one variable")
        if any(e < 1 for _, e in self.powers):
            raise ValueError("moment exponents must be positive")
        ordered = tuple(sorted(self.powers))
        object.__setattr__(self, "powers", ordered)

    @classmethod
    def of(cls, powers: Mapping[str, int]) -> "Moment":
        return cls(tuple(sorted((v, e) for v, e in powers.items() if e)))

    @classmethod
    def single(cls, var: str, exp: int = 1) -> "Moment":
        return cls(((var, exp),))

    _TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*(?:\(0\))?)(?:\^(\d+))?$")

    @classmethod
    def parse(cls, text: str) -> "Moment":
        """Parse goal syntax like ``x^2*y`` (an omitted exponent means 1)."""
        powers: dict[str, int] = {}
        for chunk in text.split("*"):
            m = cls._TOKEN.match(chunk.strip())
            if m is None:
                raise ValueError(f"bad monomial syntax: {text!r}")
            exp = int(m.group(2)) if m.group(2) else 1
            if exp < 1:
                raise ValueError(f"exponents must be >= 1 in {text!r}")
            name = m.group(1)
            powers[name] = powers.get(name, 0) + exp
        return cls.of(powers)

    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.powers)

    def as_poly(self) -> Poly:
        return Poly.monomial(dict(self.powers))

    def sort_key(self) -> tuple:
        return (self.degree(), self.powers)

    def __str__(self) -> str:
        return "*".join(f"{v}^{e}" for v, e in self.powers)


class ExpPoly:
    """Finite sum of ``coeff * base**n * n**degree`` terms.

    Keys are (base, degree) pairs with the base compared by polynomial
    normal form; the coefficient of each key is a :class:`Poly`.  The
    convention ``0**0 == 1`` makes a base-0 term an indicator of ``n == 0``,
    which is how one-point initial corrections are represented.
    """

    __slots__ = ("_terms",)

    _terms: dict[tuple[Poly, int], Poly]

    def __init__(self, terms: Mapping[tuple[Poly, int], Poly] | None = None):
        clean: dict[tuple[Poly, int], Poly] = {}
        if terms:
            for (base, degree), coeff in terms.items():
                if not coeff.is_zero():
                    clean[(base, degree)] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[tuple[Poly, int], Poly]) -> "ExpPoly":
        """Wrap ``terms`` as they are; no coefficient may be zero."""
        f = object.__new__(cls)
        f._terms = terms
        return f

    @staticmethod
    def linear_combination(pairs: Iterable[tuple[Poly, "ExpPoly"]]) -> "ExpPoly":
        """``sum coeff * f`` over ``(coeff, f)`` pairs, accumulated in one dict
        of coefficient dicts without building the intermediate values; equal
        to the left fold of ``+`` over ``f.scale(coeff)``."""
        acc: dict[tuple[Poly, int], dict[Mono, Fraction]] = {}
        for coeff, f in pairs:
            for key, c in f._terms.items():
                inner = acc.get(key)
                if inner is None:
                    acc[key] = inner = {}
                _add_product(inner, coeff._terms, c._terms)
                if not inner:
                    del acc[key]
        return ExpPoly._trusted({key: Poly._trusted(t) for key, t in acc.items()})

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def const(cls, value: Poly | Scalar) -> "ExpPoly":
        poly = value if isinstance(value, Poly) else Poly.const(value)
        return cls({(ONE, 0): poly})

    @classmethod
    def term(cls, coeff: Poly | Scalar, base: Poly | Scalar, degree: int = 0) -> "ExpPoly":
        coeff_p = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
        base_p = base if isinstance(base, Poly) else Poly.const(base)
        return cls({(base_p, degree): coeff_p})

    # -- views ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Poly, int, Poly]]:
        for (base, degree), coeff in self._terms.items():
            yield base, degree, coeff

    def sorted_terms(self) -> list[tuple[Poly, int, Poly]]:
        def key(item):
            (base, degree), _ = item
            if base.is_const():
                base_key = (0, base.const_value(), "")
            else:
                base_key = (1, Fraction(0), str(base))
            return (base_key, degree)

        ordered = sorted(self._terms.items(), key=key, reverse=True)
        return [(b, d, c) for (b, d), c in ordered]

    def by_base(self) -> dict[Poly, dict[int, Poly]]:
        """``{base: {degree: coeff}}`` with the bases in print order, so what
        is derived base by base (the side conditions) does not depend on the
        order in which the terms were built."""
        grouped: dict[Poly, dict[int, Poly]] = {}
        for base, degree, coeff in self.sorted_terms():
            grouped.setdefault(base, {})[degree] = coeff
        return grouped

    def bases(self) -> set[Poly]:
        return {base for base, _ in self._terms}

    def value_at_zero(self) -> Poly:
        """f(0) as a polynomial; every base contributes via base**0 == 1."""
        total = Poly()
        for (base, degree), coeff in self._terms.items():
            if degree == 0:
                total = total + coeff
        return total

    def drop_zero_base(self) -> "ExpPoly":
        return ExpPoly._trusted({k: v for k, v in self._terms.items() if not k[0].is_zero()})

    def zero_base_part(self) -> Poly:
        total = Poly()
        for (base, degree), coeff in self._terms.items():
            if base.is_zero() and degree == 0:
                total = total + coeff
        return total

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            total = terms[key] + coeff if key in terms else coeff
            if total.is_zero():
                del terms[key]
            else:
                terms[key] = total
        return ExpPoly._trusted(terms)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + other.scale(-1)

    def scale(self, factor: Poly | Scalar) -> "ExpPoly":
        f = factor if isinstance(factor, Poly) else Poly.const(factor)
        if f.is_zero():
            return ExpPoly._trusted({})
        return ExpPoly._trusted({k: c * f for k, c in self._terms.items()})

    def shift(self) -> "ExpPoly":
        """The sequence n -> f(n+1), again as an exponential polynomial.

        coeff*base**(n+1)*(n+1)**d expands through the binomial theorem;
        base-0 terms vanish because 0**(n+1) == 0 for every n >= 0.
        """
        terms: dict[tuple[Poly, int], Poly] = {}
        for (base, degree), coeff in self._terms.items():
            scaled = coeff * base
            if scaled.is_zero():
                continue
            for j in range(degree + 1):
                key = (base, j)
                piece = scaled * math.comb(degree, j)
                terms[key] = terms[key] + piece if key in terms else piece
        return ExpPoly._trusted({k: c for k, c in terms.items() if not c.is_zero()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, n: int, bindings: Mapping[str, Scalar] | None = None) -> Fraction:
        """Exact value at loop iteration ``n`` (with 0**0 == 1)."""
        if n < 0:
            raise ValueError("the loop counter is nonnegative")
        bindings = bindings or {}
        total = Fraction(0)
        for (base, degree), coeff in self._terms.items():
            b = base.evaluate(bindings)
            total += coeff.evaluate(bindings) * b**n * Fraction(n) ** degree
        return total

    def free_symbols(self) -> set[str]:
        out: set[str] = set()
        for (base, _), coeff in self._terms.items():
            out |= base.symbols()
            out |= coeff.symbols()
        return out

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return render_sum(exp_poly_summands(self))

    def __repr__(self) -> str:
        return f"ExpPoly({self})"


# -- rendering ------------------------------------------------------------------

# One summand of a rendered sum: coeff * monomial * n**degree * base**n, with
# base None for a plain polynomial term.
Summand = tuple[Fraction, Mono, int, Poly | None]


@dataclass(frozen=True)
class Style:
    """The surface syntax of a rendered sum, as four format strings: the
    separator between the factors of a product, ``power`` (base,
    exponent), ``fraction`` (numerator, integer denominator) and ``group``
    (a parenthesised base of ``base^n``)."""

    join: str
    power: str
    fraction: str
    group: str


TEXT = Style(join="*", power="{}^{}", fraction="{}/{}", group="({})")
TEX = Style(
    join=" ", power="{}^{{{}}}", fraction=r"\frac{{{}}}{{{}}}", group=r"\left({}\right)"
)


def poly_summands(p: Poly) -> list[Summand]:
    """The terms of ``p`` as summands, in canonical print order."""
    return [(coeff, mono, 0, None) for mono, coeff in p.sorted_terms()]


def exp_poly_summands(f: ExpPoly) -> list[Summand]:
    """The terms of ``f`` flattened to one summand per coefficient monomial,
    in canonical print order."""
    summands: list[Summand] = []
    for base, degree, coeff in f.sorted_terms():
        base_part = None if base == ONE else base
        for mono, q in coeff.sorted_terms():
            summands.append((q, mono, degree, base_part))
    return summands


def render_sum(summands: Iterable[Summand], style: Style = TEXT) -> str:
    r"""Render flat summands as one line in ``style``.

    Every summand is a single product over an integer denominator, e.g.
    ``b^2*n/3 + y(0)^2`` or ``n*2^n/2`` in :data:`TEXT` and
    ``\frac{b^{2} n}{3}`` in :data:`TEX`.
    """
    power, join, fraction = style.power.format, style.join.join, style.fraction.format
    parts: list[str] = []
    # Monomials and bases repeat across summands; each is rendered once.
    mono_texts: dict[Mono, str] = {}
    base_texts: dict[Poly, str] = {}
    for coeff, mono, ndeg, base in summands:
        factors = []
        if mono:
            text = mono_texts.get(mono)
            if text is None:
                text = mono_texts[mono] = join(
                    [name if exp == 1 else power(name, exp) for name, exp in mono]
                )
            factors.append(text)
        if ndeg:
            factors.append("n" if ndeg == 1 else power("n", ndeg))
        if base is not None:
            text = base_texts.get(base)
            if text is None:
                text = base_texts[base] = power(_render_base(base, style), "n")
            factors.append(text)
        num, den = coeff.numerator, coeff.denominator
        negative = num < 0
        if negative:
            num = -num
        if num != 1 or not factors:
            factors.insert(0, str(num))
        body = join(factors)
        if den != 1:
            body = fraction(body, den)
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) if parts else "0"


def _render_base(base: Poly, style: Style) -> str:
    """A base of ``base^n``: bare when it is a nonnegative integer or a single
    symbol, grouped otherwise."""
    terms = base._terms
    if len(terms) == 1:
        [(mono, coeff)] = terms.items()
        if mono == _ONE_MONO and coeff.denominator == 1 and coeff > 0:
            return str(coeff.numerator)
        if len(mono) == 1 and mono[0][1] == 1 and coeff == 1:
            return mono[0][0]
    elif not terms:
        return "0"
    return style.group.format(render_sum(poly_summands(base), style))
