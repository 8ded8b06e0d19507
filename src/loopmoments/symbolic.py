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

* a :class:`Poly` stores integer numerators over one common denominator:
  ``_terms`` maps monomials to nonzero ``int`` numerators and ``_den`` is a
  positive ``int`` with ``gcd(_den, *numerators) == 1``; zero is ``({}, 1)``.
  Each monomial is a tuple of ``(name, exponent)`` pairs sorted by name,
  with distinct names and positive integer exponents;
* an :class:`ExpPoly` maps ``(base, degree)`` keys to nonzero coefficient
  polynomials.

So structural equality is algebraic equality, and equal values hash alike.
No other module reads a value's numerators: the others go through the
public constructors, operations and views.  :class:`~fractions.Fraction`
values appear only at the public surface: the constructors and scalar
operands that accept them, and the views (``Poly.terms()``,
``const_value()``, ``evaluate()``) that give them in lowest terms.  The
kernel does plain ``int`` arithmetic.  Its public sums are the
``linear_combination`` of each family, its quotient is ``Poly.quotient``
(a sum of products divided exactly: the solver's rows) and its residual is
``ExpPoly.residual`` (the solver's self-check).
Every exact sum is an ``_Acc``, and ``_Acc.fold`` is the one loop that adds
a product into one over a common denominator; the keyed sums of ``ExpPoly``
are one ``_Acc`` per key.  A product of two polynomials is folded once per
term of its shorter operand, so a constant operand, on either side, is one
integer multiplier over the other operand's terms, and an empty sum is
started in one dict build, with the product's denominator as it is.  Each
sum is reduced by one gcd at the end, and a scaling by a constant is one
fold into an empty sum.  The sum or difference of two constants is two
integer products over the product of the denominators, reduced once.

Both families print through :func:`render_terms`, the one per-term
formatter: it reads a coefficient's numerators in graded-lex order and makes,
per term, one gcd, one decimal text each of the reduced numerator and
denominator, and the term's signed text.  :func:`render_sum` joins those
texts for ``(base, degree, coeff)`` triples, ``ExpPoly.sorted_terms()`` or
``[(ONE, 0, p)]`` of a polynomial; the JSON writer also takes the decimal
texts for its entries.  A memo of the factor texts is shared by the sums of
one report.

Only the public constructors (``Poly(...)``, ``Poly.monomial``, the
expression reader's ``Poly.sum_of_products`` and ``ExpPoly(...)``)
canonicalise monomials, sum coefficients and drop zeros.  Every operation
builds its result through the private ``_trusted`` constructors, which
store an already canonical value as it is, or through ``_reduced``, which
drops cancelled numerators and divides out their common factor.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

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


@functools.lru_cache(maxsize=1 << 14)
def _mono_mul(a: Mono, b: Mono) -> Mono:
    # A closure multiplies the same few monomials over and over (most
    # products of one analysis are repeats), so, like the grlex keys, the
    # products are cached.
    if not a:
        return b
    if not b:
        return a
    merged: dict[str, int] = dict(a)
    for name, exp in b:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted(merged.items()))


def canonical_mono(mono: Iterable[tuple[str, int]]) -> Mono:
    """``mono`` sorted by name, repeats merged and zero exponents dropped."""
    merged: dict[str, int] = {}
    for name, exp in mono:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {name!r} in a monomial")
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((name, exp) for name, exp in merged.items() if exp))


def _reduced(nums: dict[Mono, int], den: int) -> "Poly":
    """The polynomial ``nums / den`` for a positive ``den``: cancelled (zero)
    numerators are dropped and the common factor of ``den`` and the
    numerators divided out.  ``nums`` may become the result's own dict, so
    the caller hands over one that nothing writes to later."""
    if 0 in nums.values():
        nums = {mono: num for mono, num in nums.items() if num}
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {mono: num // g for mono, num in nums.items()}
    return Poly._trusted(nums, den)


class _Acc:
    """A running sum of exact products, kept as integer numerators over one
    common denominator: :meth:`fold` is the one loop that adds a product,
    :meth:`add` folds ``k*a*b`` once per term of the shorter of ``a`` and
    ``b``, and :meth:`poly` reduces once at the end."""

    __slots__ = ("nums", "den")

    def __init__(self):
        self.nums: dict[Mono, int] = {}
        self.den = 1

    def fold(self, c: "Poly", num: int, den: int, mono: Mono = _ONE_MONO) -> None:
        """``self += num/den * mono * c`` for a positive ``den``.  An empty
        sum is started in one dict build with the product's denominator as
        it is; the dict is its own, a copy when the product is ``c`` itself,
        since later folds write to it.  Otherwise the sum's denominator grows
        to the lcm of the two and the product is scaled up to it."""
        nums = self.nums
        d = c._den * den
        k = num
        if not nums:
            self.den = d
            if mono:
                self.nums = {_mono_mul(mono, m): k * n for m, n in c._terms.items()}
            elif k == 1:
                self.nums = c._terms.copy()
            else:
                self.nums = {m: k * n for m, n in c._terms.items()}
            return
        if d != self.den:
            q, r = divmod(self.den, d)
            if r:
                lcm = math.lcm(self.den, d)
                grow = lcm // self.den
                for m in nums:
                    nums[m] *= grow
                self.den = lcm
                q = lcm // d
            k *= q
        get = nums.get
        if mono:
            for m, n in c._terms.items():
                m = _mono_mul(mono, m)
                nums[m] = get(m, 0) + k * n
        else:
            for m, n in c._terms.items():
                nums[m] = get(m, 0) + k * n

    def add(self, a: "Poly", b: "Poly", k: int = 1) -> None:
        if len(b._terms) < len(a._terms):
            a, b = b, a
        for mono, num in a._terms.items():
            self.fold(b, k * num, a._den, mono)

    def poly(self) -> "Poly":
        return _reduced(self.nums, self.den)


def _mono_degree(a: Mono) -> int:
    return sum(exp for _, exp in a)


@functools.lru_cache(maxsize=1 << 14)
def _grlex_key(mono: Mono) -> tuple:
    # Sorted ascending, these keys give descending graded-lex order: total
    # degree first, then the exponent vector over the sorted names.  Two
    # monomials of equal degree first differ at a name that the larger one
    # lists with a higher exponent (or the other omits), so the comparison
    # needs no symbol universe.  A program has few distinct monomials and
    # every report sorts them again, so the keys are cached.
    return (-_mono_degree(mono), tuple((name, -exp) for name, exp in mono))


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients,
    kept in the module's normal form (integer numerators over one common
    denominator)."""

    __slots__ = ("_terms", "_den", "_hash")

    _terms: dict[Mono, int]
    _den: int

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
                key = canonical_mono(mono)
                q = coeff if type(coeff) is Fraction else Fraction(coeff)
                clean[key] = clean[key] + q if key in clean else q
        clean = {mono: q for mono, q in clean.items() if q}
        # Over the lcm of lowest-terms denominators the numerators already
        # share no factor with the denominator.
        den = math.lcm(*(q.denominator for q in clean.values()))
        self._terms = {mono: q.numerator * (den // q.denominator) for mono, q in clean.items()}
        self._den = den
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, terms: dict[Mono, int], den: int = 1) -> "Poly":
        """Wrap ``terms / den`` as they are; they must already be in normal form."""
        poly = object.__new__(cls)
        poly._terms = terms
        poly._den = den
        poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        if type(value) is int:
            return cls._trusted({_ONE_MONO: value} if value else {})
        q = value if type(value) is Fraction else Fraction(value)
        return cls._trusted({_ONE_MONO: q.numerator} if q else {}, q.denominator)

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._trusted({((name, 1),): 1})

    @staticmethod
    def linear_combination(pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
        """``sum a * b`` over ``(a, b)`` pairs, summed over one common
        denominator and reduced once."""
        acc = _Acc()
        for a, b in pairs:
            acc.add(a, b)
        return acc.poly()

    @staticmethod
    def quotient(
        products: Iterable[tuple[int, "Poly", "Poly"]], divisor: "Poly", times: int = 1
    ) -> "Poly | None":
        """``sum k*a*b / (times*divisor)`` over the ``(k, a, b)`` of
        ``products`` (``times`` a positive integer), or None when the division
        has a remainder.  The products are summed over one common denominator;
        a constant divisor is taken into that sum, reduced once, and any other
        goes through long division against the graded-lex leading term."""
        if divisor.is_zero():
            raise ZeroDivisionError("division of polynomial by zero")
        # For a constant divisor, times*divisor = d/e: each product is folded
        # in times e, with the sign of d, and the sum's denominator is then
        # multiplied by |d|.
        num, den = 1, 1
        if divisor.is_const():
            den = divisor._terms[_ONE_MONO] * times
            num = divisor._den if den > 0 else -divisor._den
        acc = _Acc()
        for k, a, b in products:
            acc.add(a, b, k * num)
        if divisor.is_const():
            acc.den *= abs(den)
            return acc.poly()
        divisor = divisor._scaled(times)

        def leading(p: Poly) -> tuple[Mono, Fraction]:
            mono = min(p._terms, key=_grlex_key)
            return mono, Fraction(p._terms[mono], p._den)

        result = ZERO
        rem = acc.poly()
        lead_d, coeff_d = leading(divisor)
        d_exps = dict(lead_d)
        while not rem.is_zero():
            lead_r, coeff_r = leading(rem)
            r_exps = dict(lead_r)
            exps = {s: r_exps.get(s, 0) - d_exps.get(s, 0) for s in set(r_exps) | set(d_exps)}
            if any(e < 0 for e in exps.values()):
                return None
            q = coeff_r / coeff_d
            factor = Poly._trusted({canonical_mono(exps.items()): q.numerator}, q.denominator)
            result = result + factor
            rem = rem - factor * divisor
        return result

    @classmethod
    def monomial(cls, mono: Iterable[tuple[str, int]]) -> "Poly":
        """The monomial of ``(name, exponent)`` pairs (see :func:`canonical_mono`)."""
        return cls._trusted({canonical_mono(mono): 1})

    @staticmethod
    def sum_of_products(products: Iterable[tuple[int, int, Iterable[str]]]) -> "Poly":
        """``sum num/den * name_1 * ... * name_m`` over the ``(num, den,
        names)`` of ``products``, each ``den`` positive; a repeated name is a
        power.  The numerators are added over one common denominator and
        reduced once."""
        products = list(products)
        common = math.lcm(*(den for _, den, _ in products))
        nums: dict[Mono, int] = {}
        for num, den, names in products:
            mono = canonical_mono((name, 1) for name in names)
            nums[mono] = nums.get(mono, 0) + num * (common // den)
        return _reduced(nums, common)

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
        return Fraction(self._terms[_ONE_MONO], self._den)

    def symbols(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    def terms(self) -> Iterator[tuple[Mono, Fraction]]:
        den = self._den
        return ((mono, Fraction(num, den)) for mono, num in self._terms.items())

    def split(self, names: set[str] | frozenset[str]) -> dict[Mono, "Poly"]:
        """Group by the part of each monomial over ``names``:
        ``{part: coeff}`` with ``self == sum part * coeff`` and no symbol of
        ``names`` left in any ``coeff``."""
        buckets: dict[Mono, dict[Mono, int]] = {}
        for mono, num in self._terms.items():
            part, rest = [], []
            for factor in mono:
                (part if factor[0] in names else rest).append(factor)
            buckets.setdefault(tuple(part), {})[tuple(rest)] = num
        return {part: _reduced(nums, self._den) for part, nums in buckets.items()}

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def _plus(self, other, k: int) -> "Poly":
        """``self + k*other``, both operands summed into one accumulator, or
        two constants (zero among them) cross-multiplied in integers."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if self.is_const() and o.is_const():
            num = a.get(_ONE_MONO, 0) * o._den + k * b.get(_ONE_MONO, 0) * self._den
            return _reduced({_ONE_MONO: num}, self._den * o._den)
        acc = _Acc()
        acc.add(ONE, self)
        acc.add(ONE, o, k)
        return acc.poly()

    def __add__(self, other) -> "Poly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._trusted({m: -n for m, n in self._terms.items()}, self._den)

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._terms, o._terms
        if len(b) == 1 and _ONE_MONO in b:
            return self._scaled(b[_ONE_MONO], o._den)
        if len(a) == 1 and _ONE_MONO in a:
            return o._scaled(a[_ONE_MONO], self._den)
        acc = _Acc()
        acc.add(self, o)
        return acc.poly()

    __rmul__ = __mul__

    def _scaled(self, num: int, den: int = 1) -> "Poly":
        """``self * num/den`` for nonzero integers ``num`` and ``den``."""
        if num == den:
            return self
        acc = _Acc()
        acc.fold(self, num if den > 0 else -num, abs(den))
        return acc.poly()

    def __truediv__(self, other) -> "Poly":
        # Exact division by a nonzero rational only; polynomial divisors go
        # through quotient so callers must handle failure explicitly.
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of polynomial by zero")
            return self._scaled(other.denominator, other.numerator)
        return NotImplemented

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = ONE
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
        return self._den == o._den and self._terms == o._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._terms.items()), self._den))
        return self._hash

    # -- substitution, evaluation, division ---------------------------------

    def substitute(self, name: str, power: Callable[[int], "Poly"]) -> "Poly":
        """``sum_k c_k * power(k)`` for ``self == sum_k c_k * name^k``: each
        power of ``name`` is replaced by a known polynomial and the result
        expanded (``p.substitute("x", q.__pow__)`` replaces ``x`` by ``q``).
        ``power(0)`` must be 1: ``self`` is returned as it is when ``name`` is
        absent.

        One pass groups the numerators by the exponent of ``name``; each
        group, still over ``self``'s denominator and so not reduced, is
        folded with ``power(k)`` into one sum, which is reduced once."""
        groups: dict[int, dict[Mono, int]] = {}
        for mono, num in self._terms.items():
            k, rest = 0, mono
            for i, (sym, exp) in enumerate(mono):
                if sym == name:
                    k, rest = exp, mono[:i] + mono[i + 1 :]
                    break
            groups.setdefault(k, {})[rest] = num
        if groups.keys() <= {0}:
            return self
        acc = _Acc()
        for k, nums in groups.items():
            # Read by the fold only; it never escapes.
            acc.add(Poly._trusted(nums, self._den), power(k))
        return acc.poly()

    def evaluate(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Exact value under a full binding of the symbols."""
        total = Fraction(0)
        for mono, num in self._terms.items():
            value = Fraction(num)
            for sym, exp in mono:
                if sym not in bindings:
                    raise UnboundSymbolError(sym)
                value *= Fraction(bindings[sym]) ** exp
            total += value
        return total / self._den

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        return render_sum([(ONE, 0, self)])

    def __repr__(self) -> str:
        return f"Poly({self})"


ZERO = Poly._trusted({})
ONE = Poly.const(1)


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
        # A copy keeps the keys' hashes; only the zero coefficients are dropped.
        self._terms = dict(terms or {})
        for key in [key for key, coeff in self._terms.items() if coeff.is_zero()]:
            del self._terms[key]

    @classmethod
    def _trusted(cls, terms: dict[tuple[Poly, int], Poly]) -> "ExpPoly":
        """Wrap ``terms`` as they are; no coefficient may be zero."""
        f = object.__new__(cls)
        f._terms = terms
        return f

    @staticmethod
    def linear_combination(pairs: Iterable[tuple[Poly, "ExpPoly"]]) -> "ExpPoly":
        """``sum coeff * f`` over ``(coeff, f)`` pairs, summed per
        ``(base, degree)`` key over one common denominator without building
        the intermediate values."""
        accs: defaultdict[tuple[Poly, int], _Acc] = defaultdict(_Acc)
        for coeff, f in pairs:
            for mono, num in coeff._terms.items():
                for key, c in f._terms.items():
                    accs[key].fold(c, num, coeff._den, mono)
        return ExpPoly._summed(accs)

    @classmethod
    def _summed(cls, accs: dict[tuple[Poly, int], _Acc]) -> "ExpPoly":
        """The sums of ``accs``, without the keys whose sum cancelled."""
        terms = {}
        for key, acc in accs.items():
            coeff = acc.poly()
            if coeff._terms:
                terms[key] = coeff
        return cls._trusted(terms)

    def residual(self, c: Poly, inhom: "ExpPoly") -> "ExpPoly":
        """``f(n+1) - c*f(n) - inhom(n)`` for ``f = self`` in one exact pass,
        the zero value without reducing a sum when all numerators cancel.
        ``coeff*base**(n+1)*(n+1)**d - c*coeff*base**n*n**d`` is
        ``base*C(d, j)*coeff`` at each degree ``j < d`` and ``(base -
        c)*coeff`` at ``d`` (``-c*coeff`` for base 0: ``0**(n+1) == 0``)."""
        accs: defaultdict[tuple[Poly, int], _Acc] = defaultdict(_Acc)
        deltas: dict[Poly, Poly] = {}
        for (base, degree), coeff in self._terms.items():
            delta = deltas.get(base)
            if delta is None:
                delta = deltas[base] = base - c
            for j in range(degree):
                accs[(base, j)].add(base, coeff, math.comb(degree, j))
            accs[(base, degree)].add(delta, coeff)
        for key, c in inhom._terms.items():
            accs[key].fold(c, -1, 1)
        if any(any(acc.nums.values()) for acc in accs.values()):
            return ExpPoly._summed(accs)
        return ExpPoly._trusted({})

    # -- constructors --------------------------------------------------------

    @classmethod
    def const(cls, value: Poly | Scalar) -> "ExpPoly":
        poly = value if isinstance(value, Poly) else Poly.const(value)
        return cls({(ONE, 0): poly})

    # -- views ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Poly, int, Poly]]:
        for (base, degree), coeff in self._terms.items():
            yield base, degree, coeff

    def sorted_terms(self) -> list[tuple[Poly, int, Poly]]:
        """Terms in print order: symbolic bases before constant ones, bases
        descending (constants by value, symbolic ones by their text), then
        degrees descending."""
        # Few distinct bases carry many terms, and often there is one: the
        # terms are grouped by base in one pass, then the bases and each
        # base's degrees are put in order.
        groups: dict[Poly, list[tuple[int, Poly]]] = {}
        for (base, degree), coeff in self._terms.items():
            groups.setdefault(base, []).append((degree, coeff))
        bases = list(groups)
        if len(bases) > 1:
            symbolic: list[Poly] = []
            consts: list[Poly] = []
            for base in bases:
                (consts if base.is_const() else symbolic).append(base)
            symbolic.sort(key=str, reverse=True)
            # Over the common denominator of the constant bases their
            # numerators compare exactly as the values do.
            den = math.lcm(*(base._den for base in consts))
            consts.sort(
                key=lambda base: base._terms.get(_ONE_MONO, 0) * (den // base._den), reverse=True
            )
            bases = symbolic + consts
        out = []
        for base in bases:
            group = groups[base]
            group.sort(reverse=True)  # the degrees differ: no coefficient is compared
            out += [(base, degree, coeff) for degree, coeff in group]
        return out

    def value_at_zero(self) -> Poly:
        """f(0) as a polynomial; every base contributes via base**0 == 1."""
        return Poly.linear_combination(
            (ONE, coeff) for (_, degree), coeff in self._terms.items() if degree == 0
        )

    def zero_base_part(self) -> Poly:
        """The coefficient of the ``n == 0`` indicator ``0**n``."""
        return self._terms.get((ZERO, 0), ZERO)

    # -- equality -------------------------------------------------------------

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

    # -- rendering --------------------------------------------------------------

    def __str__(self) -> str:
        return render_sum(self.sorted_terms())

    def __repr__(self) -> str:
        return f"ExpPoly({self})"


# -- rendering ------------------------------------------------------------------


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


def render_terms(
    base: Poly, ndeg: int, coeff: Poly, style: Style, texts: dict
) -> Iterator[tuple[Mono, str, str, str]]:
    r"""The terms of ``coeff * n**ndeg * base**n`` in print order, the
    monomials of ``coeff`` in descending graded-lex order, each as
    ``(monomial, numerator, denominator, piece)``: the coefficient in lowest
    terms as decimal texts, and the term as a single product over an integer
    denominator in ``style``, signed for a sum (`` + b^2*n/3``,
    `` - n*2^n/2``, `` + \frac{b^{2} n}{3}``); :func:`joined` sums the
    pieces.  ``texts`` memoises the texts of the ``n**ndeg * base**n``
    factors and of the monomials in ``style``: they repeat, so a caller
    passes one dict to the sums of one report."""
    power, sep = style.power.format, style.join
    tail = texts.get((base, ndeg))
    if tail is None:  # the factors that every term shares
        tail = ["n" if ndeg == 1 else power("n", ndeg)] if ndeg else []
        if base != ONE:
            tail.append(power(_render_base(base, style), "n"))
        tail = texts[(base, ndeg)] = sep.join(tail)
    den, nums = coeff._den, coeff._terms
    for mono in sorted(nums, key=_grlex_key) if len(nums) > 1 else nums:
        num, d = nums[mono], den
        g = math.gcd(num, d)
        if g != 1:
            num //= g
            d //= g
        num_text, den_text = str(num), str(d)
        rest = tail
        if mono:
            rest = texts.get(mono)
            if rest is None:
                rest = texts[mono] = sep.join(
                    [name if exp == 1 else power(name, exp) for name, exp in mono]
                )
            if tail:
                rest += sep + tail
        if num < 0:
            sign, body = " - ", num_text[1:]
        else:
            sign, body = " + ", num_text
        if rest:
            body = rest if body == "1" else body + sep + rest
        if d != 1:
            body = style.fraction.format(body, den_text)
        yield mono, num_text, den_text, sign + body


def joined(pieces: list[str]) -> str:
    """The sum of the signed pieces of :func:`render_terms`, ``0`` if none."""
    text = "".join(pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def render_sum(terms: Iterable[tuple[Poly, int, Poly]], style: Style = TEXT) -> str:
    """The sum of ``coeff * n**degree * base**n`` over ``(base, degree,
    coeff)`` triples, ``ExpPoly.sorted_terms()`` or ``[(ONE, 0, p)]`` for a
    polynomial ``p``, as one line in ``style`` (see :func:`render_terms`)."""
    texts: dict = {}
    return joined(
        [piece for triple in terms for _, _, _, piece in render_terms(*triple, style, texts)]
    )


def _render_base(base: Poly, style: Style) -> str:
    """A base of ``base^n``: bare when it is a nonnegative integer or a single
    symbol, grouped otherwise."""
    terms = base._terms
    if len(terms) == 1 and base._den == 1:
        [(mono, num)] = terms.items()
        if mono == _ONE_MONO and num > 0:
            return str(num)
        if len(mono) == 1 and mono[0][1] == 1 and num == 1:
            return mono[0][0]
    elif not terms:
        return "0"
    return style.group.format(render_sum([(ONE, 0, base)], style))
