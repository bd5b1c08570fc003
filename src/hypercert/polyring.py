"""Sparse multivariate polynomials over Q(i) with weighted gradings.

A ``Ring`` fixes the variable names, one positive integer weight per
variable, and whether Gaussian (complex) coefficients are allowed.
``MultiPoly`` stores a map from exponent vectors to nonzero coefficients.
``UniPoly``, the real-root machinery's dense univariate polynomial, keeps
int numerators over one positive denominator, and no ring arithmetic.

The multivariate kernel works on integers.  A product scales each operand
by the lcm of its coefficient denominators, accumulates the (re, im) int
numerators of the product on exponent-vector keys, and divides back into
a normalised Gaussian rational once per output term.  Exact division is
long division by the divisor's graded-lex leading term on one remainder of
(re, im) int numerators over a common denominator, whose leading term a
heap of graded-lex keys yields.  Only the results are converted back to
GaussianRational.

One evaluator, :func:`_monomial_evaluator` (one multiply per monomial),
gives every value of a multivariate polynomial (``MultiPoly.eval`` and
the lattice checks of :mod:`hypercert.detrep` through :func:`_evaluator`,
and a sampled line's int Taylor rows), in ints at an integer point.

The ASCII grammar implemented by :func:`parse` / ``MultiPoly.__str__`` is the
single wire format for polynomials in files, CLI arguments and matrix JSON:
identifiers from the ring, operators ``+ - * ^`` with standard precedence,
parentheses, integer and ``p/q`` rational literals, and the literal token
``i`` for the imaginary unit in Gaussian rings.  Literals are ASCII digits
and names ASCII identifiers; whitespace is insignificant, and any other
character is a ParseError naming it and its position.  So is a power
whose coefficients are estimated to pass the longest literal int()
converts, and a power n > 1 of a sum that may expand to more than 1,000
terms (``_MAX_TERMS``; :meth:`_Parser.expansion`): ``(x0+x1+x2)^43``, of
990 terms, parses, and ``(x0+x1+x2)^44``, of up to 1,035, is refused.  So
is a product of two sums with more than 10,000 pairs of nonzero terms
(``_MAX_PAIRS``; :meth:`_Parser.product`), which seven linear forms in six
variables, at most 462 * 6 = 2,772, stay under.

Parsing builds terms directly.  Each subexpression is a dict from exponent
vectors to (re, im) pairs of ints or Fractions, and each signed term of a
sum is added into it in place.  A term reads its simple factors (a name, the
unit i or an integer literal, maybe raised to ^digits) straight into one
exponent list and one (re, im) pair; the grammar parses any other factor
from its first token, so every ParseError has one source.  A product with a
one-term factor shifts the exponent vectors and multiplies the pairs, and a
one-term base is raised to its power directly.  Only a product or power of
two multi-term subexpressions (parenthesised sums) runs the MultiPoly
kernel.  The coefficients become GaussianRational once, at the end, where
zero terms are dropped.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, is_, mul, neg, sub
from typing import Callable, Iterable, Optional, Sequence, Union

from .scalars import (
    _ZERO,
    GR_ONE,
    GaussianRational,
    RationalLike,
    _gaussian,
    _over_integers,
    as_fraction,
)

CoeffLike = Union[GaussianRational, Fraction, int]


class ParseError(ValueError):
    """Raised for malformed polynomial text."""


def _as_coeff(value: CoeffLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class Ring:
    """An ordered list of variables (ASCII identifiers) with positive weights.

    ``gaussian`` enables coefficients in Q(i); otherwise any imaginary part
    is rejected.  A distinguished variable (conventionally ``y``) may carry
    weight > 1, which is how companion-form gradings are expressed.
    """

    __slots__ = ("variables", "weights", "gaussian")

    def __init__(self, variables: tuple[str, ...], weights: tuple[int, ...], gaussian: bool = False):
        if len(variables) != len(weights):
            raise ValueError("one weight per variable required")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for name in variables:
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"invalid variable name {name!r}")
        if gaussian and "i" in variables:
            raise ValueError("'i' denotes the imaginary unit in a gaussian ring")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        for name, value in (("variables", variables), ("weights", weights), ("gaussian", gaussian)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not Ring:
            return NotImplemented
        return (self.variables, self.weights, self.gaussian) == (other.variables, other.weights, other.gaussian)

    def __hash__(self):
        return hash((self.variables, self.weights, self.gaussian))

    def __repr__(self) -> str:
        return f"Ring(variables={self.variables!r}, weights={self.weights!r}, gaussian={self.gaussian!r})"

    @classmethod
    def standard(cls, variables: Sequence[str], gaussian: bool = False) -> "Ring":
        names = tuple(variables)
        return cls(names, (1,) * len(names), gaussian)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def weighted_degree(self, expo: tuple[int, ...]) -> int:
        return sum(map(mul, self.weights, expo))

    def without(self, name: str) -> "Ring":
        idx = self.index(name)
        return Ring(
            self.variables[:idx] + self.variables[idx + 1 :],
            self.weights[:idx] + self.weights[idx + 1 :],
            self.gaussian,
        )


def _monomial_evaluator(polys: Sequence[Iterable[tuple[tuple[int, ...], int]]]) -> Callable:
    """values(x) = [poly(x) for poly in polys] at a rational point x, for
    polynomials given as (exponent vector, int coefficient) pairs: each
    distinct monomial is one multiply from its parent, the monomial with the
    exponent of its last variable that occurs lowered by one, in a tree of
    monomials built once, down to 1.  At an integer point they are ints."""
    child: dict[tuple[int, int], int] = {}  # (monomial, variable) -> their product, numbered from 1; 0 is 1

    def node(e: tuple[int, ...]) -> int:
        k = 0
        for j, a in enumerate(e):
            while a:
                a, k = a - 1, child.setdefault((k, j), len(child) + 1)
        return k

    sums = [[(node(e), c) for e, c in terms] for terms in polys]
    steps = list(child)  # monomial k + 1 is monomial steps[k][0] times x_{steps[k][1]}

    def values(x: Sequence[Union[int, Fraction]]) -> list:
        x = [c.numerator if c.denominator == 1 else c for c in x]
        monos = [1]
        for k, j in steps:
            monos.append(monos[k] * x[j])
        return [sum([c * monos[k] for k, c in terms]) if terms else 0 for terms in sums]

    return values


def _evaluator(polys: Sequence[dict[tuple[int, ...], GaussianRational]]) -> tuple:
    """(D, values): D the lcm of the denominators in the terms dicts ``polys``
    and values(x) the parts Re D*poly(x), then Im D*poly(x), at a rational
    point x, by :func:`_monomial_evaluator` on each dict's two int parts."""
    den, scaled = _over_integers([c for terms in polys for c in terms.values()])
    pairs = [[(e, scaled(c)) for e, c in terms.items()] for terms in polys]
    return den, _monomial_evaluator([[(e, c[part]) for e, c in terms if c[part]] for part in (0, 1) for terms in pairs])


def _exact(v: Sequence, den: int) -> GaussianRational:
    """The (re, im) pair v divided by den, as a Gaussian rational."""
    return _gaussian(Fraction(v[0], den), Fraction(v[1], den) if v[1] else _ZERO)


class MultiPoly:
    """Sparse polynomial: exponent-vector -> nonzero GaussianRational.

    The dict is the only storage.  Products and exact division scale its
    coefficients to int numerators over one denominator for their inner
    loops, keyed by the same exponent vectors (see the module docstring),
    and divide back once per result term, so their results are the same
    normalised dicts that term-by-term arithmetic would give.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[tuple[int, ...], GaussianRational]):
        # Trusted constructor: terms must already be normalized (no zeros,
        # correct arity).  Use the class methods for safe construction.
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "MultiPoly":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Ring, value: CoeffLike) -> "MultiPoly":
        c = _as_coeff(value)
        if c.im and not ring.gaussian:
            raise ValueError("imaginary coefficient in a non-gaussian ring")
        if c.is_zero():
            return cls.zero(ring)
        return cls(ring, {(0,) * ring.arity: c})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> "MultiPoly":
        idx = ring.index(name)
        expo = tuple(1 if k == idx else 0 for k in range(ring.arity))
        return cls(ring, {expo: GR_ONE})

    @classmethod
    def from_terms(
        cls, ring: Ring, items: Iterable[tuple[tuple[int, ...], CoeffLike]]
    ) -> "MultiPoly":
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for expo, coeff in items:
            expo = tuple(expo)
            if len(expo) != ring.arity or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo}")
            c = _as_coeff(coeff)
            if c.im and not ring.gaussian:
                raise ValueError("imaginary coefficient in a non-gaussian ring")
            acc = terms.get(expo)
            c = acc + c if acc is not None else c
            if c.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = c
        return cls(ring, terms)

    # -- basic predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_real(self) -> bool:
        return all(not c.im for c in self.terms.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- degree and homogeneity ---------------------------------------------

    def weighted_degree(self) -> Optional[int]:
        """Max weighted degree over terms; None for the zero polynomial
        (callers must branch on it, there is no sentinel number)."""
        if not self.terms:
            return None
        wd = self.ring.weighted_degree
        return max(wd(e) for e in self.terms)

    def is_weighted_homogeneous(self) -> bool:
        if not self.terms:
            return True
        wd = self.ring.weighted_degree
        degrees = {wd(e) for e in self.terms}
        return len(degrees) == 1

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "MultiPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo)
            if acc is None:
                terms[expo] = coeff
            else:
                s = acc + coeff
                if s.is_zero():
                    del terms[expo]
                else:
                    terms[expo] = s
        return MultiPoly(self.ring, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_ring(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.ring)
        den_a, scaled_a = _over_integers(list(self.terms.values()))
        den_b, scaled_b = _over_integers(list(other.terms.values()))
        b = [(e, scaled_b(c)) for e, c in other.terms.items()]
        acc: dict[tuple[int, ...], tuple[int, int]] = {}  # exponent vector -> (re, im) over den_a*den_b
        get = acc.get
        for ea, c in self.terms.items():
            ar, ai = scaled_a(c)
            for eb, (br, bi) in b:
                e = tuple(map(add, ea, eb))
                r, i = get(e, (0, 0))
                acc[e] = r + ar * br - ai * bi, i + ar * bi + ai * br
        return MultiPoly(self.ring, {e: _exact(v, den_a * den_b) for e, v in acc.items() if v[0] or v[1]})

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if n == 0:
            return MultiPoly.constant(self.ring, 1)
        # Square and multiply, the result starting from the first factor.
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def scale(self, c: CoeffLike) -> "MultiPoly":
        c = _as_coeff(c)
        if c.is_zero():
            return MultiPoly.zero(self.ring)
        return MultiPoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def conjugate(self) -> "MultiPoly":
        """Coefficient-wise complex conjugation (an involution)."""
        return MultiPoly(self.ring, {e: c.conj() for e, c in self.terms.items()})

    # -- evaluation and substitution ------------------------------------------

    def eval(self, point: Sequence[RationalLike]) -> GaussianRational:
        """The value at a rational point, by :func:`_evaluator`."""
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        den, values = _evaluator([self.terms])
        return _exact(values([as_fraction(c) for c in point]), den)

    def eval_rational(self, point: Sequence[RationalLike]) -> Fraction:
        value = self.eval(point)
        if value.im:
            raise ArithmeticError("evaluation produced an imaginary value")
        return value.re

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Ring morphism sending variable k to images[k] (all in one target ring)."""
        if len(images) != self.ring.arity:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("substitution needs a target ring")
        target = images[0].ring
        for img in images:
            if img.ring != target:
                raise ValueError("images live in different rings")
        powers: list[dict[int, MultiPoly]] = [dict() for _ in images]
        one = MultiPoly.constant(target, 1)

        def power(k: int, e: int) -> MultiPoly:
            if e == 0:
                return one
            cache = powers[k]
            got = cache.get(e)
            if got is None:
                got = images[k] ** e
                cache[e] = got
            return got

        total = MultiPoly.zero(target)
        for expo, coeff in self.terms.items():
            term = MultiPoly.constant(target, coeff)
            for k, e in enumerate(expo):
                if e:
                    term = term * power(k, e)
            total = total + term
        return total

    def lift(self, target: Ring) -> "MultiPoly":
        """Reinterpret in a larger ring containing the same variable names."""
        idx = [target.index(v) for v in self.ring.variables]
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * target.arity
            for k, e in zip(idx, expo):
                new[k] = e
            terms[tuple(new)] = coeff
        return MultiPoly(target, terms)

    # -- term order -------------------------------------------------------------

    def _glex_key(self, expo: tuple[int, ...]) -> tuple:
        return (self.ring.weighted_degree(expo), expo)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], GaussianRational]]:
        """Terms in descending graded-lex order (grading by ring weights)."""
        return sorted(self.terms.items(), key=lambda t: self._glex_key(t[0]), reverse=True)

    def leading_term(self) -> tuple[tuple[int, ...], GaussianRational]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms, key=self._glex_key)
        return expo, self.terms[expo]

    def leading_coefficient(self) -> GaussianRational:
        return self.leading_term()[1]

    # -- exact division -----------------------------------------------------------

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / divisor; raises ArithmeticError if inexact.

        Long division by the divisor's graded-lex leading term L.  In an
        integral domain the leading monomial of the remainder strictly
        decreases, so this terminates, and exactness fails loudly.

        The remainder maps exponent vectors to (re, im) int numerators over
        one denominator ``scale``; a heap of its negated graded-lex keys
        yields its leading term.  A quotient term is R*conj(L)/|L|^2 for the
        remainder's leading numerator R, and the remainder is multiplied
        through only by the part of |L|^2 that does not cancel, which is 1
        whenever the quotient term is integral in the remainder's scale.
        """
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        scale, scaled = _over_integers(list(self.terms.values()))
        rem = {e: scaled(c) for e, c in self.terms.items()}  # a term that cancels stays, as (0, 0)
        den, scaled = _over_integers(list(divisor.terms.values()))
        lead, c = divisor.leading_term()
        lead_re, lead_im = scaled(c)
        others = [(e, scaled(c)) for e, c in divisor.terms.items() if e != lead]
        norm = lead_re * lead_re + lead_im * lead_im
        wd = self.ring.weighted_degree
        heap = [(-wd(e), tuple(map(neg, e))) for e in rem]  # one key per remainder term
        heapify(heap)
        quotient: dict[tuple[int, ...], GaussianRational] = {}
        while heap:
            expo = tuple(map(neg, heappop(heap)[1]))
            r_re, r_im = rem.pop(expo)
            if not (r_re or r_im):
                continue
            step = tuple(map(sub, expo, lead))
            if min(step, default=0) < 0:
                raise ArithmeticError("polynomial division is not exact")
            t_re, t_im = r_re * lead_re + r_im * lead_im, r_im * lead_re - r_re * lead_im
            g = math.gcd(t_re, t_im, norm)
            u, v, f = t_re // g, t_im // g, norm // g
            quotient[step] = _exact((u * den, v * den), scale * f)
            if f != 1:
                rem, scale = {k: (a * f, b * f) for k, (a, b) in rem.items()}, scale * f
            for e, (n_re, n_im) in others:
                k = tuple(map(add, step, e))
                if k not in rem:
                    heappush(heap, (-wd(k), tuple(map(neg, k))))
                a, b = rem.get(k, (0, 0))
                rem[k] = a - u * n_re + v * n_im, b - u * n_im - v * n_re
        return MultiPoly(self.ring, quotient)

    __floordiv__ = divide_exact  # so that the integer Bareiss loop runs on polynomials

    # -- formatting ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# ---------------------------------------------------------------------------
# Parsing and formatting
# ---------------------------------------------------------------------------

# The tokens: an ASCII integer, an ASCII identifier or an operator.  Any
# other character but whitespace is an error, found by ``_BAD_CHAR`` first.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*^/()]")
_BAD_CHAR = re.compile(r"[^\s0-9A-Za-z_*^/()+-]")
_OPS = set("+-*^/()")
_UNITS = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}  # (re, im) of zero and the units of Z[i]
_MAX_TERMS = 1000  # the most terms a power of a sum may expand to (see the module docstring)
_MAX_PAIRS = 10000  # the most pairs of terms a product of two sums may multiply
_LITERAL = re.compile(r"(-?[0-9]+)?(?:((?(1)[-+]|-?))(?:([0-9]+)\*)?(i))?")

# A parsed subexpression: exponent vector -> (re, im), each part an int or a
# Fraction.  Zero coefficients may be present until the final conversion.
_Terms = dict[tuple[int, ...], tuple[Union[int, Fraction], Union[int, Fraction]]]


def _terms_of(poly: MultiPoly) -> _Terms:
    return {e: (c.re, c.im) for e, c in poly.terms.items()}


def _poly_of(ring: Ring, terms: _Terms) -> MultiPoly:
    """The MultiPoly of a term dict: each coefficient becomes a
    GaussianRational once, and zero terms are dropped."""
    return MultiPoly(
        ring,
        {
            e: _gaussian(as_fraction(re), as_fraction(im) if im else _ZERO)
            for e, (re, im) in terms.items()
            if re or im
        },
    )


def _pair_pow(re, im, n: int):
    """(re + im*i)^n by square and multiply, for n >= 1."""
    if not im:
        return re**n, 0
    out_re, out_im = 1, 0
    while True:
        if n & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        n >>= 1
        if not n:
            return out_re, out_im
        re, im = re * re - im * im, 2 * re * im


class _Parser:
    """Recursive descent over the token list; ``term`` adds into the dict
    of its sum, and the methods below it return a fresh term dict that
    their caller may update in place."""

    __slots__ = ("text", "tokens", "ring", "pos", "one", "index")

    def __init__(self, text: str, ring: Ring):
        bad = _BAD_CHAR.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r} at position {bad.start()}")
        tokens = _TOKEN.findall(text)
        if not tokens:
            raise ParseError("empty polynomial text")
        tokens += ("", "")  # end of input, and one token of look-ahead past it
        self.text = text
        self.tokens = tokens
        self.ring = ring
        self.pos = 0
        self.one = (0,) * ring.arity
        # A simple factor's name: a variable's place, or -1 for the unit i.
        self.index = dict(zip(ring.variables, range(ring.arity)))
        if ring.gaussian:
            self.index["i"] = -1

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if not tok:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def start(self, k: int) -> int:
        """Start position of token ``k``, found only for error messages."""
        return [m.start() for m in _TOKEN.finditer(self.text)][k]

    def at(self) -> int:
        """Start position of the token last taken."""
        return self.start(self.pos - 1)

    def integer(self, tok: str) -> int:
        """int(tok) for the digit token last taken; a literal longer than
        int() converts (see sys.get_int_max_str_digits) is a ParseError."""
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"integer literal of {len(tok)} digits is too long at position {self.at()}") from None

    def bound(self, n: int, size: int, k: int) -> None:
        """A ParseError at token k, where a power starts, if n times the bit
        length of ``size``, its base's, passes the longest literal int() converts."""
        limit, bits = sys.get_int_max_str_digits(), n * size.bit_length()
        if limit and bits > 3 * limit and bits > (10**limit - 1).bit_length():
            raise ParseError(f"power of about {bits} bits is too large at position {self.start(k)}")

    def expansion(self, base: _Terms, n: int, k: int) -> None:
        """A ParseError at token k if base^n, n > 1, may have more than
        _MAX_TERMS terms: C(t + n - 1, n) for its t nonzero terms, or the
        monomials of degree at most n * deg(base) in its variables, if fewer."""
        support = [e for e, (re, im) in base.items() if re or im]
        used = sum(map(any, zip(*support)))
        terms = min(math.comb(len(support) + n - 1, n), math.comb(used + n * max(map(sum, support), default=0), used))
        if n > 1 and terms > _MAX_TERMS:
            raise ParseError(f"power of up to {terms} terms is too large at position {self.start(k)}")

    def raised(self, re, im, n: int, k: int) -> tuple:
        """(re + im*i)^n, bounded by the base's largest numerator or denominator unless it is 0 or a unit."""
        if (re, im) not in _UNITS:
            self.bound(n, max(max(abs(q.numerator), q.denominator) for q in (re, im)), k)
        return _pair_pow(re, im, n)

    def parse(self) -> MultiPoly:
        terms = self.expr()
        tok = self.tokens[self.pos]
        if tok:
            raise ParseError(f"unexpected token {tok!r} at position {self.start(self.pos)}")
        return _poly_of(self.ring, terms)

    def expr(self) -> _Terms:
        terms: _Terms = {}
        op = self.tokens[self.pos]  # a leading sign, then the one before each term
        while True:
            if op == "+" or op == "-":
                self.pos += 1
            self.term(terms, op == "-")
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return terms

    def term(self, terms: _Terms, negative: bool) -> None:
        """Add a product of factors, negated or not, into ``terms``.  Simple
        factors (a name, i or an integer literal, maybe raised to ^digits) go
        straight into one exponent list and one (re, im) pair; factor() reads
        any other from its first token, so every ParseError comes from there."""
        tokens, index = self.tokens, self.index
        expo, re, im, rest = [0] * len(self.one), -1 if negative else 1, 0, None
        while True:
            tok, after = tokens[self.pos], self.pos + 1
            k, n = index.get(tok), 1
            try:  # ValueError: not a name or an integer, p/q, ^ of no digits, too long
                if k is None and tokens[after] == "/":
                    raise ValueError("a rational literal")
                if tokens[after] == "^":
                    n, after = int(tokens[after + 1]), after + 2
                if k is None:
                    value = self.raised(int(tok), 0, n, self.pos)[0] if n > 1 else int(tok) ** n
                    re, im = re * value, im * value
                elif k >= 0:
                    expo[k] += n
                elif n % 4:  # times i^n
                    re, im = ((-im, re), (-re, -im), (im, -re))[n % 4 - 1]
                self.pos = after
            except ValueError:
                start, factor = self.pos, self.factor()
                rest = factor if rest is None else self.product(rest, factor, start)
            if tokens[self.pos] != "*":
                break
            self.pos += 1
        mono = {tuple(expo): (re, im)}
        get = terms.get
        for e, (re, im) in (mono if rest is None else self.product(rest, mono, self.pos)).items():
            old = get(e)
            terms[e] = (re, im) if old is None else (old[0] + re, old[1] + im)

    def product(self, a: _Terms, b: _Terms, k: int) -> _Terms:
        """a*b, where b starts at token k: a ParseError there, before the
        product is formed, if both have several nonzero terms and more than
        _MAX_PAIRS pairs of them."""
        if len(a) > 1 and len(b) > 1:
            ta, tb = (sum(1 for re, im in t.values() if re or im) for t in (a, b))
            if ta * tb > _MAX_PAIRS:
                raise ParseError(f"product of {ta} by {tb} terms is too large at position {self.start(k)}")
            return _terms_of(_poly_of(self.ring, a) * _poly_of(self.ring, b))
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return a
        ((ea, (ra, ia)),) = a.items()
        if any(ea):
            b = {tuple(map(add, ea, e)): c for e, c in b.items()}
        if ia:
            return {e: (ra * re - ia * im, ra * im + ia * re) for e, (re, im) in b.items()}
        return {e: (ra * re, ra * im if im else 0) for e, (re, im) in b.items()}

    def factor(self) -> _Terms:
        sign = self.tokens[self.pos]
        if sign != "+" and sign != "-":
            return self.power()
        self.pos += 1
        terms = self.factor()
        return {e: (-re, -im) for e, (re, im) in terms.items()} if sign == "-" else terms

    def power(self) -> _Terms:
        start, base = self.pos, self.atom()
        if self.tokens[self.pos] != "^":
            return base
        self.pos += 1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"exponent must be an integer at position {self.at()}")
        n = self.integer(tok)
        if n == 0:
            return {self.one: (1, 0)}
        if len(base) > 1:  # its size: the summed numerators over their common denominator, or that denominator
            den = math.lcm(*[q.denominator for c in base.values() for q in c])
            size = max(den, sum(abs(q.numerator) * (den // q.denominator) for c in base.values() for q in c))
            if size > 1:  # else 0 or one monomial with a unit coefficient
                self.bound(n, size, start)
                self.expansion(base, n, start)
            return _terms_of(_poly_of(self.ring, base) ** n)
        return {tuple(k * n for k in e): self.raised(re, im, n, start) for e, (re, im) in base.items()}

    def atom(self) -> _Terms:
        tok = self.next()
        if tok == "(":
            terms = self.expr()
            if self.next() != ")":
                raise ParseError(f"expected ')' at position {self.at()}")
            return terms
        if tok.isdigit():
            value = self.integer(tok)
            if self.tokens[self.pos] == "/":
                self.pos += 1
                den = self.next()
                if not den.isdigit():
                    raise ParseError(
                        f"rational literal needs an integer denominator at position {self.at()}"
                    )
                den = self.integer(den)
                if not den:
                    raise ParseError(f"zero denominator at position {self.at()}")
                value = Fraction(value, den)
            return {self.one: (value, 0)}
        if tok not in _OPS:
            k = self.index.get(tok)
            if k is None and tok == "i":
                raise ParseError("imaginary coefficient in a non-gaussian ring")
            if k is None:
                raise ParseError(f"unknown variable {tok!r} at position {self.at()}")
            return {self.one: (0, 1)} if k < 0 else {tuple(int(j == k) for j in range(len(self.one))): (1, 0)}
        raise ParseError(f"unexpected token {tok!r} at position {self.at()}")


def _gaussian_literal(text: str, gaussian: bool) -> Optional[tuple[int, int]]:
    """(re, im) of one integer literal, maybe negated, or with ``gaussian``
    one Gaussian integer literal (i, -b*i, a+i, a-b*i, ...); None for any
    other text or a part int() refuses, which the grammar then names."""
    match = _LITERAL.fullmatch(text)
    if match and (match[1] or match[4]) and (gaussian or not match[4]):
        try:
            return int(match[1] or 0), int(match[2] + (match[3] or "1")) if match[4] else 0
        except ValueError:
            pass
    return None


def parse(text: str, ring: Ring) -> MultiPoly:
    """Parse an expression in the polynomial grammar into ``ring``.  A text
    that :func:`_gaussian_literal` reads skips the grammar."""
    literal = _gaussian_literal(text, ring.gaussian)
    if literal is not None:
        return _poly_of(ring, {(0,) * ring.arity: literal})
    parser = _Parser(text, ring)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


def _monomial_str(ring: Ring, expo: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(ring.variables, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _coeff_pieces(coeff: GaussianRational, with_mono: bool) -> tuple[int, str]:
    """(sign, magnitude-string); magnitude "" means an implicit 1 factor."""
    if not coeff.im:
        sign = 1 if coeff.re > 0 else -1
        mag = abs(coeff.re)
        if mag == 1 and with_mono:
            return sign, ""
        return sign, str(mag)
    if not coeff.re:
        sign = 1 if coeff.im > 0 else -1
        mag = abs(coeff.im)
        body = "i" if mag == 1 else f"{mag}*i"
        return sign, body
    # Mixed complex coefficient: parenthesized, sign carried inside.
    return 1, f"({coeff})"


def format_poly(poly: MultiPoly) -> str:
    """Canonical text form (graded-lex descending); parse round-trips it."""
    if poly.is_zero():
        return "0"
    out: list[str] = []
    for expo, coeff in poly.sorted_terms():
        mono = _monomial_str(poly.ring, expo)
        sign, body = _coeff_pieces(coeff, with_mono=bool(mono))
        if body and mono:
            chunk = f"{body}*{mono}"
        else:
            chunk = body or mono or "1"
        if not out:
            out.append(chunk if sign > 0 else f"-{chunk}")
        else:
            out.append(f"+ {chunk}" if sign > 0 else f"- {chunk}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over Q: int numerators ``nums``, ascending
    by degree with no trailing zero, over one positive denominator ``den``,
    in lowest terms; ``coeffs`` forms the normalised Fractions on demand."""

    __slots__ = ("nums", "den")

    def __new__(cls, coeffs: Sequence[RationalLike]):
        return cls._over([c if type(c) is int else as_fraction(c) for c in coeffs], 1)

    @classmethod
    def _over(cls, coeffs: Sequence[Union[int, Fraction]], den: int) -> "UniPoly":
        """sum_k coeffs[k]/den * t^k, for an int den > 0."""
        scale = math.lcm(*[c.denominator for c in coeffs])  # 1 for ints
        nums = [c.numerator * (scale // c.denominator) for c in coeffs]
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den * scale, *nums)
        poly = object.__new__(cls)
        object.__setattr__(poly, "nums", tuple([c // g for c in nums]))
        object.__setattr__(poly, "den", den * scale // g)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(c, self.den) for c in self.nums])

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash(self.coeffs)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        rem, divisor = list(self.coeffs), other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(divisor) + 1, 0)
        for k in reversed(range(len(quo))):
            quo[k] = c = rem[k + len(divisor) - 1] / divisor[-1]
            for j, d in enumerate(divisor):
                rem[k + j] -= c * d
        return UniPoly(quo), UniPoly(rem)

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ArithmeticError("univariate division is not exact")
        return quo

    def derivative(self) -> "UniPoly":
        return UniPoly._over([k * c for k, c in enumerate(self.nums)][1:], self.den)

    def eval(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        total = Fraction(0)
        for c in reversed(self.nums):
            total = total * x + c
        return total / self.den

    def primitive(self) -> "UniPoly":
        """Integer-primitive associate with positive leading coefficient."""
        g = math.gcd(*self.nums) * (-1 if self.nums and self.nums[-1] < 0 else 1)
        return UniPoly._over([c // g for c in self.nums], 1)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Primitive gcd: the last term of the signed remainder sequence of
        (self, other), made primitive."""
        return UniPoly(sturm_chain(self, other)[-1]).primitive()

    # Kept only as a hook of perfbench's tracer, until the benchmark drops it.
    def squarefree_part(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("zero polynomial has no squarefree part")
        g = self.gcd(self.derivative())
        return self.divide_exact(g).primitive()

    def format(self, var: str = "t") -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if not c:
                continue
            mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
            mag = abs(c)
            body = str(mag) if not mono or mag != 1 else ""
            chunk = f"{body}*{mono}" if body and mono else (body or mono)
            if not parts:
                parts.append(chunk if c > 0 else f"-{chunk}")
            else:
                parts.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"UniPoly({self.format()})"


def _int_primitive(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The integer coefficients divided by their positive content."""
    g = math.gcd(*coeffs)
    return tuple([c // g for c in coeffs]) if g > 1 else tuple(coeffs)


def _negated_prem(a: Sequence[int], b: tuple[int, ...]) -> tuple[int, ...]:
    """-rem(a, b) times a positive rational, primitive over Z: a
    pseudo-remainder whose every step scales the running remainder by a
    positive factor, |lc b| / gcd(lc b, lc r)."""
    r, lb, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        lr = r[-1]
        g0 = math.gcd(lb, lr)
        keep, take = abs(lb) // g0, (lr if lb > 0 else -lr) // g0
        k = len(r) - 1 - db
        if keep != 1:
            r = [c * keep for c in r]
        for j, c in enumerate(b, k):
            r[j] -= take * c
        while r and not r[-1]:
            r.pop()
    return _int_primitive([-c for c in r]) if r else ()


def sturm_chain(f: UniPoly, g: Optional[UniPoly] = None) -> list[tuple[int, ...]]:
    """Primitive pseudo-remainder sequence of (f, g), g defaulting to f',
    as int coefficient tuples (ascending); it ends in gcd(f, g).

    Member k is a positive rational multiple of member k of the signed
    remainder sequence f, g, -rem, ..., which is all sign variations need
    (Basu-Pollack-Roy, *Algorithms in Real Algebraic Geometry*, Thm 2.58):
    f and g cleared to primitive integers, then each -rem(a, b) as a
    pseudo-remainder over Z divided by its positive content (Collins 1967;
    Brown-Traub 1971).  No Fraction is formed.
    """
    first = _int_primitive(f.nums)
    second = _int_primitive([k * c for k, c in enumerate(first)][1:] if g is None else g.nums)
    if not second:
        return [first]
    chain = [first, second]
    while len(chain[-1]) > 1:
        rem = _negated_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    return chain


# ---------------------------------------------------------------------------
# Geometric operations used throughout
# ---------------------------------------------------------------------------


class _TaylorTable:
    """The rows R_k = (D_e^k h) / k!, k = 0..deg(h), of Taylor's formula
    h(t*e - v) = sum_k t^k * R_k(-v), as int rows over one denominator
    ``den``, and ``values``, which evaluates them all at one point.

    With h = H / D and e = E / L, H and E integral, R_k = S_k / (D * L^k):
    S_k, the coefficient of t^k in H(x + t*E), is integral, and
    S_(k+1) = D_E(S_k) / (k + 1) exactly.  Row k is S_k * L^(deg - k).
    """

    __slots__ = ("h", "e", "den", "values")

    def __init__(self, h: MultiPoly, e: tuple[Fraction, ...]):
        if not h.is_real():
            raise ValueError("restriction needs real coefficients")
        self.h, self.e = h, e
        scale = math.lcm(*[c.denominator for c in e])
        along = [(j, c.numerator * (scale // c.denominator)) for j, c in enumerate(e) if c]
        den = math.lcm(*[c.re.denominator for c in h.terms.values()])
        row = {expo: c.re.numerator * (den // c.re.denominator) for expo, c in h.terms.items()}
        rows: list[dict[tuple[int, ...], int]] = []
        while row:
            rows.append(row)
            derivative: dict[tuple[int, ...], int] = {}
            for expo, c in row.items():
                for j, ej in along:
                    if expo[j]:
                        key = expo[:j] + (expo[j] - 1,) + expo[j + 1 :]
                        derivative[key] = derivative.get(key, 0) + c * expo[j] * ej
            row = {expo: c // len(rows) for expo, c in derivative.items() if c}
        top = max(len(rows) - 1, 0)
        self.den = den * scale**top
        self.values = _monomial_evaluator([[(x, c * scale ** (top - k)) for x, c in row.items()] for k, row in enumerate(rows)])

    def at(self, v: Sequence[Union[int, Fraction]]) -> UniPoly:
        """h(t*e - v): each row evaluated at w = -v."""
        return UniPoly._over(self.values([-c for c in v]), self.den)


# The two most recent tables, oldest first; interlaces_sampled alternates
# between h and g along one e.  A table is found by the identity of h, since
# hashing a MultiPoly builds a frozenset of its terms, and by the value of
# e.  Each table holds h, so the id of a cached h is never reused.
_taylor_tables: list[_TaylorTable] = []


def _taylor_table(h: MultiPoly, e: Sequence[RationalLike]) -> _TaylorTable:
    """The table of (h, e), found first by the identity of e's coordinates
    (a sampler passes the same Fractions on every line, which coerce to
    themselves), and only then by the value of e, coerced."""
    for table in _taylor_tables:
        if table.h is h and all(map(is_, table.e, e)):
            return table
    e = tuple([as_fraction(c) for c in e])
    for table in _taylor_tables:
        if table.h is h and table.e == e:
            return table
    table = _TaylorTable(h, e)
    _taylor_tables.append(table)
    if len(_taylor_tables) > 2:
        del _taylor_tables[0]
    return table


def restrict_to_line(
    h: MultiPoly, e: Sequence[RationalLike], v: Sequence[RationalLike]
) -> UniPoly:
    """The univariate restriction t -> h(t*e - v).

    It is read off Taylor's formula along e at -v,
    h(t*e - v) = sum_k t^k/k! * (D_e^k h)(-v), with D_e the directional
    derivative.  The table of the (D_e^k h) / k!, int rows over one
    denominator (:class:`_TaylorTable`), is built once per (h, e) and cached
    for the two most recent pairs, found by the identity of h and the value
    of e; each line's values of the rows at -v, ints for an integer v, are
    its numerators over that denominator.  Any ring is accepted, weights
    play no part, and h must have real coefficients.

    For homogeneous h with h(e) != 0 the result has degree deg(h) with
    leading coefficient h(e).
    """
    ring = h.ring
    if len(e) != ring.arity or len(v) != ring.arity:
        raise ValueError("direction/point arity mismatch")
    table = _taylor_table(h, e)
    return table.at([c if type(c) is int else as_fraction(c) for c in v])


# ---------------------------------------------------------------------------
# Squares in R[x]
# ---------------------------------------------------------------------------


def _sum_of_squares(ring: Ring, forms: Iterable[MultiPoly]) -> MultiPoly:
    """sum g*g over the forms, all in ``ring`` (zero when there are none)."""
    total = MultiPoly.zero(ring)
    for g in forms:
        total = total + g * g
    return total


def real_square_factorization(p: MultiPoly) -> Optional[tuple[Fraction, MultiPoly]]:
    """If p = c * q^2 with c a positive rational and q rational, return (c, q).

    This decides whether p is the square of a *real* polynomial: p in Q[x]
    is a square in R[x] exactly when it factors this way.  The square root is
    extracted greedily from the graded-lex leading term; any failure along
    the way certifies that no square root exists.
    """
    if p.is_zero():
        return (Fraction(1), p)
    if not p.is_real():
        return None
    lead_expo, lead_coeff = p.leading_term()
    if lead_coeff.re <= 0 or any(e % 2 for e in lead_expo):
        return None
    # Work on the primitive integer part: p = content * pp, and pp must be a
    # rational square for p to be a real square.
    content = _poly_content(p)
    pp = p.scale(Fraction(1, 1) / content)
    half = tuple(e // 2 for e in lead_expo)
    pp_lead = pp.terms[lead_expo].re
    root_lead = _rational_sqrt(pp_lead)
    if root_lead is None:
        return None
    q = MultiPoly(p.ring, {half: GaussianRational(root_lead)})
    rem = pp - q * q
    double_lead = GaussianRational(2 * root_lead)
    half_key = (p.ring.weighted_degree(half), half)
    while rem.terms:
        r_expo, r_coeff = rem.leading_term()
        step = tuple(a - b for a, b in zip(r_expo, half))
        if any(e < 0 for e in step):
            return None
        step_key = (p.ring.weighted_degree(step), step)
        if step_key >= half_key:
            # The correction term would not be below the root's leading
            # monomial, so no square root exists.
            return None
        u = MultiPoly(p.ring, {step: r_coeff / double_lead})
        q = q + u
        rem = pp - q * q
    return (content, q)


def _poly_content(p: MultiPoly) -> Fraction:
    """Positive rational content of a real polynomial (gcd of coefficients)."""
    values = p.terms.values()
    num = math.gcd(*[c.re.numerator for c in values])
    den = math.lcm(*[c.re.denominator for c in values])
    return Fraction(num, den)


def _rational_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    n = math.isqrt(c.numerator)
    d = math.isqrt(c.denominator)
    if n * n == c.numerator and d * d == c.denominator:
        return Fraction(n, d)
    return None
