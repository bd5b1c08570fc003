"""Sparse multivariate polynomials over Q(i) with weighted gradings.

A ``Ring`` fixes the variable names, one positive integer weight per
variable, and whether Gaussian (complex) coefficients are allowed.
``MultiPoly`` stores a map from exponent vectors to nonzero coefficients.
``UniPoly`` is the dense univariate companion used by the real-root
machinery.

The multivariate kernel works on integers.  A product scales each operand
by the lcm of its coefficient denominators, packs every exponent vector
into one int (sums of packed keys are packed sums, and the order of the
keys is graded-lex order), carries the imaginary unit as one more packed
exponent so that real and Gaussian rings share the loop, accumulates Python
int numerators, and divides back into a normalised Fraction once per output
term.  Exact division keeps the remainder as one dict of int numerators on
packed keys, updated in place, and finds its leading term with a max-heap
of those keys.  Only the results are converted back to GaussianRational.

The ASCII grammar implemented by :func:`parse` / ``MultiPoly.__str__`` is the
single wire format for polynomials in files, CLI arguments and matrix JSON:
identifiers from the ring, operators ``+ - * ^`` with standard precedence,
parentheses, integer and ``p/q`` rational literals, and the literal token
``i`` for the imaginary unit in Gaussian rings.  Literals are ASCII digits
and names ASCII identifiers; whitespace is insignificant, and any other
character is a ParseError naming it and its position.

Parsing builds terms directly.  Each subexpression is a dict from exponent
vectors to (re, im) pairs of ints or Fractions: a sum adds its right-hand
terms into the left dict in place, a product with a one-term factor shifts
the exponent vectors and multiplies the pairs, and a one-term base is raised
to its power directly.  Only a product or power of two multi-term
subexpressions (parenthesised sums) runs the MultiPoly kernel.  The
coefficients become GaussianRational once, at the end, where zero terms are
dropped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, getitem, mul
from typing import Callable, Iterable, Optional, Sequence, Union

from .scalars import (
    _ZERO,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    RationalLike,
    _gaussian,
    as_fraction,
)

CoeffLike = Union[GaussianRational, Fraction, int]


class ParseError(ValueError):
    """Raised for malformed polynomial text."""


def _as_coeff(value: CoeffLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


@dataclass(frozen=True)
class Ring:
    """An ordered list of variables (ASCII identifiers) with positive weights.

    ``gaussian`` enables coefficients in Q(i); otherwise any imaginary part
    is rejected.  A distinguished variable (conventionally ``y``) may carry
    weight > 1, which is how companion-form gradings are expressed.
    """

    variables: tuple[str, ...]
    weights: tuple[int, ...]
    gaussian: bool = False

    def __post_init__(self):
        if len(self.variables) != len(self.weights):
            raise ValueError("one weight per variable required")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for name in self.variables:
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"invalid variable name {name!r}")
        if self.gaussian and "i" in self.variables:
            raise ValueError("'i' denotes the imaginary unit in a gaussian ring")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")

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
        return sum(w * e for w, e in zip(self.weights, expo))

    def without(self, name: str) -> "Ring":
        idx = self.index(name)
        return Ring(
            self.variables[:idx] + self.variables[idx + 1 :],
            self.weights[:idx] + self.weights[idx + 1 :],
            self.gaussian,
        )


class _Keys:
    """Packs exponent vectors, each exponent at most ``bound``, into ints.

    Bits 0-1 are left for a power of i (0, 1 or 2) in products.  Above them
    sits one field per variable, the first variable highest, each with a
    spare top bit (``guard``), and above those the weighted degree.  So the
    sum of two keys is the key of the summed exponents, integer order is
    graded-lex order, and ``key + guard - other`` keeps every guard bit
    exactly when each exponent of ``key`` is at least that of ``other``.
    """

    __slots__ = ("scales", "shifts", "mask", "guard")

    def __init__(self, weights: tuple[int, ...], bound: int):
        width = bound.bit_length() + 1
        n = len(weights)
        self.shifts = [2 + width * (n - 1 - k) for k in range(n)]
        top = 2 + width * n
        # key = sum_k e_k * scale_k places e_k in its field and adds w_k*e_k
        # to the degree field.
        self.scales = [(1 << s) + (w << top) for s, w in zip(self.shifts, weights)]
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)

    def pack(self, expo: tuple[int, ...]) -> int:
        return sum(map(mul, expo, self.scales))

    def unpack(self, key: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple([(key >> s) & mask for s in self.shifts])


_keys = lru_cache(maxsize=256)(_Keys)


def _max_total_degree(poly: "MultiPoly") -> int:
    return max(map(sum, poly.terms))


def _numerators(
    terms: dict[tuple[int, ...], GaussianRational], pack: Callable[[tuple[int, ...]], int]
) -> tuple[list[tuple[int, int]], int]:
    """The terms times the lcm of their denominators, as (packed key, int
    numerator) pairs, and that lcm.  An imaginary part's key carries i^1."""
    parts = []
    for expo, c in terms.items():
        key = pack(expo)
        re, im = c.re, c.im
        n = re.numerator
        if n:
            parts.append((key, n, re.denominator))
        if im is not _ZERO:
            parts.append((key + 1, im.numerator, im.denominator))
    den = math.lcm(*[d for _, _, d in parts])
    if den == 1:
        return [(k, n) for k, n, _ in parts], 1
    return [(k, n * (den // d)) for k, n, d in parts], den


def _from_numerators(
    acc: dict[int, int], den: int, unpack: Callable[[int], tuple[int, ...]]
) -> dict[tuple[int, ...], GaussianRational]:
    """Terms from packed numerators over ``den``: folds i^2 = -1, drops
    zeros and normalises each coefficient once."""
    get = acc.get
    for key in [k for k in acc if k & 2]:
        acc[key - 2] = get(key - 2, 0) - acc.pop(key)
    frac = Fraction if den == 1 else lambda num: Fraction(num, den)
    terms: dict[tuple[int, ...], GaussianRational] = {}
    for key, num in acc.items():
        if key & 1:
            if key - 1 in acc:
                continue  # taken with its real part
            key, re, im = key - 1, 0, num
        else:
            re, im = num, get(key + 1, 0)
        if re or im:
            terms[unpack(key)] = _gaussian(frac(re) if re else _ZERO, frac(im) if im else _ZERO)
    return terms


class MultiPoly:
    """Sparse polynomial: exponent-vector -> nonzero GaussianRational.

    The dict is the only storage.  Products and exact division convert it to
    packed integer keys and integer numerators for their inner loops (see
    the module docstring) and back, so their results are the same
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
        keys = _keys(self.ring.weights, _max_total_degree(self) + _max_total_degree(other))
        a, den_a = _numerators(self.terms, keys.pack)
        b, den_b = _numerators(other.terms, keys.pack)
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, int] = {}
        get = acc.get
        for ka, na in a:
            for kb, nb in b:
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
        return MultiPoly(self.ring, _from_numerators(acc, den_a * den_b, keys.unpack))

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

    def partial(self, var: Union[int, str]) -> "MultiPoly":
        idx = var if isinstance(var, int) else self.ring.index(var)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for expo, coeff in self.terms.items():
            k = expo[idx]
            if k == 0:
                continue
            new = list(expo)
            new[idx] = k - 1
            terms[tuple(new)] = coeff.scale(k)
        return MultiPoly(self.ring, terms)

    # -- evaluation and substitution ------------------------------------------

    def eval(self, point: Sequence[CoeffLike]) -> GaussianRational:
        if len(point) != self.ring.arity:
            raise ValueError("point arity mismatch")
        vals = [_as_coeff(p) for p in point]
        total = GR_ZERO
        for expo, coeff in self.terms.items():
            acc = coeff
            for v, e in zip(vals, expo):
                for _ in range(e):
                    acc = acc * v
            total = total + acc
        return total

    def eval_rational(self, point: Sequence[RationalLike]) -> Fraction:
        value = self.eval([GaussianRational(as_fraction(p)) for p in point])
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

        Long division by the graded-lex leading term.  In an integral domain
        the leading monomial of the remainder strictly decreases, so this
        terminates, and exactness fails loudly.

        The remainder is one dict of int numerators over a common
        denominator ``scale``, on packed keys (an imaginary part at key + 1),
        updated in place; a max-heap of its keys yields the leading term (a
        key whose term cancelled is skipped when popped).  A quotient term is
        R*conj(L)/N(L) for the remainder's leading numerator R and the
        divisor's L; the remainder is multiplied through only by the part of
        N(L) that does not cancel, which is 1 whenever the quotient term is
        integral in the remainder's scale.
        """
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        # A remainder exponent is at most the weighted degree of self.
        degree = max(_max_total_degree(self), _max_total_degree(divisor))
        keys = _keys(self.ring.weights, degree * max(self.ring.weights, default=1))
        parts, scale = _numerators(self.terms, keys.pack)
        rem = dict(parts)
        heap = [-k for k in rem]
        heapify(heap)
        d_parts, den = _numerators(divisor.terms, keys.pack)
        d_key = max(k for k, _ in d_parts) & ~3
        lead_re = lead_im = 0
        times_re: list[tuple[int, int]] = []  # the divisor's other terms
        times_im: list[tuple[int, int]] = []  # the same times i
        for k, n in d_parts:
            if k & ~3 == d_key:
                if k & 1:
                    lead_im = n
                else:
                    lead_re = n
                continue
            times_re.append((k - d_key, n))
            times_im.append((k - d_key - 1, -n) if k & 1 else (k - d_key + 1, n))
        norm = lead_re * lead_re + lead_im * lead_im
        guard = keys.guard
        get = rem.get
        quotient: dict[tuple[int, ...], GaussianRational] = {}
        while heap:
            key = -heappop(heap) & ~3
            r_re = rem.pop(key, 0)
            r_im = rem.pop(key + 1, 0)
            if not (r_re or r_im):
                continue
            if (key + guard - d_key) & guard != guard:
                raise ArithmeticError("polynomial division is not exact")
            t_re = r_re * lead_re + r_im * lead_im
            t_im = r_im * lead_re - r_re * lead_im
            g = math.gcd(t_re, t_im, norm)
            u, v, f = t_re // g, t_im // g, norm // g
            quotient[keys.unpack(key - d_key)] = _gaussian(
                Fraction(u * den, scale * f) if u else _ZERO,
                Fraction(v * den, scale * f) if v else _ZERO,
            )
            if f != 1:
                for k in rem:
                    rem[k] *= f
                scale *= f
            for mult, times in ((u, times_re), (v, times_im)):
                if not mult:
                    continue
                for offset, n in times:
                    k = key + offset
                    old = get(k)
                    if old is None:
                        rem[k] = -mult * n
                        heappush(heap, -k)
                    else:
                        old -= mult * n
                        if old:
                            rem[k] = old
                        else:
                            del rem[k]
        return MultiPoly(self.ring, quotient)

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
_INTEGER = re.compile(r"-?[0-9]+")

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


def _negate(terms: _Terms) -> _Terms:
    for e, (re, im) in terms.items():
        terms[e] = (-re, -im)
    return terms


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
    """Recursive descent over the token list; every method returns a fresh
    term dict that its caller may update in place."""

    def __init__(self, text: str, ring: Ring):
        bad = _BAD_CHAR.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r} at position {bad.start()}")
        tokens = _TOKEN.findall(text)
        if not tokens:
            raise ParseError("empty polynomial text")
        tokens.append("")  # end of input
        self.text = text
        self.tokens = tokens
        self.ring = ring
        self.pos = 0
        n = ring.arity
        self.one = (0,) * n
        self.units = {
            name: tuple(1 if k == idx else 0 for k in range(n))
            for idx, name in enumerate(ring.variables)
        }

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

    def parse(self) -> MultiPoly:
        terms = self.expr()
        tok = self.tokens[self.pos]
        if tok:
            raise ParseError(f"unexpected token {tok!r} at position {self.start(self.pos)}")
        return _poly_of(self.ring, terms)

    def expr(self) -> _Terms:
        terms = self.term()
        get = terms.get
        while True:
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return terms
            self.pos += 1
            rhs = self.term()
            if op == "-":
                _negate(rhs)
            for e, c in rhs.items():
                old = get(e)
                terms[e] = c if old is None else (old[0] + c[0], old[1] + c[1])

    def term(self) -> _Terms:
        terms = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            terms = self.product(terms, self.factor())
        return terms

    def product(self, a: _Terms, b: _Terms) -> _Terms:
        if len(a) > 1 and len(b) > 1:
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
        return _negate(terms) if sign == "-" else terms

    def power(self) -> _Terms:
        base = self.atom()
        if self.tokens[self.pos] != "^":
            return base
        self.pos += 1
        tok = self.next()
        if not tok.isdigit():
            raise ParseError(f"exponent must be an integer at position {self.at()}")
        n = self.integer(tok)
        if n == 0:
            return {self.one: (1, 0)}
        if len(base) > 1:
            return _terms_of(_poly_of(self.ring, base) ** n)
        return {tuple(k * n for k in e): _pair_pow(re, im, n) for e, (re, im) in base.items()}

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
            if tok == "i" and self.ring.gaussian:
                return {self.one: (0, 1)}
            if tok == "i" and "i" not in self.units:
                raise ParseError("imaginary coefficient in a non-gaussian ring")
            unit = self.units.get(tok)
            if unit is None:
                raise ParseError(f"unknown variable {tok!r} at position {self.at()}")
            return {unit: (1, 0)}
        raise ParseError(f"unexpected token {tok!r} at position {self.at()}")


def parse(text: str, ring: Ring) -> MultiPoly:
    """Parse an expression in the polynomial grammar into ``ring``.  One
    integer literal, maybe negated, skips the grammar unless int() refuses it."""
    if _INTEGER.fullmatch(text):
        try:
            return _poly_of(ring, {(0,) * ring.arity: (int(text), 0)})
        except ValueError:  # too long: the grammar names its position
            pass
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
    """Dense univariate polynomial over Q, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike]):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [
                (self.coeffs[k] if k < len(self.coeffs) else 0)
                + (other.coeffs[k] if k < len(other.coeffs) else 0)
                for k in range(n)
            ]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                if cb:
                    out[a + b] += ca * cb
        return UniPoly(out)

    def scale(self, c: RationalLike) -> "UniPoly":
        c = as_fraction(c)
        return UniPoly([k * c for k in self.coeffs])

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("univariate division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] / lead
            quo[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def divide_exact(self, other: "UniPoly") -> "UniPoly":
        quo, rem = divmod(self, other)
        if not rem.is_zero():
            raise ArithmeticError("univariate division is not exact")
        return quo

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x: RationalLike) -> Fraction:
        x = as_fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    # -- integer normal forms (coefficient-growth control) -------------------

    def _int_coeffs(self) -> list[int]:
        if not self.coeffs:
            return []
        lcm = math.lcm(*[c.denominator for c in self.coeffs])
        return [int(c * lcm) for c in self.coeffs]

    def primitive(self) -> "UniPoly":
        """Integer-primitive associate with positive leading coefficient."""
        ints = self._int_coeffs()
        if not ints:
            return UniPoly.zero()
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return UniPoly([Fraction(c, g) for c in ints])

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Primitive gcd: the last term of the signed remainder sequence of
        (self, other), made primitive."""
        return sturm_chain(self, other)[-1].primitive()

    # Kept only as a hook of perfbench's tracer, until the benchmark drops it.
    def squarefree_part(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("zero polynomial has no squarefree part")
        g = self.gcd(self.derivative())
        return self.divide_exact(g).primitive()

    def format(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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


def _positive_content_scaled(p: UniPoly) -> UniPoly:
    """Divide out the positive rational content, preserving signs
    (sign-flipping normalization would corrupt a Sturm chain)."""
    if p.is_zero():
        return p
    num = math.gcd(*[c.numerator for c in p.coeffs])
    den = math.lcm(*[c.denominator for c in p.coeffs])
    return p.scale(Fraction(den, num))


def sturm_chain(f: UniPoly, g: Optional[UniPoly] = None) -> list[UniPoly]:
    """Signed remainder sequence f, g, -rem, ... (g defaults to f'), each
    remainder divided by its positive content; it ends in gcd(f, g)."""
    chain = [f, f.derivative() if g is None else g]
    if chain[-1].is_zero():
        chain.pop()
        return chain
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(_positive_content_scaled(-rem))
    return chain


# ---------------------------------------------------------------------------
# Geometric operations used throughout
# ---------------------------------------------------------------------------


class _TaylorTable:
    """The rows (D_e^k h) / k!, k = 0..deg(h), of Taylor's formula
    h(t*e - v) = sum_k t^k/k! * (D_e^k h)(-v).

    Row k is a list of (exponent vector, int numerator) pairs over the
    denominator ``dens[k]``; ``top[j]`` is the largest exponent of variable
    j in any row.
    """

    __slots__ = ("h", "e", "rows", "dens", "top")

    def __init__(self, h: MultiPoly, e: tuple[Fraction, ...]):
        if not h.is_real():
            raise ValueError("restriction needs real coefficients")
        self.h, self.e = h, e
        self.rows: list[list[tuple[tuple[int, ...], int]]] = []
        self.dens: list[int] = []
        top = [0] * h.ring.arity
        derivative, factorial = h, 1
        while derivative:
            den = math.lcm(*[c.re.denominator for c in derivative.terms.values()])
            row = []
            for expo, c in derivative.terms.items():
                row.append((expo, c.re.numerator * (den // c.re.denominator)))
                top = list(map(max, top, expo))
            self.rows.append(row)
            self.dens.append(den * factorial)
            derivative = _derivative(derivative, e)
            factorial *= len(self.rows)
        self.top = top

    def at(self, v: Sequence[Fraction]) -> UniPoly:
        """The coefficients of h(t*e - v): each row evaluated at w = -v."""
        # With w_j = p_j / q_j, powers[j][a] = p_j^a * q_j^(top_j - a), so
        # every monomial w^a is prod_j powers[j][a_j] over one denominator,
        # prod_j q_j^top_j.
        powers = []
        scale = 1
        for c, top in zip(v, self.top):
            p, q = -c.numerator, c.denominator
            col = [1]
            for _ in range(top):
                col.append(col[-1] * p)
            if q != 1:
                scale *= q**top
                col = [x * q ** (top - a) for a, x in enumerate(col)]
            powers.append(col)
        coeffs = []
        for row, den in zip(self.rows, self.dens):
            total = 0
            for expo, num in row:
                total += num * math.prod(map(getitem, powers, expo))
            coeffs.append(Fraction(total, den * scale))
        return UniPoly(coeffs)


# The two most recent tables, oldest first; interlaces_sampled alternates
# between h and g along one e.  A table is found by the identity of h, since
# hashing a MultiPoly builds a frozenset of its terms, and by the value of
# e.  Each table holds h, so the id of a cached h is never reused.
_taylor_tables: list[_TaylorTable] = []


def _taylor_table(h: MultiPoly, e: tuple[Fraction, ...]) -> _TaylorTable:
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
    derivative.  The table of the (D_e^k h) / k! as int numerators is built
    once per (h, e) and cached for the two most recent pairs, found by the
    identity of h and the value of e; each line then evaluates the table at
    -v.  Any ring is accepted, weights play no part, and h must have real
    coefficients.

    For homogeneous h with h(e) != 0 the result has degree deg(h) with
    leading coefficient h(e).
    """
    ring = h.ring
    if len(e) != ring.arity or len(v) != ring.arity:
        raise ValueError("direction/point arity mismatch")
    table = _taylor_table(h, tuple([as_fraction(c) for c in e]))
    return table.at([as_fraction(c) for c in v])


def _derivative(h: MultiPoly, e: Sequence[Fraction]) -> MultiPoly:
    """sum_k e_k * dh/dx_k, in a ring of any weights."""
    total = MultiPoly.zero(h.ring)
    for k, c in enumerate(e):
        if c:
            total = total + h.partial(k).scale(c)
    return total


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
