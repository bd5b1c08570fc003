"""Exact arithmetic that the benchmark needs on its own side.

Input generation and the outcome checker must not trust the program under
test, so they use this module instead of ``hypercert``: sparse real
polynomials as ``{exponent tuple: Fraction}`` dicts, a parser for the
polynomial grammar the CLI reads and writes, Sturm root counting, and dense
Fraction matrices.  Everything is exact; nothing here is fast.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from typing import Sequence

Poly = dict  # {tuple[int, ...]: Fraction}, no zero coefficients


# -- sparse multivariate polynomials over Q ---------------------------------


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(a: Poly, c: Fraction) -> Poly:
    return {e: v * c for e, v in a.items()} if c else {}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_prod(factors: Sequence[Poly], n: int) -> Poly:
    out: Poly = {(0,) * n: Fraction(1)}
    for f in factors:
        out = poly_mul(out, f)
    return out


def linear(coeffs: Sequence[Fraction]) -> Poly:
    n = len(coeffs)
    return {tuple(int(j == k) for j in range(n)): Fraction(c) for k, c in enumerate(coeffs) if c}


def poly_eval(p: Poly, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x**k
        total += term
    return total


def substitute_linear(p: Poly, rows: Sequence[Sequence[Fraction]]) -> Poly:
    """p(U x) where row k of ``rows`` gives the image of variable k."""
    n = len(rows[0])
    images = [linear(r) for r in rows]
    out: Poly = {}
    for e, c in p.items():
        term: Poly = {(0,) * n: c}
        for k, power in enumerate(e):
            for _ in range(power):
                term = poly_mul(term, images[k])
        out = poly_add(out, term)
    return out


def partial(p: Poly, k: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[k]:
            d = list(e)
            d[k] -= 1
            out[tuple(d)] = c * e[k]
    return out


def directional_derivative(p: Poly, e: Sequence[Fraction]) -> Poly:
    out: Poly = {}
    for k, ek in enumerate(e):
        if ek:
            out = poly_add(out, poly_scale(partial(p, k), Fraction(ek)))
    return out


def elementary_symmetric(n: int, k: int) -> Poly:
    from itertools import combinations

    return {tuple(int(j in s) for j in range(n)): Fraction(1) for s in combinations(range(n), k)}


def _monomial(names: Sequence[str], e: tuple) -> str:
    return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)


def fmt_poly(p: Poly, names: Sequence[str]) -> str:
    """Text in the CLI's polynomial grammar (terms in any order)."""
    if not p:
        return "0"
    chunks = []
    for e, c in sorted(p.items(), reverse=True):
        mono = _monomial(names, e)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        sign = "-" if c < 0 else "+"
        chunks.append(f"{sign} {body}")
    text = " ".join(chunks)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_file(p: Poly, names: Sequence[str], gaussian: bool = False) -> str:
    n = len(names)
    return (
        f"ring: vars={','.join(names)} weights={','.join(['1'] * n)} gaussian={str(gaussian).lower()}\n"
        f"{fmt_poly(p, names)}\n"
    )


def fmt_point(v: Sequence[Fraction]) -> str:
    return ",".join(str(Fraction(c)) for c in v)


# -- parsing the CLI's polynomial grammar -----------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class ParseFailure(ValueError):
    pass


def parse_poly(text: str, names: Sequence[str]) -> tuple[Poly, Poly]:
    """(real part, imaginary part) of a polynomial in the CLI grammar."""
    tokens = []
    for num, name, op in _TOKEN.findall(text.strip()):
        tokens.append(("n", int(num)) if num else ("v", name) if name else ("o", op))
    index = {v: k for k, v in enumerate(names)}
    n = len(names)
    one = (0,) * n
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def add(a, b, sign=1):
        return (poly_add(a[0], poly_scale(b[0], Fraction(sign))), poly_add(a[1], poly_scale(b[1], Fraction(sign))))

    def mul(a, b):
        re_ = poly_add(poly_mul(a[0], b[0]), poly_scale(poly_mul(a[1], b[1]), Fraction(-1)))
        im_ = poly_add(poly_mul(a[0], b[1]), poly_mul(a[1], b[0]))
        return (re_, im_)

    def expr():
        sign = 1
        if peek() in (("o", "-"), ("o", "+")):
            sign = -1 if take()[1] == "-" else 1
        value = term()
        if sign < 0:
            value = add(({}, {}), value, -1)
        while peek() in (("o", "+"), ("o", "-")):
            op = take()[1]
            value = add(value, term(), 1 if op == "+" else -1)
        return value

    def term():
        value = power()
        while peek() in (("o", "*"), ("o", "/")):
            op = take()[1]
            rhs = power()
            if op == "*":
                value = mul(value, rhs)
            else:
                if rhs[1] or set(rhs[0]) - {one}:
                    raise ParseFailure("division by a non-constant")
                d = rhs[0].get(one, 0)
                value = (poly_scale(value[0], 1 / Fraction(d)), poly_scale(value[1], 1 / Fraction(d)))
        return value

    def power():
        base = atom()
        if peek() == ("o", "^"):
            take()
            kind, k = take()
            if kind != "n":
                raise ParseFailure("exponent must be an integer")
            out = ({one: Fraction(1)}, {})
            for _ in range(k):
                out = mul(out, base)
            return out
        return base

    def atom():
        kind, val = take() if pos < len(tokens) else (None, None)
        if kind == "n":
            return ({one: Fraction(val)}, {})
        if kind == "v" and val == "i" and "i" not in index:
            return ({}, {one: Fraction(1)})
        if kind == "v":
            if val not in index:
                raise ParseFailure(f"unknown variable {val!r}")
            return (linear([int(k == index[val]) for k in range(n)]), {})
        if (kind, val) == ("o", "("):
            inner = expr()
            if take() != ("o", ")"):
                raise ParseFailure("unbalanced parenthesis")
            return inner
        if (kind, val) == ("o", "-"):
            return add(({}, {}), atom(), -1)
        raise ParseFailure(f"unexpected token {val!r} in {text!r}")

    result = expr()
    if pos != len(tokens):
        raise ParseFailure(f"trailing input in {text!r}")
    return result


def parse_real_poly(text: str, names: Sequence[str]) -> Poly:
    re_, im_ = parse_poly(text, names)
    if im_:
        raise ParseFailure(f"expected a real polynomial, got {text!r}")
    return re_


def parse_uni(text: str) -> list[Fraction]:
    """Ascending coefficients of a univariate polynomial in t."""
    p = parse_real_poly(text, ("t",))
    deg = max((e[0] for e in p), default=0)
    return [p.get((k,), Fraction(0)) for k in range(deg + 1)]


# -- univariate polynomials (ascending Fraction lists) -----------------------


def restrict(p: Poly, e: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients of t -> p(t*e - v), ascending."""
    out: list[Fraction] = [Fraction(0)]
    for expo, c in p.items():
        term = [c]
        for k, power in enumerate(expo):
            for _ in range(power):
                term = uni_mul(term, [-Fraction(v[k]), Fraction(e[k])])
        out = uni_add(out, term)
    return uni_trim(out)


def uni_trim(a: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def uni_add(a, b):
    n = max(len(a), len(b))
    return uni_trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def uni_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return uni_trim(out)


def uni_divmod(a, b):
    """Quotient and remainder of a by nonzero b."""
    a = uni_trim(a)
    b = uni_trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for k, bk in enumerate(b):
            a[k + shift] -= c * bk
        a = uni_trim(a[:-1] or [Fraction(0)])
    return uni_trim(q), a


def uni_gcd(a, b):
    a, b = uni_trim(a), uni_trim(b)
    while any(b):
        a, b = b, uni_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _sign_changes(values):
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def distinct_real_roots(a: list[Fraction]) -> int:
    """Sturm count of the distinct real roots of a nonconstant polynomial."""
    chain = [uni_trim(a), uni_trim([k * c for k, c in enumerate(a)][1:] or [Fraction(0)])]
    while len(chain[-1]) > 1:
        r = uni_divmod(chain[-2], chain[-1])[1]
        if not any(r):
            break
        chain.append([-c for c in r])
    deg = lambda p: len(p) - 1  # noqa: E731
    at_plus = [p[-1] for p in chain]
    at_minus = [p[-1] * (-1) ** deg(p) for p in chain]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def is_real_rooted(a: list[Fraction]) -> bool:
    a = uni_trim(a)
    if len(a) <= 2:
        return True
    derivative = [k * c for k, c in enumerate(a)][1:]
    squarefree = uni_divmod(a, uni_gcd(a, derivative))[0]
    return len(squarefree) <= 2 or distinct_real_roots(squarefree) == len(squarefree) - 1


# -- the CLI's line sampler, re-derived from its documented definition ------


def sample_direction(seed: int, index: int, arity: int, box: int) -> tuple[int, ...]:
    """Digits of SHA-256("seed:index") in base 2*box+1, shifted by -box."""
    value = int.from_bytes(hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest(), "big")
    coords = []
    for _ in range(arity):
        value, digit = divmod(value, 2 * box + 1)
        coords.append(digit - box)
    return tuple(coords)


# -- dense matrices over Q ---------------------------------------------------


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                row_k = a[k]
                a[i] = [x - f * y for x, y in zip(a[i], row_k)]
    return out


def is_positive_definite(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Symmetric elimination without pivoting: all pivots must be positive."""
    a = [list(r) for r in rows]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return True
