"""Exact univariate real-root machinery.

Sturm chains over Q, root counting on intervals, isolation with
multiplicities (via Yun's squarefree decomposition), interval refinement by
rational bisection, and weak/strict interlacing of root multisets.  One
refine-until-disjoint loop separates the intervals of coprime squarefree
polynomials, for isolation (Yun factors) and interlacing (f against g).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .polyring import UniPoly
from .scalars import RationalLike, as_fraction


class NotRealRootedError(ValueError):
    """An interlacing operand is not real-rooted; ``which`` names it."""

    def __init__(self, which: str):
        super().__init__(f"polynomial {which!r} is not real-rooted")
        self.which = which


class DegreeMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class IsolatingInterval:
    """A closed rational interval holding exactly one distinct real root.

    ``lo == hi`` records an exact rational root.  ``multiplicity`` is the
    root's multiplicity in the subject polynomial.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}] x {self.multiplicity}"

    def is_point(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def disjoint_from(self, other: "IsolatingInterval") -> bool:
        return self.hi < other.lo or other.hi < self.lo


def _positive_content_scaled(p: UniPoly) -> UniPoly:
    """Divide out the positive rational content, preserving signs
    (sign-flipping normalization would corrupt a Sturm chain)."""
    if p.is_zero():
        return p
    num = math.gcd(*[c.numerator for c in p.coeffs])
    den = math.lcm(*[c.denominator for c in p.coeffs])
    return p.scale(Fraction(den, num))


def sturm_chain(f: UniPoly) -> list[UniPoly]:
    """Signed remainder sequence f, f', -rem(...), ... down to the gcd."""
    chain = [f, f.derivative()]
    if chain[-1].is_zero():
        chain.pop()
        return chain
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(_positive_content_scaled(-rem))
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: Sequence[UniPoly], x: Optional[Fraction], at_minus_inf: bool = False) -> int:
    signs = []
    for p in chain:
        if x is None:
            s = _sign(p.leading()) if p else 0
            if at_minus_inf and p and p.degree % 2 == 1:
                s = -s
        else:
            s = _sign(p.eval(x))
        signs.append(s)
    return _variations(signs)


def count_distinct_roots(
    f: UniPoly, lo: Optional[RationalLike] = None, hi: Optional[RationalLike] = None
) -> int:
    """Number of distinct real roots of f in (lo, hi]; None means +-infinity.

    Finite endpoints must not be roots of the squarefree part.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    return _count_squarefree(f.squarefree_part(), lo, hi)


def _count_squarefree(
    g: UniPoly, lo: Optional[RationalLike] = None, hi: Optional[RationalLike] = None
) -> int:
    """count_distinct_roots for a g that is already squarefree."""
    if g.degree == 0:
        return 0
    lo_f = None if lo is None else as_fraction(lo)
    hi_f = None if hi is None else as_fraction(hi)
    for name, x in (("lo", lo_f), ("hi", hi_f)):
        if x is not None and not g.eval(x):
            raise ValueError(f"endpoint {name}={x} is a root; counting is ambiguous there")
    chain = sturm_chain(g)
    va = _variations_at(chain, lo_f, at_minus_inf=lo_f is None)
    vb = _variations_at(chain, hi_f)
    return va - vb


def cauchy_root_bound(f: UniPoly) -> Fraction:
    """B with all real roots strictly inside (-B, B)."""
    if f.is_zero() or f.degree < 1:
        return Fraction(1)
    lead = abs(f.leading())
    return 1 + max(abs(c) for c in f.coeffs[:-1]) / lead


def is_real_rooted(f: UniPoly) -> bool:
    """True iff every complex root of f is real (multiplicities immaterial):
    the squarefree part g must have exactly deg(g) distinct real roots."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return True
    g = f.squarefree_part()
    return _count_squarefree(g) == g.degree


def _isolate_squarefree(g: UniPoly) -> list[tuple[Fraction, Fraction]]:
    """Sorted intervals, one distinct root of squarefree g each.

    Interval endpoints are never roots; an exactly-hit rational root is
    deflated out of g and returned as a degenerate [r, r] pair.
    """
    if g.degree < 1:
        return []
    bound = cauchy_root_bound(g)
    chain = sturm_chain(g)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        k = _variations_at(chain, a) - _variations_at(chain, b)
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if not g.eval(mid):
            # Exact rational root: record it and deflate.  Counts on the
            # other pending panels are unchanged (mid lies outside them),
            # and mid becomes a legal non-root endpoint.
            out.append((mid, mid))
            g = g.divide_exact(UniPoly([-mid, 1]))
            chain = sturm_chain(g)
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out


def refine_interval(
    g: UniPoly, lo: Fraction, hi: Fraction, max_width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree g below max_width by
    bisection; may collapse onto an exact rational root."""
    if lo == hi:
        return (lo, hi)
    chain = sturm_chain(g)

    def count(a: Fraction, b: Fraction) -> int:
        return _variations_at(chain, a) - _variations_at(chain, b)

    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if not g.eval(mid):
            return (mid, mid)
        if count(lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


def _refine_all_disjoint(items: list[tuple[Fraction, Fraction, UniPoly, object]]) -> list[tuple]:
    """Refine (lo, hi, g, tag) intervals, each isolating a root of its
    squarefree g, until pairwise disjoint; returns sorted (lo, hi, tag).

    The roots must be distinct, so quartering the widths of every
    overlapping pair terminates.
    """
    work = list(items)
    changed = True
    while changed:
        changed = False
        work.sort(key=lambda t: (t[0], t[1]))
        for a in range(len(work) - 1):
            lo1, hi1, g1, t1 = work[a]
            lo2, hi2, g2, t2 = work[a + 1]
            if hi1 < lo2:
                continue
            if hi1 > lo1:
                lo1, hi1 = refine_interval(g1, lo1, hi1, (hi1 - lo1) / 4)
                work[a] = (lo1, hi1, g1, t1)
            if hi2 > lo2:
                lo2, hi2 = refine_interval(g2, lo2, hi2, (hi2 - lo2) / 4)
                work[a + 1] = (lo2, hi2, g2, t2)
            changed = True
    return [(lo, hi, tag) for lo, hi, _, tag in work]


def isolate_roots(f: UniPoly) -> list[IsolatingInterval]:
    """Sorted, pairwise-disjoint isolating intervals with multiplicities.

    Multiplicities are taken from Yun's squarefree decomposition; the
    intervals of all factors, tagged with their multiplicity, go through the
    refine loop that interlacing uses too.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    tagged = [
        (lo, hi, factor, mult)
        for factor, mult in f.squarefree_decomposition()
        for lo, hi in _isolate_squarefree(factor)
    ]
    return [IsolatingInterval(lo, hi, mult) for lo, hi, mult in _refine_all_disjoint(tagged)]


def refine_isolation(
    f: UniPoly, intervals: Sequence[IsolatingInterval], max_width: RationalLike
) -> list[IsolatingInterval]:
    """Re-refine an isolation of f until every interval is narrower than
    max_width (point intervals stay points).

    Yun factors are indexed by multiplicity, so each interval's owning
    squarefree factor is the one matching its multiplicity tag.
    """
    width = as_fraction(max_width)
    by_mult = {mult: g for g, mult in f.squarefree_decomposition()}
    out = []
    for iv in intervals:
        owner = by_mult.get(iv.multiplicity)
        if owner is None:  # pragma: no cover - defensive
            raise AssertionError("interval does not match any squarefree factor")
        lo, hi = refine_interval(owner, iv.lo, iv.hi, width)
        out.append(IsolatingInterval(lo, hi, iv.multiplicity))
    return out


# ---------------------------------------------------------------------------
# Interlacing
# ---------------------------------------------------------------------------


def interlaces_univariate(f: UniPoly, g: UniPoly, strict: bool = False) -> bool:
    """Weak interlacing of root multisets: with a_i the roots of f and b_i
    the roots of g (all real, counted with multiplicity, deg g = deg f - 1),
    decide a_1 <= b_1 <= a_2 <= ... <= b_{d-1} <= a_d.

    Common roots are stripped as gcd(f, g) -- they pair up as a_i = b_i in
    the weak chain.  After stripping, any repeated root forces a failure, and
    the simple roots must strictly alternate starting and ending with f.
    With ``strict=True`` the chain must hold with strict inequalities.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("interlacing needs nonzero polynomials")
    if g.degree != f.degree - 1:
        raise DegreeMismatchError(
            f"deg(g) = {g.degree} must be deg(f) - 1 = {f.degree - 1}"
        )
    if not is_real_rooted(f):
        raise NotRealRootedError("f")
    if not is_real_rooted(g):
        raise NotRealRootedError("g")
    if f.degree == 1:
        return True  # single root of f, no g-roots required
    common = f.gcd(g)
    if strict and common.degree > 0:
        return False
    f1 = f.divide_exact(common)
    g1 = g.divide_exact(common)
    # After stripping the common part, a repeated root of either side would
    # need an equal root on the other side, which no longer exists.
    for poly in (f1, g1):
        for _, mult in poly.squarefree_decomposition():
            if mult > 1:
                return False
    if strict:
        for poly in (f, g):
            for _, mult in poly.squarefree_decomposition():
                if mult > 1:
                    return False
    if f1.degree <= 0:
        return True
    tagged = []
    f_sq = f1.squarefree_part()
    for lo, hi in _isolate_squarefree(f_sq):
        tagged.append((lo, hi, f_sq, "f"))
    if g1.degree > 0:
        g_sq = g1.squarefree_part()
        for lo, hi in _isolate_squarefree(g_sq):
            tagged.append((lo, hi, g_sq, "g"))
    merged = _refine_all_disjoint(tagged)
    pattern = [tag for _, _, tag in merged]
    if len(pattern) != 2 * f1.degree - 1:
        return False
    expected = ["f" if k % 2 == 0 else "g" for k in range(len(pattern))]
    return pattern == expected
