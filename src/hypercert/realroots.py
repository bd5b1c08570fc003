"""Exact univariate real-root machinery.

Real-rootedness and interlacing are decided by counting, not isolating:
the sign variations V(a) - V(b) of the signed remainder sequence of (f, g)
give the Cauchy index of g/f on (a, b) (Basu-Pollack-Roy, *Algorithms in
Real Algebraic Geometry*, Thm 2.58), for g = f' the number of distinct real
roots of f (Sturm).  Variations only see signs, so any sequence whose
members are positive multiples of those does: ``polyring.sturm_chain`` is
the primitive pseudo-remainder sequence over Z (Collins 1967; Brown-Traub
1971), int coefficient tuples with no Fraction, and the one Euclid that
also gives ``UniPoly.gcd``.  It starts from the int numerators that a
``UniPoly`` stores, so a sampled line goes from its Taylor table to the
last Sturm member in ints.  Signs at +-infinity are read off each
member's leading coefficient and length.  The library isolates no roots;
``_isolate_squarefree`` and ``refine_interval`` remain only as benchmark
hooks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .polyring import UniPoly, sturm_chain


class NotRealRootedError(ValueError):
    """An interlacing operand is not real-rooted; ``which`` names it."""

    def __init__(self, which: str):
        super().__init__(f"polynomial {which!r} is not real-rooted")
        self.which = which


class DegreeMismatchError(ValueError):
    pass


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(chain: Sequence[Sequence[int]], x: Optional[Fraction], minus_inf: bool = False) -> int:
    """Sign variations at x of a chain of int coefficient tuples, zeros
    skipped; None is +oo (-oo if minus_inf)."""
    count = 0
    prev = 0
    for p in chain:
        if x is None:
            s = 1 if p[-1] > 0 else -1
            if minus_inf and len(p) % 2 == 0:
                s = -s
        else:
            s = _sign(UniPoly(p).eval(x))
        if s:
            if prev and s != prev:
                count += 1
            prev = s
    return count


def _index(chain: Sequence[Sequence[int]], lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> int:
    """V(lo) - V(hi), None meaning -oo for lo and +oo for hi: for the chain
    of (f, g) the Cauchy index of g/f on (lo, hi) if neither end is a root
    of f (Basu-Pollack-Roy, Thm 2.58); for g = f' the number of distinct
    real roots of f there (Sturm)."""
    return _variations(chain, lo, minus_inf=True) - _variations(chain, hi)


def cauchy_root_bound(f: UniPoly) -> Fraction:
    """B with all real roots strictly inside (-B, B)."""
    if f.is_zero() or f.degree < 1:
        return Fraction(1)
    lead = abs(f.leading())
    return 1 + max(abs(c) for c in f.coeffs[:-1]) / lead


def is_real_rooted(f: UniPoly) -> bool:
    """True iff every complex root of f is real (multiplicities immaterial):
    the Sturm count of distinct real roots must be deg f - deg gcd(f, f'),
    the number of distinct complex ones; the chain ends in that gcd."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    chain = sturm_chain(f)
    return _index(chain) == f.degree - (len(chain[-1]) - 1)


# Kept only as a hook of perfbench's tracer, until the benchmark drops it.
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
        k = _index(chain, a, b)
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


# Kept only as a hook of perfbench's tracer, until the benchmark drops it.
def refine_interval(
    g: UniPoly, lo: Fraction, hi: Fraction, max_width: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of squarefree g below max_width by
    bisection; may collapse onto an exact rational root."""
    if lo == hi:
        return (lo, hi)
    chain = sturm_chain(g)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        if not g.eval(mid):
            return (mid, mid)
        if _index(chain, lo, mid) == 1:
            hi = mid
        else:
            lo = mid
    return (lo, hi)


# ---------------------------------------------------------------------------
# Interlacing
# ---------------------------------------------------------------------------


def interlaces_univariate(f: UniPoly, g: UniPoly) -> bool:
    """Weak interlacing of root multisets: with a_i the roots of f and b_i
    the roots of g (all real, counted with multiplicity, deg g = deg f - 1),
    decide a_1 <= b_1 <= a_2 <= ... <= b_{d-1} <= a_d.

    Common roots pair up as a_i = b_i, so the chain holds iff f1 = f/gcd
    and g1 = g/gcd have simple real roots strictly alternating from f1 to
    f1, i.e. iff |Ind(g1/f1)| = deg f1 (the Cauchy index is at most the
    number of distinct real roots of f1).  The chain of (f, g) ends in the
    gcd and its terms are the gcd times positive multiples of those for
    (f1, g1), so its variations at +-infinity give Ind(g1/f1).

    A passing index test makes g real-rooted (g1 changes sign between
    consecutive roots of f1, and the gcd divides the real-rooted f), so
    g's own real-rootedness is decided only on the way to False, where it
    chooses between False and ``NotRealRootedError("g")``.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("interlacing needs nonzero polynomials")
    if g.degree != f.degree - 1:
        raise DegreeMismatchError(
            f"deg(g) = {g.degree} must be deg(f) - 1 = {f.degree - 1}"
        )
    if not is_real_rooted(f):
        raise NotRealRootedError("f")
    chain = sturm_chain(f, g)
    if abs(_index(chain)) == f.degree - (len(chain[-1]) - 1):  # deg f1 = deg f - deg gcd(f, g)
        return True
    if not is_real_rooted(g):
        raise NotRealRootedError("g")
    return False
