"""Sturm chains, root counting, and interlacing."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypercert.polyring import UniPoly, sturm_chain
from hypercert.realroots import (
    DegreeMismatchError,
    NotRealRootedError,
    _index,
    _isolate_squarefree,
    interlaces_univariate,
    is_real_rooted,
    refine_interval,
)
from oracles import count_distinct_roots, from_roots, shift, sturm_chain_reference, unipoly_product


def random_rational(rng, span=10, max_den=4):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, max_den + 1))


class TestRealRooted:
    def test_examples(self):
        assert is_real_rooted(UniPoly([-2, 0, 1]))  # t^2 - 2
        assert not is_real_rooted(UniPoly([1, 0, 1]))  # t^2 + 1
        assert is_real_rooted(from_roots([1, 1, -2]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_real_rooted(UniPoly([]))

    def test_random_real_rooted_products(self):
        rng = random.Random(47)
        for _ in range(100):
            roots = [random_rational(rng) for _ in range(rng.randrange(1, 6))]
            assert is_real_rooted(from_roots(roots))

    def test_random_with_complex_factor(self):
        rng = random.Random(53)
        for _ in range(100):
            roots = [random_rational(rng) for _ in range(rng.randrange(0, 4))]
            a = random_rational(rng, span=5)
            b = rng.randrange(1, 6)
            # (t - a)^2 + b^2 has no real roots
            complex_factor = [a * a + b * b, -2 * a, 1]
            assert not is_real_rooted(unipoly_product(from_roots(roots), complex_factor))


class TestSturmCount:
    def test_count_against_known_roots(self):
        rng = random.Random(59)
        for _ in range(100):
            distinct = sorted(
                {random_rational(rng) for _ in range(rng.randrange(1, 6))}
            )
            mults = [rng.randrange(1, 3) for _ in distinct]
            f = unipoly_product(*(from_roots([root] * m) for root, m in zip(distinct, mults)))
            a = min(distinct) - 1 + Fraction(1, 7)
            b = max(distinct) + Fraction(1, 7)
            while any(r == a for r in distinct):
                a -= Fraction(1, 13)
            expected = sum(1 for r in distinct if a < r <= b)
            assert count_distinct_roots(f, a, b) == expected
            assert count_distinct_roots(f) == len(distinct)

    def test_endpoint_root_rejected(self):
        f = from_roots([2])
        with pytest.raises(ValueError):
            count_distinct_roots(f, 2, 5)


class TestInterlacing:
    def test_rolle_example(self):
        f = UniPoly([0, -1, 0, 1])  # t^3 - t
        g = UniPoly([-1, 0, 3])  # 3t^2 - 1
        assert interlaces_univariate(f, g)

    def test_root_outside(self):
        assert not interlaces_univariate(UniPoly([-1, 0, 1]), UniPoly([-2, 1]))

    def test_shared_roots_weak_chain(self):
        f = from_roots([1, 1, -1])
        g = from_roots([1, -1])
        assert interlaces_univariate(f, g)

    def test_repeated_root_needs_matching_partner(self):
        # roots {-2, 1, 1, 1} vs {1, 1, b}: weak chain iff -2 <= b <= 1
        f = from_roots([1, 1, 1, -2])
        assert interlaces_univariate(f, from_roots([1, 1, 0]))
        assert interlaces_univariate(f, from_roots([1, 1, -2]))
        assert not interlaces_univariate(f, from_roots([1, 1, 2]))
        assert not interlaces_univariate(f, from_roots([1, 5, 0]))

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            interlaces_univariate(from_roots([1, 2, 3]), from_roots([0]))

    def test_non_real_rooted_reports_which(self):
        with pytest.raises(NotRealRootedError) as info:
            interlaces_univariate(UniPoly([1, 0, 1]), UniPoly([0, 1]))
        assert info.value.which == "f"
        with pytest.raises(NotRealRootedError) as info:
            interlaces_univariate(
                from_roots([0, 1, 2]), UniPoly([1, 0, 1])
            )
        assert info.value.which == "g"

    def test_derivative_interlaces_random(self):
        rng = random.Random(71)
        for _ in range(100):
            roots = [random_rational(rng, span=8) for _ in range(rng.randrange(2, 6))]
            f = from_roots(roots)
            assert interlaces_univariate(f, f.derivative())

    def test_invariance_under_scaling_and_shift(self):
        rng = random.Random(73)
        for _ in range(50):
            fr = [random_rational(rng, span=6) for _ in range(3)]
            f = from_roots(fr)
            g = f.derivative()
            verdict = interlaces_univariate(f, g)
            scale = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
            assert interlaces_univariate(unipoly_product(f, [scale]), g) == verdict
            assert interlaces_univariate(f, unipoly_product(g, [scale])) == verdict
            q = random_rational(rng, span=4)
            assert interlaces_univariate(shift(f, q), shift(g, q)) == verdict

    def test_sign_symmetry(self):
        # Negating f or g flips the sign of the Cauchy index of g/f, which
        # reaches -deg f1 when exactly one of them is negated.
        rng = random.Random(83)
        seen = set()
        for _ in range(150):
            d = rng.randrange(1, 5)
            a = sorted(Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(d))
            b = sorted(Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) for _ in range(d - 1))
            f = from_roots(a, lead=rng.randrange(1, 4))
            g = from_roots(b, lead=rng.randrange(1, 4))
            chain = all(a[k] <= b[k] <= a[k + 1] for k in range(d - 1))
            for sf, sg in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                assert interlaces_univariate(unipoly_product(f, [sf]), unipoly_product(g, [sg])) == chain
            seen.add(chain)
        assert len(seen) == 2

    def test_brute_force_multiset_oracle(self):
        # Rational-rooted pairs: compare against the sorted multiset chain.
        rng = random.Random(79)
        for _ in range(200):
            d = rng.randrange(2, 5)
            a = sorted(Fraction(rng.randrange(-4, 5)) for _ in range(d))
            b = sorted(Fraction(rng.randrange(-4, 5)) for _ in range(d - 1))
            chain = all(a[k] <= b[k] <= a[k + 1] for k in range(d - 1))
            f = from_roots(a)
            g = from_roots(b)
            assert interlaces_univariate(f, g) == chain


# -- the integer chain against the Fraction Euclid ---------------------------------

QS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def q_polys(draw, max_degree=6):
    """Polynomials over Q: free coefficients, or a product of chosen rational
    roots (repeats frequent) with an optional t^2 + 1 factor."""
    if draw(st.booleans()):
        return UniPoly(draw(st.lists(QS, max_size=max_degree + 1)))
    roots = draw(st.lists(st.sampled_from([Fraction(k, 2) for k in range(-3, 4)]), max_size=max_degree - 2))
    f = from_roots(roots, lead=draw(QS.filter(bool)))
    return unipoly_product(f, [1, 0, 1]) if draw(st.booleans()) else f


def assert_positive_multiples(chain, reference):
    assert [len(p) - 1 for p in chain] == [r.degree for r in reference]
    for k, (p, r) in enumerate(zip(chain, reference)):
        member = UniPoly(p)
        if r.is_zero():
            assert member.is_zero()
            continue
        ratio = r.leading() / member.leading()
        assert ratio > 0 and unipoly_product(member, [ratio]) == r
        if k >= 2:  # a remainder: the reference divides out its content too
            assert member == r


class TestSturmChainOracle:
    @given(q_polys(), st.one_of(st.none(), q_polys()))
    @example(from_roots([1, 1, 1, -2]), None)  # repeated roots
    @example(UniPoly([Fraction(-3, 4)]), None)  # constant f: f' = 0
    @example(UniPoly([Fraction(-3, 4)]), UniPoly([1, 2]))
    @example(from_roots([0, 1]), UniPoly([]))  # explicit zero g
    @example(UniPoly([]), UniPoly([2, -1]))
    @example(from_roots([Fraction(1, 2)], lead=-3), from_roots([5, 0, 1]))  # deg g > deg f
    def test_positive_multiples_of_the_signed_remainder_sequence(self, f, g):
        chain = sturm_chain(f, g)
        assert all(type(c) is int for p in chain for c in p)
        assert_positive_multiples(chain, sturm_chain_reference(f, g))


# -- sympy oracles (tests only) ---------------------------------------------------

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")

# Irreducible quadratics over Q with real roots: t^2 - 2, t^2 - 3, t^2 - 2t - 1
# (roots 1 +- sqrt 2) and 4t^2 - 5.
REAL_QUADRATICS = ([-2, 0, 1], [-3, 0, 1], [-1, -2, 1], [-5, 0, 4])


def to_sympy(f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], X)


def random_factored(rng, max_factors=4, max_mult=3):
    """A product of powers of rational linear factors, irreducible real
    quadratics and one optional positive quadratic (no real roots)."""
    factors = [[Fraction(rng.randrange(1, 4), rng.randrange(1, 3))]]
    for _ in range(rng.randrange(1, max_factors + 1)):
        if rng.random() < 0.6:
            factor = from_roots([random_rational(rng, span=4, max_den=3)])
        else:
            factor = rng.choice(REAL_QUADRATICS)
        factors += [factor] * rng.randrange(1, max_mult + 1)
    if rng.random() < 0.3:
        factors.append([1, 0, 1])
    return unipoly_product(*factors)


def check_squarefree_isolation(f, width=Fraction(1, 10**6)):
    """_isolate_squarefree on f's squarefree part against sympy's distinct
    real roots, then refine_interval on each interval down to ``width``."""
    g = f.squarefree_part()
    distinct = sorted(set(sympy.real_roots(to_sympy(f))), key=lambda r: float(r))
    pairs = _isolate_squarefree(g)
    assert len(pairs) == len(distinct)
    for (lo, hi), root in zip(pairs, distinct):
        narrow = refine_interval(g, lo, hi, width)
        assert narrow[1] - narrow[0] <= width
        # A deflated rational root may be the end of a neighbour's interval,
        # so a non-point interval holds its one root strictly inside.
        for a, b in ((lo, hi), narrow):
            if a == b:
                assert a == root
            else:
                assert [r for r in distinct if sympy.Rational(a) < r < sympy.Rational(b)] == [root]
    return pairs


class TestIsolationOracle:
    def test_random_products_against_sympy(self):
        rng = random.Random(4001)
        for _ in range(40):
            check_squarefree_isolation(random_factored(rng))

    def test_repeated_roots_of_several_multiplicities(self):
        # Multiplicities 1 to 4, each with rational and irrational roots.
        f = from_roots([Fraction(1, 3)])
        for mult, quad, root in ((2, [-2, 0, 1], -1), (3, [-3, 0, 1], 2), (4, [-1, -2, 1], Fraction(-5, 2))):
            for _ in range(mult):
                f = unipoly_product(f, quad, from_roots([root]))
        assert len(check_squarefree_isolation(f)) == 10

    def test_rational_root_at_a_bisection_midpoint_is_deflated(self):
        # Isolation starts from (-B, B), B the Cauchy bound, so its first
        # midpoint is 0, a root of t (t^2 - 2), which is deflated out.
        f = UniPoly([0, -2, 0, 1])
        for poly in (f, unipoly_product(f, f)):
            pairs = check_squarefree_isolation(poly)
            assert [lo for lo, hi in pairs if lo == hi] == [0]

    def test_deflation_next_to_a_close_root(self):
        # 0 is hit at the first midpoint while 1/1024 must still be separated.
        f = unipoly_product(from_roots([0, Fraction(1, 1024), -1]), [-2, 0, 1])
        pairs = check_squarefree_isolation(f, width=Fraction(1, 4096))
        assert (0, 0) in pairs


class TestCountOracle:
    def test_repeated_roots_against_sympy(self):
        rng = random.Random(4007)
        mults = set()
        for _ in range(40):
            f = random_factored(rng, max_factors=3, max_mult=4)
            mults.update(m for _, m in sympy.sqf_list(to_sympy(f))[1])
            roots = sympy.real_roots(to_sympy(f))
            distinct = sorted(set(roots), key=lambda r: float(r))
            assert is_real_rooted(f) == (len(roots) == f.degree)
            assert count_distinct_roots(f) == len(distinct)
            # Finite ends: below, between and above the roots.
            floats = [float(r) for r in distinct] or [0.0]
            cuts = [floats[0] - 1, *((x + y) / 2 for x, y in zip(floats, floats[1:])), floats[-1] + 1]
            ends = [Fraction(c).limit_denominator(1000) for c in cuts]
            ends = [e for e in ends if f.eval(e)]
            for lo, hi in itertools.combinations(ends, 2):
                expected = sum(1 for r in distinct if sympy.Rational(lo) < r <= sympy.Rational(hi))
                assert count_distinct_roots(f, lo, hi) == expected
        assert {2, 3, 4} <= mults


def sympy_chain(f, g):
    """The weak interlacing chain from sympy's sorted roots."""
    a = sorted(sympy.real_roots(to_sympy(f)), key=lambda r: float(r))
    b = sorted(sympy.real_roots(to_sympy(g)), key=lambda r: float(r))
    if len(a) != f.degree or len(b) != g.degree:
        return None
    return all(a[k] <= b[k] <= a[k + 1] for k in range(len(b)))


class TestInterlacingOracle:
    def test_random_real_rooted_pairs_against_sympy(self):
        rng = random.Random(4003)
        seen = set()
        for trial in range(60):
            f = random_factored(rng, max_factors=3, max_mult=2)
            while not is_real_rooted(f) or f.degree < 2:
                f = random_factored(rng, max_factors=3, max_mult=2)
            kind = trial % 3
            if kind == 0:
                g = f.derivative()  # Rolle: always interlaces weakly
            elif kind == 1:
                # Drop one root of a rational linear factor, if there is one.
                linear = [h for h, _ in _linear_factors(f)]
                g = f.divide_exact(rng.choice(linear)) if linear else f.derivative()
            else:
                g = random_factored(rng, max_factors=3, max_mult=2)
                while not is_real_rooted(g) or g.degree != f.degree - 1:
                    g = random_factored(rng, max_factors=3, max_mult=2)
            expected = sympy_chain(f, g)
            assert expected is not None
            assert interlaces_univariate(f, g) == expected, (f, g)
            seen.add(expected)
        assert seen == {True, False}


def _linear_factors(f):
    """(t - r, r) for the distinct rational roots r of f."""
    out = []
    for r in sympy.roots(to_sympy(f), filter="Q"):
        q = Fraction(int(r.p), int(r.q))
        out.append((from_roots([q]), q))
    return out


class TestInterlacingCommonFactors:
    @pytest.mark.parametrize("common", [UniPoly([-2, 0, 1]), unipoly_product([-2, 0, 1], [-2, 0, 1])])
    def test_shared_irrational_factor_against_sympy(self, common):
        # f = common * f1, g = common * g1 with f1 of degree 1..3 (degree 1
        # leaves g1 constant); the roots of f1, g1 may meet those of common.
        rng = random.Random(4011)
        seen = set()
        for trial in range(40):
            d = trial % 3 + 1
            a = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(d)]
            b = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(d - 1)]
            f = unipoly_product(common, from_roots(a, lead=rng.choice([-2, 1, 3])))
            g = unipoly_product(common, from_roots(b, lead=rng.choice([-1, 1, 2])))
            expected = sympy_chain(f, g)
            assert interlaces_univariate(f, g) == expected, (f, g)
            seen.add((d == 1, expected))
        assert {(True, True), (False, True), (False, False)} <= seen


# -- interlacing against the order that decided g's real-rootedness first ---------


def interlaces_g_checked_first(f, g):
    """Reference: both operands' real-rootedness before the index test."""
    if not is_real_rooted(f):
        raise NotRealRootedError("f")
    if not is_real_rooted(g):
        raise NotRealRootedError("g")
    chain = sturm_chain(f, g)
    common = len(chain[-1]) - 1
    return abs(_index(chain)) == f.degree - common


def _outcome(fn, f, g):
    try:
        return fn(f, g)
    except NotRealRootedError as err:
        return ("not-real-rooted", err.which)


@st.composite
def interlacing_pairs(draw):
    """(f, g) with deg g = deg f - 1, roots from a small pool so that common
    roots are frequent, and an optional t^2 + 1 factor in either."""
    root = st.sampled_from([Fraction(k, 2) for k in range(-4, 5)])
    f_complex = draw(st.sampled_from([False, False, False, True]))
    f_roots = draw(st.lists(root, min_size=1, max_size=4))
    g_degree = len(f_roots) + 2 * f_complex - 1
    g_complex = g_degree >= 2 and draw(st.booleans())
    g_roots = draw(st.lists(root, min_size=g_degree - 2 * g_complex, max_size=g_degree - 2 * g_complex))
    f = from_roots(f_roots, lead=draw(st.sampled_from([-2, 1, 3])))
    g = from_roots(g_roots, lead=draw(st.sampled_from([-1, 1, 2])))
    if f_complex:
        f = unipoly_product(f, [1, 0, 1])
    if g_complex:
        g = unipoly_product(g, [1, 0, 1])
    return f, g


class TestInterlacingOrder:
    @given(interlacing_pairs())
    @example((from_roots([0, 1, 2]), UniPoly([1, 0, 1])))  # g not real-rooted
    @example((from_roots([0, 1, 1]), from_roots([1, 1])))
    def test_same_verdict_as_checking_g_first(self, pair):
        f, g = pair
        assert _outcome(interlaces_univariate, f, g) == _outcome(interlaces_g_checked_first, f, g)


# -- real-rootedness and interlacing against sympy on integer polynomials ----------

INT_ROOTS = st.lists(st.integers(-4, 4), max_size=5)


def int_poly(roots, quadratic):
    """prod (t - root) times an optional t^2 + b*t + c: integer coefficients."""
    f = from_roots(roots)
    return unipoly_product(f, quadratic) if quadratic else f


QUADRATICS = st.one_of(st.none(), st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.just(1)))


class TestRealRootedAgainstSympy:
    @given(INT_ROOTS, QUADRATICS)
    @example([1, 1, 1], (2, 0, 1))  # triple root and a complex pair
    @example([0, 0], (-2, 0, 1))
    def test_is_real_rooted(self, roots, quadratic):
        f = int_poly(roots, quadratic)
        p = sympy.Poly([int(c) for c in reversed(f.coeffs)], X)
        assert len(sympy.real_roots(p)) <= f.degree  # counted with multiplicity
        assert is_real_rooted(f) == (len(sympy.real_roots(p)) == f.degree)
        assert count_distinct_roots(f) == p.count_roots()

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=5), st.data())
    def test_interlaces_univariate(self, f_roots, data):
        g_roots = data.draw(st.lists(st.integers(-3, 3), min_size=len(f_roots) - 1, max_size=len(f_roots) - 1))
        lead_f, lead_g = data.draw(st.sampled_from([-2, 1, 3])), data.draw(st.sampled_from([-1, 1, 2]))
        f, g = from_roots(f_roots, lead=lead_f), from_roots(g_roots, lead=lead_g)
        assert interlaces_univariate(f, g) == sympy_chain(f, g)
