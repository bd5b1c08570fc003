"""Sparse multivariate polynomials: grammar, arithmetic, restrictions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercert import polyring
from hypercert.detrep import PolyMatrix, plucker_line, polymatrix_to_pencil
from hypercert.fixtures import load_fixture_matrix
from hypercert.polyring import (
    MultiPoly,
    ParseError,
    Ring,
    UniPoly,
    _evaluator,
    format_poly,
    parse,
    _monomial_evaluator,
    real_square_factorization,
    restrict_to_line,
    sturm_chain,
)
from hypercert.scalars import _ZERO, ConstMatrix, GaussianRational, _exact_str, _integer_slices, _pencil_at, pencil_value
from oracles import (coeff_sum, directional_derivative, eval_at_reference, eval_reference, from_roots,
                     gaussian_str_reference, gprod, restrict_coefficients, restrict_reference, scale, shift,
                     unipoly_format_reference, unipoly_product)
from test_exact_kernel import RINGS, pairs, poly_pairs, polys

R3 = Ring.standard(("x0", "x1", "x2"))
R4 = Ring.standard(("x0", "x1", "x2", "x3"))
G1 = Ring.standard(("x1",), gaussian=True)


def random_poly(rng, ring, max_terms=5, max_deg=3, span=9, gaussian=False):
    items = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        expo = tuple(rng.randrange(0, max_deg + 1) for _ in ring.variables)
        re = Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4))
        im = Fraction(rng.randrange(-span, span + 1)) if gaussian else Fraction(0)
        items.append((expo, GaussianRational(re, im)))
    return MultiPoly.from_terms(ring, items)


class TestGrammar:
    def test_quadric(self):
        p = parse("x0^2 - x1^2 - x2^2", R3)
        assert len(p.terms) == 3
        assert p.eval_rational((1, 0, 0)) == 1
        assert p.eval_rational((0, 1, 0)) == -1

    def test_cubic_with_parentheses(self):
        p = parse("x0^3 - x0*(2*x1^2 + 2*x2^2 + x3^2) + x1^3 + x1*x2^2", R4)
        q = parse("x0^3 - 2*x0*x1^2 - 2*x0*x2^2 - x0*x3^2 + x1^3 + x1*x2^2", R4)
        assert p == q
        assert p.is_weighted_homogeneous()
        assert p.weighted_degree() == 3

    def test_gaussian_coefficient(self):
        p = parse("(0-1)*i*x1", G1)
        assert p.terms[(1,)] == GaussianRational(0, -1)

    def test_rational_literals(self):
        p = parse("1/2*x0 + 3/4", R3)
        assert p.eval_rational((2, 0, 0)) == Fraction(7, 4)

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse("x0 + z", R3)

    def test_imaginary_in_real_ring(self):
        with pytest.raises(ParseError):
            parse("i*x0", R3)

    def test_malformed(self):
        for text in ("x0 +", "x0^x1", "(x0", "x0 / x1", "2//3", ""):
            with pytest.raises(ParseError):
                parse(text, R3)

    def test_round_trip_fixed(self):
        for text in (
            "x0^2 - x1^2 - x2^2",
            "1/2*x0*x1 - 7",
            "x0^3 - 2*x0*x1^2 + x1^3",
        ):
            p = parse(text, R3)
            assert parse(format_poly(p), R3) == p

    def test_round_trip_random(self):
        rng = random.Random(5)
        gring = Ring.standard(("x0", "x1"), gaussian=True)
        for _ in range(200):
            p = random_poly(rng, gring, gaussian=True)
            assert parse(str(p), gring) == p


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_poly(rng, R3)
            b = random_poly(rng, R3)
            c = random_poly(rng, R3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_weighted_degree_additivity(self):
        rng = random.Random(13)
        for _ in range(100):
            a = random_poly(rng, R3)
            b = random_poly(rng, R3)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).weighted_degree() == a.weighted_degree() + b.weighted_degree()

    def test_zero_weighted_degree_is_none(self):
        assert MultiPoly.zero(R3).weighted_degree() is None

    def test_divide_exact(self):
        rng = random.Random(17)
        for _ in range(100):
            a = random_poly(rng, R3)
            b = random_poly(rng, R3)
            if b.is_zero():
                continue
            assert (a * b).divide_exact(b) == a
        with pytest.raises(ArithmeticError):
            parse("x0^2 + x1", R3).divide_exact(parse("x2", R3))


class TestConjugate:
    def test_examples(self):
        p = parse("i*x1", G1)
        assert p.conjugate() == parse("(0-1)*i*x1", G1)
        q = parse("x1^2 - 2*x1", G1)
        assert q.conjugate() == q

    def test_multiplicative(self):
        rng = random.Random(19)
        gring = Ring.standard(("x0", "x1"), gaussian=True)
        for _ in range(100):
            p = random_poly(rng, gring, gaussian=True)
            q = random_poly(rng, gring, gaussian=True)
            assert (p * q).conjugate() == p.conjugate() * q.conjugate()
            assert p.conjugate().conjugate() == p


class TestRestrictToLine:
    def test_quadric_example(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        f = restrict_to_line(h, (1, 0, 0), (0, 1, 0))
        assert f == UniPoly([-1, 0, 1])

    def test_shifted_identity(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        f = restrict_to_line(h, (1, 0, 0), (1, 0, 0))
        assert f == UniPoly([1, -2, 1])  # (t-1)^2

    def test_pointwise_evaluation_oracle(self):
        # Integer directions, directions over 2, 3 or 7, and over all three
        # at once (the table scales e by the lcm 42); h has rational
        # coefficients with denominators up to 21.
        rng = random.Random(23)
        for dens in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (7, 7, 7), (2, 3, 7)):
            for _ in range(50):
                h = scale(random_poly(rng, R3), Fraction(rng.randrange(1, 12), 7))
                e = [Fraction(rng.randrange(-5, 6), d) for d in dens]
                v = [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(3)]
                f = restrict_to_line(h, e, v)
                for _ in range(10):
                    t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
                    point = [t * ei - vi for ei, vi in zip(e, v)]
                    assert f.eval(t) == eval_reference(h, point)

    def test_linear_in_h(self):
        rng = random.Random(29)
        for _ in range(50):
            h1 = random_poly(rng, R3)
            h2 = random_poly(rng, R3)
            e = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            v = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            lhs = restrict_to_line(h1 + h2, e, v)
            rhs = UniPoly(coeff_sum(restrict_to_line(h1, e, v), restrict_to_line(h2, e, v)))
            assert lhs == rhs

    def test_leading_coefficient_is_h_of_e(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        f = restrict_to_line(h, (2, 1, 0), (3, 5, 7))
        assert f.degree == 2
        assert f.leading() == eval_reference(h, (2, 1, 0))


RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
LINE_RINGS = (
    R3,
    Ring.standard(("x0", "x1"), gaussian=True),  # real coefficients in a gaussian ring
    Ring(("x", "y"), (1, 2)),  # weights play no part in a restriction
    Ring.standard(("x0",)),
)


@st.composite
def lines(draw):
    """(h, e, v): h with up to 6 terms of any degrees (zero, constant and
    non-homogeneous h included), and v free, equal to e, or parallel to it."""
    ring = draw(st.sampled_from(LINE_RINGS))
    n = ring.arity
    top = draw(st.integers(0, 3))
    expo = st.tuples(*[st.integers(0, top)] * n)
    h = MultiPoly.from_terms(ring, draw(st.lists(st.tuples(expo, RATIONALS), max_size=6)))
    e = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    kind = draw(st.sampled_from(("free", "equal", "parallel")))
    if kind == "equal":
        v = list(e)
    elif kind == "parallel":
        c = draw(RATIONALS)
        v = [c * x for x in e]
    else:
        v = draw(st.lists(RATIONALS, min_size=n, max_size=n))
    return h, e, v


class TestRestrictionOracle:
    @given(lines())
    def test_equals_term_by_term_expansion(self, line):
        h, e, v = line
        assert restrict_to_line(h, e, v) == restrict_reference(h, e, v)
        assert restrict_to_line(h, e, v) == restrict_reference(h, e, v)  # from the cached table

    def test_zero_and_constant_h(self):
        assert restrict_to_line(MultiPoly.zero(R3), (1, 0, 0), (1, 2, 3)) == UniPoly([])
        c = MultiPoly.constant(R3, Fraction(-5, 3))
        assert restrict_to_line(c, (1, 1, 0), (1, 2, 3)) == UniPoly([Fraction(-5, 3)])

    def test_non_real_h_is_rejected(self):
        h = parse("x0^2 + i*x1^2", Ring.standard(("x0", "x1"), gaussian=True))
        for _ in range(2):  # a rejected h leaves nothing cached
            with pytest.raises(ValueError, match="real coefficients"):
                restrict_to_line(h, (1, 0), (0, 1))

    def test_arity_mismatch_is_rejected(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        restrict_to_line(h, (1, 0, 0), (0, 1, 0))  # cache the table for (h, e)
        for e, v in (((1, 0), (0, 1, 0)), ((1, 0, 0), (0, 1)), ((1, 0, 0, 0), (0, 1, 0, 0))):
            with pytest.raises(ValueError, match="arity mismatch"):
                restrict_to_line(h, e, v)


class TestRestrictionCache:
    """restrict_to_line keeps the Taylor tables of its last two (h, e); a
    call must never be answered from the table of another."""

    def test_interleaved_polynomials(self):
        # As interlaces_sampled calls it, plus a third polynomial that
        # pushes the oldest table out.
        h = parse("x0^3 - x0*x1^2 - x0*x2^2 + x1*x2^2", R3)
        g = directional_derivative(h, (1, 0, 0))
        k = parse("x0^2 - 2*x1^2 + x2", R3)
        e = (1, 0, 0)
        for step in range(4):
            v = (step, 2 * step - 3, 1)
            for p in (h, g, h, g, k):
                assert restrict_to_line(p, e, v) == restrict_reference(p, e, v)

    def test_equal_but_distinct_polynomials(self):
        h1 = parse("x0^2 - x1^2 - x2^2", R3)
        h2 = parse("x0^2 - x1^2 - x2^2", R3)
        assert h1 == h2 and h1 is not h2
        for step in range(3):
            v = (step, 1, -step)
            assert restrict_to_line(h1, (1, 0, 0), v) == restrict_to_line(h2, (1, 0, 0), v)
            assert restrict_to_line(h2, (1, 0, 0), v) == restrict_reference(h1, (1, 0, 0), v)

    def test_one_polynomial_two_directions(self):
        h = parse("x0^2 - x1^2 - x2^2 + x0*x1", R3)
        for step in range(3):
            v = (step, 1, -step)
            for e in ((1, 0, 0), (2, 1, 0), (Fraction(1, 2), 0, 0)):
                assert restrict_to_line(h, e, v) == restrict_reference(h, e, v)

    def test_e_is_coerced_once_per_table(self, monkeypatch):
        # A sampler passes the same Fractions on every line: the table is
        # found by their identity, with no coercion; e given as new objects
        # of the same value is coerced and builds a table of its own.
        h = parse("x0^3 - x0*x1^2 - x0*x2^2 + x1*x2^2", R3)
        e = [Fraction(2), Fraction(1, 3), Fraction(0)]
        lines = [(step, 1 - step, 2) for step in range(5)]
        expected = [restrict_reference(h, e, v) for v in lines]
        coerced, built = [], []
        as_fraction, table = polyring.as_fraction, polyring._TaylorTable
        monkeypatch.setattr(polyring, "as_fraction", lambda c: coerced.append(c) or as_fraction(c))
        monkeypatch.setattr(polyring, "_TaylorTable", lambda *args: built.append(args) or table(*args))
        assert [restrict_to_line(h, e, v) for v in lines] == expected
        assert (len(coerced), len(built)) == (3, 1)
        for same in ((2, Fraction(1, 3), 0), ("2", "1/3", "0")):
            assert restrict_to_line(h, same, lines[0]) == expected[0]
        assert (len(coerced), len(built)) == (9, 3)

    def test_freed_polynomial_replaced_by_a_new_one(self):
        # CPython gives a new object the address, and so the id, of one of
        # its size freed just before; the trusted constructor allocates
        # nothing else in between.
        forms = [(p.den, p.nums) for p in (parse(f"{k}*x0^2 - x1^2 + x2", R3) for k in range(1, 30))]
        e, v = (1, 0, 0), (1, 2, 3)
        expected = [restrict_reference(MultiPoly(R3, *form), e, v) for form in forms]
        for form, want in zip(forms, expected):
            h = MultiPoly(R3, *form)
            assert restrict_to_line(h, e, v) == want
            del h


class TestPower:
    @staticmethod
    def count_products(monkeypatch):
        calls = []
        product = MultiPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return product(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        return calls

    def test_first_power_forms_no_product(self, monkeypatch):
        x = MultiPoly.variable(R3, "x0")
        calls = self.count_products(monkeypatch)
        assert x**1 == x
        assert calls == []

    def test_square_and_multiply_count(self, monkeypatch):
        p = parse("x0 - 2*x1 + 1/3", R3)
        calls = self.count_products(monkeypatch)
        for n in range(1, 10):
            calls.clear()
            p**n
            assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1

    def test_equals_repeated_product(self):
        for p in (parse("x0 - 2*x1 + 1/3", R3), parse("i*x1 + 2", G1), MultiPoly.zero(R3)):
            expected = MultiPoly.constant(p.ring, 1)
            for n in range(10):
                assert p**n == expected
                expected = expected * p


class TestDirectionalDerivative:
    def test_cubic_example(self):
        h = parse("x0^3 - x0*(2*x1^2 + 2*x2^2 + x3^2) + x1^3 + x1*x2^2", R4)
        d = directional_derivative(h, (1, 0, 0, 0))
        assert d == parse("3*x0^2 - 2*x1^2 - 2*x2^2 - x3^2", R4)

    def test_product_example(self):
        h = parse("x0*x1*x2", R3)
        d = directional_derivative(h, (1, 1, 1))
        assert d == parse("x1*x2 + x0*x2 + x0*x1", R3)

    def test_zero_input(self):
        assert directional_derivative(MultiPoly.zero(R3), (1, 0, 0)).is_zero()

    def test_line_derivative_identity(self):
        # d/dt h(v + t*e) at t=0 equals (D_e h)(v).
        rng = random.Random(31)
        for _ in range(50):
            h = random_poly(rng, R3)
            e = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            v = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            f = restrict_to_line(h, e, [-vi for vi in v])  # h(t*e + v)
            slope = f.coeffs[1] if f.degree >= 1 else Fraction(0)
            assert slope == eval_reference(directional_derivative(h, e), v)


class TestSquareFactorization:
    def test_perfect_square(self):
        p = parse("x0^2 + 2*x0*x1 + x1^2", R3)
        got = real_square_factorization(p)
        assert got is not None
        c, q = got
        assert scale(q * q, c) == p
        assert c == 1

    def test_scaled_square(self):
        q = parse("x0^2 - x1*x2", R3)
        p = scale(q * q, Fraction(3, 4))
        got = real_square_factorization(p)
        assert got is not None
        c, root = got
        assert scale(root * root, c) == p
        assert c > 0

    def test_not_a_square(self):
        assert real_square_factorization(parse("x0^2 - x1^2", R3)) is None
        assert real_square_factorization(parse("x0^2 + x1^2", R3)) is None
        assert real_square_factorization(parse("x0", R3)) is None
        assert real_square_factorization(parse("0 - x0^2", R3)) is None

    def test_random_squares_detected(self):
        rng = random.Random(37)
        for _ in range(100):
            q = random_poly(rng, R3, max_terms=4, max_deg=2)
            if q.is_zero():
                continue
            factor = Fraction(rng.randrange(1, 10), rng.randrange(1, 10))
            p = scale(q * q, factor)
            got = real_square_factorization(p)
            assert got is not None
            c, root = got
            assert scale(root * root, c) == p

    def test_against_sympy_factor_list(self):
        # p = c*q^2 for a random form q of degree 1..3, a third of the time
        # plus a random form of degree 2*deg q.  p is a real square iff sympy
        # finds a positive content and only even multiplicities.
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x0 x1 x2")
        rng = random.Random(4013)
        seen = set()
        for _ in range(150):
            d = rng.randrange(1, 4)
            q = random_form(rng, R3, d)
            c = Fraction(rng.choice([-3, -1, 1, 2, 3, 4]), rng.randrange(1, 4))
            p = scale(q * q, c)
            if rng.random() < 1 / 3:
                p = p + random_form(rng, R3, 2 * d)
            assert not p.is_zero()
            coeffs = {expo: sympy.Rational(a.re.numerator, a.re.denominator) for expo, a in p.terms.items()}
            content, factors = sympy.Poly.from_dict(coeffs, *xs).factor_list()
            expected = content > 0 and all(m % 2 == 0 for _, m in factors)
            got = real_square_factorization(p)
            assert (got is not None) == expected, p
            if got is not None:
                assert scale(got[1] * got[1], got[0]) == p
            seen.add(expected)
        assert seen == {True, False}


def random_form(rng, ring, d, max_terms=4, span=5):
    """A nonzero form of degree d with up to max_terms random monomials."""
    while True:
        items = []
        for _ in range(rng.randrange(1, max_terms + 1)):
            cuts = sorted(rng.randrange(0, d + 1) for _ in range(ring.arity - 1))
            expo = tuple(b - a for a, b in zip([0, *cuts], [*cuts, d]))
            items.append((expo, GaussianRational(Fraction(rng.randrange(-span, span + 1)))))
        form = MultiPoly.from_terms(ring, items)
        if not form.is_zero():
            return form


class TestUniPoly:
    def test_divmod(self):
        f = from_roots([1, 2, 3])
        g = from_roots([2])
        quo, rem = divmod(f, g)
        assert rem.is_zero()
        assert quo == from_roots([1, 3])

    def test_gcd_of_products(self):
        rng = random.Random(41)
        for _ in range(100):
            shared = from_roots(
                [Fraction(rng.randrange(-5, 6)) for _ in range(rng.randrange(0, 3))]
            )
            a = unipoly_product(shared, from_roots([Fraction(7), Fraction(11)]))
            b = unipoly_product(shared, from_roots([Fraction(-13)]))
            g = a.gcd(b)
            assert a.divide_exact(g) is not None
            assert b.divide_exact(g) is not None
            assert g.degree >= shared.degree

    def test_shift(self):
        f = UniPoly([1, 2, 3])
        g = shift(f, Fraction(1, 2))
        for t in (0, 1, Fraction(-3, 2)):
            assert g.eval(t) == f.eval(Fraction(t) + Fraction(1, 2))


@st.composite
def exact_parts(draw):
    """(re, im, den) with den > 0: each part zero, +-den, a multiple of
    den, or any small int, which often shares a factor with den."""
    den = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 6, 12]), st.integers(1, 10**12)))
    part = st.one_of(st.just(0), st.sampled_from([den, -den]), st.integers(-4, 4).map(lambda k: k * den),
                     st.integers(-40, 40), st.integers(-(10**15), 10**15))
    return draw(part), draw(part), den


# Coefficients of a UniPoly: zeros (in the middle too), +-1 and reducible
# fractions; a one-element list is degree 0.
unipoly_coeffs = st.lists(st.one_of(st.just(0), st.sampled_from([1, -1]),
                                    st.fractions(min_value=-50, max_value=50, max_denominator=12)), max_size=6)


class TestOneWriter:
    """Every exact value is written by scalars._exact_str from its int
    parts; the references of tests/oracles.py write GaussianRational and
    UniPoly values from their Fractions with rules of their own."""

    @given(exact_parts())
    def test_exact_str_matches_the_reference(self, parts):
        re, im, den = parts
        z = GaussianRational(Fraction(re, den), Fraction(im, den))
        assert _exact_str(re, im, den) == str(z) == gaussian_str_reference(z)

    @given(exact_parts(), st.integers(0, 3))
    def test_format_poly_writes_a_coefficient_as_the_reference(self, parts, k):
        re, im, den = parts
        z = GaussianRational(Fraction(re, den), Fraction(im, den))
        text = f"({gaussian_str_reference(z)})" if z.re and z.im else gaussian_str_reference(z)
        mono = "" if not k else "x" if k == 1 else f"x^{k}"
        if mono and z:  # an implicit 1 before a monomial
            text = mono if text == "1" else f"-{mono}" if text == "-1" else f"{text}*{mono}"
        assert format_poly(MultiPoly.from_terms(Ring.standard(("x",), gaussian=True), [((k,), z)])) == text

    @given(unipoly_coeffs, st.sampled_from(["t", "x0"]))
    def test_unipoly_and_format_poly_match_the_reference(self, coeffs, var):
        f = UniPoly(coeffs)
        poly = MultiPoly.from_terms(Ring.standard((var,)), [((k,), c) for k, c in enumerate(coeffs)])
        assert f.format(var) == format_poly(poly) == unipoly_format_reference(f, var)


def assert_same_unipoly(f, g):
    """f and g equal, hash equal and store the same pair, and every reading
    of them agrees."""
    assert f == g and hash(f) == hash(g) and (f.nums, f.den) == (g.nums, g.den)
    assert (f.degree, f.is_zero(), f.format(), f.coeffs) == (g.degree, g.is_zero(), g.format(), g.coeffs)
    if not g.is_zero():
        assert f.leading() == g.leading() == g.coeffs[-1]
    assert sturm_chain(f) == sturm_chain(g)


class TestUniPolyStorage:
    """A UniPoly stores int numerators over one positive denominator in
    lowest terms; ``coeffs`` forms the normalised Fractions on demand.  A
    restriction is built on that storage with no Fraction formed."""

    @given(st.lists(st.one_of(st.integers(-9, 9), RATIONALS), max_size=6))
    def test_coeffs_are_normalised_fractions_without_trailing_zeros(self, cs):
        f = UniPoly(cs)
        want = [Fraction(c) for c in cs]
        while want and not want[-1]:
            want.pop()
        assert f.coeffs == tuple(want) and all(type(c) is Fraction for c in f.coeffs)
        assert all(type(c) is int for c in f.nums) and f.den > 0 and math.gcd(f.den, *f.nums) == 1
        assert f.degree == len(want) - 1 and f.is_zero() == (not want)
        assert_same_unipoly(f, UniPoly(want + [0, Fraction(0)]))
        assert_same_unipoly(f, UniPoly([str(c) for c in want]))

    @given(lines())
    def test_a_restriction_is_the_unipoly_of_its_coefficients(self, line):
        h, e, v = line
        assert_same_unipoly(restrict_to_line(h, e, v), UniPoly(restrict_coefficients(h, e, v)))

    @pytest.mark.parametrize("h, e, v", [
        ("0", (1, 0, 0), (1, 2, 3)),
        ("x0^2 - x1^2 - x2^2", (Fraction(1, 2), Fraction(-2, 3), 0), (1, -1, 2)),  # rational e
        ("1/2*x0^3 - 2/3*x0*x1^2 + 5/7*x1*x2^2", (1, 0, 0), (3, -1, 2)),  # rational h
        ("1/2*x0^3 - 2/3*x0*x1^2 + 5/7*x1*x2^2", (Fraction(3, 2), 1, Fraction(1, 5)), (Fraction(1, 3), 0, 5)),
        ("3*x0^2 - 3*x1^2", (1, 1, 0), (0, 1, 0)),  # h(e) = 0: 6*t - 3, one degree short
    ])
    def test_zero_rational_e_and_rational_h(self, h, e, v):
        h = parse(h, R3)
        f = restrict_to_line(h, e, v)
        assert_same_unipoly(f, UniPoly(restrict_coefficients(h, e, v)))
        assert f.den > 0 and math.gcd(f.den, *f.nums) == 1

    def test_arithmetic_on_numerators(self):
        f = UniPoly([Fraction(1, 2), 0, Fraction(-3, 4)])
        assert f.derivative().coeffs == (0, Fraction(-3, 2))
        assert f.eval(Fraction(2, 3)) == Fraction(1, 2) - Fraction(1, 3)
        assert f.primitive() == UniPoly([-2, 0, 3]) and UniPoly([]).primitive().is_zero()


def assert_canonical(p):
    """p's integer form is canonical: den > 0, int (re, im) parts, no (0, 0)
    pair, no imaginary part in a real ring, gcd(den, every part) = 1; and
    its terms are normalised Gaussian rationals whose zero imaginary parts
    are the shared _ZERO."""
    assert type(p.den) is int and p.den > 0
    for e, v in p.nums.items():
        assert type(e) is tuple and len(e) == p.ring.arity and all(type(k) is int and k >= 0 for k in e)
        assert type(v) is tuple and len(v) == 2 and all(type(c) is int for c in v) and v != (0, 0)
        assert p.ring.gaussian or not v[1]
    assert math.gcd(p.den, *[c for v in p.nums.values() for c in v]) == 1
    terms = p.terms
    assert terms.keys() == p.nums.keys()
    assert all(c == GaussianRational(Fraction(re, p.den), Fraction(im, p.den))
               for c, (re, im) in zip(terms.values(), p.nums.values()))
    assert all(c.im or c.im is _ZERO for c in terms.values())


def ref_sum(*terms):
    """The sum of term dicts of (re, im) Fraction pairs, zero sums dropped."""
    acc = {}
    for t in terms:
        for e, (re, im) in t.items():
            a, b = acc.get(e, (Fraction(0), Fraction(0)))
            acc[e] = (a + re, b + im)
    return {e: v for e, v in acc.items() if v != (0, 0)}


def ref_scale(terms, c_re, c_im):
    """Each (re, im) pair times c_re + c_im*i, zero products dropped."""
    return ref_sum({e: (re * c_re - im * c_im, re * c_im + im * c_re) for e, (re, im) in terms.items()})


def lifted_ring(ring):
    """A ring with the same names and weights, in reverse order, and one more variable."""
    return Ring(tuple(reversed(ring.variables)) + ("u",), tuple(reversed(ring.weights)) + (1,), ring.gaussian)


COEFFS = st.one_of(st.integers(-5, 5), RATIONALS, st.builds(GaussianRational, RATIONALS, RATIONALS))


class TestMultiPolyStorage:
    """A MultiPoly stores one canonical integer form (den, nums), the
    counterpart of TestUniPolyStorage: every route to one polynomial gives
    that form and its hash, ``terms`` is a view that round-trips through
    from_terms, and the operations agree with term-by-term references on
    (re, im) Fraction pairs, which share no code with the int form."""

    @given(st.sampled_from(RINGS).flatmap(polys), st.integers(1, 6))
    def test_every_route_gives_one_canonical_form(self, p, k):
        assert_canonical(p)
        split = [(e, GaussianRational(c.re / k, c.im / k)) for e, c in p.terms.items() for _ in range(k)]
        routes = [
            parse(str(p), p.ring),
            MultiPoly.from_terms(p.ring, split),
            MultiPoly.from_terms(p.ring, [(e, c.re * k) for e, c in p.terms.items()]
                                 + [(e, GaussianRational(c.re * (1 - k), c.im)) for e, c in p.terms.items()]),
            scale(scale(p, k), Fraction(1, k)),
            (p + scale(p, k)) - scale(p, k),
            p * MultiPoly.constant(p.ring, 1),
            -(-p),
            p.conjugate().conjugate(),
        ]
        for q in routes:
            assert_canonical(q)
            assert (q.den, q.nums) == (p.den, p.nums) and q == p and hash(q) == hash(p)

    @given(st.sampled_from(RINGS).flatmap(polys))
    def test_terms_round_trip_through_from_terms(self, p):
        q = MultiPoly.from_terms(p.ring, p.terms.items())
        assert (q.den, q.nums) == (p.den, p.nums)
        assert q.terms == p.terms

    @given(poly_pairs())
    def test_operations_match_term_by_term_references(self, pq):
        p, q = pq
        neg = {e: (-re, -im) for e, (re, im) in pairs(q).items()}
        results = [
            (p + q, ref_sum(pairs(p), pairs(q))),
            (p - q, ref_sum(pairs(p), neg)),
            (-q, neg),
            (p.conjugate(), {e: (re, -im) for e, (re, im) in pairs(p).items()}),
        ]
        for got, want in results:
            assert_canonical(got)
            assert pairs(got) == want

    @given(st.sampled_from(RINGS).flatmap(polys), COEFFS)
    def test_scale_matches_the_reference(self, p, c):
        if not p.ring.gaussian and isinstance(c, GaussianRational):
            c = c.re
        c_re, c_im = (c.re, c.im) if isinstance(c, GaussianRational) else (Fraction(c), Fraction(0))
        got = scale(p, c)
        assert_canonical(got)
        assert pairs(got) == ref_scale(pairs(p), c_re, c_im)

    @pytest.mark.parametrize("c", [GaussianRational(0, 1), GaussianRational(Fraction(1, 2), -3)])
    def test_scale_refuses_an_imaginary_factor_in_a_real_ring(self, c):
        # A real ring's constructors refuse an imaginary coefficient.
        ring = Ring.standard(("x0",))
        with pytest.raises(ValueError, match="imaginary coefficient in a non-gaussian ring"):
            MultiPoly.from_terms(ring, [((1,), c)])
        with pytest.raises(ValueError, match="imaginary coefficient in a non-gaussian ring"):
            MultiPoly.constant(ring, c)
        assert MultiPoly.from_terms(ring, [((1,), GaussianRational(3, 0))]) == parse("3*x0", ring)

    @given(st.sampled_from(RINGS).flatmap(polys))
    def test_lift_matches_the_reference(self, p):
        target = lifted_ring(p.ring)
        got = p.lift(target)
        place = [p.ring.variables.index(v) if v in p.ring.variables else None for v in target.variables]
        want = {tuple(0 if k is None else e[k] for k in place): v for e, v in pairs(p).items()}
        assert_canonical(got)
        assert got.ring == target and pairs(got) == want


MONOMIALS = [(0, 0, 0), (1, 0, 0), (0, 2, 1), (2, 1, 0), (1, 1, 1), (0, 0, 3)]
LINEAR = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
INTEGERS = st.tuples(*[st.integers(-6, 6)] * 3)
RATIONAL_POINTS = st.tuples(*[st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))] * 3)  # integral or not


def term_dicts(gaussian: bool, monomials=MONOMIALS):
    """Terms dicts over three variables whose monomials come from one small
    pool, so that polynomials drawn together share monomials."""
    part = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
    coeff = st.builds(GaussianRational, part, part if gaussian else st.just(0)).filter(bool)
    return st.dictionaries(st.sampled_from(monomials), coeff, max_size=len(monomials))


def as_gaussians(values: list) -> list:
    """The real parts, then the imaginary parts, of values(x) as Gaussian
    rationals."""
    half = len(values) // 2
    return [GaussianRational(re, im) for re, im in zip(values[:half], values[half:])]


class TestEvaluator:
    """_evaluator, and MultiPoly.eval and eval_rational through it, against
    the term-by-term eval_reference of tests/oracles.py: values(x)[k] and
    values(x)[n + k], for n polynomials, are the real and imaginary parts
    of D * polys[k](x), with D the lcm of every coefficient's denominators;
    ints at an integer point.  A matrix of linear forms is evaluated as a
    pencil instead, by the one int sum _pencil_at, against the same
    reference entry by entry."""

    @given(st.booleans(), st.data())
    def test_values_are_D_times_the_reference(self, gaussian, data):
        ring = Ring.standard(("x0", "x1", "x2"), gaussian=gaussian)
        polys = data.draw(st.lists(term_dicts(gaussian), min_size=1, max_size=4))
        polys.insert(data.draw(st.integers(0, len(polys))), {})  # the zero polynomial
        den, values = _evaluator([MultiPoly.from_terms(ring, terms.items()) for terms in polys])
        assert den == math.lcm(*(q.denominator for terms in polys for c in terms.values() for q in (c.re, c.im)))
        for x in data.draw(st.lists(st.one_of(INTEGERS, RATIONAL_POINTS), min_size=1, max_size=5)):
            got = values(x)
            want = [gprod(eval_reference(MultiPoly.from_terms(ring, terms.items()), x), den) for terms in polys]
            assert len(got) == 2 * len(polys) and as_gaussians(got) == want
            if all(Fraction(c).denominator == 1 for c in x):  # ints, integral Fractions included
                assert all(type(v) is int for v in got)

    def test_shared_monomials_and_the_same_dict_twice(self):
        ring = Ring.standard(("x0", "x1"), gaussian=True)
        p, q = parse("x0^2 - 1/3*x0*x1", ring), parse("(2 + 1/2*i)*x0*x1 + x1^3", ring)
        den, values = _evaluator([p, q, p, MultiPoly.zero(ring)])
        assert den == 6
        for x in [(0, 0), (1, 0), (2, -3), (-1, 5), (Fraction(1, 2), Fraction(-3)), (Fraction(-2, 3), Fraction(5, 4))]:
            got = as_gaussians(values(x))
            assert got == [gprod(eval_reference(f, x), 6) for f in (p, q, p, MultiPoly.zero(ring))]

    def test_no_polynomials(self):
        den, values = _evaluator([])
        assert (den, values((1, 2))) == (1, [])

    # A monomial whose parents no polynomial has, a constant, the zero
    # polynomial (an empty dict), and one monomial with a real and an
    # imaginary part.
    TREE_CASES = ["x0^5*x2^3", "-7/3", "0", "(2/3 - 3*i)*x1^2*x2", "x0^5*x2^3 - 1/2*x0 + (1 + i)*x1^2*x2 + 4"]
    TREE_POINTS = [(0, 0, 0), (1, 1, 1), (2, -3, 5), (-1, 7, -2), (Fraction(1, 2), -3, Fraction(5, 4)),
                   (Fraction(-2, 3), 1, Fraction(7, 2))]

    @pytest.mark.parametrize("text", TREE_CASES)
    def test_monomial_tree_against_the_reference(self, text):
        p = parse(text, Ring.standard(("x0", "x1", "x2"), gaussian=True))
        den, values = _evaluator([p])
        for x in self.TREE_POINTS:
            assert as_gaussians(values(x)) == [gprod(eval_reference(p, x), den)]
            assert p.eval(x) == eval_reference(p, x)

    def test_monomial_tree_on_int_pairs(self):
        # The parents of x0^5*x2^3 (x0^5*x2^2, ..., x0, 1) are no terms; the
        # second polynomial walks the same chain, the third is empty.
        polys = [[((5, 0, 3), 2)], [((5, 0, 1), -3), ((0, 0, 0), 4), ((5, 0, 3), 1)], [], [((0, 0, 0), -4)]]
        values = _monomial_evaluator(polys)
        ring = Ring.standard(("x0", "x1", "x2"))
        for x in self.TREE_POINTS:
            want = [eval_reference(MultiPoly.from_terms(ring, terms), x).re for terms in polys]
            got = values(x)
            assert got == want
            assert all(type(v) is int for v in got) == all(Fraction(c).denominator == 1 for c in x)

    @given(st.booleans(), term_dicts(True), st.one_of(INTEGERS, RATIONAL_POINTS))
    def test_eval_and_eval_rational(self, real, terms, x):
        ring = Ring.standard(("x0", "x1", "x2"), gaussian=True)
        p = MultiPoly.from_terms(ring, [(e, c.re) for e, c in terms.items()] if real else terms.items())
        want = eval_reference(p, x)
        assert p.eval(x) == want and p.eval([str(c) for c in x]) == want
        if not want.im:
            assert p.eval_rational(x) == want.re
        else:
            with pytest.raises(ArithmeticError, match="imaginary value"):
                p.eval_rational(x)
        with pytest.raises(ValueError, match="arity"):
            p.eval(x[:2])

    @settings(max_examples=50)
    @given(st.booleans(), st.data())
    def test_polymatrix_eval_at(self, gaussian, data):
        # Cells drawn from a small pool of linear forms share entries.
        ring = Ring.standard(("x0", "x1", "x2"), gaussian=gaussian)
        pool = data.draw(st.lists(term_dicts(gaussian, LINEAR), min_size=1, max_size=3))
        m = data.draw(st.integers(1, 4))
        cells = data.draw(st.lists(st.sampled_from([MultiPoly.from_terms(ring, terms.items()) for terms in pool]), min_size=m * m,
                                   max_size=m * m))
        matrix = PolyMatrix(ring, [cells[k : k + m] for k in range(0, m * m, m)])
        pencil = polymatrix_to_pencil(matrix)  # one conversion, several points
        for x in data.draw(st.lists(st.one_of(INTEGERS, RATIONAL_POINTS), min_size=1, max_size=3)):
            assert pencil_value(pencil, x) == eval_at_reference(matrix, x)
        with pytest.raises(ValueError, match="arity"):
            pencil_value(pencil, x + (0,))

    def test_hermitian_matrix_on_pluecker_lines(self):
        # F4's 4x4 hermitian matrix of linear forms in ten Pluecker coordinates.
        matrix = load_fixture_matrix("F4_matrix.json")
        pencil = _integer_slices(polymatrix_to_pencil(matrix))
        rng = random.Random(5)
        for _ in range(20):
            p = [Fraction(rng.randrange(-7, 8), rng.randrange(1, 4)) for _ in range(5)]
            coords = plucker_line(p, [rng.randrange(-7, 8) for _ in range(5)])
            value = ConstMatrix._of_ints(4, *_pencil_at(pencil, coords), matrix.kind)
            assert value == eval_at_reference(matrix, coords)
