"""Sparse multivariate polynomials: grammar, arithmetic, restrictions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercert.polyring import (
    MultiPoly,
    ParseError,
    Ring,
    UniPoly,
    directional_derivative,
    format_poly,
    parse,
    real_square_factorization,
    restrict_to_line,
)
from hypercert.scalars import GaussianRational
from oracles import from_roots, shift

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
        rng = random.Random(23)
        for _ in range(50):
            h = random_poly(rng, R3)
            e = [Fraction(rng.randrange(-5, 6)) for _ in range(3)]
            v = [Fraction(rng.randrange(-5, 6)) for _ in range(3)]
            f = restrict_to_line(h, e, v)
            for _ in range(10):
                t = Fraction(rng.randrange(-20, 21), rng.randrange(1, 5))
                point = [t * ei - vi for ei, vi in zip(e, v)]
                assert f.eval(t) == h.eval_rational(point)

    def test_linear_in_h(self):
        rng = random.Random(29)
        for _ in range(50):
            h1 = random_poly(rng, R3)
            h2 = random_poly(rng, R3)
            e = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            v = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            lhs = restrict_to_line(h1 + h2, e, v)
            rhs = restrict_to_line(h1, e, v) + restrict_to_line(h2, e, v)
            assert lhs == rhs

    def test_leading_coefficient_is_h_of_e(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        f = restrict_to_line(h, (2, 1, 0), (3, 5, 7))
        assert f.degree == 2
        assert f.leading() == h.eval_rational((2, 1, 0))


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
            assert slope == directional_derivative(h, e).eval_rational(v)


class TestSquareFactorization:
    def test_perfect_square(self):
        p = parse("x0^2 + 2*x0*x1 + x1^2", R3)
        got = real_square_factorization(p)
        assert got is not None
        c, q = got
        assert (q * q).scale(c) == p
        assert c == 1

    def test_scaled_square(self):
        q = parse("x0^2 - x1*x2", R3)
        p = (q * q).scale(Fraction(3, 4))
        got = real_square_factorization(p)
        assert got is not None
        c, root = got
        assert (root * root).scale(c) == p
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
            scale = Fraction(rng.randrange(1, 10), rng.randrange(1, 10))
            p = (q * q).scale(scale)
            got = real_square_factorization(p)
            assert got is not None
            c, root = got
            assert (root * root).scale(c) == p

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
            p = (q * q).scale(c)
            if rng.random() < 1 / 3:
                p = p + random_form(rng, R3, 2 * d)
            assert not p.is_zero()
            coeffs = {expo: sympy.Rational(a.re.numerator, a.re.denominator) for expo, a in p.terms.items()}
            content, factors = sympy.Poly.from_dict(coeffs, *xs).factor_list()
            expected = content > 0 and all(m % 2 == 0 for _, m in factors)
            got = real_square_factorization(p)
            assert (got is not None) == expected, p
            if got is not None:
                assert (got[1] * got[1]).scale(got[0]) == p
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
            a = shared * from_roots([Fraction(7), Fraction(11)])
            b = shared * from_roots([Fraction(-13)])
            g = a.gcd(b)
            assert a.divide_exact(g) is not None
            assert b.divide_exact(g) is not None
            assert g.degree >= shared.degree

    def test_shift(self):
        f = UniPoly([1, 2, 3])
        g = shift(f, Fraction(1, 2))
        for t in (0, 1, Fraction(-3, 2)):
            assert g.eval(t) == f.eval(Fraction(t) + Fraction(1, 2))
