"""Oracles for the exact kernel: MultiPoly products and exact division over
real, Gaussian and weighted rings, the shared Bareiss elimination (on int
and Gaussian int rows, polynomial and constant determinants, leading
principal minors), pencil values.

The references here are written term by term on (re, im) Fraction pairs, so
they share no code with the kernel's int numerators or with GaussianRational
arithmetic.  sympy is the determinant oracle (tests only).
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercert.detrep import PolyMatrix, const_det, pencil_to_polymatrix, poly_det
from hypercert.polyring import MultiPoly, Ring, parse
from hypercert.scalars import (
    KIND_HERMITIAN,
    KIND_NONE,
    KIND_SYMMETRIC,
    ConstMatrix,
    GaussianRational,
    _ZERO,
    bareiss,
    pencil_value,
)
from oracles import const_matrix, gconj, gprod, gsum, leading_coefficient, leading_principal_minors, scale

R3 = Ring.standard(("x0", "x1", "x2"))
G3 = Ring.standard(("x0", "x1", "x2"), gaussian=True)
W3 = Ring(("x", "y", "z"), (1, 2, 3))
GW2 = Ring(("x", "y"), (2, 1), gaussian=True)
R0 = Ring((), ())
RINGS = (R3, G3, W3, GW2, R0)
ZERO = Fraction(0)


# -- naive references -------------------------------------------------------


def pairs(p):
    return {e: (c.re, c.im) for e, c in p.terms.items()}


def glex(ring, expo):
    return (sum(w * e for w, e in zip(ring.weights, expo)), expo)


def ref_mul(p, q):
    acc = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            expo = tuple(x + y for x, y in zip(ea, eb))
            a, b, c, d = ca.re, ca.im, cb.re, cb.im
            re, im = acc.get(expo, (ZERO, ZERO))
            acc[expo] = (re + a * c - b * d, im + a * d + b * c)
    return {e: v for e, v in acc.items() if v != (0, 0)}


def ref_divide(p, d):
    """Long division by the graded-lex leading term, rescanning the whole
    remainder for each quotient term."""
    ring = p.ring
    rem, div = pairs(p), pairs(d)
    d_expo = max(div, key=lambda e: glex(ring, e))
    dr, di = div[d_expo]
    norm = dr * dr + di * di
    quotient = {}
    while rem:
        r_expo = max(rem, key=lambda e: glex(ring, e))
        step = tuple(a - b for a, b in zip(r_expo, d_expo))
        if any(e < 0 for e in step):
            raise ArithmeticError("inexact")
        rr, ri = rem[r_expo]
        qr, qi = (rr * dr + ri * di) / norm, (ri * dr - rr * di) / norm
        quotient[step] = (qr, qi)
        for expo, (c, d_im) in div.items():
            key = tuple(a + b for a, b in zip(step, expo))
            re, im = rem.get(key, (ZERO, ZERO))
            re, im = re - (qr * c - qi * d_im), im - (qr * d_im + qi * c)
            if re or im:
                rem[key] = (re, im)
            else:
                rem.pop(key, None)
    return quotient


# -- strategies ---------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polys(draw, ring, max_terms=5, max_exp=3):
    items = []
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_exp)) for _ in ring.variables)
        im = draw(fractions) if ring.gaussian else 0
        items.append((expo, GaussianRational(draw(fractions), im)))
    return MultiPoly.from_terms(ring, items)


@st.composite
def poly_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return draw(polys(ring)), draw(polys(ring))


# -- products -----------------------------------------------------------------


class TestProductOracle:
    @given(poly_pairs())
    def test_matches_reference(self, pq):
        p, q = pq
        assert pairs(p * q) == ref_mul(p, q)
        assert pairs(q * p) == ref_mul(p, q)

    @given(st.sampled_from(RINGS).flatmap(polys))
    def test_norm_products_are_real(self, p):
        prod = p * p.conjugate()
        assert pairs(prod) == ref_mul(p, p.conjugate())
        assert prod.is_real()

    @pytest.mark.parametrize(
        "ring, a, b, expected",
        [
            (R3, "x0 + x1", "x0 - x1", "x0^2 - x1^2"),
            (R3, "1/2*x0 - 1/3*x1", "6*x0 + 6*x1", "3*x0^2 + x0*x1 - 2*x1^2"),
            (G3, "x0 + i*x1", "x0 - i*x1", "x0^2 + x1^2"),
            (G3, "i*x0", "i*x0", "-x0^2"),
            (G3, "1 + i", "1 - i", "2"),
            (GW2, "x + i*y^2", "x - i*y^2", "x^2 + y^4"),
            (W3, "x^3 + y*x + z", "x^3 - 2*z", "x^6 + x^4*y - x^3*z - 2*x*y*z - 2*z^2"),
            (R0, "3/2", "4/3", "2"),
        ],
    )
    def test_cancellations(self, ring, a, b, expected):
        prod = parse(a, ring) * parse(b, ring)
        assert prod == parse(expected, ring)
        assert all(c for c in prod.terms.values())

    @given(st.sampled_from((R3, W3, R0)).flatmap(lambda ring: st.tuples(polys(ring), polys(ring))))
    def test_real_coefficients_share_the_zero_imaginary_part(self, pq):
        # GaussianRational's and _over_integers' real fast paths test `im is _ZERO`.
        p, q = pq
        assert all(c.im is _ZERO for c in (p * q).terms.values())
        if not q.is_zero():
            assert all(c.im is _ZERO for c in (p * q).divide_exact(q).terms.values())

    @given(st.sampled_from((G3, GW2)).flatmap(polys))
    def test_a_real_norm_product_shares_the_zero_imaginary_part(self, p):
        assert all(c.im is _ZERO for c in (p * p.conjugate()).terms.values())

    def test_zero_and_constant_operands(self):
        p = parse("x0^2 - 1/2*x1", R3)
        zero = MultiPoly.zero(R3)
        assert (p * zero).is_zero() and (zero * p).is_zero()
        assert p * MultiPoly.constant(R3, 1) == p
        assert p * MultiPoly.constant(R3, Fraction(-2, 3)) == scale(p, Fraction(-2, 3))


# -- exact division -----------------------------------------------------------


class TestDivisionOracle:
    @given(poly_pairs())
    def test_recovers_the_cofactor(self, pq):
        p, q = pq
        if q.is_zero():
            return
        quotient = (p * q).divide_exact(q)
        assert quotient == p
        assert pairs(quotient) == ref_divide(p * q, q)

    @given(poly_pairs())
    def test_raises_exactly_when_the_reference_does(self, pq):
        p, d = pq
        if d.is_zero() or p.is_zero():
            return
        try:
            expected = ref_divide(p, d)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                p.divide_exact(d)
        else:
            assert pairs(p.divide_exact(d)) == expected

    @pytest.mark.parametrize(
        "ring, a, d",
        [
            (R3, "x0^2 + x1", "x0 + x1"),
            (R3, "x0", "2*x0 + 1"),
            (R3, "1", "x0"),
            (G3, "x0^2 + x1^2 + 1", "x0 + i*x1"),
            (W3, "x^2 + y", "y"),
        ],
    )
    def test_inexact_raises(self, ring, a, d):
        with pytest.raises(ArithmeticError):
            parse(a, ring).divide_exact(parse(d, ring))

    def test_zero_cases(self):
        q = parse("x0 - x1", R3)
        assert MultiPoly.zero(R3).divide_exact(q).is_zero()
        with pytest.raises(ZeroDivisionError):
            q.divide_exact(MultiPoly.zero(R3))

    @pytest.mark.parametrize(
        "ring, divisor, cofactor",
        [
            (G3, "(2+3*i)*x0 + 13*x1", "(2/13 - 3/13*i)*x0 + (1/2 + i)*x1 - 1/3*x2"),
            (R3, "3*x0 + 3*x1", "1/3*x0 - 1/2*x1 + 1"),
        ],
    )
    def test_the_remainder_is_rescaled_by_the_norm_that_does_not_cancel(self, ring, divisor, cofactor):
        # The divisor's content, 2+3i or 3, does not divide the product's
        # numerators (its leading coefficient is 1), so by Gauss's lemma the
        # quotient is not integral in the remainder's scale: the remainder is
        # multiplied through by N(L), 13 or 3 of 9, at the first step.  (A
        # primitive divisor such as (2+3i)*x0 + x1 never rescales.)
        d, q = parse(divisor, ring), parse(cofactor, ring)
        product = d * q
        assert leading_coefficient(product) == GaussianRational(1)
        quotient = product.divide_exact(d)
        assert quotient == q
        assert pairs(quotient) == ref_divide(product, d)
        with pytest.raises(ArithmeticError):
            (product + parse("x2^2", ring)).divide_exact(d)

    def test_gaussian_and_weighted_examples(self):
        g = parse("(1+i)*x0 - 2*x1 + 3*i*x2", G3)
        h = parse("x0^2 - i*x1*x2 + 1/2", G3)
        assert (g * h).divide_exact(h) == g
        w = parse("x^3 + x*y - 3*z", W3)
        v = parse("y^3 - z^2 + x^6", W3)
        assert (w * v).divide_exact(w) == v


# -- determinants against sympy -------------------------------------------------


def random_pencil(rng, m, n, hermitian):
    kind = KIND_HERMITIAN if hermitian else KIND_SYMMETRIC
    pencil = []
    for _ in range(n):
        rows = [[None] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = GaussianRational(rng.randint(-4, 4))
            for j in range(i + 1, m):
                im = rng.randint(-3, 3) if hermitian else 0
                z = GaussianRational(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2))), im)
                rows[i][j], rows[j][i] = z, gconj(z)
        pencil.append(ConstMatrix(rows, kind))
    return pencil


def sympy_number(z):
    return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
        z.im.numerator, z.im.denominator
    )


def sympy_poly(p, symbols):
    total = sympy.Integer(0)
    for expo, c in p.terms.items():
        total += sympy_number(c) * sympy.Mul(*[s**k for s, k in zip(symbols, expo)])
    return sympy.expand(total)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_poly_det_matches_sympy(m, hermitian):
    rng = random.Random(f"det:{m}:{hermitian}")
    for _ in range(2):
        n = rng.choice((2, 3))
        ring = Ring.standard(tuple(f"x{k}" for k in range(n)), gaussian=hermitian)
        pencil = random_pencil(rng, m, n, hermitian)
        symbols = sympy.symbols(ring.variables)
        matrix = sympy.Matrix(
            m,
            m,
            lambda i, j: sum(sympy_number(a.entries[i][j]) * x for a, x in zip(pencil, symbols)),
        )
        ours = poly_det(pencil_to_polymatrix(pencil, ring))
        assert ours.is_real()
        assert sympy.expand(matrix.det(method="berkowitz") - sympy_poly(ours, symbols)) == 0


def random_gaussian_matrix(rng, m, density):
    """Random Gaussian-rational entries, zero with probability 1 - density."""
    def entry():
        if rng.random() > density:
            return GaussianRational(0)
        return GaussianRational(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))), rng.randint(-3, 3))
    return [[entry() for _ in range(m)] for _ in range(m)]


def sympy_det(rows):
    # Gaussian elimination over sympy's QQ<I> domain: field arithmetic, no
    # fraction-free steps, so it shares no scheme with ours.
    return sympy.expand(sympy.Matrix([[sympy_number(z) for z in row] for row in rows]).det(method="domain-ge"))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_const_det_matches_sympy(m):
    rng = random.Random(f"const_det:{m}")
    for trial in range(12):
        rows = random_gaussian_matrix(rng, m, density=(0.4, 0.7, 1.0)[trial % 3])
        if trial % 4 == 1 and m > 1:
            # Singular: the last row is a combination of the first two.
            c = GaussianRational(Fraction(rng.randint(-3, 3), 2), rng.randint(-2, 2))
            rows[-1] = [gsum(gprod(a, c), b) for a, b in zip(rows[0], rows[1 % (m - 1)])]
        if trial % 4 == 2:
            rows[0][0] = GaussianRational(0)  # forces a row swap
        ours = const_det(ConstMatrix(rows))
        assert sympy.expand(sympy_number(ours) - sympy_det(rows)) == 0


def test_const_det_row_swaps_and_singular_cases():
    rows = [[0, 1, 2], [0, 3, 4], [5, 6, 7]]  # two zero pivots in column 0
    assert const_det(const_matrix(rows)) == GaussianRational(-10)
    assert const_det(const_matrix([[0, 1], [0, 2]])).is_zero()  # zero column
    assert const_det(const_matrix([[1, 2], [2, 4]])).is_zero()
    assert const_det(ConstMatrix([])) == GaussianRational(1)


class TestIntegerBareiss:
    """scalars.bareiss on int rows, and on (re, im) int rows over Z[i],
    against sympy's field elimination: 0x0 to 6x6 matrices whose leading
    columns are often zero (row swaps flip the sign) or that are singular."""

    ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**15), 10**15))

    @staticmethod
    @st.composite
    def matrices(draw, gaussian):
        n = draw(st.integers(0, 6))
        square = st.lists(st.lists(TestIntegerBareiss.ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
        re, im = draw(square), draw(square) if gaussian else [[0] * n for _ in range(n)]
        shape = draw(st.sampled_from(["any", "zero-lead", "singular"]))
        if shape == "zero-lead":  # a zero pivot at each of the first columns, unless a swap finds one
            for k in range(n):
                for i in range(k, n - 1):
                    re[i][k] = im[i][k] = 0
        if shape == "singular" and n > 1:  # the last row is the sum of the first two
            for part in (re, im):
                part[-1] = [a + b for a, b in zip(part[0], part[1 % (n - 1)])]
        return re, im

    @staticmethod
    def reference(re, im):
        n = len(re)
        return sympy.expand(sympy.Matrix(n, n, lambda i, j: re[i][j] + sympy.I * im[i][j]).det(method="domain-ge"))

    @settings(max_examples=80, deadline=None)
    @given(st.booleans(), st.data())
    def test_determinant(self, gaussian, data):
        re, im = data.draw(self.matrices(gaussian))
        pivots, sign = bareiss([row[:] for row in re], [row[:] for row in im] if gaussian else None, True)
        expected = self.reference(re, im)
        if pivots and not any(pivots[-1]):  # it stops at a zero pivot: det = 0
            assert expected == 0
        else:
            assert len(pivots) == len(re)
            det = (sign * pivots[-1][0], sign * pivots[-1][1]) if pivots else (1, 0)
            assert det == (sympy.re(expected), sympy.im(expected))
        assert gaussian or not any(im for _, im in pivots)

    @settings(max_examples=80, deadline=None)
    @given(st.booleans(), st.data())
    def test_leading_minors_without_pivoting(self, gaussian, data):
        re, im = data.draw(self.matrices(gaussian))
        pivots, sign = bareiss([row[:] for row in re], [row[:] for row in im] if gaussian else None, False)
        expected = []
        for k in range(1, len(re) + 1):
            minor = self.reference([row[:k] for row in re[:k]], [row[:k] for row in im[:k]])
            expected.append((sympy.re(minor), sympy.im(minor)))
            if not minor:
                break
        assert pivots == expected and sign == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_const_det_of_gaussian_rationals(self, m, data):
        part = st.fractions(min_value=-20, max_value=20, max_denominator=9)
        entry = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, part, part))
        rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
        assert sympy.expand(sympy_number(const_det(ConstMatrix(rows))) - sympy_det(rows)) == 0

    def test_row_swaps_flip_the_sign(self):
        assert bareiss([[0, 1], [1, 0]], None, True) == ([(1, 0), (1, 0)], -1)  # det = -1 * 1
        assert bareiss([[0, 0], [0, 0]], [[0, 1], [1, 0]], True) == ([(0, 1), (-1, 0)], -1)  # det = -1 * i^2
        assert bareiss([[0, 1], [1, 0]], None, False) == ([(0, 0)], 1)  # no swap: the first minor is 0


def random_small_hermitian(rng, m, hermitian):
    """Entries in {-1, 0, 1} (+ i{-1, 0, 1}): leading minors often vanish."""
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = GaussianRational(rng.randint(-1, 2))
        for j in range(i + 1, m):
            z = GaussianRational(rng.randint(-1, 1), rng.randint(-1, 1) if hermitian else 0)
            rows[i][j], rows[j][i] = z, gconj(z)
    return ConstMatrix(rows, KIND_HERMITIAN if hermitian else KIND_SYMMETRIC)


@pytest.mark.parametrize("hermitian", [False, True])
def test_leading_principal_minors_match_sympy(hermitian):
    rng = random.Random(f"minors:{hermitian}")
    stopped_early = 0
    for _ in range(60):
        m = rng.randint(1, 5)
        matrix = random_small_hermitian(rng, m, hermitian)
        expected = []
        for k in range(1, m + 1):
            expected.append(sympy_det([row[:k] for row in matrix.entries[:k]]))
            if expected[-1] == 0:
                break
        minors = leading_principal_minors(matrix)
        assert [sympy.Rational(q.numerator, q.denominator) for q in minors] == expected
        stopped_early += len(minors) < m
    assert stopped_early > 0  # the first-zero cut-off was exercised


def test_poly_det_with_zero_first_pivot():
    ring = Ring.standard(("x0", "x1", "x2"))
    matrix = PolyMatrix.from_strings(
        ring, [["0", "x0", "x1"], ["x2", "x0 + x1", "0"], ["x1", "0", "x0 - x2"]]
    )
    x0, x1, x2 = symbols = sympy.symbols(ring.variables)
    reference = sympy.Matrix([[0, x0, x1], [x2, x0 + x1, 0], [x1, 0, x0 - x2]]).det()
    assert sympy.expand(reference - sympy_poly(poly_det(matrix), symbols)) == 0


# -- pencil values ----------------------------------------------------------------


def dense_pencil_value(matrices, point):
    m = matrices[0].size
    rows = [[GaussianRational(0)] * m for _ in range(m)]
    for c, mat in zip(point, matrices):
        for i in range(m):
            for j in range(m):
                z = mat.entries[i][j]
                rows[i][j] = GaussianRational(rows[i][j].re + z.re * c, rows[i][j].im + z.im * c)
    return rows


@settings(max_examples=30)
@given(st.integers(0, 10**6), st.integers(1, 6), st.booleans())
def test_pencil_value_matches_dense_sum(seed, m, hermitian):
    rng = random.Random(seed)
    pencil = random_pencil(rng, m, 3, hermitian)
    point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in pencil]
    value = pencil_value(pencil, point)
    assert [list(row) for row in value.entries] == dense_pencil_value(pencil, point)
    assert value.kind == pencil[0].kind


def test_pencil_value_kind_rule():
    a = const_matrix([[1, 0], [0, 1]], KIND_SYMMETRIC)
    b = const_matrix([[0, 2], [2, 0]], KIND_HERMITIAN)
    assert pencil_value([a, a], [1, 1]).kind == KIND_SYMMETRIC
    assert pencil_value([a, b], [1, 0]).kind == KIND_NONE
    with pytest.raises(ValueError):
        pencil_value([a, const_matrix([[1]], KIND_SYMMETRIC)], [1, 1])
