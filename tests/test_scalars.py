"""Exact scalar arithmetic: Gaussian rationals, four squares, definiteness."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercert.detrep import PolyMatrix
from hypercert.polyring import MultiPoly, Ring
from hypercert.scalars import (
    GR_ZERO,
    ConstMatrix,
    GaussianRational,
    _common_kind,
    _integer_slices,
    _pencil_at,
    first_nonpositive_minor,
    first_nonpositive_minor_at,
    four_square_decompose,
    pencil_value,
)
from hypercert.wire import pencil_from_json
from oracles import (cell_value, const_matrix, eval_at_reference, gconj, gdiv, gneg, gnorm, gprod, identity_matrix,
                     kind_violation_reference, leading_principal_minors, sylvester_reference)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)
gaussians = st.builds(GaussianRational, rationals, rationals)


# Few distinct values, so that equal cells come up often.
small_gaussians = st.builds(lambda re, im, d: GaussianRational(Fraction(re, d), Fraction(im, d)),
                            st.integers(-2, 2), st.integers(-2, 2), st.sampled_from([1, 2, 3]))


@st.composite
def kind_cases(draw):
    """(rows, kind): a symmetric or hermitian matrix whose mirrored cells
    are one shared object or equal but distinct ones, with up to two cells
    then replaced, each alone or together with its mirror as one object."""
    kind, m = draw(st.sampled_from(["symmetric", "hermitian"])), draw(st.integers(0, 4))
    rows = [[GR_ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            a = draw(small_gaussians)
            a = GaussianRational(a.re) if kind == "symmetric" or i == j else a
            mirror = a if kind == "symmetric" else gconj(a)
            rows[i][j] = a
            rows[j][i] = a if mirror == a and draw(st.booleans()) else GaussianRational(mirror.re, mirror.im)
    for _ in range(draw(st.integers(0, 2)) if m else 0):
        i, j, z = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)), draw(small_gaussians)
        rows[i][j] = z
        if draw(st.booleans()):
            rows[j][i] = z
    return rows, kind


class TestIntegerKindCheck:
    """ConstMatrix.kind_violation, decided on the integer form, names the
    first bad (i, j) of the entry-wise reference, for a matrix built from
    rows and for one read from cell texts straight into ints; the two
    compare and hash equal."""

    @given(kind_cases())
    def test_against_the_entrywise_reference(self, case):
        rows, kind = case
        expected = kind_violation_reference(rows, kind)
        matrix = ConstMatrix(rows, kind)
        assert matrix.kind_violation() == expected
        # A second slice of sevenths gives the file a denominator the first lacks.
        texts = [[str(z) if z else "0" for z in row] for row in rows]
        sevenths = [["1/7" if i == j else "0" for j in range(len(rows))] for i in range(len(rows))]
        read, _ = pencil_from_json({"vars": ["x0", "x1"], "gaussian": True, "kind": kind, "matrices": [texts, sevenths]})
        assert read[0].kind_violation() == expected
        assert read[0] == matrix and hash(read[0]) == hash(matrix)
        assert read[1] == const_matrix([[Fraction(1, 7) if i == j else 0 for j in range(len(rows))]
                                        for i in range(len(rows))], kind)
        assert read[0].entries == matrix.entries

    def test_rows_built_from_ints_share_one_object_per_value(self):
        read, _ = pencil_from_json({"vars": ["x0"], "gaussian": True, "kind": "hermitian",
                                    "matrices": [[["2", "1-i", "0"], ["1+i", "2", "1/2"], ["0", "2/4", "4/2"]]]})
        entries = read[0].entries
        assert entries[0][0] is entries[1][1] is entries[2][2] and entries[1][2] is entries[2][1]
        assert entries[0][2] is entries[2][0] is GR_ZERO
        assert len({id(z) for row in entries for z in row}) == 5
        assert read[0].kind_violation() is None

    def test_equality_compares_values_and_kind(self):
        rows = [[GaussianRational(Fraction(1, 2)), GaussianRational(3)], [GaussianRational(3), GR_ZERO]]
        read, _ = pencil_from_json({"vars": ["x0", "x1"], "gaussian": False, "kind": "symmetric",
                                    "matrices": [[["2/4", "3"], ["3", "0"]], [["1/9", "0"], ["0", "0"]]]})
        assert read[0] == ConstMatrix(rows, "symmetric") and hash(read[0]) == hash(ConstMatrix(rows, "symmetric"))
        assert read[0] != ConstMatrix(rows, "hermitian")
        assert read[0] != ConstMatrix([rows[0], [GaussianRational(3), GaussianRational(1)]], "symmetric")
        assert ConstMatrix([], "symmetric") == pencil_from_json({"vars": ["x0"], "kind": "symmetric",
                                                                  "matrices": [[]]})[0][0]


class TestGaussianRational:
    """The tests' Q(i) arithmetic (gprod, gconj, gnorm, gdiv of tests/oracles.py)."""

    @given(gaussians)
    def test_conjugation_is_an_involution(self, z):
        assert gconj(gconj(z)) == z

    @given(gaussians)
    def test_norm_is_real_and_nonnegative(self, z):
        w = gprod(z, gconj(z))
        assert w.im == 0
        assert w.re >= 0
        assert w.re == gnorm(z)

    @given(gaussians, gaussians)
    def test_product_conjugates(self, a, b):
        assert gconj(gprod(a, b)) == gprod(gconj(a), gconj(b))

    @given(gaussians, gaussians)
    def test_division_inverts_multiplication(self, a, b):
        if b.is_zero():
            with pytest.raises(ZeroDivisionError):
                gdiv(a, b)
        else:
            assert gdiv(gprod(a, b), b) == a

    @given(gaussians)
    def test_string_round_trip(self, z):
        assert cell_value(str(z)) == z

    def test_wire_format(self):
        assert str(GaussianRational(Fraction(1, 2), Fraction(-3))) == "1/2-3*i"
        assert str(GaussianRational(0, 1)) == "i"
        assert str(GaussianRational(-2, 0)) == "-2"
        assert cell_value("1/2-3*i") == GaussianRational(
            Fraction(1, 2), Fraction(-3)
        )


class TestFourSquares:
    def test_identity_case(self):
        assert four_square_decompose(1) == (1, 0, 0, 0)

    def test_seven(self):
        assert four_square_decompose(7) == (2, 1, 1, 1)

    def test_three_quarters(self):
        q = four_square_decompose(Fraction(3, 4))
        assert q == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            four_square_decompose(0)
        with pytest.raises(ValueError):
            four_square_decompose(Fraction(-3, 4))

    def test_random_rationals_sum_exactly(self):
        rng = random.Random(422)
        for _ in range(1000):
            num = rng.randrange(1, 10**6)
            den = rng.randrange(1, 10**6)
            c = Fraction(num, den)
            q = four_square_decompose(c)
            assert sum(x * x for x in q) == c
            assert all(x >= 0 for x in q)


def _random_symmetric(rng, n=4, span=6):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randrange(-span, span + 1))
            rows[i][j] = v
            rows[j][i] = v
    return const_matrix(rows, "symmetric")


def _quadratic_form_value(matrix, v):
    n = matrix.size
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            total += v[i] * matrix.entries[i][j].re * v[j]
    return total


class TestPositiveDefinite:
    def test_identity(self):
        assert first_nonpositive_minor(identity_matrix(3)) is None

    def test_indefinite_diag(self):
        m = const_matrix([[1, 0], [0, -1]], "symmetric")
        assert first_nonpositive_minor(m) == (2, -1)

    def test_hermitian_example(self):
        i = GaussianRational(0, 1)
        one = GaussianRational(1)
        two = GaussianRational(2)
        m = ConstMatrix([[two, i], [gneg(i), one]], "hermitian")
        # minors 2 and 2*1 - i*(-i) = 1
        assert leading_principal_minors(m) == [2, 1]
        assert first_nonpositive_minor(m) is None

    def test_agrees_with_vector_oracle(self):
        # Exhaustive check v^T M v > 0 over random nonzero rational vectors:
        # PD => all positive; any nonpositive sample => not PD.
        rng = random.Random(1031)
        for _ in range(60):
            m = _random_symmetric(rng)
            verdict = first_nonpositive_minor(m) is None
            samples = []
            for _ in range(100):
                v = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(4)]
                if any(v):
                    samples.append(_quadratic_form_value(m, v))
            if verdict:
                assert all(s > 0 for s in samples)
            if any(s <= 0 for s in samples):
                assert not verdict

    def test_minors_match_leibniz(self):
        rng = random.Random(77)
        from hypercert.detrep import const_det

        for _ in range(40):
            m = _random_symmetric(rng, n=4)
            minors = leading_principal_minors(m)
            for k, minor in enumerate(minors):
                sub = ConstMatrix(
                    [row[: k + 1] for row in m.entries[: k + 1]], "none"
                )
                assert const_det(sub) == GaussianRational(minor)
                if minor == 0:
                    break


def random_pencil_at(rng):
    """(slices, e): 1-3 symmetric or hermitian slices of size 1-5 with small
    rational (Gaussian) entries, often zero and sometimes all diagonal, and
    a rational e, maybe zero or negative in some coordinates, so that the
    leading minors of A(e) are often zero or negative."""
    hermitian, diagonal = rng.random() < 0.5, rng.random() < 0.3
    m, n = rng.randint(1, 5), rng.randint(1, 3)

    def rational():
        return Fraction(rng.randint(-2, 3), rng.choice([1, 1, 2, 3]))

    slices = []
    for _ in range(n):
        rows = [[GR_ZERO] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = GaussianRational(rational())
            for j in range(i + 1, m):
                if not diagonal and rng.random() < 0.7:
                    z = GaussianRational(rational(), rational() if hermitian else 0)
                    rows[i][j], rows[j][i] = z, gconj(z)
        slices.append(ConstMatrix(rows, "hermitian" if hermitian else "symmetric"))
    e = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
    return slices, e


class TestIntegerSylvester:
    """The Sylvester test over Z or Z[i] gives the (order, minor) of the
    Fraction oracle, leading_principal_minors (tests/oracles.py)."""

    @given(st.integers(0, 10**9))
    def test_matches_fraction_oracle(self, seed):
        slices, e = random_pencil_at(random.Random(seed))
        value = pencil_value(slices, e)
        expected = sylvester_reference(value)
        assert first_nonpositive_minor_at(_integer_slices(slices), e) == expected
        assert first_nonpositive_minor(value) == expected

    def test_outcomes_cover_zero_negative_and_definite(self):
        rng = random.Random(2008)
        seen = set()
        for _ in range(400):
            slices, e = random_pencil_at(rng)
            got = first_nonpositive_minor_at(_integer_slices(slices), e)
            assert got == sylvester_reference(pencil_value(slices, e))
            seen.add("definite" if got is None else ("zero" if got[1] == 0 else "negative", got[0] > 1))
        assert seen == {"definite", ("zero", False), ("zero", True), ("negative", False), ("negative", True)}

    @pytest.mark.parametrize("rows", [[["1", "0"], ["0", "i"]], [["1", "1"], ["1", "i"]]], ids=["diagonal", "dense"])
    def test_nonreal_minor_of_hermitian_input_raises(self, rows):
        matrix = ConstMatrix([[cell_value(c) for c in row] for row in rows], "hermitian")
        with pytest.raises(ArithmeticError, match="^leading principal minor 2 is not real"):
            first_nonpositive_minor(matrix)
        with pytest.raises(ArithmeticError, match="^leading principal minor 2 is not real"):
            leading_principal_minors(matrix)

    def test_diagonal_512_is_fast(self):
        # The quadric pipeline checks A(e) = diag(...) up to 512 rows.
        rng, m = random.Random(512), 512
        diagonals = [[Fraction(rng.randint(1, 99), rng.randint(1, 9)) for _ in range(m)] for _ in range(2)]
        diagonals[1][-1] = Fraction(-10**4)  # only the last minor is negative
        slices = [
            ConstMatrix([[GaussianRational(d[i]) if i == j else GR_ZERO for j in range(m)] for i in range(m)], "symmetric")
            for d in diagonals
        ]
        e = (1, Fraction(1, 3))
        start = time.perf_counter()
        got = first_nonpositive_minor_at(_integer_slices(slices), e)
        elapsed = time.perf_counter() - start
        minor = Fraction(1)
        for a, b in zip(*diagonals):
            minor *= a + b / 3
        assert got == (m, minor) and minor < 0
        assert elapsed < 0.5, elapsed  # about 0.02 s on a 2-CPU x86_64 container


class TestPencilValue:
    def test_linear_combination(self):
        a0 = identity_matrix(2)
        a1 = const_matrix([[1, 0], [0, -1]], "symmetric")
        a2 = const_matrix([[0, 1], [1, 0]], "symmetric")
        v = pencil_value([a0, a1, a2], [1, 0, 0])
        assert v == identity_matrix(2)
        v2 = pencil_value([a0, a1, a2], [Fraction(1), Fraction(2), Fraction(3)])
        assert v2.entries[0][0] == GaussianRational(3)
        assert v2.entries[0][1] == GaussianRational(3)
        assert v2.entries[1][1] == GaussianRational(-1)


@st.composite
def pencils_at(draw):
    """(slices, point): 1-4 real or Gaussian slices of size 1-3 whose cells
    have denominators and are often zero, with kind tags that may differ,
    and a point with denominators and zero coordinates."""
    gaussian, n, m = draw(st.booleans()), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cell = small_gaussians if gaussian else small_gaussians.map(lambda z: GaussianRational(z.re))
    kinds = st.sampled_from(["symmetric", "hermitian", "none"])
    slices = [ConstMatrix([[draw(cell) for _ in range(m)] for _ in range(m)], draw(kinds)) for _ in range(n)]
    coordinate = st.one_of(st.just(0), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    return slices, draw(st.lists(coordinate, min_size=n, max_size=n))


class TestPencilAt:
    """pencil_value and _pencil_at, the one int sum of a pencil at a point,
    against the entry-by-entry eval_at_reference of tests/oracles.py on the
    pencil's matrix of linear forms."""

    @given(pencils_at())
    def test_matches_the_reference(self, case):
        slices, point = case
        n, m = len(slices), slices[0].size
        ring = Ring.standard(tuple(f"x{k}" for k in range(n)), gaussian=True)
        units = [tuple(int(k == v) for k in range(n)) for v in range(n)]
        kind = _common_kind(slices)
        forms = PolyMatrix(ring, [[MultiPoly.from_terms(ring, [(u, a.entries[i][j]) for u, a in zip(units, slices)])
                                   for j in range(m)] for i in range(m)], kind)
        expected = eval_at_reference(forms, point)
        value = pencil_value(slices, point)
        assert value == expected and value.kind == kind and value.entries == expected.entries
        pencil = _integer_slices(slices)
        scale, cells = _pencil_at(pencil, point)
        assert scale == pencil[1] * math.lcm(*(Fraction(c).denominator for c in point if c))
        assert all(cells.values()) and ConstMatrix._of_ints(m, scale, cells, kind) == expected
