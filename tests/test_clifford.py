"""Clifford generators and the SOS-to-representation bridge."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercert import clifford
from hypercert.clifford import (
    CapacityError,
    CliffordGenerators,
    build_Q,
    clifford_generators,
    hurwitz_radon,
    sos_to_detrep,
)
from hypercert import detrep
from hypercert.detrep import PolyMatrix, verify_companion, verify_pencil
from hypercert.fixtures import load_fixture_matrix, load_fixture_poly
from hypercert.polyring import MultiPoly, Ring, _sum_of_squares, parse
from hypercert.quadratic import quadratic_detrep
from hypercert.scalars import GaussianRational
from oracles import companion_det, dense_generators, eval_reference, hurwitz_defect, involution_reference


def _dense_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


class TestGenerators:
    def test_n1_matrix(self):
        g = clifford_generators(1)
        assert dense_generators(g)[0] == ((0, -1), (1, 0))

    def test_entries_in_unit_set(self):
        for n in range(1, 5):
            g = clifford_generators(n)
            for m in dense_generators(g):
                assert all(v in (-1, 0, 1) for row in m for v in row)
                # exactly one nonzero per column
                for col in range(g.dimension):
                    assert sum(1 for row in m if row[col]) == 1

    def test_invariants_dense_small(self):
        # Redundant dense recheck of the sparse assertions, n <= 4.
        for n in range(1, 5):
            g = clifford_generators(n)
            dim = g.dimension
            ident = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
            dense = [[list(r) for r in a] for a in dense_generators(g)]
            for rows in dense:
                assert [list(r) for r in zip(*rows)] == [[-v for v in r] for r in rows]
                sq = _dense_mul(rows, rows)
                assert sq == [[-v for v in r] for r in ident]
            for i in range(n):
                for j in range(i + 1, n):
                    ab = _dense_mul(dense[i], dense[j])
                    ba = _dense_mul(dense[j], dense[i])
                    assert all(
                        ab[r][c] + ba[r][c] == 0 for r in range(dim) for c in range(dim)
                    )

    def test_invariants_exhaustive_to_six(self):
        # Construction asserts the Hurwitz equations (for these skew A_i:
        # A_i^2 = -I and anticommutation) exhaustively; drive it for n <= 6
        # and recheck them with the sparse oracle.
        for n in range(1, 7):
            g = clifford_generators(n)
            assert g.dimension == 1 << n
            assert hurwitz_defect(g) is None

    def test_range_check(self):
        with pytest.raises(ValueError):
            clifford_generators(0)
        with pytest.raises(CapacityError, match="9 forms need a 1024x1024 pencil; at most 512 rows"):
            clifford_generators(9)


RADON_DIMENSION = {1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8, 7: 8, 8: 8, 9: 16, 10: 32, 11: 64, 12: 64}
RADON_DIMENSION.update({13: 128, 14: 128, 15: 128, 16: 128, 17: 256})


class TestHurwitzRadon:
    @given(st.integers(1, 17))
    def test_hurwitz_equations_and_dimension(self, k):
        gens = hurwitz_radon(k)
        assert len(gens.perms) == k and gens.dimension == RADON_DIMENSION[k]
        assert hurwitz_defect(gens) is None

    def test_first_table_is_the_identity_then_imaginary_units(self):
        # M_0 = I; M_1 on C = R^2 is multiplication by i: 1 -> i, i -> -1.
        assert dense_generators(hurwitz_radon(2)) == [((1, 0), (0, 1)), ((0, -1), (1, 0))]

    def test_broken_table_is_refused(self):
        gens = hurwitz_radon(4)
        columns = [list(zip(p, s)) for p, s in zip(gens.perms, gens.signs)]
        columns[3][1] = (columns[3][1][0], -columns[3][1][1])
        with pytest.raises(AssertionError, match="Hurwitz equations"):
            clifford._checked(columns)

    def test_size_limit_refused_before_building(self, monkeypatch):
        def tripwire(*args):
            raise AssertionError("table built past the size limit")

        monkeypatch.setattr(clifford, "_radon_columns", tripwire)
        with pytest.raises(CapacityError, match="18 forms need a 1024x1024 pencil; at most 512 rows"):
            hurwitz_radon(18)
        with pytest.raises(ValueError):
            hurwitz_radon(0)


R2 = Ring.standard(("x1", "x2"))
R3 = Ring.standard(("x1", "x2", "x3"))


@st.composite
def radon_forms(draw):
    """1-9 nonzero linear forms in x1, x2 with small integer coefficients."""
    k = draw(st.integers(1, 9))
    coeffs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any), min_size=k, max_size=k))
    return [MultiPoly.from_terms(R2, [((1, 0), a), ((0, 1), b)]) for a, b in coeffs]


def random_forms(rng, ring, k, degree):
    out = []
    for _ in range(k):
        items = []
        for _ in range(rng.randrange(1, 4)):
            expo = [0] * ring.arity
            for _ in range(degree):
                expo[rng.randrange(ring.arity)] += 1
            items.append((tuple(expo), Fraction(rng.randrange(-4, 5))))
        p = MultiPoly.from_terms(ring, items)
        if p.is_zero():
            p = MultiPoly.from_terms(
                ring, [(tuple([degree] + [0] * (ring.arity - 1)), Fraction(1))]
            )
        out.append(p)
    return out


class TestBuildQ:
    def test_single_form(self):
        q = build_Q([parse("x1", R2)])
        assert q.size == 4
        assert involution_reference(q) == parse("x1^2", R2)

    def test_two_forms(self):
        q = build_Q([parse("2*x1", R2), parse("2*x2", R2)])
        assert q.size == 8
        assert q.kind_violation() is None
        assert involution_reference(q) == parse("4*x1^2 + 4*x2^2", R2)

    def test_quartic_sos_terms(self):
        ring = Ring.standard(("x0", "x1", "x2"))
        forms = [
            parse("x0*x1 + x1^2 - x2^2", ring),
            parse("x0^2 - x1*x2", ring),
            parse("x0*x1 + x0*x2", ring),
        ]
        q = build_Q(forms)
        assert q.size == 16
        p = MultiPoly.zero(ring)
        for g in forms:
            p = p + g * g
        assert q.kind_violation() is None
        assert involution_reference(q) == p

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ValueError):
            build_Q([parse("x1", R2), parse("x1*x2", R2)])

    def test_complex_coefficients_rejected(self):
        gring = Ring.standard(("x1",), gaussian=True)
        with pytest.raises(ValueError):
            build_Q([parse("i*x1", gring)])

    def test_random_lists_invariants(self):
        rng = random.Random(103)
        for _ in range(100):
            k = rng.randrange(1, 5)
            degree = rng.choice((2, 3))
            forms = random_forms(rng, R3, k, degree)
            q = build_Q(forms)
            assert q.size == 1 << (k + 1)
            assert q.kind_violation() is None
            # Trace 0 and Q^2 = (sum G_i^2)*I, by the polynomial square.
            assert involution_reference(q) == _sum_of_squares(R3, forms)


# build_Q's checks that the CLI cannot reach, since a squares file holds at
# least one form and one ring (tests/test_cli.py::SOS_TO_DETREP_ERRORS has
# the others).
BUILD_Q_ERRORS = {
    "no-form": ([], "need at least one form"),
    "two-rings": ([parse("x1", R2), parse("x1", Ring.standard(("x1",)))], "forms must share one ring"),
}


@pytest.mark.parametrize("case", BUILD_Q_ERRORS)
def test_build_q_refuses(case):
    forms, message = BUILD_Q_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_Q(forms)


class TestBuildQHurwitzRadon:
    @settings(max_examples=40)
    @given(radon_forms())
    def test_involution_and_companion_determinant(self, forms):
        # The shared assembly loop with polynomial entries and the compact table.
        gens = hurwitz_radon(len(forms))
        rows = clifford._q_rows(gens.dimension, MultiPoly.zero(R2), zip(forms, gens.perms, gens.signs))
        q = PolyMatrix(R2, rows, "symmetric")
        p = _sum_of_squares(R2, forms)
        assert q.size == 2 * RADON_DIMENSION[len(forms)]
        assert q.kind_violation() is None
        assert involution_reference(q) == p
        if q.size <= 16:
            ring_h = Ring.standard(("y", "x1", "x2"))
            h = MultiPoly.variable(ring_h, "y") ** 2 - p.lift(ring_h)
            assert companion_det(q, ring_h) == h ** (q.size // 2)


class TestSharedEntries:
    """Q holds each distinct coefficient as one object: c_t, one -c_t per
    term and the zero, and a cell is the same object as its mirror."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_build_q_has_at_most_2k_plus_1_distinct_entries(self, k):
        forms = [parse(f"{t + 1}*x1 - {2 * t + 3}*x2 + x3", R3) for t in range(k)]
        q = build_Q(forms)
        assert len({id(p) for row in q.rows for p in row}) <= 2 * k + 1
        m = q.size
        assert all(q.rows[i][j] is q.rows[j][i] for i in range(m) for j in range(m))

    def test_two_terms_in_one_cell_are_summed(self):
        # Both terms reach the diagonal of S: S = x1*I + x2*diag(1, -1).
        x1, x2, zero = parse("x1", R2), parse("x2", R2), MultiPoly.zero(R2)
        rows = clifford._q_rows(2, zero, [(x1, (0, 1), (1, 1)), (x2, (0, 1), (1, -1))])
        assert rows[0][2] == parse("x1 + x2", R2) and rows[1][3] == parse("x1 - x2", R2)
        assert rows[0][3] is rows[1][2] is zero
        assert rows[0][2] is rows[2][0] and rows[1][3] is rows[3][1]

    def test_generators_are_built_once_and_refusals_repeat(self):
        assert clifford_generators(3) is clifford_generators(3)
        for _ in range(2):
            with pytest.raises(CapacityError, match="9 forms need a 1024x1024 pencil"):
                clifford_generators(9)


class TestSosToDetrep:
    def test_involution_routes_form_no_polynomial_square(self, monkeypatch):
        # Q^2 = P*I is decided on lattice values: no route that proves it
        # multiplies polynomial matrices or turns a pencil into one.
        def tripwire(*args):
            raise AssertionError("polynomial matrix formed on an involution route")

        monkeypatch.setattr(PolyMatrix, "matmul", tripwire)
        monkeypatch.setattr(detrep, "pencil_to_polymatrix", tripwire)
        ring = Ring.standard(("x0", "x1", "x2"))
        h = parse("x0^2 - x1^2 - 2*x2^2", ring)
        quadric = quadratic_detrep(h, (1, 0, 0))
        reports = [
            sos_to_detrep([parse("x1", R2), parse("x1 - 2*x2", R2)]).report,
            quadric.report,
            verify_pencil(quadric.pencil, h, quadric.power, (1, 0, 0), up_to_scalar=True),
            verify_companion(load_fixture_matrix("F3_matrix.json"), load_fixture_poly("F3_h.txt"), 1),
        ]
        for report in reports:
            assert report.ok and report.notes["method"] == "minimal-polynomial-shortcut"

    def test_single_square(self):
        rep = sos_to_detrep([parse("x1", R2)])
        assert rep.power == 2
        assert rep.matrix.size == 4
        assert rep.report.ok
        # det(yI - Q) = (y^2 - x1^2)^2 via the direct Bareiss oracle
        assert companion_det(rep.matrix, rep.h.ring) == rep.h ** 2

    def test_two_squares_det(self):
        rep = sos_to_detrep([parse("2*x1", R2), parse("2*x2", R2)])
        assert rep.power == 4
        assert companion_det(rep.matrix, rep.h.ring) == rep.h ** 4
        assert rep.h == parse("y^2 - 4*x1^2 - 4*x2^2", rep.h.ring)

    def test_quartic_terms_shortcut_with_specialized_oracle(self):
        # 16x16: certified via the minimal-polynomial shortcut, then
        # cross-check the Bareiss determinant at random rational x-points
        # (exact univariate determinants in y).
        ring = Ring.standard(("x0", "x1", "x2"))
        forms = [
            parse("x0*x1 + x1^2 - x2^2", ring),
            parse("x0^2 - x1*x2", ring),
            parse("x0*x1 + x0*x2", ring),
        ]
        rep = sos_to_detrep(forms)
        assert rep.power == 8
        assert rep.report.notes.get("method") == "minimal-polynomial-shortcut"
        p = MultiPoly.zero(ring)
        for g in forms:
            p = p + g * g
        rng = random.Random(107)
        ring_y = Ring(("y",), (1,))
        for _ in range(5):
            point = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            rows = []
            for row in rep.matrix.rows:
                rows.append(
                    [
                        MultiPoly.constant(ring_y, eval_reference(entry, point).re)
                        for entry in row
                    ]
                )
            y = MultiPoly.variable(ring_y, "y")
            det = companion_det(PolyMatrix(ring_y, rows, "none"), ring_y)
            target = (y * y - MultiPoly.constant(ring_y, eval_reference(p, point).re)) ** 8
            assert det == target

    def test_roundtrip_sum_identity(self):
        from hypercert.detrep import detrep_to_sos

        rng = random.Random(109)
        for _ in range(20):
            k = rng.randrange(1, 4)
            forms = random_forms(rng, R2, k, 2)
            q = build_Q(forms)
            p = MultiPoly.zero(R2)
            for g in forms:
                p = p + g * g
            sos = detrep_to_sos(q, p, column=rng.randrange(q.size))
            total = MultiPoly.zero(R2)
            for g in sos.squares:
                total = total + g * g
            assert total == p
