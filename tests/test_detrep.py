"""Polynomial matrices, exact determinants, and representation checks."""

import functools
import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercert.clifford import _q_rows, build_Q, clifford_generators, hurwitz_radon
from hypercert.detrep import (
    PolyMatrix,
    _companion_match,
    _lattice,
    _lattice_match,
    _match_branch,
    _match_values,
    _on_lattice,
    _square_on_lattice,
    _squared,
    const_det,
    detrep_to_sos,
    pencil_to_polymatrix,
    plucker_line,
    poly_det,
    polymatrix_to_pencil,
    verify_companion,
    verify_pencil,
)
from hypercert.fixtures import load_fixture_matrix, load_fixture_poly
from hypercert.polyring import MultiPoly, ParseError, Ring, parse
from hypercert.scalars import ConstMatrix, GaussianRational, _integer_slices, pencil_value
from oracles import (
    companion_det,
    companion_notes_reference,
    companion_values,
    cell_value,
    conjugate,
    const_matrix,
    ell_minus,
    eval_at_reference,
    eval_reference,
    gaussian_str_reference,
    gconj,
    gdiv,
    gneg,
    gprod,
    gsum,
    involution_reference,
    lattice_points,
    leading_scalar,
    leibniz_det,
    match_branch_reference,
    match_values_reference,
    pencil_reference,
    pencil_values,
    scalar_mismatch,
    scale,
    scaled,
    square_on_lattice_reference,
    sylvester_reference,
    transpose,
)

R3 = Ring.standard(("x0", "x1", "x2"))
R4 = Ring.standard(("x0", "x1", "x2", "x3"))


def random_sparse_matrix(rng, ring, n, gaussian=False, density=0.6):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() > density:
                row.append(MultiPoly.zero(ring))
                continue
            items = []
            for _ in range(rng.randrange(1, 3)):
                expo = tuple(rng.randrange(0, 3) for _ in ring.variables)
                re = Fraction(rng.randrange(-5, 6))
                im = Fraction(rng.randrange(-5, 6)) if gaussian else Fraction(0)
                items.append((expo, GaussianRational(re, im)))
            row.append(MultiPoly.from_terms(ring, items))
        rows.append(row)
    return PolyMatrix(ring, rows, "none")


class TestDeterminants:
    def test_quadric_pencil(self):
        m = PolyMatrix.from_strings(
            R3, [["x0+x1", "x2"], ["x2", "x0-x1"]], "symmetric"
        )
        assert poly_det(m) == parse("x0^2 - x1^2 - x2^2", R3)

    def test_reducible_cubic(self):
        m = load_fixture_matrix("F1_matrix.json")
        expected = parse("(x0-x1)*(x0^2-x1^2-x2^2-x3^2)", m.ring)
        assert poly_det(m) == expected

    def test_cubic_surface(self):
        m = load_fixture_matrix("F2_matrix.json")
        h = load_fixture_poly("F2_poly.txt")
        assert poly_det(m) == h

    def test_bareiss_equals_leibniz_on_random_matrices(self):
        rng = random.Random(83)
        gring = Ring.standard(("x0", "x1"), gaussian=True)
        for trial in range(200):
            n = rng.randrange(1, 5)
            ring = R3 if trial % 2 else gring
            m = random_sparse_matrix(rng, ring, n, gaussian=ring.gaussian)
            assert poly_det(m) == leibniz_det(m)

    def test_transpose_and_conjugate(self):
        rng = random.Random(89)
        gring = Ring.standard(("x0", "x1"), gaussian=True)
        for _ in range(50):
            m = random_sparse_matrix(rng, gring, 3, gaussian=True)
            d = poly_det(m)
            assert poly_det(transpose(m)) == d
            assert poly_det(conjugate(m)) == d.conjugate()


class TestLatticeUnisolvence:
    """Two forms of degree m agree iff they agree on the simplex lattice that
    the lattice route visits: its T x T matrix of monomial values has full
    rank (checked by sympy, independently of the library)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomial_values_have_full_rank(self, n):
        units = [[int(j == k) for j in range(n)] for k in range(n)]
        for m in range(1, 7):
            visited = {x: tuple(total) for x, total in _on_lattice(units, m)}  # each sum is the point itself
            assert list(visited.items()) == [(x, x) for x in lattice_points(n, m)]
            monomials = list(itertools.combinations_with_replacement(range(n), m))
            assert len(visited) == len(monomials) == math.comb(m + n - 1, n - 1)
            values = sympy.Matrix([[math.prod(x[k] for k in mono) for mono in monomials] for x in visited.values()])
            assert values.rank() == len(monomials), (n, m)

    @pytest.mark.parametrize("offset", [GaussianRational(1), GaussianRational(0, 1)], ids=["real", "imaginary"])
    def test_each_lattice_point_is_compared(self, offset):
        # h = det + offset * L_b, where the Lagrange form L_b of the lattice
        # (a product of m lines) vanishes at every lattice point but (1, b):
        # the pencil is refuted there and nowhere else.
        ring = Ring.standard(("x0", "x1", "x2"), gaussian=True)
        forms = ([1, 1, 0], [1, 0, 1], [2, 1, 1])
        pencil = [
            const_matrix([[f[k] if i == j else 0 for j, f in enumerate(forms)] for i in range(3)], "symmetric")
            for k in range(3)
        ]
        det = poly_det(pencil_to_polymatrix(pencil, ring))
        x0, x1, x2 = (MultiPoly.variable(ring, v) for v in ring.variables)
        m = 3
        for x in lattice_points(3, m):
            lagrange = MultiPoly.constant(ring, 1)
            for line, count in zip((x1, x2, scale(x0, m) - x1 - x2), x[1:] + (m - sum(x[1:]),)):
                for j in range(count):
                    lagrange = lagrange * (line - scale(x0, j))
            h = det + scale(lagrange, offset)
            report = verify_pencil(pencil, h, 1, (1, 0, 0))
            witness = f"at x = {','.join(map(str, x))}: det = {eval_reference(det, x)}, c*h^r = {eval_reference(h, x)}"
            assert [(f.name, f.witness) for f in report.failures] == [("determinant", witness)]


QUADRIC_PENCIL = [
    const_matrix([[1, 0], [0, 1]], "symmetric"),
    const_matrix([[1, 0], [0, -1]], "symmetric"),
    const_matrix([[0, 1], [1, 0]], "symmetric"),
]


# verify_pencil's checks that the CLI cannot reach, since a pencil file has
# one kind and one slice per variable of h (tests/test_cli.py::
# VERIFY_PENCIL_ERRORS has the others).
VERIFY_PENCIL_ERRORS = {
    "slice-count": (QUADRIC_PENCIL[:2], "need one pencil matrix per variable of h"),
    "mixed-kinds": ([*QUADRIC_PENCIL[:2], const_matrix([[0, 1], [1, 0]], "hermitian")],
                    "pencil matrices must share one symmetry kind"),
}


@pytest.mark.parametrize("case", VERIFY_PENCIL_ERRORS)
def test_verify_pencil_refuses(case):
    matrices, message = VERIFY_PENCIL_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_pencil(matrices, parse("x0^2 - x1^2 - x2^2", R3), 1, (1, 0, 0))


class TestVerifyPencil:
    def test_quadric_ok(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        report = verify_pencil(QUADRIC_PENCIL, h, 1, (1, 0, 0))
        assert report.ok
        assert report.scalar == 1

    def test_pd_failure_carries_minor_witness(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        report = verify_pencil(QUADRIC_PENCIL, h, 1, (0, 1, 0))
        assert not report.ok
        fails = {f.name: f.witness for f in report.failures}
        assert "positive-definite" in fails
        assert "order 2" in fails["positive-definite"]
        # Independent recheck of the witness minor via Leibniz.
        from hypercert.scalars import pencil_value

        value = pencil_value(QUADRIC_PENCIL, (0, 1, 0))
        sub = ConstMatrix([row[:2] for row in value.entries[:2]], "none")
        assert const_det(sub).re <= 0

    def test_det_mismatch_witness(self):
        h = parse("x0^2 - x1^2 - 2*x2^2", R3)
        report = verify_pencil(QUADRIC_PENCIL, h, 1, (1, 0, 0))
        assert not report.ok
        fails = {f.name for f in report.failures}
        assert "determinant" in fails

    def test_up_to_scalar(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        tripled = [scaled(m, 3) for m in QUADRIC_PENCIL]
        strict = verify_pencil(tripled, h, 1, (1, 0, 0), up_to_scalar=False)
        assert not strict.ok
        loose = verify_pencil(tripled, h, 1, (1, 0, 0), up_to_scalar=True)
        assert loose.ok
        assert loose.scalar == 9

    def test_negative_scalar_rejected(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        flipped = [scaled(m, -1) for m in QUADRIC_PENCIL]
        report = verify_pencil(flipped, h, 1, (1, 0, 0), up_to_scalar=True)
        assert not report.ok

    def test_size_mismatch_raises(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        with pytest.raises(ValueError):
            verify_pencil(QUADRIC_PENCIL, h, 2, (1, 0, 0))

    @pytest.mark.parametrize("r", [0, -1])
    def test_power_below_one_raises(self, r):
        # Three 0x0 matrices match deg(h) * 0 = 0 and have an empty, "definite"
        # value at e; r = 0 would certify any h, hyperbolic or not.
        h = parse("x0^2 + x1^2 + x2^2 + 5*x0*x1", R3)
        empty = [ConstMatrix([], "symmetric")] * 3
        with pytest.raises(ValueError, match="at least 1"):
            verify_pencil(empty, h, r, (1, 0, 0))
        with pytest.raises(ValueError, match="at least 1"):
            verify_pencil(QUADRIC_PENCIL, parse("x0^2 - x1^2 - x2^2", R3), r, (1, 0, 0))

    def test_kind_violation_reported(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        broken = [
            const_matrix([[1, 5], [0, 1]], "symmetric"),
            const_matrix([[1, 0], [0, -1]], "symmetric"),
            const_matrix([[0, 1], [1, 0]], "symmetric"),
        ]
        report = verify_pencil(broken, h, 1, (1, 0, 0))
        assert not report.ok
        assert any(f.name == "kind" for f in report.failures)

    def test_shortcut_matches_direct_on_pipeline_output(self):
        from hypercert.quadratic import quadratic_detrep

        h = parse("x0^2 - x1^2 - x2^2", R3)
        rep = quadratic_detrep(h, (1, 0, 0), clifford_generators)
        report = verify_pencil(rep.pencil, h, rep.power, (1, 0, 0), up_to_scalar=True)
        assert report.ok and report.scalar == 256
        assert report.notes["method"] == "minimal-polynomial-shortcut"
        assert poly_det(pencil_to_polymatrix(rep.pencil, R3)) == scale(h ** rep.power, 256)


class TestPencilStaysInIntegerForm:
    """verify_pencil reads only each slice's integer form: it never asks a
    ConstMatrix for its GaussianRational rows, on either route."""

    @pytest.fixture(autouse=True)
    def rows_unread(self, monkeypatch):
        def entries(mat):
            raise AssertionError("a slice's rows were read")

        monkeypatch.setattr(ConstMatrix, "entries", property(entries))

    @pytest.mark.parametrize("h", ["x0^2 - x1^2 - x2^2", "x0^2 - x1^2 - 2*x2^2"], ids=["holds", "fails"])
    def test_involution(self, h):
        report = verify_pencil(QUADRIC_PENCIL, parse(h, R3), 1, (1, 0, 0))
        assert report.notes["method"] == "minimal-polynomial-shortcut"

    def test_non_involution(self):
        # diag(x0 + x1, x0 - x1, x0 + x2, x0 - x2) - x0*I squares to no scalar.
        rows = [[f"x0 {sign} x{k}" if i == j else "0" for j in range(4)]
                for i, (sign, k) in enumerate([("+", 1), ("-", 1), ("+", 2), ("-", 2)])]
        pencil = polymatrix_to_pencil(PolyMatrix.from_strings(R3, rows, "symmetric"))
        report = verify_pencil(pencil, parse("x0^2 - x1^2", R3), 2, (1, 0, 0))
        assert report.notes["method"] == "lattice"
        assert [f.name for f in report.failures] == ["determinant"]

    def test_quadratic_detrep_pencil(self):
        from hypercert.quadratic import quadratic_detrep

        h = parse("x0^2 - x1^2 - 2*x2^2", R3)
        rep = quadratic_detrep(h, (1, 0, 0))
        report = verify_pencil(rep.pencil, h, rep.power, (1, 0, 0), up_to_scalar=True)
        assert report.ok and report.notes["method"] == "minimal-polynomial-shortcut"


class TestVerifyCompanion:
    def test_ternary_quartic(self):
        m = load_fixture_matrix("F3_matrix.json")
        h = load_fixture_poly("F3_h.txt")
        report = verify_companion(m, h, 1)
        assert report.ok, report.to_json_dict()
        assert report.notes["method"] == "minimal-polynomial-shortcut"
        assert companion_det(m, h.ring) == h

    def test_zero_matrix_degree_one(self):
        ring_h = Ring(("y",), (1,))
        h = MultiPoly.variable(ring_h, "y")
        ring_x = Ring((), ())
        a = PolyMatrix(ring_x, [[MultiPoly.zero(ring_x)]], "symmetric")
        report = verify_companion(a, h, 1)
        assert report.ok

    def test_exact_gaussian_determinant_is_not_refused_for_its_leading_coefficient(self):
        # det(y*I - A) = y - i*x1 = h exactly, though h's glex-leading
        # coefficient is -i: c = 1 on this route, so no determinant failure.
        ring_h = Ring(("x1", "y"), (1, 1), gaussian=True)
        a = PolyMatrix(Ring(("x1",), (1,), gaussian=True), [[parse("i*x1", Ring(("x1",), (1,), gaussian=True))]])
        report = verify_companion(a, parse("y - i*x1", ring_h), 1)
        assert report.notes["method"] == "lattice"
        assert [f.name for f in report.failures] == ["kind"]  # A declares no kind

    def test_clifford_q_for_two_squares(self):
        from hypercert.clifford import build_Q

        ring = Ring.standard(("x1", "x2"))
        q = build_Q([parse("x1", ring), parse("x2", ring)])
        ring_h = Ring(("y", "x1", "x2"), (1, 1, 1))
        h = parse("y^2 - x1^2 - x2^2", ring_h)
        report = verify_companion(q, h, 4)
        assert report.ok
        assert report.notes["method"] == "minimal-polynomial-shortcut"
        assert companion_det(q, ring_h) == h ** 4

    def test_wrong_power_fails(self):
        m = load_fixture_matrix("F3_matrix.json")
        h = load_fixture_poly("F3_h.txt")
        with pytest.raises(ValueError):
            verify_companion(m, h, 2)  # size/degree mismatch

    @pytest.mark.parametrize("r", [0, -1])
    def test_power_below_one_raises(self, r):
        ring_h = Ring(("y", "x0", "x1"), (1, 1, 1))
        h = parse("y^2 + x0^2 + x1^2", ring_h)
        empty = PolyMatrix(Ring.standard(("x0", "x1")), [], "symmetric")
        with pytest.raises(ValueError, match="at least 1"):
            verify_companion(empty, h, r)

    def test_grading_violation(self):
        ring_h = Ring(("y", "x0", "x1"), (2, 1, 1))
        ring_x = Ring.standard(("x0", "x1"))
        h = parse("y^2 - x0^4", ring_h)
        bad = PolyMatrix.from_strings(
            ring_x, [["x0", "x1"], ["x1", "0-x0"]], "symmetric"
        )  # entries degree 1, need 2
        report = verify_companion(bad, h, 1)
        assert not report.ok
        assert any(f.name == "grading" for f in report.failures)


class TestDetrepToSos:
    def test_ternary_quartic_three_squares(self):
        m = load_fixture_matrix("F3_matrix.json")
        p = load_fixture_poly("F3_p.txt")
        sos = detrep_to_sos(m, p)
        got = sorted(str(g) for g in sos.squares)
        assert got == sorted(
            ["x0*x1 + x1^2 - x2^2", "x0^2 - x1*x2", "x0*x1 + x0*x2"]
        )
        total = MultiPoly.zero(m.ring)
        for g in sos.squares:
            total = total + g * g
        assert total == p

    def test_offdiagonal_symmetric(self):
        ring = Ring.standard(("x1",))
        m = PolyMatrix.from_strings(ring, [["0", "x1"], ["x1", "0"]], "symmetric")
        p = parse("x1^2", ring)
        sos = detrep_to_sos(m, p)
        assert [str(g) for g in sos.squares] == ["x1"]

    def test_any_column_works(self):
        m = load_fixture_matrix("F3_matrix.json")
        p = load_fixture_poly("F3_p.txt")
        for col in range(m.size):
            sos = detrep_to_sos(m, p, column=col)
            total = MultiPoly.zero(m.ring)
            for g in sos.squares:
                total = total + g * g
            assert total == p

    def test_involution_violation_carries_witness(self):
        ring = Ring.standard(("x1",))
        m = PolyMatrix.from_strings(ring, [["0", "x1"], ["x1", "x1"]], "symmetric")
        with pytest.raises(ValueError) as info:
            detrep_to_sos(m, parse("x1^2", ring))
        assert "A^2" in str(info.value)

    def test_clifford_roundtrip(self):
        from hypercert.clifford import build_Q

        ring = Ring.standard(("x1", "x2", "x3"))
        forms = [parse("x1", ring), parse("x2", ring), parse("x3", ring)]
        q = build_Q(forms)
        p = parse("x1^2 + x2^2 + x3^2", ring)
        sos = detrep_to_sos(q, p, column=0)
        total = MultiPoly.zero(ring)
        for g in sos.squares:
            total = total + g * g
        assert total == p


class TestScalarMismatch:
    """oracles.scalar_mismatch, the polynomial A^2 = p*I check that the
    lattice decision is tested against."""

    def test_none_on_involutions(self):
        from hypercert.clifford import build_Q

        m = load_fixture_matrix("F3_matrix.json")
        assert scalar_mismatch(m.matmul(m), load_fixture_poly("F3_p.txt")) is None
        forms = [parse("x0 + x1", R3), parse("x2", R3), parse("x0 - 2*x2", R3)]
        q = build_Q(forms)
        p = MultiPoly.zero(R3)
        for g in forms:
            p = p + g * g
        assert scalar_mismatch(q.matmul(q), p) is None
        assert scalar_mismatch(q.matmul(q), scale(p, 2)) == (0, 0, p)

    def _perturbed(self, changes):
        from hypercert.clifford import build_Q

        forms = [parse("x0", R3), parse("x1 - x2", R3)]
        q = build_Q(forms)
        p = parse("x0^2 + (x1 - x2)^2", R3)
        rows = [list(row) for row in q.matmul(q).rows]
        for (i, j), text in changes.items():
            rows[i][j] = parse(text, R3)
        return PolyMatrix(R3, rows), p

    def test_first_bad_diagonal_entry(self):
        sq, p = self._perturbed({(5, 5): "x0^2", (2, 2): "x1^2"})
        assert scalar_mismatch(sq, p) == (2, 2, parse("x1^2", R3))

    def test_first_bad_offdiagonal_entry(self):
        sq, p = self._perturbed({(6, 1): "x2", (3, 4): "x0*x1"})
        assert scalar_mismatch(sq, p) == (3, 4, parse("x0*x1", R3))

    def test_row_order_decides_between_kinds(self):
        sq, p = self._perturbed({(4, 4): "0", (3, 7): "1"})
        assert scalar_mismatch(sq, p)[:2] == (3, 7)
        sq, p = self._perturbed({(3, 3): "0", (3, 7): "1"})
        assert scalar_mismatch(sq, p)[:2] == (3, 3)

    def test_detrep_to_sos_names_the_entry(self):
        ring = Ring.standard(("x1",))
        p = parse("x1^2", ring)
        off = PolyMatrix.from_strings(ring, [["0", "x1"], ["x1", "x1"]], "symmetric")
        # x = 0 agrees; at x = 1, A^2 = [[1, 1], [1, 2]] against p*I = I.
        with pytest.raises(ValueError, match=r"^A\^2 != p\*I at x = 1: entry \(0,1\) of A\^2 is 1, of p\*I 0$"):
            detrep_to_sos(off, p)
        diag = PolyMatrix.from_strings(ring, [["x1", "0"], ["0", "2*x1"]], "symmetric")
        with pytest.raises(ValueError, match=r"^A\^2 != p\*I at x = 1: entry \(1,1\) of A\^2 is 4, of p\*I 1$"):
            detrep_to_sos(diag, p)

    def test_pencil_shortcut_falls_back_when_q_squared_is_not_scalar(self):
        # diag(A, T A T^T) with T = diag(2, 1): det = 4 h^2, but the
        # traceless part Q of the pencil has a non-scalar square.
        h = parse("x0^2 - x1^2 - x2^2", R3)
        rows = [
            ["x0 + x1", "x2", "0", "0"],
            ["x2", "x0 - x1", "0", "0"],
            ["0", "0", "4*x0 + 4*x1", "2*x2"],
            ["0", "0", "2*x2", "x0 - x1"],
        ]
        matrix = PolyMatrix.from_strings(R3, rows, "symmetric")
        report = verify_pencil(polymatrix_to_pencil(matrix), h, 2, (1, 0, 0), up_to_scalar=True)
        assert report.ok and report.scalar == 4
        assert report.notes == {"method": "lattice"}
        assert poly_det(matrix) == scale(h ** 2, 4)


class TestKindViolation:
    # One check serves both matrix types: the same rows as constants and as
    # polynomials (times x) name the same first bad entry (i, j), i <= j.
    @pytest.mark.parametrize(
        "kind, rows, expected",
        [
            ("symmetric", [["1", "2"], ["2", "3"]], None),
            ("symmetric", [["1", "i"], ["i", "3"]], (0, 1)),  # equal, not real
            ("symmetric", [["1", "0"], ["0", "2*i"]], (1, 1)),
            ("symmetric", [["1", "2", "0"], ["2", "1", "5"], ["0", "4", "1"]], (1, 2)),
            ("hermitian", [["1", "2+i"], ["2-i", "3"]], None),
            ("hermitian", [["1", "2+i"], ["2+i", "3"]], (0, 1)),
            ("hermitian", [["i", "0"], ["0", "1"]], (0, 0)),
            ("none", [["1", "i"], ["5", "3"]], None),
            ("hermitian", [["1", "2"], ["2", "3"]], None),
            ("hermitian", [["1", "2+i"], ["3-i", "3"]], (0, 1)),  # imaginary parts mirror, real parts differ
        ],
    )
    def test_const_and_poly_matrices_agree(self, kind, rows, expected):
        const = ConstMatrix([[cell_value(c) for c in row] for row in rows], kind)
        ring = Ring.standard(("x",), gaussian=True)
        poly = PolyMatrix.from_strings(ring, [[f"({c})*x" for c in row] for row in rows], kind)
        assert const.kind_violation() == expected
        assert poly.kind_violation() == expected

    @pytest.mark.parametrize("kind", ["symmetric", "hermitian"])
    def test_one_shared_entry_object(self, kind):
        # An entry stored at (i, j) and (j, i) as one object is compared only
        # for realness: the shared zero passes, a shared i fails either kind.
        zero, unit = GaussianRational(0), GaussianRational(0, 1)
        assert ConstMatrix([[zero, zero], [zero, zero]], kind).kind_violation() is None
        assert ConstMatrix([[zero, unit], [unit, zero]], kind).kind_violation() == (0, 1)


    def test_realness_is_tested_once_per_distinct_entry(self, monkeypatch):
        ring = Ring.standard(("x0", "x1"), gaussian=True)
        rows = [["x0", "x1 + i*x0", "x1"], ["x1 - i*x0", "x0 + x1", "i*x0"], ["x1", "-i*x0", "x0"]]
        matrix = PolyMatrix.from_strings(ring, rows, "hermitian")
        calls = []
        real = MultiPoly.is_real
        monkeypatch.setattr(MultiPoly, "is_real", lambda p: calls.append(p) or real(p))
        assert matrix.kind_violation() is None
        assert len(calls) == len({id(p) for row in matrix.rows for p in row}) == 7
        calls.clear()
        symmetric = PolyMatrix(ring, matrix.rows, "symmetric")
        assert symmetric.kind_violation() == (0, 1)
        assert len(calls) == 7


class TestDistinctEntries:
    """Checks and formatting run once per distinct entry object, and give
    what the cell-by-cell versions gave."""

    R2 = Ring.standard(("x1", "x2"))

    def test_first_cell_of_a_shared_bad_entry(self):
        good, zero = parse("x1^2", self.R2), MultiPoly.zero(self.R2)
        bad, other_bad = parse("x1", self.R2), parse("x2^3", self.R2)
        rows = [[good, parse("x1^2", self.R2), zero], [zero, good, bad], [bad, other_bad, bad]]
        assert PolyMatrix(self.R2, rows).entry_degrees_homogeneous(2) == (1, 2)
        rows[1][2] = good
        assert PolyMatrix(self.R2, rows).entry_degrees_homogeneous(2) == (2, 0)
        assert PolyMatrix(self.R2, [[good, zero], [zero, good]]).entry_degrees_homogeneous(2) is None

    def test_json_entries_equal_the_cell_by_cell_form(self):
        a, a_copy = parse("x1 - 2/3*x2", self.R2), parse("x1 - 2/3*x2", self.R2)
        zero, zero_copy = MultiPoly.zero(self.R2), MultiPoly.zero(self.R2)
        rows = [[a, a_copy, zero], [-a, zero_copy, a], [a_copy, -a_copy, zero]]
        entries = PolyMatrix(self.R2, rows).to_json_dict()["entries"]
        assert entries == [[str(p) if p else "0" for p in row] for row in rows]

    def test_the_distinct_entries_are_kept_in_row_order(self):
        a, a_copy, zero = parse("x1 - x2", self.R2), parse("x1 - x2", self.R2), MultiPoly.zero(self.R2)
        matrix = PolyMatrix(self.R2, [[zero, a, a_copy], [a, zero, a], [a_copy, a, zero]], "symmetric")
        assert [id(p) for p in matrix.distinct] == [id(zero), id(a), id(a_copy)]
        assert matrix.kind_violation() is None and matrix.entry_degrees_homogeneous(1) is None
        value = pencil_value(polymatrix_to_pencil(matrix), [1, 3])
        assert value == ConstMatrix([[GaussianRational(v) for v in row]
                                     for row in ([0, -2, -2], [-2, 0, -2], [-2, -2, 0])], "symmetric")

    def test_equal_cell_texts_parse_to_one_object(self):
        matrix = PolyMatrix.from_strings(self.R2, [["x1", "x2 - x1"], ["x2 - x1", "x1"]], "symmetric")
        assert matrix.rows[0][1] is matrix.rows[1][0] and matrix.rows[0][0] is matrix.rows[1][1]
        assert matrix.rows[0][1] == parse("x2 - x1", self.R2)

    def test_parse_error_names_the_first_bad_cell_in_row_order(self):
        with pytest.raises(ParseError, match="^unknown variable 'x9' at position 0$"):
            PolyMatrix.from_strings(self.R2, [["x1", "x9"], ["x1 +", "x9"]])
        with pytest.raises(ParseError, match="^unexpected end of input$"):
            PolyMatrix.from_strings(self.R2, [["x1", "x1 +"], ["x9", "x1 +"]])


class TestPlucker:
    def test_unit_lines(self):
        coords = plucker_line((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
        assert coords == (0, 0, 0, 0, 0, 0, 0, 0, 0, 1)
        coords = plucker_line((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
        assert coords == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_proportional_rejected(self):
        with pytest.raises(ValueError):
            plucker_line((1, 2, 3, 4, 5), (2, 4, 6, 8, 10))

    def test_grassmann_plucker_relations(self):
        rng = random.Random(97)
        from itertools import combinations

        index = { (i, j): k for k, (i, j) in enumerate(
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        ) }
        for _ in range(50):
            p = tuple(Fraction(rng.randrange(-6, 7)) for _ in range(5))
            q = tuple(Fraction(rng.randrange(-6, 7)) for _ in range(5))
            try:
                x = plucker_line(p, q)
            except ValueError:
                continue
            for (i, j, k, l) in combinations(range(5), 4):
                rel = (
                    x[index[(i, j)]] * x[index[(k, l)]]
                    - x[index[(i, k)]] * x[index[(j, l)]]
                    + x[index[(i, l)]] * x[index[(j, k)]]
                )
                assert rel == 0

    def test_incident_line_kills_chow_determinant(self):
        # (0,0,1,1,3) lies on both defining quadrics; every line through it
        # meets the surface, so the 4x4 determinant vanishes there.
        matrix = load_fixture_matrix("F4_matrix.json")
        q1 = load_fixture_poly("F4_quadric1.txt")
        q2 = load_fixture_poly("F4_quadric2.txt")
        base = (0, 0, 1, 1, 3)
        assert eval_reference(q1, base) == eval_reference(q2, base) == 0
        rng = random.Random(101)
        hit = 0
        while hit < 20:
            q = tuple(Fraction(rng.randrange(-7, 8)) for _ in range(5))
            try:
                coords = plucker_line(base, q)
            except ValueError:
                continue
            hit += 1
            det = const_det(eval_at_reference(matrix, coords))
            assert det.is_zero()

    def test_generic_line_does_not_vanish(self):
        matrix = load_fixture_matrix("F4_matrix.json")
        coords = plucker_line((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))
        assert not const_det(eval_at_reference(matrix, coords)).is_zero()


class TestPencilRoundTrip:
    def test_decompose_then_rebuild(self):
        m = load_fixture_matrix("F1_matrix.json")
        pencil = polymatrix_to_pencil(m)
        rebuilt = pencil_to_polymatrix(pencil, m.ring)
        assert rebuilt.rows == m.rows


G3 = Ring.standard(("x0", "x1", "x2"), gaussian=True)
I_UNIT = GaussianRational(0, 1)


@st.composite
def linear_forms(draw, ring, nonzero=False):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=ring.arity, max_size=ring.arity))
    assume(not nonzero or any(coeffs))
    form = MultiPoly.zero(ring)
    for name, c in zip(ring.variables, coeffs):
        form = form + scale(MultiPoly.variable(ring, name), c)
    return form


def _with_pair(matrix, i, j, delta):
    """matrix + delta at (i, j) and its mirror (the conjugate if hermitian)."""
    rows = [list(row) for row in matrix.rows]
    mirror = delta.conjugate() if matrix.kind == "hermitian" else delta
    rows[i][j] = rows[i][j] + delta
    if i != j:
        rows[j][i] = rows[j][i] + mirror
    return PolyMatrix(matrix.ring, rows, matrix.kind)


@st.composite
def quadratic_pencils(draw):
    """(matrices, h, r, e, up_to_scalar, involutive) for ell*I - Q with
    Q^2 = P*I: valid, with h a (possibly negative) multiple of ell^2 - P,
    then maybe tampered through ell, h, or one entry pair.  The 4x4
    hermitian shape is [[0, S], [S*, 0]] with S = [[u, -conj(v)], [v, conj(u)]]
    for Gaussian forms u, v: S*S^* = (u*conj(u) + v*conj(v))*I."""
    shape = draw(st.sampled_from(["2x2", "2x2-hermitian", "4x4-hermitian", "clifford-4", "clifford-8"]))
    ring = G3 if shape.endswith("hermitian") else R3
    if shape == "4x4-hermitian":
        u, v = (draw(linear_forms(ring)) + scale(draw(linear_forms(ring)), I_UNIT) for _ in range(2))
        zero = MultiPoly.zero(ring)
        s = [[u, -v.conjugate()], [v, u.conjugate()]]
        s_star = [[s[j][i].conjugate() for j in range(2)] for i in range(2)]
        q = PolyMatrix(ring, [[zero, zero] + s[0], [zero, zero] + s[1], s_star[0] + [zero, zero],
                              s_star[1] + [zero, zero]], "hermitian")
    elif shape.startswith("2x2"):
        a, b, c = (draw(linear_forms(ring)) for _ in range(3))
        if shape == "2x2":
            q = PolyMatrix(ring, [[a, b], [b, -a]], "symmetric")
        else:
            off = b + scale(c, I_UNIT)
            q = PolyMatrix(ring, [[a, off], [off.conjugate(), -a]], "hermitian")
    else:
        k = 1 if shape == "clifford-4" else 2
        q = build_Q([draw(linear_forms(ring, nonzero=True)) for _ in range(k)])
    m = q.size
    ell = draw(linear_forms(ring))
    branch = ell * ell - q.matmul(q).rows[0][0]
    assume(not branch.is_zero())
    h = scale(branch, draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3), 2])))
    matrix = ell_minus(ell, q)
    variant = draw(st.sampled_from(["valid", "valid", "shifted-ell", "tampered-h", "entry"]))
    x = MultiPoly.variable(ring, draw(st.sampled_from(ring.variables)))
    delta = scale(x, draw(st.sampled_from([1, -2, 3])))
    if variant == "shifted-ell":  # still involutive, det no longer c*h^r
        matrix = ell_minus(ell + delta, q)
    elif variant == "tampered-h":
        h = h + delta * delta
        assume(not h.is_zero())
    elif variant == "entry":  # usually no longer involutive: the lattice route
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        matrix = _with_pair(matrix, i, j, delta)
    e = tuple(draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3)))
    assume(any(e))
    return polymatrix_to_pencil(matrix), h, m // 2, e, draw(st.booleans()), variant != "entry"


def _rational(draw, gaussian, span=3):
    re = Fraction(draw(st.integers(-span, span)), draw(st.sampled_from([1, 1, 2, 3])))
    im = Fraction(draw(st.integers(-span, span)), draw(st.sampled_from([1, 2]))) if gaussian else 0
    return GaussianRational(re, im)


def _const_product(a, b):
    m = len(a)
    return [[gsum(*[gprod(a[i][k], b[k][j]) for k in range(m)]) for j in range(m)] for i in range(m)]


@st.composite
def dense_pencils(draw):
    """(matrices, h, r, e, up_to_scalar): U^* diag(forms) U (symmetric,
    hermitian) or U diag(forms) V (complex, kind none) with det U = det V
    = 1, so det = prod(forms) = h up to the drawn scale of h; m = 3..5 and
    n = 2..4, rational entries with denominators.  Forms on every variable
    give a dense h, forms on one or two variables a sparse one.  Variants:
    valid, tampered in one entry (pair), negative at e, singular."""
    kind = draw(st.sampled_from(["symmetric", "hermitian", "none"]))
    gaussian = kind != "symmetric"
    n, m = draw(st.integers(2, 4)), draw(st.integers(3, 5))
    ring = Ring.standard(tuple(f"x{k}" for k in range(n)), gaussian)
    r = draw(st.sampled_from([1, 2])) if m == 4 else 1
    e = (draw(st.integers(1, 2)),) + tuple(draw(st.integers(-1, 1)) for _ in range(n - 1))
    dense = draw(st.booleans())
    forms = []
    for _ in range(m // r):
        support = range(n) if dense else draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
        coeffs = [_rational(draw, False).re if k in support else Fraction(0) for k in range(n)]
        at_e = sum(c * x for c, x in zip(coeffs, e))
        if not at_e:
            coeffs[0] += 1
            at_e = sum(c * x for c, x in zip(coeffs, e))
        forms.append([c if at_e > 0 else -c for c in coeffs])
    variant = draw(st.sampled_from(["valid", "tampered", "negative", "singular"]))
    if variant == "negative":
        forms[0] = [-c for c in forms[0]]
    forms = forms * r
    h = MultiPoly.constant(ring, draw(st.sampled_from([1, 1, 2, -1, Fraction(1, 3)])))
    for form in forms[: m // r]:
        h = h * MultiPoly.from_terms(ring, [(tuple(int(j == k) for j in range(n)), c) for k, c in enumerate(form)])
    zero, one = GaussianRational(0), GaussianRational(1)

    def unimodular():
        u = [[one if i == j else zero for j in range(m)] for i in range(m)]
        for _ in range(draw(st.integers(1, 2 * m))):
            i, j = draw(st.permutations(range(m)))[:2]
            c = _rational(draw, gaussian)
            u[i] = [gsum(a, gprod(c, b)) for a, b in zip(u[i], u[j])]
        if variant == "singular":
            u[1] = list(u[0])
        return u

    left = unimodular()
    if kind == "none":
        right = unimodular()
    else:
        right, left = left, [[gconj(left[j][i]) for j in range(m)] for i in range(m)]
    slices = []
    for k in range(n):
        diag = [[GaussianRational(forms[i][k]) if i == j else zero for j in range(m)] for i in range(m)]
        slices.append(_const_product(_const_product(left, diag), right))
    if variant == "tampered":
        k, i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        delta = _rational(draw, gaussian and (i != j or kind == "none"))
        assume(delta)
        slices[k][i][j] = gsum(slices[k][i][j], delta)
        if i != j and kind != "none":
            slices[k][j][i] = gsum(slices[k][j][i], gconj(delta) if kind == "hermitian" else delta)
    return [ConstMatrix(rows, kind) for rows in slices], h, r, e, draw(st.booleans())


@st.composite
def companion_inputs(draw):
    """(A, h, r): Clifford Q from 1-3 forms or F3's A, with h = y^2 - P,
    then maybe perturbed in one entry pair or in h (negated, or shifted),
    or, for Q, h = x1^2*y^2 - x1^2*P - c*x1*x2*(x2 - x1)*(x2 - 2*x1) of
    d = 4, which agrees with x1^2*(y^2 - P) on the degree-2 lattice."""
    source = draw(st.sampled_from(["clifford", "F3"]))
    if source == "F3":
        a = load_fixture_matrix("F3_matrix.json")
        ring_h = load_fixture_poly("F3_h.txt").ring
        forms_ring = a.ring
    else:
        forms_ring = Ring.standard(("x1", "x2"))
        k = draw(st.integers(1, 3))
        a = build_Q([draw(linear_forms(forms_ring, nonzero=True)) for _ in range(k)])
        ring_h = Ring(("y", "x1", "x2"), (1, 1, 1))
    weight = ring_h.weights[ring_h.index("y")]
    p = a.matmul(a).rows[0][0]
    h = MultiPoly.variable(ring_h, "y") ** 2 - p.lift(ring_h)
    # A real form of the entries' degree, as a perturbation.
    g = MultiPoly.constant(forms_ring, 1)
    for _ in range(weight):
        g = g * draw(linear_forms(forms_ring, nonzero=True))
    variants = ["valid", "entry", "negated-h", "shifted-h"] + (["quartic-h"] if source == "clifford" else [])
    variant = draw(st.sampled_from(variants))
    if variant == "quartic-h":
        x1, x2 = MultiPoly.variable(ring_h, "x1"), MultiPoly.variable(ring_h, "x2")
        c = draw(st.integers(-3, 3).filter(bool))
        return a, x1 * x1 * h - scale(x1 * x2 * (x2 - x1) * (x2 - x1 - x1), c), a.size // 4
    if variant == "entry":
        i, j = draw(st.integers(0, a.size - 1)), draw(st.integers(0, a.size - 1))
        a = _with_pair(a, i, j, g)
    elif variant == "negated-h":  # (-h)^r = h^r exactly when r is even
        h = -h
    elif variant == "shifted-h":
        h = h + (g * g).lift(ring_h)
    return a, h, a.size // 2


WITNESS = re.compile(r"at x = (?P<x>1(,\d+)*): det = (?P<det>\S+), (?P<rhs>c\*h\^r|h\^r) = (?P<value>\S+)(, not a real multiple)?")
COMPANION_WITNESS = re.compile(r"at x = (?P<x>\d+(,\d+)*): det = (?P<det>\S+), c\*h\^r = (?P<value>\S+)")
BRANCH_WITNESS = re.compile(
    r"at x = (?P<x>1(,\d+)*): ell\^2 - P = (?P<branch>[^,]+), (?P<rhs>s\*h|h) = (?P<value>[^,]+)(, not a real multiple)?"
)


class TestRouteAgreement:
    """Every route decides exactly as the Bareiss determinant."""

    @given(quadratic_pencils())
    def test_pencil_matches_bareiss_reference(self, case):
        # The whole report, scalar and witnesses included, on both routes:
        # the reference squares ell*I - M as a polynomial matrix.
        matrices, h, r, e, up_to_scalar, involutive = case
        report = verify_pencil(matrices, h, r, e, up_to_scalar=up_to_scalar).to_json_dict()
        method = report.pop("notes")["method"]
        assert report == pencil_reference(matrices, h, r, e, up_to_scalar)
        if involutive:
            assert method == "minimal-polynomial-shortcut"

    @given(quadratic_pencils())
    def test_involution_witnesses_recheck(self, case):
        # A branch witness at x holds ell(x)^2 - P(x), whose r-th power is
        # det(A(x)) by one constant determinant, and a differing value.
        matrices, h, r, e, up_to_scalar, _ = case
        report = verify_pencil(matrices, h, r, e, up_to_scalar=up_to_scalar)
        if report.notes["method"] != "minimal-polynomial-shortcut":
            return
        for failure in report.failures:
            if failure.name != "determinant" or failure.witness == "determinant is identically zero":
                continue
            if failure.witness.startswith("det = "):  # the branch is s*h, but s^r != 1
                continue
            found = BRANCH_WITNESS.fullmatch(failure.witness)
            assert found, failure.witness
            x = tuple(int(c) for c in found["x"].split(","))
            branch, value = (eval_reference(parse(found[k], G3), (0, 0, 0)) for k in ("branch", "value"))
            assert const_det(pencil_value(matrices, x)) == gprod(*[branch] * r)
            assert branch != value
            if found["rhs"] == "h":
                assert value == eval_reference(h, x) and gdiv(branch, value).im and report.scalar == 0

    @given(dense_pencils())
    def test_dense_pencil_report_matches_bareiss_reference(self, case):
        # Outside the involution route the whole report, witnesses included,
        # is the one the Bareiss determinant gives.
        matrices, h, r, e, up_to_scalar = case
        report = verify_pencil(matrices, h, r, e, up_to_scalar=up_to_scalar).to_json_dict()
        method = report.pop("notes")["method"]
        if method == "minimal-polynomial-shortcut":
            return
        assert method == "lattice"
        assert report == pencil_reference(matrices, h, r, e, up_to_scalar)

    @given(dense_pencils())
    def test_ok_iff_bareiss_identity(self, case):
        # ok exactly when poly_det = c*h^r with c > 0, where c = 1 or, up to
        # scalar, the ratio of leading coefficients, and the checks of kind
        # and definiteness at e pass.  Quadratic h (m = 4, r = 2) is here
        # with pencils that are not involutions.
        matrices, h, r, e, up_to_scalar = case
        report = verify_pencil(matrices, h, r, e, up_to_scalar=up_to_scalar)
        det, target = poly_det(pencil_to_polymatrix(matrices, h.ring)), h ** r
        c = leading_scalar(det, target) if up_to_scalar else Fraction(1)
        identity = c is not None and det == scale(target, c)
        definite = matrices[0].kind != "none" and all(mat.kind_violation() is None for mat in matrices)
        definite = definite and sylvester_reference(pencil_value(matrices, e)) is None
        assert report.ok == (identity and c > 0 and definite)
        assert (report.scalar == c) if identity else ("determinant" in {f.name for f in report.failures})

    @given(dense_pencils())
    def test_determinant_witnesses_recheck(self, case):
        # Each point witness holds two exact values that differ: det(A(x))
        # by const_det, and c*h(x)^r term by term (eval_reference).
        matrices, h, r, e, up_to_scalar = case
        report = verify_pencil(matrices, h, r, e, up_to_scalar=up_to_scalar)
        for failure in report.failures:
            if failure.name != "determinant" or failure.witness == "determinant is identically zero":
                continue
            found = WITNESS.fullmatch(failure.witness)
            assert found, failure.witness
            x = tuple(int(c) for c in found["x"].split(","))
            det = const_det(pencil_value(matrices, x))
            h_r = gprod(*[eval_reference(h, x)] * r)
            assert found["det"] == str(det)
            if found["rhs"] == "c*h^r":
                assert found["value"] == str(gprod(h_r, report.scalar)) != found["det"]
            else:  # no real c: det / h^r is not real at x
                assert up_to_scalar and report.scalar == 0
                assert found["value"] == str(h_r) and (det / h_r).im

    @pytest.mark.parametrize(
        "forms",
        [
            # (x0 + x1)(x0 + x2)(x0 + x1 + x2): 8 of the 10 cubic monomials.
            ([1, 1, 0], [1, 0, 1], [1, 1, 1]),
            # x0*x1*(x0 + x2): 2 of 10.
            ([1, 0, 0], [0, 1, 0], [1, 0, 1]),
        ],
    )
    def test_cubic_pencils_take_the_lattice_route(self, forms):
        h = MultiPoly.constant(R3, 1)
        for form in forms:
            h = h * MultiPoly.from_terms(R3, [(tuple(int(j == k) for j in range(3)), c) for k, c in enumerate(form)])
        diagonal = [const_matrix([[f[k] if i == j else 0 for j in range(3)] for i, f in enumerate(forms)],
                                 "symmetric") for k in range(3)]
        tampered = diagonal[:1] + [const_matrix([[1, 1, 0], [1, 0, 0], [0, 0, 0]], "symmetric")] + diagonal[2:]
        for pencil in (diagonal, tampered):
            report = verify_pencil(pencil, h, 1, (1, 1, 1)).to_json_dict()
            assert report.pop("notes") == {"method": "lattice"}
            assert report == pencil_reference(pencil, h, 1, (1, 1, 1), False)
        assert report["failures"][0]["name"] == "determinant"

    @given(companion_inputs())
    def test_companion_ok_iff_bareiss_identity(self, case):
        a, h, r = case
        report = verify_companion(a, h, r)
        assert report.ok == (companion_det(a, h.ring) == h ** r)
        assert report.notes == companion_notes_reference(a, h)

    @given(companion_inputs())
    def test_companion_witnesses_recheck(self, case):
        # Each point witness, y included in h's ring order, holds two exact
        # values that differ: det(y*I - A(x)) by const_det, and h^r there.
        a, h, r = case
        y_idx = h.ring.index("y")
        for failure in verify_companion(a, h, r).failures:
            if failure.name != "determinant":
                continue
            found = COMPANION_WITNESS.fullmatch(failure.witness)
            assert found, failure.witness
            point = tuple(int(c) for c in found["x"].split(","))
            y, value = point[y_idx], eval_at_reference(a, point[:y_idx] + point[y_idx + 1 :])
            shifted = [[gsum(GaussianRational(y if i == j else 0), gneg(c)) for j, c in enumerate(row)]
                       for i, row in enumerate(value.entries)]
            h_r = gprod(*[eval_reference(h, point)] * r)
            assert found["det"] == str(const_det(ConstMatrix(shifted)))
            assert found["value"] == str(h_r) != found["det"]

    def test_involution_needs_trace_zero(self):
        # A = x1*I squares to x1^2*I, but det(y*I - A) = (y - x1)^2.
        ring = Ring.standard(("x1",))
        a = PolyMatrix.from_strings(ring, [["x1", "0"], ["0", "x1"]], "symmetric")
        h = parse("y^2 - x1^2", Ring(("y", "x1"), (1, 1)))
        report = verify_companion(a, h, 1)
        assert not report.ok and report.notes["method"] == "lattice"
        assert companion_det(a, h.ring) != h
        # At y = 0, x1 = 1: det(y*I - A) = (0 - 1)^2 = 1, while h = 0 - 1.
        assert [(f.name, f.witness) for f in report.failures] == [
            ("determinant", "at x = 0,1: det = 1, c*h^r = -1")]

    def test_flipped_sign_two_by_two(self):
        # det = h = -1 * (-h): c = -1 with r = 1 is refused, as by Bareiss.
        h = parse("x1^2 + x2^2 - x0^2", R3)
        report = verify_pencil(QUADRIC_PENCIL, h, 1, (1, 0, 0), up_to_scalar=True)
        assert report.notes["method"] == "minimal-polynomial-shortcut"
        assert [f.name for f in report.failures] == ["scalar-positivity"]
        assert report.scalar == -1

    def test_flipped_sign_even_power(self):
        # diag(M, M) against -h with r = 2: det = h^2 = (-h)^2, so c = 1.
        h = parse("x1^2 + x2^2 - x0^2", R3)
        block = [["x0 + x1", "x2", "0", "0"], ["x2", "x0 - x1", "0", "0"],
                 ["0", "0", "x0 + x1", "x2"], ["0", "0", "x2", "x0 - x1"]]
        pencil = polymatrix_to_pencil(PolyMatrix.from_strings(R3, block, "symmetric"))
        for up_to_scalar in (False, True):
            report = verify_pencil(pencil, h, 2, (1, 0, 0), up_to_scalar=up_to_scalar)
            assert report.ok and report.scalar == 1
            assert report.notes["method"] == "minimal-polynomial-shortcut"

    def test_non_real_branch_ratio(self):
        # M = [[x0, x1], [0, i*x0]]: det M = i*x0^2, not a real multiple of x0^2.
        ring = Ring.standard(("x0", "x1"), gaussian=True)
        one, zero = GaussianRational(1), GaussianRational(0)
        pencil = [ConstMatrix([[one, zero], [zero, I_UNIT]]), ConstMatrix([[zero, one], [zero, zero]])]
        h = parse("x0^2", ring)
        report = verify_pencil(pencil, h, 1, (1, 0), up_to_scalar=True).to_json_dict()
        assert report.pop("notes") == {"method": "minimal-polynomial-shortcut"}
        assert report == pencil_reference(pencil, h, 1, (1, 0), True)
        assert report["failures"][-1] == {
            "name": "determinant", "witness": "at x = 1,0: ell^2 - P = i, h = 1, not a real multiple"}


class TestComparerStopsAtItsWitness:
    """The lattice comparer reads points only until its verdict is fixed,
    and gives the c and witness of a full walk over every point
    (tests/oracles.py), on the pencil and the companion route."""

    @given(dense_pencils())
    def test_dense_pencils_match_a_full_walk(self, case):
        matrices, h, r, _, up_to_scalar = case
        expected = match_values_reference(pencil_values(matrices, h), h, r, up_to_scalar)
        assert _lattice_match(_integer_slices(matrices), h, r, up_to_scalar) == expected

    @given(quadratic_pencils())
    def test_quadratic_pencils_match_a_full_walk(self, case):
        matrices, h, r, _, up_to_scalar, _ = case
        expected = match_values_reference(pencil_values(matrices, h), h, r, up_to_scalar)
        assert _lattice_match(_integer_slices(matrices), h, r, up_to_scalar) == expected

    @settings(max_examples=30)  # the full walk evaluates a degree-16 det at up to 289 points
    @given(companion_inputs())
    def test_companions_match_a_full_walk(self, case):
        a, h, r = case
        assert _companion_match(a, h, r) == match_values_reference(companion_values(a, h), h, r, False)[1]

    # The lattice of degree 2 in x0..x2: (1,0,0), (1,0,1), (1,0,2), (1,1,0),
    # (1,1,1), (1,2,0).  det = x1*(x0 + x2) vanishes at the first three.
    @pytest.mark.parametrize(
        "rows, h, up_to_scalar, expected",
        [
            # Zero determinants, equal to h, before the first differing point.
            ([["x1", "0"], ["0", "x0 + x2"]], "x1*(x0 + 2*x2)", False, (1, "at x = 1,1,1: det = 2, c*h^r = 3")),
            # The first differing point has a zero determinant: the walk goes
            # on to a nonzero one before it can name it.
            ([["x1", "0"], ["0", "x0 + x2"]], "x0^2", False, (1, "at x = 1,0,0: det = 0, c*h^r = 1")),
            ([["x1", "x1"], ["x1", "x1"]], "x0^2", False, (0, "determinant is identically zero")),
            ([["x1", "x1"], ["x1", "x1"]], "x0^2", True, (0, "determinant is identically zero")),
            # h = 0 at the leading points: c = 2 is read at (1,1,0).
            ([["2*x1", "0"], ["0", "x0 + x2"]], "x1*(x0 + x2)", True, (2, None)),
            # ... and the points before it are compared once c is known.
            ([["x1", "x2"], ["x2", "x0 + x2"]], "x1*(x0 + x2)", True, (1, "at x = 1,0,1: det = -1, c*h^r = 0")),
            ([["x1", "0"], ["0", "i*(x0 + x2)"]], "x1*(x0 + x2)", True,
             (0, "at x = 1,1,0: det = i, h^r = 1, not a real multiple")),
            # A ratio that is not real outranks an earlier differing point.
            ([["x1", "x2"], ["x2", "i*(x0 + x2)"]], "x1*(x0 + x2)", True,
             (0, "at x = 1,1,0: det = i, h^r = 1, not a real multiple")),
        ],
        ids=["zeros-then-witness", "witness-at-a-zero", "zero", "zero-up-to-scalar", "h-zero-first",
             "witness-before-c", "not-real", "not-real-after-a-witness"],
    )
    def test_pencil_cases(self, rows, h, up_to_scalar, expected):
        pencil = polymatrix_to_pencil(PolyMatrix.from_strings(G3, rows))
        h = parse(h, G3)
        assert _lattice_match(_integer_slices(pencil), h, 1, up_to_scalar) == expected
        assert match_values_reference(pencil_values(pencil, h), h, 1, up_to_scalar) == expected

    def test_companion_case_with_zero_determinants_first(self):
        # det(y*I - diag(x1, x1)) = (y - x1)^2 against y^2 - x1^2: equal at
        # y = 0 and where x1 = 0; the first difference is at x1 = 1, y = 1.
        ring = Ring.standard(("x1",))
        a = PolyMatrix.from_strings(ring, [["x1", "0"], ["0", "x1"]], "symmetric")
        h = parse("y^2 - x1^2", Ring(("y", "x1"), (1, 1)))
        assert _companion_match(a, h, 1) == "at x = 0,1: det = 1, c*h^r = -1"
        assert match_values_reference(companion_values(a, h), h, 1, False)[1] == "at x = 0,1: det = 1, c*h^r = -1"

    def test_reads_points_only_until_the_verdict_is_fixed(self):
        h = parse("x0^2", R3)  # 1 at every point (1, b)

        def points(dets):
            yield from zip(lattice_points(3, 2), dets)
            raise AssertionError("read past the verdict")

        assert _match_values(points([1, 2]), 1, h, 1, False) == (1, "at x = 1,0,1: det = 2, c*h^r = 1")
        assert _match_values(points([0, 0, 5]), 1, h, 1, False) == (1, "at x = 1,0,0: det = 0, c*h^r = 1")
        assert _match_values(points([3, 4]), 1, h, 1, True) == (3, "at x = 1,0,1: det = 4, c*h^r = 3")


def _form(draw, ring, degree):
    """A random form of the given degree with coefficients in -3..3."""
    form = MultiPoly.zero(ring)
    for expo in itertools.product(range(degree + 1), repeat=ring.arity):
        if sum(expo) == degree:
            form = form + MultiPoly.from_terms(ring, [(expo, draw(st.integers(-3, 3)))])
    return form


def _perturbed(draw, matrix, degree, pair):
    """matrix with one coefficient of one entry moved by a real or imaginary
    delta; ``pair`` moves the mirror entry too, keeping the kind."""
    ring = matrix.ring
    expo = draw(st.sampled_from([e for e in itertools.product(range(degree + 1), repeat=ring.arity) if sum(e) == degree]))
    i, j = draw(st.integers(0, matrix.size - 1)), draw(st.integers(0, matrix.size - 1))
    imaginary = draw(st.booleans()) and (not pair or matrix.kind == "hermitian" and i != j)
    k = draw(st.sampled_from([1, -2, 3]))
    delta = MultiPoly.from_terms(ring, [(expo, GaussianRational(0, k) if imaginary else k)])
    if pair:
        return _with_pair(matrix, i, j, delta)
    rows = [list(row) for row in matrix.rows]
    rows[i][j] = rows[i][j] + delta
    return PolyMatrix(ring, rows, matrix.kind)


def _last_point_pair(ring, k, degree):
    """(a, c), forms of the given degree with a^2 - c^2 = f*g, where
    f*g = prod_{t < 2*degree} (x_k - t*x0) vanishes at every lattice point
    (1, b) with |b| < 2*degree but not at b = 2*degree*e_k."""
    x0, xk = MultiPoly.variable(ring, "x0"), MultiPoly.variable(ring, f"x{k}")
    roots = [xk - scale(x0, t) for t in range(2 * degree)]
    f, g = functools.reduce(operator.mul, roots[:degree]), functools.reduce(operator.mul, roots[degree:])
    return scale(f + g, Fraction(1, 2)), scale(g - f, Fraction(1, 2))


def _diagonal(ring, entries, kind="symmetric"):
    zero = MultiPoly.zero(ring)
    return PolyMatrix(ring, [[p if i == j else zero for j in range(len(entries))] for i, p in enumerate(entries)], kind)


@st.composite
def involution_matrices(draw):
    """(A, degree): a symmetric Clifford Q from build_Q on 1-3 random forms,
    a hermitian [[a, b + i*c], [b - i*c, -a]], diag(a, -a, c, -c) whose
    square is scalar at every lattice point of degree 2*degree - 1 but not
    at the last one (:func:`_last_point_pair`), or diag(a, a), whose square
    is scalar but whose trace is not 0, of forms of degree 1 or 2 in 2-4
    variables; maybe with one real or imaginary coefficient of one entry
    perturbed."""
    n, degree = draw(st.integers(2, 4)), draw(st.sampled_from([1, 2]))
    ring = Ring.standard(tuple(f"x{k}" for k in range(n)), gaussian=True)
    shape = draw(st.sampled_from(["clifford", "hermitian", "last-point", "traced"]))
    if shape == "traced":
        a = _form(draw, ring, degree)
        a = _diagonal(ring, [a, a])
    elif shape == "last-point":
        a, c = _last_point_pair(ring, draw(st.integers(1, n - 1)), degree)
        a = _diagonal(ring, [a, -a, c, -c])
    elif shape == "clifford":
        forms = [_form(draw, ring, degree) for _ in range(draw(st.integers(1, 3)))]
        assume(all(forms))
        a = build_Q(forms)
    else:
        x, y, z = (_form(draw, ring, degree) for _ in range(3))
        off = y + scale(z, I_UNIT)
        a = PolyMatrix(ring, [[x, off], [off.conjugate(), -x]], "hermitian")
    if draw(st.booleans()):
        a = _perturbed(draw, a, degree, pair=False)
    return a, degree


@st.composite
def sos_inputs(draw):
    """(A, p) for detrep_to_sos: A = [[a, b], [b, -a]] symmetric or
    [[a, b + i*c], [b - i*c, -a]] hermitian, with entries of degree <= 2
    that need not be homogeneous, and p = a^2 + b^2 (+ c^2); maybe with one
    coefficient of p or of one entry pair perturbed."""
    n = draw(st.integers(1, 3))
    ring = Ring.standard(tuple(f"x{k}" for k in range(n)), gaussian=True)
    a, b, c = (_form(draw, ring, 0) + _form(draw, ring, 1) + _form(draw, ring, draw(st.integers(0, 2)))
               for _ in range(3))
    if draw(st.booleans()):
        matrix = PolyMatrix(ring, [[a, b], [b, -a]], "symmetric")
        p = a * a + b * b
    else:
        off = b + scale(c, I_UNIT)
        matrix = PolyMatrix(ring, [[a, off], [off.conjugate(), -a]], "hermitian")
        p = a * a + b * b + c * c
    variant = draw(st.sampled_from(["valid", "entry", "p"]))
    if variant == "entry":
        matrix = _perturbed(draw, matrix, draw(st.integers(0, 2)), pair=True)
    elif variant == "p":
        p = p + _form(draw, ring, draw(st.integers(0, 4)))
    return matrix, p


SOS_WITNESS = re.compile(r"A\^2 != p\*I at x = (?P<x>[\d,]*): entry \((?P<i>\d+),(?P<j>\d+)\) of A\^2 is (?P<got>\S+), of p\*I (?P<want>\S+)")


def _against_its_square(case):
    """(A, h, r) for verify_companion from involution_matrices: h = y^2 - P
    for P the (0, 0) entry of A^2, y of the entries' degree, r = m/2."""
    a, degree = case
    ring_h = Ring(("y",) + a.ring.variables, (degree,) + a.ring.weights, a.ring.gaussian)
    p = a.matmul(a).rows[0][0]
    return a, MultiPoly.variable(ring_h, "y") ** 2 - p.lift(ring_h), a.size // 2


class TestLatticeInvolution:
    """_square_on_lattice against the polynomial square (matmul and
    scalar_mismatch) of tests/oracles.py."""

    @given(st.one_of(involution_matrices().map(_against_its_square), companion_inputs()))
    def test_same_verdict_and_p_as_polynomial_square(self, case):
        # The involution route, which reads P off h and squares A on lattice
        # values, is taken exactly when the polynomial square gives a P with
        # y^2 - P == h.
        a, h, r = case
        p = involution_reference(a)
        shortcut = p is not None and MultiPoly.variable(h.ring, "y") ** 2 - p.lift(h.ring) == h
        assert (verify_companion(a, h, r).notes["method"] == "minimal-polynomial-shortcut") == shortcut

    def test_a_y_squared_term_of_higher_degree_takes_the_lattice_route(self):
        # h = x1*y^2 - P has one y-term, y^2 with coefficient 1, but d = 3:
        # P = x2*(x2 - x1)*(x2 - 2*x1) vanishes on the degree-2 lattice, where
        # the zero A squares to P*I, yet det(y*I - 0) = y^3 != h.
        ring_h = Ring(("y", "x1", "x2"), (1, 1, 1))
        h = parse("x1*y^2 - x2*(x2 - x1)*(x2 - 2*x1)", ring_h)
        zero = MultiPoly.zero(ring_h.without("y"))
        report = verify_companion(PolyMatrix(zero.ring, [[zero] * 3 for _ in range(3)], "symmetric"), h, 1)
        assert report.to_json_dict() == {
            "ok": False, "scalar": "1", "power": 1, "notes": {"method": "lattice"},
            "failures": [{"name": "determinant", "witness": "at x = 2,1,0: det = 8, c*h^r = 4"}],
        }

    def test_the_last_lattice_point_decides_a_pencil(self):
        # Q = diag(a, -a, c, -c) squares to a scalar at (1, 0) and (1, 1)
        # only, so the pencil x0*I - Q is no involution: det is not h^2.
        ring = Ring.standard(("x0", "x1"))
        a, c = _last_point_pair(ring, 1, 1)
        x0 = MultiPoly.variable(ring, "x0")
        pencil = polymatrix_to_pencil(_diagonal(ring, [x0 - a, x0 + a, x0 - c, x0 + c]))
        h = x0 * x0 - a * a
        report = verify_pencil(pencil, h, 2, (1, 0)).to_json_dict()
        assert report.pop("notes") == {"method": "lattice"}
        assert report == pencil_reference(pencil, h, 2, (1, 0), False) and not report["ok"]

    def test_the_last_lattice_point_decides_detrep_to_sos(self):
        # A = diag(a, -a, c, -c) with a = x - 1/2, c = -1/2 and p = a^2:
        # A^2 = p*I at x = 0 and 1, where a^2 - c^2 = x*(x - 1) vanishes.
        ring = Ring.standard(("x",))
        a, c = parse("x - 1/2", ring), parse("-1/2", ring)
        with pytest.raises(ValueError, match=r"^A\^2 != p\*I at x = 2: entry \(2,2\) of A\^2 is 1/4, of p\*I 9/4$"):
            detrep_to_sos(_diagonal(ring, [a, -a, c, -c]), a * a)

    @given(sos_inputs())
    def test_detrep_to_sos_decides_as_polynomial_square(self, case):
        matrix, p = case
        mismatch = scalar_mismatch(matrix.matmul(matrix), p)
        try:
            sos = detrep_to_sos(matrix, p)
        except ValueError as err:
            found = SOS_WITNESS.fullmatch(str(err))
            assert mismatch is not None and found, str(err)
        else:
            assert mismatch is None and sos.target == p
            return
        # The witness re-checks on constant matrices: A(x)^2 at (i, j) and p(x)*I.
        x = tuple(int(v) for v in found["x"].split(","))
        value = eval_at_reference(matrix, x)
        i, j = int(found["i"]), int(found["j"])
        got = gsum(*[gprod(value.entries[i][k], value.entries[k][j]) for k in range(matrix.size)])
        want = eval_reference(p, x) if i == j else GaussianRational(0)
        assert (str(got), str(want)) == (found["got"], found["want"]) and got != want


def _table_q(table, forms):
    """Q from the generator table ``table(k)`` for k forms, which need not
    be homogeneous (build_Q refuses those)."""
    gens = table(len(forms))
    zero = MultiPoly.zero(forms[0].ring)
    return PolyMatrix(zero.ring, _q_rows(gens.dimension, zero, zip(forms, gens.perms, gens.signs)), "symmetric")


@st.composite
def square_cases(draw):
    """(A, points, p) for _square_on_lattice: Clifford Q from the paper's
    or the compact table on 1-3 forms with p their sum of squares, the
    hermitian [[a, b + i*c], [b - i*c, -a]] or [[0, S], [S*, 0]] for
    S = [[u, -conj(v)], [v, conj(u)]], a matrix with a row and column of
    zeros, or the zero matrix with p = 0; the entries of degree 1 or 2,
    made non-homogeneous (a constant added) for the lattice x in N^n of
    _square_mismatch.  Then maybe one cell perturbed or negated, or p
    perturbed."""
    n, degree = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    ring = Ring.standard(tuple(f"x{k}" for k in range(n)), gaussian=True)
    homogeneous = draw(st.booleans())
    zero = MultiPoly.zero(ring)

    def form():
        return _form(draw, ring, degree) + (zero if homogeneous else _form(draw, ring, 0))

    shape = draw(st.sampled_from(["paper", "compact", "hermitian", "hermitian-4", "zero-row", "zero"]))
    if shape in ("paper", "compact", "zero-row"):
        forms = [form() for _ in range(draw(st.integers(1, 3)))]
        assume(all(forms))
        a = _table_q(clifford_generators if shape == "paper" else hurwitz_radon, forms)
        p = sum((f * f for f in forms), zero)
        if shape == "zero-row":
            k = draw(st.integers(0, a.size - 1))
            a = PolyMatrix(ring, [[zero if k in (i, j) else q for j, q in enumerate(row)] for i, row in enumerate(a.rows)],
                           a.kind)
    elif shape == "hermitian":
        x, y, z = form(), form(), form()
        off = y + scale(z, I_UNIT)
        a = PolyMatrix(ring, [[x, off], [off.conjugate(), -x]], "hermitian")
        p = x * x + y * y + z * z
    elif shape == "hermitian-4":
        u, v = (form() + scale(form(), I_UNIT) for _ in range(2))
        s = [[u, -v.conjugate()], [v, u.conjugate()]]
        rows = [[zero, zero] + s[0], [zero, zero] + s[1]] + [[s[j][i].conjugate() for j in range(2)] + [zero, zero]
                                                              for i in range(2)]
        a = PolyMatrix(ring, rows, "hermitian")
        p = u * u.conjugate() + v * v.conjugate()
    else:
        a, p = _diagonal(ring, [zero] * draw(st.integers(1, 3))), zero
    variant = draw(st.sampled_from(["valid", "cell", "sign", "p"]))
    if variant == "cell":
        a = _perturbed(draw, a, degree, pair=False)
    elif variant == "sign":
        i, j = draw(st.integers(0, a.size - 1)), draw(st.integers(0, a.size - 1))
        rows = [list(row) for row in a.rows]
        rows[i][j] = -rows[i][j]
        a = PolyMatrix(ring, rows, a.kind)
    elif variant == "p":
        p = p + _form(draw, ring, draw(st.integers(0, 2 * degree)))
    points = _lattice(n, 2 * degree, homogeneous)
    return a, points, p


class TestStructuralSquare:
    """The involution routes square A once from its entry structure; the
    references of tests/oracles.py square A(x) in ints at every point."""

    @given(square_cases())
    @settings(max_examples=150)
    def test_same_witness_as_squaring_at_each_point(self, case):
        a, points, p = case
        want = square_on_lattice_reference(a, points, p)  # got and want as values, which the witness writes
        assert _square_on_lattice(a, points, p) == (want and want[:3] + tuple(map(gaussian_str_reference, want[3:])))

    @given(st.one_of(quadratic_pencils(), dense_pencils().map(lambda case: case + (False,))))
    def test_match_branch_as_squaring_at_each_point(self, case):
        matrices, h, r, e, up_to_scalar, _ = case
        pencil = _integer_slices(matrices)
        matched = _match_branch(pencil, h, r, up_to_scalar)
        assert matched == match_branch_reference(pencil, h, r, up_to_scalar)
        if matched is None and h.weighted_degree() == 2:  # not an involution: the lattice route decides
            assert verify_pencil(matrices, h, r, e, up_to_scalar).notes["method"] == "lattice"

    @pytest.mark.parametrize("table", [clifford_generators, hurwitz_radon])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_a_clifford_q_leaves_only_its_first_diagonal_cell(self, table, k):
        # Off-diagonal products cancel and every diagonal cell is
        # sum_t c_t*B_t^2, so each point evaluates one combination.
        forms = [parse(f"{t + 1}*x0 - {2 * t + 1}*x1 + x2", R3) for t in range(k)]
        a = _table_q(table, forms)
        signed = {(t, s): f if s > 0 else -f for t, f in enumerate(forms) for s in (1, -1)}
        rows = [[(j,) + next(b for b, f in signed.items() if f == q) for j, q in enumerate(row) if q] for row in a.rows]
        combos, checks = _squared(rows)
        assert checks == [(0, 0, 0)] and combos == [tuple((t, t, 1) for t in range(k))]
