"""Fixture corpus API and wire-format helpers."""

import json

import pytest

from hypercert import detrep, fixtures
from hypercert.cli import EXIT_REFUTED, main
from hypercert.detrep import PolyMatrix
from hypercert.fixtures import FIXTURE_IDS, run_fixture, run_fixtures
from hypercert.polyring import ParseError, Ring, parse
from hypercert.wire import (
    dump_poly_text,
    parse_point,
    parse_poly_text,
    parse_ring_header,
    parse_squares_text,
    pencil_from_json,
    pencil_to_json_dict,
)
from oracles import const_matrix


class TestCorpus:
    def test_all_fixtures_pass(self):
        report = run_fixtures()
        assert report.ok
        assert [r.fixture_id for r in report.results] == list(FIXTURE_IDS)

    def test_single(self):
        result = run_fixture("F3")
        assert result.ok
        names = [c.name for c in result.checks]
        assert "three-square-identity" in names

    def test_f3_reports_a_failed_involution(self, monkeypatch):
        load = fixtures.load_fixture_poly

        def doubled_p(name):
            p = load(name)
            return p + p if name == "F3_p.txt" else p

        monkeypatch.setattr(fixtures, "load_fixture_poly", doubled_p)
        result = run_fixture("F3")
        checks = {c.name: c for c in result.checks}
        assert not result.ok
        assert checks["hermitian"].ok
        assert not checks["involution"].ok
        assert "entry (0,0)" in checks["involution"].detail
        assert checks["involution"].detail.startswith("A^2 != p*I at x = ")  # decided on lattice values
        for name in ("three-square-identity", "sos-sums-to-p"):
            assert not checks[name].ok
            assert "A^2 != p*I" in checks[name].detail

    def test_f3_decides_the_involution_once(self, monkeypatch):
        calls = []
        mismatch = detrep._square_mismatch

        def counting(matrix, p):
            calls.append(p)
            return mismatch(matrix, p)

        monkeypatch.setattr(detrep, "_square_mismatch", counting)
        monkeypatch.setattr(fixtures, "_square_mismatch", counting)
        result = run_fixture("F3")
        assert result.ok and len(calls) == 1  # inside detrep_to_sos

    def test_f3_reports_a_broken_kind(self, monkeypatch):
        # detrep_to_sos refuses on the kind before A^2 = p*I, so the fixture
        # decides the involution itself.
        load = fixtures.load_fixture_matrix

        def unhermitian(name):
            matrix = load(name)
            if not name.startswith("F3"):
                return matrix
            rows = [list(row) for row in matrix.rows]
            rows[0][1] = rows[0][1] + rows[0][1]
            return PolyMatrix(matrix.ring, rows, matrix.kind)

        monkeypatch.setattr(fixtures, "load_fixture_matrix", unhermitian)
        checks = {c.name: c for c in run_fixture("F3").checks}
        assert not checks["hermitian"].ok and checks["hermitian"].detail == "entry (0, 1)"
        assert not checks["involution"].ok and checks["involution"].detail.startswith("A^2 != p*I at x = ")
        for name in ("three-square-identity", "sos-sums-to-p"):
            assert not checks[name].ok
            assert checks[name].detail == "matrix entry (0, 1) breaks the declared hermitian symmetry"

    def test_f4_converts_its_matrix_once(self, monkeypatch):
        # One polymatrix_to_pencil for E and every sampled line, and no
        # polynomial evaluator per line: each value is one int sum.
        conversions, builds = [], []
        to_pencil, evaluator = fixtures.polymatrix_to_pencil, detrep._evaluator
        monkeypatch.setattr(fixtures, "polymatrix_to_pencil", lambda matrix: conversions.append(1) or to_pencil(matrix))
        monkeypatch.setattr(detrep, "_evaluator", lambda polys: builds.append(1) or evaluator(polys))
        assert run_fixture("F4").ok and len(conversions) == 1 and not builds

    def test_f3_reports_a_failed_companion_determinant(self, monkeypatch):
        load = fixtures.load_fixture_poly

        def shifted_h(name):
            h = load(name)
            return h + h if name == "F3_h.txt" else h

        monkeypatch.setattr(fixtures, "load_fixture_poly", shifted_h)
        checks = {c.name: c for c in run_fixture("F3").checks}
        assert checks["involution"].ok
        assert not checks["companion-determinant"].ok
        # At y = 0, x = (1, 0, 0): det(-A) = -1, while 2*h = 2*(0 - 1).
        assert checks["companion-determinant"].detail == "at x = 0,1,0,0: det = -1, c*h^r = -2"

    def test_f4_reports_a_nonpositive_minor_at_e(self, monkeypatch):
        load = fixtures.load_fixture_matrix

        def negated(name):
            matrix = load(name)
            if not name.startswith("F4"):
                return matrix
            return PolyMatrix(matrix.ring, [[-p for p in row] for row in matrix.rows], matrix.kind)

        monkeypatch.setattr(fixtures, "load_fixture_matrix", negated)
        checks = {c.name: c for c in run_fixture("F4").checks}
        assert checks["hermitian"].ok
        assert not checks["value-at-E-is-2I"].ok
        assert not checks["positive-definite-at-E"].ok
        assert checks["positive-definite-at-E"].detail == "leading principal minor of order 1 at E is -2"

    # F1's h doubled, or its entry (0, 1) made x2 + 2*x3, which breaks the
    # symmetry of slices 2 and 3: the report names the first failure of
    # each name (name, witness of the failing checks).
    F1_TAMPERED = {
        "doubled-h": {"determinant-equals-h": "at x = 1,0,0,0: det = 1, c*h^r = 2",
                      "scalar-is-one": "not run: determinant-equals-h failed"},
        "asymmetric": {"symmetric": "matrix 2 entry (0, 1) breaks symmetric symmetry",
                       "determinant-equals-h": "at x = 1,0,0,1: det = -1, c*h^r = 0",
                       "positive-definite-at-e": "not run: symmetric failed",
                       "scalar-is-one": "not run: determinant-equals-h failed"},
    }

    @staticmethod
    def _tamper_f1(monkeypatch, case):
        load_poly, load_matrix = fixtures.load_fixture_poly, fixtures.load_fixture_matrix

        def poly(name):
            h = load_poly(name)
            return h + h if case == "doubled-h" and name == "F1_poly.txt" else h

        def matrix(name):
            a = load_matrix(name)
            if case != "asymmetric" or name != "F1_matrix.json":
                return a
            rows = [list(row) for row in a.rows]
            rows[0][1] = parse("x2 + 2*x3", a.ring)
            return PolyMatrix(a.ring, rows, a.kind)

        monkeypatch.setattr(fixtures, "load_fixture_poly", poly)
        monkeypatch.setattr(fixtures, "load_fixture_matrix", matrix)

    @pytest.mark.parametrize("case", F1_TAMPERED)
    def test_f1_reports_its_failed_checks(self, monkeypatch, capsys, case):
        self._tamper_f1(monkeypatch, case)
        result = run_fixture("F1")
        assert not result.ok
        assert {c.name: c.detail for c in result.checks if not c.ok} == self.F1_TAMPERED[case]
        assert main(["fixtures", "run", "--id", "F1"]) == EXIT_REFUTED
        assert "F1 FAIL" in capsys.readouterr().out

    def test_f4_reports_a_line_whose_determinant_does_not_vanish(self, monkeypatch):
        # A base point off the surface: the sampled lines through it miss it.
        manifest = fixtures._manifest

        def moved_point():
            data = manifest()
            data["F4"]["params"]["point"] = "0,0,1,1,4"
            return data

        monkeypatch.setattr(fixtures, "_manifest", moved_point)
        failed = {c.name: c.detail for c in run_fixture("F4").checks if not c.ok}
        assert failed == {
            "base-point-on-surface": "q1 = 0, q2 = -7",
            "chow-form-vanishes-on-incident-lines":
                "0/20 sampled lines through the base point; line through (8, 7, 9, -1, -4) gives det 69482896",
        }

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_fixture("F9")

    def test_report_json_shape(self):
        report = run_fixtures("F1")
        data = report.to_json_dict()
        assert data["total"] == 1
        assert data["fixtures"][0]["id"] == "F1"
        json.dumps(data)  # serializable


class TestWire:
    def test_ring_header(self):
        ring = parse_ring_header("ring: vars=y,x0,x1 weights=2,1,1 gaussian=true")
        assert ring == Ring(("y", "x0", "x1"), (2, 1, 1), True)

    def test_header_defaults(self):
        ring = parse_ring_header("ring: vars=a,b")
        assert ring.weights == (1, 1)
        assert not ring.gaussian

    def test_bad_headers(self):
        for text in ("vars=a", "ring: weights=1", "ring: vars=a gaussian=maybe"):
            with pytest.raises(ParseError):
                parse_ring_header(text)

    def test_poly_round_trip(self):
        text = "ring: vars=x0,x1 weights=1,1 gaussian=false\nx0^2 - 2*x1^2\n"
        p = parse_poly_text(text)
        assert parse_poly_text(dump_poly_text(p)) == p

    def test_squares_file(self):
        forms = parse_squares_text(
            "ring: vars=x1,x2 weights=1,1 gaussian=false\n2*x1\n2*x2\n"
        )
        assert len(forms) == 2

    def test_point(self):
        assert parse_point("1,0,-3/2") == (1, 0, -1.5) or parse_point("1,0,-3/2")[2] * 2 == -3

    def test_pencil_round_trip(self):
        matrices = [
            const_matrix([[1, 0], [0, 1]], "symmetric"),
            const_matrix([[1, 0], [0, -1]], "symmetric"),
        ]
        data = pencil_to_json_dict(matrices, ("x0", "x1"), gaussian=False)
        back, ring = pencil_from_json(json.dumps(data))
        assert back == matrices
        assert ring == Ring.standard(("x0", "x1"))
