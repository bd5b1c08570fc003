"""Fixture corpus API and wire-format helpers."""

import json

import pytest

from hypercert import fixtures
from hypercert.detrep import PolyMatrix
from hypercert.fixtures import FIXTURE_IDS, run_fixture, run_fixtures
from hypercert.polyring import ParseError, Ring
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
        for name in ("three-square-identity", "sos-sums-to-p"):
            assert not checks[name].ok
            assert "A^2 != p*I" in checks[name].detail

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
