"""Wire formats: text and JSON round-trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercert.cli import EXIT_USAGE, main
from hypercert.polyring import MultiPoly, ParseError, Ring
from hypercert.scalars import MATRIX_KINDS, ConstMatrix, GaussianRational
from oracles import json_strings_reference
from hypercert.wire import (
    _json_strings,
    _parse_cell,
    dump_poly_text,
    parse_point,
    parse_ring_header,
    parse_poly_text,
    parse_squares_text,
    pencil_from_json,
    pencil_to_json_dict,
)

fractions = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 50))
# ASCII identifiers other than the imaginary unit.
identifiers = st.sampled_from(["x0", "x1", "x12", "y", "Z", "_t", "a_b", "I", "ii"])


@st.composite
def rings(draw, max_arity=4):
    names = draw(st.lists(identifiers, min_size=1, max_size=max_arity, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(names), max_size=len(names)))
    return Ring(tuple(names), tuple(weights), draw(st.booleans()))


def coefficients(gaussian):
    if not gaussian:
        return fractions.map(GaussianRational)
    return st.builds(GaussianRational, fractions, fractions)


@st.composite
def polys(draw, ring):
    exponents = st.tuples(*[st.integers(0, 3)] * ring.arity)
    items = draw(st.lists(st.tuples(exponents, coefficients(ring.gaussian)), max_size=6))
    return MultiPoly.from_terms(ring, items)


class TestRoundTrips:
    @given(st.data())
    def test_poly_file(self, data):
        """The ring header (names, weights, the gaussian flag) and the
        polynomial come back from dump_poly_text."""
        p = data.draw(polys(data.draw(rings())))
        q = parse_poly_text(dump_poly_text(p))
        assert q.ring == p.ring
        assert q == p

    @given(st.data())
    def test_squares_file(self, data):
        ring = data.draw(rings())
        forms = data.draw(st.lists(polys(ring), min_size=1, max_size=4))
        header = dump_poly_text(MultiPoly.zero(ring)).splitlines()[0]
        text = "\n".join([header] + [str(g) for g in forms]) + "\n"
        assert parse_squares_text(text) == forms

    @given(st.data())
    def test_pencil_json(self, data):
        names = data.draw(st.lists(identifiers, min_size=1, max_size=3, unique=True))
        gaussian = data.draw(st.booleans())
        kind = data.draw(st.sampled_from(MATRIX_KINDS))
        m = data.draw(st.integers(1, 3))
        count = m * m * len(names)
        entries = data.draw(st.lists(coefficients(gaussian), min_size=count, max_size=count))
        matrices = [
            ConstMatrix([entries[k + i * m : k + (i + 1) * m] for i in range(m)], kind)
            for k in range(0, len(entries), m * m)
        ]
        text = json.dumps(pencil_to_json_dict(matrices, names, gaussian))
        back, ring = pencil_from_json(text)
        assert ring == Ring.standard(names, gaussian)
        assert back == matrices

    @given(st.lists(fractions, min_size=1, max_size=6))
    def test_point(self, point):
        assert parse_point(",".join(str(Fraction(c)) for c in point)) == tuple(point)


class TestLiteralCells:
    """Gaussian integer literal cells are read straight into the pencil's
    integer form, with no Fraction formed; the value is the grammar's."""

    CELLS = [["-12+7*i", "0", "-i", "007"], ["-12-7*i", "5*i", "3-0*i", "i"], ["-i", "-5*i", "2", "0"],
             ["7", "-i", "0", "-0"]]

    def test_an_all_literal_pencil_forms_no_fraction(self, monkeypatch):
        data = {"vars": ["x0", "x1"], "gaussian": True, "kind": "hermitian",
                "matrices": [self.CELLS, [row[::-1] for row in self.CELLS]]}
        new, count = Fraction.__new__, 0

        def counting(cls, *args, **kwargs):
            nonlocal count
            count += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            matrices, _ = pencil_from_json(json.dumps(data))
        assert count == 0
        assert matrices == [ConstMatrix([[_parse_cell(c) for c in row] for row in block], "hermitian")
                            for block in data["matrices"]]


class TestAsciiNumbers:
    """Points and ring-header weights are read as ASCII numbers without '_',
    as the polynomial grammar reads its literals."""

    @pytest.mark.parametrize("text, char", [("٣,1", "٣"), ("1,1_0", "_"), ("1/２,0", "２")])
    def test_point(self, text, char):
        with pytest.raises(ParseError, match=f"^bad point .*unexpected character {char!r}"):
            parse_point(text)

    @pytest.mark.parametrize("weights, char", [("٢,1", "٢"), ("2,1_0", "_")])
    def test_ring_header_weights(self, weights, char):
        with pytest.raises(ParseError, match=f"^bad weights in ring header: unexpected character {char!r}"):
            parse_ring_header(f"ring: vars=x0,x1 weights={weights}")

    def test_cli_exits_64(self, tmp_path, capsys):
        poly = tmp_path / "q.txt"
        poly.write_text("ring: vars=x0,x1 weights=1_0,1\nx0^2 - x1^2\n", encoding="ascii")
        assert main(["check-hyperbolic", "--poly", str(poly), "--dir", "1,0"]) == EXIT_USAGE
        poly.write_text("ring: vars=x0,x1\nx0^2 - x1^2\n", encoding="ascii")
        assert main(["check-hyperbolic", "--poly", str(poly), "--dir", "1,٣"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unexpected character '_'" in err and "unexpected character '٣'" in err


class TestJsonStrings:
    """The check of nested string lists, which formats an index path only
    when it raises, names the same first bad item, by the same path, as the
    reference that formats one for every item."""

    leaves = st.one_of(st.sampled_from(["0", "x0", "1/2", ""]), st.sampled_from([None, 1, 2.5, True, {"a": 1}]))

    @staticmethod
    def nested(leaf, depth):
        inner = leaf
        for _ in range(depth):
            inner = st.one_of(st.lists(inner, max_size=4), leaf)
        return inner

    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), TestJsonStrings.nested(TestJsonStrings.leaves, d))))
    def test_against_the_item_by_item_reference(self, drawn):
        depth, value = drawn
        expected = json_strings_reference(value, "matrices", depth)
        if expected is None:
            assert _json_strings(value, "matrices", depth) is value
        else:
            with pytest.raises(ParseError) as info:
                _json_strings(value, "matrices", depth)
            assert str(info.value) == expected

    def test_valid_rows_and_a_string_subclass(self):
        class Text(str):
            pass

        rows = [["0", Text("x0")], ["1", "2"]]
        assert _json_strings(rows, "entries", 2) is rows
        with pytest.raises(ParseError, match=r"^entries\[1\]\[0\] must be a string, not 1$"):
            _json_strings([["0", "1"], [1, "2"]], "entries", 2)
