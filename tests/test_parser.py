"""The polynomial grammar: term-dict parsing against the MultiPoly reference."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercert import polyring
from hypercert.polyring import MultiPoly, ParseError, Ring, _Parser, parse
from hypercert.scalars import _ZERO, GaussianRational
from hypercert.wire import _parse_cell, parse_poly_text
from oracles import reference_parse

REAL = Ring.standard(("x0", "x1", "x2"))
GAUSSIAN = Ring.standard(("x0", "x1"), gaussian=True)
WEIGHTED = Ring(("y", "x0", "x1"), (2, 1, 1))
RINGS = (REAL, GAUSSIAN, WEIGHTED)


def names(ring):
    return list(ring.variables) + (["i"] if ring.gaussian else [])


def expressions(ring, depth=2):
    """Strings of the grammar over ``ring``: sums of products of signed
    factors, where a factor is a name, an integer or p/q literal, or a
    parenthesised expression, raised to a power from ^0 to ^3 or not."""
    literal = st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )
    bases = [st.sampled_from(names(ring)), literal]
    if depth:
        bases.append(expressions(ring, depth - 1).map(lambda s: f"({s})"))
    power = st.tuples(st.one_of(bases), st.sampled_from(["", "", "^0", "^1", "^2", "^3"]))
    factor = st.tuples(st.sampled_from(["", "", "-", "+", "--", "- -", "-+-"]), power.map("".join))
    term = st.lists(factor.map("".join), min_size=1, max_size=3).map("*".join)
    tail = st.lists(st.tuples(st.sampled_from([" + ", " - ", "-", "+"]), term).map("".join), max_size=3)
    return st.tuples(term, tail).map(lambda t: t[0] + "".join(t[1]))


def same_as_reference(text, ring):
    """parse(text) is exactly reference_parse(text): the same terms, no
    zero coefficient, and each coefficient a GaussianRational of Fractions
    whose zero imaginary part is the shared _ZERO."""
    got = parse(text, ring)
    assert isinstance(got, MultiPoly) and got.ring is ring
    assert got == reference_parse(text, ring), text
    for coeff in got.terms.values():
        assert isinstance(coeff, GaussianRational) and coeff
        assert type(coeff.re) is Fraction and type(coeff.im) is Fraction
        assert coeff.im or coeff.im is _ZERO


class TestAgainstReference:
    # Cancellation to zero, signs of negated sums and products, ^0 of zero.
    CASES = [
        "x0 - x0",
        "(x0 - x0)*(x1 + x0)",
        "0*x0",
        "x0*0 + 1",
        "0",
        "0^0",
        "(x0 - x0)^0",
        "(x0 - x0)^2",
        "(x0 - x0 + x1 - x1)*(x0 + x1)",
        "x0 - x0 + x1 + x0",
        "-(x0 + x1)",
        "-(x0 - x1)*(x0 + x1)",
        "--(x0 + 1/2)",
        "-+-(x0 - 3)^3",
        "2*(x0 + x1)^2 - 2*x0^2 - 4*x0*x1 - 2*x1^2",
        "(x0 + x1)*(x0 - x1)",
        "1/2^3*x0^0*x1",
        "3/6*x0 - 1/2*x0",
        "((((x0))))^2",
        "x0\u00a0+\tx1",  # Unicode whitespace is still whitespace
    ]
    GAUSSIAN_CASES = [
        "i*i + 1",
        "(1 + i)^4",
        "i^0",
        "i^7*x0",
        "(2 + i)*(3*x0 + i*x1)",
        "-(i*x0 - x1)^2",
        "(1 - i)*(1 + i) - 2",
        "x0*(i - i)",
    ]

    @pytest.mark.parametrize("ring", RINGS, ids=["real", "gaussian", "weighted"])
    @pytest.mark.parametrize("text", CASES)
    def test_fixed_cases(self, ring, text):
        same_as_reference(text, ring)

    @pytest.mark.parametrize("text", GAUSSIAN_CASES)
    def test_fixed_gaussian_cases(self, text):
        same_as_reference(text, GAUSSIAN)

    def test_cancellation_leaves_no_term(self):
        for text in ("x0 - x0", "(x0 - x0)*(x1 + x0)", "0*x0", "(x0 - x0)^3"):
            assert parse(text, REAL).terms == {}

    @given(st.data())
    def test_random_expressions(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        same_as_reference(data.draw(expressions(ring)), ring)


class TestMalformed:
    # Each string is malformed over REAL; the message must be the reference's.
    TEXTS = [
        "",
        "   ",
        "x0 +",
        "x0^x1",
        "(x0",
        "x0)",
        "()",
        "x0 / x1",
        "2//3",
        "1/",
        "1/x0",
        "1/0",
        "3/0*x0",
        "x0^",
        "x0^-1",
        "x0^2^3",
        "x0 $",
        "*x0",
        "x0**2",
        "x0 x1",
        "2x0",
        "z",
        "x0 + (x1 - y",
        "i*x0",
        "(" * 3000 + "x0" + ")" * 3000,
        "-" * 3000 + "x0",
    ]

    @pytest.mark.parametrize("text", TEXTS, ids=range(len(TEXTS)))
    def test_message_matches_reference(self, text):
        with pytest.raises(ParseError) as expected:
            reference_parse(text, REAL)
        with pytest.raises(ParseError) as got:
            parse(text, REAL)
        assert str(got.value) == str(expected.value)

    def test_cell_errors(self):
        for text, message in (
            ("x0", "unknown variable 'x0' at position 0"),
            ("1/0", "zero denominator at position 2"),
            ("1+", "unexpected end of input"),
        ):
            with pytest.raises(ParseError, match=f"^{message}$"):
                _parse_cell(text)


class TestAsciiOnly:
    """Literals and names are ASCII: other digits and letters are rejected
    with their position instead of being read as numbers or names."""

    @pytest.mark.parametrize(
        "text, char, pos",
        [
            ("x0^²", "²", 3),  # superscript two
            ("٣", "٣", 0),  # Arabic-Indic three
            ("x0 + １", "１", 5),  # fullwidth one
            ("x٣", "٣", 1),
            ("é + x0", "é", 0),
        ],
    )
    def test_non_ascii_character_is_a_parse_error(self, text, char, pos):
        message = f"unexpected character {char!r} at position {pos}"
        with pytest.raises(ParseError) as err:
            parse(text, REAL)
        assert str(err.value) == message
        with pytest.raises(ParseError) as err:
            _parse_cell(text)
        assert str(err.value) == message

    def test_non_ascii_variable_name_is_rejected(self):
        with pytest.raises(ValueError, match="invalid variable name"):
            Ring.standard(("x٣",))
        with pytest.raises(ParseError, match="invalid variable name"):
            parse_poly_text("ring: vars=é\né^2\n")


class TestLongLiterals:
    """A literal longer than int() converts (4,300 digits by default) is a
    ParseError at its position, as value, denominator or exponent."""

    LONG = "1" * 5000

    @pytest.mark.parametrize(
        "text, pos",
        [
            (LONG + "*x0", 0),
            ("x0 + 1/" + LONG, 7),
            ("x1 - x0^" + LONG, 8),
        ],
        ids=["value", "denominator", "exponent"],
    )
    def test_over_long_literal_is_a_parse_error(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text, REAL)
        assert str(err.value) == f"integer literal of 5000 digits is too long at position {pos}"

    def test_longest_convertible_literal_parses(self):
        digits = "7" * sys.get_int_max_str_digits()
        assert parse(f"{digits}*x0", REAL) == parse("x0", REAL).scale(int(digits))


def outcome(parse_text, text, ring):
    """(terms, None) of a parse, or (None, message) of its ParseError."""
    try:
        return parse_text(text, ring).terms, None
    except ParseError as err:
        return None, str(err)


NEAR_MISSES = ["+3", " 3", "3 ", "1_0", "\u0663", "--3", "-", "", "-0", "007", "3\n", "- 3", "3-", "1/1", "3x0", "0x1"]


class TestIntegerShortCircuit:
    """A text that is one integer literal skips the grammar; the grammar
    (_Parser) gives the same value or the same ParseError on it and on the
    texts near it."""

    @given(
        st.one_of(
            st.integers(-(10**40), 10**40).map(str),
            st.sampled_from(NEAR_MISSES),
            st.text("0123456789-+ _\u0663\n", max_size=6),
            st.sampled_from(["", "-"]).map(lambda sign: sign + "7" * 5000),
            st.sampled_from(["", "-"]).map(lambda sign: sign + "7" * sys.get_int_max_str_digits()),
        ),
        st.sampled_from(RINGS),
    )
    def test_agrees_with_the_grammar(self, text, ring):
        assert outcome(parse, text, ring) == outcome(lambda s, r: _Parser(s, r).parse(), text, ring)

    def test_an_integer_skips_the_grammar(self, monkeypatch):
        monkeypatch.setattr(polyring, "_Parser", None)
        assert parse("-12", REAL) == MultiPoly.constant(REAL, -12)
        assert parse("0", GAUSSIAN).is_zero()

    @pytest.mark.parametrize("sign, pos", [("", 0), ("-", 1)])
    def test_over_long_integer_is_the_grammar_error(self, sign, pos):
        with pytest.raises(ParseError) as err:
            parse(sign + "1" * 5000, REAL)
        assert str(err.value) == f"integer literal of 5000 digits is too long at position {pos}"


class TestProductCount:
    """Sums and one-term factors are built on term dicts; only a product or
    power of two multi-term subexpressions forms a MultiPoly product."""

    @pytest.fixture
    def products(self, monkeypatch):
        calls = []
        product = MultiPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return product(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        return calls

    @pytest.mark.parametrize(
        "text, ring, count",
        [
            ("3*x0^3*x1 - 2/3*x0*x1^2*x2 + x2^4 - 7*x0*x1*x2 + 1/2", REAL, 0),
            ("-x0^2*(x1 + x2) + 5*(x0 - x1)*x2^2", REAL, 0),
            ("2*i*x0^2 - (3 - i)*x0*x1 + i^3", GAUSSIAN, 0),
            ("y^2 - 4*y*x0^2 + x1^4", WEIGHTED, 0),
            ("(x0 + x1)*(x0 - x1)", REAL, 1),
            ("(x0 + x1)^2", REAL, 1),
        ],
    )
    def test_products_formed(self, products, text, ring, count):
        assert parse(text, ring) == reference_parse(text, ring)
        products.clear()
        parse(text, ring)
        assert len(products) == count

    def test_cells_form_no_product(self, products):
        for text in ("0", "-3", "7/2", "-1/2+3/4*i", "-i", "2-5*i"):
            _parse_cell(text)
        assert products == []
