"""The polynomial grammar: term-dict parsing against the MultiPoly reference."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercert import polyring
from hypercert.polyring import MultiPoly, ParseError, Ring, _gaussian_literal, _Parser, parse
from hypercert.scalars import _ZERO, GaussianRational
from hypercert.wire import _cell_parts, parse_poly_text
from oracles import cell_value, reference_parse, scale

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
                cell_value(text)


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
            cell_value(text)
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
        assert parse(f"{digits}*x0", REAL) == scale(parse("x0", REAL), int(digits))


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


GAUSSIAN_NEAR_MISSES = [
    " 1+i", "1+i ", "1 + i", "+i", "+3*i", "+1-i", "0*i", "-0-i", "-0*i", "0+0*i", "1_0", "1_0*i", "2+1_0*i",
    "\u0663+i", "1+\u0663*i", "3i", "i3", "1i", "1+-i", "1--i", "-+i", "--i", "1+i*i", "i*3", "i*i", "1*i", "2*3*i",
    "1+2*i+3", "(1+i)", "1/2+i", "1+i/2", "i^2", "2^2+i", "1+2*i^3", "*i", "1+*i", "1+", "-", "", "i-1", "007-007*i",
]


class TestGaussianLiteralShortCircuit:
    """A text that is one Gaussian integer literal (a, i, -b*i, a+b*i, ...)
    skips the grammar in a Gaussian ring; the reference gives the same value
    or the same ParseError on it and on the texts near it, in every ring."""

    @given(
        st.one_of(
            st.tuples(st.sampled_from(["", "-"]), st.integers(0, 10**30), st.sampled_from(["+", "-"]),
                      st.sampled_from(["", "0*", "1*", "7*", "12*", f"{10**25}*"])).map(lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}i"),
            st.tuples(st.sampled_from(["", "-"]), st.integers(0, 10**30)).map(lambda t: f"{t[0]}{t[1]}*i"),
            st.sampled_from(["i", "-i"] + GAUSSIAN_NEAR_MISSES),
            st.text("0123456789-+*i _\u0663", max_size=7),
        ),
        st.sampled_from(RINGS),
    )
    def test_agrees_with_the_reference(self, text, ring):
        assert outcome(parse, text, ring) == outcome(reference_parse, text, ring)

    @pytest.mark.parametrize("text", ["i", "-i", "3*i", "-12*i", "12-7*i", "-1+i", "0-0*i", "-0-i"])
    def test_a_literal_skips_the_grammar(self, monkeypatch, text):
        expected, cell = reference_parse(text, GAUSSIAN), reference_parse(text, Ring((), (), gaussian=True))
        monkeypatch.setattr(polyring, "_Parser", None)
        assert parse(text, GAUSSIAN) == expected
        assert cell_value(text) == cell.terms.get((), GaussianRational(0))

    LONG = "7" * (sys.get_int_max_str_digits() + 1)

    @given(
        st.one_of(
            st.tuples(st.sampled_from(["", "-"]), st.sampled_from(["", "0", "00"]), st.integers(0, 10**20),
                      st.sampled_from(["+", "-"]), st.sampled_from(["", "0", "007"]), st.integers(0, 10**20))
            .map(lambda t: f"{t[0]}{t[1]}{t[2]}{t[3]}{t[4]}{t[5]}*i"),
            st.tuples(st.sampled_from(["", "-"]), st.integers(0, 99), st.sampled_from(["", "+i", "-i", "*i"]))
            .map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
            st.sampled_from(["i", "-i", "1/2+i", LONG, "-" + LONG, LONG + "+i", "1+" + LONG + "*i"] + GAUSSIAN_NEAR_MISSES),
            st.text("0123456789-+*i/ ", max_size=7),
        ),
        st.booleans(),
    )
    def test_the_shared_helper_agrees_with_parse(self, text, gaussian):
        # parse and the pencil cell reader both take a literal from
        # _gaussian_literal; a text it leaves to the grammar gets the
        # grammar's value or ParseError, an imaginary one in a real ring too.
        ring, cell_ring = (GAUSSIAN if gaussian else REAL), Ring((), (), gaussian)
        literal = _gaussian_literal(text, gaussian)
        if literal is not None:
            assert parse(text, ring) == MultiPoly.constant(ring, GaussianRational(*literal))
            assert all(type(part) is int for part in literal)
        parts = outcome(lambda t, r: MultiPoly.constant(r, GaussianRational(*_cell_parts(t, r))), text, cell_ring)
        assert parts == outcome(parse, text, cell_ring)
        if len(text) < 100:  # the reference reads no part past the int() limit
            assert parts == outcome(reference_parse, text, cell_ring)

    @pytest.mark.parametrize(
        "text, pos", [(LONG + "-3*i", 0), ("-" + LONG + "+i", 1), ("2+" + LONG + "*i", 2), ("-" + LONG + "*i", 1)],
        ids=["real-part", "signed-real-part", "imaginary-part", "signed-imaginary-part"],
    )
    def test_over_long_part_is_the_grammar_error(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text, GAUSSIAN)
        assert str(err.value) == f"integer literal of {len(self.LONG)} digits is too long at position {pos}"


def max_power_bits():
    """The bit length of the longest literal int() converts."""
    return (10 ** sys.get_int_max_str_digits() - 1).bit_length()


class TestLiteralPowerLimit:
    """A literal power whose size, estimated as the bit length of its base
    times its exponent, passes the longest literal int() converts is a
    ParseError at the position of its base, found before it is computed."""

    def test_at_the_limit_and_one_past_it(self):
        n = max_power_bits() // 2  # 3 has two bits
        assert parse(f"3^{n}*x0", REAL) == scale(parse("x0", REAL), 3**n)
        assert parse(f"x0 + (3)^{n}", REAL) == parse("x0", REAL) + MultiPoly.constant(REAL, 3**n)
        for text, pos in ((f"3^{n + 1}*x0", 0), (f"x0 - 2*3^{n + 1}", 7), (f"x0 + (3)^{n + 1}", 5),
                          (f"x0 + (3*x1)^{n + 1}", 5), (f"(1/3)^{n + 1}", 0)):
            with pytest.raises(ParseError) as err:
                parse(text, REAL)
            assert str(err.value) == f"power of about {2 * (n + 1)} bits is too large at position {pos}", text

    def test_gaussian_base(self):
        n = max_power_bits()  # 1 + i: the largest part has one bit
        assert parse(f"(1 + i)^{n}", GAUSSIAN) == reference_parse(f"(1 + i)^{n}", GAUSSIAN)
        with pytest.raises(ParseError, match=f"^power of about {n + 1} bits is too large at position 0$"):
            parse(f"(1 + i)^{n + 1}", GAUSSIAN)

    def test_zero_and_units_are_not_bounded(self):
        n = 10**6
        assert parse(f"1^{n}*x0 + 0^{n}", REAL) == parse("x0", REAL)
        assert parse(f"(-1)^{n + 1}*x0", REAL) == parse("-x0", REAL)
        assert parse(f"(-i)^{n + 2} + i^{n}", GAUSSIAN).is_zero()

    def test_a_power_of_a_sum_at_the_limit_and_one_past_it(self):
        # A multi-term base is bounded by its numerators over their common
        # denominator, summed, or by that denominator: 1 + 2^(b-1) has b bits.
        b = max_power_bits() // 3
        base = f"(x0 + 2^{b - 1}*x1)"
        assert parse(f"{base}^3", REAL) == parse(base, REAL) ** 3
        cases = ((REAL, f"{base}^4", 4 * b, 0), (REAL, f"x2 - (x0 + 2^{b}*x1)^3", 3 * (b + 1), 5),
                 (REAL, f"(1/{2 ** b}*x0 + x1)^3", 3 * (b + 1), 0), (GAUSSIAN, f"(x0 + 2^{b - 1}*i*x1)^4", 4 * b, 0))
        for ring, text, bits, pos in cases:
            with pytest.raises(ParseError) as err:
                parse(text, ring)
            assert str(err.value) == f"power of about {bits} bits is too large at position {pos}", text

    def test_a_power_of_a_sum_of_one_unit_monomial_is_not_bounded(self):
        n = 10**6
        assert parse(f"(x0 + 0*x1)^{n}", REAL).terms == {(n, 0, 0): GaussianRational(1)}
        assert parse(f"(x1 - x1 - i*x0)^{n + 1}", GAUSSIAN).terms == {(n + 1, 0): GaussianRational(0, -1)}

    def test_a_huge_power_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="^power of about 12000000 bits is too large at position 0$"):
            parse("999999999999^300000*x0 + x1", REAL)
        with pytest.raises(ParseError, match="^power of about 80000 bits is too large at position 0$"):
            parse("(x0 + 999999999999)^2000", REAL)  # had not returned after 100 s before it was bounded
        assert time.perf_counter() - start < 0.1  # the power took 1.8 s before it was bounded


class TestPowerTermLimit:
    """A power n > 1 of a sum is refused at its position, before it is
    expanded, when it can have more than 1,000 terms: the lesser of
    C(t + n - 1, n) for its t nonzero terms and the count of monomials of
    degree at most n times its degree in the variables it uses."""

    ONE = Ring.standard(("x0",))
    # 18 terms of degree at most 333 in x0, cubed: min(C(20, 3), 3*333 + 1) = 1000.
    AT_LIMIT = "(" + " + ".join(["1"] + [f"x0^{k}" for k in range(1, 17)] + ["x0^333"]) + ")^3"
    # 11 terms of degree at most 250 in x0, to the 4th: min(C(14, 4), 4*250 + 1) = 1001.
    PAST_LIMIT = "(" + " + ".join(["1"] + [f"x0^{k}" for k in range(1, 10)] + ["x0^250"]) + ")^4"

    def test_at_the_limit_and_one_past_it(self):
        base = parse(self.AT_LIMIT[: -len("^3")], self.ONE)
        assert parse(self.AT_LIMIT, self.ONE) == base**3
        with pytest.raises(ParseError, match="^power of up to 1001 terms is too large at position 0$"):
            parse(self.PAST_LIMIT, self.ONE)
        assert parse("(x0 + x1 + x2)^43", REAL) == parse("x0 + x1 + x2", REAL) ** 43  # 990 terms
        with pytest.raises(ParseError, match="^power of up to 1035 terms is too large at position 5$"):
            parse("x0 - (x0 + x1 + x2)^44", REAL)

    def test_a_short_input_is_refused_at_once(self):
        start = time.perf_counter()
        for text, terms in (("(x0+x1+x2)^200", 20301), ("(x0+x1+x2)^90", 4186), ("(x0 + 1)^1000", 1001)):
            with pytest.raises(ParseError, match=f"^power of up to {terms} terms is too large at position 0$"):
                parse(text, REAL)
        assert time.perf_counter() - start < 0.1  # (x0+x1+x2)^200 took 32.6 s before it was bounded

    def test_zero_terms_and_the_first_power_are_not_counted(self):
        big = " + ".join(f"{k}*x0^{k}" for k in range(1, 1101))  # 1,100 terms
        assert len(parse(f"({big})^1", self.ONE).terms) == 1100
        assert parse("(x0 + 0*x1 + 0*x2)^5000", REAL).terms == {(5000, 0, 0): GaussianRational(1)}
        # Two nonzero terms: C(45, 44) = 45, where three would count C(46, 44) = 1035.
        assert len(parse("(x0 + x1 + x2 - x2)^44", REAL).terms) == 45


class TestProductPairLimit:
    """A product of two sums is refused at the start of its second factor,
    before it is formed, when it pairs more than 10,000 nonzero terms."""

    ONE = Ring.standard(("x0",))
    SIX = Ring.standard(tuple(f"x{k}" for k in range(6)))

    @staticmethod
    def sums(a, b, step):
        """(sum of x0^k, k < a) * (sum of x0^(step*k), k < b): a*b pairs."""
        left = " + ".join(f"x0^{k}" for k in range(a))
        return f"({left})*(" + " + ".join(f"x0^{step * k}" for k in range(b)) + ")", len(left) + 3

    def test_at_the_limit_and_one_past_it(self):
        text, _ = self.sums(100, 100, 100)  # 10,000 pairs, 10,000 distinct products
        assert parse(text, self.ONE) == parse(f"({' + '.join(f'x0^{k}' for k in range(10000))})", self.ONE)
        text, start = self.sums(73, 137, 73)  # 10,001 pairs
        with pytest.raises(ParseError, match=f"^product of 73 by 137 terms is too large at position {start}$"):
            parse(text, self.ONE)

    def test_a_short_input_is_refused(self):
        with pytest.raises(ParseError, match="^product of 990 by 990 terms is too large at position 14$"):
            parse("(x0+x1+x2)^43*(x0+x1+x2)^43", REAL)  # took 0.92 s before it was bounded
        # 861 by 10 pairs, then the product's 990 terms by 15
        with pytest.raises(ParseError, match="^product of 990 by 15 terms is too large at position 27$"):
            parse("(x0+x1+x2)^40*(x0+x1+x2)^3*(x0+x1+x2)^4", REAL)

    def test_products_of_linear_forms_parse(self):
        rng = random.Random(5)
        forms = ["(" + " + ".join(f"{rng.randint(1, 9)}*x{k}" for k in range(6)) + ")" for _ in range(7)]
        expected = MultiPoly.constant(self.SIX, 1)
        for form in forms:
            expected = expected * parse(form, self.SIX)
        assert parse("*".join(forms), self.SIX) == expected  # 462 by 6 pairs at the last factor
        assert len(expected.terms) == 792

    def test_zero_terms_are_not_counted(self):
        zeros = " + ".join(f"0*x0^{k}" for k in range(200))
        assert parse(f"(x0 + 1 + {zeros})*({zeros} + x0 - 1)", self.ONE) == parse("x0^2 - 1", self.ONE)


def monomial_sums(ring):
    """Sums of products of simple factors, the ones a term reads inline: a
    name (i in a Gaussian ring) or an integer literal, maybe signed, maybe
    raised to ^digits; now and then a p/q literal, which is not simple."""
    simple = st.one_of(
        st.sampled_from(names(ring)),
        st.integers(0, 10**30).map(str),
        st.sampled_from(["0", "1", "007"]),
        st.tuples(st.integers(0, 12), st.integers(1, 6)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    )
    exponents = st.sampled_from(["", "", "^0", "^1", "^2", "^3", "^5", "^12", "^007"])
    factor = st.tuples(st.sampled_from(["", "", "-", "+"]), simple, exponents).map("".join)
    term = st.lists(factor, min_size=1, max_size=5).map("*".join)
    tail = st.lists(st.tuples(st.sampled_from([" + ", " - ", "-", "+"]), term).map("".join), max_size=4)
    return st.tuples(term, tail).map(lambda t: t[0] + "".join(t[1]))


class TestInlineFactors:
    """A term reads its simple factors inline and hands every other token
    to the grammar's factor(): values and ParseError messages are the
    reference's at the edges of the inline path."""

    EDGES = [
        "x0^2^3", "2/3*x0", "x0*2/3", "x0^", "x0^x1", "x0^-1", "x0^+1", "2x0", "x0 x1", "i^3*x0", "-i^2*x0",
        "z", "z*x0", "x0*z", "-z^2", "x0*", "x0*-", "x0*(", "*x0", "+-x0", "-+2^2*x0", "2^3/4", "x0/2",
        "-2/3*x0^2", "0^0*x0", "3^0*x1^0", "x0^007*x1^1", "i*i*x0", "x0^2*-3*i^7", "2^2^2", "x0*(x1 + 1)^2*3",
        "x0 - x0*1", "-x0 + x0",
    ]

    @pytest.mark.parametrize("ring", RINGS, ids=["real", "gaussian", "weighted"])
    @pytest.mark.parametrize("text", EDGES)
    def test_edges_match_reference(self, ring, text):
        assert outcome(parse, text, ring) == outcome(reference_parse, text, ring)

    LONG = "1" * 5000

    @pytest.mark.parametrize(
        "text, pos",
        [("-" + LONG + "*x0", 1), ("x0*" + LONG, 3), ("x0*x1^" + LONG, 6), ("-x1^" + LONG + "*x0", 4), ("2^" + LONG, 2),
         ("i^" + LONG, 2)],
        ids=["signed-value", "second-value", "exponent", "signed-exponent", "literal-exponent", "i-exponent"],
    )
    def test_over_long_literal_is_the_grammar_error(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text, GAUSSIAN)
        assert str(err.value) == f"integer literal of 5000 digits is too long at position {pos}"

    def test_longest_convertible_exponent_parses(self):
        digits = "7" * sys.get_int_max_str_digits()
        assert parse(f"-x0^{digits}*x1", REAL).terms == {(int(digits), 1, 0): GaussianRational(-1)}

    @given(st.data())
    def test_monomial_sums_match_reference(self, data):
        ring = data.draw(st.sampled_from(RINGS))
        same_as_reference(data.draw(monomial_sums(ring)), ring)


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
            cell_value(text)
        assert products == []
