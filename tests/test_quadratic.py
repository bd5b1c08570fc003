"""The quadratic pipeline: normal form, branch SOS, pencil construction."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercert import clifford, detrep
from hypercert.clifford import clifford_generators, hurwitz_radon
from hypercert.detrep import PolyMatrix, verify_pencil
from hypercert.hyperbolicity import STATUS_NO_COUNTEREXAMPLE, is_hyperbolic_sampled
from hypercert.polyring import MultiPoly, Ring, parse, restrict_to_line
from hypercert.quadratic import (
    IndefiniteFormError,
    PipelineError,
    _check_completion,
    diagonalize_quadratic_form,
    normalize_at_direction,
    quadratic_detrep,
    rational_sos_quadratic,
)
from hypercert.realroots import is_real_rooted
from oracles import (
    diagonalize_reference,
    eval_reference,
    form_of,
    gram_of,
    linear_form,
    mat_inverse,
    normal_form_reference,
    quadratic_detrep_reference,
    sos_reference,
)

R2 = Ring.standard(("x0", "x1"))
R3 = Ring.standard(("x0", "x1", "x2"))


def random_quadratic(rng, ring, span=5):
    n = ring.arity
    items = []
    for i in range(n):
        for j in range(i, n):
            c = Fraction(rng.randrange(-span, span + 1))
            if c:
                expo = [0] * n
                expo[i] += 1
                expo[j] += 1
                items.append((tuple(expo), c))
    return MultiPoly.from_terms(ring, items)


def checked_normal_form(h, e):
    """(ring', alpha, q1, q2, branch, flipped) of :func:`normal_form_reference`,
    after checking that the library's Gram matrices give the same alpha,
    q1, q2, branch, sign and T."""
    nf = normalize_at_direction(h, e)
    ring, alpha, q1, q2, branch, flipped, transform = normal_form_reference(h, e)
    n = ring.arity
    assert (nf.alpha, Fraction(nf.gram[0][0], nf.scale), nf.flipped) == (alpha, alpha, flipped)
    assert [list(row) for row in nf.transform] == transform
    assert linear_form(ring, [0] + [Fraction(2 * g, nf.scale) for g in nf.gram[0][1:]]) == q1
    assert form_of(ring, [[0] * n] + [[0, *row[1:]] for row in nf.gram[1:]], nf.scale) == q2
    assert form_of(ring, nf.branch, nf.scale**2) == branch
    return ring, alpha, q1, q2, branch, flipped


def sos(p):
    """rational_sos_quadratic on a polynomial, its squares as polynomials."""
    return [linear_form(p.ring, [Fraction(a, d) for a in g]) for g, d in rational_sos_quadratic(*gram_of(p))]


def diagonalized(p):
    """diagonalize_quadratic_form on a polynomial, as (c, row of Fractions)."""
    return [(c, tuple(Fraction(a, d) for a in row)) for c, row, d in diagonalize_quadratic_form(*gram_of(p))]


class TestNormalForm:
    def test_already_normalized(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        ring, alpha, q1, q2, branch, flipped = checked_normal_form(h, (1, 0, 0))
        assert alpha == 1
        assert q1.is_zero()
        assert q2 == parse("0 - u1^2 - u2^2", ring)
        assert branch == parse("4*u1^2 + 4*u2^2", ring)
        assert not flipped

    def test_bilinear_form(self):
        h = parse("x0*x1", R2)
        ring, alpha, q1, _, branch, _ = checked_normal_form(h, (1, 1))
        assert alpha == 1
        # Re-verify the defining identity by expansion: 4*alpha*h(T^-1 u)
        # must equal ell(u)^2 - branch(u).
        ell = MultiPoly.variable(ring, "u0").scale(2 * alpha) + q1
        inverse = normalize_at_direction(h, (1, 1)).inverse
        hp = h.substitute([linear_form(ring, row) for row in inverse])
        assert hp.scale(4 * alpha) == ell * ell - branch

    def test_nonhyperbolic_passes_this_stage(self):
        h = parse("x0^2 + x1^2", R2)
        ring, _, _, _, branch, _ = checked_normal_form(h, (1, 0))
        assert branch == parse("0 - 4*u1^2", ring)

    def test_rejects_vanishing_direction(self):
        with pytest.raises(ValueError):
            normalize_at_direction(parse("x0*x1", R2), (1, 0))

    def test_rejects_non_quadratic(self):
        with pytest.raises(ValueError):
            normalize_at_direction(parse("x0^3", R3), (1, 0, 0))

    def test_sign_flip(self):
        h = parse("0 - x0^2 + x1^2", R2)
        _, alpha, _, _, _, flipped = checked_normal_form(h, (1, 0))
        assert flipped
        assert alpha == 1

    def test_stage_identity_random(self):
        rng = random.Random(113)
        checked = 0
        while checked < 200:
            h = random_quadratic(rng, R3)
            if h.is_zero():
                continue
            e = [Fraction(rng.randrange(-4, 5)) for _ in range(3)]
            if not any(e) or eval_reference(h, e).re == 0:
                continue
            nf = normalize_at_direction(h, e)
            ring, alpha, q1, _, branch, flipped = checked_normal_form(h, e)
            ell = MultiPoly.variable(ring, "u0").scale(2 * alpha) + q1
            hw = -h if flipped else h
            hp = hw.substitute([linear_form(ring, row) for row in nf.inverse])
            assert hp.scale(4 * alpha) + branch == ell * ell
            checked += 1


class TestCompletionCheck:
    """The check inside normalize_at_direction pulls the completed square
    back along T, read from e, and compares it with h's own Gram matrix, so
    a normal form formed with a wrong column or scale fails it."""

    h = parse("x0^2 - x1^2 - 2*x1*x2 - 3*x2^2 + x0*x2", R3)

    @classmethod
    def check(cls, transform, nf):
        ell = [2 * g for g in nf.gram[0]]
        _check_completion(*gram_of(cls.h), transform, ell, nf.branch, nf.scale, -1 if nf.flipped else 1)

    def test_the_normal_form_passes(self):
        nf = normalize_at_direction(self.h, (Fraction(1, 2), 1, 0))
        assert nf.flipped and nf.scale % 4 == 0
        self.check(nf.transform, nf)

    def test_a_wrong_first_column_fails(self):
        nf = normalize_at_direction(self.h, (Fraction(1, 2), 1, 0))
        other = normalize_at_direction(self.h, (Fraction(1, 2), 1, 1))
        self.check(other.transform, other)
        with pytest.raises(AssertionError, match="completion-of-the-square"):
            self.check(nf.transform, other)

    @pytest.mark.parametrize("factor", [Fraction(2), Fraction(1, 2), Fraction(1, 4)])
    def test_a_wrong_scale_fails(self, factor):
        nf = normalize_at_direction(self.h, (Fraction(1, 2), 1, 0))
        with pytest.raises(AssertionError, match="completion-of-the-square"):
            self.check(nf.transform, nf._replace(scale=int(nf.scale * factor)))


class TestRationalSos:
    def test_diagonal_form(self):
        p = parse("4*u1^2 + 4*u2^2", Ring.standard(("u0", "u1", "u2")))
        forms = sos(p)
        assert [str(g) for g in forms] == ["2*u1", "2*u2"]

    def test_cross_term(self):
        ring = Ring.standard(("x1", "x2"))
        p = parse("x1^2 + x1*x2 + x2^2", ring)
        forms = sos(p)
        assert [str(g) for g in forms] == [
            "x1 + 1/2*x2",
            "1/2*x2",
            "1/2*x2",
            "1/2*x2",
        ]
        total = MultiPoly.zero(ring)
        for g in forms:
            total = total + g * g
        assert total == p

    def test_indefinite_witness(self):
        ring = Ring.standard(("x1", "x2"))
        with pytest.raises(IndefiniteFormError) as info:
            sos(parse("0 - x1^2", ring))
        v = info.value.witness
        assert eval_reference(parse("0 - x1^2", ring), v).re < 0

    def test_off_diagonal_only(self):
        ring = Ring.standard(("x1", "x2"))
        p = parse("x1*x2", ring)
        with pytest.raises(IndefiniteFormError) as info:
            sos(p)
        assert eval_reference(p, info.value.witness).re < 0

    def test_psd_rank_bound(self):
        rng = random.Random(127)
        ring = Ring.standard(("x1", "x2", "x3"))
        count = 0
        while count < 100:
            # random PSD form: sum of up to 3 squares of random linear forms
            forms = []
            for _ in range(rng.randrange(1, 4)):
                items = [
                    (tuple(1 if t == k else 0 for t in range(3)), Fraction(rng.randrange(-4, 5)))
                    for k in range(3)
                ]
                ell = MultiPoly.from_terms(ring, items)
                if not ell.is_zero():
                    forms.append(ell)
            if not forms:
                continue
            p = MultiPoly.zero(ring)
            for g in forms:
                p = p + g * g
            rank = len(diagonalized(p))
            out = sos(p)
            assert len(out) <= 4 * rank
            total = MultiPoly.zero(ring)
            for g in out:
                total = total + g * g
            assert total == p
            count += 1

    def test_diagonalization_identity_with_splits(self):
        # Forms with a zero diagonal need the x_i = u + v, x_j = u - v split;
        # the emitted forms must still sum to p exactly.
        rng = random.Random(137)
        ring = Ring.standard(("x1", "x2", "x3", "x4"))
        splits = 0
        for _ in range(60):
            p = random_quadratic(rng, ring)
            if rng.random() < 0.5:
                p = MultiPoly(ring, {e: c for e, c in p.terms.items() if 2 not in e})
            if p.is_zero():
                continue
            diag = diagonalized(p)
            splits += all(not p.terms.get(tuple(2 * (t == k) for t in range(4))) for k in range(4))
            total = MultiPoly.zero(ring)
            for c, row in diag:
                ell = MultiPoly.from_terms(ring, [(tuple(int(t == k) for t in range(4)), v) for k, v in enumerate(row)])
                total = total + (ell * ell).scale(c)
            assert total == p
        assert splits >= 20

    def test_indefiniteness_witnesses_are_exact(self):
        rng = random.Random(131)
        ring = Ring.standard(("x1", "x2", "x3"))
        refuted = 0
        tried = 0
        while refuted < 30 and tried < 3000:
            tried += 1
            p = random_quadratic(rng, ring)
            if p.is_zero():
                continue
            try:
                sos(p)
            except IndefiniteFormError as err:
                assert eval_reference(p, err.witness).re < 0
                refuted += 1
        assert refuted == 30


@st.composite
def quadrics_at(draw):
    """(h, e) with h(e) != 0 in n = 2..6 variables, e with 0..n-1 leading
    zero coordinates, of one of three shapes: a dense form with rational
    coefficients; a*x_p^2 plus products x_i*x_j of the other variables at
    e = c*(unit vector p), whose branch has an all-zero diagonal; or
    c*l(x)^2, whose branch is zero.  Negative values at e flip h."""
    n = draw(st.integers(2, 6))
    ring = Ring.standard(tuple(f"x{k}" for k in range(n)))
    lead = draw(st.integers(0, n - 1))
    small = st.integers(-3, 3)
    nonzero = st.integers(1, 3).flatmap(lambda k: st.sampled_from([k, -k]))
    shape = draw(st.sampled_from(["dense", "split", "rank-one"]))
    units = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    if shape == "split":
        e = [Fraction(draw(nonzero), draw(st.integers(1, 3))) * (k == lead) for k in range(n)]
        others = [k for k in range(n) if k != lead]
        items = [(tuple(2 * t for t in units[lead]), draw(nonzero))]
        items += [(tuple(map(sum, zip(units[i], units[j]))), draw(small)) for i in others for j in others if i < j]
        h = MultiPoly.from_terms(ring, items)
    else:
        e = [Fraction(0)] * lead + [Fraction(draw(nonzero), draw(st.integers(1, 3)))]
        e += [Fraction(draw(small), draw(st.integers(1, 4))) for _ in range(n - lead - 1)]
        if shape == "rank-one":
            ell = linear_form(ring, [Fraction(draw(small), draw(st.integers(1, 2))) for _ in range(n)])
            h = (ell * ell).scale(draw(nonzero))
        else:
            cells = [(i, j) for i in range(n) for j in range(i, n)]
            h = MultiPoly.from_terms(ring, [(tuple(map(sum, zip(units[i], units[j]))),
                                             Fraction(draw(small), draw(st.sampled_from([1, 1, 2, 3])))) for i, j in cells])
    assume(not h.is_zero() and eval_reference(h, e).re != 0)
    return h, e


class TestGramRoute:
    """The Gram route against the substitution-and-split reference: alpha,
    q1, q2, the branch, the diagonal rows and the indefiniteness witness."""

    @settings(max_examples=80)
    @given(quadrics_at())
    def test_against_the_polynomial_route(self, drawn):
        h, e = drawn
        nf = normalize_at_direction(h, e)
        _, _, _, _, branch, _ = checked_normal_form(h, e)
        diag = diagonalize_quadratic_form(nf.branch, nf.scale**2)
        assert [(c, tuple(Fraction(a, d) for a in row)) for c, row, d in diag] == diagonalize_reference(branch)
        expected = sos_reference(branch)
        if isinstance(expected, tuple):
            with pytest.raises(IndefiniteFormError) as info:
                rational_sos_quadratic(nf.branch, nf.scale**2)
            assert info.value.witness == expected[1]
            assert info.value.value == eval_reference(branch, expected[1]).re < 0
        else:
            forms = rational_sos_quadratic(nf.branch, nf.scale**2)
            assert [linear_form(branch.ring, [Fraction(a, d) for a in g]) for g, d in forms] == expected

    def test_each_shape_is_drawn(self):
        seen = set()

        @settings(max_examples=60)
        @given(quadrics_at())
        def record(drawn):
            h, e = drawn
            nf = normalize_at_direction(h, e)
            diagonal = [nf.branch[k][k] for k in range(len(e))]
            seen.add(("flipped", nf.flipped))
            seen.add(("leading zero", not e[0]))
            seen.add(("zero branch", not any(map(any, nf.branch))))
            seen.add(("split", not any(diagonal) and any(map(any, nf.branch))))
            seen.add(("n", len(e)))

        record()
        assert {("flipped", True), ("leading zero", True), ("zero branch", True), ("split", True)} <= seen
        assert {("n", n) for n in range(2, 7)} <= seen


class TestNoPolynomialAlgebra:
    """quadratic_detrep runs on Gram matrices: on the test family it
    multiplies no polynomials and substitutes none."""

    def test_a_family_input_calls_neither_product_nor_substitute(self, monkeypatch):
        h, e = random_hyperbolic_quadratic(random.Random(7), 3)
        calls = []

        def tripwire(name):
            original = getattr(MultiPoly, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(MultiPoly, name, counted)

        tripwire("__mul__")
        tripwire("substitute")
        assert quadratic_detrep(h, e).report.ok
        assert calls == []


class TestQuadraticDetrep:
    def test_circle(self):
        h = parse("x0^2 - x1^2 - x2^2", R3)
        rep = quadratic_detrep(h, (1, 0, 0), clifford_generators)
        assert rep.power == 4
        assert rep.scalar == 256
        assert rep.pencil[0].size == 8
        assert rep.report.ok
        from hypercert.detrep import pencil_to_polymatrix, poly_det

        det = poly_det(pencil_to_polymatrix(rep.pencil, R3))
        assert det == (h ** 4).scale(Fraction(256))

    def test_lorentz_five_vars_shortcut(self):
        ring = Ring.standard(("x0", "x1", "x2", "x3", "x4"))
        h = parse("x0^2 - x1^2 - x2^2 - x3^2 - x4^2", ring)
        rep = quadratic_detrep(h, (1, 0, 0, 0, 0), clifford_generators)
        assert rep.power == 16
        assert rep.pencil[0].size == 32
        assert rep.scalar == Fraction(4) ** 16
        assert rep.report.notes.get("method") == "minimal-polynomial-shortcut"

    def test_negative_at_direction(self):
        # h(e) = -1: the branch ell^2 - P is -4*h, and c = (-4)^8 > 0.
        h = parse("3*x1^2 - x0^2", R2)
        rep = quadratic_detrep(h, (1, 0), clifford_generators)
        assert rep.report.ok, rep.report.to_json_dict()
        assert (rep.power, rep.scalar) == (8, 65536)
        from hypercert.detrep import pencil_to_polymatrix, poly_det

        assert poly_det(pencil_to_polymatrix(rep.pencil, R2)) == (h ** 8).scale(65536)

    def test_non_hyperbolic_fails_with_witnesses(self):
        h = parse("x0^2 + x1^2", R2)
        with pytest.raises(PipelineError) as info:
            quadratic_detrep(h, (1, 0))
        err = info.value
        assert err.stage == "branch-sos"
        assert err.witness_line is not None
        # The witness line refutes hyperbolicity through an independent path.
        f = restrict_to_line(h, (1, 0), err.witness_line)
        assert not is_real_rooted(f)

    def test_degenerate_branch(self):
        h = parse("x0^2", R2)
        rep = quadratic_detrep(h, (1, 0))
        assert rep.power == 2
        assert rep.pencil[0].size == 4
        assert rep.report.ok

    def test_flipped_single_square_gets_even_power(self):
        # h(e) = -1 < 0 needs r even: the lone branch square (2*u1)^2 would
        # give a 2x2 pencil with det = -4*h, so it is split in two.
        h = parse("x1^2 - x0^2", R2)
        rep = quadratic_detrep(h, (1, 0))
        assert rep.report.ok, rep.report.to_json_dict()
        assert (rep.pencil[0].size, rep.power, rep.scalar) == (4, 2, 16)
        from hypercert.detrep import pencil_to_polymatrix, poly_det

        assert poly_det(pencil_to_polymatrix(rep.pencil, R2)) == (h ** 2).scale(16)

    def test_flipped_sign_direction(self):
        h = parse("0 - x0^2 + x1^2 + x2^2", R3)  # -Lorentz
        rep = quadratic_detrep(h, (1, 0, 0))
        assert rep.report.ok
        assert rep.scalar > 0
        assert rep.power % 2 == 0


def random_hyperbolic_quadratic(rng, n_vars):
    """a^2 x0^2 - sum b_k^2 xk^2 pushed through a random rational congruence,
    with a direction inside the cone."""
    ring = Ring.standard(tuple(f"x{k}" for k in range(n_vars)))
    a = rng.randrange(1, 4)
    bs = [rng.randrange(0, 3) for _ in range(n_vars - 1)]
    items = [((2,) + (0,) * (n_vars - 1), Fraction(a * a))]
    for k, b in enumerate(bs):
        if b:
            expo = [0] * n_vars
            expo[k + 1] = 2
            items.append((tuple(expo), Fraction(-b * b)))
    h0 = MultiPoly.from_terms(ring, items)
    # random invertible congruence with small entries
    while True:
        cols = [
            [Fraction(rng.randrange(-2, 3)) for _ in range(n_vars)]
            for _ in range(n_vars)
        ]
        try:
            inv = mat_inverse(cols)
            break
        except ValueError:
            continue
    images = [
        MultiPoly.from_terms(
            ring,
            [
                (tuple(1 if t == j else 0 for t in range(n_vars)), cols[r][j])
                for j in range(n_vars)
                if cols[r][j]
            ],
        )
        for r in range(n_vars)
    ]
    h = h0.substitute(images)  # h(x) = h0(C x) with C = cols
    # direction: y inside the cone of h0 (y0 = 1, small other coords), e = C^-1 y
    while True:
        y = [Fraction(1)] + [
            Fraction(rng.randrange(-1, 2), 4) for _ in range(n_vars - 1)
        ]
        if eval_reference(h0, y).re > 0:
            break
    e = tuple(
        sum(inv[r][k] * y[k] for k in range(n_vars)) for r in range(n_vars)
    )
    assert eval_reference(h, e).re == eval_reference(h0, y).re
    return h, e


class TestEndToEnd:
    def test_random_hyperbolic_quadratics(self):
        rng = random.Random(137)
        sizes = []
        for trial in range(100):
            n_vars = 3 if trial % 5 == 0 else 2
            h, e = random_hyperbolic_quadratic(rng, n_vars)
            rep = quadratic_detrep(h, e)
            assert rep.report.ok
            assert rep.scalar > 0
            report = verify_pencil(list(rep.pencil), h, rep.power, e, up_to_scalar=True)
            assert report.ok and report.scalar == rep.scalar
            sizes.append(rep.pencil[0].size)
        assert max(sizes) <= 512

    def test_sampled_agreement_on_a_few(self):
        rng = random.Random(139)
        for _ in range(5):
            h, e = random_hyperbolic_quadratic(rng, 2)
            rep = quadratic_detrep(h, e)
            assert rep.report.ok
            verdict = is_hyperbolic_sampled(h, e, samples=100, seed=41)
            assert verdict.status == STATUS_NO_COUNTEREXAMPLE


@st.composite
def hyperbolic_quadrics(draw):
    """(h, e, paper): a*x0^2 - c1*x1^2 - c2*x2^2 in n = 2..6 variables, at
    most two c_k nonzero (none: a zero branch), perhaps negated so that
    h(e) < 0, pulled back through an invertible integer congruence C = L*U;
    e = C^-1 y for a y inside the cone.  ``paper`` asks for the paper's
    table when the branch has at most 4 squares."""
    n = draw(st.sampled_from([6, 5, 4, 3, 2]))
    values = [draw(st.sampled_from([1, 2, 3, 4, 7])) for _ in range(min(n - 1, draw(st.sampled_from([2, 1, 0]))))]
    diagonal = [draw(st.integers(1, 3))] + [-c for c in values] + [0] * (n - 1 - len(values))
    small = st.integers(-1, 1)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[draw(st.sampled_from([-1, 1])) if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
    cong = [[Fraction(sum(lower[i][k] * upper[k][j] for k in range(n))) for j in range(n)] for i in range(n)]
    ring = Ring.standard(tuple(f"x{k}" for k in range(n)))
    units = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    rows = [MultiPoly.from_terms(ring, [(u, c) for u, c in zip(units, row) if c]) for row in cong]
    sign = draw(st.sampled_from([1, -1]))
    h = MultiPoly.zero(ring)
    for d, row in zip(diagonal, rows):
        if d:
            h = h + (row * row).scale(sign * d)
    y = [Fraction(1)] + [Fraction(draw(small), 4) for _ in range(n - 1)]
    inverse = mat_inverse(cong)
    e = tuple(sum(inverse[r][k] * y[k] for k in range(n)) for r in range(n))
    return h, e, draw(st.booleans())


class TestSlicesFromTheTable:
    """quadratic_detrep reads each slice off the generator table; the
    reference builds the same pencil through polynomial matrices."""

    @staticmethod
    def _agrees(h, e, generators):
        rep = quadratic_detrep(h, e, generators)
        pencil, r, c = quadratic_detrep_reference(h, e, generators)
        assert rep.report.ok
        assert (list(rep.pencil), rep.power, rep.scalar) == (pencil, r, c)
        return rep

    @given(hyperbolic_quadrics())
    def test_slices_match_the_polynomial_route(self, drawn):
        h, e, paper = drawn
        nf = normalize_at_direction(h, e)
        k = len(rational_sos_quadratic(nf.branch, nf.scale**2))
        self._agrees(h, e, clifford_generators if paper and k <= 4 else hurwitz_radon)

    @pytest.mark.parametrize("generators", [hurwitz_radon, clifford_generators])
    @pytest.mark.parametrize(
        "text",
        [
            "x1^2 - x0^2",  # h(e) < 0 with one branch square: split as 3/5, 4/5 under the compact table
            "(x0 + x1)^2",  # a zero branch: ell*I of size 4
            "0 - (x0 + x1)^2",
            "3*x1^2 - x0^2",
        ],
    )
    def test_split_and_zero_branch(self, generators, text):
        self._agrees(parse(text, R2), (1, 0), generators)

    @pytest.mark.parametrize("text", ["x0^2 - x1^2 - x2^2", "x2^2 - x0^2", "(x0 + x1 - x2)^2"])
    def test_no_polynomial_matrix_is_built(self, monkeypatch, text):
        def tripwire(*args, **kwargs):
            raise AssertionError("polynomial matrix built on the quadric path")

        monkeypatch.setattr(PolyMatrix, "__init__", tripwire)
        monkeypatch.setattr(detrep, "polymatrix_to_pencil", tripwire)
        monkeypatch.setattr(clifford, "build_Q", tripwire)
        assert quadratic_detrep(parse(text, R3), (1, 0, 0)).report.ok
