"""Sampled hyperbolicity/interlacing and exact pencil certification."""

import random
from fractions import Fraction

import pytest
import sympy

from hypercert.detrep import polymatrix_to_pencil, verify_pencil
from hypercert.fixtures import load_fixture_matrix, load_fixture_poly
from hypercert.hyperbolicity import (
    REASON_INTERLACER_NOT_REAL_ROOTED,
    REASON_NOT_REAL_ROOTED,
    STATUS_NO_COUNTEREXAMPLE,
    STATUS_REFUTED,
    interlaces_sampled,
    is_hyperbolic_sampled,
    sample_direction,
)
from hypercert.polyring import Ring, UniPoly, parse, restrict_to_line
from hypercert.realroots import interlaces_univariate, is_real_rooted
from hypercert.scalars import ConstMatrix
from oracles import (coeff_product, coeff_sum, const_matrix, directional_derivative, eval_reference,
                     sympy_restriction)

R2 = Ring.standard(("x0", "x1"))
R3 = Ring.standard(("x0", "x1", "x2"))
R4 = Ring.standard(("x0", "x1", "x2", "x3"))

LORENTZ = parse("x0^2 - x1^2 - x2^2", R3)
SPHERE = parse("x0^2 + x1^2 + x2^2", R3)


def lagrange_interpolate(points):
    """Independent reconstruction of a univariate polynomial from samples."""
    return UniPoly(coeff_sum(*(
        coeff_product([yk], *([-xj / (xk - xj), 1 / (xk - xj)] for j, (xj, _) in enumerate(points) if j != k))
        for k, (xk, yk) in enumerate(points)
    )))


class TestSampling:
    def test_lorentz_quadric_no_counterexample(self):
        verdict = is_hyperbolic_sampled(LORENTZ, (1, 0, 0), samples=200, seed=3)
        assert verdict.status == STATUS_NO_COUNTEREXAMPLE
        assert verdict.samples_run == 200

    def test_sphere_refuted_with_sound_witness(self):
        verdict = is_hyperbolic_sampled(SPHERE, (1, 0, 0), samples=50, seed=3)
        assert verdict.status == STATUS_REFUTED
        w = verdict.witness
        assert w is not None
        # Independent re-verification: rebuild the restriction by Lagrange
        # interpolation of pointwise evaluations, then re-run Sturm.
        pts = []
        for k in range(3):
            t = Fraction(k)
            pts.append((t, eval_reference(SPHERE, [t * e - v for e, v in zip((1, 0, 0), w.v)]).re))
        rebuilt = lagrange_interpolate(pts)
        assert rebuilt == w.restricted
        assert not is_real_rooted(rebuilt)

    def test_elementary_symmetric_cubic(self):
        h = parse("x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3", R4)
        verdict = is_hyperbolic_sampled(h, (1, 1, 1, 1), samples=500, seed=11)
        assert verdict.status == STATUS_NO_COUNTEREXAMPLE

    def test_determinism(self):
        a = is_hyperbolic_sampled(SPHERE, (1, 0, 0), samples=40, seed=5)
        b = is_hyperbolic_sampled(SPHERE, (1, 0, 0), samples=40, seed=5)
        assert a.to_json_dict() == b.to_json_dict()
        c = is_hyperbolic_sampled(SPHERE, (1, 0, 0), samples=40, seed=6)
        assert a.seed != c.seed

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_raise(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            is_hyperbolic_sampled(SPHERE, (1, 0, 0), samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            interlaces_sampled(parse("x0", R3), SPHERE, (1, 0, 0), samples=samples)

    def test_box_up_to_2_pow_255_minus_1_samples(self):
        # 2*box + 1 = 2^256 - 1: each digest gives one coordinate, kept when below the base.
        box = (1 << 255) - 1
        v = sample_direction(4, 0, 3, box)
        assert len(v) == 3 and all(-box <= c <= box for c in v)
        verdict = is_hyperbolic_sampled(LORENTZ, (1, 0, 0), samples=5, seed=4, box=box)
        assert verdict.status == STATUS_NO_COUNTEREXAMPLE and verdict.samples_run == 5

    def test_box_of_2_pow_255_raises(self):
        # 2*box + 1 > 2^256 left no digest below the rejection limit 0, and the draw never ended.
        with pytest.raises(ValueError, match=r"box must be at most 2\^255 - 1"):
            is_hyperbolic_sampled(LORENTZ, (1, 0, 0), box=1 << 255)
        with pytest.raises(ValueError, match=r"box must be at most 2\^255 - 1"):
            interlaces_sampled(parse("x0", R3), LORENTZ, (1, 0, 0), box=1 << 255)

    def test_sample_stream_is_order_independent(self):
        first = [sample_direction(9, k, 3, 50) for k in range(10)]
        shuffled_indices = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
        again = {k: sample_direction(9, k, 3, 50) for k in shuffled_indices}
        for k in range(10):
            assert again[k] == first[k]

    def test_every_coordinate_varies_at_large_arity_and_box(self):
        # (2*10^8 + 1)^12 is far above 2^256: one digest cannot fill all
        # twelve coordinates, and a single-digest sampler pinned the last
        # ones at -box.
        draws = [sample_direction(1, k, 12, 10**8) for k in range(200)]
        for coord in range(12):
            assert len({d[coord] for d in draws}) > 190

    def test_further_coordinates_come_from_chained_digests(self):
        import hashlib

        # Nine base-(2*10^8 + 1) digits fit one digest; the tenth coordinate
        # is the first digit of SHA-256("seed:index:1").
        box = 10**8
        v = sample_direction(3, 5, 12, box)
        assert v[:9] == sample_direction(3, 5, 9, box)
        block = int.from_bytes(hashlib.sha256(b"3:5:1").digest(), "big")
        assert v[9] == block % (2 * box + 1) - box

    def test_digest_in_the_biased_tail_is_rehashed(self):
        import hashlib

        # At box 50 one digest gives 38 digits, and 2^256 is not a multiple
        # of 101^38: a digest at or above 101^38 * floor(2^256 / 101^38)
        # would draw the last coordinate's top values too rarely, so it is
        # replaced by SHA-256("seed:index/1").
        base = 101
        limit = (1 << 256) // base**38 * base**38
        assert int.from_bytes(hashlib.sha256(b"5:8").digest(), "big") >= limit
        value = int.from_bytes(hashlib.sha256(b"5:8/1").digest(), "big")
        assert value < limit
        expected = []
        for _ in range(38):
            value, digit = divmod(value, base)
            expected.append(digit - 50)
        assert sample_direction(5, 8, 38, 50) == tuple(expected)

    @pytest.mark.parametrize(
        "seed, arity, box, first",
        [
            (90402, 5, 10, [(8, 7, 9, -1, -4), (4, 9, -7, -9, 8), (0, 5, -8, 0, 6)]),  # F4
            (7, 4, 50, [(48, 18, -12, -35), (46, 45, 41, -32), (-36, 22, 28, 16)]),  # F5
            (7, 3, 50, [(48, 18, -12), (46, 45, 41), (-36, 22, 28)]),  # F5 control
        ],
    )
    def test_outputs_pinned_at_fixture_parameters(self, seed, arity, box, first):
        assert [sample_direction(seed, k, arity, box) for k in range(3)] == first

    def test_direction_equal_to_sample_is_skipped(self):
        # h = x0^2 is real-rooted along every line, whatever the direction
        # with nonzero first coordinate; pick e equal to sample 0.
        h = parse("x0^2", R2)
        seed = next(
            s for s in range(100) if sample_direction(s, 0, 2, 50)[0] != 0
        )
        e = sample_direction(seed, 0, 2, 50)
        expected_skips = sum(
            1 for k in range(20) if sample_direction(seed, k, 2, 50) == e
        )
        verdict = is_hyperbolic_sampled(h, e, samples=20, seed=seed)
        assert verdict.samples_run == 20 - expected_skips
        assert expected_skips >= 1

    def test_vanishing_at_e_rejected(self):
        with pytest.raises(ValueError):
            is_hyperbolic_sampled(LORENTZ, (1, 1, 0), samples=10, seed=0)

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            is_hyperbolic_sampled(parse("x0^2 + x1", R2), (1, 0), samples=10, seed=0)


class TestInterlacerSampling:
    def test_directional_derivative_of_product(self):
        h = parse("(x0 - 2*x1)*(x0 + 2*x1)*(x0 - x2)", R3)
        g = directional_derivative(h, (1, 0, 0))
        verdict = interlaces_sampled(g, h, (1, 0, 0), samples=100, seed=13)
        assert verdict.status == STATUS_NO_COUNTEREXAMPLE

    def test_cubic_surface_interlacer(self):
        h = parse("x0^3 - x0*(2*x1^2 + 2*x2^2 + x3^2) + x1^3 + x1*x2^2", R4)
        g = parse("x0*(x0 - x1)", R4)
        verdict = interlaces_sampled(g, h, (1, 0, 0, 0), samples=200, seed=17)
        assert verdict.status == STATUS_NO_COUNTEREXAMPLE

    def test_refuted_with_oracle_predicted_witness(self):
        # h = x0^2 - x1^2 restricted along t*e - v has roots v0 +- v1; the
        # candidate g = x0 - 3*x1 restricts to a root at v0 - 3*v1, which
        # interlaces only when v1 = 0.  The first sampled line with v1 != 0
        # (and v != e) must be the reported witness.
        h = parse("x0^2 - x1^2", R2)
        g = parse("x0 - 3*x1", R2)
        e = (1, 0)
        seed, samples = 19, 50
        expected = None
        for k in range(samples):
            v = sample_direction(seed, k, 2, 50)
            if v == e:
                continue
            if v[1] != 0:
                expected = tuple(Fraction(c) for c in v)
                break
        assert expected is not None
        verdict = interlaces_sampled(g, h, e, samples=samples, seed=seed)
        assert verdict.status == STATUS_REFUTED
        assert verdict.witness.v == expected
        # Oracle re-check on the witness line: g restricts to t - (v0 - 3*v1).
        fh = restrict_to_line(h, e, verdict.witness.v)
        fg = restrict_to_line(g, e, verdict.witness.v)
        assert is_real_rooted(fh) and is_real_rooted(fg)
        assert not interlaces_univariate(fh, fg)
        v0, v1 = verdict.witness.v
        assert fg.eval(v0 - 3 * v1) == 0

    def test_interlacer_vanishing_at_e_rejected(self):
        h = parse("x0^2 - x1^2", R2)
        g = parse("x1", R2)
        with pytest.raises(ValueError):
            interlaces_sampled(g, h, (1, 0), samples=10, seed=0)

    def test_degree_mismatch_rejected(self):
        h = parse("x0^2 - x1^2", R2)
        with pytest.raises(ValueError):
            interlaces_sampled(h, h, (1, 0), samples=10, seed=0)


# interlaces_univariate raises NotRealRootedError when either restriction
# has a nonreal root; the sampling loop turns it into the reason.  (h, g,
# reason, the one of h and g whose restriction is not real-rooted.)
RAISED_REFUTATIONS = {
    "interlacer": ("x0^3 - x0*x1^2 - x0*x2^2", "x0^2 + x1^2 + x2^2", REASON_INTERLACER_NOT_REAL_ROOTED, "g"),
    "h": ("x0^3 + x1^3 + x2^3 - x0*x1*x2", "x0^2 - x1^2", REASON_NOT_REAL_ROOTED, "h"),
}


def assert_raised_refutation(case, witness):
    """The witness line {"v", "restricted_poly", "reason"} of a refutation in
    RAISED_REFUTATIONS, re-checked by sympy: the named restriction has fewer
    real roots, counted with multiplicity, than its degree, the other one all
    of them, and the reported polynomial is h's restriction."""
    h, g, reason, bad = RAISED_REFUTATIONS[case]
    assert witness["reason"] == reason
    restricted = {which: sympy_restriction(text, ("x0", "x1", "x2"), (1, 0, 0), witness["v"])
                  for which, text in (("h", h), ("g", g))}
    for which, poly in restricted.items():
        assert (len(sympy.real_roots(poly)) < poly.degree()) == (which == bad), which
    assert sympy_restriction(witness["restricted_poly"], ("t",), (1,), (0,)) == restricted["h"]


class TestRaisedRefutations:
    @pytest.mark.parametrize("case", RAISED_REFUTATIONS)
    def test_reason_and_witness(self, case):
        h, g, _, _ = RAISED_REFUTATIONS[case]
        verdict = interlaces_sampled(parse(g, R3), parse(h, R3), (1, 0, 0), seed=0)
        assert verdict.status == STATUS_REFUTED
        assert_raised_refutation(case, verdict.witness.to_json_dict())


class TestCertification:
    def test_quadric_pencil_certificate(self):
        pencil = [
            const_matrix([[1, 0], [0, 1]], "symmetric"),
            const_matrix([[1, 0], [0, -1]], "symmetric"),
            const_matrix([[0, 1], [1, 0]], "symmetric"),
        ]
        report = verify_pencil(pencil, LORENTZ, 1, (1, 0, 0), up_to_scalar=True)
        assert report.scalar == 1
        assert report.ok

    def test_reducible_cubic_certificate(self):
        matrix = load_fixture_matrix("F1_matrix.json")
        h = load_fixture_poly("F1_poly.txt")
        report = verify_pencil(polymatrix_to_pencil(matrix), h, 1, (1, 0, 0, 0), up_to_scalar=True)
        assert report.ok and report.scalar == 1

    def test_pd_failure_gives_no_certificate(self):
        pencil = [
            const_matrix([[1, 0], [0, 1]], "symmetric"),
            const_matrix([[1, 0], [0, -1]], "symmetric"),
            const_matrix([[0, 1], [1, 0]], "symmetric"),
        ]
        report = verify_pencil(pencil, LORENTZ, 1, (0, 1, 0), up_to_scalar=True)
        assert not report.ok
        assert any(f.name == "positive-definite" for f in report.failures)

    def test_power_zero_gives_no_certificate(self):
        # The empty pencil would "certify" h^0 = 1 for a non-hyperbolic h.
        h = parse("x0^2 + x1^2 + x2^2 + 5*x0*x1", R3)
        assert is_hyperbolic_sampled(h, (1, 0, 0), samples=50, seed=0).status == STATUS_REFUTED
        with pytest.raises(ValueError, match="at least 1"):
            verify_pencil([ConstMatrix([], "symmetric")] * 3, h, 0, (1, 0, 0), up_to_scalar=True)

    def test_certified_implies_sampled(self):
        cases = [
            (LORENTZ, 1, (1, 0, 0), [
                const_matrix([[1, 0], [0, 1]], "symmetric"),
                const_matrix([[1, 0], [0, -1]], "symmetric"),
                const_matrix([[0, 1], [1, 0]], "symmetric"),
            ]),
        ]
        matrix = load_fixture_matrix("F1_matrix.json")
        h1 = load_fixture_poly("F1_poly.txt")
        cases.append((h1, 1, (1, 0, 0, 0), polymatrix_to_pencil(matrix)))
        matrix2 = load_fixture_matrix("F2_matrix.json")
        h2 = load_fixture_poly("F2_poly.txt")
        cases.append((h2, 1, (1, 0, 0, 0), polymatrix_to_pencil(matrix2)))
        for h, r, e, pencil in cases:
            assert verify_pencil(pencil, h, r, e, up_to_scalar=True).ok
            verdict = is_hyperbolic_sampled(h, e, samples=500, seed=23)
            assert verdict.status == STATUS_NO_COUNTEREXAMPLE
