"""Acceptance gate: every exit criterion, exact arithmetic, stated runtime
budgets.  One printed pass/fail line per criterion (run with -s to see them
on success)."""

import random
import time
from fractions import Fraction

from hypercert import quadratic
from hypercert.clifford import build_Q, clifford_generators
from hypercert.detrep import (
    const_det,
    pencil_to_polymatrix,
    poly_det,
    verify_pencil,
)
from hypercert.fixtures import run_fixture
from hypercert.hyperbolicity import STATUS_NO_COUNTEREXAMPLE, is_hyperbolic_sampled
from hypercert.polyring import MultiPoly, Ring, parse, restrict_to_line
from hypercert.realroots import interlaces_univariate, is_real_rooted
from hypercert.scalars import ConstMatrix
from oracles import (const_matrix, count_distinct_roots, eval_reference, from_roots, gram_of, leibniz_det,
                     unipoly_product)

from test_detrep import random_sparse_matrix
from test_hyperbolicity import lagrange_interpolate
from test_quadratic import random_hyperbolic_quadratic


def _report(number: int, description: str, ok: bool, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {description} [{elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} exceeded its runtime budget"


def _timed_fixture(fixture_id: str):
    start = time.perf_counter()
    result = run_fixture(fixture_id)
    return result, time.perf_counter() - start


def test_criterion_1_reducible_cubic():
    result, elapsed = _timed_fixture("F1")
    _report(1, "F1 symmetric 3x3: exact determinant, PD at e", result.ok, elapsed, 1.0)


def test_criterion_2_cubic_surface():
    result, elapsed = _timed_fixture("F2")
    _report(2, "F2 hermitian 3x3: exact determinant, PD at e", result.ok, elapsed, 1.0)


def test_criterion_3_ternary_quartic():
    result, elapsed = _timed_fixture("F3")
    _report(3, "F3 involutive 2x2: A^2 = p*I and the three-square identity", result.ok, elapsed, 1.0)


def test_criterion_4_pluecker_chow():
    result, elapsed = _timed_fixture("F4")
    _report(4, "F4 Pluecker 4x4: hermitian, 2I at E, vanishing on 20 incident lines", result.ok, elapsed, 10.0)


def test_criterion_5_sampled_hyperbolicity():
    result, elapsed = _timed_fixture("F5")
    _report(5, "F5 elementary symmetric cubic sampled, control refuted exactly", result.ok, elapsed, 30.0)


def test_criterion_6_quadratic_pipeline():
    result, elapsed = _timed_fixture("F6")
    _report(6, "F6 quadratic pipeline: 8x8 with det = 256*h^4, and the 32x32 shortcut", result.ok, elapsed, 60.0)


def test_criterion_7_property_suites():
    start = time.perf_counter()
    ok = True

    # Clifford generator invariants, exhaustive for n <= 6 (the constructor
    # asserts the Hurwitz equations over every basis column).
    for n in range(1, 7):
        gens = clifford_generators(n)
        ok = ok and gens.dimension == 1 << n

    # Q^2 = P*I and trace 0 for 100 random form lists with k <= 4.
    rng = random.Random(211)
    ring3 = Ring.standard(("x1", "x2", "x3"))
    from test_clifford import random_forms

    for _ in range(100):
        k = rng.randrange(1, 5)
        forms = random_forms(rng, ring3, k, rng.choice((2, 3)))
        q = build_Q(forms)  # exact internal assertions
        ok = ok and q.trace().is_zero() and q.kind_violation() is None

    # Bareiss = Leibniz on 200 random sparse matrices of size <= 4.
    gring = Ring.standard(("x0", "x1"), gaussian=True)
    ring2 = Ring.standard(("x0", "x1", "x2"))
    for trial in range(200):
        ring = ring2 if trial % 2 else gring
        m = random_sparse_matrix(rng, ring, rng.randrange(1, 5), gaussian=ring.gaussian)
        ok = ok and poly_det(m) == leibniz_det(m)

    # Sturm counts against constructed rational roots, 100 cases.
    for _ in range(100):
        distinct = sorted({Fraction(rng.randrange(-8, 9), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 6))})
        mults = [rng.randrange(1, 3) for _ in distinct]
        f = unipoly_product(*(from_roots([root] * mult) for root, mult in zip(distinct, mults)))
        ok = ok and count_distinct_roots(f) == len(distinct)

    # interlaces(f, f') for 100 random real-rooted f.
    for _ in range(100):
        roots = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(rng.randrange(2, 6))]
        f = from_roots(roots)
        ok = ok and interlaces_univariate(f, f.derivative())

    # End-to-end quadratic pipeline with a posteriori certification, 100 cases.
    for trial in range(100):
        n_vars = 3 if trial % 5 == 0 else 2
        h, e = random_hyperbolic_quadratic(rng, n_vars)
        rep = quadratic.quadratic_detrep(h, e)
        report = verify_pencil(list(rep.pencil), h, rep.power, e, up_to_scalar=True)
        ok = ok and rep.report.ok and report.ok and report.scalar == rep.scalar

    elapsed = time.perf_counter() - start
    _report(7, "property suites (Clifford, Q^2, Bareiss=Leibniz, Sturm, Rolle, pipeline)", ok, elapsed, 300.0)


def test_criterion_8_witness_soundness():
    start = time.perf_counter()
    rng = random.Random(223)
    emitted = 0
    reverified = 0

    # (a) Hyperbolicity refutation witnesses: re-verify by rebuilding each
    # restriction from pointwise evaluations (Lagrange) and re-running Sturm.
    ring3 = Ring.standard(("x0", "x1", "x2"))
    refuted = 0
    while refuted < 25:
        items = []
        for _ in range(rng.randrange(2, 6)):
            expo = [0, 0, 0]
            for _ in range(2):
                expo[rng.randrange(3)] += 1
            items.append((tuple(expo), Fraction(rng.randrange(-5, 6))))
        h = MultiPoly.from_terms(ring3, items)
        if h.is_zero():
            continue
        e = (1, 0, 0)
        if eval_reference(h, e).re == 0:
            continue
        verdict = is_hyperbolic_sampled(h, e, samples=60, seed=rng.randrange(10**6))
        if verdict.witness is None:
            continue
        refuted += 1
        emitted += 1
        w = verdict.witness
        deg = w.restricted.degree
        points = []
        for k in range(deg + 1):
            t = Fraction(k)
            points.append((t, eval_reference(h, [t * ei - vi for ei, vi in zip(e, w.v)]).re))
        rebuilt = lagrange_interpolate(points)
        if rebuilt == w.restricted and not is_real_rooted(rebuilt):
            reverified += 1

    # (b) Indefiniteness vectors: p(v) < 0 by direct evaluation.
    ring = Ring.standard(("x1", "x2", "x3"))
    from test_quadratic import random_quadratic

    found = 0
    while found < 25:
        p = random_quadratic(rng, ring)
        if p.is_zero():
            continue
        try:
            quadratic.rational_sos_quadratic(*gram_of(p))
        except quadratic.IndefiniteFormError as err:
            emitted += 1
            found += 1
            if eval_reference(p, err.witness).re < 0:
                reverified += 1

    # (c) Positive-definiteness failures: re-check the named minor by an
    # independent determinant (Leibniz-style elimination on the submatrix).
    quadric = parse("x0^2 - x1^2 - x2^2", ring3)
    pencil = [
        const_matrix([[1, 0], [0, 1]], "symmetric"),
        const_matrix([[1, 0], [0, -1]], "symmetric"),
        const_matrix([[0, 1], [1, 0]], "symmetric"),
    ]
    for e_bad in ((0, 1, 0), (0, 0, 1), (-1, 0, 0), (1, 2, 0), (0, 1, 1)):
        report = verify_pencil(pencil, quadric, 1, e_bad)
        pd_failures = [f for f in report.failures if f.name == "positive-definite"]
        if not pd_failures:
            continue
        emitted += 1
        order = int(pd_failures[0].witness.split("order ")[1].split(" ")[0])
        from hypercert.scalars import pencil_value

        value = pencil_value(pencil, [Fraction(c) for c in e_bad])
        sub = ConstMatrix([row[:order] for row in value.entries[:order]], "none")
        if const_det(sub).re <= 0:
            reverified += 1

    # (d) Determinant mismatches: the reported difference is a real nonzero
    # polynomial; confirm by sampling the two sides at rational points.
    wrong = parse("x0^2 - x1^2 - 2*x2^2", ring3)
    report = verify_pencil(pencil, wrong, 1, (1, 0, 0))
    det_failures = [f for f in report.failures if f.name == "determinant"]
    if det_failures:
        emitted += 1
        det = poly_det(pencil_to_polymatrix(pencil, ring3))
        diff = det - wrong
        for _ in range(50):
            pt = [Fraction(rng.randrange(-9, 10)) for _ in range(3)]
            if eval_reference(diff, pt).re != 0:
                reverified += 1
                break

    ok = emitted > 0 and reverified == emitted
    elapsed = time.perf_counter() - start
    _report(
        8,
        f"negative-path soundness: {reverified}/{emitted} witnesses re-verified",
        ok,
        elapsed,
        300.0,
    )
