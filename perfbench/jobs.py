"""Seeded job lists for the three workloads.

``build(workload, seed, workdir)`` writes every input file a job needs into
``workdir`` and returns the job list.  A job is a dict:

    id      unique name, also the stem of its input files
    argv    arguments for ``hypercert.cli.main`` (paths relative to workdir)
    once    True for rows run once per run, before the repeated cycle
    expect  what the outcome checker must find (see check.py)

Rows marked ``once`` are the deterministic heavy rows (ROADMAP defect rows,
size ladders, pinned draws, slow fixtures), run once per run.  The seeded
cycle is repeated for the measured window.  A cycle holds a fixed list of
shapes with many draws each: a job's cost varies by up to a factor of two
between draws of one shape, and with many distinct jobs and few repeats a
run's mix, and so its quantiles, depend little on the seed.  Every random
choice comes from ``random.Random(f"{workload}:{seed}")``.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

import exact as ex

SAMPLES_HYPERBOLIC = 50
SAMPLES_INTERLACER = 10
DEFAULT_BOX = 50  # the CLI's default --box

WORKLOADS = ("sampling", "quadric", "verify")


def names(n: int) -> list[str]:
    return [f"x{k}" for k in range(n)]


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="ascii")
    return name


def _unimodular(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer U with det 1 and its inverse, from elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # row_i += c*row_j (left multiply)
        for r in range(n):  # inverse: column_j -= c*column_i (right multiply)
            inv[r][j] -= c * inv[r][i]
    return u, inv


def _positive_forms(rng, n, count, e, span=3):
    """Random integer linear forms, each positive at e."""
    forms = []
    while len(forms) < count:
        coeffs = [rng.randint(-span, span) for _ in range(n)]
        value = sum(c * x for c, x in zip(coeffs, e))
        if value:
            forms.append([c if value > 0 else -c for c in coeffs])
    return forms


def _expected_samples(e, seed, samples, arity):
    """Lines the CLI tests: every sampled v except v == e."""
    return sum(1 for i in range(samples) if ex.sample_direction(seed, i, arity, DEFAULT_BOX) != tuple(e))


def _expected_witness(h, e, seed, samples, arity):
    run = 0
    for i in range(samples):
        v = ex.sample_direction(seed, i, arity, DEFAULT_BOX)
        if v == tuple(e):
            continue
        run += 1
        if not ex.is_real_rooted(ex.restrict(h, e, v)):
            return run, list(v)
    raise ValueError("control is not refuted on the sampled lines")


# -- sampling ----------------------------------------------------------------


def _hyperbolic_inputs(rng, family, n, d):
    """(h, e): e_d in n variables at a positive point, or a product of d
    linear forms positive at e seen through a unimodular change of
    coordinates."""
    if family == "ek":
        return ex.elementary_symmetric(n, d), [rng.randint(1, 3) for _ in range(n)]
    e0 = [rng.randint(-2, 2) for _ in range(n)]
    e0[0] = rng.randint(1, 2)
    forms = _positive_forms(rng, n, d, e0)
    h0 = ex.poly_prod([ex.linear(f) for f in forms], n)
    u, inv = _unimodular(rng, n, n)
    h = ex.substitute_linear(h0, u)  # h(y) = h0(U y), hyperbolic along U^-1 e0
    e = [sum(inv[r][c] * e0[c] for c in range(n)) for r in range(n)]
    return h, e


# The shapes (which set the cost) are fixed; the seed draws coefficients,
# directions and sampler seeds.  A job's cost still varies by a factor of
# two between draws of one shape (a coefficient of variation of about
# 0.25), so products and interlacers get eight draws per shape and e_k two,
# and the largest shapes stay small enough (at most 35 terms in h for
# products) that no handful of jobs makes up the top decile.
EK_SHAPES = [(n, d) for n in (4, 5, 6) for d in range(2, n + 1)]
PRODUCT_SHAPES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (5, 3)]
INTERLACER_SHAPES = [("ek", 4, 3), ("ek", 5, 4), ("ek", 6, 3), ("prod", 3, 3), ("prod", 3, 4), ("prod", 4, 3)]
CONTROL_SHAPES = [(3, 1), (4, 2), (5, 3), (3, 2), (4, 1), (5, 2), (4, 3)]
DRAWS = 8
EK_DRAWS = 2
CONTROL_DRAWS = 2  # 14 controls, about 10% of the cycle


def _sampling(rng, workdir):
    jobs = []

    def add(jid, h, e, n, argv, expect):
        expect.update(h=ex.fmt_poly(h, names(n)), vars=names(n), e=[str(c) for c in e])
        jobs.append({"id": jid, "argv": argv, "once": False, "expect": expect})

    def hyperbolic_argv(jid, h, e, n, cli_seed):
        poly = _write(workdir, f"{jid}.txt", ex.poly_file(h, names(n)))
        return ["check-hyperbolic", "--poly", poly, f"--dir={ex.fmt_point(e)}",
                "--samples", str(SAMPLES_HYPERBOLIC), "--seed", str(cli_seed), "--json"]

    shapes = [("ek", n, d, k) for n, d in EK_SHAPES for k in range(EK_DRAWS)]
    shapes += [("prod", n, d, k) for n, d in PRODUCT_SHAPES for k in range(DRAWS)]
    for family, n, d, k in shapes:
        jid, cli_seed = f"{family}-n{n}-d{d}-{k}", rng.randrange(10**6)
        h, e = _hyperbolic_inputs(rng, family, n, d)
        runs = _expected_samples(e, cli_seed, SAMPLES_HYPERBOLIC, n)
        add(jid, h, e, n, hyperbolic_argv(jid, h, e, n, cli_seed),
            {"type": "sampled", "status": "no-counterexample", "samples_run": runs})
    for family, n, d, k in [s + (k,) for s in INTERLACER_SHAPES for k in range(DRAWS)]:
        jid, cli_seed = f"interlacer-{family}-n{n}-d{d}-{k}", rng.randrange(10**6)
        h, e = _hyperbolic_inputs(rng, family, n, d)
        poly = _write(workdir, f"{jid}.txt", ex.poly_file(h, names(n)))
        inter = _write(workdir, f"{jid}-g.txt", ex.poly_file(ex.directional_derivative(h, e), names(n)))
        argv = ["check-interlacer", "--poly", poly, "--interlacer", inter, f"--dir={ex.fmt_point(e)}",
                "--samples", str(SAMPLES_INTERLACER), "--seed", str(cli_seed), "--json"]
        runs = _expected_samples(e, cli_seed, SAMPLES_INTERLACER, n)
        add(jid, h, e, n, argv, {"type": "sampled", "status": "no-counterexample", "samples_run": runs})
    for k, (n, count) in enumerate(CONTROL_SHAPES * CONTROL_DRAWS):
        # Forms times a positive definite quadric: every sampled line not
        # through e meets the quadric in two non-real points.
        jid, cli_seed = f"control-n{n}-d{count + 2}-{k}", rng.randrange(10**6)
        e = [rng.randint(1, 2)] + [rng.randint(-2, 2) for _ in range(n - 1)]
        forms = _positive_forms(rng, n, count, e)
        extra = ex.linear([rng.randint(-2, 2) for _ in range(n)])
        q = ex.poly_add({tuple(2 * int(j == k) for j in range(n)): Fraction(1) for k in range(n)},
                        ex.poly_mul(extra, extra))
        h = ex.poly_mul(ex.poly_prod([ex.linear(f) for f in forms], n), q)
        runs, v = _expected_witness(h, e, cli_seed, SAMPLES_HYPERBOLIC, n)
        add(jid, h, e, n, hyperbolic_argv(jid, h, e, n, cli_seed),
            {"type": "sampled", "status": "refuted", "samples_run": runs, "v": v,
             "reason": "restriction-not-real-rooted"})
    jobs.append(_fixture("F5", once=True))
    return jobs


# -- quadric -----------------------------------------------------------------


def _mat_inverse(mat):
    """Gauss-Jordan inverse over Q; ValueError when singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_hyperbolic_quadratic(rng, n):
    """The test suite's family: a^2 x0^2 - sum b_k^2 xk^2 through a random
    rational congruence C, with a direction inside the cone.  Consumes the
    generator exactly as tests/test_quadratic.py does."""
    a = rng.randrange(1, 4)
    bs = [rng.randrange(0, 3) for _ in range(n - 1)]
    h0 = {(2,) + (0,) * (n - 1): Fraction(a * a)}
    for k, b in enumerate(bs):
        if b:
            h0[tuple(2 * int(j == k + 1) for j in range(n))] = Fraction(-b * b)
    while True:
        cols = [[Fraction(rng.randrange(-2, 3)) for _ in range(n)] for _ in range(n)]
        try:
            inv = _mat_inverse(cols)
            break
        except ValueError:
            continue
    h = ex.substitute_linear(h0, cols)
    while True:
        y = [Fraction(1)] + [Fraction(rng.randrange(-1, 2), 4) for _ in range(n - 1)]
        if ex.poly_eval(h0, y) > 0:
            break
    e = [sum(inv[r][k] * y[k] for k in range(n)) for r in range(n)]
    return h, e


def _quadric_job(workdir, jid, h, e, n, rng, once=False, expect_type="certified"):
    poly = _write(workdir, f"{jid}.txt", ex.poly_file(h, names(n)))
    argv = ["quadratic-detrep", "--poly", poly, f"--dir={ex.fmt_point(e)}", "--json"]
    point = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    expect = {"type": expect_type, "h": ex.fmt_poly(h, names(n)), "vars": names(n),
              "e": [str(c) for c in e], "point": [str(c) for c in point]}
    return {"id": jid, "argv": argv, "once": once, "expect": expect}


def _diagonal(coeffs):
    n = len(coeffs)
    return {tuple(2 * int(j == k) for j in range(n)): Fraction(c) for k, c in enumerate(coeffs) if c}


def _quadric(rng, workdir):
    jobs = []
    # Job times form groups with gaps between them: indefinite quadrics
    # (3-5 ms), the test family at n = 2 (3-8 ms), Lorentz forms (10-60 ms),
    # sos-to-detrep at k = 4 (70-110 ms).  A quantile at the edge of a group
    # jumps with the seed, so the group sizes put the median in the middle
    # of the n = 2 family (as many cheaper jobs as dearer ones) and p90
    # inside the k = 4 group.
    for idx in range(60):
        h, e = random_hyperbolic_quadratic(rng, 2)
        jobs.append(_quadric_job(workdir, f"family2-{idx:02d}", h, e, 2, rng))
    # A Lorentz job's cost follows the number of squares b needs: about
    # 10 ms for two, 20 ms for three and 50 ms for four.  So the residue of
    # b mod 8 is fixed per draw: in each band one draw is 7 mod 8 (four
    # squares, by Legendre) and five are odd or twice an odd and not 7 mod 8
    # (at most three), and a run's mix of costs does not depend on the seed.
    # Above 57 bits the four-square search itself takes 15 to 500 ms by
    # draw, so bands 6 and 7 run once, from a pinned stream.
    pinned = random.Random("quadric:lorentz")
    for idx in range(48):
        band = idx % 8
        src = pinned if band >= 6 else rng
        bits = min(72, 4 + 9 * band + src.randint(0, 8))  # six draws per 9-bit band
        while True:
            residue = 7 if idx // 8 == 0 else src.choice((1, 2, 3, 5, 6))
            b = (src.getrandbits(bits) | (1 << (bits - 1))) & ~7 | residue
            if math.isqrt(b) ** 2 != b:
                break
        jobs.append(_quadric_job(workdir, f"lorentz-band{band}-{idx // 8}", _diagonal([1, -b]), [1, 0], 2, rng,
                                 once=band >= 6))
    for idx in range(84):
        n = 3 + idx % 2
        coeffs = [rng.randint(1, 4)] + [-rng.randint(1, 4) for _ in range(n - 1)]
        coeffs[rng.randint(1, n - 1)] *= -1  # one positive branch coefficient: indefinite
        u, inv = _unimodular(rng, n, n)
        h = ex.substitute_linear(_diagonal(coeffs), u)
        e = [inv[r][0] for r in range(n)]  # U e = (1, 0, ..., 0)
        jobs.append(_quadric_job(workdir, f"indefinite-{idx:02d}", h, e, n, rng, expect_type="branch-sos"))
    # The cost grows fourfold per square (size 2^(k+1)).  k = 4 gets most
    # draws, so that the top decile of the job times falls inside one broad
    # group of similar jobs.  Coefficients are nonzero: a sparse form makes
    # a job up to twice as cheap, and would widen that group.
    for k, draws in ((1, 2), (2, 2), (3, 2), (4, 32), (5, 3), (6, 1)):
        for draw in range(draws):
            jid = f"sos-k{k}-{draw:02d}"
            forms = [ex.linear([rng.randint(1, 5)] + [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(2)])
                     for _ in range(k)]
            lines = ["ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false"] + [ex.fmt_poly(f, names(3)) for f in forms]
            squares = _write(workdir, f"{jid}.txt", "\n".join(lines) + "\n")
            point = [str(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3)]
            jobs.append({"id": jid, "argv": ["sos-to-detrep", "--squares", squares, "--json"], "once": False,
                         "expect": {"type": "companion", "squares": [ex.fmt_poly(f, names(3)) for f in forms],
                                    "vars": names(3), "point": point}})
    jobs.append(_fixture("F6", once=False))
    # Once rows.  The ROADMAP's two defect rows, kept as they are.
    jobs.append(_quadric_job(workdir, "defect-512", _diagonal([1, -7, -7]), [1, 0, 0], 3, rng, once=True))
    jobs.append(_quadric_job(workdir, "defect-8forms", _diagonal([1, -7, -7, -7]), [1, 0, 0, 0], 4, rng, once=True))
    # Unit Lorentz forms in 3..8 variables: pencils of size 8..256.
    for n in range(3, 9):
        jobs.append(_quadric_job(workdir, f"ladder-n{n}", _diagonal([1] + [-1] * (n - 1)), [1] + [0] * (n - 1),
                                 n, rng, once=True))
    # The test family at n = 3..6 costs 3 ms to 16 s per draw depending on
    # how many squares its branch form needs; one draw per n from a pinned
    # stream (the test suite's seed 137) keeps that cost equal across seeds.
    pinned = random.Random(137)
    for n in range(3, 7):
        h, e = random_hyperbolic_quadratic(pinned, n)
        jobs.append(_quadric_job(workdir, f"family{n}-pinned", h, e, n, rng, once=True))
    return jobs


# -- verify ------------------------------------------------------------------


def _gaussian_unimodular(rng, m, steps):
    """Gaussian-integer U with det 1, as rows of (re, im) pairs."""
    u = [[(int(i == j), 0) for j in range(m)] for i in range(m)]
    for _ in range(steps):
        i, j = rng.sample(range(m), 2)
        c = (rng.randint(-1, 1), rng.randint(-1, 1))
        u[i] = [(a[0] + c[0] * b[0] - c[1] * b[1], a[1] + c[0] * b[1] + c[1] * b[0]) for a, b in zip(u[i], u[j])]
    return u


def _congruent(u, diag):
    """U^* diag U with U given as (re, im) pairs; entries as (re, im)."""
    m = len(u)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            re_ = im_ = 0
            for k, d in enumerate(diag):
                if d:
                    a, b = u[k][i]  # conj(U[k][i]) = a - b i
                    c, e = u[k][j]
                    re_ += d * (a * c + b * e)
                    im_ += d * (a * e - b * c)
            row.append((re_, im_))
        out.append(row)
    return out


def _fmt_gaussian(z):
    re_, im_ = z
    if not im_:
        return str(re_)
    imag = "i" if im_ == 1 else "-i" if im_ == -1 else f"{im_}*i"
    if not re_:
        return imag
    return f"{re_}+{imag}" if im_ > 0 else f"{re_}{imag}"


def _dense_pencil(rng, workdir, jid, m, n, hermitian, variant, once):
    e = [rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(n - 1)]
    forms = _positive_forms(rng, n, m, e)
    if variant == "negative":
        flip = rng.randrange(m)
        forms[flip] = [-c for c in forms[flip]]
    if hermitian:
        u = _gaussian_unimodular(rng, m, 2 * m)
    else:
        u = [[(x, 0) for x in row] for row in _unimodular(rng, m, 2 * m)[0]]
    mats = [_congruent(u, [f[k] for f in forms]) for k in range(n)]
    if variant == "tampered":
        # A0 += e1*E00, A1 -= e0*E00: the value at e is unchanged, while det
        # changes by (e1*x0 - e0*x1) times a principal minor that is positive at e.
        mats[0][0][0] = (mats[0][0][0][0] + e[1], mats[0][0][0][1])
        mats[1][0][0] = (mats[1][0][0][0] - e[0], mats[1][0][0][1])
    h = ex.poly_prod([ex.linear(f) for f in forms], n)
    kind = "hermitian" if hermitian else "symmetric"
    pencil = {"vars": names(n), "gaussian": hermitian, "kind": kind,
              "matrices": [[[_fmt_gaussian(z) for z in row] for row in mat] for mat in mats]}
    _write(workdir, f"{jid}.json", json.dumps(pencil))
    _write(workdir, f"{jid}.txt", ex.poly_file(h, names(n), gaussian=hermitian))
    argv = ["verify-detrep", "--matrix", f"{jid}.json", "--poly", f"{jid}.txt", f"--dir={ex.fmt_point(e)}", "--json"]
    failures = {"valid": [], "tampered": ["determinant"], "negative": ["positive-definite"]}[variant]
    return {"id": jid, "argv": argv, "once": once, "expect": {"type": "verify", "failures": failures}}


# Draws per (m, n) shape and variant.  A draw's cost varies up to fourfold
# within one shape (m = 4, n = 3: 6 to 25 ms), so the median job is set by
# the draws; twenty per shape keep it steady over seeds.  m = 3 at n = 3
# gets more, so that the median job falls in the middle of the m = 4, n = 3
# groups, not in the gap below them.
VERIFY_DRAWS = {(3, 3): 30}
VERIFY_DEFAULT_DRAWS = 20


def _verify(rng, workdir, data_dir):
    jobs = []
    # The once rows have one draw per shape, and a draw's cost varies up to
    # threefold (dense m = 8 at n = 4: 1.2 to 3.5 s), so they come from a
    # pinned stream and cost the same for every seed.
    pinned = random.Random("verify:once")
    # Every variant, real and hermitian.  The cycle holds the small shapes;
    # m = 5 at n = 4 costs 3-5 times m = 5 at n = 3 and runs once per run,
    # so that a handful of its draws does not make up the top decile.
    for m, n in ((3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (5, 4)):
        for variant in ("valid", "tampered", "negative"):
            for hermitian in (False, True):
                once = (m, n) == (5, 4)
                for draw in range(1 if once else VERIFY_DRAWS.get((m, n), VERIFY_DEFAULT_DRAWS)):
                    jid = f"dense-m{m}-n{n}-{variant}-{'herm' if hermitian else 'sym'}-{draw}"
                    jobs.append(_dense_pencil(pinned if once else rng, workdir, jid, m, n, hermitian, variant, once))
    for name in ("F3_matrix.json", "F3_h.txt", "F3_p.txt"):
        shutil.copyfile(data_dir / name, workdir / name)
    jobs.append({"id": "F3-companion", "once": False,
                 "argv": ["verify-detrep", "--companion", "--matrix", "F3_matrix.json", "--poly", "F3_h.txt", "--json"],
                 "expect": {"type": "verify", "failures": []}})
    p_text = (data_dir / "F3_p.txt").read_text(encoding="ascii").splitlines()[1]
    jobs.append({"id": "F3-sos", "once": False,
                 "argv": ["detrep-to-sos", "--matrix", "F3_matrix.json", "--poly", "F3_p.txt", "--json"],
                 "expect": {"type": "sos", "p": p_text, "vars": names(3)}})
    for fid in ("F1", "F2", "F3", "F4"):
        jobs.append(_fixture(fid, once=False))
    # Once rows: the large dense pencils, one of each shape.
    for m in (6, 7, 8):
        for n in (3, 4):
            jobs.append(_dense_pencil(pinned, workdir, f"dense-m{m}-n{n}-valid-sym", m, n, False, "valid", True))
    return jobs


def _fixture(fid, once):
    return {"id": f"fixture-{fid}", "argv": ["fixtures", "run", "--id", fid, "--json"], "once": once,
            "expect": {"type": "fixtures"}}


def build(workload: str, seed: int, workdir: Path, data_dir: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sampling":
        jobs = _sampling(rng, workdir)
    elif workload == "quadric":
        jobs = _quadric(rng, workdir)
    elif workload == "verify":
        jobs = _verify(rng, workdir, data_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Interleave the cycle so that every prefix of it holds a mix of kinds.
    cycle = [j for j in jobs if not j["once"]]
    rng.shuffle(cycle)
    return [j for j in jobs if j["once"]] + cycle
