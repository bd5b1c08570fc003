"""Independent reference implementations used only by the tests."""

import json
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import gcd, lcm

from hypercert.detrep import (PolyMatrix, _match_values, _pencil_on_lattice, const_det, pencil_to_polymatrix, poly_det,
                              polymatrix_to_pencil)
from hypercert.polyring import (MultiPoly, ParseError, Ring, UniPoly, _evaluator, _exact, real_square_factorization,
                                sturm_chain)
from hypercert.realroots import _index
from hypercert.scalars import ConstMatrix, GaussianRational, as_fraction, four_square_decompose, pencil_value


def perm_sign(perm):
    """Sign of a permutation of range(n), from its cycle lengths."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(matrix):
    """Permutation-expansion determinant of a PolyMatrix (small sizes only)."""
    n = matrix.size
    if n > 6:
        raise ValueError("Leibniz expansion is only meant for small matrices")
    total = MultiPoly.zero(matrix.ring)
    for perm in permutations(range(n)):
        term = MultiPoly.constant(matrix.ring, perm_sign(perm))
        for i in range(n):
            term = term * matrix.rows[i][perm[i]]
            if term.is_zero():
                break
        total = total + term
    return total


def dense_generators(gens):
    """The dense 0/+-1 matrices of CliffordGenerators: column j of A_i holds
    signs[i][j] in row perms[i][j]."""
    dim = gens.dimension
    out = []
    for perm, sign in zip(gens.perms, gens.signs):
        rows = [[0] * dim for _ in range(dim)]
        for col in range(dim):
            rows[perm[col]][col] = sign[col]
        out.append(tuple(tuple(r) for r in rows))
    return out


def hurwitz_defect(gens):
    """The first (s, t) with M_s M_t^T + M_t M_s^T != 2*delta_st*I, or None,
    multiplying the dense matrices of ``gens`` as sparse row dicts."""
    mats = [{(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v} for m in dense_generators(gens)]

    def add_product_with_transpose(total, a, b):
        by_row = {}
        for (j, k), w in b.items():
            by_row.setdefault(k, []).append((j, w))
        for (i, k), v in a.items():
            for j, w in by_row.get(k, ()):
                total[(i, j)] = total.get((i, j), 0) + v * w

    for s, a in enumerate(mats):
        for t in range(s, len(mats)):
            total = {}
            add_product_with_transpose(total, a, mats[t])
            add_product_with_transpose(total, mats[t], a)
            expected = {(i, i): 2 for i in range(gens.dimension)} if s == t else {}
            if {ij: v for ij, v in total.items() if v} != expected:
                return (s, t)
    return None


def mat_inverse(mat):
    """Inverse of a square matrix of Fractions by Gauss-Jordan elimination;
    ValueError if it is singular."""
    n = len(mat)
    work = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def const_matrix(rows, kind="none"):
    """A ConstMatrix from rows of ints, Fractions or GaussianRationals."""
    return ConstMatrix([[GaussianRational(v) for v in row] for row in rows], kind)


def kind_violation_reference(rows, kind):
    """First (i, j), i <= j, row by row, where square rows of Gaussian
    rationals break ``kind``, compared entry by entry: symmetric needs
    a_ij = a_ji with no imaginary part, hermitian a_ij = conj(a_ji)."""
    if kind == "none":
        return None
    n = len(rows)
    for i in range(n):
        for j in range(i, n):
            a, b = rows[i][j], rows[j][i]
            if a != b.conj() if kind == "hermitian" else a != b or a.im:
                return (i, j)
    return None


def identity_matrix(n, kind="symmetric"):
    """The n x n identity as a ConstMatrix of the given kind."""
    return const_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], kind)


def transpose(matrix):
    """The transpose of a PolyMatrix, with the same kind tag."""
    n = matrix.size
    return PolyMatrix(matrix.ring, [[matrix.rows[j][i] for j in range(n)] for i in range(n)], matrix.kind)


def conjugate(matrix):
    """The entrywise complex conjugate of a PolyMatrix, with the same kind tag."""
    return PolyMatrix(matrix.ring, [[p.conjugate() for p in row] for row in matrix.rows], matrix.kind)


def scaled(matrix, c):
    """c times a ConstMatrix, with the same kind tag."""
    return ConstMatrix([[e.scale(as_fraction(c)) for e in row] for row in matrix.entries], matrix.kind)


def eval_reference(poly, point):
    """poly at a rational point, term by term in Gaussian rationals: each
    coefficient times repeated products of the coordinates."""
    coords = [GaussianRational(as_fraction(c)) for c in point]
    total = GaussianRational(0)
    for expo, coeff in poly.terms.items():
        term = coeff
        for c, n in zip(coords, expo):
            for _ in range(n):
                term = term * c
        total = total + term
    return total


def eval_at_reference(matrix, point):
    """A PolyMatrix at a rational point, entry by entry (eval_reference)."""
    return ConstMatrix([[eval_reference(p, point) for p in row] for row in matrix.rows], matrix.kind)


def ell_minus(ell, matrix):
    """ell*I - A for a polynomial ell in A's ring, with A's kind tag."""
    zero = MultiPoly.zero(matrix.ring)
    rows = [[(ell if i == j else zero) - p for j, p in enumerate(row)] for i, row in enumerate(matrix.rows)]
    return PolyMatrix(matrix.ring, rows, matrix.kind)


def clifford_q(forms, gens):
    """Q = [[0, S], [S^T, 0]] with S = sum G_t M_t, a symmetric PolyMatrix
    summed over the dense matrices M_t of the table ``gens``."""
    ring, dim = forms[0].ring, gens.dimension
    zero = MultiPoly.zero(ring)
    s = [[zero] * dim for _ in range(dim)]
    for g, dense in zip(forms, dense_generators(gens)):
        for i, row in enumerate(dense):
            for j, v in enumerate(row):
                if v:
                    s[i][j] = s[i][j] + g.scale(v)
    rows = [[zero] * dim + s[i] for i in range(dim)] + [[s[j][i] for j in range(dim)] + [zero] * dim for i in range(dim)]
    return PolyMatrix(ring, rows, "symmetric")


def linear_form(ring, coeffs):
    """sum_k coeffs[k]*x_k, coefficients rational."""
    units = [tuple(int(t == k) for t in range(ring.arity)) for k in range(ring.arity)]
    return MultiPoly.from_terms(ring, [(u, c) for u, c in zip(units, coeffs) if c])


def gram_of(p):
    """(rows, den): int rows with p(x) = x^T (rows/den) x for a real
    quadratic form p; den is twice the lcm of p's denominators."""
    n, den = p.ring.arity, 2 * lcm(*[c.re.denominator for c in p.terms.values()])
    rows = [[0] * n for _ in range(n)]
    for expo, c in p.terms.items():
        i, j = [k for k, v in enumerate(expo) for _ in range(v)]
        rows[i][j] += int(c.re * den / 2)
        rows[j][i] += int(c.re * den / 2)
    return rows, den


def form_of(ring, rows, den):
    """x^T (rows/den) x as a MultiPoly of ``ring``, one term per cell."""
    n = ring.arity
    return MultiPoly.from_terms(ring, [(tuple((k == i) + (k == j) for k in range(n)), Fraction(a, den))
                                       for i, row in enumerate(rows) for j, a in enumerate(row) if a])


def normal_form_reference(h, e):
    """(ring', alpha, q1, q2, branch, flipped, transform) of h at e, through
    polynomials: T^-1 (columns e, then the unit vectors but the first
    coordinate where e is nonzero) substituted into +-h, the result split
    by the power of u0, and branch = q1^2 - 4*alpha*q2.  alpha is |h(e)|."""
    n = h.ring.arity
    point = [as_fraction(c) for c in e]
    value = eval_reference(h, point).re
    flipped, alpha = value < 0, abs(value)
    pivot = next(k for k in range(n) if point[k])
    others = [j for j in range(n) if j != pivot]
    inverse = [[point[r]] + [Fraction(r == j) for j in others] for r in range(n)]
    ring = Ring.standard(tuple(f"u{k}" for k in range(n)))
    hp = (-h if flipped else h).substitute([linear_form(ring, row) for row in inverse])
    parts = ({}, {}, {})
    for expo, coeff in hp.terms.items():
        parts[expo[0]][(0,) + expo[1:]] = coeff
    q2, q1, top = (MultiPoly(ring, terms) for terms in parts)
    assert top == MultiPoly.constant(ring, alpha)
    return ring, alpha, q1, q2, q1 * q1 - q2.scale(4 * alpha), flipped, mat_inverse(inverse)


def diagonalize_reference(p):
    """[(c, row)]: p = sum c*(row . x)^2 by congruence elimination on
    Fractions, pivoting on the first nonzero diagonal entry, else splitting
    the first off-diagonal pair (i, j) by x_i = u + v, x_j = u - v."""
    rows, den = gram_of(p)
    n = len(rows)
    gram = [[Fraction(a, den) for a in row] for row in rows]
    inv = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    out = []
    while True:
        k = next((i for i in range(n) if gram[i][i]), None)
        if k is not None:
            a = gram[k][k]
            row = [gram[k][j] / a for j in range(n)]
            out.append((a, tuple(sum(row[t] * inv[t][s] for t in range(n)) for s in range(n))))
            gram = [[g - a * row[i] * row[j] for j, g in enumerate(grow)] for i, grow in enumerate(gram)]
            continue
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if gram[i][j]), None)
        if pair is None:
            return out
        i, j = pair
        for r in gram:
            r[i], r[j] = r[i] + r[j], r[i] - r[j]
        gi, gj, vi, vj = gram[i], gram[j], inv[i], inv[j]
        gram[i], gram[j] = [x + y for x, y in zip(gi, gj)], [x - y for x, y in zip(gi, gj)]
        inv[i], inv[j] = [(x + y) / 2 for x, y in zip(vi, vj)], [(x - y) / 2 for x, y in zip(vi, vj)]


def unit_preimage_reference(rows, target):
    """v with row_target . v = 1 and row_r . v = 0 otherwise, from the
    reduced row echelon form over Fractions with the free variables 0."""
    m, n = len(rows), len(rows[0])
    aug = [list(row) + [Fraction(r == target)] for r, row in enumerate(rows)]
    pivots = []
    for col in range(n):
        top = len(pivots)
        pivot = next((r for r in range(top, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[top], aug[pivot] = aug[pivot], aug[top]
        aug[top] = [v / aug[top][col] for v in aug[top]]
        for r in range(m):
            if r != top and aug[r][col]:
                aug[r] = [v - aug[r][col] * w for v, w in zip(aug[r], aug[top])]
        pivots.append((top, col))
    v = [Fraction(0)] * n
    for r, col in pivots:
        v[col] = aug[r][n]
    return tuple(v)


def sos_reference(p):
    """The forms sum g^2 = p of the rational SOS route on polynomials
    (:func:`diagonalize_reference`, then four squares of each coefficient),
    or ("indefinite", v) with v the witness of the first negative one."""
    diag = diagonalize_reference(p)
    negative = next((k for k, (c, _) in enumerate(diag) if c < 0), None)
    if negative is not None:
        return "indefinite", unit_preimage_reference([row for _, row in diag], negative)
    return [linear_form(p.ring, row).scale(q) for c, row in diag for q in four_square_decompose(c) if q]


def quadratic_detrep_reference(h, e, generators):
    """(pencil, r, c) that quadratic_detrep must return, built through
    polynomials: the normal form and branch of :func:`normal_form_reference`,
    its squares from :func:`sos_reference`, Q from the dense table over u,
    ell*I - Q with ell = 2*alpha*u0 + q1, u = T*x substituted into every
    entry, and the result cut into slices by polymatrix_to_pencil.  h(e) < 0
    with a 1x1 table splits the lone square g as (3g/5)^2 + (4g/5)^2; a zero
    branch gives ell*I of size 4."""
    ring, alpha, q1, _, branch, flipped, transform = normal_form_reference(h, e)
    forms = sos_reference(branch)
    ell = MultiPoly.variable(ring, "u0").scale(2 * alpha) + q1
    q = PolyMatrix(ring, [[MultiPoly.zero(ring)] * 4] * 4, "symmetric")
    if forms:
        q = clifford_q(forms, generators(len(forms)))
        if flipped and q.size % 4:
            q = clifford_q([forms[0].scale(Fraction(3, 5)), forms[0].scale(Fraction(4, 5))], generators(2))
    images = [linear_form(h.ring, row) for row in transform]
    rows = [[p.substitute(images) for p in row] for row in ell_minus(ell, q).rows]
    r = q.size // 2
    return polymatrix_to_pencil(PolyMatrix(h.ring, rows, "symmetric")), r, (4 * alpha) ** r


def json_strings_reference(value, where, depth=1):
    """The JSON string-list check item by item: the ParseError message for
    the first bad item by its index path, or None."""
    if not isinstance(value, list):
        return f"{where} must be a list, not {json.dumps(value)}"
    for k, item in enumerate(value):
        if depth > 1:
            message = json_strings_reference(item, f"{where}[{k}]", depth - 1)
            if message:
                return message
        elif not isinstance(item, str):
            return f"{where}[{k}] must be a string, not {json.dumps(item)}"
    return None


def leading_principal_minors(matrix):
    """All leading principal minors of a ConstMatrix, as Fractions: the
    prefix products of the pivots of Gaussian elimination over Q(i) without
    row swaps, ending at the first zero one.  An imaginary minor (a broken
    hermitian invariant) raises ArithmeticError."""
    rows = [list(row) for row in matrix.entries]
    minors, minor = [], GaussianRational(1)
    for k, row_k in enumerate(rows):
        minor = minor * row_k[k]
        if minor.im:
            raise ArithmeticError(f"leading principal minor {k + 1} is not real; hermitian invariant broken")
        minors.append(minor.re)
        if not minor:
            break
        for row in rows[k + 1 :]:
            factor = row[k] / row_k[k]
            row[k:] = [a - factor * b for a, b in zip(row[k:], row_k[k:])]
    return minors


def sylvester_reference(matrix):
    """(1-based order, value) of the first nonpositive leading minor of a
    ConstMatrix, or None, from :func:`leading_principal_minors`."""
    return next(((k + 1, v) for k, v in enumerate(leading_principal_minors(matrix)) if v <= 0), None)


# Univariate arithmetic on ascending lists of Fraction coefficients, which
# builds a UniPoly only from its result: the references and the polynomials
# the tests construct run on none of the library's own arithmetic.


def _coefficient_list(poly):
    """A UniPoly's or a list of rationals' Fraction coefficients, ascending."""
    return list(poly.coeffs) if isinstance(poly, UniPoly) else [as_fraction(c) for c in poly]


def coeff_sum(*polys):
    """The coefficient list of the sum of UniPolys or coefficient lists."""
    lists = [_coefficient_list(p) for p in polys]
    return [sum((c[k] for c in lists if k < len(c)), Fraction(0)) for k in range(max(map(len, lists), default=0))]


def coeff_product(*polys):
    """The coefficient list of the product of UniPolys or coefficient lists."""
    out = [Fraction(1)]
    for poly in map(_coefficient_list, polys):
        prod = [Fraction(0)] * max(len(out) + len(poly) - 1, 0)
        for i, a in enumerate(out):
            for j, b in enumerate(poly):
                prod[i + j] += a * b
        out = prod
    return out


def unipoly_product(*polys):
    """The product of UniPolys or coefficient lists, as a UniPoly."""
    return UniPoly(coeff_product(*polys))


def from_roots(roots, lead=1):
    """lead * prod (t - root) as a UniPoly."""
    return unipoly_product([lead], *([-as_fraction(root), 1] for root in roots))


def shift(f, q):
    """f(t + q) = sum_k c_k (t + q)^k for a UniPoly f."""
    return UniPoly(coeff_sum(*(coeff_product([c], *[[q, 1]] * k) for k, c in enumerate(f.coeffs))))


def sympy_restriction(text, names, e, v):
    """p(t*e - v) as a sympy Poly in t, for the polynomial ``text`` over the
    variables ``names``, read by sympy from the text alone."""
    import sympy

    t = sympy.Symbol("t")
    symbols = {name: sympy.Symbol(name) for name in names}
    expr = sympy.sympify(text.replace("^", "**"), locals=symbols)
    line = {symbols[n]: t * sympy.Rational(str(a)) - sympy.Rational(str(b)) for n, a, b in zip(names, e, v)}
    return sympy.Poly(expr.subs(line, simultaneous=True), t)


def count_distinct_roots(f, lo=None, hi=None):
    """Number of distinct real roots of f in (lo, hi]; None means +-infinity.

    Sturm's theorem holds on the full chain of (f, f'), squarefree or not.
    Finite endpoints must not be roots of f.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    lo_f = None if lo is None else as_fraction(lo)
    hi_f = None if hi is None else as_fraction(hi)
    for name, x in (("lo", lo_f), ("hi", hi_f)):
        if x is not None and not f.eval(x):
            raise ValueError(f"endpoint {name}={x} is a root; counting is ambiguous there")
    return _index(sturm_chain(f), lo_f, hi_f)


def sturm_chain_reference(f, g=None):
    """The signed remainder sequence f, g, -rem, ... over Q (g defaults to
    f'), each remainder divided by its positive rational content: Euclid
    with Fraction division, ending in gcd(f, g)."""
    chain = [f, f.derivative() if g is None else g]
    if chain[-1].is_zero():
        chain.pop()
        return chain
    while chain[-1].degree > 0:
        rem = divmod(chain[-2], chain[-1])[1]
        if rem.is_zero():
            break
        num = gcd(*[c.numerator for c in rem.coeffs])
        den = lcm(*[c.denominator for c in rem.coeffs])
        chain.append(unipoly_product(rem, [Fraction(-den, num)]))
    return chain


def directional_derivative(h, e):
    """sum_k e_k * dh/dx_k, term by term, in a ring of any weights."""
    terms = {}
    for expo, coeff in h.terms.items():
        for k, c in enumerate(e):
            if c and expo[k]:
                key = expo[:k] + (expo[k] - 1,) + expo[k + 1 :]
                terms[key] = terms.get(key, GaussianRational(0)) + coeff.scale(expo[k] * as_fraction(c))
    return MultiPoly(h.ring, {key: c for key, c in terms.items() if c})


def restrict_coefficients(h, e, v):
    """The Fraction coefficients of h(t*e - v), ascending, trailing zeros
    kept, expanded term by term on plain lists: each term of h times the
    powers of the lines (e_k*t - v_k), with repeated products."""
    total = [Fraction(0)] * (1 + max([sum(expo) for expo in h.terms], default=0))
    for expo, coeff in h.terms.items():
        term = [coeff.re]
        for ek, vk, n in zip(e, v, expo):
            for _ in range(n):
                term = [a * -as_fraction(vk) + b * as_fraction(ek) for a, b in zip(term + [0], [0] + term)]
        for k, c in enumerate(term):
            total[k] += c
    return total


def restrict_reference(h, e, v):
    """h(t*e - v) as a UniPoly (:func:`restrict_coefficients`)."""
    return UniPoly(restrict_coefficients(h, e, v))


def lattice_points(n, m):
    """The points x = (1, b), b in N^(n-1) with |b| <= m, in lexicographic
    order of b."""
    return [(1,) + b for b in product(range(m + 1), repeat=n - 1) if sum(b) <= m]


def _point(x):
    return ",".join(map(str, x))


def scalar_mismatch(square, p):
    """First entry (i, j, value), row by row, where the polynomial matrix
    ``square`` differs from p*I, or None: an involution A^2 = p*I checked
    on A.matmul(A)."""
    for i, row in enumerate(square.rows):
        for j, entry in enumerate(row):
            if (entry != p) if i == j else entry:
                return (i, j, entry)
    return None


def involution_reference(a):
    """P when trace(a) = 0 and a^2 = P*I, else None, with a^2 formed as a
    polynomial matrix (matmul) and compared entry by entry
    (scalar_mismatch)."""
    if not a.trace().is_zero():
        return None
    square = a.matmul(a)
    p = square.rows[0][0]
    return p if scalar_mismatch(square, p) is None else None


def squared_reference(re_rows, im_rows):
    """(p, bad) for the int matrix A = R + i*I at one point, given by the
    nonzero entries {j: a_ij} of each row of R and of I (None when I = 0):
    p = (A^2)_00 as (re, im), and bad None when A^2 = p*I, else
    (i, j, got, want) at the first entry in row order where A^2 and p*I
    differ.  Squares row by row through the nonzero entries; with I != 0
    as [[R, -I], [I, R]], whose first m rows square to Re and -Im of A^2."""
    m, at, p = len(re_rows), re_rows, (0, 0)
    if im_rows is not None:
        at = ([{**a, **{m + j: -v for j, v in b.items()}} for a, b in zip(re_rows, im_rows)]
              + [{**b, **{m + j: v for j, v in a.items()}} for a, b in zip(re_rows, im_rows)])
    for i, row in enumerate(at[:m]):
        acc = {}
        for k, a in row.items():
            for j, b in at[k].items():
                acc[j] = acc.get(j, 0) + a * b
        diag = (acc.pop(i, 0), -acc.pop(m + i, 0))
        p = p if i else diag
        bad = [j % m for j, v in acc.items() if v] + [i] * (diag != p)
        if bad:
            j = min(bad)
            return p, (i, j, diag, p) if j == i else (i, j, (acc.get(j, 0), -acc.get(m + j, 0)), (0, 0))
    return p, None


def square_on_lattice_reference(matrix, points, p):
    """The witness (x, i, j, got, want) of detrep._square_on_lattice, or
    None, with A(x) squared in ints at every point (squared_reference)."""
    place = {id(q): k for k, q in enumerate(matrix.distinct)}
    cells = [[(j, place[id(q)]) for j, q in enumerate(row) if q] for row in matrix.rows]
    den, values_at = _evaluator([q.terms for q in matrix.distinct] + [p.terms])
    half = len(place) + 1  # values_at(x)[half:] are the imaginary parts
    for x in points:
        vals = values_at(x)
        re = [{j: v for j, k in row if (v := vals[k])} for row in cells]
        im = [{j: v for j, k in row if (v := vals[half + k])} for row in cells] if any(vals[half:]) else None
        want, bad = squared_reference(re, im)
        if want != (vals[half - 1] * den, vals[-1] * den):
            return (x, 0, 0, _exact(want, den * den), _exact((vals[half - 1], vals[-1]), den))
        if bad is not None:
            return (x, bad[0], bad[1], _exact(bad[2], den * den), _exact(bad[3], den * den))
    return None


def match_branch_reference(pencil, h, r, up_to_scalar):
    """detrep._match_branch with m*D*Q(x) formed and squared in ints at
    each point of the lattice of degree 2 (squared_reference): None at the
    first point where it is not scalar, else (c, witness) from the branch
    values t^2 - (m*D*Q(x))^2_00, t the trace of D*M(x)."""
    m, den, _ = pencil
    branch = []
    for x, rows in _pencil_on_lattice(pencil, 2):
        diag = [row[k % m] for k, row in enumerate(rows)]
        t = (sum(diag[:m]), sum(diag[m:]))
        mq = [{j: m * a for j, a in enumerate(row) if a} for row in rows]
        for k, row in enumerate(mq):
            row[k % m] = m * diag[k] - t[k // m]
        p, bad = squared_reference(mq[:m], mq[m:] if any(map(any, rows[m:])) else None)
        if bad is not None:
            return None
        branch.append((x, (t[0] * t[0] - t[1] * t[1] - p[0], 2 * t[0] * t[1] - p[1])))
    s, witness = _match_values(branch, (m * den) ** 2, h, 1, True, ("ell^2 - P", "h", "s*h"))
    c = s**r
    if up_to_scalar or not c:
        return (c, witness)
    return (Fraction(1), witness if witness or c == 1 else f"det = {c}*h^r, not h^r")


def companion_notes_reference(a, h):
    """The notes of verify_companion: the involution route exactly when a
    is symmetric or hermitian and involution_reference(a) is a P with
    y^2 - P == h as polynomials, and then whether that P is c*q^2."""
    p = involution_reference(a) if a.kind in ("symmetric", "hermitian") else None
    if p is None or MultiPoly.variable(h.ring, "y") ** 2 - p.lift(h.ring) != h:
        return {"method": "lattice"}
    square = real_square_factorization(p)
    return {"method": "minimal-polynomial-shortcut",
            "branch-not-a-square": "verified" if square is None else f"p = {square[0]}*({square[1]})^2"}


def _branch_reference(branch, h, r, up_to_scalar):
    """(c, witness) of the involution route, whose determinant is
    branch^r with branch = ell^2 - P.  The polynomials decide
    branch = s*h; s and the witness point come from evaluating both at the
    lattice points of degree 2 in order."""
    if branch.is_zero():
        return Fraction(0), "determinant is identically zero"
    points = lattice_points(h.ring.arity, 2)
    at = cache(lambda x: (eval_reference(branch, x), eval_reference(h, x)))
    x = next(x for x in points if at(x)[1])
    ratio = at(x)[0] / at(x)[1]
    if ratio.im:
        return Fraction(0), f"at x = {_point(x)}: ell^2 - P = {at(x)[0]}, h = {at(x)[1]}, not a real multiple"
    s, witness = ratio.re, None
    if branch != h.scale(s):
        x = next(x for x in points if at(x)[0] != at(x)[1].scale(s))
        witness = f"at x = {_point(x)}: ell^2 - P = {at(x)[0]}, s*h = {at(x)[1].scale(s)}"
    c = s**r
    if up_to_scalar or not c:
        return c, witness
    if witness is None and c != 1:
        witness = f"det = {c}*h^r, not h^r"
    return Fraction(1), witness


def pencil_reference(matrices, h, r, e, up_to_scalar):
    """The report verify_pencil must give, as its to_json_dict() without
    the notes.  For quadratic h whose pencil M has an involution as its
    traceless part Q = ell*I - M, ell = trace(M)/m (involution_reference
    gives P), det M = (ell^2 - P)^r and :func:`_branch_reference` gives c
    and the witness.  Otherwise the Bareiss determinant (poly_det) decides
    the identity; c and the witness point come from evaluating it and h^r
    at the lattice points in order."""
    failures = []
    kind = matrices[0].kind
    if kind == "none":
        failures.append(("kind", "pencil has no declared symmetry kind"))
    for idx, mat in enumerate(matrices):
        bad = kind_violation_reference(mat.entries, kind)
        if bad is not None:
            failures.append(("kind", f"matrix {idx} entry {bad} breaks {kind} symmetry"))
    pencil = pencil_to_polymatrix(matrices, h.ring)
    p = None
    if h.weighted_degree() == 2:
        ell = pencil.trace().scale(Fraction(1, pencil.size))
        p = involution_reference(ell_minus(ell, pencil))
    if p is not None:
        scalar, witness = _branch_reference(ell * ell - p, h, r, up_to_scalar)
    else:
        scalar, witness = _determinant_reference(poly_det(pencil), h ** r, matrices[0].size, up_to_scalar)
    if witness is not None:
        failures.append(("determinant", witness))
    elif scalar <= 0:
        failures.append(("scalar-positivity", f"scalar c = {scalar} is not positive"))
    if kind != "none" and all(name != "kind" for name, _ in failures):
        bad = sylvester_reference(pencil_value(matrices, e))
        if bad is not None:
            failures.append(("positive-definite", f"leading principal minor of order {bad[0]} at e is {bad[1]}"))
    return {
        "ok": not failures and scalar > 0,
        "scalar": str(scalar),
        "power": r,
        "failures": [{"name": name, "witness": witness} for name, witness in failures],
    }


def _determinant_reference(det, target, m, up_to_scalar):
    """(c, witness) of the lattice route for the Bareiss determinant det
    and target = h^r: c and the witness point come from evaluating both at
    the lattice points of degree m in order."""
    if det.is_zero():
        return Fraction(0), "determinant is identically zero"
    points = lattice_points(target.ring.arity, m)
    at = cache(lambda x: (eval_reference(det, x), eval_reference(target, x)))
    c = GaussianRational(1)
    if up_to_scalar:
        x = next(x for x in points if at(x)[1])
        c = at(x)[0] / at(x)[1]
    if c.im:
        return Fraction(0), f"at x = {_point(x)}: det = {at(x)[0]}, h^r = {at(x)[1]}, not a real multiple"
    if det == target.scale(c.re):
        return c.re, None
    x = next(x for x in points if at(x)[0] != at(x)[1].scale(c.re))
    return c.re, f"at x = {_point(x)}: det = {at(x)[0]}, c*h^r = {at(x)[1].scale(c.re)}"


def match_values_reference(values, h, r, up_to_scalar):
    """(c, witness) of the lattice comparer by a full walk: values[x] is
    det(x), an exact Gaussian rational, at every point that decides the
    identity, in order.  The rules, in turn: a determinant zero at every
    point; up to scalar, a ratio det/h^r that is not real at the first x
    with h(x) != 0, else c is that ratio; the first x with det != c*h^r."""
    targets = {}
    for x in values:
        targets[x] = GaussianRational(1)
        for _ in range(r):
            targets[x] = targets[x] * eval_reference(h, x)
    if not any(values.values()):
        return Fraction(0), "determinant is identically zero"
    c = Fraction(1)
    if up_to_scalar:
        x = next(x for x, t in targets.items() if t)
        ratio = values[x] / targets[x]
        if ratio.im:
            return Fraction(0), f"at x = {_point(x)}: det = {values[x]}, h^r = {targets[x]}, not a real multiple"
        c = ratio.re
    x = next((x for x in values if values[x] != targets[x].scale(c)), None)
    return c, None if x is None else f"at x = {_point(x)}: det = {values[x]}, c*h^r = {targets[x].scale(c)}"


def pencil_values(matrices, h):
    """det(sum x_i A_i) at every lattice point of degree m, by const_det."""
    return {x: const_det(pencil_value(matrices, x)) for x in lattice_points(h.ring.arity, matrices[0].size)}


def companion_values(matrix, h):
    """det(y*I - A) (:func:`companion_det`) at every x of the lattice of
    degree m*w (w the weight of y) and, innermost, every y in 0..m; keyed
    by the point in h's ring order."""
    m, y_idx = matrix.size, h.ring.index("y")
    det = companion_det(matrix, h.ring)
    points = [x[:y_idx] + (y,) + x[y_idx:] for x in lattice_points(matrix.ring.arity, m * h.ring.weights[y_idx])
              for y in range(m + 1)]
    return {x: eval_reference(det, x) for x in points}


def leading_scalar(det, target):
    """The c with det = c * target if there is one, read off the leading
    coefficients: None when det is zero or the ratio is not real."""
    if det.is_zero():
        return None
    ratio = det.leading_coefficient() / target.leading_coefficient()
    return None if ratio.im else ratio.re


def companion_det(matrix, ring_h):
    """det(y*I - A) by Bareiss, with A lifted into ring_h (A's ring plus y)."""
    lifted = PolyMatrix(ring_h, [[entry.lift(ring_h) for entry in row] for row in matrix.rows])
    return poly_det(ell_minus(MultiPoly.variable(ring_h, "y"), lifted))


_OPS = set("+-*^/()")
_ASCII_DIGITS = set("0123456789")
_ASCII_NAME = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_") | _ASCII_DIGITS


def _reference_tokenize(text):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, k))
            k += 1
            continue
        if ch in _ASCII_DIGITS:
            start = k
            while k < len(text) and text[k] in _ASCII_DIGITS:
                k += 1
            tokens.append(("int", text[start:k], start))
            continue
        if ch in _ASCII_NAME:
            start = k
            while k < len(text) and text[k] in _ASCII_NAME:
                k += 1
            tokens.append(("name", text[start:k], start))
            continue
        raise ParseError(f"unexpected character {ch!r} at position {k}")
    return tokens


class _ReferenceParser:
    """Recursive descent that evaluates every node with MultiPoly
    arithmetic: each sum copies its left operand, each product and power
    runs the packed-key kernel."""

    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.ring = ring
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r} at position {tok[2]}")

    def parse(self):
        poly = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r} at position {tok[2]}")
        return poly

    def expr(self):
        value = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return value
            self.next()
            rhs = self.term()
            value = value + rhs if tok[1] == "+" else value - rhs

    def term(self):
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return value
            self.next()
            value = value * self.factor()

    def factor(self):
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.next()
            inner = self.factor()
            return inner if tok[1] == "+" else -inner
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.next()
            exp_tok = self.next()
            if exp_tok[0] != "int":
                raise ParseError(f"exponent must be an integer at position {exp_tok[2]}")
            return base ** int(exp_tok[1])
        return base

    def atom(self):
        kind, text, pos = self.next()
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "int":
            value = Fraction(int(text))
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.next()
                den_tok = self.next()
                if den_tok[0] != "int":
                    raise ParseError(
                        f"rational literal needs an integer denominator at position {den_tok[2]}"
                    )
                den = int(den_tok[1])
                if den == 0:
                    raise ParseError(f"zero denominator at position {den_tok[2]}")
                value /= den
            return MultiPoly.constant(self.ring, value)
        if kind == "name":
            if text == "i" and self.ring.gaussian:
                return MultiPoly.constant(self.ring, GaussianRational(0, 1))
            if text == "i" and "i" not in self.ring.variables:
                raise ParseError("imaginary coefficient in a non-gaussian ring")
            if text not in self.ring.variables:
                raise ParseError(f"unknown variable {text!r} at position {pos}")
            return MultiPoly.variable(self.ring, text)
        raise ParseError(f"unexpected token {text!r} at position {pos}")


def reference_parse(text, ring):
    """The polynomial grammar evaluated node by node with MultiPoly
    arithmetic: the specification ``polyring.parse`` must match exactly,
    value and error message alike."""
    tokens = _reference_tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    try:
        return _ReferenceParser(tokens, ring).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None
