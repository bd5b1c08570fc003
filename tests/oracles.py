"""Independent reference implementations used only by the tests."""

import operator
from fractions import Fraction
from itertools import permutations, product

from hypercert.detrep import PolyMatrix, const_det, pencil_to_polymatrix, poly_det, polymatrix_to_pencil
from hypercert.polyring import MultiPoly, ParseError, UniPoly, sturm_chain
from hypercert.quadratic import normalize_at_direction, rational_sos_quadratic
from hypercert.realroots import _index
from hypercert.scalars import ConstMatrix, GaussianRational, as_fraction, bareiss, pencil_value


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


def quadratic_detrep_reference(h, e, generators):
    """(pencil, r, c) that quadratic_detrep must return, built through
    polynomial matrices: Q from the dense table over u, ell*I - Q with
    ell = 2*alpha*u0 + q1, u = T*x substituted into every entry, and the
    result cut into slices by polymatrix_to_pencil.  h(e) < 0 with a 1x1
    table splits the lone square g as (3g/5)^2 + (4g/5)^2; a zero branch
    gives ell*I of size 4."""
    nf = normalize_at_direction(h, e)
    forms = rational_sos_quadratic(nf.branch)
    ell = MultiPoly.variable(nf.ring_prime, "u0").scale(2 * nf.alpha) + nf.q1
    q = PolyMatrix(nf.ring_prime, [[MultiPoly.zero(nf.ring_prime)] * 4] * 4, "symmetric")
    if forms:
        q = clifford_q(forms, generators(len(forms)))
        if nf.flipped and q.size % 4:
            q = clifford_q([forms[0].scale(Fraction(3, 5)), forms[0].scale(Fraction(4, 5))], generators(2))
    n = h.ring.arity
    units = [tuple(int(k == s) for k in range(n)) for s in range(n)]
    images = [MultiPoly.from_terms(h.ring, [(u, t) for u, t in zip(units, row) if t]) for row in nf.transform]
    rows = [[p.substitute(images) for p in row] for row in ell_minus(ell, q).rows]
    r = q.size // 2
    return polymatrix_to_pencil(PolyMatrix(h.ring, rows, "symmetric")), r, (4 * nf.alpha) ** r


def leading_principal_minors(matrix):
    """All leading principal minors of a ConstMatrix, as Fractions: the
    pivots of Bareiss elimination over Q(i) without row swaps, ending at the
    first zero one.  An imaginary minor (a broken hermitian invariant)
    raises ArithmeticError."""
    pivots, _ = bareiss([list(row) for row in matrix.entries], GaussianRational(1), operator.truediv, pivoting=False)
    for k, pivot in enumerate(pivots):
        if pivot.im:
            raise ArithmeticError(f"leading principal minor {k + 1} is not real; hermitian invariant broken")
    return [pivot.re for pivot in pivots]


def sylvester_reference(matrix):
    """(1-based order, value) of the first nonpositive leading minor of a
    ConstMatrix, or None, from :func:`leading_principal_minors`."""
    return next(((k + 1, v) for k, v in enumerate(leading_principal_minors(matrix)) if v <= 0), None)


def from_roots(roots, lead=1):
    """lead * prod (t - root) as a UniPoly."""
    poly = UniPoly([lead])
    for root in roots:
        poly = poly * UniPoly([-as_fraction(root), 1])
    return poly


def shift(f, q):
    """f(t + q) for a UniPoly f."""
    q = as_fraction(q)
    result = UniPoly.zero()
    base = UniPoly([q, 1])
    power = UniPoly([1])
    for c in f.coeffs:
        result = result + power.scale(c)
        power = power * base
    return result


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


def restrict_reference(h, e, v):
    """h(t*e - v) as a UniPoly, expanded term by term: each term of h times
    the powers of the lines (e_k*t - v_k), with repeated products."""
    lines = [UniPoly([-as_fraction(vk), as_fraction(ek)]) for ek, vk in zip(e, v)]
    total = UniPoly.zero()
    for expo, coeff in h.terms.items():
        term = UniPoly([coeff.re])
        for line, n in zip(lines, expo):
            for _ in range(n):
                term = term * line
        total = total + term
    return total


def lattice_points(n, m):
    """The points x = (1, b), b in N^(n-1) with |b| <= m, in lexicographic
    order of b."""
    return [(1,) + b for b in product(range(m + 1), repeat=n - 1) if sum(b) <= m]


def _point(x):
    return ",".join(map(str, x))


def involution_reference(a):
    """P when trace(a) = 0 and a^2 = P*I, else None, with a^2 formed as a
    polynomial matrix (matmul) and compared entry by entry
    (scalar_mismatch)."""
    if not a.trace().is_zero():
        return None
    square = a.matmul(a)
    p = square.rows[0][0]
    return p if square.scalar_mismatch(p) is None else None


def _branch_reference(branch, h, r, up_to_scalar):
    """(c, witness) of the involution route, whose determinant is
    branch^r with branch = ell^2 - P.  The polynomials decide
    branch = s*h; s and the witness point come from evaluating both at the
    lattice points of degree 2 in order."""
    if branch.is_zero():
        return Fraction(0), "determinant is identically zero"
    points = lattice_points(h.ring.arity, 2)
    x = next(x for x in points if h.eval(x))
    ratio = branch.eval(x) / h.eval(x)
    if ratio.im:
        return Fraction(0), f"at x = {_point(x)}: ell^2 - P = {branch.eval(x)}, h = {h.eval(x)}, not a real multiple"
    s, witness = ratio.re, None
    if branch != h.scale(s):
        x = next(x for x in points if branch.eval(x) != h.eval(x).scale(s))
        witness = f"at x = {_point(x)}: ell^2 - P = {branch.eval(x)}, s*h = {h.eval(x).scale(s)}"
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
        bad = mat.kind_violation()
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
    c = GaussianRational(1)
    if up_to_scalar:
        x = next(x for x in points if target.eval(x))
        c = det.eval(x) / target.eval(x)
    if c.im:
        return Fraction(0), f"at x = {_point(x)}: det = {det.eval(x)}, h^r = {target.eval(x)}, not a real multiple"
    if det == target.scale(c.re):
        return c.re, None
    x = next(x for x in points if det.eval(x) != target.eval(x).scale(c.re))
    return c.re, f"at x = {_point(x)}: det = {det.eval(x)}, c*h^r = {target.eval(x).scale(c.re)}"


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
            targets[x] = targets[x] * h.eval(x)
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
    return {x: det.eval(x) for x in points}


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
