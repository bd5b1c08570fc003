"""Polynomial matrices, exact determinants, and verification of definite
symmetric/hermitian determinantal representations.

Two input shapes are supported: pencils sum_i x_i A_i with constant
matrices A_i (entries degree 1), and companion forms y*I - A(x) where A has
homogeneous entries of the weight of y.  Verification reports are exact:
every failed check carries a witness that re-verifies independently.

Identities are decided on values: two forms of degree D in n variables
are equal iff they agree at the T = C(D+n-1, n-1) points x = (1, b),
b in N^(n-1) with |b| <= D, the principal lattice of a simplex (Chung and
Yao, SIAM J. Numer. Anal. 14, 1977); two polynomials of degree <= D iff
they agree at the x in N^n with |x| <= D (:func:`_lattice`).  A
determinant identity det = c*h^r is decided by one of two routes:

- *involution*: if trace Q = 0 and Q^2 = P*I then
  det(y*I - Q) = (y^2 - P)^(m/2) (:func:`_involution`), and Q^2 = P*I, a
  matrix identity of degree 2d for entries of degree d, is decided by
  squaring Q(x) over Z or Z[i] on that lattice (:func:`_square_on_lattice`).
  That serves a pencil ell*I - Q for quadratic h, whose branch
  ell^2 - P = s*h is compared on the same points, and a symmetric/hermitian
  A with h = y^2 - P;
- *lattice* (everything else): integer or Gaussian-integer determinants
  at the T lattice points for a pencil (:func:`_lattice_match`), and for a
  companion at y in {0..m} times the lattice of degree m*w
  (:func:`_companion_match`), are compared with c*h(x)^r.

One comparer, :func:`_match_values`, reads the points lazily and stops at
a failure's witness: the first point where the two sides differ, which one
constant determinant re-checks.  No route expands a polynomial determinant.
Definiteness at e is Sylvester's test on A(e) scaled into Z or Z[i]
(:func:`~hypercert.scalars.first_nonpositive_minor_at`).
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .polyring import MultiPoly, ParseError, Ring, _pair_pow, _sum_of_squares, parse, real_square_factorization
from .scalars import (
    GR_ONE,
    GR_ZERO,
    KIND_HERMITIAN,
    KIND_NONE,
    KIND_SYMMETRIC,
    MATRIX_KINDS,
    ConstMatrix,
    GaussianRational,
    RationalLike,
    _common_kind,
    _GaussInt,
    _kind_violation,
    _over_integers,
    as_fraction,
    bareiss,
    first_nonpositive_minor_at,
)
from .wire import _json_field, _json_flag, _json_list, _json_strings


class PolyMatrix:
    """Square matrix of MultiPoly entries with a symmetry-kind tag."""

    __slots__ = ("ring", "rows", "kind")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[MultiPoly]], kind: str = KIND_NONE):
        if kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {kind!r}")
        mat = tuple(tuple(row) for row in rows)
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        for row in mat:
            for p in row:
                if p.ring != ring:
                    raise ValueError("entry ring mismatch")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_strings(cls, ring: Ring, rows: Sequence[Sequence[str]], kind: str = KIND_NONE) -> "PolyMatrix":
        return cls(ring, [[parse(s, ring) for s in row] for row in rows], kind)

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows and self.kind == other.kind

    def kind_violation(self) -> Optional[tuple[int, int]]:
        """First entry (i, j) breaking the declared symmetry kind, or None."""
        return _kind_violation(self.rows, self.kind, MultiPoly.conjugate)

    def trace(self) -> MultiPoly:
        total = MultiPoly.zero(self.ring)
        for k in range(self.size):
            total = total + self.rows[k][k]
        return total

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        """Matrix product, skipping zero entries (matrices are often sparse)."""
        if self.size != other.size or self.ring != other.ring:
            raise ValueError("matrix shape/ring mismatch")
        n = self.size
        zero = MultiPoly.zero(self.ring)
        nz_rows = [
            [(j, p) for j, p in enumerate(row) if p] for row in self.rows
        ]
        out = []
        for i in range(n):
            acc: list[MultiPoly] = [zero] * n
            for k, p in nz_rows[i]:
                other_row = other.rows[k]
                for j in range(n):
                    q = other_row[j]
                    if q:
                        acc[j] = acc[j] + p * q
            out.append(acc)
        return PolyMatrix(self.ring, out, KIND_NONE)

    def scalar_mismatch(self, p: MultiPoly) -> Optional[tuple[int, int, MultiPoly]]:
        """First entry (i, j, value), row by row, where this matrix differs
        from p*I, or None.  Checks an involution A^2 = p*I on A.matmul(A)."""
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                if (entry != p) if i == j else entry:
                    return (i, j, entry)
        return None

    def eval_at(self, point: Sequence[RationalLike]) -> ConstMatrix:
        pt = [as_fraction(c) for c in point]
        return ConstMatrix([[p.eval(pt) for p in row] for row in self.rows], self.kind)

    def entry_degrees_homogeneous(self, degree: int) -> Optional[tuple[int, int]]:
        """First entry that is not weighted-homogeneous of the given degree
        (zero entries are fine), or None."""
        for i, row in enumerate(self.rows):
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                if not p.is_weighted_homogeneous() or p.weighted_degree() != degree:
                    return (i, j)
        return None

    def to_json_dict(self) -> dict:
        return {
            "ring": {
                "vars": list(self.ring.variables),
                "weights": list(self.ring.weights),
                "gaussian": self.ring.gaussian,
            },
            "kind": self.kind,
            "entries": [[str(p) if p else "0" for p in row] for row in self.rows],
        }

    def __repr__(self) -> str:
        return f"PolyMatrix(size={self.size}, kind={self.kind})"


def polymatrix_from_json(data: Union[str, dict]) -> PolyMatrix:
    if isinstance(data, str):
        data = json.loads(data)
    header = _json_field(data, "ring", "polynomial matrix")
    entries = _json_strings(_json_field(data, "entries", "polynomial matrix"), "entries", depth=2)
    names = tuple(_json_strings(_json_field(header, "vars", "ring"), "ring.vars"))
    weights = _json_list(_json_field(header, "weights", "ring"), "ring.weights")
    try:
        weights = tuple(int(w) for w in weights)
    except (TypeError, ValueError):
        raise ParseError(f"ring.weights must be integers, not {json.dumps(weights)}") from None
    ring = Ring(names, weights, _json_flag(header, "gaussian", "ring.gaussian"))
    return PolyMatrix.from_strings(ring, entries, data.get("kind", KIND_NONE))


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------


# Kept only as a hook of perfbench's tracer, until the benchmark drops it.
def poly_det(matrix: PolyMatrix) -> MultiPoly:
    """Exact determinant by fraction-free Bareiss elimination; the divisions
    are exact in the polynomial ring."""
    return _det(matrix.rows, MultiPoly.constant(matrix.ring, 1), MultiPoly.divide_exact)


def const_det(matrix: ConstMatrix) -> GaussianRational:
    """Exact determinant of a constant matrix (fraction-free elimination)."""
    return _det(matrix.entries, GR_ONE, operator.truediv)


def _det(rows, one, divide):
    """sign * last pivot: zero once a column has no pivot, ``one`` when 0x0."""
    pivots, sign = bareiss([list(row) for row in rows], one, divide, pivoting=True)
    if not pivots:
        return one
    return pivots[-1] if sign > 0 else -pivots[-1]


def _int_det(rows: Sequence[list], number) -> Union[int, _GaussInt]:
    """det(rows) over Z, or Z[i] when number is _GaussInt."""
    return _det(rows, number(1, 0), _GaussInt.divide_exact if number is _GaussInt else operator.floordiv)


def _lattice_match(
    matrices: Sequence[ConstMatrix], h: MultiPoly, r: int, up_to_scalar: bool
) -> tuple[Fraction, Optional[str]]:
    """(c, witness) for det(sum x_i A_i) = c * h^r, with witness None when
    the identity holds, decided on the simplex lattice (see the module
    docstring).  The pencil is scaled by the lcm D of its denominators, so
    each lattice determinant is D^m times the value, taken over Z (or Z[i]
    when an entry is not real) and compared by :func:`_match_values`."""
    m = matrices[0].size
    cells = [[c for row in mat.entries for c in row] for mat in matrices]
    den, number, scaled = _over_integers([c for flat in cells for c in flat])
    if number is _GaussInt and not h.ring.gaussian:
        raise ValueError("imaginary coefficient in a non-gaussian ring")
    slices = [[scaled(c) for c in flat] for flat in cells]

    dets = ((x, _int_det([flat[i * m : (i + 1) * m] for i in range(m)], number)) for x, flat in _on_lattice(slices, m))
    return _match_values(dets, den**m, h, r, up_to_scalar)


def _companion_match(matrix: PolyMatrix, h: MultiPoly, r: int) -> Optional[str]:
    """Witness for det(y*I - A) = h^r, None when it holds, for A in h's ring
    without y, y of weight w and m = deg_y(h)*r.  Both sides are polynomials
    in y of degree <= m with forms of degree <= m*w in x as coefficients, so
    y in {0..m} times the lattice of degree m*w decides the identity.  There
    det((y*D)*I - D*A(x)) = D^m * det(y*I - A(x)) over Z or Z[i]
    (:func:`_over_integers`) is compared with h^r (:func:`_match_values`).
    """
    m, y_idx = matrix.size, h.ring.index("y")
    den, number, scaled = _over_integers([c for row in matrix.rows for p in row for c in p.terms.values()])
    zero = number(0, 0)
    entries = [[[(e, scaled(c)) for e, c in p.terms.items()] for p in row] for row in matrix.rows]

    def dets():
        for x in _lattice(matrix.ring.arity, m * h.ring.weights[y_idx], True):
            at = [[sum([c * number(math.prod(map(pow, x, e)), 0) for e, c in entry], zero) for entry in row] for row in entries]
            for y in range(m + 1):
                rows = [[number(y * den, 0) - a if i == j else -a for j, a in enumerate(row)] for i, row in enumerate(at)]
                yield x[:y_idx] + (y,) + x[y_idx:], _int_det(rows, number)

    return _match_values(dets(), den**m, h, r, False)[1]


def _match_values(
    dets: Iterable[tuple[tuple[int, ...], Union[int, _GaussInt]]], scale: int, h: MultiPoly, r: int, up_to_scalar: bool,
    names: tuple[str, str, str] = ("det", "h^r", "c*h^r"),
) -> tuple[Fraction, Optional[str]]:
    """(c, witness) for det = c * h^r, with witness None when it holds, from
    pairs (x, scale * det(x) over Z or Z[i]), in order, at points x of h's
    ring that decide the identity: c = 1, or with ``up_to_scalar`` det/h^r
    at the first x where h(x) != 0.  A failure is, in this precedence, a det
    zero at every point, a ratio that is not real, or the first point where
    the two sides differ, with both exact values labelled by ``names``.  The
    pairs are read only until that is fixed: c known, a differing point and
    a nonzero det seen."""
    h_den, _, scaled = _over_integers(list(h.terms.values()))
    h_terms = [(e, scaled(c)) for e, c in h.terms.items()]
    h_scale = h_den**r

    def target(x: tuple[int, ...]) -> tuple[int, int]:
        """(h_den * h(x))^r over Z[i]."""
        re = im = 0
        for expo, a in h_terms:
            mono = math.prod(map(pow, x, expo))
            re += a.real * mono
            im += a.imag * mono
        return _pair_pow(re, im, r)

    def exact(pair: tuple[int, int], den: int) -> GaussianRational:
        return GaussianRational(Fraction(pair[0], den), Fraction(pair[1], den))

    def at(x: tuple[int, ...], det) -> str:
        return f"at x = {','.join(map(str, x))}: {names[0]} = {exact((det.real, det.imag), scale)}"

    points = ((x, det, target(x)) for x, det in dets)
    read, c = [], Fraction(1)  # read: the points up to the one that fixes c
    if up_to_scalar:  # h^r is a nonzero form, so some h(x) != 0
        for x, det, t in points:
            read.append((x, det, t))
            if any(t):
                break
        ratio = exact((det.real, det.imag), scale) / exact(t, h_scale)
        if ratio.im:  # so det(x) != 0: the determinant is not identically zero
            return (Fraction(0), f"{at(x, det)}, {names[1]} = {exact(t, h_scale)}, not a real multiple")
        c = ratio.re
    # det = c * h^r at x, with c = p/q: q * h_scale * value = p * scale * target.
    left, right = c.denominator * h_scale, c.numerator * scale
    nonzero, witness = False, None
    for x, det, (t_re, t_im) in itertools.chain(read, points):
        nonzero = nonzero or bool(det)
        if witness is None and (det.real * left != t_re * right or det.imag * left != t_im * right):
            witness = f"{at(x, det)}, {names[2]} = {exact((t_re, t_im), h_scale).scale(c)}"
        if witness is not None and nonzero:
            return (c, witness)
    return (c, witness) if nonzero else (Fraction(0), "determinant is identically zero")


def _on_lattice(slices: Sequence[list], m: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """(x, sum_i x_i * slices[i]) for x = (1, b), b in N^(n-1) with |b| <= m,
    lazily and in lexicographic order.  The walk is depth first, so each
    point's sum is an earlier point's plus one slice."""

    def walk(b: tuple[int, ...], total: list, k: int):
        if k == len(slices):
            yield (1,) + b, total
            return
        for t in range(m - sum(b) + 1):
            if t:
                total = list(map(operator.add, total, slices[k]))
            yield from walk(b + (t,), total, k + 1)

    return walk((), slices[0], 1)


def _lattice(n: int, degree: int, homogeneous: bool) -> list[tuple[int, ...]]:
    """The points that decide a polynomial of the given degree in n
    variables, in lexicographic order (see the module docstring): x = (1, b)
    with |b| <= degree for a form, x in N^n with |x| <= degree otherwise."""
    if homogeneous and n:
        return [(1,) + b for b in _lattice(n - 1, degree, False)]
    if not n:
        return [()]
    return [(t,) + b for t in range(degree + 1) for b in _lattice(n - 1, degree - t, False)]


def _square_on_lattice(
    rows: Sequence[dict[int, dict[tuple[int, ...], GaussianRational]]],
    points: Sequence[tuple[int, ...]],
    p: Optional[MultiPoly] = None,
) -> tuple[dict[tuple[int, ...], GaussianRational], Optional[tuple]]:
    """Decide A^2 = p*I at ``points``, which must decide the entries of
    A^2 - p*I (:func:`_lattice`); rows[i][j] holds the terms of entry (i, j)
    of A, and an entry missing from rows[i] is 0.

    D*A(x) is squared over Z or Z[i] (:func:`_over_integers`) row by row
    through its nonzero entries, at most k+1 per row for a Clifford Q.
    Without ``p``, p(x) is the (0, 0) entry of A(x)^2.  Returns (values,
    witness): values[x] = p(x) at each point checked; witness None when
    A(x)^2 = p(x)*I at every point, else (x, i, j, got, want) at the first
    point, and its first entry in row order, where the two differ.
    """
    coeffs = [c for row in rows for terms in row.values() for c in terms.values()]
    den, number, scaled = _over_integers(coeffs + list(p.terms.values()) if p is not None else coeffs)
    zero = number(0, 0)

    def exact(v) -> GaussianRational:
        return GaussianRational(Fraction(v.real, den * den), Fraction(v.imag, den * den))

    index: dict[tuple[int, ...], int] = {}  # monomial -> position in monos

    def terms_of(terms: dict) -> list:
        return [(index.setdefault(e, len(index)), scaled(c)) for e, c in terms.items()]

    int_rows = [[(j, terms_of(terms)) for j, terms in row.items()] for row in rows]
    p_terms = terms_of(p.terms) if p is not None else None  # D*p
    values: dict[tuple[int, ...], GaussianRational] = {}
    for x in points:
        monos = [number(math.prod(map(pow, x, e)), 0) for e in index]
        at = [{j: v for j, terms in row if (v := sum([c * monos[k] for k, c in terms], zero))} for row in int_rows]
        want = None
        for i, row in enumerate(at):
            acc = {}
            for k, a in row.items():
                for j, b in at[k].items():
                    acc[j] = acc.get(j, zero) + a * b
            diag = acc.pop(i, zero)
            if want is None:
                want, values[x] = diag, exact(diag)
                if p is not None and diag != sum([c * monos[k] for k, c in p_terms], zero) * den:
                    return values, (x, 0, 0, values[x], p.eval(x))
            bad = [j for j, v in acc.items() if v] + [i] * (diag != want)
            if bad:
                j = min(bad)
                return values, (x, i, j, exact(acc.get(j, diag)), values[x] if j == i else GR_ZERO)
    return values, None


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckFailure:
    name: str
    witness: str


@dataclass
class DetRepReport:
    """Outcome of a determinantal-representation verification.

    ``ok`` implies no failures and scalar > 0.  ``notes["method"]`` names
    the determinant route: "minimal-polynomial-shortcut" (an involution) or
    "lattice" (every other pencil or companion).  ``scalar`` is c = 1, or
    with ``up_to_scalar`` the c with det = c*h^r, read at the first lattice
    point where h != 0: det/h^r on the lattice route, s^r with
    s = (ell^2 - P)/h on the involution route.  A failed check reports the
    c it tried, and 0 for a zero determinant or a ratio that is not real.
    The lattice walk stops at the first point that refutes the identity, and
    Sylvester's test at e runs over Z or Z[i].  The companion route records
    whether its branch P is a square.
    """

    ok: bool
    scalar: Fraction
    power: int
    failures: list[CheckFailure] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "scalar": str(self.scalar),
            "power": self.power,
            "failures": [{"name": f.name, "witness": f.witness} for f in self.failures],
            "notes": {k: str(v) for k, v in sorted(self.notes.items())},
        }


# Kept only as a hook of perfbench's tracer, until the benchmark drops it.
def pencil_to_polymatrix(matrices: Sequence[ConstMatrix], ring: Ring) -> PolyMatrix:
    """sum_i x_i A_i as a matrix of linear forms over ``ring``."""
    if len(matrices) != ring.arity:
        raise ValueError("need one constant matrix per ring variable")
    if not matrices:
        raise ValueError("empty pencil")
    m = matrices[0].size
    if any(mat.size != m for mat in matrices):
        raise ValueError("pencil matrices must share one size")
    units = [tuple(int(k == v) for k in range(ring.arity)) for v in range(ring.arity)]
    rows = [
        [MultiPoly.from_terms(ring, [(u, mat.entries[i][j]) for u, mat in zip(units, matrices) if mat.entries[i][j]])
         for j in range(m)]
        for i in range(m)
    ]
    return PolyMatrix(ring, rows, _common_kind(matrices))


def polymatrix_to_pencil(matrix: PolyMatrix) -> list[ConstMatrix]:
    """Decompose a matrix of homogeneous linear forms into constant slices."""
    n = matrix.ring.arity
    degrees = ((i, j, p.weighted_degree()) for i, row in enumerate(matrix.rows) for j, p in enumerate(row))
    bad = next(((i, j) for i, j, d in degrees if d not in (None, 1)), None) if n else None
    if bad is not None:
        raise ValueError(f"entry ({bad[0]},{bad[1]}) is not a linear form")
    units = [tuple(int(k == v) for k in range(n)) for v in range(n)]
    return [ConstMatrix([[p.terms.get(u, GR_ZERO) for p in row] for row in matrix.rows], matrix.kind) for u in units]


def verify_pencil(
    matrices: Sequence[ConstMatrix],
    h: MultiPoly,
    r: int,
    e: Sequence[RationalLike],
    up_to_scalar: bool = False,
) -> DetRepReport:
    """Check that det(sum x_i A_i) = c * h^r with definite value at e.

    Three named checks: symmetry kind, determinant identity (c = 1 unless
    ``up_to_scalar``), and Sylvester's test on sum e_i A_i over Z or Z[i].
    For quadratic h whose pencil is ell*I - Q with Q^2 = P*I the determinant
    is (ell^2 - P)^r (:func:`_match_branch`).  Every other pencil is decided
    on its values at the simplex lattice (:func:`_lattice_match`).  A failed
    identity is witnessed by the first lattice point x where the two sides
    differ, with both exact values.
    """
    if r < 1:
        raise ValueError(f"power r = {r} must be at least 1")
    ring = h.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("pencil verification needs an unweighted ring")
    if len(matrices) != ring.arity:
        raise ValueError("need one pencil matrix per variable of h")
    if len(e) != ring.arity:
        raise ValueError("direction arity mismatch")
    deg = h.weighted_degree()
    if deg is None or not h.is_weighted_homogeneous():
        raise ValueError("h must be nonzero and homogeneous")
    m = matrices[0].size
    if deg * r != m:
        raise ValueError(f"size/degree mismatch: deg(h)*r = {deg * r} but matrices are {m}x{m}")
    if any(mat.size != m for mat in matrices):
        raise ValueError("pencil matrices must share one size")

    failures: list[CheckFailure] = []
    notes: dict = {}

    kinds = {mat.kind for mat in matrices}
    if len(kinds) != 1:
        raise ValueError("pencil matrices must share one symmetry kind")
    kind = kinds.pop()
    if kind == KIND_NONE:
        failures.append(CheckFailure("kind", "pencil has no declared symmetry kind"))
    for idx, mat in enumerate(matrices):
        bad = mat.kind_violation()
        if bad is not None:
            failures.append(CheckFailure("kind", f"matrix {idx} entry {bad} breaks {kind} symmetry"))

    matched = _match_branch(matrices, h, r, up_to_scalar) if deg == 2 else None
    notes["method"] = "lattice" if matched is None else "minimal-polynomial-shortcut"
    scalar, det_witness = matched or _lattice_match(matrices, h, r, up_to_scalar)
    if det_witness is not None:
        failures.append(CheckFailure("determinant", det_witness))
    elif scalar <= 0:
        failures.append(CheckFailure("scalar-positivity", f"scalar c = {scalar} is not positive"))

    if kind != KIND_NONE and not any(f.name == "kind" for f in failures):
        bad_minor = first_nonpositive_minor_at(matrices, e)
        if bad_minor is not None:
            order, minor = bad_minor
            witness = f"leading principal minor of order {order} at e is {minor}"
            failures.append(CheckFailure("positive-definite", witness))
    return DetRepReport(ok=not failures and scalar > 0, scalar=scalar, power=r, failures=failures, notes=notes)


def _involution(a: PolyMatrix, degree: int) -> Optional[MultiPoly]:
    """P when trace(a) = 0 and a^2 = P*I, else None, for a matrix of forms
    of the given degree.

    Then det(y*I - a) = (y^2 - P)^(m/2) exactly: for P != 0 the minimal
    polynomial divides the squarefree y^2 - P, so the eigenvalues are
    +-sqrt(P), equally often since the trace is 0; for P = 0, a is nilpotent.
    a^2 = P*I is decided on the lattice of degree 2*degree, and
    P = sum_j a_0j * a_j0 is read off one row.
    """
    rows = [{j: p.terms for j, p in enumerate(row) if p} for row in a.rows]
    if a.trace() or _square_on_lattice(rows, _lattice(a.ring.arity, 2 * degree, True))[1]:
        return None
    return sum((a.rows[0][j] * a.rows[j][0] for j in rows[0] if 0 in rows[j]), MultiPoly.zero(a.ring))


def _match_branch(
    matrices: Sequence[ConstMatrix], h: MultiPoly, r: int, up_to_scalar: bool
) -> Optional[tuple[Fraction, Optional[str]]]:
    """(c, witness) for det M = c * h^r, with witness None when it holds, or
    None when the traceless part Q = ell*I - M of the pencil
    M = sum x_i A_i, with ell = trace(M)/m, is not an involution.

    Otherwise det M = (ell^2 - P)^r, which is a multiple c of h^r exactly
    when the branch ell^2 - P is a multiple s of h, and then c = s^r.  Q is
    read off the slices; Q^2 = P*I and the branch identity are decided on
    the lattice of degree 2 (:func:`_match_values`), with s the ratio at
    its first point where h(x) != 0.
    """
    m, n = matrices[0].size, len(matrices)
    units = [tuple(int(k == v) for k in range(n)) for v in range(n)]
    ell = [sum((mat.entries[i][i] for i in range(m)), GR_ZERO).scale(Fraction(1, m)) for mat in matrices]
    rows: list[dict] = [{} for _ in range(m)]
    for unit, mat, ell_v in zip(units, matrices, ell):
        for i, row in enumerate(mat.entries):
            # Zero entries are often the shared GR_ZERO, which `is` finds fast.
            for j in [j for j, c in enumerate(row) if c is not GR_ZERO and c]:
                if row[j].im and not h.ring.gaussian:
                    raise ValueError("imaginary coefficient in a non-gaussian ring")
                rows[i].setdefault(j, {})[unit] = -row[j]
            terms = rows[i].setdefault(i, {})
            terms[unit] = terms.get(unit, GR_ZERO) + ell_v
    values, witness = _square_on_lattice(rows, _lattice(n, 2, True))
    if witness is not None:
        return None
    ell_at = {x: sum((c.scale(t) for c, t in zip(ell, x)), GR_ZERO) for x in values}
    branch = {x: ell_at[x] * ell_at[x] - p for x, p in values.items()}
    den, _, scaled = _over_integers(list(branch.values()))
    s, witness = _match_values(((x, scaled(b)) for x, b in branch.items()), den, h, 1, True, ("ell^2 - P", "h", "s*h"))
    c = s**r
    if up_to_scalar or not c:  # c = 0: a zero determinant or branch
        return (c, witness)
    return (Fraction(1), witness if witness or c == 1 else f"det = {c}*h^r, not h^r")


def verify_companion(matrix: PolyMatrix, h: MultiPoly, r: int) -> DetRepReport:
    """Check det(y*I - A) = h^r exactly for companion-form input.

    ``h`` lives in a ring containing the distinguished variable ``y`` of
    weight equal to the common degree of A's entries; ``matrix`` lives in the
    same ring without y.  When A is symmetric or hermitian and
    h = y^2 - P with A^2 = P*I and trace 0 (see :func:`_involution`), the
    identity holds; every other input is decided on values
    (:func:`_companion_match`), and a failure names the point, y included,
    where det(y*I - A(x)) and h^r differ.
    """
    if r < 1:
        raise ValueError(f"power r = {r} must be at least 1")
    ring_h = h.ring
    if "y" not in ring_h.variables:
        raise ValueError("companion form needs a distinguished variable named 'y'")
    y_idx = ring_h.index("y")
    weight_e = ring_h.weights[y_idx]
    if any(w != 1 for k, w in enumerate(ring_h.weights) if k != y_idx):
        raise ValueError("all non-y variables must have weight 1")
    ring_x = ring_h.without("y")
    if matrix.ring != ring_x:
        raise ValueError("companion matrix must live in h's ring without y")
    if not h.is_weighted_homogeneous():
        raise ValueError("h must be weighted-homogeneous")
    total = h.weighted_degree()
    if total is None or total % weight_e != 0:
        raise ValueError("deg(h) must be a multiple of the weight of y")
    d = total // weight_e
    m = matrix.size
    if m != d * r:
        raise ValueError(f"size/degree mismatch: matrix is {m}x{m}, expected d*r = {d * r}")

    failures: list[CheckFailure] = []
    notes: dict = {}

    bad_entry = matrix.entry_degrees_homogeneous(weight_e)
    if bad_entry is not None:
        failures.append(CheckFailure("grading", f"entry {bad_entry} is not homogeneous of degree {weight_e}"))
        return DetRepReport(False, Fraction(0), r, failures, notes)

    if matrix.kind == KIND_NONE:
        failures.append(CheckFailure("kind", "companion matrix has no declared symmetry kind"))
    elif (bad := matrix.kind_violation()) is not None:
        failures.append(CheckFailure("kind", f"entry {bad} breaks {matrix.kind} symmetry"))

    p = None
    if d == 2 and matrix.kind in (KIND_SYMMETRIC, KIND_HERMITIAN):
        p = _involution(matrix, weight_e)
    if p is not None and MultiPoly.variable(ring_h, "y") ** 2 - p.lift(ring_h) == h:
        notes["method"] = "minimal-polynomial-shortcut"
        square = real_square_factorization(p)
        notes["branch-not-a-square"] = "verified" if square is None else f"p = {square[0]}*({square[1]})^2"
    else:
        notes["method"] = "lattice"
        det_witness = _companion_match(matrix, h, r)
        if det_witness is not None:
            failures.append(CheckFailure("determinant", det_witness))
    return DetRepReport(ok=not failures, scalar=Fraction(1), power=r, failures=failures, notes=notes)


# ---------------------------------------------------------------------------
# SOS extraction from involutive matrices
# ---------------------------------------------------------------------------


@dataclass
class SosDecomposition:
    """p = sum of squares of the listed real polynomials (verified exactly)."""

    squares: list[MultiPoly]
    target: MultiPoly
    kind: str
    column: int
    notes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "squares": [str(g) for g in self.squares],
            "target": str(self.target),
            "kind": self.kind,
            "column": self.column,
            "notes": {k: str(v) for k, v in sorted(self.notes.items())},
        }


class SosRefusal(ValueError):
    """detrep_to_sos refused A with a witness: an entry that breaks the
    declared kind, or a point where A^2 != p*I."""


def _normalize_sign(p: MultiPoly) -> MultiPoly:
    lc = p.leading_coefficient()
    key = lc.re if lc.re else lc.im
    return -p if key < 0 else p


def detrep_to_sos(matrix: PolyMatrix, p: MultiPoly, column: int = 0) -> SosDecomposition:
    """Extract a sum-of-squares decomposition of p from A with A^2 = p*I.

    Symmetric A: the entries of one column already satisfy sum a_ji^2 = p.
    Hermitian A: real and imaginary parts of the column entries do.  The
    entries need not be homogeneous, so A^2 = p*I is decided at the x in
    N^n with |x| <= D, D the largest degree of A^2 and p
    (:func:`_square_on_lattice`); a failure names the point, the entry and
    both values.  Only such a refusal is a :class:`SosRefusal`.  The
    extracted squares are re-summed exactly.
    """
    if matrix.kind not in (KIND_SYMMETRIC, KIND_HERMITIAN):
        raise ValueError("SOS extraction needs a symmetric or hermitian matrix")
    bad = matrix.kind_violation()
    if bad is not None:
        raise SosRefusal(f"matrix entry {bad} breaks the declared {matrix.kind} symmetry")
    if p.ring != matrix.ring:
        raise ValueError("p must live in the matrix ring")
    m = matrix.size
    if not 0 <= column < m:
        raise ValueError("column index out of range")
    degree = max([2 * sum(e) for row in matrix.rows for q in row for e in q.terms] + [sum(e) for e in p.terms] + [0])
    rows = [{j: q.terms for j, q in enumerate(row) if q} for row in matrix.rows]
    _, bad = _square_on_lattice(rows, _lattice(matrix.ring.arity, degree, False), p)
    if bad is not None:
        x, i, j, got, want = bad
        raise SosRefusal(f"A^2 != p*I at x = {','.join(map(str, x))}: entry ({i},{j}) of A^2 is {got}, of p*I {want}")

    squares: list[MultiPoly] = []
    for j in range(m):
        entry = matrix.rows[j][column]
        if entry.is_zero():
            continue
        if matrix.kind == KIND_SYMMETRIC:
            squares.append(_normalize_sign(entry))
            continue
        real = {e: GaussianRational(c.re) for e, c in entry.terms.items() if c.re}
        imag = {e: GaussianRational(c.im) for e, c in entry.terms.items() if c.im}
        squares.extend(_normalize_sign(MultiPoly(matrix.ring, part)) for part in (real, imag) if part)

    if _sum_of_squares(matrix.ring, squares) != p:
        raise AssertionError("internal error: extracted squares do not sum to p")

    notes = {
        "square-count": len(squares),
        "count-bound": f"{m} (symmetric: 2r)" if matrix.kind == KIND_SYMMETRIC else f"{2 * m - 1} (hermitian: 4r-1)",
    }
    square = real_square_factorization(p)
    if square is not None:
        notes["p-is-a-square"] = f"p = {square[0]}*({square[1]})^2"
    return SosDecomposition(squares, p, matrix.kind, column, notes)


# ---------------------------------------------------------------------------
# Pluecker coordinates of lines in P^4
# ---------------------------------------------------------------------------

_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def plucker_line(
    p: Sequence[RationalLike], q: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Pluecker coordinates x_ij = p_i q_j - p_j q_i of the line through two
    points of P^4, ordered x01, x02, x03, x04, x12, x13, x14, x23, x24, x34."""
    if len(p) != 5 or len(q) != 5:
        raise ValueError("points must have 5 homogeneous coordinates")
    pf = [as_fraction(c) for c in p]
    qf = [as_fraction(c) for c in q]
    coords = tuple(pf[i] * qf[j] - pf[j] * qf[i] for i, j in _PLUCKER_PAIRS)
    if not any(coords):
        raise ValueError("points are proportional; they do not span a line")
    return coords
