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
  det(y*I - Q) = (y^2 - P)^(m/2): the eigenvalues are +-sqrt(P), equally
  often since the trace is 0 (Q is nilpotent when P = 0).  Q^2 = P*I, a
  matrix identity of degree 2d for entries of degree d, is decided once per
  matrix by :func:`_squared`, which writes each cell of Q^2 as an integer
  combination of products of Q's distinct entries up to sign; on a Clifford
  Q only the one diagonal combination is left to evaluate on that lattice.
  The entries are the polynomials of the A of :func:`detrep_to_sos` or a
  companion A with P read off h = y^2 - P (:func:`_square_on_lattice`), or
  the linear cells of a pencil ell*I - Q for quadratic h, whose branch
  ell^2 - P = s*h is compared on the same points (:func:`_match_branch`);
- *lattice* (everything else): determinants at the T lattice points for a
  pencil (:func:`_lattice_match`), and for a companion at y in {0..m} times
  the lattice of degree m*w (:func:`_companion_match`), are compared with
  c*h(x)^r.

Values are D times the true ones, over Z or Z[i]: a pencil summed slice by
slice along the lattice (:func:`_on_lattice`), a linear cell of a pencil
from its coefficient vector, every other polynomial (the cells of A, p and
h) by the one polynomial evaluator,
:func:`~hypercert.polyring._evaluator`, each distinct monomial once per
point.  One comparer, :func:`_match_values`, reads the points lazily and
stops at a failure's witness: the first point where the two sides differ,
which one constant determinant re-checks.  No route expands a polynomial
determinant.  Definiteness at e is Sylvester's test on A(e) scaled into Z
or Z[i] (:func:`~hypercert.scalars.first_nonpositive_minor_at`).
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .polyring import (MultiPoly, ParseError, Ring, _evaluator, _exact, _pair_pow, _sum_of_squares, parse,
                       real_square_factorization)
from .scalars import (
    GR_ZERO,
    KIND_HERMITIAN,
    KIND_NONE,
    KIND_SYMMETRIC,
    MATRIX_KINDS,
    ConstMatrix,
    GaussianRational,
    RationalLike,
    _common_kind,
    _integer_slices,
    as_fraction,
    bareiss,
    first_nonpositive_minor_at,
)
from .wire import _json_field, _json_flag, _json_list, _json_strings


class PolyMatrix:
    """Square matrix of MultiPoly entries with a symmetry-kind tag.  Cells
    may share an entry, which is safe as both are immutable; the ring and
    degree checks and the JSON formatting run once per distinct entry, over
    ``distinct``: each distinct entry object once, in row order, found once
    at construction."""

    __slots__ = ("ring", "rows", "kind", "distinct")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[MultiPoly]], kind: str = KIND_NONE):
        if kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {kind!r}")
        mat = tuple(tuple(row) for row in rows)
        n = len(mat)
        if any(len(row) != n for row in mat):
            raise ValueError("matrix must be square")
        distinct = tuple({id(p): p for row in mat for p in row}.values())
        if any(p.ring is not ring and p.ring != ring for p in distinct):
            raise ValueError("entry ring mismatch")
        for name, value in (("ring", ring), ("rows", mat), ("kind", kind), ("distinct", distinct)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_strings(cls, ring: Ring, rows: Sequence[Sequence[str]], kind: str = KIND_NONE) -> "PolyMatrix":
        cells = {s: parse(s, ring) for s in dict.fromkeys(itertools.chain.from_iterable(rows))}  # in row order
        return cls(ring, [[cells[s] for s in row] for row in rows], kind)

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows and self.kind == other.kind

    def kind_violation(self) -> Optional[tuple[int, int]]:
        """First (i, j) with i <= j, row by row, where the matrix breaks its
        kind, or None: symmetric needs a_ij = a_ji real, hermitian
        a_ij = conj(a_ji).  Realness is tested once per distinct entry."""
        if self.kind == KIND_NONE:
            return None
        rows, hermitian = self.rows, self.kind == KIND_HERMITIAN
        real = {id(p): p.is_real() for p in self.distinct}
        for i, row in enumerate(rows):
            for j in range(i, len(rows)):
                a, b = row[j], rows[j][i]
                if a is b:  # a diagonal entry or one shared with its mirror: it need only be real
                    bad = not real[id(a)]
                else:
                    bad = a != b.conjugate() if hermitian else not real[id(a)] or a != b
                if bad:
                    return (i, j)
        return None

    def trace(self) -> MultiPoly:
        return sum(filter(None, (row[k] for k, row in enumerate(self.rows))), MultiPoly.zero(self.ring))

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

    def entry_degrees_homogeneous(self, degree: int) -> Optional[tuple[int, int]]:
        """First entry that is not weighted-homogeneous of the given degree
        (zero entries are fine), or None."""
        bad = {id(p) for p in self.distinct
               if p and not (p.is_weighted_homogeneous() and p.weighted_degree() == degree)}
        cells = ((i, j) for i, row in enumerate(self.rows) for j, p in enumerate(row) if id(p) in bad)
        return next(cells) if bad else None

    def to_json_dict(self) -> dict:
        text = {id(p): str(p) if p else "0" for p in self.distinct}
        return {
            "ring": {
                "vars": list(self.ring.variables),
                "weights": list(self.ring.weights),
                "gaussian": self.ring.gaussian,
            },
            "kind": self.kind,
            "entries": [[text[id(p)] for p in row] for row in self.rows],
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
    (``//``) are exact in the polynomial ring."""
    return _det([list(row) for row in matrix.rows])[0] if matrix.size else MultiPoly.constant(matrix.ring, 1)


def const_det(matrix: ConstMatrix) -> GaussianRational:
    """Exact determinant of a constant matrix: det(D*A) = D^m * det(A), for D
    the lcm of its denominators, taken over Z or Z[i]."""
    m, den, (cells,) = _integer_slices([matrix])
    rows = [[cells.get(k * m + j, 0) for j in range(m)] for k in range(2 * m)]
    return _exact(_det(rows[:m], rows[m:] if any(k >= m * m for k in cells) else None), den**m)


def _det(rows: list[list], im: Optional[list[list]] = None) -> tuple:
    """det of the square ``rows``, or of rows + i*im, eliminated in place
    (:func:`bareiss`), as an (re, im) pair: sign * last pivot, zero once a
    column has no pivot, 1 when 0x0."""
    pivots, sign = bareiss(rows, im, True)
    det = pivots[-1] if pivots else (1, 0)
    return det if sign > 0 else (-det[0], -det[1])


def _lattice_match(pencil: tuple, h: MultiPoly, r: int, up_to_scalar: bool) -> tuple[Fraction, Optional[str]]:
    """(c, witness) for det(sum x_i A_i) = c * h^r, with witness None when
    the identity holds, decided on the simplex lattice (see the module
    docstring).  ``pencil`` is the slices scaled by the lcm D of their
    denominators (:func:`~hypercert.scalars._integer_slices`), so each
    lattice determinant, taken over Z or Z[i] from the rows of
    :func:`_pencil_on_lattice`, is D^m times the value (:func:`_match_values`)."""
    m, den, _ = pencil
    dets = ((x, _det(rows[:m], rows[m:] or None)) for x, rows in _pencil_on_lattice(pencil, m))
    return _match_values(dets, den**m, h, r, up_to_scalar)


def _companion_match(matrix: PolyMatrix, h: MultiPoly, r: int) -> Optional[str]:
    """Witness for det(y*I - A) = h^r, None when it holds, for A in h's ring
    without y, y of weight w and m = deg_y(h)*r.  Both sides are polynomials
    in y of degree <= m with forms of degree <= m*w in x as coefficients, so
    y in {0..m} times the lattice of degree m*w decides the identity.  There
    det((y*D)*I - D*A(x)) = D^m * det(y*I - A(x)), with each distinct entry
    of D*A(x) taken once by :func:`~hypercert.polyring._evaluator`, over Z
    or, where A(x) has an imaginary part, Z[i], is compared with h^r
    (:func:`_match_values`).
    """
    m, y_idx = matrix.size, h.ring.index("y")
    entries = matrix.distinct
    place = {id(p): k for k, p in enumerate(entries)}
    cells = [[place[id(p)] for p in row] for row in matrix.rows]
    den, values = _evaluator([p.terms for p in entries])

    def dets():
        for x in _lattice(matrix.ring.arity, m * h.ring.weights[y_idx], True):
            at = values(x)
            im = [[-at[len(entries) + k] for k in row] for row in cells] if any(at[len(entries):]) else None
            for y in range(m + 1):
                rows = [[y * den - at[k] if i == j else -at[k] for j, k in enumerate(row)] for i, row in enumerate(cells)]
                yield x[:y_idx] + (y,) + x[y_idx:], _det(rows, im and [row[:] for row in im])

    return _match_values(dets(), den**m, h, r, False)[1]


def _match_values(
    dets: Iterable[tuple[tuple[int, ...], Union[int, tuple[int, int]]]], scale: int, h: MultiPoly, r: int,
    up_to_scalar: bool, names: tuple[str, str, str] = ("det", "h^r", "c*h^r"),
) -> tuple[Fraction, Optional[str]]:
    """(c, witness) for det = c * h^r, with witness None when it holds, from
    pairs (x, scale * det(x)), an (re, im) pair over Z[i] or an int over Z,
    in order, at points x of h's ring that decide the identity: c = 1, or
    with ``up_to_scalar`` det/h^r at the first x where h(x) != 0.  A failure
    is, in this precedence, a det zero at every point, a ratio that is not
    real, or the first point where the two sides differ, with both exact
    values labelled by ``names``.  The pairs are read only until that is
    fixed: c known, a differing point and a nonzero det seen."""
    h_den, h_at = _evaluator([h.terms])
    h_scale = h_den**r

    def at(x: tuple[int, ...], det) -> str:
        return f"at x = {','.join(map(str, x))}: {names[0]} = {_exact(det, scale)}"

    # h_at(x) is the (re, im) of h_den * h(x), whose r-th power is the target.
    points = ((x, (det, 0) if type(det) is int else det, _pair_pow(*h_at(x), r)) for x, det in dets)
    read, c = [], Fraction(1)  # read: the points up to the one that fixes c
    if up_to_scalar:  # h^r is a nonzero form, so some h(x) != 0
        for x, det, t in points:
            read.append((x, det, t))
            if any(t):
                break
        ratio = _exact(det, scale) / _exact(t, h_scale)
        if ratio.im:  # so det(x) != 0: the determinant is not identically zero
            return (Fraction(0), f"{at(x, det)}, {names[1]} = {_exact(t, h_scale)}, not a real multiple")
        c = ratio.re
    # det = c * h^r at x, with c = p/q: q * h_scale * value = p * scale * target.
    left, right = c.denominator * h_scale, c.numerator * scale
    nonzero, witness = False, None
    for x, det, t in itertools.chain(read, points):
        nonzero = nonzero or any(det)
        if witness is None and (det[0] * left != t[0] * right or det[1] * left != t[1] * right):
            witness = f"{at(x, det)}, {names[2]} = {_exact(t, h_scale).scale(c)}"
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


def _pencil_on_lattice(pencil: tuple, degree: int) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """(x, rows) along :func:`_on_lattice` of the given degree for a pencil
    as :func:`_lattice_match` takes it: the m int rows of D*M(x), then, when
    an entry of M = sum x_i A_i is not real, the m rows of its imaginary part."""
    m, _, cells = pencil
    parts = 1 + any(k >= m * m for nonzero in cells for k in nonzero)  # 2 when an entry is not real
    slices = [[nonzero.get(k, 0) for k in range(parts * m * m)] for nonzero in cells]
    return ((x, [flat[k * m : k * m + m] for k in range(parts * m)]) for x, flat in _on_lattice(slices, degree))


def _squared(rows: list[list[tuple[int, int, int]]]) -> tuple[list[tuple], list[tuple[int, int, int]]]:
    """A^2 from the entry structure of A, once per matrix: row i lists the
    nonzero cells (j, b, s), a_ij = s*B_b with s = +-1, over base entries
    B_b.  Returns (combinations, checks): each distinct (A^2)_ij as
    ((a, b, c), ...), the sum of c*B_a*B_b over a <= b, (A^2)_00's first;
    and in row order the cells (i, j, k) of combination k that
    A^2 = (A^2)_00*I leaves open: (0, 0), a diagonal cell whose combination
    is not (A^2)_00's, and a nonzero off-diagonal one.  On a Clifford Q the
    off-diagonal products cancel, the diagonal cells agree: (0, 0) alone."""
    combos: dict[tuple, int] = {}  # combination -> its index
    checks: list[tuple[int, int, int]] = []
    for i, row in enumerate(rows):
        acc: dict[tuple[int, int, int], int] = {}
        for k, a, s in row:
            for j, b, t in rows[k]:
                key = (j, a, b) if a <= b else (j, b, a)
                acc[key] = acc.get(key, 0) + s * t
        cells: dict[int, list] = {i: []}
        for (j, a, b), c in sorted([item for item in acc.items() if item[1]]):
            cells.setdefault(j, []).append((a, b, c))
        for j in sorted(cells):
            k = combos.setdefault(tuple(cells[j]), len(combos))
            if i != j or k or not i:
                checks.append((i, j, k))
    return list(combos), checks


def _square_values(combos: list[tuple], re: list, im: list) -> list[tuple]:
    """The (re, im) value of each combination of :func:`_squared` from the
    values re + i*im of the base entries at one point."""
    return [(sum(c * (re[a] * re[b] - im[a] * im[b]) for a, b, c in terms),
             sum(c * (re[a] * im[b] + im[a] * re[b]) for a, b, c in terms)) for terms in combos]


def _square_on_lattice(matrix: PolyMatrix, points: Sequence[tuple], p: MultiPoly) -> Optional[tuple]:
    """Witness (x, i, j, got, want) for A^2 = p*I at the first of ``points``
    (which decide A^2 - p*I, :func:`_lattice`) and cell in row order where
    (A^2)_ij != delta_ij*p(x), or None.  The distinct entries of A, q and -q
    as one base entry, are squared once (:func:`_squared`); at each point
    only the combinations it leaves are evaluated, from D*B_b(x) and D*p(x)
    taken by :func:`~hypercert.polyring._evaluator`."""
    bases: dict[frozenset, int] = {}  # B_b, its lowest term's first nonzero part positive
    place = {}  # id(q) -> (b, s) with q = s*B_b
    for q in matrix.distinct:
        if q.terms:
            low = q.terms[min(q.terms)]
            s = -1 if (low.re or low.im) < 0 else 1
            key = frozenset((e, c) if s > 0 else (e, -c) for e, c in q.terms.items())
            place[id(q)] = (bases.setdefault(key, len(bases)), s)
    combos, checks = _squared([[(j,) + place[id(q)] for j, q in enumerate(row) if q.terms] for row in matrix.rows])
    den, values_at = _evaluator([dict(key) for key in bases] + [p.terms])
    half = len(bases) + 1  # values_at(x)[half:] are the imaginary parts
    for x in points:
        vals = values_at(x)
        got = _square_values(combos, vals, vals[half:])
        want = (vals[half - 1] * den, vals[-1] * den)
        for i, j, k in checks:
            if got[k] != (want if i == j else (0, 0)):
                return (x, i, j, _exact(got[k], den * den), _exact((vals[half - 1], vals[-1]), den) if i == j else GR_ZERO)
    return None


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


class CheckFailure(NamedTuple):
    name: str
    witness: str


class DetRepReport(NamedTuple):
    """Outcome of a determinantal-representation verification.

    ``ok`` implies no failures and scalar > 0.  ``notes["method"]`` names
    the determinant route: "minimal-polynomial-shortcut" (an involution) or
    "lattice" (every other pencil or companion).  ``scalar`` is c = 1, or
    with ``up_to_scalar`` the c with det = c*h^r, read at the first lattice
    point where h != 0: det/h^r on the lattice route, s^r with
    s = (ell^2 - P)/h on the involution route.  A failed check reports the
    c it tried, and 0 for a zero determinant or a ratio that is not real.
    The lattice walk stops at the first point that refutes the identity, and
    Sylvester's test at e runs over Z or Z[i].  A companion on the
    involution route records whether its branch P, read off h, is a square.
    """

    ok: bool
    scalar: Fraction
    power: int
    failures: list[CheckFailure]
    notes: dict

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "scalar": str(self.scalar),
            "power": self.power,
            "failures": [f._asdict() for f in self.failures],
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
    slices = [mat.entries for mat in matrices]  # each read once
    rows = [[MultiPoly.from_terms(ring, [(u, a[i][j]) for u, a in zip(units, slices) if a[i][j]]) for j in range(m)]
            for i in range(m)]
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
    Every check reads each slice's integer form, the one form a
    :class:`~hypercert.scalars.ConstMatrix` keeps.
    For quadratic h whose pencil is ell*I - Q with Q^2 = P*I the determinant
    is (ell^2 - P)^r (:func:`_match_branch`, from the integer slices).  Every
    other pencil is decided on its values at the simplex lattice
    (:func:`_lattice_match`).  A failed identity is witnessed by the first
    lattice point x where the two sides differ, with both exact values.
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

    pencil = _integer_slices(matrices)  # (m, D, slices)
    if not ring.gaussian and any(k >= m * m for cells in pencil[2] for k in cells):  # an imaginary part
        raise ValueError("imaginary coefficient in a non-gaussian ring")
    matched = _match_branch(pencil, h, r, up_to_scalar) if deg == 2 else None
    notes["method"] = "lattice" if matched is None else "minimal-polynomial-shortcut"
    scalar, det_witness = matched or _lattice_match(pencil, h, r, up_to_scalar)
    if det_witness is not None:
        failures.append(CheckFailure("determinant", det_witness))
    elif scalar <= 0:
        failures.append(CheckFailure("scalar-positivity", f"scalar c = {scalar} is not positive"))

    if kind != KIND_NONE and not any(f.name == "kind" for f in failures):
        bad_minor = first_nonpositive_minor_at(pencil, e)
        if bad_minor is not None:
            order, minor = bad_minor
            witness = f"leading principal minor of order {order} at e is {minor}"
            failures.append(CheckFailure("positive-definite", witness))
    return DetRepReport(ok=not failures and scalar > 0, scalar=scalar, power=r, failures=failures, notes=notes)


def _match_branch(pencil: tuple, h: MultiPoly, r: int, up_to_scalar: bool) -> Optional[tuple[Fraction, Optional[str]]]:
    """(c, witness) for det M = c * h^r, with witness None when it holds, or
    None when the traceless part Q = ell*I - M of the pencil
    M = sum x_i A_i, with ell = trace(M)/m, is not an involution.

    Otherwise det M = (ell^2 - P)^r, which is a multiple c of h^r exactly
    when the branch ell^2 - P is a multiple s of h, and then c = s^r.  The
    cells of m*D*M - t*I = -m*D*Q, t = trace(D*M), are linear forms whose
    int coefficient vectors over the slices, v and -v as one, are the base
    entries of :func:`_squared`.  On the lattice of degree 2, which decides
    both, the combinations it leaves must agree, and (m*D)^2 * (ell^2 - P)(x)
    = t^2 - (m*D*Q(x))^2_00 goes to :func:`_match_values`.
    """
    m, den, slices = pencil
    n, size = len(slices), m * m
    trace = [sum(cells.get(part + k * (m + 1), 0) for k in range(m)) for part in (0, size) for cells in slices]
    vectors: dict[int, list[int]] = {k * (m + 1): [-t for t in trace] for k in range(m)}
    for v, cells in enumerate(slices):
        for k, a in cells.items():
            vectors.setdefault(k % size, [0] * 2 * n)[v + n * (k >= size)] += m * a
    bases: dict[tuple, int] = {}  # B_b, its first nonzero coefficient positive
    rows: list[list] = [[] for _ in range(m)]
    for k in sorted(vectors):
        if any(vec := vectors[k]):
            sign = 1 if next(filter(None, vec)) > 0 else -1
            rows[k // m].append((k % m, bases.setdefault(tuple(sign * a for a in vec), len(bases)), sign))
    combos, checks = _squared(rows)
    re_parts, im_parts = [vec[:n] for vec in bases], [vec[n:] for vec in bases]
    branch = []
    for x in _lattice(n, 2, True):
        at = [sum(map(operator.mul, x, vec)) for vec in re_parts]
        got = _square_values(combos, at, [sum(map(operator.mul, x, vec)) for vec in im_parts])
        if any(got[k] != (got[0] if i == j else (0, 0)) for i, j, k in checks):
            return None
        t = (sum(map(operator.mul, x, trace[:n])), sum(map(operator.mul, x, trace[n:])))
        branch.append((x, (t[0] * t[0] - t[1] * t[1] - got[0][0], 2 * t[0] * t[1] - got[0][1])))
    s, witness = _match_values(branch, (m * den) ** 2, h, 1, True, ("ell^2 - P", "h", "s*h"))
    c = s**r
    if up_to_scalar or not c:  # c = 0: a zero determinant or branch
        return (c, witness)
    return (Fraction(1), witness if witness or c == 1 else f"det = {c}*h^r, not h^r")


def verify_companion(matrix: PolyMatrix, h: MultiPoly, r: int) -> DetRepReport:
    """Check det(y*I - A) = h^r exactly for companion-form input.

    ``h`` lives in a ring containing the distinguished variable ``y`` of
    weight equal to the common degree of A's entries; ``matrix`` lives in the
    same ring without y.  When A is symmetric or hermitian with trace 0,
    h = y^2 - P (d = 2, y^2 with coefficient 1, y in no other term) and
    A^2 = P*I (:func:`_square_on_lattice`), the identity holds; every other
    input is decided on values (:func:`_companion_match`), and a failure
    names the point, y included, where det(y*I - A(x)) and h^r differ.
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

    p = MultiPoly(ring_x, {e[:y_idx] + e[y_idx + 1 :]: -c for e, c in h.terms.items() if not e[y_idx]})
    branch = d == 2 and [(e[y_idx], c) for e, c in h.terms.items() if e[y_idx]] == [(2, 1)]  # h = y^2 - P
    if (branch and matrix.kind in (KIND_SYMMETRIC, KIND_HERMITIAN) and not matrix.trace()
            and _square_on_lattice(matrix, _lattice(ring_x.arity, 2 * weight_e, True), p) is None):
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


class SosDecomposition(NamedTuple):
    """p = sum of squares of the listed real polynomials (verified exactly)."""

    squares: list[MultiPoly]
    target: MultiPoly
    kind: str
    column: int
    notes: dict

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


def _square_mismatch(matrix: PolyMatrix, p: MultiPoly) -> Optional[str]:
    """None when A^2 = p*I, else the first point and entry where they differ,
    with both values, decided at the x in N^n with |x| <= D, D the largest
    degree of A^2 and p (:func:`_square_on_lattice`)."""
    degree = max([2 * sum(e) for row in matrix.rows for q in row for e in q.terms] + [sum(e) for e in p.terms] + [0])
    bad = _square_on_lattice(matrix, _lattice(matrix.ring.arity, degree, False), p)
    if bad is None:
        return None
    x, i, j, got, want = bad
    return f"A^2 != p*I at x = {','.join(map(str, x))}: entry ({i},{j}) of A^2 is {got}, of p*I {want}"


def detrep_to_sos(matrix: PolyMatrix, p: MultiPoly, column: int = 0) -> SosDecomposition:
    """Extract a sum-of-squares decomposition of p from A with A^2 = p*I.

    Symmetric A: the entries of one column already satisfy sum a_ji^2 = p.
    Hermitian A: real and imaginary parts of the column entries do.
    A^2 = p*I is decided on lattice values (:func:`_square_mismatch`); a
    failure names the point, the entry and both values.  Only such a
    refusal is a :class:`SosRefusal`.  The extracted squares are re-summed
    exactly.
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
    if (bad := _square_mismatch(matrix, p)) is not None:
        raise SosRefusal(bad)

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
