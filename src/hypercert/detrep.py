"""Polynomial matrices, exact determinants, and verification of definite
symmetric/hermitian determinantal representations.

Two input shapes are supported: pencils sum_i x_i A_i with constant
matrices A_i (entries degree 1), and companion forms y*I - A(x) where A has
homogeneous entries of the weight of y.  Verification reports are exact:
every failed check carries a witness that re-verifies independently.

A determinant identity det = c*h^r is decided by the involution route where
it applies, else on the lattice for a pencil and by fraction-free Bareiss
elimination over polynomials (:func:`poly_det`) for a companion:

- *involution*: if trace Q = 0 and Q^2 = P*I then
  det(y*I - Q) = (y^2 - P)^(m/2) (:func:`_involution`), so an input of that
  shape -- a pencil ell*I - Q for quadratic h, or a symmetric/hermitian A
  with h = y^2 - P -- is decided by forming Q^2 once;
- *lattice* (every other pencil): two forms of degree m in n variables are
  equal iff they agree at the T = C(m+n-1, n-1) points x = (1, b),
  b in N^(n-1) with |b| <= m, the principal lattice of a simplex (Chung and
  Yao, SIAM J. Numer. Anal. 14, 1977).  So det(sum x_i A_i) = c*h^r is
  decided by comparing T integer or Gaussian-integer determinants with
  c*h(x)^r (:func:`_lattice_match`), and a failure names the first point
  where they differ, which one ``const_det(pencil_value(A, x))`` re-checks.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

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
    _kind_violation,
    as_fraction,
    bareiss,
    first_nonpositive_minor,
    pencil_value,
)
from .wire import _json_field, _json_flag, _json_list, _json_strings


class PolyMatrix:
    """Square matrix of MultiPoly entries with a symmetry-kind tag."""

    __slots__ = ("ring", "rows", "kind", "_square")

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
        object.__setattr__(self, "_square", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_strings(cls, ring: Ring, rows: Sequence[Sequence[str]], kind: str = KIND_NONE) -> "PolyMatrix":
        return cls(ring, [[parse(s, ring) for s in row] for row in rows], kind)

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> MultiPoly:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows and self.kind == other.kind

    def kind_violation(self) -> Optional[tuple[int, int]]:
        """First entry (i, j) breaking the declared symmetry kind, or None."""
        return _kind_violation(self.rows, self.kind, MultiPoly.conjugate)

    def conjugate(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, [[p.conjugate() for p in row] for row in self.rows], self.kind)

    def trace(self) -> MultiPoly:
        total = MultiPoly.zero(self.ring)
        for k in range(self.size):
            total = total + self.rows[k][k]
        return total

    def sub(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.size != other.size or self.ring != other.ring:
            raise ValueError("matrix shape/ring mismatch")
        return PolyMatrix(
            self.ring,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            KIND_NONE,
        )

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

    def square(self) -> "PolyMatrix":
        """self.matmul(self), formed once per (immutable) matrix."""
        if self._square is None:
            object.__setattr__(self, "_square", self.matmul(self))
        return self._square

    def scalar_mismatch(self, p: MultiPoly) -> Optional[tuple[int, int, MultiPoly]]:
        """First entry (i, j, value), row by row, where this matrix differs
        from p*I, or None.  Checks an involution A^2 = p*I on A.square()."""
        for i, row in enumerate(self.rows):
            for j, entry in enumerate(row):
                if (entry != p) if i == j else entry:
                    return (i, j, entry)
        return None

    def eval_at(self, point: Sequence[RationalLike], kind: Optional[str] = None) -> ConstMatrix:
        pt = [as_fraction(c) for c in point]
        return ConstMatrix(
            [[p.eval(pt) for p in row] for row in self.rows],
            self.kind if kind is None else kind,
        )

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
            "entries": [[str(p) for p in row] for row in self.rows],
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


def scalar_polymatrix(p: MultiPoly, n: int, kind: str = KIND_SYMMETRIC) -> PolyMatrix:
    zero = MultiPoly.zero(p.ring)
    return PolyMatrix(p.ring, [[p if i == j else zero for j in range(n)] for i in range(n)], kind)


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------


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


class _GaussInt:
    """A Gaussian integer re + im*i, with the operations of a lattice-point
    determinant (Bareiss needs ``*``, ``-``, truth and an exact division)."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __add__(self, other: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "_GaussInt":
        return _GaussInt(-self.re, -self.im)

    def __mul__(self, other: "_GaussInt") -> "_GaussInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        return _GaussInt(a * c - b * d, a * d + b * c)

    def divide_exact(self, other: "_GaussInt") -> "_GaussInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        norm = c * c + d * d
        return _GaussInt((a * c + b * d) // norm, (b * c - a * d) // norm)


def _lattice_match(
    matrices: Sequence[ConstMatrix], h: MultiPoly, r: int, up_to_scalar: bool
) -> tuple[Fraction, Optional[str]]:
    """(c, witness) for det(sum x_i A_i) = c * h^r, with witness None when
    the identity holds, decided on the simplex lattice (see the module
    docstring).

    The pencil is scaled by the lcm D of its denominators, so each lattice
    determinant is D^m times the value, taken over Z (or Z[i] when an entry
    is not real) by the one Bareiss elimination.  The input checks are those
    of :func:`pencil_to_polymatrix`.
    """
    m = matrices[0].size
    if any(mat.size != m for mat in matrices):
        raise ValueError("pencil matrices must share one size")
    cells = [[c for row in mat.entries for c in row] for mat in matrices]
    gaussian = any(c.im for flat in cells for c in flat)
    if gaussian and not h.ring.gaussian:
        raise ValueError("imaginary coefficient in a non-gaussian ring")
    den = math.lcm(*{q.denominator for flat in cells for c in flat for q in (c.re, c.im)})
    scale = den**m

    def scaled(q: Fraction) -> int:
        return q.numerator * (den // q.denominator)

    if gaussian:
        slices = [[_GaussInt(scaled(c.re), scaled(c.im)) for c in flat] for flat in cells]
        one, divide = _GaussInt(1, 0), _GaussInt.divide_exact
    else:
        slices = [[scaled(c.re) for c in flat] for flat in cells]
        one, divide = 1, operator.floordiv

    def value(flat: list) -> tuple[int, int]:
        det = _det([flat[i * m : (i + 1) * m] for i in range(m)], one, divide)
        return (det.re, det.im) if gaussian else (det, 0)

    dets = _on_lattice(slices, m, value)  # den^m * det at x = (1, b)
    if not any(re or im for re, im in dets.values()):
        return (Fraction(0), "determinant is identically zero")
    h_den = math.lcm(*(q.denominator for c in h.terms.values() for q in (c.re, c.im)))
    h_terms = [
        (e[1:], c.re.numerator * (h_den // c.re.denominator), c.im.numerator * (h_den // c.im.denominator))
        for e, c in h.terms.items()
    ]

    def target(b: tuple[int, ...]) -> tuple[int, int]:
        """(h_den * h(1, b))^r over Z[i]."""
        re = im = 0
        for expo, a_re, a_im in h_terms:
            mono = math.prod(map(pow, b, expo))
            re += a_re * mono
            im += a_im * mono
        return _pair_pow(re, im, r)

    targets = {b: target(b) for b in dets}
    h_scale = h_den**r

    def exact(pair: tuple[int, int], den: int) -> GaussianRational:
        return GaussianRational(Fraction(pair[0], den), Fraction(pair[1], den))

    def at(b: tuple[int, ...]) -> str:
        return f"at x = {','.join(map(str, (1,) + b))}: det = {exact(dets[b], scale)}"

    c = Fraction(1)
    if up_to_scalar:  # h^r is a nonzero form of degree m, so some h(x) != 0
        b = next(b for b, t in targets.items() if any(t))
        ratio = exact(dets[b], scale) / exact(targets[b], h_scale)
        if ratio.im:
            return (Fraction(0), f"{at(b)}, h^r = {exact(targets[b], h_scale)}, not a real multiple")
        c = ratio.re
    # det = c * h^r at x, with c = p/q: q * h_scale * value = p * scale * target.
    left, right = c.denominator * h_scale, c.numerator * scale
    for b, (re, im) in dets.items():
        t_re, t_im = targets[b]
        if re * left != t_re * right or im * left != t_im * right:
            return (c, f"{at(b)}, c*h^r = {exact(targets[b], h_scale).scale(c)}")
    return (c, None)


def _on_lattice(slices: Sequence[list], m: int, value) -> dict[tuple[int, ...], tuple[int, int]]:
    """value(sum_i x_i * slices[i]) at x = (1, b) for every b in N^(n-1) with
    |b| <= m, keyed by b in lexicographic order.  The walk is depth first,
    so each point's sum is an earlier point's plus one slice."""
    values = {}

    def walk(b: tuple[int, ...], total: list, k: int) -> None:
        if k == len(slices):
            values[b] = value(total)
            return
        for t in range(m - sum(b) + 1):
            if t:
                total = list(map(operator.add, total, slices[k]))
            walk(b + (t,), total, k + 1)

    walk((), slices[0], 1)
    return values


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
    the determinant route: "minimal-polynomial-shortcut" (an involution),
    "lattice" (every other pencil) or "bareiss" (companions outside the
    involution route).  ``scalar`` is c = 1, or with ``up_to_scalar`` the c
    with det = c*h^r: the ratio of leading coefficients on the involution
    route, det/h^r at the first lattice point where h != 0 on the lattice
    route.  The two agree whenever the identity holds; a failed check
    reports the c it tried, and 0 for a zero determinant or a ratio that is
    not real.  The companion route records whether its branch P is a square.
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


def _truncate(text: str, limit: int = 200) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


def pencil_to_polymatrix(matrices: Sequence[ConstMatrix], ring: Ring) -> PolyMatrix:
    """sum_i x_i A_i as a matrix of linear forms over ``ring``."""
    if len(matrices) != ring.arity:
        raise ValueError("need one constant matrix per ring variable")
    if not matrices:
        raise ValueError("empty pencil")
    m = matrices[0].size
    if any(mat.size != m for mat in matrices):
        raise ValueError("pencil matrices must share one size")
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            items = []
            for v, mat in enumerate(matrices):
                coeff = mat.entries[i][j]
                if coeff:
                    expo = tuple(1 if k == v else 0 for k in range(ring.arity))
                    items.append((expo, coeff))
            row.append(MultiPoly.from_terms(ring, items))
        rows.append(row)
    return PolyMatrix(ring, rows, _common_kind(matrices))


def polymatrix_to_pencil(matrix: PolyMatrix) -> list[ConstMatrix]:
    """Decompose a matrix of homogeneous linear forms into constant slices."""
    ring = matrix.ring
    m = matrix.size
    out = []
    for v in range(ring.arity):
        expo = tuple(1 if k == v else 0 for k in range(ring.arity))
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                p = matrix.rows[i][j]
                if p.weighted_degree() not in (None, 1):
                    raise ValueError(f"entry ({i},{j}) is not a linear form")
                row.append(p.terms.get(expo, GR_ZERO))
            rows.append(row)
        out.append(ConstMatrix(rows, matrix.kind))
    return out


def _match_scalar(
    det: MultiPoly, target: MultiPoly, up_to_scalar: bool, lhs: str = "det", rhs: str = "h^r"
) -> tuple[Fraction, Optional[str]]:
    """Find c with det == c * target; (c, None) on success else (c, witness).
    ``lhs`` and ``rhs`` name det and target in the witness."""
    if target.is_zero():
        return (Fraction(0), "target polynomial is zero")
    if det.is_zero():
        return (Fraction(0), "determinant is identically zero")
    lc_det = det.leading_coefficient()
    lc_target = target.leading_coefficient()
    if lc_det.im or lc_target.im:
        return (Fraction(0), "leading coefficient is not real")
    c = lc_det.re / lc_target.re if up_to_scalar else Fraction(1)
    diff = det - target.scale(c)
    if diff.is_zero():
        return (c, None)
    return (c, _truncate(f"{lhs} - {c}*{rhs} = {diff}"))


def verify_pencil(
    matrices: Sequence[ConstMatrix],
    h: MultiPoly,
    r: int,
    e: Sequence[RationalLike],
    up_to_scalar: bool = False,
) -> DetRepReport:
    """Check that det(sum x_i A_i) = c * h^r with definite value at e.

    Three named checks: symmetry kind, determinant identity (c = 1 unless
    ``up_to_scalar``), and positive definiteness of sum e_i A_i.  For
    quadratic h whose pencil is ell*I - Q with Q^2 = P*I (see
    :func:`_involution`) the determinant is (ell^2 - P)^r.  Every other
    pencil is decided on its values at the simplex lattice
    (:func:`_lattice_match`), and a failed identity is witnessed by the first
    lattice point x where det(A(x)) != c*h(x)^r, with both exact values.
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
            failures.append(
                CheckFailure("kind", f"matrix {idx} entry {bad} breaks {kind} symmetry")
            )

    matched = None
    if deg == 2:
        matched = _match_branch(pencil_to_polymatrix(matrices, ring), h, r, up_to_scalar)
    if matched is not None:
        notes["method"] = "minimal-polynomial-shortcut"
        scalar, det_witness = matched
    else:
        notes["method"] = "lattice"
        scalar, det_witness = _lattice_match(matrices, h, r, up_to_scalar)
    if det_witness is not None:
        failures.append(CheckFailure("determinant", det_witness))
    elif scalar <= 0:
        failures.append(CheckFailure("scalar-positivity", f"scalar c = {scalar} is not positive"))

    if kind != KIND_NONE and not any(f.name == "kind" for f in failures):
        value = pencil_value(matrices, [as_fraction(c) for c in e])
        bad_minor = first_nonpositive_minor(value)
        if bad_minor is not None:
            failures.append(
                CheckFailure(
                    "positive-definite",
                    f"leading principal minor of order {bad_minor[0]} at e is {bad_minor[1]}",
                )
            )

    ok = not failures and scalar > 0
    return DetRepReport(ok=ok, scalar=scalar, power=r, failures=failures, notes=notes)


def _involution(q: PolyMatrix) -> Optional[MultiPoly]:
    """P when trace(q) = 0 and q^2 = P*I, else None.

    Then det(y*I - q) = (y^2 - P)^(m/2) exactly: for P != 0 the minimal
    polynomial divides the squarefree y^2 - P, so the eigenvalues are
    +-sqrt(P), equally often since the trace is 0; for P = 0, q is nilpotent.
    """
    if not q.trace().is_zero():
        return None
    square = q.square()
    p = square.rows[0][0]
    return p if square.scalar_mismatch(p) is None else None


def _match_branch(
    pencil_matrix: PolyMatrix, h: MultiPoly, r: int, up_to_scalar: bool
) -> Optional[tuple[Fraction, Optional[str]]]:
    """(c, witness) for det M = c * h^r, with witness None when it holds, or
    None when the traceless part Q = ell*I - M of the pencil M, with
    ell = trace(M)/m, is not an involution.

    Otherwise det M = (ell^2 - P)^r, which is a multiple c of h^r exactly
    when the branch ell^2 - P is a multiple s of h, and then c = s^r.
    """
    m = pencil_matrix.size
    ell = pencil_matrix.trace().scale(Fraction(1, m))
    p = _involution(scalar_polymatrix(ell, m, KIND_NONE).sub(pencil_matrix))
    if p is None:
        return None
    s, witness = _match_scalar(ell * ell - p, h, True, "ell^2 - P", "h")
    c = s ** r
    if up_to_scalar or not c:  # c = 0: a zero or non-real determinant
        return (c, witness)
    if witness is None and c != 1:
        witness = f"det = {c}*h^r, not h^r"
    return (Fraction(1), witness)


def char_matrix(matrix: PolyMatrix, ring_h: Ring) -> PolyMatrix:
    """y*I - A over ``ring_h``, the ring of A with the variable y added."""
    lifted = PolyMatrix(ring_h, [[p.lift(ring_h) for p in row] for row in matrix.rows])
    y_poly = MultiPoly.variable(ring_h, "y")
    return scalar_polymatrix(y_poly, matrix.size, KIND_NONE).sub(lifted)


def verify_companion(matrix: PolyMatrix, h: MultiPoly, r: int) -> DetRepReport:
    """Check det(y*I - A) = h^r exactly for companion-form input.

    ``h`` lives in a ring containing the distinguished variable ``y`` of
    weight equal to the common degree of A's entries; ``matrix`` lives in the
    same ring without y.  When A is symmetric or hermitian and
    h = y^2 - P with A^2 = P*I and trace 0 (see :func:`_involution`), the
    identity holds; every other input gets the Bareiss determinant.
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
        failures.append(
            CheckFailure(
                "grading",
                f"entry {bad_entry} is not homogeneous of degree {weight_e}",
            )
        )
        return DetRepReport(False, Fraction(0), r, failures, notes)

    if matrix.kind == KIND_NONE:
        failures.append(CheckFailure("kind", "companion matrix has no declared symmetry kind"))
    else:
        bad = matrix.kind_violation()
        if bad is not None:
            failures.append(
                CheckFailure("kind", f"entry {bad} breaks {matrix.kind} symmetry")
            )

    p = None
    if d == 2 and matrix.kind in (KIND_SYMMETRIC, KIND_HERMITIAN):
        p = _involution(matrix)
    if p is not None and MultiPoly.variable(ring_h, "y") ** 2 - p.lift(ring_h) == h:
        notes["method"] = "minimal-polynomial-shortcut"
        square = real_square_factorization(p)
        notes["branch-not-a-square"] = (
            "verified" if square is None else f"p = {square[0]}*({square[1]})^2"
        )
    else:
        notes["method"] = "bareiss"
        det = poly_det(char_matrix(matrix, ring_h))
        _, det_witness = _match_scalar(det, h ** r, up_to_scalar=False)
        if det_witness is not None:
            failures.append(CheckFailure("determinant", det_witness))

    ok = not failures
    return DetRepReport(ok=ok, scalar=Fraction(1), power=r, failures=failures, notes=notes)


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


def _normalize_sign(p: MultiPoly) -> MultiPoly:
    lc = p.leading_coefficient()
    key = lc.re if lc.re else lc.im
    return -p if key < 0 else p


def detrep_to_sos(matrix: PolyMatrix, p: MultiPoly, column: int = 0) -> SosDecomposition:
    """Extract a sum-of-squares decomposition of p from A with A^2 = p*I.

    Symmetric A: the entries of one column already satisfy sum a_ji^2 = p.
    Hermitian A: real and imaginary parts of the column entries do.  The
    identity is re-verified exactly before returning.
    """
    if matrix.kind not in (KIND_SYMMETRIC, KIND_HERMITIAN):
        raise ValueError("SOS extraction needs a symmetric or hermitian matrix")
    bad = matrix.kind_violation()
    if bad is not None:
        raise ValueError(f"matrix entry {bad} breaks the declared {matrix.kind} symmetry")
    if p.ring != matrix.ring:
        raise ValueError("p must live in the matrix ring")
    m = matrix.size
    if not 0 <= column < m:
        raise ValueError("column index out of range")
    bad = matrix.square().scalar_mismatch(p)
    if bad is not None:
        i, j, entry = bad
        where = "diagonal" if i == j else "off-diagonal"
        raise ValueError(f"A^2 != p*I: {where} entry ({i},{j}) is {_truncate(str(entry))}")

    squares: list[MultiPoly] = []
    for j in range(m):
        entry = matrix.rows[j][column]
        if entry.is_zero():
            continue
        if matrix.kind == KIND_SYMMETRIC:
            squares.append(_normalize_sign(entry))
        else:
            re_part = MultiPoly(
                matrix.ring,
                {e: GaussianRational(c.re) for e, c in entry.terms.items() if c.re},
            )
            im_part = MultiPoly(
                matrix.ring,
                {e: GaussianRational(c.im) for e, c in entry.terms.items() if c.im},
            )
            for part in (re_part, im_part):
                if not part.is_zero():
                    squares.append(_normalize_sign(part))

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

PLUCKER_VARS = ("x01", "x02", "x03", "x04", "x12", "x13", "x14", "x23", "x24", "x34")
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def plucker_line(
    p: Sequence[RationalLike], q: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Pluecker coordinates x_ij = p_i q_j - p_j q_i of the line through two
    points of P^4, ordered as PLUCKER_VARS."""
    if len(p) != 5 or len(q) != 5:
        raise ValueError("points must have 5 homogeneous coordinates")
    pf = [as_fraction(c) for c in p]
    qf = [as_fraction(c) for c in q]
    coords = tuple(pf[i] * qf[j] - pf[j] * qf[i] for i, j in _PLUCKER_PAIRS)
    if not any(coords):
        raise ValueError("points are proportional; they do not span a line")
    return coords
