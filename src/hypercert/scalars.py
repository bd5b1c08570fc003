"""Exact scalar arithmetic over Q and Q(i).

Rationals are ``fractions.Fraction`` throughout (always normalized, positive
denominator).  On top of that this module provides Gaussian rationals,
Lagrange four-square decompositions of positive rationals, the one
fraction-free (Bareiss) elimination behind every exact determinant and
minor, and Sylvester's test of constant symmetric/hermitian matrices, run
on their integer multiples in Z, or in Z[i] as a real and an imaginary
matrix of plain ints.  A ``ConstMatrix`` keeps only that integer form; it
checks its kind on it and reads its rows of Gaussian rationals off it.
A pencil sum_i x_i A_i at a rational point is one int sum over its slices'
integer forms (:func:`_pencil_at`).
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

KIND_SYMMETRIC = "symmetric"
KIND_HERMITIAN = "hermitian"
KIND_NONE = "none"
MATRIX_KINDS = (KIND_SYMMETRIC, KIND_HERMITIAN, KIND_NONE)

# Here, not in hyperbolicity and clifford, so that the CLI's parser and main need neither.
DEFAULT_SAMPLES = 500
DEFAULT_BOX = 50


class CapacityError(ValueError):
    """k forms need a Q over clifford's MAX_PENCIL rows; raised before any table is built."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings ("p/q" or "p") and Fractions to Fraction."""
    if type(value) is int:  # before isinstance(.., Fraction), an ABC check
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not a rational value: {value!r}")


class GaussianRational:
    """An exact element a + b*i of Q(i).

    Immutable; real and imaginary parts are Fractions.  ``conj`` is an
    involution and ``z * z.conj()`` is real and nonnegative.  A zero
    imaginary part is the shared ``_ZERO`` Fraction, which the arithmetic
    uses to take its real fast paths without a Fraction call.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im) or _ZERO)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        if self.im is _ZERO and other.im is _ZERO:
            return _gaussian(self.re + other.re, _ZERO)
        return _gaussian(self.re + other.re, (self.im + other.im) or _ZERO)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        if self.im is _ZERO and other.im is _ZERO:
            return _gaussian(self.re - other.re, _ZERO)
        return _gaussian(self.re - other.re, (self.im - other.im) or _ZERO)

    def __neg__(self) -> "GaussianRational":
        im = self.im
        return _gaussian(-self.re, _ZERO if im is _ZERO else -im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        if self.im is _ZERO and other.im is _ZERO:
            return _gaussian(self.re * other.re, _ZERO)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gaussian(a * c - b * d, (a * d + b * c) or _ZERO)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if self.im is _ZERO and other.im is _ZERO and other.re:
            return _gaussian(self.re / other.re, _ZERO)
        if other.is_zero():
            raise ZeroDivisionError("division by zero Gaussian rational")
        n = other.norm()
        a, b, c, d = self.re, self.im, other.re, -other.im
        return _gaussian((a * c - b * d) / n, ((a * d + b * c) / n) or _ZERO)

    def conj(self) -> "GaussianRational":
        im = self.im
        return _gaussian(self.re, _ZERO if im is _ZERO else -im)

    def norm(self) -> Fraction:
        """z * conj(z) as a rational (always >= 0)."""
        return self.re * self.re + self.im * self.im

    def scale(self, c: RationalLike) -> "GaussianRational":
        c = as_fraction(c)
        return _gaussian(self.re * c, (self.im * c) or _ZERO)

    # -- comparisons and hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    # -- wire format -----------------------------------------------------

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sep = "+" if self.im > 0 else "-"
        return f"{self.re}{sep}{_imag_str(abs(self.im))}"

    def __repr__(self) -> str:
        return f"GaussianRational({self})"


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


_ZERO = Fraction(0)
_new_object = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """Trusted constructor for the arithmetic: both parts must already be
    Fractions, and a zero imaginary part must be ``_ZERO``."""
    z = _new_object(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


# ---------------------------------------------------------------------------
# Four-square decomposition
# ---------------------------------------------------------------------------


def four_square_decompose(c: RationalLike) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Write a positive rational u/v exactly as q1^2+q2^2+q3^2+q4^2.

    The integer u*v is decomposed into four integer squares and each is
    divided by v.  Output is sorted in descending order.
    """
    c = as_fraction(c)
    if c <= 0:
        raise ValueError(f"four_square_decompose requires a positive input, got {c}")
    u, v = c.numerator, c.denominator
    parts = _four_squares_int(u * v)
    return tuple(Fraction(w, v) for w in parts)  # type: ignore[return-value]


def _four_squares_int(n: int) -> tuple[int, int, int, int]:
    """Lagrange decomposition of n >= 0 into four integer squares,
    descending.  Factors of 4 are stripped first so small answers stay small."""
    if n == 0:
        return (0, 0, 0, 0)
    shift = 0
    while n % 4 == 0:
        n //= 4
        shift += 1
    a = 0
    while a * a <= n:
        rest = n - a * a
        if _is_sum_of_three_squares(rest):
            b, c, d = _three_squares_int(rest)
            quad = sorted((a, b, c, d), reverse=True)
            return tuple(w << shift for w in quad)  # type: ignore[return-value]
        a += 1
    raise AssertionError(f"unreachable: Lagrange decomposition failed for {n}")


def _is_sum_of_three_squares(n: int) -> bool:
    # Legendre: representable iff n is not of the form 4^a (8b + 7).
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


def _three_squares_int(n: int) -> tuple[int, int, int]:
    """Decompose n (known representable) into three squares."""
    if n == 0:
        return (0, 0, 0)
    b = math.isqrt(n)
    # The largest component of any representation is at least sqrt(n/3).
    while 3 * b * b >= n:
        pair = _two_squares_int(n - b * b)
        if pair is not None:
            return (b, pair[0], pair[1])
        b -= 1
    raise AssertionError(f"unreachable: three-square decomposition failed for {n}")


def _two_squares_int(n: int) -> Optional[tuple[int, int]]:
    if n == 0:
        return (0, 0)
    c = math.isqrt(n)
    while 2 * c * c >= n:
        d_sq = n - c * c
        d = math.isqrt(d_sq)
        if d * d == d_sq:
            return (c, d)
        c -= 1
    return None


# ---------------------------------------------------------------------------
# Constant matrices and definiteness
# ---------------------------------------------------------------------------


class ConstMatrix:
    """Square matrix of Gaussian rationals with a symmetry-kind tag, kept
    only in integer form (D, cells): D > 0 a common denominator and the
    nonzero int parts of D*a_ij as {k: part}, k = i*m + j for the real part
    and m*m + i*m + j for the imaginary part.  The constructor scales its
    rows into that form; ``entries`` rebuilds them on each read, with one
    object per distinct value.
    """

    __slots__ = ("size", "kind", "_ints")

    def __init__(self, entries: Sequence[Sequence[GaussianRational]], kind: str = KIND_NONE):
        rows = tuple(map(tuple, entries))
        _check_rows(rows, kind)
        if not all(isinstance(a, GaussianRational) for row in rows for a in row):
            raise TypeError("entries must be GaussianRational")
        m = len(rows)  # zero entries are often the shared GR_ZERO, which `is` finds fast
        nonzero = {i * m + j: a for i, row in enumerate(rows) for j, a in enumerate(row) if a is not GR_ZERO and a}
        den, scaled = _over_integers(list(nonzero.values()))
        cells = {k + part * m * m: v for k, a in nonzero.items() for part, v in enumerate(scaled(a)) if v}
        for name, value in (("size", m), ("kind", kind), ("_ints", (den, cells))):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_ints(cls, m: int, den: int, cells: dict[int, int], kind: str) -> "ConstMatrix":
        """The m x m matrix of integer form (den, cells), trusted as given."""
        mat = object.__new__(cls)
        for name, value in (("size", m), ("kind", kind), ("_ints", (den, cells))):
            object.__setattr__(mat, name, value)
        return mat

    def __setattr__(self, name, value):
        raise AttributeError("ConstMatrix is immutable")

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        (den, cells), m = self._ints, self.size
        pairs = [(cells.get(k, 0), cells.get(m * m + k, 0)) for k in range(m * m)]
        value = {(0, 0): GR_ZERO}  # one object per distinct (re, im)
        for re, im in set(pairs) - value.keys():
            value[re, im] = _gaussian(Fraction(re, den), Fraction(im, den) if im else _ZERO)
        return tuple(tuple(map(value.get, pairs[i * m : i * m + m])) for i in range(m))

    def _key(self) -> tuple:
        """The kind, size and integer form over the least common denominator."""
        den, cells = self._ints
        g = math.gcd(den, *cells.values())
        return self.kind, self.size, den // g, frozenset((k, v // g) for k, v in cells.items())

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, ConstMatrix) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def kind_violation(self) -> Optional[tuple[int, int]]:
        """First (i, j) with i <= j, row by row, where the matrix breaks its
        kind, or None: symmetric needs a_ij = a_ji real, hermitian
        a_ij = conj(a_ji).  The integer form is compared with its transpose,
        conjugated when hermitian, in one dict."""
        if self.kind == KIND_NONE:
            return None
        m, (_, cells) = self.size, self._ints
        mm, hermitian = m * m, self.kind == KIND_HERMITIAN
        # Each part's cell (i, j) goes to (j, i) of the same part, negated if imaginary and hermitian.
        mirror = {k % m * m + k // m + (mm - m if k >= mm else 0): -v if hermitian and k >= mm else v
                  for k, v in cells.items()}
        if mirror == cells and (hermitian or max(cells, default=-1) < mm):
            return None
        bad = (divmod(k % mm, m) for k in cells.keys() | mirror.keys()
               if cells.get(k) != mirror.get(k) or k >= mm and not hermitian)
        return min((min(ij), max(ij)) for ij in bad)

    def to_rows(self) -> list[list[str]]:
        return [[str(e) if e else "0" for e in row] for row in self.entries]


def _check_rows(rows: Sequence[Sequence], kind: str) -> None:
    """Raise the ValueError of a ConstMatrix of ``kind`` with these rows, if any."""
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")


def _common_kind(matrices: Sequence[ConstMatrix]) -> str:
    """The matrices' common symmetry kind, or KIND_NONE if they differ."""
    kinds = {mat.kind for mat in matrices}
    return kinds.pop() if len(kinds) == 1 else KIND_NONE


# Kept only as a hook of perfbench's tracer, until the benchmark drops it.
def pencil_value(matrices: Sequence[ConstMatrix], point: Sequence[RationalLike]) -> ConstMatrix:
    """sum_i point_i * A_i in integer form (:func:`_pencil_at`).

    The result keeps the slices' common kind, or is KIND_NONE if they differ.
    """
    if len(matrices) != len(point):
        raise ValueError("pencil length does not match point arity")
    if not matrices:
        raise ValueError("empty pencil")
    m = matrices[0].size
    if any(mat.size != m for mat in matrices):
        raise ValueError("size mismatch")
    return ConstMatrix._of_ints(m, *_pencil_at(_integer_slices(matrices), point), _common_kind(matrices))


def bareiss(rows: list[list], im: Optional[list[list]], pivoting: bool) -> tuple[list, int]:
    """Fraction-free (Bareiss 1968) elimination, in place, of the square int
    matrix ``rows`` (or of entries with ``* - //``, such as polynomials),
    or with ``im`` of rows + i*im over Z[i], its two int parts side by side.
    Each update divides exactly by the previous pivot q: by ``//``, over
    Z[i] as a product with conj(q) over |q|^2.  Returns (pivots, sign), the
    pivots as (re, im) pairs ending at the first zero one.  Without
    ``pivoting`` pivot k is the leading principal minor of order k + 1.
    With ``pivoting`` a zero pivot is swapped for a nonzero entry below it
    (each swap flips ``sign``), so a full list ends in sign * det.
    """
    n = len(rows)
    pivots: list = []
    sign, prev, prev_im = 1, 1, 0
    for k in range(n):
        if pivoting and not (rows[k][k] or im and im[k][k]):
            for p in range(k + 1, n):
                if rows[p][k] or im and im[p][k]:
                    for part in (rows, im) if im else (rows,):
                        part[k], part[p] = part[p], part[k]
                    sign = -sign
                    break
        row_k, pivot = rows[k], rows[k][k]
        pivot_im = im[k][k] if im else 0
        pivots.append((pivot, pivot_im))
        if not (pivot or pivot_im):
            break
        if not im:  # the first pivot divides nothing, so polynomial entries never meet an int divisor
            for row_i in rows[k + 1 :]:
                a = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (pivot * row_i[j] - a * row_k[j]) // prev if k else pivot * row_i[j] - a * row_k[j]
        else:
            im_k, norm = im[k], prev * prev + prev_im * prev_im
            for row_i, im_i in zip(rows[k + 1 :], im[k + 1 :]):
                a, b = row_i[k], im_i[k]
                if pivot_im or prev_im:  # x + y*i = (u + v*i) * pivot - (a + b*i) * (w + z*i), then over q = prev
                    for j in range(k + 1, n):  # (x + y*i) / q = (x + y*i) * conj(q) / |q|^2
                        u, v, w, z = row_i[j], im_i[j], row_k[j], im_k[j]
                        x, y = pivot * u - pivot_im * v - a * w + b * z, pivot * v + pivot_im * u - a * z - b * w
                        row_i[j], im_i[j] = (x * prev + y * prev_im) // norm, (y * prev - x * prev_im) // norm
                else:  # both real, as in a hermitian matrix without swaps
                    for j in range(k + 1, n):
                        u, v, w, z = row_i[j], im_i[j], row_k[j], im_k[j]
                        row_i[j], im_i[j] = (pivot * u - a * w + b * z) // prev, (pivot * v - a * z - b * w) // prev
        prev, prev_im = pivot, pivot_im
    return pivots, sign


def _over_integers(coeffs: Sequence[GaussianRational]) -> tuple[int, Callable]:
    """(D, scaled): the lcm D of the coefficients' denominators and the map
    c -> (re, im), the two int parts of D*c."""
    den = math.lcm(*{q.denominator for c in coeffs for q in (c.re, c.im)})
    return den, lambda c: (c.re.numerator * (den // c.re.denominator),
                           0 if c.im is _ZERO else c.im.numerator * (den // c.im.denominator))


def _integer_slices(matrices: Sequence[ConstMatrix]) -> tuple:
    """(m, D, slices) for the m x m pencil sum_i x_i A_i: D the lcm of the
    slices' denominators and each slice's integer form over D (see
    :class:`ConstMatrix`), rescaled only where its own denominator differs."""
    forms = [mat._ints for mat in matrices]
    den = math.lcm(*[d for d, _ in forms])
    return matrices[0].size, den, [cells if d == den else {k: v * (den // d) for k, v in cells.items()}
                                   for d, cells in forms]


def first_nonpositive_minor(matrix: ConstMatrix) -> Optional[tuple[int, Fraction]]:
    """Sylvester's test on one matrix (:func:`first_nonpositive_minor_at`)."""
    return first_nonpositive_minor_at(_integer_slices([matrix]), [1])


def _pencil_at(pencil: tuple, point: Sequence[RationalLike]) -> tuple[int, dict[int, int]]:
    """(s, cells): A = sum_i point_i * A_i in the integer form of
    :class:`ConstMatrix`, over s = D*L for the slices scaled by D
    (:func:`_integer_slices`) and L the lcm of the point's denominators,
    summed part by part in ints through the nonzero cells of the slices with
    point_i != 0.  The one sum of a pencil at a point."""
    _, den, slices = pencil
    used = [(c, cells) for c, cells in zip(map(as_fraction, point), slices) if c]
    point_den = math.lcm(*(c.denominator for c, _ in used))
    flat: dict[int, int] = {}
    for c, cells in used:
        factor = c.numerator * (point_den // c.denominator)
        for k, a in cells.items():
            flat[k] = flat.get(k, 0) + a * factor
    return den * point_den, {k: v for k, v in flat.items() if v}


def first_nonpositive_minor_at(pencil: tuple, point: Sequence[RationalLike]) -> Optional[tuple[int, Fraction]]:
    """Sylvester's test on A = sum_i point_i * A_i: (1-based order k, value)
    of its first nonpositive leading minor, or None.

    s*A, summed in ints by :func:`_pencil_at`, has leading minors s^k times
    A's: prefix products of its diagonal when it is real and diagonal, else
    the pivots of :func:`bareiss` without pivoting, over Z or, when an
    imaginary part is nonzero, Z[i].  An imaginary minor breaks the
    symmetric/hermitian invariant and raises.
    """
    m = pencil[0]
    scale, cells = _pencil_at(pencil, point)
    if all(k < m * m and not k % (m + 1) for k in cells):
        pivots = [(p, 0) for p in itertools.accumulate([cells.get(k, 0) for k in range(0, m * m, m + 1)], operator.mul)]
    else:
        parts = 1 + any(k >= m * m for k in cells)
        rows = [[cells.get(k * m + j, 0) for j in range(m)] for k in range(parts * m)]
        pivots = bareiss(rows[:m], rows[m:] or None, False)[0]
    bad = next((k for k, (_, im) in enumerate(pivots, 1) if im), None)
    if bad is not None:
        raise ArithmeticError(f"leading principal minor {bad} is not real; hermitian invariant broken")
    return next(((k, Fraction(p, scale**k)) for k, (p, _) in enumerate(pivots, 1) if p <= 0), None)
