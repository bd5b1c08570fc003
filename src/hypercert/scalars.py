"""Exact scalar arithmetic over Q and Q(i).

Rationals are ``fractions.Fraction`` throughout (always normalized, positive
denominator).  On top of that this module provides Gaussian rationals,
Lagrange four-square decompositions of positive rationals, the one
fraction-free (Bareiss) elimination behind every exact determinant and
minor, and Sylvester positive-definiteness tests for constant
symmetric/hermitian matrices.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

KIND_SYMMETRIC = "symmetric"
KIND_HERMITIAN = "hermitian"
KIND_NONE = "none"
MATRIX_KINDS = (KIND_SYMMETRIC, KIND_HERMITIAN, KIND_NONE)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, strings ("p/q" or "p") and Fractions to Fraction."""
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

    def is_real(self) -> bool:
        return not self.im

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
    """Square matrix of Gaussian rationals with a symmetry-kind tag."""

    __slots__ = ("entries", "kind")

    def __init__(self, entries: Sequence[Sequence[GaussianRational]], kind: str = KIND_NONE):
        if kind not in MATRIX_KINDS:
            raise ValueError(f"unknown matrix kind {kind!r}")
        rows = tuple(tuple(e for e in row) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for row in rows:
            for e in row:
                if not isinstance(e, GaussianRational):
                    raise TypeError("entries must be GaussianRational")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("ConstMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstMatrix):
            return NotImplemented
        return self.entries == other.entries and self.kind == other.kind

    def __hash__(self):
        return hash((self.entries, self.kind))

    def kind_violation(self) -> Optional[tuple[int, int]]:
        """First entry (i, j) breaking the declared symmetry kind, or None."""
        return _kind_violation(self.entries, self.kind, GaussianRational.conj)

    def validate_kind(self) -> None:
        bad = self.kind_violation()
        if bad is not None:
            raise ValueError(f"matrix is not {self.kind}: entry {bad} violates the symmetry")

    def is_diagonal(self) -> bool:
        return all(
            not self.entries[i][j]
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        )

    def to_rows(self) -> list[list[str]]:
        return [[str(e) if e else "0" for e in row] for row in self.entries]


def _kind_violation(rows: Sequence[Sequence], kind: str, conj: Callable) -> Optional[tuple[int, int]]:
    """First (i, j) with i <= j, row by row, where the square ``rows`` break
    ``kind``, or None: symmetric needs rows[i][j] = rows[j][i] real,
    hermitian rows[i][j] = conj(rows[j][i]).  Entries are Gaussian rationals
    or polynomials; ``conj`` is their conjugation."""
    if kind == KIND_NONE:
        return None
    hermitian = kind == KIND_HERMITIAN
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            a, b = row[j], rows[j][i]
            if a is b:  # a diagonal entry or the shared zero: it need only be real
                bad = not a.is_real()
            else:
                bad = a != conj(b) if hermitian else not a.is_real() or a != b
            if bad:
                return (i, j)
    return None


def _common_kind(matrices: Sequence[ConstMatrix]) -> str:
    """The matrices' common symmetry kind, or KIND_NONE if they differ."""
    kinds = {mat.kind for mat in matrices}
    return kinds.pop() if len(kinds) == 1 else KIND_NONE


def pencil_value(matrices: Sequence[ConstMatrix], point: Sequence[RationalLike]) -> ConstMatrix:
    """Evaluate sum_i point_i * A_i, touching only the nonzero entries.

    The result keeps the slices' common kind, or is KIND_NONE if they differ.
    """
    if len(matrices) != len(point):
        raise ValueError("pencil length does not match point arity")
    if not matrices:
        raise ValueError("empty pencil")
    m = matrices[0].size
    if any(mat.size != m for mat in matrices):
        raise ValueError("size mismatch")
    acc = [[GR_ZERO] * m for _ in range(m)]
    for c, mat in zip(point, matrices):
        c = as_fraction(c)
        if not c:
            continue
        factor = _gaussian(c, _ZERO)
        for acc_row, row in zip(acc, mat.entries):
            for j, entry in enumerate(row):
                if entry:
                    acc_row[j] = acc_row[j] + entry * factor
    return ConstMatrix(acc, _common_kind(matrices))


def bareiss(rows: list[list], one, divide: Callable, pivoting: bool) -> tuple[list, int]:
    """Fraction-free (Bareiss) elimination of the square ``rows``, in place.

    Works on any entry type with ``*``, ``-`` and truth testing; ``divide``
    is the exact division of that type (``operator.truediv`` for Gaussian
    rationals, ``MultiPoly.divide_exact`` for polynomials) and ``one`` its
    unit.  Returns (pivots, sign), the pivots ending at the first zero one.
    Without ``pivoting`` pivot k is the leading principal minor of order
    k + 1.  With ``pivoting`` a zero pivot is swapped for a nonzero entry
    below it (each swap flips ``sign``), so a full list ends in sign * det
    and a zero pivot means det = 0.  Zero entries are skipped.
    """
    n = len(rows)
    pivots = []
    sign = 1
    prev = one
    for k in range(n):
        if pivoting and not rows[k][k]:
            for p in range(k + 1, n):
                if rows[p][k]:
                    rows[k], rows[p] = rows[p], rows[k]
                    sign = -sign
                    break
        row_k = rows[k]
        pivot = row_k[k]
        pivots.append(pivot)
        if not pivot:
            break
        for row_i in rows[k + 1 :]:
            aik = row_i[k]
            if aik:
                for j in range(k + 1, n):
                    row_i[j] = divide(pivot * row_i[j] - aik * row_k[j], prev)
            else:
                for j in range(k + 1, n):
                    if row_i[j]:
                        row_i[j] = divide(pivot * row_i[j], prev)
        prev = pivot
    return pivots, sign


def leading_principal_minors(matrix: ConstMatrix) -> list[Fraction]:
    """All leading principal minors, by Bareiss elimination without row swaps.

    Stops at the first vanishing minor (the scheme cannot go past it; that
    zero is the last entry).  For symmetric/hermitian input every minor is
    real; an imaginary one means the invariant is broken and raises.
    """
    pivots, _ = bareiss([list(row) for row in matrix.entries], GR_ONE, operator.truediv, pivoting=False)
    for k, pivot in enumerate(pivots):
        if pivot.im:
            raise ArithmeticError(
                f"leading principal minor {k + 1} is not real; hermitian invariant broken"
            )
    return [pivot.re for pivot in pivots]


def first_nonpositive_minor(matrix: ConstMatrix) -> Optional[tuple[int, Fraction]]:
    """(1-based size, value) of the first nonpositive leading minor, or None."""
    if matrix.is_diagonal():
        # Diagonal fast path: minors are prefix products of the diagonal.
        prod = Fraction(1)
        for k in range(matrix.size):
            d = matrix.entries[k][k]
            if d.im:
                raise ArithmeticError(
                    f"diagonal entry {k} is not real; hermitian invariant broken"
                )
            prod *= d.re
            if prod <= 0:
                return (k + 1, prod)
        return None
    for k, value in enumerate(leading_principal_minors(matrix)):
        if value <= 0:
            return (k + 1, value)
    return None


def is_positive_definite(matrix: ConstMatrix) -> bool:
    """Sylvester test: all leading principal minors positive.

    Requires a declared (and valid) symmetry kind.
    """
    if matrix.kind == KIND_NONE:
        raise ValueError("positive definiteness needs a symmetric or hermitian matrix")
    matrix.validate_kind()
    return first_nonpositive_minor(matrix) is None
