"""End-to-end constructive pipeline for quadratic hyperbolic polynomials.

Every step is linear algebra on int matrices over one denominator each
(the Gram matrices, T and T^-1); no polynomial is multiplied or substituted,
and Fractions are formed only for what is reported.  h is read once as
its Gram matrix G, h(x) = x^T G x.  With h(e) > 0 (else -h), T with
T(e) = u_0 and S = T^-1 (columns e, then unit vectors) give the Gram matrix
G' = S^T G S of h o T^-1 = alpha*u_0^2 + u_0*q1 + q2: alpha = G'_00 = h(e),
q1 has the coefficients b = 2*G'_(0, 1..) and q2 the Gram matrix
G'_(1.., 1..).  Completing the square exposes the branch form
p = q1^2 - 4*alpha*q2, of Gram matrix B = b*b^T - 4*alpha*G'_(1.., 1..), and
4*alpha*(h o T^-1) = (2*alpha*u_0 + q1)^2 - p reads, checked exactly as
T^T (L*L^T - (0 (+) B)) T = 4*alpha*(+-G) with T built from e apart from S,

    4*alpha*G' = L*L^T - (0 (+) B),  L = (2*alpha, b).

If h is hyperbolic the branch p is positive semidefinite; fraction-free
symmetric elimination (Bareiss) diagonalizes B by congruence and
four-square decompositions of the pivots write p as a sum of squares of
linear forms g_t, with sum_t g_t*g_t^T = B checked exactly.  The Clifford
bridge turns k squares into a symmetric pencil M = (2*alpha*u_0 + q1)*I - Q
of size 2d with

    det M = (4*alpha)^d * h^d,

positive definite at e; d = d(k) <= 8 for k <= 8 squares (Hurwitz-Radon),
or the paper's 2^k.  Every entry of M is linear, so its slices in x are
read off the generator table and the coefficients of each form pulled back
along u = T*x, in ints.  If p is indefinite the pipeline stops with an
exact witness vector (and the line on which hyperbolicity fails).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .clifford import _q_rows, hurwitz_radon
from .detrep import DetRepReport, verify_pencil
from .polyring import MultiPoly
from .scalars import KIND_SYMMETRIC, ConstMatrix, RationalLike, _over_den, as_fraction, four_square_decompose

IntRows = tuple[tuple[int, ...], ...]
Form = tuple[tuple[int, ...], int]  # a linear form: int numerators over a nonzero int denominator


class IndefiniteFormError(ValueError):
    """The quadratic form is not PSD; ``witness``, the int numerators
    ``nums`` over ``den``, evaluates to a negative value."""

    def __init__(self, den: int, nums: Sequence[int], value: Fraction):
        self.den, self.nums, self.value = den, tuple(nums), value
        self.witness = tuple(Fraction(a, den) for a in nums)
        super().__init__(f"form is negative at {tuple(map(str, self.witness))}: value {value}")


class PipelineError(ValueError):
    """A pipeline stage failed; carries the stage name and any witnesses."""

    def __init__(
        self,
        stage: str,
        message: str,
        witness_vector: Optional[tuple[Fraction, ...]] = None,
        witness_line: Optional[tuple[Fraction, ...]] = None,
    ):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
        self.witness_vector = witness_vector
        self.witness_line = witness_line


class QuadraticNormalForm(NamedTuple):
    """h o T^-1 = alpha*u0^2 + u0*q1 + q2 with T(e) = u0 and alpha = |h(e)|,
    as Gram matrices over u0..u_(n-1) and T and T^-1 as rows, all of ints.

    ``gram`` is scale * G', G' the Gram matrix of (+-h) o T^-1, so
    alpha = gram[0][0] / scale, q1 = sum_j 2*gram[0][j]/scale * u_j and q2
    has the Gram matrix gram[1..][1..] / scale.  ``branch`` is scale^2 * B,
    B the Gram matrix of the branch p = q1^2 - 4*alpha*q2, with row and
    column 0 zero.  The identity 4*alpha*G' = L*L^T - (0 (+) B) with
    L = (2*alpha, b), b the coefficients of q1, is asserted exactly at
    construction time, pulled back along T onto h's own Gram matrix.
    ``transform`` is t_den * T, t_den = |E*e_p| with E the lcm of e's
    denominators and p the first coordinate where e is nonzero, and
    ``inverse`` is e_den * T^-1 with e_den = E.  ``flipped`` records that h
    was replaced by -h to make alpha positive.
    """

    transform: IntRows  # t_den * T, T maps e to the first unit vector
    t_den: int
    inverse: IntRows  # e_den * T^-1 (columns: E*e, then E times unit vectors)
    e_den: int
    gram: IntRows
    branch: IntRows
    scale: int
    flipped: bool


def normalize_at_direction(h: MultiPoly, e: Sequence[RationalLike]) -> QuadraticNormalForm:
    """Deterministic completion of the square at direction e.

    T^-1 has columns e followed by the unit vectors, skipping the first
    coordinate p where e is nonzero (so T^-1 is invertible and T(e) = u0).
    With h = x^T (G/(2*D)) x for the int matrix G of h's coefficients
    scaled by their lcm D, and E*e integral, G' = S^T G S is formed as
    sign * C^T G C / (2*D*E^2) from the int columns C = E*S, and T is read
    from E*e alone, over |E*e_p|.
    """
    ring = h.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("quadratic pipeline needs an unweighted ring")
    if not h.is_real():
        raise ValueError("h must have real coefficients")
    if h.is_zero() or not h.is_weighted_homogeneous() or h.weighted_degree() != 2:
        raise ValueError("h must be a nonzero homogeneous quadratic")
    point = [as_fraction(c) for c in e]
    if len(point) != ring.arity:
        raise ValueError("direction arity mismatch")

    n = ring.arity
    den = h.den
    gram = [[0] * n for _ in range(n)]  # 2*D times h's Gram matrix
    for expo, (c, _) in h.nums.items():
        i, j = [k for k, v in enumerate(expo) for _ in range(v)]
        gram[i][j] += c
        gram[j][i] += c
    e_den, e_num = _over_den(point)
    pivot = next((k for k in range(n) if e_num[k]), 0)
    others = [j for j in range(n) if j != pivot]
    cols = [e_num] + [[e_den * (r == j) for r in range(n)] for j in others]
    g_cols = [[sum(a * c for a, c in zip(row, col) if c) for row in gram] for col in cols]  # G*C by columns
    value = sum(a * b for a, b in zip(e_num, g_cols[0]))  # 2*D*E^2 * h(e)
    if not value:
        raise ValueError("h(e) = 0: the direction must be off the hypersurface")
    sign = -1 if value < 0 else 1
    g_prime = [[sign * sum(a * b for a, b in zip(col, g) if a) for g in g_cols] for col in cols]
    scale = 2 * den * e_den * e_den

    a0, b = g_prime[0][0], [2 * g for g in g_prime[0][1:]]
    branch = [[0] * n] + [[0] + [bi * bj - 4 * a0 * g for bj, g in zip(b, row[1:])] for bi, row in zip(b, g_prime[1:])]
    # x = u0*e + sum_c u_c*(unit vector others[c-1]), solved for u:
    # u0 = x_p/e_p and u_c = x_j - (e_j/e_p)*x_p with j = others[c-1],
    # times t_den = |E*e_p| = e_sign*E*e_p.
    t_den, e_sign = abs(e_num[pivot]), (1 if e_num[pivot] > 0 else -1)
    transform = [[e_sign * e_den * (k == pivot) for k in range(n)]]
    transform += [[t_den * (k == j) - e_sign * e_num[j] * (k == pivot) for k in range(n)] for j in others]
    _check_completion(gram, 2 * den, transform, t_den, [2 * a0] + b, branch, scale, sign)
    transform, g_prime, branch = [tuple(map(tuple, m)) for m in (transform, g_prime, branch)]
    return QuadraticNormalForm(transform, t_den, tuple(zip(*cols)), e_den, g_prime, branch, scale, sign < 0)


def _check_completion(gram, gram_den, transform, t_den, ell, branch, scale, sign) -> None:
    """Assert T^T (L*L^T - (0 (+) B)) T = 4*alpha*sign*gram/gram_den with
    T = transform/t_den, L = ell/scale, B = branch/scale^2 and alpha = L_0/2:
    the completed square in h's own coordinates.  T is read from e apart
    from the int columns that formed ell and branch, so a wrong column or
    scale there fails it."""
    t_cols = list(zip(*transform))  # the columns of t_den*T
    square = [[li * lj - p for lj, p in zip(ell, p_row)] for li, p_row in zip(ell, branch)]
    m_cols = [[sum(a * t for a, t in zip(row, col) if t) for row in square] for col in t_cols]
    factor = 2 * ell[0] * scale * t_den * t_den * sign
    if any(gram_den * sum(t * a for t, a in zip(t_cols[i], m_col) if t) != factor * gram[i][s]
           for s, m_col in enumerate(m_cols) for i in range(s + 1)):
        raise AssertionError("internal error: completion-of-the-square identity failed")


# ---------------------------------------------------------------------------
# Rational SOS for quadratic forms
# ---------------------------------------------------------------------------


def diagonalize_quadratic_form(
    gram: Sequence[Sequence[int]], den: int
) -> list[tuple[Fraction, tuple[int, ...], int]]:
    """x^T (gram/den) x = sum c_j * (l_j . x)^2 by symmetric (congruence)
    elimination; each entry is (c_j, numerators, denominator) of l_j.

    Pivoting is deterministic: the first nonzero diagonal entry; if the
    diagonal is all zero but the form is not, the first off-diagonal pair
    (i, j) is split by x_i = u + v, x_j = u - v and elimination resumes.
    The elimination is fraction-free (Bareiss): the working matrix is
    prev*den times the Schur complement, prev the last pivot, so its
    entries are minors of the split input and every division is exact.  A
    pivot p in row k gives c = p/(prev*den) and l = (row k)*inv/(p*half),
    where inv/half, half a power of two, undoes the splits.
    """
    n = len(gram)
    work = [list(row) for row in gram]
    inv, half, prev = [[int(i == j) for j in range(n)] for i in range(n)], 1, 1
    out = []
    while True:
        k = next((i for i in range(n) if work[i][i]), None)
        if k is not None:
            p, top = work[k][k], work[k]
            row = tuple(sum(a * v[s] for a, v in zip(top, inv) if a) for s in range(n))
            out.append((Fraction(p, prev * den), row, p * half))
            work = [[(p * a - r[k] * b) // prev for a, b in zip(r, top)] for r in work]
            prev = p
            continue
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if work[i][j]), None)
        if pair is None:
            return out
        i, j = pair
        # Old z = E * new z with E the identity but [[1, 1], [1, -1]] on
        # (i, j): work <- E^T work E by column then row operations, and
        # inv <- E^-1 inv, E^-1 being E with that block halved.
        for r in work:
            r[i], r[j] = r[i] + r[j], r[i] - r[j]
        gi, gj, vi, vj = work[i], work[j], inv[i], inv[j]
        work[i], work[j] = [x + y for x, y in zip(gi, gj)], [x - y for x, y in zip(gi, gj)]
        inv = [[2 * x for x in v] for v in inv]
        inv[i], inv[j] = [x + y for x, y in zip(vi, vj)], [x - y for x, y in zip(vi, vj)]
        half *= 2


def _solve_unit_preimage(rows: list[tuple[Fraction, tuple[int, ...], int]], target_index: int) -> tuple[int, list[int]]:
    """(vd, ints): v = ints/vd with l_target(v) = 1 and l_other(v) = 0 (free
    variables 0) for the forms l_r = numerators_r / d_r: the reduced row
    echelon form of [numerators | d_target at the target row], by fraction-free
    Gauss-Jordan elimination with each combined row divided by its gcd."""
    m, n = len(rows), len(rows[0][1])
    aug = [list(row) + [d if r == target_index else 0] for r, (_, row, d) in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        top = len(pivots)
        pivot = next((r for r in range(top, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[top], aug[pivot] = aug[pivot], aug[top]
        p_row, p = aug[top], aug[top][col]
        for r in range(m):
            factor = aug[r][col]
            if r != top and factor:
                combined = [p * a - factor * b for a, b in zip(aug[r], p_row)]
                g = math.gcd(*combined)
                aug[r] = [a // g for a in combined]
        pivots.append((top, col))
        if len(pivots) == m:
            break
    v = [Fraction(0)] * n
    for r, col in pivots:
        v[col] = Fraction(aug[r][n], aug[r][col])
    vd, ints = _over_den(v)
    for r, (_, row, d) in enumerate(rows):
        if sum(a * x for a, x in zip(row, ints)) != (d * vd if r == target_index else 0):  # pragma: no cover - defensive
            raise AssertionError("diagonalization rows are not independent")
    return vd, ints


def rational_sos_quadratic(gram: Sequence[Sequence[int]], den: int) -> list[Form]:
    """Write the PSD form x^T (gram/den) x exactly as a sum of squares of
    linear forms, each (numerators, denominator).

    Diagonalize by rational congruence, then expand each positive
    coefficient through a four-square decomposition, giving at most 4*rank
    unit-weight squares, whose Gram matrices must re-sum to gram/den.  An
    indefinite form raises :class:`IndefiniteFormError` with an exact
    witness vector v, v^T (gram/den) v < 0.
    """
    diag = diagonalize_quadratic_form(gram, den)
    for idx, (c, _, _) in enumerate(diag):
        if c < 0:
            vd, ints = _solve_unit_preimage(diag, idx)
            value = Fraction(sum(a * x * y for row, x in zip(gram, ints) for a, y in zip(row, ints)), den * vd * vd)
            if value >= 0:  # pragma: no cover - defensive
                raise AssertionError("witness does not refute nonnegativity")
            raise IndefiniteFormError(vd, ints, value)
    forms: list[Form] = []
    for c, row, d in diag:
        for q in four_square_decompose(c):
            if q:
                forms.append((tuple(q.numerator * a for a in row), q.denominator * d))
    common = math.lcm(*[d for _, d in forms])
    scaled = [[a * (common // d) for a in g] for g, d in forms]
    n = len(gram)
    if any(den * sum(g[i] * g[j] for g in scaled) != common * common * gram[i][j]
           for i in range(n) for j in range(i, n)):  # pragma: no cover - defensive
        raise AssertionError("SOS expansion does not reproduce the form")
    return forms


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


class QuadraticDetRep(NamedTuple):
    """Definite symmetric pencil with det(sum x_i A_i) = scalar * h^power;
    its slices are pulled back along u = T*x, T of ``normal_form``."""

    pencil: tuple[ConstMatrix, ...]
    power: int
    scalar: Fraction
    report: DetRepReport
    normal_form: QuadraticNormalForm


def quadratic_detrep(h: MultiPoly, e: Sequence[RationalLike], generators=hurwitz_radon) -> QuadraticDetRep:
    """Compose normalize -> branch SOS -> Clifford slices -> verify.  Input
    that :func:`normalize_at_direction` rejects raises its ValueError.

    Returns a pencil of size 2d with r = d and c = (4*alpha)^r, where d is
    the size of the table ``generators(k)`` (:func:`hurwitz_radon` or
    ``clifford_generators``) for the k squares of the branch.  h(e) < 0
    needs r even, so a lone square g is then split as (3g/5)^2 + (4g/5)^2
    when d = 1.  Slice s of ell*I - Q, pulled back along u = T*x, is
    ell_s*I - [[0, S_s], [S_s^T, 0]] with S_s = sum_t (g_t T)_s M_t, built
    in ints over the lcm of the forms' and T's denominators.  The final
    verify_pencil (up to a positive scalar, definite at e) must pass.
    If the branch form p vanishes identically (h is a scalar multiple of a
    squared linear form) the same loop with no forms gives a 4x4 pencil
    ell*I with r = 2.
    """
    nf = normalize_at_direction(h, e)
    try:
        forms = rational_sos_quadratic(nf.branch, nf.scale * nf.scale)
    except IndefiniteFormError as err:
        # h(t*e - w) has no real root in t at w = T^-1 v, v the witness:
        # 4*alpha*h'(t*u0 - v) = (2*alpha*t - q1(v))^2 - p(v) with p(v) < 0.
        line = tuple(Fraction(sum(a * b for a, b in zip(row, err.nums) if a), nf.e_den * err.den) for row in nf.inverse)
        raise PipelineError(
            "branch-sos",
            f"branch form is negative at {tuple(map(str, err.witness))}; "
            f"h is not hyperbolic along the line through {tuple(map(str, line))}",
            witness_vector=err.witness,
            witness_line=line,
        ) from err

    dim, columns = 2, []
    if forms:
        gens = generators(len(forms))
        if nf.flipped and gens.dimension == 1:
            (g, d), = forms
            forms = [(tuple(3 * a for a in g), 5 * d), (tuple(4 * a for a in g), 5 * d)]
            gens = generators(2)
        dim, columns = gens.dimension, list(zip(gens.perms, gens.signs))
    r = dim
    scalar = Fraction(4 * nf.gram[0][0], nf.scale) ** r

    # ell = 2*alpha*u0 + q1 has the coefficients 2*gram[0]/scale; each form
    # row g over d pulls back to (g*T)_s = sum_j g_j*T_js, all over `den`.
    n, t_den = len(nf.transform), nf.t_den
    lines = [(tuple(2 * a for a in nf.gram[0]), nf.scale)] + forms
    den = math.lcm(*[d for _, d in lines]) * t_den
    pulled = [[sum(a * row[s] for a, row in zip(g, nf.transform) if a) * (den // (d * t_den)) for s in range(n)]
              for g, d in lines]
    m, ell = 2 * dim, pulled[0]
    slices = []
    for s in range(n):
        terms = [(-g[s], perm, sign) for g, (perm, sign) in zip(pulled[1:], columns) if g[s]]
        cells = {i * m + j: a for i, row in enumerate(_q_rows(dim, 0, terms)) for j, a in enumerate(row) if a}
        if ell[s]:
            cells.update((i * (m + 1), ell[s]) for i in range(m))
        slices.append(ConstMatrix._of_ints(m, den, cells, KIND_SYMMETRIC))
    pencil = tuple(slices)

    report = verify_pencil(pencil, h, r, e, up_to_scalar=True)
    if not report.ok:
        raise PipelineError(
            "verify",
            "; ".join(f"{f.name}: {f.witness}" for f in report.failures) or "verification failed",
        )
    if report.scalar != scalar:  # pragma: no cover - defensive
        raise AssertionError(f"scalar mismatch: expected {scalar}, verified {report.scalar}")
    return QuadraticDetRep(pencil, r, scalar, report, nf)
