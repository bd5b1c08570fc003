"""End-to-end constructive pipeline for quadratic hyperbolic polynomials.

Given a quadratic form h with h(e) > 0, a rational change of coordinates T
with T(e) = u_0 puts h into the normal form alpha*u_0^2 + u_0*q1 + q2.
Completing the square exposes the branch form p = q1^2 - 4*alpha*q2 with

    4*alpha*(h o T^-1) = (2*alpha*u_0 + q1)^2 - p.

If h is hyperbolic the branch p is positive semidefinite; a rational
congruence diagonalization plus four-square decompositions writes it as a
sum of squares of linear forms g_t, and the Clifford bridge turns k squares
into a symmetric pencil M = (2*alpha*u_0 + q1)*I - Q of size 2d with

    det M = (4*alpha)^d * h^d,

positive definite at e; d = d(k) <= 8 for k <= 8 squares (Hurwitz-Radon),
or the paper's 2^k.  Every entry of M is linear, so its slices in x are
read off the generator table and the coefficients of each form pulled back
along u = T*x.  If p is indefinite the pipeline stops with an exact
witness vector (and the line on which hyperbolicity fails).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .clifford import _q_rows, hurwitz_radon
from .detrep import DetRepReport, verify_pencil
from .polyring import MultiPoly, Ring, _sum_of_squares
from .scalars import (
    GR_ZERO,
    KIND_SYMMETRIC,
    ConstMatrix,
    GaussianRational,
    RationalLike,
    as_fraction,
    four_square_decompose,
)


class IndefiniteFormError(ValueError):
    """The quadratic form is not PSD; ``witness`` evaluates to a negative value."""

    def __init__(self, witness: tuple[Fraction, ...], value: Fraction):
        super().__init__(f"form is negative at {tuple(map(str, witness))}: value {value}")
        self.witness = witness
        self.value = value


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


@dataclass(frozen=True)
class QuadraticNormalForm:
    """h o T^-1 = alpha*u0^2 + u0*q1 + q2 with T(e) = u0 and alpha = |h(e)|.

    ``flipped`` records that h was replaced by -h to make alpha positive.
    The defining identity 4*alpha*(h o T^-1) = (2*alpha*u0 + q1)^2 - branch
    is asserted exactly at construction time.
    """

    ring_prime: Ring
    transform: tuple[tuple[Fraction, ...], ...]  # T, maps e to the first unit vector
    inverse: tuple[tuple[Fraction, ...], ...]  # T^-1 (columns: e, then unit vectors)
    alpha: Fraction
    q1: MultiPoly
    q2: MultiPoly
    branch: MultiPoly
    flipped: bool


def normalize_at_direction(h: MultiPoly, e: Sequence[RationalLike]) -> QuadraticNormalForm:
    """Deterministic completion of the square at direction e.

    T^-1 has columns e followed by the unit vectors, skipping the first
    coordinate where e is nonzero (so T^-1 is invertible and T(e) = u0).
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
    value = h.eval_rational(point)
    if not value:
        raise ValueError("h(e) = 0: the direction must be off the hypersurface")
    flipped = value < 0
    hw = -h if flipped else h
    alpha = abs(value)

    n = ring.arity
    pivot = next(k for k in range(n) if point[k])
    others = [j for j in range(n) if j != pivot]
    inverse = [[point[r]] + [Fraction(r == j) for j in others] for r in range(n)]
    # x = u0*e + sum_c u_c*(unit vector others[c-1]), solved for u:
    # u0 = x_p/e_p and u_c = x_j - (e_j/e_p)*x_p with j = others[c-1].
    transform = [[Fraction(0)] * n for _ in range(n)]
    transform[0][pivot] = 1 / point[pivot]
    for c, j in enumerate(others, 1):
        transform[c][j] = Fraction(1)
        transform[c][pivot] = -point[j] / point[pivot]

    ring_prime = Ring.standard(tuple(f"u{k}" for k in range(n)))
    hp = hw.substitute([_row_to_form(ring_prime, row) for row in inverse])  # x_r = sum_j inverse[r][j] * u_j

    # Split hp by its degree in u0; q1 is the u0-linear part divided by u0,
    # which shifts the u0 exponent from 1 to 0.
    parts: tuple[dict, dict, dict] = ({}, {}, {})
    for expo, coeff in hp.terms.items():
        parts[expo[0]][(0,) + expo[1:]] = coeff
    q2, q1, alpha_term = (MultiPoly(ring_prime, terms) for terms in parts)
    if alpha_term != MultiPoly.constant(ring_prime, alpha):
        raise AssertionError("internal error: u0^2 coefficient must be h(e)")
    u0 = MultiPoly.variable(ring_prime, "u0")

    branch = q1 * q1 - q2.scale(4 * alpha)
    ell = u0.scale(2 * alpha) + q1
    if hp.scale(4 * alpha) != ell * ell - branch:
        raise AssertionError("internal error: completion-of-the-square identity failed")
    return QuadraticNormalForm(
        ring_prime=ring_prime,
        transform=tuple(tuple(row) for row in transform),
        inverse=tuple(tuple(row) for row in inverse),
        alpha=alpha,
        q1=q1,
        q2=q2,
        branch=branch,
        flipped=flipped,
    )


# ---------------------------------------------------------------------------
# Rational SOS for quadratic forms
# ---------------------------------------------------------------------------


def _gram_matrix(p: MultiPoly) -> list[list[Fraction]]:
    n = p.ring.arity
    gram = [[Fraction(0)] * n for _ in range(n)]
    for expo, coeff in p.terms.items():
        if coeff.im:
            raise ValueError("quadratic form must be real")
        support = [k for k, v in enumerate(expo) if v]
        if sum(expo) != 2:
            raise ValueError("not a quadratic form")
        if len(support) == 1:
            k = support[0]
            gram[k][k] += coeff.re
        else:
            k, l = support
            gram[k][l] += coeff.re / 2
            gram[l][k] += coeff.re / 2
    return gram


def diagonalize_quadratic_form(p: MultiPoly) -> list[tuple[Fraction, tuple[Fraction, ...]]]:
    """p = sum c_j * l_j(x)^2 by symmetric (congruence) elimination.

    Pivoting is deterministic: the first nonzero diagonal entry; if the
    diagonal is all zero but the form is not, the first off-diagonal pair
    (i, j) is split by x_i = u + v, x_j = u - v and elimination resumes.
    """
    if p.is_zero():
        return []
    if not p.is_weighted_homogeneous() or p.weighted_degree() != 2:
        raise ValueError("input must be a homogeneous quadratic form")
    n = p.ring.arity
    gram = _gram_matrix(p)
    # z = inv x for the accumulated splits; each form is emitted in x.
    inv = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    out = []
    while True:
        k = next((i for i in range(n) if gram[i][i]), None)
        if k is not None:
            a = gram[k][k]
            row = [gram[k][j] / a for j in range(n)]
            out.append((a, tuple(sum(row[t] * inv[t][s] for t in range(n)) for s in range(n))))
            for i in range(n):
                if row[i]:
                    for j in range(n):
                        gram[i][j] -= a * row[i] * row[j]
            continue
        pair = next(
            ((i, j) for i in range(n) for j in range(i + 1, n) if gram[i][j]), None
        )
        if pair is None:
            break
        i, j = pair
        # Old z = E * new z with E the identity but [[1, 1], [1, -1]] on
        # (i, j): gram <- E^T gram E by column then row operations, and
        # inv <- E^-1 inv, E^-1 being E with that block halved.
        for r in gram:
            r[i], r[j] = r[i] + r[j], r[i] - r[j]
        gi, gj, vi, vj = gram[i], gram[j], inv[i], inv[j]
        gram[i], gram[j] = [x + y for x, y in zip(gi, gj)], [x - y for x, y in zip(gi, gj)]
        inv[i], inv[j] = [(x + y) / 2 for x, y in zip(vi, vj)], [(x - y) / 2 for x, y in zip(vi, vj)]
    return out


def _row_to_form(ring: Ring, coeffs: Sequence[Fraction]) -> MultiPoly:
    return MultiPoly.from_terms(
        ring,
        [
            (tuple(1 if t == k else 0 for t in range(ring.arity)), c)
            for k, c in enumerate(coeffs)
            if c
        ],
    )


def _solve_unit_preimage(
    rows: list[tuple[Fraction, tuple[Fraction, ...]]], target_index: int, n: int
) -> tuple[Fraction, ...]:
    """Vector v with l_target(v) = 1 and l_other(v) = 0 (free variables 0)."""
    m = len(rows)
    aug = [list(rows[r][1]) + [Fraction(1 if r == target_index else 0)] for r in range(m)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    v = [Fraction(0)] * n
    for r, col in pivots:
        v[col] = aug[r][n]
    for r in range(m):
        lhs = sum(rows[r][1][k] * v[k] for k in range(n))
        if lhs != (1 if r == target_index else 0):  # pragma: no cover - defensive
            raise AssertionError("diagonalization rows are not independent")
    return tuple(v)


def rational_sos_quadratic(p: MultiPoly) -> list[MultiPoly]:
    """Write a PSD quadratic form exactly as a sum of squares of linear forms.

    Diagonalize by rational congruence, then expand each positive
    coefficient through a four-square decomposition, giving at most 4*rank
    unit-weight squares.  An indefinite form raises
    :class:`IndefiniteFormError` with an exact witness vector v, p(v) < 0.
    """
    diag = diagonalize_quadratic_form(p)
    for idx, (c, _) in enumerate(diag):
        if c < 0:
            v = _solve_unit_preimage(diag, idx, p.ring.arity)
            value = p.eval_rational(v)
            if value >= 0:  # pragma: no cover - defensive
                raise AssertionError("witness does not refute nonnegativity")
            raise IndefiniteFormError(v, value)
    forms: list[MultiPoly] = []
    for c, row in diag:
        ell = _row_to_form(p.ring, row)
        for q in four_square_decompose(c):
            if q:
                forms.append(ell.scale(q))
    if _sum_of_squares(p.ring, forms) != p:  # pragma: no cover - defensive
        raise AssertionError("SOS expansion does not reproduce the form")
    return forms


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


@dataclass
class QuadraticDetRep:
    """Definite symmetric pencil with det(sum x_i A_i) = scalar * h^power."""

    pencil: tuple[ConstMatrix, ...]
    power: int
    scalar: Fraction
    transform: tuple[tuple[Fraction, ...], ...]
    report: DetRepReport
    normal_form: QuadraticNormalForm


def _hyperbolicity_witness_line(
    nf: QuadraticNormalForm, v: tuple[Fraction, ...]
) -> tuple[Fraction, ...]:
    """Map an indefiniteness witness of the branch form to a line w on which
    h(t*e - w) has no real roots: 4*alpha*h'(t*u0 - v) = (2*alpha*t - q1(v))^2 - p(v)."""
    n = len(v)
    return tuple(
        sum(nf.inverse[r][j] * v[j] for j in range(n)) for r in range(n)
    )


def _pulled_back(form: MultiPoly, transform: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """The coefficients on x of a linear form in u after u = T*x."""
    coeffs = [Fraction(0)] * len(transform)
    for expo, c in form.terms.items():
        for s, t in enumerate(transform[expo.index(1)]):
            coeffs[s] += c.re * t
    return coeffs


def quadratic_detrep(h: MultiPoly, e: Sequence[RationalLike], generators=hurwitz_radon) -> QuadraticDetRep:
    """Compose normalize -> branch SOS -> Clifford slices -> verify.  Input
    that :func:`normalize_at_direction` rejects raises its ValueError.

    Returns a pencil of size 2d with r = d and c = (4*alpha)^r, where d is
    the size of the table ``generators(k)`` (:func:`hurwitz_radon` or
    ``clifford_generators``) for the k squares of the branch.  h(e) < 0
    needs r even, so a lone square g is then split as (3g/5)^2 + (4g/5)^2
    when d = 1.  Slice s of ell*I - Q, pulled back along u = T*x, is
    ell_s*I - [[0, S_s], [S_s^T, 0]] with S_s = sum_t (g_t T)_s M_t.  The
    final verify_pencil (up to a positive scalar, definite at e) must pass.
    If the branch form p vanishes identically (h is a scalar multiple of a
    squared linear form) the same loop with no forms gives a 4x4 pencil
    ell*I with r = 2.
    """
    nf = normalize_at_direction(h, e)
    try:
        forms = rational_sos_quadratic(nf.branch)
    except IndefiniteFormError as err:
        line = _hyperbolicity_witness_line(nf, err.witness)
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
            forms = [forms[0].scale(Fraction(3, 5)), forms[0].scale(Fraction(4, 5))]
            gens = generators(2)
        dim, columns = gens.dimension, list(zip(gens.perms, gens.signs))
    r = dim
    scalar = (4 * nf.alpha) ** r

    ell = MultiPoly.variable(nf.ring_prime, "u0").scale(2 * nf.alpha) + nf.q1
    pulled = [_pulled_back(g, nf.transform) for g in forms]
    slices = []
    for s, ell_s in enumerate(_pulled_back(ell, nf.transform)):
        terms = [(GaussianRational(-g[s]), perm, sign) for g, (perm, sign) in zip(pulled, columns) if g[s]]
        rows = _q_rows(dim, GR_ZERO, terms)
        diagonal = GaussianRational(ell_s)
        for i, row in enumerate(rows):
            row[i] = diagonal
        slices.append(ConstMatrix(rows, KIND_SYMMETRIC))
    pencil = tuple(slices)

    report = verify_pencil(pencil, h, r, e, up_to_scalar=True)
    if not report.ok:
        raise PipelineError(
            "verify",
            "; ".join(f"{f.name}: {f.witness}" for f in report.failures) or "verification failed",
        )
    if report.scalar != scalar:  # pragma: no cover - defensive
        raise AssertionError(f"scalar mismatch: expected {scalar}, verified {report.scalar}")
    return QuadraticDetRep(
        pencil=pencil,
        power=r,
        scalar=scalar,
        transform=nf.transform,
        report=report,
        normal_form=nf,
    )
