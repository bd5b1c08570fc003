"""The Clifford-algebra bridge from sums of squares to determinantal
representations.

The left-regular representation of the generators of Cl_{0,n}(R) supplies
skew integer matrices A_i (entries 0, +-1) with A_i^2 = -I and pairwise
anticommutation.  For real forms G_1..G_k of a common degree, the block
matrix Q = [[0, S], [S^T, 0]] with S = sum G_i A_i is symmetric, traceless,
and satisfies Q^2 = (sum G_i^2) * I, which turns any SOS decomposition into
a companion-form representation det(y*I - Q) = (y^2 - P)^(2^k).  The
generators' relations are asserted when they are built; Q^2 = P*I itself is
proven by the verifier that certifies Q, on lattice values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .detrep import DetRepReport, PolyMatrix, verify_companion
from .polyring import MultiPoly, Ring, _sum_of_squares
from .scalars import KIND_SYMMETRIC

MAX_GENERATORS = 8  # representation size 2^(n+1) caps at 512


@dataclass(frozen=True)
class CliffordGenerators:
    """Left-multiplication matrices of the generators e_1..e_n, stored
    sparsely: the 2^n x 2^n matrix A_i has entries in {0, +-1}, and its
    column j holds ``signs[i][j]`` in row ``perms[i][j]`` and zeros elsewhere.
    """

    n: int
    perms: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return 1 << self.n


def clifford_generators(n: int) -> CliffordGenerators:
    """Generator matrices of Cl_{0,n}(R) on the ordered basis
    {e_{i1}...e_{ir} : i1 < ... < ir}, sorted by (subset size, lex).

    Sign convention for e_i * e_S: a factor (-1) for each j in S with j < i,
    and another (-1) when i is already in S (since e_i^2 = -1).  The type
    invariants (skewness, A_i^2 = -I, anticommutation) are asserted after
    construction.
    """
    if not 1 <= n <= MAX_GENERATORS:
        raise ValueError(f"generator count must be between 1 and {MAX_GENERATORS}")
    basis: list[tuple[int, ...]] = []
    for size in range(n + 1):
        basis.extend(combinations(range(1, n + 1), size))
    index = {s: k for k, s in enumerate(basis)}
    dim = len(basis)

    perms: list[tuple[int, ...]] = []
    signs: list[tuple[int, ...]] = []
    for i in range(1, n + 1):
        perm = [0] * dim
        sign = [0] * dim
        for col, subset in enumerate(basis):
            swaps = sum(1 for j in subset if j < i)
            s = -1 if swaps % 2 else 1
            if i in subset:
                target = tuple(j for j in subset if j != i)
                s = -s
            else:
                target = tuple(sorted(subset + (i,)))
            perm[col] = index[target]
            sign[col] = s
        perms.append(tuple(perm))
        signs.append(tuple(sign))

    gens = CliffordGenerators(n, tuple(perms), tuple(signs))
    _assert_invariants(gens)
    return gens


def _assert_invariants(gens: CliffordGenerators) -> None:
    dim = gens.dimension
    for i in range(gens.n):
        perm, sign = gens.perms[i], gens.signs[i]
        # A_i^2 = -I
        for col in range(dim):
            row = perm[col]
            if perm[row] != col or sign[col] * sign[row] != -1:
                raise AssertionError(f"A_{i + 1}^2 != -I at column {col}")
        # Skewness: A[r][c] = s means A[c][r] must be -s.
        for col in range(dim):
            row = perm[col]
            if perm[row] != col or sign[row] != -sign[col]:
                raise AssertionError(f"A_{i + 1} is not skew at column {col}")
    for i in range(gens.n):
        for j in range(i + 1, gens.n):
            pi, si = gens.perms[i], gens.signs[i]
            pj, sj = gens.perms[j], gens.signs[j]
            for col in range(dim):
                # (A_i A_j + A_j A_i) e_col = 0
                r1 = pi[pj[col]]
                s1 = si[pj[col]] * sj[col]
                r2 = pj[pi[col]]
                s2 = sj[pi[col]] * si[col]
                if r1 != r2 or s1 + s2 != 0:
                    raise AssertionError(f"A_{i + 1}, A_{j + 1} do not anticommute at column {col}")


def build_Q(forms: Sequence[MultiPoly]) -> PolyMatrix:
    """Symmetric Q of size 2^(k+1) with Q^2 = (sum G_i^2)*I and trace 0.

    S = sum G_i A_i is skew, so Q = [[0, S], [S^T, 0]] is symmetric and
    Q^2 = diag(S S^T, S^T S) = (sum G_i^2) * I by the Clifford relations.
    Symmetry (each entry of S is stored at (i, dim+j) and (dim+j, i)) and
    trace 0 (zero diagonal blocks) hold by construction.  Nothing is
    re-proven here: both callers certify Q with a verifier that checks its
    kind and decides Q^2 = P*I on lattice values (:func:`sos_to_detrep`,
    ``quadratic.quadratic_detrep``).
    """
    k = len(forms)
    if k < 1:
        raise ValueError("need at least one form")
    if k > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} forms are supported")
    ring = forms[0].ring
    degrees = set()
    for g in forms:
        if g.ring != ring:
            raise ValueError("forms must share one ring")
        if not g.is_real():
            raise ValueError("forms must have real coefficients")
        if g.is_zero():
            raise ValueError("forms must be nonzero")
        if not g.is_weighted_homogeneous():
            raise ValueError("forms must be homogeneous")
        degrees.add(g.weighted_degree())
    if len(degrees) != 1:
        raise ValueError(f"mixed degrees {sorted(degrees)}: forms must share one degree")

    gens = clifford_generators(k)
    dim = gens.dimension
    zero = MultiPoly.zero(ring)

    s_rows = [[zero] * dim for _ in range(dim)]
    for t, g in enumerate(forms):
        perm, sign = gens.perms[t], gens.signs[t]
        for col in range(dim):
            row = perm[col]
            contrib = g if sign[col] > 0 else -g
            s_rows[row][col] = s_rows[row][col] + contrib

    zeros = [zero] * dim  # Q = [[0, S], [S^T, 0]]
    q_rows = [zeros + row for row in s_rows] + [[row[j] for row in s_rows] + zeros for j in range(dim)]
    return PolyMatrix(ring, q_rows, KIND_SYMMETRIC)


@dataclass
class CompanionRepresentation:
    """det(y*I - Q) = (y^2 - P)^r, built from an SOS decomposition of P."""

    matrix: PolyMatrix
    h: MultiPoly
    power: int
    report: DetRepReport


def sos_to_detrep(forms: Sequence[MultiPoly]) -> CompanionRepresentation:
    """From P = sum G_i^2 build Q (size 2^(k+1)) and certify
    det(y*I - Q) = (y^2 - P)^(2^k) via verify_companion."""
    q = build_Q(forms)
    ring = q.ring
    weight_e = forms[0].weighted_degree()
    ring_h = Ring(("y",) + ring.variables, (weight_e,) + ring.weights, ring.gaussian)
    h = MultiPoly.variable(ring_h, "y") ** 2 - _sum_of_squares(ring, forms).lift(ring_h)
    r = q.size // 2
    report = verify_companion(q, h, r)
    if not report.ok:
        raise AssertionError(f"internal error: companion verification failed: {report.to_json_dict()}")
    return CompanionRepresentation(q, h, r, report)
