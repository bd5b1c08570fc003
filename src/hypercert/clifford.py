"""The Clifford-algebra bridge from sums of squares to determinantal
representations.

A generator table holds k signed-permutation d x d matrices M_t that satisfy
the Hurwitz equations M_s M_t^T + M_t M_s^T = 2*delta_st*I: the paper's
left-regular representation of Cl_{0,k}(R) (:func:`clifford_generators`,
d = 2^k), or the compact :func:`hurwitz_radon` table (d = 1, 2, 4, 8 for
k <= 8, then 16*d(k - 8)).  For real coefficients c_1..c_k (forms of one
degree, or numbers), Q = [[0, S], [S^T, 0]] with S = sum c_t M_t is
symmetric, traceless, and satisfies Q^2 = (sum c_t^2) * I, which turns any
SOS decomposition into a companion-form representation
det(y*I - Q) = (y^2 - P)^d.  One loop, :func:`_q_rows`, places Q for
either table: :func:`build_Q` with forms, the quadratic pipeline with the
numbers of each pencil slice.  The Hurwitz equations are asserted when a
table is built; Q^2 = P*I itself is proven on lattice values by the
verifier that certifies Q.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement
from typing import Iterable, NamedTuple, Sequence

from .detrep import DetRepReport, PolyMatrix, verify_companion
from .polyring import MultiPoly, Ring, _sum_of_squares
from .scalars import KIND_SYMMETRIC, CapacityError

MAX_PENCIL = 512  # largest Q from either table: 8 forms in the paper's, 17 in the compact one


def _capped(k: int, dimension: int) -> None:
    """Refuse k < 1 forms, or k forms whose d x d table gives Q more than
    MAX_PENCIL rows: the one size check of both tables."""
    if k < 1:
        raise ValueError("generator count must be at least 1")
    if (size := 2 * dimension) > MAX_PENCIL:
        raise CapacityError(f"{k} forms need a {size}x{size} pencil; at most {MAX_PENCIL} rows are supported")


class CliffordGenerators(NamedTuple):
    """A generator table M_1..M_n of signed permutations, stored sparsely:
    column j of M_i holds ``signs[i][j]`` in row ``perms[i][j]`` and zeros
    elsewhere.
    """

    perms: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.perms[0])


@cache
def clifford_generators(n: int) -> CliffordGenerators:
    """Generator matrices of Cl_{0,n}(R) on the ordered basis
    {e_{i1}...e_{ir} : i1 < ... < ir}, sorted by (subset size, lex).

    Sign convention for e_i * e_S: a factor (-1) for each j in S with j < i,
    and another (-1) when i is already in S (since e_i^2 = -1).  The
    Hurwitz equations, here skewness, A_i^2 = -I and anticommutation, are
    asserted after construction.  Beyond 8 forms Q would exceed MAX_PENCIL
    rows, which every call refuses before building; a table is built once.
    """
    _capped(n, 1 << max(n, 0))
    basis: list[tuple[int, ...]] = []
    for size in range(n + 1):
        basis.extend(combinations(range(1, n + 1), size))
    index = {s: k for k, s in enumerate(basis)}

    table = []
    for i in range(1, n + 1):
        columns = []
        for subset in basis:
            s = -1 if sum(1 for j in subset if j < i) % 2 else 1
            if i in subset:
                target, s = tuple(j for j in subset if j != i), -s
            else:
                target = tuple(sorted(subset + (i,)))
            columns.append((index[target], s))
        table.append(columns)
    return _checked(table)


def _radon_dimension(k: int) -> int:
    return 1 << (k - 1).bit_length() if k <= 8 else 16 * _radon_dimension(k - 8)


def hurwitz_radon(k: int) -> CliffordGenerators:
    """k signed permutations of the least size d(k) with the Hurwitz
    equations (Hurwitz 1923, Radon 1922), refused before they are built
    when Q would exceed MAX_PENCIL rows.

    For k <= 8, M_t is left multiplication by the unit e_t of the
    Cayley-Dickson algebra of dimension 1, 2, 4 or 8 (R, C, H, O; M_0 = I).
    Beyond, the octonion table O_t and the table N_u for k - 8 combine as
    S = [[S1 (x) I, -I (x) S2], [I (x) S2^T, S1^T (x) I]], so d(k) = 16*d(k - 8).
    """
    _capped(k, _radon_dimension(k))
    return _checked(_radon_columns(k))


def _unit_sign(a: int, b: int, bits: int) -> int:
    """Sign of e_a * e_b = +-e_(a^b) in the Cayley-Dickson algebra of
    dimension 2^bits, with (p, q)(r, s) = (pr - conj(s)q, sp + q conj(r))."""
    if not bits:
        return 1
    half = 1 << (bits - 1)
    hi_a, hi_b, a, b = a & half, b & half, a & (half - 1), b & (half - 1)
    conj_b = -1 if b else 1
    if not hi_a:
        return _unit_sign(b, a, bits - 1) if hi_b else _unit_sign(a, b, bits - 1)
    return -conj_b * _unit_sign(b, a, bits - 1) if hi_b else conj_b * _unit_sign(a, b, bits - 1)


def _radon_columns(k: int) -> list[list[tuple[int, int]]]:
    """Column j of each M_t as (row, sign)."""
    if k <= 8:
        bits = (k - 1).bit_length()
        return [[(t ^ j, _unit_sign(t, j, bits)) for j in range(1 << bits)] for t in range(k)]
    octonions, rest = _radon_columns(8), _radon_columns(k - 8)
    eye8, eye = [(j, 1) for j in range(8)], [(j, 1) for j in range(len(rest[0]))]
    half = 8 * len(eye)
    return [_kron(o, eye) + [(half + r, s) for r, s in _kron(_transpose(o), eye)] for o in octonions] + [
        [(half + r, s) for r, s in _kron(eye8, _transpose(n))] + [(r, -s) for r, s in _kron(eye8, n)] for n in rest
    ]


# Signed permutations as columns [(row, sign), ...].
def _transpose(a: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = [(0, 0)] * len(a)  # a row no column reaches keeps sign 0
    for j, (r, s) in enumerate(a):
        out[r] = (j, s)
    return out


def _kron(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(ra * len(b) + rb, sa * sb) for ra, sa in a for rb, sb in b]


def _checked(table: list[list[tuple[int, int]]]) -> CliffordGenerators:
    """The table, after asserting M_s M_t^T + M_t M_s^T = 2*delta_st*I.
    Column j of A*B is s times column r of A, for column j = (r, s) of B."""
    eye = [(j, 1) for j in range(len(table[0]))]
    for s, t in combinations_with_replacement(range(len(table)), 2):
        ab = [(table[s][r][0], table[s][r][1] * x) for r, x in _transpose(table[t])]
        ba = [(table[t][r][0], -table[t][r][1] * x) for r, x in _transpose(table[s])]
        if ab != (eye if s == t else ba):
            raise AssertionError(f"M_{s}, M_{t} break the Hurwitz equations")
    perms, signs = (tuple(tuple(column[i] for column in m) for m in table) for i in (0, 1))
    return CliffordGenerators(perms, signs)


def _q_rows(dim: int, zero, terms: Iterable[tuple]) -> list[list]:
    """Rows of Q = [[0, S], [S^T, 0]] of size 2*dim, S = sum c_t M_t over
    ``terms`` (c_t, perm_t, sign_t): coefficients of any type with + and
    unary -, and the columns of M_t as a table stores them.

    S S^T = S^T S = (sum c_t^2)*I by the Hurwitz equations, so
    Q^2 = diag(S S^T, S^T S) = (sum c_t^2)*I.  Symmetry (each entry of S is
    stored at (i, dim+j) and (dim+j, i)) and trace 0 (zero diagonal blocks)
    hold by construction.  Every row is a new list, but entries are shared
    (coefficients are immutable): an empty cell takes c_t or the term's one
    -c_t, so Q holds at most 2k + 1 distinct objects and checks and
    formatting run once per distinct one.  A cell two terms reach holds
    their sum.
    """
    s_rows = [[zero] * dim for _ in range(dim)]
    for c, perm, sign in terms:
        signed = (-c, c)
        for col, (row, s) in enumerate(zip(perm, sign)):
            cell, add = s_rows[row][col], signed[s > 0]
            s_rows[row][col] = add if cell is zero else cell + add
    zeros = [zero] * dim
    return [zeros + row for row in s_rows] + [[row[j] for row in s_rows] + zeros for j in range(dim)]


def build_Q(forms: Sequence[MultiPoly]) -> PolyMatrix:
    """The paper's Q (:func:`_q_rows`) of size 2^(k+1) from the table
    ``clifford_generators(k)`` for k forms, with Q^2 = (sum G_t^2)*I and
    trace 0.

    Nothing is re-proven here: :func:`sos_to_detrep` certifies Q with a
    verifier that checks its kind and decides Q^2 = P*I on lattice values.
    """
    k = len(forms)
    if k < 1:
        raise ValueError("need at least one form")
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
    rows = _q_rows(gens.dimension, MultiPoly.zero(ring), zip(forms, gens.perms, gens.signs))
    return PolyMatrix(ring, rows, KIND_SYMMETRIC)


class CompanionRepresentation(NamedTuple):
    """det(y*I - Q) = (y^2 - P)^r, built from an SOS decomposition of P."""

    matrix: PolyMatrix
    h: MultiPoly
    power: int
    report: DetRepReport


def sos_to_detrep(forms: Sequence[MultiPoly]) -> CompanionRepresentation:
    """From P = sum G_i^2 build the paper's Q (size 2^(k+1)) and certify
    det(y*I - Q) = (y^2 - P)^(2^k) via verify_companion.  h adds y, weighted
    by the forms' degree, to their ring: constant forms, a weighted ring and
    a ring that names y are refused before any table is built."""
    if forms and "y" in forms[0].ring.variables:
        raise ValueError("the forms' ring names a variable y, which h = y^2 - P adds")
    if forms and any(w != 1 for w in forms[0].ring.weights):
        raise ValueError("the forms' ring is weighted: every variable of h = y^2 - P but y needs weight 1")
    if forms and all(g.weighted_degree() == 0 for g in forms):
        raise ValueError("the forms are constants: y takes their degree, which must be positive")
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
