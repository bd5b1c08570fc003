"""Independent reference implementations used only by the tests."""

from fractions import Fraction
from itertools import permutations

from hypercert.detrep import PolyMatrix, pencil_to_polymatrix, poly_det
from hypercert.polyring import MultiPoly, UniPoly
from hypercert.scalars import ConstMatrix, GaussianRational, as_fraction, first_nonpositive_minor, pencil_value


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


def pencil_reference(matrices, h, r, e, up_to_scalar):
    """(ok, scalar, sorted failure names) that verify_pencil must report,
    with the determinant always expanded by Bareiss (poly_det)."""
    names = []
    if matrices[0].kind == "none" or any(m.kind_violation() is not None for m in matrices):
        names.append("kind")
    det = poly_det(pencil_to_polymatrix(matrices, h.ring))
    target = h ** r
    if det.is_zero():
        scalar = Fraction(0)
    elif up_to_scalar:
        scalar = det.leading_coefficient().re / target.leading_coefficient().re
    else:
        scalar = Fraction(1)
    if det.is_zero() or det != target.scale(scalar):
        names.append("determinant")
    elif scalar <= 0:
        names.append("scalar-positivity")
    if "kind" not in names and first_nonpositive_minor(pencil_value(matrices, e)) is not None:
        names.append("positive-definite")
    return (not names and scalar > 0, scalar, sorted(names))


def companion_det(matrix, ring_h):
    """det(y*I - A) by Bareiss, with A lifted into ring_h (A's ring plus y)."""
    y = MultiPoly.variable(ring_h, "y")
    zero = MultiPoly.zero(ring_h)
    rows = [
        [(y if i == j else zero) - entry.lift(ring_h) for j, entry in enumerate(row)]
        for i, row in enumerate(matrix.rows)
    ]
    return poly_det(PolyMatrix(ring_h, rows))
