"""Independent reference implementations used only by the tests."""

from fractions import Fraction
from itertools import permutations

from hypercert.polyring import MultiPoly


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
