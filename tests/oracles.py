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


def _truncated(text, limit=200):
    return text if len(text) <= limit else text[: limit - 3] + "..."


def pencil_reference(matrices, h, r, e, up_to_scalar):
    """The report verify_pencil must give, as its to_json_dict() without
    the notes, with the determinant always expanded by Bareiss (poly_det)
    and each failure's witness worded as the library words it."""
    failures = []
    kind = matrices[0].kind
    if kind == "none":
        failures.append(("kind", "pencil has no declared symmetry kind"))
    for idx, mat in enumerate(matrices):
        bad = mat.kind_violation()
        if bad is not None:
            failures.append(("kind", f"matrix {idx} entry {bad} breaks {kind} symmetry"))
    det = poly_det(pencil_to_polymatrix(matrices, h.ring))
    target = h ** r
    scalar, witness = Fraction(0), None
    if det.is_zero():
        witness = "determinant is identically zero"
    elif det.leading_coefficient().im or target.leading_coefficient().im:
        witness = "leading coefficient is not real"
    else:
        scalar = det.leading_coefficient().re / target.leading_coefficient().re if up_to_scalar else Fraction(1)
        diff = det - target.scale(scalar)
        if diff:
            witness = _truncated(f"det - {scalar}*h^r = {diff}")
    if witness is not None:
        failures.append(("determinant", witness))
    elif scalar <= 0:
        failures.append(("scalar-positivity", f"scalar c = {scalar} is not positive"))
    if kind != "none" and all(name != "kind" for name, _ in failures):
        bad = first_nonpositive_minor(pencil_value(matrices, e))
        if bad is not None:
            failures.append(("positive-definite", f"leading principal minor of order {bad[0]} at e is {bad[1]}"))
    return {
        "ok": not failures and scalar > 0,
        "scalar": str(scalar),
        "power": r,
        "failures": [{"name": name, "witness": witness} for name, witness in failures],
    }


def companion_det(matrix, ring_h):
    """det(y*I - A) by Bareiss, with A lifted into ring_h (A's ring plus y)."""
    y = MultiPoly.variable(ring_h, "y")
    zero = MultiPoly.zero(ring_h)
    rows = [
        [(y if i == j else zero) - entry.lift(ring_h) for j, entry in enumerate(row)]
        for i, row in enumerate(matrix.rows)
    ]
    return poly_det(PolyMatrix(ring_h, rows))
