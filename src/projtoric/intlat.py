"""Exact integer linear algebra on small dense matrices.

Matrices are nested sequences of Python ints and results are plain
lists of lists of exact integers; nothing touches floating point.
Fraction-free (Bareiss) elimination over Q gives the rank, for the
face lattice, and the determinant, for the vertex determinants.
Unimodular column elimination over Z gives the Hermite form, for the
flags' straightening, and, alternated on a matrix and its transpose,
the Smith form, for the Picard invariants. The hull's minors are the
int64 kernel of polytope.py.
"""

from math import gcd


class SingularMatrixError(ValueError):
    """Raised when a nonsingular square matrix is required."""


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _egcd(a, b):
    """Extended Euclid: (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _bareiss(A):
    """Fraction-free elimination over the columns in order, with row swaps.

    Returns the pivot count, the last pivot (1 if none) and the swap
    sign. Each entry left to eliminate is, up to sign, the minor of A on
    the pivot rows and columns so far plus its own row and column
    (Sylvester's identity), so each division by the previous pivot, a
    minor too, is exact, also after a column without a pivot is skipped.
    """
    M = [list(map(int, row)) for row in A]
    r, prev, sign = 0, 1, 1
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        p = M[r][c]
        for row in M[r + 1 :]:
            a = row[c]
            row[c:] = [(v * p - a * t) // prev for v, t in zip(row[c:], M[r][c:])]
        prev = p
        r += 1
    return r, prev, sign


def rank(A):
    """Rank over the rationals."""
    return _bareiss(A)[0]


def determinant(A):
    """Exact determinant: the signed last Bareiss pivot, 0 below full rank."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("square matrix required")
    r, p, sign = _bareiss(A)
    return sign * p if r == n else 0


def _hermite(A):
    """Lower column-echelon Hermite form of A by unimodular column
    operations, as new rows: A @ T for some T with |det T| == 1. The
    pivot column advances only on a row with a nonzero entry from it on.
    """
    H = [list(map(int, row)) for row in A]
    n = len(H[0])
    k = 0
    for row in H:
        for j in range(k + 1, n):
            if row[j] == 0:
                continue
            a, b = row[k], row[j]
            g, x, y = _egcd(a, b)
            p, q = a // g, b // g
            # right-multiply columns k, j by [[x, -q], [y, p]], det = 1
            for v in H:
                ck, cj = v[k], v[j]
                v[k] = x * ck + y * cj
                v[j] = p * cj - q * ck
        if k == n or row[k] == 0:
            continue
        if row[k] < 0:
            for v in H:
                v[k] = -v[k]
        for j in range(k):
            f = row[j] // row[k]
            for v in H:
                v[j] -= f * v[k]
        k += 1
    return H


def hnf_lower(A):
    """Lower-triangular Hermite normal form by unimodular column operations.

    Returns (H, T) with A @ T == H, |det T| == 1, H lower triangular with
    positive diagonal and 0 <= H[i][j] < H[i][i] for j < i. The canonical
    form makes both H and T unique for nonsingular A.

    The form of A stacked on the identity is H stacked on T. A's rows
    take all rank A pivots, leaving H[r][r] = 0 for rank r < n.

    Raises SingularMatrixError when A is singular.
    """
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("square matrix required")
    HT = _hermite([*A, *identity(n)])
    if not all(HT[i][i] for i in range(n)):
        raise SingularMatrixError("matrix is singular")
    return HT[:n], HT[n:]


def snf_invariant_factors(A):
    """Invariant factors d_1 | d_2 | ... | d_n of an integer matrix.

    The input must have full column rank; raises ValueError otherwise.
    Returns one positive factor per column, in divisibility order.

    Hermite forms of M and its transpose alternate until M is diagonal
    (Kannan and Bachem 1979): the top-left entry falls in divisibility
    until it divides its row, which a Bezout step then clears for good.
    """
    M = [list(map(int, row)) for row in A]
    m = len(M)
    n = len(M[0]) if M else 0
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("nonempty rectangular matrix required")
    while any(v for i, row in enumerate(M) for j, v in enumerate(row) if i != j):
        M = [list(col) for col in zip(*_hermite(M))]
    diag = [abs(M[i][i]) for i in range(min(m, n))]
    if m < n or 0 in diag:
        raise ValueError("matrix does not have full column rank")
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag

