"""Exact integer linear algebra on small dense matrices.

Matrices are nested sequences of Python ints and results are plain
lists of lists of exact integers; nothing touches floating point.
One elimination serves every question: unimodular column operations
over Z bring A to its Hermite form H = A @ T, |det T| = 1. The pivot
columns of H give the rank, for the checks of a facet document; det T
times the diagonal of H gives the determinant, for the vertex
determinants; H itself straightens the flags; and, alternated on a
matrix and its transpose, it gives the Smith form, for the Picard
invariants. The hull itself is the double description of polytope.py,
also in Python ints.
"""

from math import gcd, prod


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


def _hermite(A):
    """Lower column-echelon Hermite form of A by unimodular column
    operations: (H, det T) for H = A @ T, as new rows. The pivot column
    advances only on a row with a nonzero entry from it on, so every
    column from the last pivot on is zero. The Bezout step and column
    subtraction have det 1, so det T = -1 exactly when an odd number of
    pivot columns were negated. Ragged rows raise ValueError.
    """
    H = [list(map(int, row)) for row in A]
    n = len(H[0]) if H else 0
    if any(len(row) != n for row in H):
        raise ValueError("rectangular matrix required")
    k, sign = 0, 1
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
            sign = -sign
            for v in H:
                v[k] = -v[k]
        for j in range(k):
            f = row[j] // row[k]
            for v in H:
                v[j] -= f * v[k]
        k += 1
    return H, sign


def rank(A):
    """Rank over the rationals: the nonzero columns of the Hermite form."""
    return sum(map(any, zip(*_hermite(A)[0])))


def determinant(A):
    """Exact determinant: det T times the diagonal of H = A @ T, which
    holds a zero below full rank."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("square matrix required")
    H, sign = _hermite(A)
    return sign * prod(H[i][i] for i in range(n))


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
        M = [list(col) for col in zip(*_hermite(M)[0])]
    diag = [abs(M[i][i]) for i in range(min(m, n))]
    if m < n or 0 in diag:
        raise ValueError("matrix does not have full column rank")
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
