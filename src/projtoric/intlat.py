"""Exact integer linear algebra on small dense matrices.

Matrices are nested sequences of Python ints and results are plain
lists of lists. Every value is an integer, exact no matter how large
intermediate entries grow, and nothing touches floating point. Rank,
determinant and the Hermite and Smith forms serve the face lattice,
the vertex determinants, the flags' straightening and the Picard
invariants; the hull's minors are the int64 kernel of polytope.py.
"""

from __future__ import annotations

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


def hnf_lower(A):
    """Lower-triangular Hermite normal form by unimodular column operations.

    Returns (H, T) with A @ T == H, |det T| == 1, H lower triangular with
    positive diagonal and 0 <= H[i][j] < H[i][i] for j < i. The canonical
    form makes both H and T unique for nonsingular A.

    Raises SingularMatrixError when A is singular.
    """
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("square matrix required")
    H = [list(map(int, row)) for row in A]
    T = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            if H[i][j] == 0:
                continue
            a, b = H[i][i], H[i][j]
            g, x, y = _egcd(a, b)
            p, q = a // g, b // g
            # right-multiply columns i, j by [[x, -q], [y, p]], det = 1
            for M in (H, T):
                for r in range(n):
                    ci, cj = M[r][i], M[r][j]
                    M[r][i] = x * ci + y * cj
                    M[r][j] = p * cj - q * ci
        if H[i][i] == 0:
            raise SingularMatrixError("matrix is singular")
        if H[i][i] < 0:
            for M in (H, T):
                for r in range(n):
                    M[r][i] = -M[r][i]
        for j in range(i):
            f = H[i][j] // H[i][i]
            if f:
                for M in (H, T):
                    for r in range(n):
                        M[r][j] -= f * M[r][i]
    return H, T


def determinant(A):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("square matrix required")
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[-1][-1]


def rank(A):
    """Rank over the rationals, by integer cross-multiplication echelon."""
    M = [list(map(int, row)) for row in A]
    if not M:
        return 0
    rows, cols = len(M), len(M[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, rows):
            if M[i][c]:
                f1, f2 = M[r][c], M[i][c]
                M[i] = [f1 * M[i][j] - f2 * M[r][j] for j in range(cols)]
        r += 1
        if r == rows:
            break
    return r


def _clear_below(M, t):
    """Row operations clearing column t below the pivot M[t][t]; False
    when a Bezout step rewrote the pivot row."""
    clean = True
    for i in range(t + 1, len(M)):
        a, b = M[t][t], M[i][t]
        if b % a == 0:
            # plain elimination keeps the pivot row fixed, so it
            # cannot reintroduce cleared entries
            M[i] = [vi - b // a * vt for vt, vi in zip(M[t], M[i])]
            continue
        g, x, y = _egcd(a, b)
        p, q = a // g, b // g
        M[t], M[i] = (
            [x * vt + y * vi for vt, vi in zip(M[t], M[i])],
            [p * vi - q * vt for vt, vi in zip(M[t], M[i])],
        )
        clean = False
    return clean


def snf_invariant_factors(A):
    """Invariant factors d_1 | d_2 | ... | d_n of an integer matrix.

    The input must have full column rank; raises ValueError otherwise.
    Returns one positive factor per column, in divisibility order.
    """
    M = [list(map(int, row)) for row in A]
    m = len(M)
    n = len(M[0]) if M else 0
    if n == 0 or any(len(row) != n for row in M):
        raise ValueError("nonempty rectangular matrix required")
    k = min(m, n)
    for t in range(k):
        piv = next(
            ((i, j) for i in range(t, m) for j in range(t, n) if M[i][j]), None
        )
        if piv is None:
            break
        pi, pj = piv
        M[t], M[pi] = M[pi], M[t]
        for row in M:
            row[t], row[pj] = row[pj], row[t]
        while True:
            clean = _clear_below(M, t)
            T = [list(col) for col in zip(*M)]
            clean = _clear_below(T, t) and clean  # column operations
            M = [list(row) for row in zip(*T)]
            if clean:
                break
    diag = [abs(M[i][i]) for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = diag[i], diag[j]
            if a == 0 and b == 0:
                continue
            g = gcd(a, b)
            diag[i], diag[j] = g, (a * b // g if g else 0)
    if m < n or any(d == 0 for d in diag[:n]):
        raise ValueError("matrix does not have full column rank")
    return diag[:n]


def unimodular_inverse(T):
    """Exact inverse of a unimodular integer matrix, as integer rows.

    The Hermite form H = T X is the identity exactly when T is
    unimodular, and X = T^-1 then."""
    H, X = hnf_lower(T)
    if H != identity(len(T)):
        raise ValueError("matrix is not unimodular")
    return X
