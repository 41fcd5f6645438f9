import random
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import _leibniz, ref_rank
from projtoric.intlat import _hermite, determinant, rank, snf_invariant_factors


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(A):
    """(H, T) with A @ T = H, the lower Hermite form of a square A and its
    transform, read off one elimination of A stacked on the identity."""
    HT, _ = _hermite([*A, *identity(len(A))])
    return HT[: len(A)], HT[len(A):]


def test_hnf_frozen_example():
    H, T = hnf([[-1, -3], [-2, 1]])
    assert H == [[1, 0], [2, 7]]
    assert T == [[-1, -3], [0, 1]]
    assert (np.array([[-1, -3], [-2, 1]]) @ T).tolist() == H


def test_hnf_identity_fixed_point():
    H, T = hnf(identity(3))
    assert H == identity(3)
    assert T == identity(3)


def test_hnf_already_lower():
    H, T = hnf([[2, 0], [1, 3]])
    assert H == [[2, 0], [1, 3]]
    assert T == identity(2)


def test_hnf_canonical_form_is_unique():
    # brute force: among all unimodular T with small entries, exactly one
    # puts A into canonical lower triangular position
    A = [[-1, -3], [-2, 1]]
    found = []
    for a, b, c, d in product(range(-5, 6), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        T = [[a, b], [c, d]]
        H = (np.array(A) @ T).tolist()
        if H[0][1] != 0:
            continue
        if H[0][0] <= 0 or H[1][1] <= 0:
            continue
        if not 0 <= H[1][0] < H[1][1]:
            continue
        found.append((H, T))
    assert len(found) == 1
    expect = hnf(A)
    assert found[0] == (list(expect[0]), list(expect[1]))


square_matrix = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(deadline=None, max_examples=150)
@given(square_matrix)
def test_hnf_properties_on_random_matrices(A):
    n = len(A)
    H, T = hnf(A)
    if determinant(A) == 0:
        # A's rows take rank A < n pivots, so the last column of H is zero
        assert not any(row[n - 1] for row in H)
        return
    assert (np.array(A, dtype=object) @ np.array(T, dtype=object)).tolist() == H
    assert determinant(T) in (1, -1)
    for i in range(n):
        assert H[i][i] > 0
        for j in range(i + 1, n):
            assert H[i][j] == 0
        for j in range(i):
            assert 0 <= H[i][j] < H[i][i]


@settings(deadline=None, max_examples=150)
@given(square_matrix)
def test_determinant_matches_hnf_diagonal(A):
    d = determinant(A)
    if d == 0:
        return
    H, _ = hnf(A)
    prod = 1
    for i in range(len(A)):
        prod *= H[i][i]
    assert abs(d) == prod


def test_determinant_frozen_values():
    assert determinant([[-1, -3], [-2, 1]]) == -7
    assert determinant([[0, 1], [3, 2]]) == -3
    assert determinant([[5]]) == 5
    assert determinant([]) == 1
    assert determinant([[2, 4], [1, 2]]) == 0


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert rank([[], []]) == 0
    assert _hermite([]) == ([], 1)
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    with pytest.raises(ValueError, match="rectangular"):
        rank([[1, 2], [3]])  # ragged rows once read an IndexError, or a rank


def _minor_gcd_factors(A, n):
    # oracle: d_1 ... d_k equals the gcd of all k x k minors
    def det(rows, cols):
        sub = [[A[i][j] for j in cols] for i in rows]

        def rec(s):
            if len(s) == 1:
                return s[0][0]
            return sum(
                (-1) ** c * s[0][c] * rec([r[:c] + r[c + 1 :] for r in s[1:]])
                for c in range(len(s))
            )

        return rec(sub)

    gs = []
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(len(A)), k):
            for cols in combinations(range(n), k):
                g = gcd(g, abs(det(rows, cols)))
        gs.append(g)
    out = []
    prev = 1
    for g in gs:
        out.append(g // prev if prev else 0)
        prev = g
    return out


def test_snf_frozen_values():
    assert snf_invariant_factors([[-1, -1], [0, 1], [3, 2]]) == [1, 1]
    assert snf_invariant_factors([[1, 0], [0, 1], [-2, 1], [-1, -3]]) == [1, 1]
    assert snf_invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    assert snf_invariant_factors([[0, -1], [-2, 1], [2, 1]]) == [1, 2]
    assert snf_invariant_factors([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]


def test_snf_divisibility_chain_and_oracle():
    import random

    rng = random.Random(7)
    trials = 0
    while trials < 120:
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        try:
            got = snf_invariant_factors(A)
        except ValueError:
            continue
        trials += 1
        assert got == _minor_gcd_factors(A, n)
        for a, b in zip(got, got[1:]):
            assert b % a == 0


def test_snf_rejects_rank_deficient():
    with pytest.raises(ValueError):
        snf_invariant_factors([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        snf_invariant_factors([[1, 2, 3]])


def _low_rank(rng, m, n, bound):
    # an m x n product of m x k and k x n factors, k drawn below min(m, n)
    # half the time, with a zero row one time in four
    k = rng.randint(0, min(m, n))
    if rng.random() < 0.5:
        k = rng.randint(0, max(0, min(m, n) - 1))
    L = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(m)]
    R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    A = [[sum(L[i][t] * R[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    if rng.random() < 0.25:
        A[rng.randrange(m)] = [0] * n
    return A


def test_snf_matches_minor_gcds_on_tall_matrices():
    rng = random.Random(11)
    trials = 0
    while trials < 150:
        m = rng.randint(1, 7)
        n = rng.randint(1, min(m, 4))
        if rng.random() < 0.3:
            A = _low_rank(rng, m, n, 30)
        else:
            A = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.3:
                A[rng.randrange(m)] = [0] * n
        expect = _minor_gcd_factors(A, n)
        if 0 in expect:
            with pytest.raises(ValueError):
                snf_invariant_factors(A)
            continue
        trials += 1
        assert snf_invariant_factors(A) == expect


def test_rank_is_the_largest_nonvanishing_minor():
    rng = random.Random(13)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = _low_rank(rng, m, n, rng.choice([1, 5, 1000]))
        expect = max(
            (
                i
                for i in range(1, min(m, n) + 1)
                for rows in combinations(range(m), i)
                for cols in combinations(range(n), i)
                if _leibniz([[A[r][c] for c in cols] for r in rows])
            ),
            default=0,
        )
        assert rank(A) == expect


def test_determinant_sign_matches_leibniz():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 5)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n and rng.random() < 0.3:
            A = _low_rank(rng, n, n, 9)
        elif n > 1 and rng.random() < 0.3:
            # a zero leading entry forces a row swap
            A[0][0] = 0
        assert determinant(A) == _leibniz(A)


def test_hermite_column_echelon_on_rectangular_matrices():
    # the Smith form alternates this routine on M and its transpose, so
    # it must reach a lower column echelon on any shape and rank; the
    # identity stacked below A records the column operations as T
    rng = random.Random(19)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = _low_rank(rng, m, n, rng.choice([1, 5, 30]))
        HT, _ = _hermite([*A, *identity(n)])
        H, T, r = HT[:m], HT[m:], rank(A)
        assert _hermite(A)[0] == H
        assert (np.array(A, dtype=object) @ np.array(T, dtype=object)).tolist() == H
        assert determinant(T) in (1, -1)
        top = -1
        for k in range(n):
            column = [H[i][k] for i in range(m)]
            if k >= r:
                assert not any(column)
                continue
            i = next(i for i, v in enumerate(column) if v)
            assert i > top and column[i] > 0
            assert all(0 <= H[i][j] < column[i] for j in range(k))
            top = i


def test_hermite_sign_is_the_determinant_of_its_transform():
    # rank and determinant read H and det T off the one elimination, so
    # the sign it returns must be det T itself, on any shape and rank
    rng = random.Random(23)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = _low_rank(rng, m, n, rng.choice([1, 5, 30]))
        HT, sign = _hermite([*A, *identity(n)])
        assert sign == _leibniz(HT[m:])
        if rank(A) == n:  # A's rows take every pivot: the identity adds no operation
            assert _hermite(A) == (HT[:m], sign)


def test_rank_matches_fraction_elimination_on_point_differences():
    # the rank calls of a facet document's checks: differences of up to
    # 40 points in dimension n <= 3 that span a point, a line, a plane or
    # space, now and then with one stray point off that span
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 3)
        base = [rng.randint(-50, 50) for _ in range(n)]
        span = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
        points = [
            [b + sum(rng.randint(-6, 6) * d[i] for d in span) for i, b in enumerate(base)]
            for _ in range(rng.randint(1, 40))
        ]
        if rng.random() < 0.3:
            points.insert(rng.randrange(len(points) + 1), [rng.randint(-60, 60) for _ in range(n)])
        diffs = [[x - b for x, b in zip(p, points[0])] for p in points[1:]]
        assert rank(diffs) == ref_rank(diffs)
