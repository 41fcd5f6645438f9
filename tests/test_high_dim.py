"""The paper's identities in dimensions 4 and 5, every polytope built
from its vertices alone.

The cases are products of two polygons, a segment times the first
members of the random 3D corpus, and the unit simplices and the unit
4-cube. A product's variety is the product of the factors' varieties,
so its code is the tensor product of theirs: k and n multiply, and so
does the minimum distance. On the simplex, the code is the first-order
projective Reed-Muller code, of distance q^N (Sørensen, IEEE Trans. IT
37, 1991), and on its dilate lΔ_N the order-l one; on the box with
sides a_i it is a product of Reed-Solomon codes, of distance
prod(q + 1 - a_i).
"""

from itertools import combinations_with_replacement, product

from projtoric.code import (
    best_bound_over_orders,
    dimension,
    find_surjective_dilate,
    generator_matrix,
)
from projtoric.gf import GF
from projtoric.oracle import min_distance_exhaustive, rank_gf, reduction_class_count_unionfind
from projtoric.polytope import Polytope
from projtoric.variety import build_flags, check_hypotheses, count_rational_points

from conftest import anchored
from test_acceptance import criterion, random_3d_corpus

POLYGONS = {
    "tri": [(0, 0), (1, 0), (0, 1)],
    "square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "trap": [(0, 0), (3, 0), (2, 1), (0, 1)],
    "toy": [(0, 0), (1, 0), (-2, 3)],
    "tri2": [(0, 0), (2, 0), (0, 2)],
}


def simplex(n):
    return [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]


# (label, vertices, q, minimum distance by its closed form)
CLOSED_FORMS = (
    ("simplex4", simplex(4), 3, 3**4),
    ("simplex5", simplex(5), 2, 2**5),
    ("box4", list(product((0, 1), repeat=4)), 3, (3 + 1 - 1) ** 4),
)


def times(P, Q):
    return Polytope.from_vertices([p + v for p in P.vertices for v in Q.vertices])


def high_dim_corpus():
    """(label, P, q, factors) for each case, factors the pair a product
    is built from or None. A product takes the first q of a rotating
    {2, 3, 4, 5} schedule that passes both hypotheses on it."""
    polygons = {name: Polytope.from_vertices(pts) for name, pts in POLYGONS.items()}
    segment = Polytope.from_vertices([(0,), (1,)])
    pairs = [
        (f"{a}x{b}", polygons[a], polygons[b])
        for a, b in combinations_with_replacement(polygons, 2)
    ]
    pairs += [(f"segx3d{i}", segment, P) for i, (P, _) in enumerate(random_3d_corpus(6, seed=3))]
    qs = (2, 3, 4, 5)
    cases = []
    for i, (label, P, Q) in enumerate(pairs):
        PQ = times(P, Q)
        q = next(q for q in qs[i % 4:] + qs[:i % 4] if check_hypotheses(PQ, q).ok)
        cases.append((label, PQ, q, (P, Q)))
    return cases + [(label, Polytope.from_vertices(pts), q, None) for label, pts, q, _ in CLOSED_FORMS]


def code_parameters(P, q):
    """(k, n, d) of the code of P over F_q, d None past q^k = 2^20."""
    field = GF(q)
    M = generator_matrix(P, field)
    k = dimension(P, field)
    d = min_distance_exhaustive(M.codes, field) if q**k <= 1 << 20 else None
    return k, M.shape[1], d


def test_high_dim_property_suite():
    with criterion("4D/5D suite", budget=15.0):
        cases = high_dim_corpus()
        assert len(cases) == 24 and {P.dim for _, P, _, _ in cases} == {4, 5}
        assert {q for _, _, q, _ in cases} == {2, 3, 4, 5}
        known = products = 0
        closed = {label: d for label, _, _, d in CLOSED_FORMS}
        for label, P, q, factors in cases:
            assert Polytope.from_vrep_hrep(P.vertices, P.normals, P.offsets) == P, label
            field = GF(q)
            M = generator_matrix(P, field)
            k = dimension(P, field)
            assert rank_gf(M.codes, field) == k == reduction_class_count_unionfind(P, field), label
            assert M.structural_violations() == [], label
            assert count_rational_points(P, q) == M.shape[1], label
            MB = generator_matrix(P, field, flags=build_flags(P, reverse=True))
            assert MB.structural_violations() == [] and rank_gf(MB.codes, field) == k, label
            # the exhaustive distance, or past q^k = 2^22 the closed form
            d = min_distance_exhaustive(M.codes, field) if q**k <= 1 << 22 else closed.get(label)
            assert d == closed.get(label, d), label
            if d is not None:
                known += 1
                A = anchored(P)
                lam = find_surjective_dilate(A, field, 4 * q)
                bound = best_bound_over_orders(A, A.dilate(lam), field)[0]
                assert bound == d if label in closed else bound <= d, label
                if q**k <= 1 << 20:
                    assert min_distance_exhaustive(MB.codes, field) == d, label
            if factors is not None:
                products += 1
                (kP, nP, dP), (kQ, nQ, dQ) = (code_parameters(F, q) for F in factors)
                assert (k, M.shape[1]) == (kP * kQ, nP * nQ), label
                if q**k <= 1 << 22:
                    assert d == dP * dQ, label
        assert products == 21 and known == 11


def sorensen_distance(N, q, l):
    """The minimum distance of the projective Reed-Muller code of order
    l on P^N over F_q, 1 <= l <= N (q - 1) (Sørensen 1991): with l - 1 =
    r (q - 1) + s and 0 <= s < q - 1, it is (q - s) q^(N - r - 1)."""
    r, s = divmod(l - 1, q - 1)
    return (q - s) * q ** (N - r - 1)


def simplex_case(N, q, l):
    """(lambda, best stock bound, exhaustive distance or None past q^k =
    2^22) of lΔ_N over F_q, its dimension checked against the rank."""
    P, field = Polytope.from_vertices([tuple(l * x for x in v) for v in simplex(N)]), GF(q)
    codes = generator_matrix(P, field).codes
    k = dimension(P, field)
    assert rank_gf(codes, field) == k, (N, q, l)
    lam = find_surjective_dilate(P, field, 4 * q)
    bound = best_bound_over_orders(P, P.dilate(lam), field)[0]
    return lam, bound, min_distance_exhaustive(codes, field) if q**k <= 1 << 22 else None


def test_simplex_distances_match_sorensen():
    # lΔ_N for N = 2, q <= 7 and N = 3, q <= 4, every order l up to
    # N (q - 1): 50 codes, 20 of them within q^k = 2^22. The bound is
    # sharp only at l = 1, and it is 1 wherever lambda = 2
    short, exact = {}, 0
    for N, qs in ((2, (2, 3, 4, 5, 7)), (3, (2, 3, 4))):
        for q in qs:
            for l in range(1, N * (q - 1) + 1):
                d = sorensen_distance(N, q, l)
                lam, bound, exhaustive = simplex_case(N, q, l)
                assert bound <= d and (lam != 2 or bound == 1), (N, q, l)
                if exhaustive is not None:
                    exact += 1
                    assert exhaustive == d, (N, q, l)
                if bound < d:
                    short[N, q, l] = bound, d
    assert exact == 20 and len(short) == 42
    assert all(l >= 2 for _, _, l in short)  # the 42 codes of order 2 and up
    assert short[2, 7, 2] == (41, 42)
    # 2Δ_4 over F3 and F2, the second within the exhaustive budget
    assert simplex_case(4, 3, 2)[1:] == (41, None) and sorensen_distance(4, 3, 2) == 54
    assert simplex_case(4, 2, 2)[1:] == (1, 8) == (1, sorensen_distance(4, 2, 2))
