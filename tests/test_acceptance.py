"""End-to-end checks pinning the construction to its worked examples.

Each test prints one [acceptance] line; a budget overrun flips the
line to FAIL even when the math checks out.
"""

import random
import time
from contextlib import contextmanager

from projtoric.code import (
    OrderSpec,
    best_bound_over_orders,
    bounds_over_orders,
    dimension,
    distance_lower_bound,
    find_surjective_dilate,
    generator_matrix,
    is_surjective,
    projective_reduction,
    stock_orders,
    subcode_matrix,
)
from projtoric.gf import GF
from projtoric.oracle import (
    min_distance_exhaustive,
    rank_gf,
    reduction_class_count_unionfind,
)
from projtoric.polytope import Polytope, PolytopeError
from projtoric.variety import (
    build_flags,
    check_hypotheses,
    count_rational_points,
    flag_assignment,
)

from conftest import anchored
from reference import ref_toric_reduction


@contextmanager
def criterion(label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = budget is None or elapsed < budget
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"{label} took {elapsed:.2f}s, budget {budget}s"


def test_toy_triangle_full_pipeline(toy_triangle):
    with criterion("toy triangle pipeline", budget=5.0):
        field = GF(4)
        assert count_rational_points(toy_triangle, 4) == 21
        M = generator_matrix(toy_triangle, field)
        assert M.shape == (5, 21)
        assert dimension(toy_triangle, field) == 5
        assert rank_gf(M.codes, field) == 5

        assert find_surjective_dilate(toy_triangle, field, lambda_max=10) == 5
        P4 = toy_triangle.dilate(4)
        assert not is_surjective(P4, toy_triangle, field)
        red4 = projective_reduction(P4, field)
        interior = {m for m, f in zip(P4.lattice_points, P4.lattice_point_faces) if f == 0}
        torus_classes = sum(1 for r in red4.representatives.tolist() if tuple(r) in interior)
        assert torus_classes == 8
        assert torus_classes < (field.q - 1) ** 2  # 9 would be needed

        P5 = toy_triangle.dilate(5)
        assert is_surjective(P5, toy_triangle, field)
        (details,) = bounds_over_orders(toy_triangle, P5, field, [OrderSpec.lex()])
        assert details.bound == 8
        assert details.attained_at().tolist() == [[0, 1], [1, 0]]
        assert min_distance_exhaustive(M.codes, field) == 8


def test_quadrilateral_determinant_obstruction(quadrilateral):
    with criterion("quadrilateral obstruction", budget=1.0):
        assert set(quadrilateral.normals) == {
            (1, 0), (0, 1), (-2, 1), (-1, -3)
        }
        assert sorted(check_hypotheses(quadrilateral, 5).determinants) == [1, 2, 3, 7]
        for q in (2, 3, 4, 7, 8, 9, 49):
            assert not check_hypotheses(quadrilateral, q).ok
        for q in (5, 11, 13):
            assert check_hypotheses(quadrilateral, q).ok


def test_segment_extended_reed_solomon(segment01):
    with criterion("segment code", budget=1.0):
        field = GF(3)
        M = generator_matrix(segment01, field)
        assert M.shape == (2, 4)
        assert dimension(segment01, field) == 2
        assert set(M.entries) == {(1, 1, 1, 0), (1, 2, 0, 1)}
        big = segment01.dilate(find_surjective_dilate(segment01, field))
        bound = distance_lower_bound(segment01, big, field)
        assert bound == 3
        assert min_distance_exhaustive(M.codes, field) == 3


def test_point_count_identities(unit_square, segment01):
    with criterion("point count identities"):
        for q in (2, 3, 4, 5, 7, 8):
            assert count_rational_points(unit_square, q) == (q + 1) ** 2
            assert count_rational_points(segment01, q) == q + 1
            sq = generator_matrix(unit_square, GF(q))
            assert sq.shape[1] == (q + 1) ** 2
            seg = generator_matrix(segment01, GF(q))
            assert seg.shape[1] == q + 1


UNIMODULAR = ((1, 1), (0, 1))
SHIFT = (2, -3)


def _transformed(P):
    return Polytope.from_vertices([
        (
            UNIMODULAR[0][0] * x + UNIMODULAR[0][1] * y + SHIFT[0],
            UNIMODULAR[1][0] * x + UNIMODULAR[1][1] * y + SHIFT[1],
        )
        for x, y in P.vertices
    ])


def test_random_polygon_property_suite(polygon_corpus):
    with criterion("random polygon suite", budget=540.0):
        assert len(polygon_corpus) >= 200
        flag_instances = 0
        for P, q in polygon_corpus:
            field = GF(q)
            M = generator_matrix(P, field)
            red = projective_reduction(P, field)
            k = len(red.representatives)

            # (a) matrix rank equals the combinatorial dimension
            assert rank_gf(M.codes, field) == k
            # (b) an independent union-find grouping agrees
            assert reduction_class_count_unionfind(P, field) == k
            # (d) zero pattern is exactly the block triangular one
            assert M.structural_violations() == []

            # (c) the bound never exceeds the true distance, any order
            if q ** k <= 1 << 24:
                A = anchored(P)
                lam = find_surjective_dilate(A, field)
                assert lam is not None
                big = A.dilate(lam)
                d = min_distance_exhaustive(M.codes, field)
                for order in stock_orders(2):
                    assert distance_lower_bound(A, big, field, order) <= d

            # (e) lattice symmetries preserve the code parameters
            Q = _transformed(P)
            assert count_rational_points(Q, q) == count_rational_points(P, q)
            MQ = generator_matrix(Q, field)
            assert MQ.shape == M.shape
            assert dimension(Q, field) == k
            if q ** k <= 1 << 20:
                assert min_distance_exhaustive(MQ.codes, field) == \
                    min_distance_exhaustive(M.codes, field)

            # (f) the flag cover is an implementation detail
            if flag_instances < 20 and q ** k <= 1 << 20:
                a = flag_assignment(P, build_flags(P))
                b = flag_assignment(P, build_flags(P, reverse=True))
                if any(a[f].base_vertex != b[f].base_vertex for f in P.faces):
                    flag_instances += 1
                    MB = generator_matrix(
                        P, field, flags=build_flags(P, reverse=True)
                    )
                    assert MB.shape == M.shape
                    assert rank_gf(MB.codes, field) == k
                    assert min_distance_exhaustive(MB.codes, field) == \
                        min_distance_exhaustive(M.codes, field)
        assert flag_instances == 20


def test_hirzebruch_dimension_cross_method(hirzebruch):
    with criterion("hirzebruch dimension", budget=5.0):
        field = GF(7)
        k = dimension(hirzebruch, field)
        assert k == 18
        M = generator_matrix(hirzebruch, field)
        assert rank_gf(M.codes, field) == k
        assert reduction_class_count_unionfind(hirzebruch, field) == k


def test_torus_puncture_matches_toric_reduction(polygon_corpus, toy_triangle):
    with criterion("torus puncture"):
        cases = [(toy_triangle, 4)] + list(polygon_corpus)
        for P, q in cases:
            field = GF(q)
            M = generator_matrix(P, field)
            torus = subcode_matrix(M, cols=M.torus_columns())
            classes = ref_toric_reduction(P.lattice_points, q, OrderSpec.lex())
            assert rank_gf(torus, field) == len(classes)


def random_3d_corpus(size, seed):
    """Seeded simple lattice polytopes, each over the first q in a
    rotating {2,3,4,5} schedule that passes both hypotheses. Half are
    sheared prisms over random polygons, which are always simple; half
    are hulls of random points in [0,2]^3, kept when simple."""
    rng = random.Random(seed)
    qs = (2, 3, 4, 5)
    corpus = []
    while len(corpus) < size:
        if len(corpus) % 2:
            base = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(3, 5))]
            h, s = rng.randint(1, 2), rng.randint(-1, 1)
            pts = [(x + s * z, y, z) for x, y in base for z in (0, h)]
        else:
            pts = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(rng.randint(4, 8))]
        try:
            P = Polytope.from_vertices(pts)
        except PolytopeError:
            continue
        start = len(corpus) % len(qs)
        q = next((q for q in qs[start:] + qs[:start] if check_hypotheses(P, q).ok), None)
        if q is not None:
            corpus.append((P, q))
    return corpus


def test_random_3d_property_suite():
    with criterion("random 3D suite", budget=12.0):
        exact = 0
        for P, q in random_3d_corpus(24, seed=3):
            field = GF(q)
            M = generator_matrix(P, field)
            k = dimension(P, field)
            assert rank_gf(M.codes, field) == k
            assert reduction_class_count_unionfind(P, field) == k
            assert M.structural_violations() == []
            MB = generator_matrix(P, field, flags=build_flags(P, reverse=True))
            assert MB.structural_violations() == []
            assert rank_gf(MB.codes, field) == k
            if q ** k <= 1 << 24:
                exact += 1
                A = anchored(P)
                lam = find_surjective_dilate(A, field, 4 * q)
                assert lam is not None
                d = min_distance_exhaustive(M.codes, field)
                assert best_bound_over_orders(A, A.dilate(lam), field)[0] <= d
                if q ** k <= 1 << 20:
                    assert min_distance_exhaustive(MB.codes, field) == d
        assert exact >= 12
