import itertools

import pytest

from projtoric.gf import FieldError
from projtoric.polytope import Polytope, face_incidence
from projtoric.variety import (
    HypothesisError,
    build_flags,
    check_hypotheses,
    count_rational_points,
    flag_assignment,
    flag_for_chain,
    picard_invariants,
    require_hypotheses,
)


def pyramid():
    return Polytope.from_vertices(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
    )


def chain_by_vertices(P, *vertex_sets):
    """Maximal chain selected by the vertex sets of its proper faces."""
    chain = []
    for want in vertex_sets:
        face = next(
            f for f in P.faces
            if {P.vertices[i] for i in f.vertex_indices} == set(want)
        )
        chain.append(face)
    chain.append(P.faces[0])
    return tuple(chain)


def test_quadrilateral_report(quadrilateral):
    report = check_hypotheses(quadrilateral, 7)
    assert report.simple
    assert report.q == 7 and report.characteristic == 7
    # vertex order is the sorted one: (0,0), (0,3), (2,0), (3,2)
    assert report.determinants == (1, 3, 2, 7)
    assert not report.ok
    assert report.offenders == ((3, 2),)
    assert check_hypotheses(quadrilateral, 5).ok


def test_quadrilateral_field_sweep(quadrilateral):
    failing = {2, 3, 4, 7, 8, 9, 49}
    passing = {5, 11, 13}
    for q in sorted(failing | passing):
        assert check_hypotheses(quadrilateral, q).ok == (q in passing)


def test_toy_triangle_report(toy_triangle):
    report = check_hypotheses(toy_triangle, 4)
    assert report.ok
    assert report.determinants == (1, 3, 1)
    assert report.offenders == ()


def test_pyramid_report():
    report = check_hypotheses(pyramid(), 3)
    assert not report.simple
    assert report.determinants is None
    assert not report.ok
    # the apex of a square pyramid lies on all four side facets
    assert report.offenders == ((1, 1, 1),)


def test_require_hypotheses(toy_triangle, quadrilateral):
    report = require_hypotheses(toy_triangle, 4)
    assert report.ok
    with pytest.raises(
        HypothesisError, match=r"^polytope is not simple: vertex \(1, 1, 1\) lies on 4 facets$"
    ):
        require_hypotheses(pyramid(), 3)
    with pytest.raises(HypothesisError, match="divides the vertex"):
        require_hypotheses(quadrilateral, 7)


def test_count_rational_points(toy_triangle, unit_square, segment01):
    assert count_rational_points(toy_triangle, 4) == 21
    assert count_rational_points(unit_square, 3) == 16
    assert count_rational_points(segment01, 3) == 4
    for q in (2, 3, 4, 5, 7, 8):
        assert count_rational_points(unit_square, q) == (q + 1) ** 2
        assert count_rational_points(segment01, q) == q + 1


@pytest.mark.parametrize("q", [6, 1, 0, True, 2.0, 1 << 17])
def test_count_rational_points_refuses_a_non_field_size(toy_triangle, q):
    # q = 6 counted 43 points of a variety over no field
    with pytest.raises(FieldError):
        count_rational_points(toy_triangle, q)


def test_picard_invariants(toy_triangle, unit_square, quadrilateral, segment01):
    assert picard_invariants(toy_triangle) == (1, ())
    assert picard_invariants(unit_square) == (2, ())
    assert picard_invariants(quadrilateral) == (2, ())
    assert picard_invariants(segment01) == (1, ())


def test_picard_torsion():
    P = Polytope.from_vertices([(0, 0), (2, 4), (-2, 4)])
    assert picard_invariants(P) == (1, (2,))


def test_build_flags_counts(toy_triangle, quadrilateral, segment01, cube):
    assert len(build_flags(toy_triangle)) == 3
    assert len(build_flags(quadrilateral)) == 4
    assert len(build_flags(segment01)) == 2
    assert build_flags(cube)


def test_build_flags_rejects_non_simple():
    with pytest.raises(HypothesisError):
        build_flags(pyramid())


def test_flag_cover_is_complete(toy_triangle, quadrilateral, cube):
    for P in (toy_triangle, quadrilateral, cube):
        for reverse in (False, True):
            flags = build_flags(P, reverse=reverse)
            assign = flag_assignment(P, flags)
            assert set(assign) == set(P.faces)
            for face, flag in assign.items():
                assert face in flag.chain


def test_reverse_cover_differs(toy_triangle, cube):
    for P in (toy_triangle, cube):
        a = flag_assignment(P, build_flags(P))
        b = flag_assignment(P, build_flags(P, reverse=True))
        assert any(a[f].base_vertex != b[f].base_vertex for f in P.faces)


def test_flag_assignment_rejects_partial_cover(toy_triangle):
    flags = build_flags(toy_triangle)
    with pytest.raises(ValueError, match="no flag covers"):
        flag_assignment(toy_triangle, flags[:1])


def test_toy_flag_straightening(toy_triangle):
    chain = chain_by_vertices(
        toy_triangle, [(1, 0)], [(1, 0), (-2, 3)]
    )
    flag = flag_for_chain(toy_triangle, chain)
    assert flag.base_vertex == (1, 0)
    assert flag.hnf_diagonal == (1, 1)
    assert flag.straighten([(1, 0), (0, 1), (-1, 2)]).tolist() == [[0, 0], [1, 0], [2, 0]]


def test_quadrilateral_flag_straightening(quadrilateral):
    chain = chain_by_vertices(
        quadrilateral, [(3, 2)], [(0, 3), (3, 2)]
    )
    flag = flag_for_chain(quadrilateral, chain)
    assert flag.base_vertex == (3, 2)
    assert flag.hnf_diagonal == (1, 7)
    assert flag.straighten([(0, 0)]).tolist() == [[-2, 9]]


def test_trailing_zeros_on_chain_faces(toy_triangle, quadrilateral, cube):
    for P in (toy_triangle, quadrilateral, cube):
        for flag in build_flags(P):
            for j, face in enumerate(flag.chain):
                assert face.dim == j
                on = face_incidence(P.faces)[P.lattice_point_faces, P.faces.index(face)]
                assert on.any()
                assert not flag.straighten(P.lattice_scan[0][on])[:, j:].any()


def test_exponents_are_affine(toy_triangle):
    # phi(m) - phi(base) is linear in m - base, so differences add
    flag = build_flags(toy_triangle)[0]
    pts = toy_triangle.lattice_points
    for a, b in itertools.combinations(pts, 2):
        ea, eb = flag.straighten([a, b])
        diff = tuple(x - y for x, y in zip(a, b))
        shifted = tuple(x + d for x, d in zip(flag.base_vertex, diff))
        assert flag.straighten([shifted]).tolist() == [(ea - eb).tolist()]


def test_exponents_injective(toy_triangle, quadrilateral, hirzebruch):
    for P in (toy_triangle, quadrilateral, hirzebruch):
        flag = build_flags(P)[0]
        images = flag.straighten(P.lattice_scan[0])
        assert len(set(map(tuple, images.tolist()))) == len(images)


def test_flag_for_chain_rejects_bad_chains(toy_triangle):
    faces = toy_triangle.faces
    top = faces[0]
    vertex_faces = [f for f in faces if f.dim == 0]
    edges = [f for f in faces if f.dim == 1]
    with pytest.raises(ValueError, match="each dimension"):
        flag_for_chain(toy_triangle, (vertex_faces[0], top))
    v = vertex_faces[0]
    off_edge = next(
        e for e in edges
        if v.vertex_indices[0] not in e.vertex_indices
    )
    with pytest.raises(ValueError, match="not nested"):
        flag_for_chain(toy_triangle, (v, off_edge, top))
