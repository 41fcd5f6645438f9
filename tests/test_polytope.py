import json
import random
import re
from itertools import chain, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projtoric.polytope import (
    Polytope,
    PolytopeError,
    face_incidence,
    offset_difference,
    same_normal_fan,
)
from projtoric.cli import load_document
from projtoric.oracle import _monotone_chains
from reference import kernel_vector, ref_contains, ref_face_incidence, ref_faces, ref_hull
from test_acceptance import random_3d_corpus
from test_code import DATA
from test_high_dim import high_dim_corpus
from test_lattice import box4


def facet_dict(P):
    return dict(zip(P.normals, P.offsets))


def face_interior(P, face):
    """Lattice points whose minimal face is the given one."""
    i = P.faces.index(face)
    return tuple(m for m, f in zip(P.lattice_points, P.lattice_point_faces) if f == i)


def test_toy_triangle_facets(toy_triangle):
    assert facet_dict(toy_triangle) == {(-1, -1): 1, (0, 1): 0, (3, 2): 0}


def test_quadrilateral_facets(quadrilateral):
    assert facet_dict(quadrilateral) == {
        (1, 0): 0,
        (0, 1): 0,
        (-2, 1): 4,
        (-1, -3): 9,
    }


def test_unit_simplex_facets():
    P = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert facet_dict(P) == {(1, 0): 0, (0, 1): 0, (-1, -1): 1}


def test_non_vertex_points_are_dropped(quadrilateral):
    P = Polytope.from_vertices([(0, 0), (2, 0), (3, 2), (0, 3), (1, 1), (2, 2)])
    assert P.vertices == quadrilateral.vertices
    assert P.normals == quadrilateral.normals


def test_face_counts(toy_triangle, quadrilateral, cube):
    def by_dim(P):
        out = {}
        for f in P.faces:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out

    assert by_dim(toy_triangle) == {0: 3, 1: 3, 2: 1}
    assert by_dim(quadrilateral) == {0: 4, 1: 4, 2: 1}
    assert by_dim(cube) == {0: 8, 1: 12, 2: 6, 3: 1}


def test_faces_sorted_by_decreasing_dimension(quadrilateral):
    dims = [f.dim for f in quadrilateral.faces]
    assert dims == sorted(dims, reverse=True)
    lattice = [quadrilateral.faces_of_dim(d) for d in range(quadrilateral.dim + 1)]
    assert len(lattice) == quadrilateral.dim + 1
    for d, group in enumerate(lattice):
        assert all(f.dim == d for f in group)
    assert sum(len(g) for g in lattice) == len(quadrilateral.faces)


def test_square_pyramid_is_not_simple():
    P = Polytope.from_vertices(
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
    )
    assert not P.is_simple()
    assert len(P.tight_facets((1, 1, 1))) == 4


def test_simple_fixtures(toy_triangle, cube, segment01):
    assert toy_triangle.is_simple()
    assert cube.is_simple()
    assert segment01.is_simple()


def test_vrep_hrep_accepts_square(unit_square):
    P = Polytope.from_vrep_hrep(
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(1, 0), (0, 1), (-1, 0), (0, -1)],
        [0, 0, 1, 1],
    )
    assert P.vertices == unit_square.vertices
    assert facet_dict(P) == facet_dict(unit_square)


def test_vrep_hrep_accepts_cube(cube):
    verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    normals = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    ]
    P = Polytope.from_vrep_hrep(verts, normals, [0, 0, 0, 1, 1, 1])
    assert facet_dict(P) == facet_dict(cube)


def test_vrep_hrep_accepts_four_dimensional_cube():
    verts = [
        (a, b, c, d)
        for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)
    ]
    normals = []
    offsets = []
    for i in range(4):
        e = [0] * 4
        e[i] = 1
        normals.append(tuple(e))
        offsets.append(0)
        e = [0] * 4
        e[i] = -1
        normals.append(tuple(e))
        offsets.append(1)
    P = Polytope.from_vrep_hrep(verts, normals, offsets)
    assert P.dim == 4
    assert len(P.vertices) == 16
    assert len(P.faces) == 81
    assert Polytope.from_vertices(verts) == P


def test_vrep_hrep_rejects_non_facet_inequality():
    with pytest.raises(PolytopeError):
        Polytope.from_vrep_hrep(
            [(0, 0), (1, 0), (0, 1), (1, 1)],
            [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [0, 0, 1, 2],
        )


def test_vrep_hrep_rejects_unbounded_set():
    with pytest.raises(PolytopeError):
        Polytope.from_vrep_hrep(
            [(0, 0), (1, 0), (0, 1)],
            [(1, 0), (0, 1)],
            [0, 0],
        )


def test_vrep_hrep_rejects_missing_vertex():
    with pytest.raises(PolytopeError):
        Polytope.from_vrep_hrep(
            [(0, 0), (1, 0), (0, 1)],
            [(1, 0), (0, 1), (-1, 0), (0, -1)],
            [0, 0, 1, 1],
        )


def test_vrep_hrep_rejects_imprimitive_normal():
    with pytest.raises(PolytopeError):
        Polytope.from_vrep_hrep(
            [(0,), (2,)],
            [(2,), (-2,)],
            [0, 4],
        )


def test_from_vertices_drops_a_non_vertex_on_n_facets():
    # (1, 1, 0, 0), the midpoint of an edge of the doubled cross-polytope,
    # lies on the 4 facets (1, 1, +-1, +-1) . x <= 2, all tight at (2, 0, 0, 0)
    tips = [tuple(s * 2 * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    pts = tips + [(1, 1, 0, 0), (0, 0, 0, 0)]
    P = Polytope.from_vertices(pts)
    assert len(P.tight_facets((1, 1, 0, 0))) == 4
    assert P.vertices == tuple(sorted(tips)) and len(P.normals) == 16
    assert (P.vertices, P.normals, P.offsets) == ref_hull(pts)


def test_from_vertices_rejects_high_dimension():
    # dimension 4 and up is built (see the 4-cube above), but a 4-cube
    # lying in a hyperplane of Z^5 is not full-dimensional; a 5-simplex
    # with edges 2^13, once past an int64 rule of the hull, builds
    flat = [(a, b, c, d, 0) for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    with pytest.raises(PolytopeError, match="not full-dimensional"):
        Polytope.from_vertices(flat)
    for edge in (2**8, 2**13):
        simplex = [tuple(edge * int(i == j) for j in range(5)) for i in range(5)] + [(0,) * 5]
        P = Polytope.from_vertices(simplex)
        assert len(P.vertices) == len(P.normals) == 6
        assert P.offsets == (edge,) + (0,) * 5


def test_from_vertices_rejects_degenerate_input():
    with pytest.raises(PolytopeError):
        Polytope.from_vertices([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(PolytopeError):
        Polytope.from_vertices([(3, 3)])
    with pytest.raises(PolytopeError):
        Polytope.from_vertices([(0, 0), (1,)])


def test_from_vertices_refuses_a_bool_coordinate():
    # True == 1 would build the triangle with a vertex (True, 0)
    with pytest.raises(PolytopeError, match="tuple of ints"):
        Polytope.from_vertices([(0, 0), (True, 0), (0, 1)])


def test_vrep_hrep_refuses_a_bool_offset():
    triangle = [(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (-1, -1)]
    assert Polytope.from_vrep_hrep(*triangle, [0, 0, 1]).offsets == (1, 0, 0)
    with pytest.raises(PolytopeError, match="not an int"):
        Polytope.from_vrep_hrep(*triangle, [0, 0, True])


def test_empty_vertex_lists_are_rejected():
    with pytest.raises(PolytopeError, match="no points"):
        Polytope.from_vertices([])
    with pytest.raises(PolytopeError, match="no vertices"):
        Polytope.from_vrep_hrep([], [(1,), (-1,)], [0, 1])


def test_far_translates_scan_like_the_original():
    # (dim + 1) v^2 passes 2^63 here, so the exact slack bound decides
    shift = 1 << 40
    P = Polytope.from_vertices([(0, 0), (2, 0), (0, 2)])
    F = Polytope.from_vertices([(x + shift, y) for x, y in P.vertices])
    assert F.slack_bound() == P.slack_bound() == 2
    assert F.lattice_points == tuple((x + shift, y) for x, y in P.lattice_points)


def test_toy_lattice_points(toy_triangle):
    assert toy_triangle.lattice_points == (
        (-2, 3), (-1, 2), (0, 0), (0, 1), (1, 0),
    )


def test_edge_interior_points(toy_triangle):
    edge = next(
        f for f in toy_triangle.faces
        if f.dim == 1 and set(toy_triangle.vertices[i] for i in f.vertex_indices)
        == {(1, 0), (-2, 3)}
    )
    assert face_interior(toy_triangle, edge) == ((-1, 2), (0, 1))


def test_unit_square_has_no_interior_points(unit_square):
    top = unit_square.faces[0]
    assert top.dim == 2
    assert face_interior(unit_square, top) == ()


def test_every_lattice_point_in_exactly_one_face_interior(toy_triangle, quadrilateral, cube):
    for P in (toy_triangle, quadrilateral, cube):
        for m, home in zip(P.lattice_points, P.lattice_point_faces):
            homes = [i for i, f in enumerate(P.faces) if f.facet_indices == P.tight_facets(m)]
            assert homes == [home]


def test_contains_and_tight_facets(toy_triangle):
    facets = toy_triangle.normals, toy_triangle.offsets
    for v in toy_triangle.vertices:
        assert ref_contains(*facets, v)
        assert len(toy_triangle.tight_facets(v)) == 2
    assert not ref_contains(*facets, (5, 5))
    tight = toy_triangle.tight_facets((0, 1))
    assert len(tight) == 1
    assert toy_triangle.normals[tight[0]] == (-1, -1)


def test_dilate_scales_vertices_and_offsets(toy_triangle):
    D = toy_triangle.dilate(3)
    assert set(D.vertices) == {(0, 0), (3, 0), (-6, 9)}
    assert D.normals == toy_triangle.normals
    assert D.offsets == tuple(3 * a for a in toy_triangle.offsets)
    with pytest.raises(PolytopeError):
        toy_triangle.dilate(0)
    with pytest.raises(PolytopeError):
        toy_triangle.dilate(-2)


@pytest.mark.parametrize("factor", [True, False, 2.0, "2", np.int64(2)])
def test_dilate_refuses_a_factor_that_is_not_an_int(toy_triangle, factor):
    # bool is an int subclass: True would pass as factor 1, the polytope itself
    with pytest.raises(PolytopeError, match="positive int"):
        toy_triangle.dilate(factor)
    assert toy_triangle.dilate(1) is toy_triangle


def _shoelace2(P):
    cyc = _monotone_chains(P.vertices)
    r = len(cyc)
    return sum(
        cyc[i][0] * cyc[(i + 1) % r][1] - cyc[(i + 1) % r][0] * cyc[i][1]
        for i in range(r)
    )


def test_monotone_chains_walk_the_boundary_counterclockwise(polygon_corpus):
    # each step of the order is an edge, both ends tight on one facet,
    # and the shoelace sum of a counterclockwise walk is positive
    for P, _ in polygon_corpus:
        cyc = _monotone_chains(P.vertices)
        assert sorted(cyc) == list(P.vertices)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert set(P.tight_facets(a)) & set(P.tight_facets(b))
        assert _shoelace2(P) > 0


def test_dilate_area_scaling():
    rng = random.Random(3)
    built = 0
    while built < 25:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 6))]
        try:
            P = Polytope.from_vertices(pts)
        except PolytopeError:
            continue
        built += 1
        lam = rng.randint(2, 4)
        assert _shoelace2(P.dilate(lam)) == lam * lam * _shoelace2(P)


def test_offset_difference_of_dilates(toy_triangle):
    normals, offsets = offset_difference(toy_triangle.dilate(5), toy_triangle)
    D4 = toy_triangle.dilate(4)
    assert normals.dtype == offsets.dtype == np.int64
    assert normals.tolist() == [list(u) for u in D4.normals]
    assert offsets.tolist() == list(D4.offsets)
    for m in D4.lattice_points:
        assert ref_contains(normals, offsets, m)
    assert not ref_contains(normals, offsets, (100, 0))


def test_offset_difference_with_itself_is_recession_test(toy_triangle):
    region = offset_difference(toy_triangle, toy_triangle)
    assert ref_contains(*region, (0, 0))
    assert not ref_contains(*region, (1, 0))
    assert not ref_contains(*region, (-1, 0))


def test_offset_difference_segments():
    big = Polytope.from_vertices([(0,), (3,)])
    small = Polytope.from_vertices([(0,), (1,)])
    region = offset_difference(big, small)
    inside = [x for x in range(-5, 6) if ref_contains(*region, (x,))]
    assert inside == [0, 1, 2]


def test_offset_difference_requires_same_normals(unit_square):
    simplex = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(PolytopeError):
        offset_difference(unit_square, simplex)


def test_same_normal_fan(toy_triangle, unit_square):
    assert same_normal_fan(toy_triangle.dilate(4), toy_triangle)
    shifted = Polytope.from_vertices(
        [(x + 1, y + 1) for x, y in toy_triangle.vertices]
    )
    assert same_normal_fan(shifted, toy_triangle)
    simplex = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    assert not same_normal_fan(unit_square, simplex)


def test_from_vertices_idempotent(toy_triangle, quadrilateral, cube):
    for P in (toy_triangle, quadrilateral, cube):
        Q = Polytope.from_vertices(P.vertices)
        assert Q.vertices == P.vertices
        assert Q.normals == P.normals
        assert Q.offsets == P.offsets


@settings(deadline=None, max_examples=60)
@given(st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    min_size=3, max_size=7,
))
def test_random_hulls_are_consistent(pts):
    try:
        P = Polytope.from_vertices(pts)
    except PolytopeError:
        return
    for v in P.vertices:
        assert ref_contains(P.normals, P.offsets, v)
        assert v in pts
    for p in pts:
        assert ref_contains(P.normals, P.offsets, p)
    # facet data certifies the hull: every input point satisfies all
    # inequalities, every facet is tight somewhere
    for u, a in zip(P.normals, P.offsets):
        assert any(
            sum(x * y for x, y in zip(u, v)) == -a for v in P.vertices
        )


def test_kernel_vector_is_primitive_and_orthogonal():
    v = kernel_vector([(3, 2)], 2)
    assert 3 * v[0] + 2 * v[1] == 0
    assert gcd(abs(v[0]), abs(v[1])) == 1
    w = kernel_vector([(1, 2, 3), (0, 1, 1)], 3)
    assert (np.array([[1, 2, 3], [0, 1, 1]]) @ w).tolist() == [0, 0]
    assert gcd(gcd(abs(w[0]), abs(w[1])), abs(w[2])) == 1


def test_kernel_vector_degenerate_cases():
    assert kernel_vector([], 1) == [1]
    with pytest.raises(ValueError):
        kernel_vector([(1, 2, 3), (2, 4, 6)], 3)
    with pytest.raises(ValueError):
        kernel_vector([(1, 2, 3)], 3)


FIXTURES = ("segment01", "toy_triangle", "quadrilateral", "unit_square", "hirzebruch", "cube")


def hull_inputs(request):
    """The point lists of every fixture and data document."""
    yield from (request.getfixturevalue(name).vertices for name in FIXTURES)
    for path in sorted(DATA.glob("*.json")):
        yield [tuple(v) for v in json.loads(path.read_text())["vertices"]]


def hull_draws(seed=0, count=600):
    """Seeded point lists in dimensions 1 to 5, about a third of them
    translated by +-2^40, degenerate ones included."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        c = rng.choice((1, 3, 9))
        pts = [tuple(rng.randint(-c, c) for _ in range(n)) for _ in range(rng.randint(1, 9))]
        if rng.random() < 1 / 3:
            shift = rng.choice((1, -1)) << 40
            pts = [tuple(x + shift for x in p) for p in pts]
        yield pts


def test_from_vertices_matches_reference_hull(request):
    for pts in hull_inputs(request):
        P = Polytope.from_vertices(pts)
        assert (P.vertices, P.normals, P.offsets) == ref_hull(pts)


def test_from_vertices_matches_reference_hull_on_draws():
    built = 0
    for pts in hull_draws():
        try:
            expected = ref_hull(pts)
        except PolytopeError:
            with pytest.raises(PolytopeError, match="not full-dimensional"):
                Polytope.from_vertices(pts)
            continue
        P = Polytope.from_vertices(pts)
        assert (P.vertices, P.normals, P.offsets) == expected
        built += 1
    assert built > 300


def test_faces_match_reference_lattice(request):
    # the draws include non-simple hulls, where a face's cut by one facet
    # can be a face two dimensions down (a square pyramid's apex)
    hulls = [Polytope.from_vertices(pts) for pts in hull_inputs(request)]
    for pts in hull_draws():
        try:
            hulls.append(Polytope.from_vertices(pts))
        except PolytopeError:
            pass
    hulls += [Polytope.from_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)])]
    assert not all(P.is_simple() for P in hulls)
    for P in hulls:
        assert [(f.vertex_indices, f.facet_indices, f.dim) for f in P.faces] == ref_faces(P)


def test_vrep_hrep_rebuilds_every_hull(request):
    hulls = [Polytope.from_vertices(pts) for pts in hull_inputs(request)]
    for pts in hull_draws(count=300):
        try:
            hulls.append(Polytope.from_vertices(pts))
        except PolytopeError:
            pass
    hulls.append(box4((-1, 0, -2, 0), (1, 2, 0, 1)))
    for P in hulls:
        for step in (1, -1):
            assert Polytope.from_vrep_hrep(P.vertices[::step], P.normals[::step], P.offsets[::step]) == P


UNIT_SQUARE_FACETS = ([(1, 0), (0, 1), (-1, 0), (0, -1)], [0, 0, 1, 1])

# (vertices, normals, offsets, part of the message) that from_vrep_hrep refuses
VREP_REJECTIONS = {
    "non-lattice vertex": (
        [(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (-1, -2)], [0, 0, 1],
        "non-lattice vertex (0, 1)/2",
    ),
    "listed point not a vertex": (
        [(0, 0), (2, 0), (0, 2), (2, 2), (1, 0)], UNIT_SQUARE_FACETS[0], [0, 0, 2, 2],
        "listed point (1, 0) is not a vertex",
    ),
    "duplicate normals": (
        [(0, 0), (1, 0), (0, 1), (1, 1)], UNIT_SQUARE_FACETS[0] + [(1, 0)], UNIT_SQUARE_FACETS[1] + [0],
        "duplicate facet normals",
    ),
    "normals do not span": (
        [(0, 0), (1, 0), (0, 1)], [(1, 0), (-1, 0)], [0, 1],
        "facet normals do not span",
    ),
    "vertex missing from the list": (
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)][:-1],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], [0, 0, 0, 1, 1, 1],
        "vertex (1, 1, 1) missing from the vertex list",
    ),
    "vertex violates a facet": (
        [(0, 0), (1, 0), (0, 1), (2, 2)], *UNIT_SQUARE_FACETS,
        "listed point (2, 2) is not a vertex",
    ),
    # the system describes the square, but one row is tight at a vertex
    # only, and another nowhere
    "inequality tight at a vertex": (
        [(0, 0), (1, 0), (0, 1), (1, 1)], UNIT_SQUARE_FACETS[0] + [(1, 1)], UNIT_SQUARE_FACETS[1] + [0],
        "inequality (1, 1) >= 0 is not a facet",
    ),
    "inequality tight nowhere": (
        [(0, 0), (1, 0), (0, 1), (1, 1)], UNIT_SQUARE_FACETS[0] + [(1, 2)], UNIT_SQUARE_FACETS[1] + [1],
        "inequality (1, 2) >= -1 is not a facet",
    ),
}


@pytest.mark.parametrize("case", VREP_REJECTIONS)
def test_vrep_hrep_rejections(case):
    vertices, normals, offsets, message = VREP_REJECTIONS[case]
    with pytest.raises(PolytopeError, match=re.escape(message)):
        Polytope.from_vrep_hrep(vertices, normals, offsets)


def test_vrep_hrep_int64_bound_is_sharp():
    # rows [u | a] with |u| <= 1 and |a| <= b once asked 3! b < 2^63 in 2D;
    # the hull works in Python ints, so b + 1 builds as b does
    for b in ((2**63 - 1) // 6, (2**63 - 1) // 6 + 1):
        P = Polytope.from_vrep_hrep([(0, 0), (b, 0), (0, b)], [(1, 0), (0, 1), (-1, -1)], [0, 0, b])
        assert (P.normals, P.offsets) == (((-1, -1), (0, 1), (1, 0)), (b, 0, 0))
        assert P.vertices == ((0, 0), (0, b), (b, 0))


@pytest.mark.parametrize("n,b", [(4, 16650), (5, 1665)])
def test_from_vertices_int64_bound_is_sharp(n, b):
    # rows [p - first | 1] with |p - first| <= b once asked (n+1)! b^n < 2^63;
    # the hull works in Python ints, so b + 1 builds as b does
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for edge in (b, b + 1):
        P = Polytope.from_vertices([(0,) * n] + [tuple(edge * x for x in u) for u in units])
        assert (P.normals, P.offsets) == ((((-1,) * n), *units[::-1]), (edge,) + (0,) * n)
        assert len(P.vertices) == n + 1


@pytest.mark.parametrize("a", [400, 1000])
def test_vrep_hrep_builds_large_3d_facet_documents(a):
    # normals reach a^2 and moved offsets a + 1: past the old int64 rule
    # (n+1)! B^n S of the hull, which refused both
    pts = [(0, 0, 0), (a, 1, 0), (0, a, 1), (1, 0, a)]
    P = Polytope.from_vertices(pts)
    assert max(map(abs, chain(*P.normals))) >= a * a - a
    assert Polytope.from_vrep_hrep(pts, P.normals, P.offsets) == P
    assert Polytope.from_vrep_hrep(pts[::-1], P.normals[::-1], P.offsets[::-1]) == P


def test_seven_cube_hull():
    # the double description walks the facets of each partial hull, not
    # the C(128, 7) subsets of the points
    P = Polytope.from_vertices(list(product((0, 1), repeat=7)))
    assert len(P.normals) == 14 and len(P.vertices) == 128
    assert set(P.normals) == {tuple(s * int(i == j) for j in range(7)) for i in range(7) for s in (1, -1)}


def test_face_incidence_matches_vertex_inclusion(polygon_corpus):
    # facet-set inclusion, reversed, is vertex-set inclusion on a face lattice
    docs = [load_document(path)[0] for path in sorted(DATA.glob("*.json"))]
    cases = [P for P, _ in polygon_corpus + random_3d_corpus(24, seed=3)] + docs
    cases += [P for _, P, _, _ in high_dim_corpus()]
    assert len(docs) == 6
    for P in cases:
        table = face_incidence(P.faces)
        assert table.dtype == bool and table.shape == (len(P.faces),) * 2
        assert table.tolist() == ref_face_incidence(P.faces)
