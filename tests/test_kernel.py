"""The vectorised evaluation kernel against the per-entry scalar loop.

scalar_rows (reference.py) is the evaluation the matrix builders used
before they were vectorised: one field.mul/field.pow chain per entry.
The generator matrix must agree with it exactly, over every flag cover,
on every field size, and so must the kernel on unstraightened points,
the classical toric code.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from projtoric.code import _evaluate, generator_matrix
from projtoric.gf import GF
from projtoric.polytope import Polytope, PolytopeError
from projtoric.variety import build_flags, check_hypotheses, flag_assignment

from conftest import anchored
from reference import ref_row_points, scalar_rows


def on_face(P, Q, m):
    return set(P.tight_facets(m)) >= set(Q.facet_indices)


def scalar_block(P, Q, flag, field):
    points = ref_row_points(P)
    on = [on_face(P, Q, m) for m in points]
    return scalar_rows(flag.straighten(points)[:, :Q.dim], field, on)


def assert_matches_scalar(P, field):
    for reverse in (False, True):
        flags = build_flags(P, reverse=reverse)
        assign = flag_assignment(P, flags)
        blocks = [scalar_block(P, Q, assign[Q], field) for Q in P.faces]
        joined = tuple(
            tuple(x for block in blocks for x in block[i])
            for i in range(len(blocks[0]))
        )
        assert generator_matrix(P, field, flags=flags).entries == joined
    points = ref_row_points(P)
    expected = scalar_rows(points, field)
    assert _evaluate(np.array(points), field).tolist() == [list(r) for r in expected]


@st.composite
def anchored_polytopes(draw, dim, q, side):
    coords = st.integers(0, side)
    points = draw(
        st.lists(st.tuples(*[coords] * dim), min_size=dim + 1, max_size=dim + 4)
    )
    try:
        P = anchored(Polytope.from_vertices(points))
    except PolytopeError:
        assume(False)
    assume(check_hypotheses(P, q).ok)
    return P


# (dim, q, side of the coordinate box): the box keeps the scalar
# reference to some ten thousand entries; q = 257 leaves only the
# unit square and unimodular triangles, with 66k columns each, so it
# runs fewer examples
CASES = [(2, q, 4) for q in (2, 3, 4, 8, 9)]
CASES += [(2, 16, 2), (2, 25, 2), (2, 27, 2), (2, 257, 1)]
CASES += [(3, q, 2) for q in (2, 3, 4, 8, 9)] + [(3, 16, 1)]
# 4D: the kernel sums four step tables, reducing twice between them
CASES += [(4, 3, 1), (4, 5, 1)]


@pytest.mark.parametrize("dim,q,side", CASES)
def test_kernel_matches_scalar_loop(dim, q, side):
    field = GF(q)

    @settings(
        deadline=None,
        max_examples=4 if q < 257 else 2,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(anchored_polytopes(dim, q, side))
    def check(P):
        assert_matches_scalar(P, field)

    check()


@pytest.mark.parametrize(
    "vertices,q",
    [
        ([(0, 0), (2, 0), (3, 2), (0, 3)], 25),
        ([(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1)], 5),
    ],
)
def test_kernel_matches_scalar_loop_on_negative_exponents(vertices, q):
    # reversed flag covers straighten some on-face points to negative
    # exponents here; the kernel reduces them mod q-1 like field.pow
    P = Polytope.from_vertices(vertices)
    assign = flag_assignment(P, build_flags(P, reverse=True))
    assert any(
        min(assign[Q].straighten([m])[0, :Q.dim]) < 0
        for Q in P.faces
        if Q.dim
        for m in P.lattice_points
        if on_face(P, Q, m)
    )
    assert_matches_scalar(P, GF(q))
