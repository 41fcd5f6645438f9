"""The numpy lattice-point kernel against the per-point scalar scan.

The lattice references of reference.py are the scan and grouping the
package used before they moved onto arrays. Lattice points, face
buckets, class counts, representatives, surjectivity, the dilate factor
and the bounds must all come out identical. Each polytope builds its
class table once per q, and every table it keeps once per key, and a
dilate builds its own. The dilate search
keeps the dilates it reads and the one it proves surjective on P, so
each factor is scanned once and a reused polytope certifies as a fresh
one does.
"""

import subprocess
import sys
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from projtoric import code
from projtoric.code import (
    OrderSpec,
    SurjectivityError,
    _class_table,
    _dilate_lower_bound,
    _rows,
    _survivor_counts,
    bounds_over_orders,
    dimension,
    find_surjective_dilate,
    generator_matrix,
    is_surjective,
    projective_reduction,
)
from projtoric.gf import GF, FieldError
from projtoric.polytope import Polytope, PolytopeError, offset_difference, same_normal_fan
from projtoric.variety import Flag, build_flags, check_hypotheses, count_rational_points

from conftest import anchored
from test_acceptance import random_3d_corpus
from reference import (
    ref_buckets,
    ref_classes,
    ref_contains,
    ref_key,
    ref_lattice_points,
    ref_projective_reduction,
    ref_row_points,
)


def ref_groups(P, q):
    return [g for bucket in ref_buckets(P) for g in ref_classes(bucket, q)]


def ref_is_surjective(Pbig, P, q):
    if not same_normal_fan(Pbig, P):
        return False
    base = dict(zip(P.normals, P.offsets))
    if any(a < base[u] for u, a in zip(Pbig.normals, Pbig.offsets)):
        return False
    return len(ref_groups(Pbig, q)) == count_rational_points(P, q)


def ref_counts(P, Pbig, q, order):
    base = dict(zip(P.normals, P.offsets))
    offsets = [a - base[u] for u, a in zip(Pbig.normals, Pbig.offsets)]
    small = ref_projective_reduction(P, q, order)
    large = [min(g, key=lambda m: ref_key(order, m)) for g in ref_groups(Pbig, q)]
    return small, [
        sum(ref_contains(Pbig.normals, offsets, [x - y for x, y in zip(r, m)]) for r in large)
        for m in small
    ]


def orders_for(dim, draw):
    perm = draw(st.permutations(range(dim)))
    weights = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    return [OrderSpec.lex(), OrderSpec.grlex(), OrderSpec.permlex(perm), OrderSpec.wlex(weights)]


@st.composite
def polytopes(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    side = 3 if dim < 3 else 2
    coords = st.integers(-side, side)
    points = draw(st.lists(st.tuples(*[coords] * dim), min_size=dim + 1, max_size=dim + 4))
    try:
        P = Polytope.from_vertices(points)
    except PolytopeError:
        assume(False)
    return P, orders_for(dim, draw)


def box4(lo, hi):
    return Polytope.from_vertices(product(*zip(lo, hi)))


def assert_scan_matches(P):
    assert P.lattice_points == ref_lattice_points(P)
    points, tight = P.lattice_scan
    assert points.tolist() == [list(m) for m in P.lattice_points]
    assert [tuple(row.nonzero()[0].tolist()) for row in tight] == [
        P.tight_facets(m) for m in P.lattice_points
    ]
    buckets = ref_buckets(P)
    points, face = _rows(P)
    assert points.tolist() == [list(m) for m in ref_row_points(P)]
    assert face.tolist() == [i for i, b in enumerate(buckets) for _ in b]


def assert_reductions_match(P, q, orders):
    assert len(_class_table(P, q)[1]) == len(ref_groups(P, q))
    for order in orders:
        red = projective_reduction(P, q, order)
        assert red.representatives.tolist() == ref_projective_reduction(P, q, order)


QS = (2, 3, 4, 5, 7, 8, 9)


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(polytopes(), st.integers(1, 6), st.sampled_from(QS))
def test_scan_and_classes_match_scalar_reference(case, lam, q):
    P, orders = case
    D = P.dilate(lam)
    assert D.faces == Polytope(D.dim, D.vertices, D.normals, D.offsets).faces
    assert_scan_matches(D)
    assert_reductions_match(D, q, orders)
    assert is_surjective(D, P, q) == ref_is_surjective(D, P, q)


@settings(deadline=None, max_examples=25, suppress_health_check=[HealthCheck.filter_too_much])
@given(polytopes(), st.sampled_from((2, 3, 4, 5)))
def test_dilate_search_and_bounds_match_scalar_reference(case, q):
    P, orders = case
    P = anchored(P)
    cap = 8 if P.dim == 3 else 12
    lam = next((k for k in range(1, cap + 1) if ref_is_surjective(P.dilate(k), P, q)), None)
    assert find_surjective_dilate(P, q, cap) == lam
    assume(lam is not None)
    B = P.dilate(lam)
    expected = [ref_counts(P, B, q, order) for order in orders]
    every = bounds_over_orders(P, B, q, orders)
    assert [d.bound for d in every] == [min(c) for _, c in expected]
    for order, (small, counts), details in zip(orders, expected, every):
        (single,) = bounds_over_orders(P, B, q, [order])
        for d in (details, single):
            assert (d.order, d.bound, d.reduced.tolist(), d.counts.tolist()) == (
                order, min(counts), small, counts
            )


@settings(deadline=None, max_examples=50, suppress_health_check=[HealthCheck.filter_too_much])
@given(polytopes(), st.sampled_from((2, 3, 4, 5, 7)))
def test_dilate_lower_bound_is_below_the_linear_search(case, q):
    # the drawn polytope may miss the origin; then no dilate beyond 1
    # dominates it, but the bound, which ignores translation, still holds
    # for the anchored copy
    P = case[0]
    A = anchored(P)
    cap = 8 if P.dim == 3 else 12
    low = _dilate_lower_bound(P, q)
    assert low == _dilate_lower_bound(A, q) >= 1
    lam = next((k for k in range(1, cap + 1) if ref_is_surjective(A.dilate(k), A, q)), None)
    assert lam is None or low <= lam
    assert find_surjective_dilate(P, q, cap) == next(
        (k for k in range(1, cap + 1) if ref_is_surjective(P.dilate(k), P, q)), None
    )


@pytest.mark.parametrize("length", [1, 2, 3, 5])
@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 16])
def test_segment_bound_is_q_over_length(length, q):
    P = Polytope.from_vertices([(-1,), (length - 1,)])
    assert _dilate_lower_bound(P, q) == find_surjective_dilate(P, q, 4 * q) == -(-q // length)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_unit_simplex_bound(dim, q):
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    P = Polytope.from_vertices([(0,) * dim] + unit)
    assert _dilate_lower_bound(P, q) == find_surjective_dilate(P, q, 4 * q) == dim * (q - 1) + 1


# the shapes and fields of perfbench's certify workload
CERTIFY_SHAPES = {
    "toy": [(0, 0), (1, 0), (-2, 3)],
    "square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "tri2": [(0, 0), (2, 0), (0, 2)],
    "quad": [(0, 0), (2, 0), (3, 2), (0, 3)],
    "trap": [(0, 0), (3, 0), (2, 1), (0, 1)],
    "pent": [(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)],
    "hex": [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    "cube": [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "simplex": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "prism": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)],
    "box2": [(x, y, z) for x in (0, 2) for y in (0, 1) for z in (0, 1)],
}
CERTIFY_CASES = (
    ("toy", 8), ("hex", 8), ("square", 9), ("pent", 9), ("quad", 11), ("trap", 11),
    ("tri2", 13), ("pent", 13), ("toy", 16), ("hex", 16), ("square", 25), ("trap", 25),
    ("tri2", 27), ("square", 27), ("toy", 31), ("tri2", 31),
    ("simplex", 5), ("box2", 5), ("prism", 7), ("cube", 7), ("cube", 8), ("prism", 8),
    ("box2", 9), ("prism", 9), ("cube", 11), ("box2", 11),
)


@pytest.mark.parametrize(
    "shape,q,lam", [("toy", 16, 21), ("toy", 31, 41), ("simplex", 5, 13), ("prism", 9, 17)]
)
def test_dilate_lower_bound_pins(shape, q, lam):
    P = Polytope.from_vertices(CERTIFY_SHAPES[shape])
    assert _dilate_lower_bound(P, q) == find_surjective_dilate(P, q, 4 * q) == lam


def test_search_checks_one_dilate_per_certify_case(monkeypatch):
    checked = []

    def counting(Pbig, P, field):
        checked.append(Pbig.offsets)
        return is_surjective(Pbig, P, field)

    monkeypatch.setattr(code, "is_surjective", counting)
    for shape, q in CERTIFY_CASES:
        checked.clear()
        P = Polytope.from_vertices(CERTIFY_SHAPES[shape])
        lam = find_surjective_dilate(P, q, 4 * q)
        assert lam is not None and len(checked) == 1, (shape, q)


@pytest.mark.parametrize("q", [3, 5])
def test_4d_box_matches_scalar_reference(q):
    P = box4((-1, 0, -2, 0), (1, 2, 0, 1))
    orders = [
        OrderSpec.lex(),
        OrderSpec.grlex(),
        OrderSpec.permlex((3, 1, 0, 2)),
        OrderSpec.wlex((2, -1, 0, -3)),
    ]
    for lam in (1, 2, 3):
        D = P.dilate(lam)
        assert_scan_matches(D)
        assert_reductions_match(D, q, orders)
    A = box4((0, 0, 0, 0), (1, 2, 2, 1))
    lam = find_surjective_dilate(A, q, 8)
    assert lam == next(k for k in range(1, 9) if ref_is_surjective(A.dilate(k), A, q))
    B = A.dilate(lam)
    expected = [min(ref_counts(A, B, q, order)[1]) for order in orders]
    assert [d.bound for d in bounds_over_orders(A, B, q, orders)] == expected


def test_order_keys_sort_like_the_scalar_keys():
    points = list(product(range(-3, 4), repeat=3))
    for order in (
        OrderSpec.lex(),
        OrderSpec.grlex(),
        OrderSpec.permlex((2, 0, 1)),
        OrderSpec.wlex((-1, 3, 2)),
    ):
        by_columns = np.lexsort(order.columns(points).T[::-1])
        assert [points[i] for i in by_columns] == sorted(points, key=lambda m: ref_key(order, m))


@pytest.mark.parametrize("order", [OrderSpec.permlex((1, 0)), OrderSpec.wlex((1, -2))])
def test_order_of_the_wrong_dimension_is_rejected(cube, order):
    with pytest.raises(ValueError, match="does not fit"):
        projective_reduction(cube, 3, order)


ORDERS_2D = [
    OrderSpec.lex(),
    OrderSpec.grlex(),
    OrderSpec.permlex((1, 0)),
    OrderSpec.wlex((2, -3)),
]


def test_class_tables_are_cached_per_q(hirzebruch):
    P = hirzebruch
    tables = {}
    for q in (3, 4, 5, 7, 5, 3, 7, 4, 7):
        tables.setdefault(q, _class_table(P, q))
        assert _class_table(P, q) is tables[q]
        order = ORDERS_2D[q % 4]
        assert projective_reduction(P, q, order).representatives.tolist() == (
            ref_projective_reduction(P, q, order)
        )
        assert len(tables[q][1]) == len(ref_groups(P, q))
    assert sorted(P.class_tables) == [3, 4, 5, 7]


def test_a_dilate_builds_its_own_class_table(toy_triangle):
    P = toy_triangle
    perm, _ = _class_table(P, 4)
    assert P.dilate(1) is P
    for lam in (2, 3):
        D = P.dilate(lam)
        assert D.faces is P.faces and "class_tables" not in D.__dict__
        assert _class_table(D, 4)[0] is not perm
        assert len(_class_table(D, 4)[1]) == len(ref_groups(D, 4))
        for order in ORDERS_2D:
            assert projective_reduction(D, 4, order).representatives.tolist() == (
                ref_projective_reduction(D, 4, order)
            )
    assert _class_table(P, 4)[0] is perm


@pytest.mark.parametrize("q", [3, 5])
def test_orders_interleaved_on_one_polytope(q):
    P = Polytope.from_vertices(CERTIFY_SHAPES["prism"]).dilate(3)
    orders = [
        OrderSpec.lex(),
        OrderSpec.grlex(),
        OrderSpec.permlex((2, 0, 1)),
        OrderSpec.wlex((1, -2, 3)),
    ]
    expected = {order: ref_projective_reduction(P, q, order) for order in orders}
    for order in orders + orders[::-1] + orders[1::2] + orders:
        assert projective_reduction(P, q, order).representatives.tolist() == expected[order]


def test_class_table_arrays_are_read_only(toy_triangle):
    perm, starts = _class_table(toy_triangle, 4)
    for array in (perm, starts):
        with pytest.raises(ValueError):
            array[0] = 1
        with pytest.raises(ValueError):
            array.sort()


def test_each_polytope_builds_one_class_table_per_q(monkeypatch, toy_triangle):
    # count the tables built, each polytope kept alive so ids stay unique
    builds, table = [], code._class_table

    def counting(P, q):
        if q not in P.__dict__.get("class_tables", {}):
            builds.append((P, q))
        return table(P, q)

    monkeypatch.setattr(code, "_class_table", counting)
    P = toy_triangle
    assert dimension(P, 4) == 5
    lam = find_surjective_dilate(P, 4, 10)
    B = P.dilate(lam)
    for _ in range(2):
        assert dimension(P, 4) == 5
        assert [d.bound for d in bounds_over_orders(P, B, 4)] == [8, 8, 8]
    # P, and B, which is the one dilate the search checks: P keeps it
    assert [(Q is P, Q is B, q) for Q, q in builds] == [(True, False, 4), (False, True, 4)]


def counting_builds(monkeypatch):
    """The (polytope, table, key) of each entry Polytope.kept builds from
    here on, in order, each polytope kept alive."""
    builds, kept = [], Polytope.kept

    def counting(P, table, key, build):
        if key not in P.__dict__.get(table, {}):
            builds.append((P, table, key))
        return kept(P, table, key, build)

    monkeypatch.setattr(Polytope, "kept", counting)
    return builds


KEPT = {
    "class_tables", "representatives", "lower_bounds", "dilates", "surjective_factors",
    "vertex_determinants", "flag_covers", "vertex_cones",
}


def certify_and_build(P, q):
    """Everything that keeps a table on P: a certify pass, the matrix and
    both flag covers. Returns the searched dilate."""
    assert check_hypotheses(P, q).ok
    dimension(P, q)
    B = P.dilate(find_surjective_dilate(P, q, 4 * q))
    bounds_over_orders(P, B, q)
    generator_matrix(P, q)
    build_flags(P, reverse=True)
    return B


def test_each_kept_table_is_built_once_per_key(monkeypatch):
    builds = counting_builds(monkeypatch)
    for shape, q in (("toy", 8), ("hex", 9), ("prism", 7)):
        P = Polytope.from_vertices(CERTIFY_SHAPES[shape])
        B = certify_and_build(P, q)
        first = len(builds)
        assert certify_and_build(P, q) is B
        assert len(builds) == first, shape  # the second pass builds nothing
        orders = code.stock_orders(P.dim)
        assert {(t, k) for Q, t, k in builds if Q is P} >= {
            ("class_tables", q), ("lower_bounds", q), ("surjective_factors", q),
            ("vertex_determinants", None),
            ("flag_covers", (False, bool)), ("flag_covers", (True, bool)),
            ("vertex_cones", None), *(("representatives", (q, o)) for o in orders),
        }
        assert {(t, k) for Q, t, k in builds if Q is B} == {
            ("class_tables", q), ("vertex_cones", None),
            *(("representatives", (q, o)) for o in orders),
        }
    keys = [(id(Q), t, k) for Q, t, k in builds]
    assert len(set(keys)) == len(keys)
    assert {t for _, t, _ in builds} == KEPT


def frozen(value):
    """Whether nothing in a kept value can be written in place."""
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, tuple):
        return all(map(frozen, value))
    return value is None or isinstance(value, (int, Polytope, Flag))  # frozen dataclasses


def test_each_kept_table_is_read_only():
    P = Polytope.from_vertices(CERTIFY_SHAPES["prism"])
    B = certify_and_build(P, 7)
    for Q in (P, B):
        for table in KEPT & set(Q.__dict__):
            assert all(map(frozen, Q.__dict__[table].values())), table
    for reps in B.__dict__["representatives"].values():
        with pytest.raises(ValueError, match="read-only"):
            reps[0] = 0


def test_a_dilate_builds_its_own_tables_and_shares_only_faces(toy_triangle):
    P, q = toy_triangle, 4
    certify_and_build(P, q)
    D = P.dilate(max(P.__dict__["dilates"]) + 1)  # a new polytope, kept nowhere
    assert set(D.__dict__) == {"dim", "vertices", "normals", "offsets", "faces"}
    assert D.faces is P.faces
    assert is_surjective(D, P, q) and check_hypotheses(D, q).ok
    dimension(D, q)
    bounds_over_orders(P, D, q)
    build_flags(D)
    for table in KEPT - {"dilates", "lower_bounds", "surjective_factors"}:
        mine, base = D.__dict__[table], P.__dict__[table]
        assert mine is not base and mine.keys() <= base.keys(), table
        assert not any(mine[k] is base[k] for k in mine), table
    for order in ORDERS_2D:
        assert projective_reduction(D, q, order).representatives.tolist() == (
            ref_projective_reduction(D, q, order)
        )


def test_orders_and_fields_interleaved_on_one_polytope():
    P = Polytope.from_vertices(CERTIFY_SHAPES["prism"]).dilate(3)
    orders = [
        OrderSpec.lex(),
        OrderSpec.grlex(),
        OrderSpec.permlex((2, 0, 1)),
        OrderSpec.wlex((1, -2, 3)),
    ]
    cases = [(q, order) for q in (3, 5, 4) for order in orders]
    expected = {(q, order): ref_projective_reduction(P, q, order) for q, order in cases}
    for q, order in cases[::-1] + cases[1::2] + cases + cases[::3]:
        assert projective_reduction(P, q, order).representatives.tolist() == expected[q, order]
    assert set(P.__dict__["representatives"]) == set(cases)


def test_build_flags_returns_a_new_list_of_the_kept_cover():
    P = Polytope.from_vertices(CERTIFY_SHAPES["prism"])
    fresh = Polytope(P.dim, P.vertices, P.normals, P.offsets)
    first = build_flags(P)
    assert first == build_flags(fresh)
    cover = list(first)
    first.clear()
    first.append(None)
    second = build_flags(P)
    assert second is not first and second == cover
    reverse = build_flags(P, reverse=True)
    assert reverse != cover and reverse == build_flags(fresh, reverse=True)
    assert build_flags(P, reverse=True) is not reverse
    for bad in (1.0, 0.0, None):  # 1.0 == True and 0.0 == False, yet sorted refuses them
        for Q in (fresh, P):
            with pytest.raises(TypeError):
                build_flags(Q, reverse=bad)


@pytest.mark.parametrize("bad", [5.0, np.int64(5), True], ids=["float", "int64", "bool"])
def test_kept_tables_refuse_what_a_fresh_polytope_refuses(toy_triangle, bad):
    # 5.0 and np.int64(5) hash and compare as 5 does, so a table looked up
    # before its key is validated would answer them for (P, 5)
    P = toy_triangle
    fresh = Polytope(P.dim, P.vertices, P.normals, P.offsets)
    assert check_hypotheses(P, 5).ok and dimension(P, 5) == 5
    bounds_over_orders(P, P.dilate(find_surjective_dilate(P, 5, 20)), 5)
    calls = {
        "check_hypotheses": lambda R: check_hypotheses(R, bad),
        "dimension": lambda R: dimension(R, bad),
        "find_surjective_dilate": lambda R: find_surjective_dilate(R, bad, 20),
        "bounds_over_orders": lambda R: bounds_over_orders(R, R.dilate(2), bad),
        "projective_reduction": lambda R: projective_reduction(R, bad),
        "is_surjective": lambda R: is_surjective(R.dilate(2), R, bad),
    }
    for name, call in calls.items():
        messages = []
        for R in (fresh, P):
            with pytest.raises(FieldError) as refused:
                call(R)
            messages.append(str(refused.value))
        assert messages[0] == messages[1], name


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_survivor_counts_in_chunks_match_the_row_loop(monkeypatch, toy_triangle, rows):
    # the toy triangle over F4, and the prism over F7, whose region has 5 facets
    prism = Polytope.from_vertices(CERTIFY_SHAPES["prism"])
    chunks, count = [], np.count_nonzero

    def counting(*args, **kwargs):
        chunks.append(args[0].shape)
        return count(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counting)
    for P, q, orders in ((toy_triangle, 4, ORDERS_2D), (prism, 7, [OrderSpec.lex()])):
        B = P.dilate(find_surjective_dilate(P, q, 4 * q))
        region = offset_difference(B, P)
        for order in orders:
            small, expected = ref_counts(P, B, q, order)
            large = [min(g, key=lambda m: ref_key(order, m)) for g in ref_groups(B, q)]
            # a chunk is CAP // (len(large) * facets) rows of small, here `rows`,
            # fewer than it has
            facets = len(region[0])
            monkeypatch.setattr(code, "CAP", rows * len(large) * facets)
            chunks.clear()
            assert _survivor_counts(region, np.array(small), np.array(large)).tolist() == expected
            assert len(chunks) == -(-len(small) // rows) > 1
            assert all(r <= rows and r * n * facets <= code.CAP for r, n in chunks)
            assert bounds_over_orders(P, B, q, [order])[0].counts.tolist() == expected
    assert len(region[0]) == 5


def test_kernel_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, a cost paid at start-up
    script = (
        "import sys\n"
        "from projtoric import Polytope, dimension, find_surjective_dilate\n"
        "from projtoric.code import bounds_over_orders\n"
        "P = Polytope.from_vertices([(0, 0), (1, 0), (-2, 3)])\n"
        "assert dimension(P, 4) == 5\n"
        "lam = find_surjective_dilate(P, 4, 10)\n"
        "assert [d.bound for d in bounds_over_orders(P, P.dilate(lam), 4)] == [8, 8, 8]\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, cwd=src,
    )
    assert done.stdout.strip() == "False"


def counting_scans(monkeypatch):
    """The polytopes Polytope.lattice_scan scans from here on, in order,
    each kept alive."""
    scanned, scan = [], Polytope.__dict__["lattice_scan"].func

    def counting(P):
        scanned.append(P)
        return scan(P)

    prop = cached_property(counting)
    prop.__set_name__(Polytope, "lattice_scan")
    monkeypatch.setattr(Polytope, "lattice_scan", prop)
    return scanned


def recording_surjectivity(monkeypatch):
    """(proven, rejected): the dilates code.is_surjective accepts and refuses."""
    proven, rejected, surjective = [], [], code.is_surjective

    def recording(Pbig, P, field):
        ok = surjective(Pbig, P, field)
        (proven if ok else rejected).append(Pbig)
        return ok

    monkeypatch.setattr(code, "is_surjective", recording)
    return proven, rejected


def ids(polytopes):
    """The identities of polytopes, which compare equal by their fields."""
    return list(map(id, polytopes))


def test_the_searched_dilate_is_kept_and_each_factor_scanned_once(monkeypatch):
    # two certify passes per case, P scanned beforehand as the benchmark's are
    # the first pass proves its dilate once, and the second checks nothing
    scanned = counting_scans(monkeypatch)
    proven, rejected = recording_surjectivity(monkeypatch)
    scans = points = 0
    for shape, q in CERTIFY_CASES:
        P = Polytope.from_vertices(CERTIFY_SHAPES[shape])
        P.lattice_scan
        scanned.clear()
        for run in range(2):
            proven.clear()
            rejected.clear()
            dimension(P, q)
            lam = find_surjective_dilate(P, q, 4 * q)
            B = P.dilate(lam)
            bounds_over_orders(P, B, q)
            assert ids(proven) == ids([B] if run == 0 else []), (shape, q, run)
            assert run == 0 or rejected == [], (shape, q)
            if run == 0:
                first = len(scanned)
        assert len(scanned) == first, (shape, q)  # the second pass scans nothing
        assert len({Q.offsets for Q in scanned}) == len(scanned), (shape, q)
        scans += len(scanned)
        points += sum(len(Q.lattice_scan[0]) for Q in scanned)
    # 83 scans and 61,365 points when every caller built its own dilate
    assert scans <= 57 and points <= 31051


def test_a_kept_factor_answers_every_cap_without_a_check(monkeypatch, toy_triangle):
    P = toy_triangle  # lambda = 5 over F4: 4P is not surjective, 5P is
    assert find_surjective_dilate(P, 4, 16) == 5
    proven, rejected = recording_surjectivity(monkeypatch)
    assert find_surjective_dilate(P, 4, 4) is None
    assert find_surjective_dilate(P, 4, 5) == find_surjective_dilate(P, 4, 1 << 40) == 5
    assert find_surjective_dilate(P, GF(4), 5) == 5
    assert proven == rejected == []
    bounds_over_orders(P, P.dilate(5), 4)
    assert proven == rejected == []


def test_a_kept_proof_vouches_for_its_dilate_and_field_alone(monkeypatch, toy_triangle):
    P = toy_triangle
    assert find_surjective_dilate(P, 4, 16) == 5
    proven, rejected = recording_surjectivity(monkeypatch)
    fresh = scaled(P, 5)  # 5P again, but not the object the search proved
    bounds_over_orders(P, fresh, 4)
    assert ids(proven) == ids([fresh]) and rejected == []
    short = [P.dilate(4), P]  # neither is surjective over F4
    for Pbig in short:
        with pytest.raises(SurjectivityError):
            bounds_over_orders(P, Pbig, 4)
    with pytest.raises(SurjectivityError):  # 5P is not surjective over F5
        bounds_over_orders(P, P.dilate(5), 5)
    assert ids(rejected) == ids(short + [P.dilate(5)])
    proven.clear()
    assert find_surjective_dilate(P, 8, 16) == 10  # a search of its own
    bounds_over_orders(P, P.dilate(10), 4)  # proven over F8, checked over F4
    assert ids(proven) == ids([P.dilate(10)] * 2)
    assert P.__dict__["surjective_factors"] == {4: 5, 8: 10}


def test_a_failed_search_keeps_no_factor(monkeypatch):
    P = Polytope.from_vertices(RM)  # over F3, L = 2 and lambda = 3
    proven, rejected = recording_surjectivity(monkeypatch)
    for _ in range(2):
        assert find_surjective_dilate(P, 3, 2) is None
        assert "surjective_factors" not in P.__dict__
    assert proven == [] and len(rejected) == 2
    assert find_surjective_dilate(P, 3, 12) == 3
    assert ids(proven) == ids([P.dilate(3)]) and P.__dict__["surjective_factors"] == {3: 3}


RM = [(0, 0, 0), (0, 4, 0), (2, 0, 4), (2, 4, 0)]  # a simplex with L < lambda
SIMPLEX = CERTIFY_SHAPES["simplex"]


@pytest.mark.parametrize(
    "vertices,q,cap,rejections",
    [
        (CERTIFY_SHAPES["quad"], 7, 6, 0),  # lambda = L = 7
        (RM, 3, 2, 1),  # L = 2 < lambda = 3
        (RM, 53, 40, 1),  # L = 40 < lambda
        (SIMPLEX, 16, 40, 0),  # L = lambda = 46; 2P, 3P and 4P are read
    ],
    ids=["quad-F7", "rm-F3", "rm-F53", "simplex-F16"],
)
def test_a_failed_search_keeps_only_the_dilates_its_lower_bound_reads(
    monkeypatch, vertices, q, cap, rejections
):
    _, rejected = recording_surjectivity(monkeypatch)
    P, Q = Polytope.from_vertices(vertices), Polytope.from_vertices(vertices)
    _dilate_lower_bound(Q, q)
    for _ in range(2):
        assert find_surjective_dilate(P, q, cap) is None
        kept = P.__dict__.get("dilates", {})  # no table when L reads P alone
        assert sorted(kept) == sorted(Q.__dict__.get("dilates", {}))
        assert len(kept) <= P.dim + 1 and all(2 <= c <= P.dim + 1 for c in kept)
        assert not any(R is D for R in rejected for D in kept.values())
    assert len(rejected) == 2 * rejections


def scaled(P, lam):
    """lam * P built afresh, sharing nothing with P."""
    return Polytope(
        P.dim,
        tuple(tuple(lam * x for x in v) for v in P.vertices),
        P.normals,
        tuple(lam * a for a in P.offsets),
    )


def certificate(P, q, dilate):
    lam = find_surjective_dilate(P, q, 4 * q)
    if lam is None:
        return None
    bounds = bounds_over_orders(P, dilate(P, lam), q)
    return lam, [(d.order, d.bound, d.attained_at().tolist()) for d in bounds]


def test_a_reused_polytope_certifies_as_a_fresh_one(polygon_corpus):
    cases = [(anchored(P), q) for P, q in polygon_corpus + random_3d_corpus(24, seed=3)]
    for P, q in cases:
        fresh = certificate(Polytope(P.dim, P.vertices, P.normals, P.offsets), q, scaled)
        first = certificate(P, q, Polytope.dilate)
        certificate(P, 5 if q == 3 else 3, Polytope.dilate)  # another field's dilates
        assert fresh is not None and first == certificate(P, q, Polytope.dilate) == fresh


def test_a_kept_dilate_scan_is_read_only(toy_triangle):
    # every caller of P.dilate(lam) gets the same arrays, so none may write them
    lam = find_surjective_dilate(toy_triangle, 4, 16)
    B = toy_triangle.dilate(lam)
    with pytest.raises(ValueError, match="read-only"):
        B.lattice_scan[0][0] = (99, 99)
    for array in (B.lattice_scan[1], B.lattice_point_faces):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert toy_triangle.dilate(lam) is B and (99, 99) not in B.lattice_points
