import dataclasses
import hashlib
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import projtoric.code
from conftest import build_polygon_corpus
from reference import mul, ref_projective_reduction, ref_toric_reduction, scalar_rows
from projtoric.cli import load_document
from projtoric.code import (
    OrderSpec,
    SurjectivityError,
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
from projtoric.gf import GF, FieldError
from projtoric.oracle import rank_gf, reduction_class_count_unionfind
from projtoric.polytope import Polytope, face_incidence
from projtoric.variety import HypothesisError, build_flags, flag_assignment


coords = st.integers(-20, 20)
point2 = st.tuples(coords, coords)

ORDERS2 = [
    OrderSpec.lex(),
    OrderSpec.grlex(),
    OrderSpec.permlex((1, 0)),
    OrderSpec.wlex((2, 3)),
]


@settings(deadline=None, max_examples=150)
@given(point2, point2, point2)
def test_orders_respect_addition(a, b, c):
    def key(order, m):
        return tuple(order.columns([m])[0].tolist())

    for order in ORDERS2:
        if key(order, a) < key(order, b):
            shifted_a = tuple(x + y for x, y in zip(a, c))
            shifted_b = tuple(x + y for x, y in zip(b, c))
            assert key(order, shifted_a) < key(order, shifted_b)


def test_order_validation():
    with pytest.raises(ValueError, match="unknown order kind"):
        OrderSpec("fancy")
    with pytest.raises(ValueError, match="not a permutation"):
        OrderSpec.permlex((0, 2))
    with pytest.raises(ValueError, match="weight vector"):
        OrderSpec("wlex")


def test_order_entries_must_be_integers():
    # int64 columns would read 0.5 as 0 while the name still says 0.5
    with pytest.raises(ValueError, match="must be integers"):
        OrderSpec.wlex((0.5, 1))
    with pytest.raises(ValueError, match="must be integers"):
        OrderSpec.permlex((True, False))


def test_weights_past_int64_are_refused(toy_triangle):
    # over 5P, max |w.x| is about 1.15e20: wrapped int64 keys would give a
    # bound of 9 against d = 8, and the second weight vector is not int64
    P5 = toy_triangle.dilate(5)
    for weights in ((-(1 << 62), (1 << 62) - 1), (10**20, 1)):
        with pytest.raises(ValueError, match="overflows int64"):
            bounds_over_orders(toy_triangle, P5, 4, [OrderSpec.wlex(weights)])
    # 5P's coordinates reach 10 and 15, so these sums stay below 2^63
    order = OrderSpec.wlex((1 << 58, -(1 << 58)))
    points = P5.lattice_scan[0]
    assert order.columns(points)[:, 0].tolist() == [(x - y) << 58 for x, y in points.tolist()]
    with pytest.raises(ValueError, match="overflows int64"):
        order.require_fit([10, 22])


def test_order_names():
    assert OrderSpec.lex().name == "lex"
    assert OrderSpec.grlex().name == "grlex"
    assert OrderSpec.permlex((1, 0)).name == "permlex:1,0"
    assert OrderSpec.wlex((2, 3)).name == "wlex:2,3"


def test_stock_orders():
    assert [o.name for o in stock_orders(1)] == ["lex", "grlex"]
    assert [o.name for o in stock_orders(2)] == ["lex", "grlex", "permlex:1,0"]


def test_ordered_lattice_points_follow_faces(toy_triangle):
    M = generator_matrix(toy_triangle, GF(4))
    pts = M.row_points.tolist()
    assert sorted(map(tuple, pts)) == sorted(toy_triangle.lattice_points)
    assert pts == [[-1, 2], [0, 1], [-2, 3], [0, 0], [1, 0]]
    assert M.row_face_index.tolist() == [2, 2, 4, 5, 6]
    for array in (M.row_points, M.row_face_index):
        assert array.dtype == np.int64 and not array.flags.writeable


def test_segment_matrix_frozen(segment01):
    M = generator_matrix(segment01, GF(3))
    assert M.shape == (2, 4)
    assert M.codes.dtype == np.uint16
    assert M.codes.tolist() == [[1, 1, 1, 0], [1, 2, 0, 1]]
    assert M.entries == ((1, 1, 1, 0), (1, 2, 0, 1))
    assert M.row_points.tolist() == [[0], [1]]
    assert M.block_widths == (2, 1, 1)
    assert M.torus_columns() == (0, 1)


def test_toy_matrix_shape_and_rank(toy_triangle):
    field = GF(4)
    M = generator_matrix(toy_triangle, field)
    assert M.shape == (5, 21)
    assert M.block_widths == (9, 3, 3, 3, 1, 1, 1)
    assert M.q == 4
    assert rank_gf(M.codes, field) == 5


def test_structural_violations_empty(toy_triangle, quadrilateral, hirzebruch):
    cases = [(toy_triangle, 4), (quadrilateral, 5), (hirzebruch, 7)]
    for P, q in cases:
        assert generator_matrix(P, GF(q)).structural_violations() == []


def _with_entry(M, *flips):
    codes = M.codes.copy()
    for i, j, value in flips:
        codes[i, j] = value
    return dataclasses.replace(M, codes=codes)


@pytest.mark.parametrize("q", [4, 257])
def test_structural_violations_name_the_flipped_entry(toy_triangle, q):
    M = generator_matrix(toy_triangle, GF(q))
    zero = tuple(np.argwhere(M.codes == 0)[0].tolist())
    on_face = (M.shape[0] - 1, M.shape[1] - 1)
    assert M.codes[on_face] != 0
    for (i, j), value in ((zero, 1), (on_face, 0)):
        bad = _with_entry(M, (i, j, value)).structural_violations()
        assert bad == [(i, j)]
        assert all(type(x) is int for x in bad[0])
    # two flips in different rows come back in row-major order
    assert zero[0] < on_face[0]
    bad = _with_entry(M, (*on_face, 0), (*zero, 1)).structural_violations()
    assert bad == [zero, on_face]


DATA = Path(__file__).resolve().parent.parent / "data"

# sha256 of json.dumps(entries); the quadrilateral fails H2 over its own
# F7, so it is pinned over F5. corpus7[i] is polygon i of
# build_polygon_corpus(24, seed=7) over its corpus field, with the flags
# of build_flags(P) and, under the suffix :reverse, build_flags(P, True).
# Their digests were recorded while polygons took their flags from a
# boundary walk, one flag per vertex; the greedy cover must match them.
CORPUS7 = {f"corpus7[{i}]": P for i, (P, _) in enumerate(build_polygon_corpus(24, seed=7))}
PINNED_MATRICES = [
    ("cube.json", 3, "26afb211cd4da20f35f23cf289effe69be7792819dd2680977d52c45f0035382"),
    ("hirzebruch_232.json", 7, "085a62da87a18d770ff8c7d6acb58d6ed1324e63e4d85344873456e3ba5a8836"),
    ("quadrilateral.json", 5, "707ec069d00cea361fd595f1a3915559f878ab96ac108a90419dd702f898ac71"),
    ("segment01.json", 3, "78a9c6b65210db21e4fba21eaeeb4684596fc6854e958f8d8a156c4017cdedc5"),
    ("toy_triangle.json", 4, "fa637db992fdbc5ba9bd9ad7bb4abaf86a464af2f0deb2f62b6e79eae8f72f89"),
    ("unit_square.json", 3, "6f3408584129a245742662bd22f485f5dcfcc7a277c849259f843242d5291ada"),
    ("toy_triangle.json", 16, "d6dd49b4c6f0803c816514c8d7b435bd1669ffad7edb33675e4fcf12339b5568"),
]
PINNED_CORPUS_MATRICES = [
    ("corpus7[0]", 7, "49d5e6ca3cef38e2fd4b6d64c90ee9550dac6386d5794de38b93bd7d647af1cc"),
    ("corpus7[0]:reverse", 7, "a652d7ac65d8729ed10aade955b6929e1a693b757f96cc995b6d6732f5c8fda9"),
    ("corpus7[1]", 7, "eafa911c6e0dc9201f8b1201a1d94d17858e681f02c8f10b260bae0a9b2f63e1"),
    ("corpus7[1]:reverse", 7, "225dc4cd5434f28cf574bc65844c2df4c729d8f6eb62124ffc153d979f897b02"),
    ("corpus7[2]", 5, "798f55d7c1486e05776dc5746de31a542a1548b44f5ff0650c334ca5e2fd0970"),
    ("corpus7[2]:reverse", 5, "9781391a5811c5face5a0ee205702eeab02ac71faebae6ac76baaf56189f5970"),
    ("corpus7[3]", 7, "71cfab94fbcb324975a1a6e085e4a173843706deadf81eb5aa555e47d48ee491"),
    ("corpus7[3]:reverse", 7, "a1ed36823730f6499d4e66a7fe34b71080fa796f3bdefcd46119d9e79b1bdf3d"),
    ("corpus7[4]", 3, "a30ca9e3a8bcd94c5ad8189a9fa799132073d1f92b5a2e0be63283767293c3bf"),
    ("corpus7[4]:reverse", 3, "16ceab26c10baafd6ae8712484dfd9233339a8c88ad223b13dc8e83f1d30a3f4"),
    ("corpus7[5]", 5, "47fca29c0a68687c3972d61913ec133c02041d8fabcf85f3f69961010a96547e"),
    ("corpus7[5]:reverse", 5, "41f94db0a2d3c9ca92fa0dc26bf0f66d7f5d348253b72cab6bca4d359da23ba7"),
    ("corpus7[6]", 5, "954894deda32bf4a4637504fd4ec4ddf3570cd9782873c21218fba4f25511230"),
    ("corpus7[6]:reverse", 5, "42cb8a4de15d4b6eddee3e1f20bc360fb3f849c6a85a870f4c205b827df4c9fa"),
    ("corpus7[7]", 7, "f56ef52a23c06c266ff6a4ca9c7288c606925f7e271cccd9042e68f199ab1e81"),
    ("corpus7[7]:reverse", 7, "ec7066986731c728220156c2137d60cf3e0f9b49153b7eb0fc837bdf3ddc1d5c"),
    ("corpus7[8]", 7, "d2e89d8bb4f1634977e53f647d1ee329c0816d6d7b5e50abf51a361f4522b6c2"),
    ("corpus7[8]:reverse", 7, "87e0c2bfc8ac3517914a74140315b4851cb72e4fe56ba68f13969b47c8de1b39"),
    ("corpus7[9]", 7, "828f180ced2657b1230aba20b4d811ca2453e89c3094f23bf91755b21201ebb5"),
    ("corpus7[9]:reverse", 7, "3894dcf9a6702079010fbad3dcec7aca6e86b4092856da56c391344c8ca16315"),
    ("corpus7[10]", 7, "bc5f0bcb1d85fd8d623255621bc9a63bd64f7e37e564083725405c951a586daa"),
    ("corpus7[10]:reverse", 7, "89ce9bb936a59e7cba6717aaf39a9f2ceb47094e0f1c633a04e0769887b4b999"),
    ("corpus7[11]", 3, "3817557bc7351819a28d04d497ed509d56564a1274d34a0f3fdc9e2d7cc067ed"),
    ("corpus7[11]:reverse", 3, "ce1efde5ec9c5ac1afea27032c71fd9032cb62ffe906b3dfdf8f00e690cb3486"),
    ("corpus7[12]", 7, "6a431cc35250498b96dce65b32e0b2ee8bd1e26b8861d44e4fb30a9e4d54f8c4"),
    ("corpus7[12]:reverse", 7, "8f728d29cb0a5989420f36e43532dc2b67cfaa679064e0b23a00f56a54221da2"),
    ("corpus7[13]", 5, "56bbcc2d86b9b41548b2c15a4c84b65d279dcd81122490d813081955dda1bcc8"),
    ("corpus7[13]:reverse", 5, "49372479a0bed5f4298a8f45c8c63d404557fb17ad46295d4b51e949c8209ce2"),
    ("corpus7[14]", 3, "9e1310d3266567edcf3c19515ebf23137faa843cc781487cae4f439a548fa44d"),
    ("corpus7[14]:reverse", 3, "63fa11be3484da1f140ed9d9c595512006a3473c5ff220e57ccf65c6e0dacf3b"),
    ("corpus7[15]", 7, "a967508cd110a6b4c0df6d6a4cd4c5747c2939c3ffa4291c42ee001ba00a8e3b"),
    ("corpus7[15]:reverse", 7, "39fa59a1a0b3b5b835039e1cb66c13690ec8142fe97b795350da165b8dddfeab"),
    ("corpus7[16]", 5, "5485be7ee1878aac808ed3e0e8002abd039a654f6d613b5bb8c29fd1b6293fe4"),
    ("corpus7[16]:reverse", 5, "d2b14fc411c436e5e7c1ded55c392d405ef03e5b8b21e41c1112dbaac351f9df"),
    ("corpus7[17]", 4, "038a2d47a5ade72ec045c1f045a39527b474a3b525d89e268ff720d8b7fb718b"),
    ("corpus7[17]:reverse", 4, "dc1760c56a0e3882c728a22f7b068f2488e39c7d10f742f6e220e10006cad69c"),
    ("corpus7[18]", 5, "9cf2e17c9f9298d801c348f86da8d2357a47fbfd69804840cc54f6474227f716"),
    ("corpus7[18]:reverse", 5, "d4a64fe2e7f051d35097536d6cd14d542ea7809713e5fbabac15e289c27bca9f"),
    ("corpus7[19]", 5, "1937ee28ce50b014d6f9b412e16eccd5b10161fef83f35f08c685e92974a4eef"),
    ("corpus7[19]:reverse", 5, "91d5b99a5298fd350d9c4bfa89636ec69b009287a0aa2651c427f7b507bc89c9"),
    ("corpus7[20]", 3, "2c52cf9d3dc5f0c72f941756fdf1de4893d0dc3bf99e9a7e6dc00aa22dbb2c59"),
    ("corpus7[20]:reverse", 3, "f33ba3778bd75b4bdcf0240b0f8120bc56b27ce97126899d95491610f0b27b0f"),
    ("corpus7[21]", 5, "c15b5f718bbb73d063bacea543fc1c90649ea1b7e1e57069b29ebdd4d14400da"),
    ("corpus7[21]:reverse", 5, "095c0f8a63a3e1f6b1ef8a0644f4f3988106122be532bf73b922ab6fc3d0e477"),
    ("corpus7[22]", 3, "84fbc5f868a3156d1c0f23a3ed9c37ec30d0d8651dcc63d58e3f347a5c508385"),
    ("corpus7[22]:reverse", 3, "8585b58a01d48ee605a7b0600369c7c0079575d407753c3e248d4ace9bd021d5"),
    ("corpus7[23]", 7, "9c9c343b34397a7d10d3bc2ab269380d31814a26843c570bf17da6e899da19ff"),
    ("corpus7[23]:reverse", 7, "b59c267d7fb84df14058aeef2b101ff9da3ded727d39c8627e38e18f9c0b5f32"),
]


@pytest.mark.parametrize("name,q,digest", PINNED_MATRICES + PINNED_CORPUS_MATRICES)
def test_generator_matrix_sha256_pinned(name, q, digest):
    key, _, reverse = name.partition(":")
    P = CORPUS7[key] if key in CORPUS7 else load_document(DATA / key)[0]
    M = generator_matrix(P, GF(q), flags=build_flags(P, reverse == "reverse"))
    entries = M.entries
    assert all(type(x) is int for row in entries for x in row)
    assert hashlib.sha256(json.dumps(entries).encode()).hexdigest() == digest
    assert json.dumps(M.codes.tolist()) == json.dumps(entries)


def test_matrix_requires_hypotheses(quadrilateral):
    with pytest.raises(HypothesisError):
        generator_matrix(quadrilateral, GF(7))


# the classical toric code evaluates each monomial t^m at every t in
# units^dim: scalar_rows of the lattice points as exponents
def test_toric_matrix_segment(segment01):
    assert scalar_rows(segment01.lattice_points, GF(3)) == ((1, 1), (1, 2))


def test_toric_matrix_reed_solomon():
    # [0,3] over F5 evaluates 1, x, x^2, x^3 at the four units
    P = Polytope.from_vertices([(0,), (3,)])
    field = GF(5)
    T = scalar_rows(P.lattice_points, field)
    assert np.shape(T) == (4, 4)
    assert rank_gf(T, field) == 4


def test_toric_matrix_square_invertible(unit_square):
    field = GF(3)
    T = scalar_rows(unit_square.lattice_points, field)
    assert np.shape(T) == (4, 4)
    assert rank_gf(T, field) == 4


def _lead_normalized_columns(entries, field):
    cols = []
    for j in range(len(entries[0])):
        col = tuple(row[j] for row in entries)
        lead = next((x for x in col if x), None)
        assert lead is not None
        s = field.inv(lead)
        cols.append(tuple(mul(field, s, x) for x in col))
    return sorted(cols)


def test_torus_block_matches_toric_matrix(toy_triangle, unit_square, hirzebruch):
    # straightening rescales each torus column by a unit and permutes
    # the columns, so the lead-normalized column multisets coincide
    cases = [(toy_triangle, 4), (unit_square, 3), (hirzebruch, 7)]
    for P, q in cases:
        field = GF(q)
        M = generator_matrix(P, field)
        torus = M.codes[:, M.torus_columns()]
        T = scalar_rows(M.row_points, field)
        assert _lead_normalized_columns(torus.tolist(), field) == \
            _lead_normalized_columns(T, field)
        assert rank_gf(torus, field) == rank_gf(T, field)


def test_face_blocks_match_toric_reduction(toy_triangle, hirzebruch):
    # puncturing to one face block keeps exactly the classes of the
    # straightened exponents on that face
    for P, q in ((toy_triangle, 4), (hirzebruch, 7)):
        field = GF(q)
        flags = build_flags(P)
        assign = flag_assignment(P, flags)
        M = generator_matrix(P, field, flags=flags)
        ends = np.cumsum(M.block_widths)
        for fi, Q in enumerate(P.faces):
            flag = assign[Q]
            B = M.codes[:, ends[fi] - M.block_widths[fi]:ends[fi]]
            on = face_incidence(P.faces)[P.lattice_point_faces, P.faces.index(Q)]
            on_face = flag.straighten(P.lattice_scan[0][on])[:, :Q.dim]
            classes = ref_toric_reduction(on_face.tolist(), q, OrderSpec.lex())
            assert rank_gf(B, field) == len(classes)


def test_projective_reduction_toy(toy_triangle):
    red = projective_reduction(toy_triangle, GF(4))
    assert red.representatives.dtype == np.int64 and not red.representatives.flags.writeable
    assert red.representatives.tolist() == [[-1, 2], [0, 1], [-2, 3], [0, 0], [1, 0]]


def test_projective_reduction_dilated_toy_interior(toy_triangle):
    # 9 torus classes would be needed; only 8 distinct ones appear
    P4 = toy_triangle.dilate(4)
    red = projective_reduction(P4, GF(4))
    interior = {m for m, f in zip(P4.lattice_points, P4.lattice_point_faces) if f == 0}
    assert sum(1 for r in red.representatives.tolist() if tuple(r) in interior) == 8


def test_projective_reduction_segment():
    P = Polytope.from_vertices([(0,), (3,)])
    red = projective_reduction(P, GF(3))
    assert red.representatives.tolist() == [[1], [2], [0], [3]]


def test_reduction_respects_order_choice(toy_triangle):
    P5 = toy_triangle.dilate(5)
    field = GF(4)
    sizes = set()
    for order in stock_orders(2):
        red = projective_reduction(P5, field, order=order)
        sizes.add(len(red.representatives))
        assert red.representatives.tolist() == ref_projective_reduction(P5, 4, order)
    assert len(sizes) == 1


def test_dimension(toy_triangle, unit_square, segment01, hirzebruch):
    assert dimension(toy_triangle, GF(4)) == 5
    assert dimension(unit_square, GF(3)) == 4
    assert dimension(segment01, GF(3)) == 2
    assert dimension(hirzebruch, GF(7)) == 18


def test_dimension_requires_hypotheses(quadrilateral):
    with pytest.raises(HypothesisError):
        dimension(quadrilateral, GF(7))
    assert dimension(quadrilateral, GF(5)) == len(
        projective_reduction(quadrilateral, GF(5)).representatives
    )


def test_is_surjective(toy_triangle, segment01, unit_square):
    field = GF(4)
    assert not is_surjective(toy_triangle.dilate(4), toy_triangle, field)
    assert is_surjective(toy_triangle.dilate(5), toy_triangle, field)
    big = Polytope.from_vertices([(0,), (3,)])
    assert is_surjective(big, segment01, GF(3))
    # over F2 the doubled square already separates all 9 classes
    assert is_surjective(unit_square.dilate(2), unit_square, GF(2))


def test_is_surjective_rejects_different_fans(toy_triangle, unit_square):
    assert not is_surjective(unit_square, toy_triangle, GF(4))


def test_find_surjective_dilate(toy_triangle, segment01, unit_square):
    assert find_surjective_dilate(toy_triangle, GF(4), lambda_max=10) == 5
    assert find_surjective_dilate(segment01, GF(3)) == 3
    assert find_surjective_dilate(unit_square, GF(2)) == 2
    assert find_surjective_dilate(toy_triangle, GF(4), lambda_max=2) is None


@pytest.mark.parametrize("cap", [0, -3, True, 2.5, "4"])
def test_find_surjective_dilate_refuses_bad_caps(toy_triangle, cap):
    # 0 and -3 returned None, read as "no dilate"; True searched with cap 1
    with pytest.raises(ValueError, match="lambda_max must be an int >= 1"):
        find_surjective_dilate(toy_triangle, GF(4), lambda_max=cap)


def test_negative_offset_ends_the_dilate_search(monkeypatch):
    # the origin lies outside P, so a facet offset a is negative and
    # lam*a < a for every lam > 1: no dilate past lam = 1 can be surjective
    P = Polytope.from_vertices([(1, 1), (2, 1), (1, 2)])
    assert min(P.offsets) < 0
    assert not any(is_surjective(P.dilate(lam), P, GF(3)) for lam in range(1, 30))
    tried = []

    def once(Pbig, *args):
        tried.append(Pbig)
        assert len(tried) == 1, "searched past lam = 1"
        return is_surjective(Pbig, *args)

    monkeypatch.setattr(projtoric.code, "is_surjective", once)
    start = time.perf_counter()
    assert find_surjective_dilate(P, GF(3), 1 << 60) is None
    assert time.perf_counter() - start < 1


def test_distance_bound_toy(toy_triangle):
    field = GF(4)
    big = toy_triangle.dilate(5)
    (details,) = bounds_over_orders(toy_triangle, big, field, [OrderSpec.lex()])
    assert details.bound == 8 and type(details.bound) is int
    assert details.reduced.tolist() == [[-1, 2], [0, 1], [-2, 3], [0, 0], [1, 0]]
    assert details.counts.tolist() == [12, 8, 16, 16, 8]
    assert details.attained_at().tolist() == [[0, 1], [1, 0]]
    assert distance_lower_bound(toy_triangle, big, field) == 8


def test_distance_bound_segment(segment01):
    big = Polytope.from_vertices([(0,), (3,)])
    assert distance_lower_bound(segment01, big, GF(3)) == 3


def test_distance_bound_requires_surjective(toy_triangle):
    with pytest.raises(SurjectivityError):
        distance_lower_bound(toy_triangle, toy_triangle, GF(4))
    with pytest.raises(SurjectivityError):
        bounds_over_orders(toy_triangle, toy_triangle.dilate(4), GF(4))


def test_best_bound_over_orders(toy_triangle, unit_square):
    field = GF(4)
    big = toy_triangle.dilate(5)
    best, order = best_bound_over_orders(toy_triangle, big, field)
    assert best == 8
    lex = OrderSpec.lex()
    single, chosen = best_bound_over_orders(
        toy_triangle, big, field, orders=[lex]
    )
    assert single == distance_lower_bound(toy_triangle, big, field, lex)
    assert chosen == lex
    with pytest.raises(ValueError):
        best_bound_over_orders(toy_triangle, big, field, orders=[])
    # the square is symmetric in the two coordinates
    sq_field = GF(3)
    sq_big = unit_square.dilate(find_surjective_dilate(unit_square, sq_field))
    a = distance_lower_bound(unit_square, sq_big, sq_field, OrderSpec.lex())
    b = distance_lower_bound(
        unit_square, sq_big, sq_field, OrderSpec.permlex((1, 0))
    )
    assert a == b


def test_subcode_matrix(toy_triangle):
    field = GF(4)
    M = generator_matrix(toy_triangle, field)
    assert subcode_matrix(M) == M.entries
    torus = M.torus_columns()
    sub = subcode_matrix(M, rows=[(0, 1), (1, 0)], cols=torus)
    assert len(sub) == 2 and len(sub[0]) == 9
    assert rank_gf(sub, field) == 2
    with pytest.raises(ValueError, match="not a row"):
        subcode_matrix(M, rows=[(9, 9)])
    with pytest.raises(ValueError):
        subcode_matrix(M, cols=[999])
    with pytest.raises(ValueError, match="empty"):
        subcode_matrix(M, rows=[])


def test_duplicate_class_rows_are_kept():
    # [0,4] over F3 has five rows but only four distinct classes
    P = Polytope.from_vertices([(0,), (4,)])
    field = GF(3)
    M = generator_matrix(P, field)
    assert M.shape[0] == 5
    assert rank_gf(M.codes, field) == 4
    assert dimension(P, field) == 4


def test_flag_choice_does_not_change_matrix_rank(toy_triangle, hirzebruch):
    for P, q in ((toy_triangle, 4), (hirzebruch, 7)):
        field = GF(q)
        forward = generator_matrix(P, field, flags=build_flags(P))
        backward = generator_matrix(
            P, field, flags=build_flags(P, reverse=True)
        )
        assert forward.shape == backward.shape
        assert rank_gf(forward.codes, field) == \
            rank_gf(backward.codes, field)


def test_int_field_sizes_build_no_tables(toy_triangle, monkeypatch):
    # these only need q; GF(65536) would take about a second to build
    def refuse(self):
        raise AssertionError(f"tables of GF({self.q}) built")

    monkeypatch.setattr(GF, "_build_tables", refuse)
    q = 1 << 16
    assert len(projective_reduction(toy_triangle, q).representatives) == 5
    assert dimension(toy_triangle, 4096) == 5
    assert not is_surjective(toy_triangle.dilate(2), toy_triangle, q)
    assert find_surjective_dilate(toy_triangle, 4096, 3) is None
    assert reduction_class_count_unionfind(toy_triangle, q) == 5
    P5 = toy_triangle.dilate(5)
    assert [d.bound for d in bounds_over_orders(toy_triangle, P5, 4)] == [8, 8, 8]
    assert distance_lower_bound(toy_triangle, P5, 4) == 8
    with pytest.raises(FieldError):
        projective_reduction(toy_triangle, 1 << 17)
