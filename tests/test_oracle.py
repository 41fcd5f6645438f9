"""The oracles against scalar references, and their own examples.

row_basis_reference and exhaustive_reference are the pure-Python
oracles that ran for q > 256 before every field size moved to the GF
array kernel: one scalar field operation per entry. The array oracles
must return the same basis, row for row, and the same distance.
unionfind_reference is the double loop over point pairs that the
union-find oracle ran before it counted distinct keys; the class
counts must agree, on drawn polytopes and on the 3D suite.
loop_reference is the row loop in scalar arithmetic: _loop, the leaf of
row_basis's recursion, must choose its pivots, leave its rows as it
does and record an H that rebuilds every row from the pivot rows as
they began.
"""

import ast
import hashlib
import random
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import projtoric.oracle
from projtoric.cli import load_document
from projtoric.code import best_bound_over_orders, dimension, find_surjective_dilate, generator_matrix
from projtoric.gf import GF
from projtoric.oracle import (
    LEAF,
    BudgetExceededError,
    _exhaustive,
    _loop,
    _systematic,
    min_distance_exhaustive,
    min_weight_random_upper,
    pick_check,
    rank_gf,
    reduction_class_count_unionfind,
    row_basis,
)
from projtoric.polytope import Polytope, PolytopeError
from projtoric.variety import HypothesisError

from reference import add, mul, sub
from test_acceptance import random_3d_corpus
from test_high_dim import high_dim_corpus
from test_code import DATA, PINNED_MATRICES


def row_basis_reference(entries, field):
    rows = [list(r) for r in entries]
    basis = []
    col = 0
    ncols = len(rows[0]) if rows else 0
    pending = rows
    while pending and col < ncols:
        piv = next((i for i, r in enumerate(pending) if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        prow = pending.pop(piv)
        inv = field.inv(prow[col])
        rest = []
        for r in pending:
            if r[col] != 0:
                c = mul(field, r[col], inv)
                r = [sub(field, x, mul(field, c, y)) for x, y in zip(r, prow)]
            rest.append(r)
        basis.append(prow)
        pending = rest
        col += 1
    return basis


def exhaustive_reference(basis, field):
    q = field.q
    n = len(basis[0])
    best = n + 1
    for coeffs in product(range(q), repeat=len(basis)):
        if not any(coeffs):
            continue
        word = [0] * n
        for c, row in zip(coeffs, basis):
            if c == 0:
                continue
            word = [add(field, w, mul(field, c, x)) for w, x in zip(word, row)]
        wt = sum(1 for w in word if w != 0)
        if wt < best:
            best = wt
    return best


def unionfind_reference(P, q):
    pts = list(P.lattice_points)
    tight = [P.tight_facets(m) for m in pts]
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if tight[i] != tight[j]:
                continue
            if all((a - b) % (q - 1) == 0 for a, b in zip(pts[i], pts[j])):
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    return sum(1 for i in range(len(pts)) if find(i) == i)


def random_entries(rng, q, rows, cols):
    # sparse rows and a repeated row make zero columns, skipped pivots
    # and dependent rows common
    density = rng.random()
    entries = [
        [rng.randrange(q) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows > 1 and rng.random() < 0.3:
        entries[-1] = list(entries[0])
    return entries


def identity_entries(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_rank_examples(toy_triangle):
    field = GF(5)
    assert rank_gf(identity_entries(4), field) == 4
    assert rank_gf([[0, 0], [0, 0]], field) == 0
    assert rank_gf([], field) == 0
    assert rank_gf([[1, 2], [2, 4]], field) == 1
    M = generator_matrix(toy_triangle, GF(4))
    assert rank_gf(M.codes, GF(4)) == 5


def test_oracles_take_the_codes_array(toy_triangle):
    field = GF(4)
    M = generator_matrix(toy_triangle, field)
    assert M.codes.dtype == np.uint16
    with pytest.raises(ValueError):
        M.codes[0, 0] = 1
    before = M.codes.copy()
    basis = row_basis(M.codes, field)
    assert basis.dtype == np.uint16
    assert basis.tolist() == row_basis_reference(M.entries, field)
    assert rank_gf(M.codes, field) == 5
    assert min_distance_exhaustive(M.codes, field) == 8
    assert min_weight_random_upper(M.codes, field) >= 8
    assert np.array_equal(M.codes, before)
    assert rank_gf(np.array([[1, 2], [2, 1]], np.uint16), GF(3)) == 1
    for empty in ([], [[]], np.zeros((0, 3), np.uint16)):
        assert rank_gf(empty, field) == 0
        for oracle in (min_distance_exhaustive, min_weight_random_upper):
            with pytest.raises(ValueError, match="zero matrix"):
                oracle(empty, field)


def test_row_basis_backends_agree(gf65536):
    rng = random.Random(11)
    for field in [GF(q) for q in (2, 3, 4, 5, 8, 9, 16, 257)] + [gf65536]:
        for _ in range(20 if field.q < 1 << 16 else 5):
            entries = random_entries(
                rng, field.q, rng.randrange(1, 7), rng.randrange(1, 9)
            )
            basis = row_basis(entries, field)
            assert basis.tolist() == row_basis_reference(entries, field)
            # an echelon basis reduces to itself, so verify can hand its
            # basis to the distance oracles
            assert np.array_equal(row_basis(basis, field), basis)


def test_row_basis_fixes_data_bases():
    for name, q, _ in PINNED_MATRICES:
        P, _ = load_document(DATA / name)
        codes = generator_matrix(P, GF(q)).codes
        rank = rank_gf(codes, q)  # before row_basis could keep the basis
        basis = row_basis(codes, q)
        assert len(basis) == rank
        assert np.array_equal(row_basis(basis, q), basis), name


def combination(field, coeffs, rows):
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [add(field, x, mul(field, c, y)) for x, y in zip(out, row)]
    return out


def recursion_cases(rng, field):
    """Matrices wider than the 16 LEAF columns that row_basis eliminates
    as one range, so that it halves their columns recursively: every
    column half and the H records of both halves meet these cases."""
    q, n = field.q, 16 * LEAF + 41

    def rnd(cols):
        return [rng.randrange(q) for _ in range(cols)]

    # one range at the widest, then recursion
    yield random_entries(rng, q, 8, 16 * LEAF)
    yield random_entries(rng, q, 8, 16 * LEAF + 1)
    yield random_entries(rng, q, 12, 300)
    # combinations of a staircase, whose rows lead every 47th column:
    # pivots fall in leaves all across the width, with rows to update
    stairs = [[0] * (47 * i) + [1 + rng.randrange(q - 1)] + rnd(599 - 47 * i) for i in range(12)]
    yield [combination(field, rnd(12), stairs) for _ in range(14)]
    # zero columns and zero rows between nonzero blocks, repeated rows
    rows = [rnd(5) + [0] * (16 * LEAF + 3) + rnd(7) + [0] * 40 + rnd(3) for _ in range(7)]
    yield [row for pair in zip(rows, [[0] * len(rows[0])] * 7, rows[::-1]) for row in pair]
    # tall and wide, rank deficient: combinations of a few rows
    base = [rnd(16 * LEAF + 3) for _ in range(3)]
    yield [combination(field, rnd(3), base) for _ in range(135)]
    base = [rnd(600) for _ in range(3)]
    yield [combination(field, rnd(3), base) for _ in range(6)]
    # rows equal to a pivot row on its first columns and zero after
    # them, which become nonzero there only through the trailing update
    top = [1 + rng.randrange(q - 1)] + rnd(n - 1)
    yield [top, top[:LEAF] + [0] * (n - LEAF), top[:3] + [0] * (n - 3), rnd(n)]
    # twelve rows of rank six on the left half: its recursion runs down
    # to LEAF columns, and the right half keeps at most six pending rows,
    # which the row loop takes at its full width
    h = n // 2
    base = [rnd(h) for _ in range(6)]
    yield [combination(field, rnd(6), base) + rnd(n - h) for _ in range(12)]
    # the largest entries everywhere: near p - 1 for the leaf's update
    yield [[q - 1 - rng.randrange(2) for _ in range(n)] for _ in range(LEAF + 6)]
    # a pivot of 1 over rows of p - 1, their last entries apart so that
    # none is dropped as a copy: the leaf's update reaches (p-1)^3 + (p-1)
    yield [[1] + [q - 1] * (n - 1)] + [[q - 1] * (n - 1) + [i % q] for i in range(LEAF + 5)]
    # copies of earlier rows between the first copies, which the oracle
    # drops before eliminating: twelve distinct rows in twenty-four
    rows = [rnd(n) for _ in range(12)]
    yield [rows[i // 2 if i % 2 == 0 else rng.randrange(i // 2 + 1)] for i in range(24)]
    # full row rank with every pivot in the left half, the cube's shape:
    # row j mixes stairs 0..j, so all rows lead at column 0, and the left
    # pivot rows take updates that rank_gf skips
    stairs = [[0] * (5 * i) + [1 + rng.randrange(q - 1)] + rnd(n - 1 - 5 * i) for i in range(12)]
    yield [combination(field, rnd(j) + [1 + rng.randrange(q - 1)] + [0] * (11 - j), stairs)
           for j in range(12)]


# 1291 is the last prime whose row-loop update runs in int32, 1297 the first past it
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 31, 256, 257, 1291, 1297, 65521, 65536])
def test_row_basis_panels_match_reference(q, gf65536):
    field = gf65536 if q == 1 << 16 else GF(q)
    rng = random.Random(q)
    for entries in recursion_cases(rng, field):
        # the rank first: these are past 16 LEAF columns, so it eliminates
        # without a basis and keeps nothing, and row_basis reduces afresh
        rank = rank_gf(entries, field)
        basis = row_basis(entries, field)
        reference = row_basis_reference(entries, field)
        assert basis.tolist() == reference
        assert rank == len(reference)
        assert np.array_equal(row_basis(basis, field), basis)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 31, 257])
def test_copies_and_zero_rows_match_reference(q):
    # zero rows and copies of earlier rows are dropped before the
    # elimination, on narrow matrices and past 16 LEAF columns alike
    field, rng = GF(q), random.Random(q)
    for cols in (1, 5, 16 * LEAF, 16 * LEAF + 1):
        rows = [[rng.randrange(q) for _ in range(cols)] for _ in range(5)]
        entries = [rows[rng.randrange(5)] if i % 4 else [0] * cols for i in range(30)]
        rank = rank_gf(entries, field)  # before row_basis could keep the basis
        basis = row_basis(entries, field)
        assert basis.tolist() == row_basis_reference(entries, field), cols
        assert rank == len(basis)


def loop_reference(rows, field):
    """The row loop in scalar arithmetic, every row kept in place: at
    each column the first pending row nonzero there becomes the pivot and
    is subtracted from the other pending rows nonzero there. Returns the
    pivots, the final rows and each pivot row as it stood when chosen."""
    rows, pivots, stood = [list(r) for r in rows], [], {}
    for col in range(len(rows[0])):
        hits = [i for i, r in enumerate(rows) if i not in stood and r[col]]
        if not hits:
            continue
        piv = hits[0]
        pivots.append(piv)
        stood[piv] = list(rows[piv])
        inv = field.inv(rows[piv][col])
        for i in hits[1:]:
            c = mul(field, rows[i][col], inv)
            rows[i] = [sub(field, x, mul(field, c, y)) for x, y in zip(rows[i], rows[piv])]
    return pivots, rows, stood


def leaf_cases(rng, field):
    q = field.q

    def rnd(rows, cols):
        return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]

    yield rnd(200, 8)  # tall: every column a pivot, most rows updated at each
    yield rnd(5, 3000)  # wide and short: five pivots, then nothing is left
    # zero columns before, between and after the pivots, and zero rows
    gaps = [[0, 0, a, 0, b, 0, 0, c, d, 0] for a, b, c, d in rnd(30, 4)]
    yield gaps[:10] + [[0] * 10] * 3 + gaps[10:]
    # rank deficient, tall and wide: combinations of three rows
    base = rnd(3, 8)
    yield [combination(field, c, base) for c in rnd(40, 3)]
    base = rnd(3, 300)
    yield [combination(field, c, base) for c in rnd(6, 3)]
    # pending rows that vanish at a column only through an update, so
    # that a later column is the first nonzero one
    top = [1 + rng.randrange(q - 1)] + rnd(1, 7)[0]
    yield [top, top[:3] + [0] * 5, rnd(1, 8)[0], top[:1] + [0] * 7]
    # the largest codes everywhere: near p - 1 for the multiply-add
    yield [[q - 1 - rng.randrange(2) for _ in range(8)] for _ in range(12)]
    # a pivot of 1 over rows of p - 1: the update multiplies p - 1 three
    # times and adds p - 1, which wraps in int32 from p = 1297 on
    yield [[1] + [q - 1] * 7] + [[q - 1] * 8 for _ in range(11)]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 31, 257, 1291, 1297, 65521])
def test_loop_keeps_the_leaf_contract(q):
    # _loop is the leaf of the recursion: its pivots, its rows and its
    # record H are checked against scalar arithmetic on blocks it meets
    field, rng = GF(q), random.Random(q)
    for entries in leaf_cases(rng, field):
        W = np.array(entries, np.uint16)
        pivots, H = _loop(W, field, record=True)
        expected, rows, stood = loop_reference(entries, field)
        # the pivots follow the first-pending-row rule, and every row ends
        # as the scalar loop leaves it
        assert pivots.tolist() == expected
        assert W.tolist() == rows
        # pivot rows end as they stood when chosen
        assert [W[i].tolist() for i in expected] == [stood[i] for i in expected]
        # every row ends as it began plus H @ (the pivot rows as they began)
        assert H.shape == (len(W), len(expected))
        began = [entries[i] for i in expected]
        for row, h, end in zip(entries, H.tolist(), W.tolist()):
            assert combination(field, [1] + h, [row] + began) == end


# sha256 over each basis's shape and little-endian uint16 bytes, frozen
# while the row loop still kept a lead vector per row
ROW_BASES_SHA256 = "bdd88fc2489a3f7ba0f6ed9e3fab40427d3c2b320624ea153fa36fc322fe1f8a"


def test_row_bases_sha256_pinned(polygon_corpus, cube, hirzebruch, toy_triangle, unit_square):
    # the 200-polygon corpus, then the scale matrices: cube x 4 over F16
    # (125 x 4913), Hirzebruch x 10 over F31 (1071 x 1024) and the toy
    # triangle and unit square over F257, 5 and 4 rows of 66307 and 66564
    h = hashlib.sha256()
    for P, q in polygon_corpus + [
        (cube.dilate(4), 16), (hirzebruch.dilate(10), 31), (toy_triangle, 257), (unit_square, 257),
    ]:
        basis = row_basis(generator_matrix(P, GF(q)).codes, q)
        h.update(repr(basis.shape).encode())
        h.update(basis.astype("<u2").tobytes())
    assert h.hexdigest() == ROW_BASES_SHA256


@pytest.fixture
def fresh_memo(monkeypatch):
    """Nothing kept: a test that counts elimination or product work
    starts here, whatever the tests before it reduced."""
    monkeypatch.setattr(projtoric.oracle, "_kept", None)


def test_rank_builds_no_basis(monkeypatch, fresh_memo, cube):
    # rank_gf skips the products that bring finished pivot rows up to
    # date: on the cube x 4 over F16 (125 x 4913, every pivot in the
    # left half) they are about 92% of row_basis's product work. Being
    # wider than 16 LEAF, it keeps nothing, so row_basis reduces afresh
    field = GF(16)
    codes = generator_matrix(cube.dilate(4), field).codes
    work, vaddmatmul = [0], GF.vaddmatmul

    def counted(self, c, a, b):
        (m, t), w = np.shape(a), np.shape(b)[1]
        work[0] += m * t * w
        return vaddmatmul(self, c, a, b)

    monkeypatch.setattr(GF, "vaddmatmul", counted)
    assert rank_gf(codes, field) == 125
    assert projtoric.oracle._kept is None
    rank_work, work[0] = work[0], 0
    assert len(row_basis(codes, field)) == 125
    assert 0 < rank_work <= work[0] / 10


def test_row_basis_is_idempotent(polygon_corpus, cube, hirzebruch, toy_triangle, unit_square):
    # an echelon basis reduces to itself, so verify may hand either the
    # matrix or its basis to the distance oracles: on the corpus, the
    # scale matrices and random ones over fields up to 257, narrower and
    # wider than 16 LEAF columns, with copies of earlier rows
    matrices = [(generator_matrix(P, GF(q)).codes, q) for P, q in polygon_corpus + [
        (cube.dilate(4), 16), (hirzebruch.dilate(10), 31), (toy_triangle, 257), (unit_square, 257),
    ]]
    rng = random.Random(29)
    for _ in range(300):
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 31, 64, 81, 125, 128, 256, 257))
        wide = 16 * LEAF
        cols = rng.choice((rng.randrange(1, wide), wide, wide + 1, rng.randrange(wide, 400)))
        entries = random_entries(rng, q, rng.randrange(1, 12), cols)
        entries.insert(rng.randrange(len(entries) + 1), entries[rng.randrange(len(entries))])
        matrices.append((entries, q))
    for entries, q in matrices:
        basis = row_basis(entries, q)
        assert np.array_equal(row_basis(basis, q), basis), q


def outcome(oracle, entries, field):
    """What oracle(entries, field) returns, a basis as lists, or the
    type of what it raises."""
    try:
        got = oracle(entries, field)
    except (BudgetExceededError, ValueError) as exc:
        return type(exc)
    return got.tolist() if isinstance(got, np.ndarray) else got


def test_kept_reduction_matches_a_fresh_one(monkeypatch, fresh_memo):
    # a seeded interleaving of oracles, matrices and fields: every result
    # equals the one reduced with nothing kept, whether the call read the
    # kept basis or not
    oracles = (
        rank_gf,
        row_basis,
        lambda entries, field: min_weight_random_upper(entries, field, 50, 3),
        lambda entries, field: min_distance_exhaustive(entries, field, 1 << 12),
    )
    fields = {q: GF(q) for q in (2, 3, 4, 5, 7, 9, 16, 257)}
    rng = random.Random(29)
    # narrow and wide matrices, one wide with more than LEAF rows, where
    # the rank builds no basis; codes below 2 are codes of every field
    shapes = ((2, 2, 3, 9), (3, 2, 5, 40), (5, 5, 4, 200), (7, 2, 2, 16 * LEAF + 1),
              (16, 16, 3, 30), (257, 257, 2, 300), (9, 9, 5, 16 * LEAF), (3, 3, 12, 16 * LEAF + 40))
    pool = [(np.array(random_entries(rng, top, rows, cols), np.uint16), q)
            for q, top, rows, cols in shapes]
    eliminations, eliminate = [0], projtoric.oracle._eliminate

    def counted(W, field, record, basis, leaf=LEAF):
        eliminations[0] += leaf > LEAF  # a whole matrix, not a recursion's half
        return eliminate(W, field, record, basis, leaf)

    monkeypatch.setattr(projtoric.oracle, "_eliminate", counted)
    read, i = {"kept": 0, "fresh": 0}, 0
    for _ in range(400):
        i = i if rng.random() < 0.6 else rng.randrange(len(pool))  # often the matrix just reduced
        A, q = pool[i]
        if not A.any():
            continue
        form = rng.randrange(5)
        if form == 3:  # the same bytes under another q
            q = rng.choice([other for other in fields if other > A.max()])
        elif form == 4:  # written in place after the calls before
            r, c = rng.randrange(A.shape[0]), rng.randrange(A.shape[1])
            A[r, c] = (int(A[r, c]) + 1 + rng.randrange(q - 1)) % q
        entries = {1: A.copy(), 2: tuple(map(tuple, A.tolist()))}.get(form, A)
        oracle, field = rng.choice(oracles), fields[q]
        before = eliminations[0]
        if oracle is row_basis:
            basis = row_basis(entries, field)
            got = basis.tolist()
            basis[...] = 1  # the caller's copy, not the kept basis
        else:
            got = outcome(oracle, entries, field)
        read["kept" if eliminations[0] == before else "fresh"] += 1
        kept, projtoric.oracle._kept = projtoric.oracle._kept, None
        assert got == outcome(oracle, entries, field), (oracle, q, form)
        projtoric.oracle._kept = kept
    assert min(read.values()) > 100, read


def test_oracles_share_one_elimination(monkeypatch, fresh_memo, polygon_corpus):
    # the sweep's calls on corpus polygon 69 over F7 (8 x 57), each given
    # the matrix as tuples: the rank keeps the basis, and the random upper
    # bound and the exhaustive distance read it
    P, q = polygon_corpus[69]
    field = GF(q)
    entries = generator_matrix(P, field).entries
    calls, eliminate = [], projtoric.oracle._eliminate
    monkeypatch.setattr(projtoric.oracle, "_eliminate", lambda *a: calls.append(1) or eliminate(*a))
    assert rank_gf(entries, field) == 8
    assert min_weight_random_upper(entries, field, 200, 0) >= 18
    assert min_distance_exhaustive(entries, field, 1 << 24) == 18
    assert len(calls) == 1


def test_row_basis_chunked_update():
    # 30000 columns are halved twelve times down to one leaf
    rng = random.Random(5)
    field = GF(257)
    entries = [[rng.randrange(257) for _ in range(30000)] for _ in range(5)]
    entries.insert(2, [0] * 30000)
    entries.append(entries[1])
    assert row_basis(entries, field).tolist() == row_basis_reference(entries, field)


def test_exhaustive_examples(segment01, toy_triangle):
    seg = generator_matrix(segment01, GF(3))
    assert min_distance_exhaustive(seg.codes, GF(3)) == 3
    toy = generator_matrix(toy_triangle, GF(4))
    assert min_distance_exhaustive(toy.codes, GF(4)) == 8
    # repetition code: one row of n ones
    for q in (2, 3, 4):
        assert min_distance_exhaustive([[1] * 6], GF(q)) == 6


def test_exhaustive_budget():
    field = GF(4)
    entries = identity_entries(10)
    with pytest.raises(BudgetExceededError, match="exceeds the budget"):
        min_distance_exhaustive(entries, field, budget=1 << 19)
    assert min_distance_exhaustive(entries, field, budget=1 << 20) == 1


def test_oracles_refuse_a_negative_budget_or_seed(toy_triangle):
    # random.Random(-1) draws what Random(1) draws, so a negative seed
    # would silently repeat another seed's bound
    field = GF(4)
    codes = generator_matrix(toy_triangle, field).codes
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        min_distance_exhaustive(codes, field, budget=-5)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        min_weight_random_upper(codes, field, seed=-1)
    assert min_distance_exhaustive(codes, field, budget=4 ** 5) == 8
    assert min_weight_random_upper(codes, field, seed=0) >= 8


def test_random_upper_refuses_negative_iterations(toy_triangle):
    # a negative count drew nothing and returned the trivial bound n,
    # as iterations=0 does, instead of saying the request was malformed
    field = GF(4)
    codes = generator_matrix(toy_triangle, field).codes
    with pytest.raises(ValueError, match="iterations must be nonnegative"):
        min_weight_random_upper(codes, field, iterations=-5)
    assert min_weight_random_upper(codes, field, iterations=0) == len(codes[0])


@pytest.mark.parametrize("budget", [True, 2.5, "64"])
def test_exhaustive_refuses_a_budget_that_is_no_int(toy_triangle, budget):
    field = GF(4)
    codes = generator_matrix(toy_triangle, field).codes
    with pytest.raises(ValueError, match="budget must be nonnegative and an int"):
        min_distance_exhaustive(codes, field, budget=budget)


@pytest.mark.parametrize("limit", [{"iterations": True}, {"iterations": 2.5},
                                   {"seed": True}, {"seed": 1.5}, {"seed": "0"}])
def test_random_upper_refuses_a_count_or_seed_that_is_no_int(toy_triangle, limit):
    # seed=True drew what seed=1 draws
    field = GF(4)
    codes = generator_matrix(toy_triangle, field).codes
    (what, _), = limit.items()
    with pytest.raises(ValueError, match=f"{what} must be nonnegative and an int"):
        min_weight_random_upper(codes, field, **limit)


def test_exhaustive_rejects_zero_matrix():
    with pytest.raises(ValueError):
        min_distance_exhaustive([[0, 0, 0]], GF(3))


def test_exhaustive_backends_agree(gf65536):
    rng = random.Random(7)
    for q in (2, 3, 4, 5, 8, 9, 16):
        field = GF(q)
        done = 0
        while done < 8:
            entries = random_entries(rng, q, rng.randrange(1, 4), rng.randrange(2, 7))
            basis = row_basis(entries, field)
            if not len(basis):
                continue
            done += 1
            assert _exhaustive(basis, field) == exhaustive_reference(basis.tolist(), field)
    # bases one row longer than the head block (q^s <= 4096 words) also
    # run the tail of normalised messages; every rotation of the rows puts
    # another row there, so a word the tail misses shows in one of them
    for q, rows in ((3, 8), (4, 7), (16, 4)):
        field = GF(q)
        while len(basis := row_basis(random_entries(rng, q, rows, rows + 1), field)) < rows:
            pass
        d = exhaustive_reference(basis.tolist(), field)
        for j in range(rows):
            assert _exhaustive(np.roll(basis, -j, axis=0), field) == d, (q, j)
    # q = 257 takes one head row and one tail row
    basis = [[1, 0, 5, 7, 0, 3], [0, 1, 9, 0, 200, 4]]
    assert _exhaustive(basis, GF(257)) == exhaustive_reference(basis, GF(257)) == 4
    # q = 65536 has no head block; a single row's words all have its weight
    assert min_distance_exhaustive([[0, 1, 65535, 0]], gf65536) == 2
    # nor has a 2 x 5 Reed-Solomon code over it, whose distance is n - k + 1
    rs = [[1] * 5, [1, 2, 3, 4, 5]]
    assert _exhaustive(rs, gf65536) == 4


def test_exhaustive_weights_do_not_wrap(gf65536):
    # full-weight words: the Reed-Solomon [256, 2] code over F257 has d =
    # n - k + 1 = 255 and words of weight 256, which a uint8 count reads
    # as 0; a repetition code of length 70000 is read by a uint16 count
    # as 4464
    rs = [[1] * 256, list(range(1, 257))]
    assert _exhaustive(rs, GF(257)) == 255
    assert _exhaustive([[1] * 70000], gf65536) == 70000


def tail_products(monkeypatch):
    """The row count of every product that forms tail words (the head
    block's products add to 0, the tails' to a basis row)."""
    rows, vaddmatmul = [], GF.vaddmatmul

    def counted(self, c, a, b):
        if np.ndim(c):
            rows.append(len(a))
        return vaddmatmul(self, c, a, b)

    monkeypatch.setattr(GF, "vaddmatmul", counted)
    return rows


def test_exhaustive_stops_at_weight_one(monkeypatch):
    rows = tail_products(monkeypatch)
    # the identity over F4 puts unit vectors in its head block (the last
    # six rows), so no tail word is formed
    assert _exhaustive(np.array(identity_entries(10), np.uint16), GF(4)) == 1
    assert rows == []
    # over F2 the twelve head rows have disjoint supports of weight 2,
    # and the first of the two tail rows has weight 1: the tails that
    # lead with it find weight 1, and those that lead with row 1 are
    # skipped
    basis = np.zeros((14, 28), np.uint16)
    basis[0, 0] = 1
    basis[1, 1:4] = 1
    for j in range(12):
        basis[2 + j, 4 + 2 * j:6 + 2 * j] = 1
    assert _exhaustive(basis, GF(2)) == 1
    assert rows == [2]
    rows.clear()
    basis[0, 1] = 1  # now weight 2 everywhere, and both tails run
    assert _exhaustive(basis, GF(2)) == 2
    assert rows == [2, 1]


def brouwer_zimmermann(basis, field):
    """The number of information sets and the distance that the
    Brouwer-Zimmermann search alone returns on an echelon basis, whatever
    the selection in min_distance_exhaustive would run."""
    forms = list(projtoric.oracle._forms(np.asarray(basis, np.uint16), field))
    best = min(1 + int(np.count_nonzero(H, axis=0).min()) for H in forms)
    return len(forms), projtoric.oracle._brouwer_zimmermann(forms, best, field)


def columned_entries(rng, field, k, n):
    """k x n entries whose columns are random, zero, copies of earlier
    ones or multiples of them, in a shuffled order."""
    q, cols = field.q, []
    for _ in range(n):
        kind = rng.random()
        if cols and kind < 0.2:
            cols.append(list(rng.choice(cols)))
        elif cols and kind < 0.35:
            c = 1 + rng.randrange(q - 1)  # a multiple, scalar arithmetic
            cols.append([mul(field, c, x) for x in rng.choice(cols)])
        elif kind < 0.45:
            cols.append([0] * k)
        else:
            cols.append([rng.randrange(q) for _ in range(k)])
    rng.shuffle(cols)
    return [list(row) for row in zip(*cols)]


def systematic_by_tables(G, cols, field):
    """_systematic with every row update by the log tables, vmul and vadd,
    whatever q is: the routine before prime fields had their own update."""
    free, pivots, p = list(range(len(G))), [], field.p
    for c in cols:
        col = G[:, c].tolist()
        if (r := next((i for i in free if col[i]), None)) is None:
            continue
        inv, col[r] = field.inv(col[r]), 0
        if rows := [i for i in range(len(col)) if col[i]]:
            scale = field.vmul(np.array(col)[rows], field.vmul(inv, p - 1))
            G[rows] = field.vadd(G[rows], field.vmul(scale[:, None], G[r]))
        G[r] = field.vmul(G[r], inv)
        free.remove(r)
        pivots.append(c)
        if not free:
            return pivots
    return None


@pytest.mark.parametrize("q", [2, 3, 5, 7, 31, 257, 65521, 4, 8, 9, 16, 27, 256])
def test_systematic_forms_match_the_table_routine(q):
    # prime q updates rows by an int64 multiply-add, the rest by tables;
    # the forms and pivots must be the same bit for bit
    field, rng = GF(q), random.Random(q)
    for k, n in ((1, 5), (3, 12), (6, 40), (10, 64), (12, 9)):
        G = np.array(columned_entries(rng, field, k, n), np.uint16)
        G[rng.randrange(k), :] = q - 1  # the largest codes, products past int32 at q = 65521
        cols = rng.sample(range(n), n)
        got, want = G.copy(), G.copy()
        assert _systematic(got, cols, field) == systematic_by_tables(want, cols, field), (k, n)
        assert got.dtype == np.uint16 and np.array_equal(got, want), (k, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_brouwer_zimmermann_matches_reference(q):
    # small codes with zero, repeated and proportional columns, over one
    # information set and over several: the search alone, forced on them,
    # returns the distance of every word weighed by scalar arithmetic
    field, rng, sets = GF(q), random.Random(100 + q), set()
    kmax = max(k for k in range(1, 10) if q ** k <= 600)
    done = 0
    while done < 14:
        k = rng.randrange(2, kmax + 1)
        basis = row_basis(columned_entries(rng, field, k, rng.randrange(k + 1, 4 * k + 4)), field)
        if len(basis) < 2 or len(basis) == basis.shape[1]:
            continue
        done += 1
        m, d = brouwer_zimmermann(basis, field)
        sets.add(min(m, 2))
        assert d == exhaustive_reference(basis.tolist(), field), (q, basis.tolist())
    assert sets == {1, 2}  # m = 1 and m >= 2 both met


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_distance_takes_either_search_on_random_codes(monkeypatch, q):
    # codes past one head block, every one of them put through the
    # Brouwer-Zimmermann path (a zero word cost), against the
    # meet-in-the-middle search on the same basis
    monkeypatch.setattr(projtoric.oracle, "BZ_WORD_COST", 0)
    ran, bz = [], projtoric.oracle._brouwer_zimmermann
    monkeypatch.setattr(projtoric.oracle, "_brouwer_zimmermann",
                        lambda *a: ran.append(1) or bz(*a))
    field, rng = GF(q), random.Random(200 + q)
    k0 = next(k for k in range(1, 20) if (q ** k - 1) // (q - 1) > 4096)
    for _ in range(6):
        k = rng.randrange(k0, k0 + 2)
        basis = row_basis(columned_entries(rng, field, k, rng.randrange(2 * k, 4 * k)), field)
        if (q ** len(basis) - 1) // (q - 1) > 4096:
            assert min_distance_exhaustive(basis, field) == _exhaustive(basis, field), q
    assert ran


def test_distance_agrees_with_meet_in_the_middle_on_every_suite(monkeypatch, polygon_corpus):
    # the 200-polygon corpus, the 3D suite, the 4D/5D suite and the data
    # documents: wherever q^k <= 2^24, whichever search runs, the distance
    # is the meet-in-the-middle's
    runs, bz = [], projtoric.oracle._brouwer_zimmermann
    monkeypatch.setattr(projtoric.oracle, "_brouwer_zimmermann", lambda *a: runs.append(1) or bz(*a))
    suites = {
        "corpus": polygon_corpus,
        "3D": random_3d_corpus(24, seed=3),
        "4D/5D": [(P, q) for _, P, q, _ in high_dim_corpus()],
        "data": [(P, doc["q"]) for P, doc in map(load_document, sorted(DATA.glob("*.json")))],
    }
    checked = dict.fromkeys(suites, 0)
    for name, cases in suites.items():
        for P, q in cases:
            field = GF(q)
            try:
                codes = generator_matrix(P, field).codes
            except HypothesisError:  # the quadrilateral over its own F7
                continue
            basis = row_basis(codes, field)
            if q ** len(basis) <= 1 << 24:
                checked[name] += 1
                assert min_distance_exhaustive(basis, field) == _exhaustive(basis, field), (name, P, q)
    assert checked == {"corpus": 51, "3D": 21, "4D/5D": 12, "data": 4}
    assert len(runs) == 18  # the Brouwer-Zimmermann search ran on these


def corpus_case(polygon_corpus, i):
    P, q = polygon_corpus[i]
    field = GF(q)
    return row_basis(generator_matrix(P, field).codes, field), field


def test_stop_rule_cuts_the_work_on_p069(monkeypatch, fresh_memo, polygon_corpus):
    # corpus polygon 69 over F7: k = 8, n = 57, d = 18 over five disjoint
    # information sets. The meet-in-the-middle search weighs all 960,800
    # normalised messages; the bound 5 (w + 1) + j proves d after round 3
    # of three sets, fewer than 7,000 words
    basis, field = corpus_case(polygon_corpus, 69)
    assert basis.shape == (8, 57) and field.q == 7
    formed, vaddmatmul = [0], GF.vaddmatmul

    def counted(self, c, a, b):
        formed[0] += np.shape(b)[1] if np.ndim(c) == 0 else 0  # the words are b's columns
        return vaddmatmul(self, c, a, b)

    monkeypatch.setattr(GF, "vaddmatmul", counted)
    monkeypatch.setattr(projtoric.oracle, "_exhaustive", lambda *a: pytest.fail("meet in the middle"))
    assert min_distance_exhaustive(basis, field) == 18
    assert 0 < formed[0] + 5 * 8 < (7 ** 8 - 1) // 6 // 20


def test_distance_chooses_its_search(monkeypatch, polygon_corpus, cube):
    # which search runs is read off the code: all messages in one head
    # block, or a projection that reaches 1/BZ_WORD_COST of them, first
    # with n // k sets and then with the real ones, runs the meet in the
    # middle; a basis row of weight 1, or a lightest row within the
    # bound, ends the search before either
    calls = []
    for name in ("_systematic", "_exhaustive", "_brouwer_zimmermann"):
        real = getattr(projtoric.oracle, name)
        monkeypatch.setattr(projtoric.oracle, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))

    def path(basis, field):
        calls.clear()
        d = min_distance_exhaustive(basis, field)
        return d, calls.count("_systematic"), [c for c in calls if c != "_systematic"]

    # p069: 8 x 57 over F7, five sets and a sixth tried
    assert path(*corpus_case(polygon_corpus, 69)) == (18, 6, ["_brouwer_zimmermann"])
    # p007: five sets make 449,440 words out of 960,800 messages
    assert path(*corpus_case(polygon_corpus, 7)) == (28, 6, ["_exhaustive"])
    # the cube over F3: 3,280 messages fit one head block
    field = GF(3)
    assert path(row_basis(generator_matrix(cube, field).codes, field), field) == (27, 0, ["_exhaustive"])
    # p088: a basis row of weight 1
    assert path(*corpus_case(polygon_corpus, 88)) == (1, 0, [])
    # 3D suite case 3: 8 x 186 over F5, 23 sets would still form more
    # than 1/BZ_WORD_COST of the messages
    P, q = random_3d_corpus(24, seed=3)[3]
    basis = row_basis(generator_matrix(P, GF(q)).codes, GF(q))
    assert path(basis, GF(q)) == (100, 1, ["_exhaustive"])


# [0, a_1] x ... x [0, a_N] over F_q, a_i <= q: the code is a product of
# extended Reed-Solomon codes, k = prod(a_i + 1) and d = prod(q + 1 - a_i)
BOXES = [(q, (a, b)) for q in (2, 3, 4, 5, 7) for a in range(1, q + 1) for b in range(1, q + 1)]
BOXES += [(q, sides) for q in (3, 4) for sides in product(range(1, q + 1), repeat=3)]


def test_box_distances_match_their_closed_form():
    exact = 0
    for q, sides in BOXES:
        P = Polytope.from_vertices(list(product(*[(0, a) for a in sides])))
        field = GF(q)
        k = reduce(lambda x, a: x * (a + 1), sides, 1)
        d = reduce(lambda x, a: x * (q + 1 - a), sides, 1)
        codes = generator_matrix(P, field).codes
        assert dimension(P, field) == rank_gf(codes, field) == k, (q, sides)
        lam = find_surjective_dilate(P, field, 4 * q)
        assert best_bound_over_orders(P, P.dilate(lam), field)[0] <= d, (q, sides)
        if q ** k <= 1 << 22:
            exact += 1
            assert min_distance_exhaustive(codes, field) == d, (q, sides)
    assert len(BOXES) == 194 and exact == 34  # 29 boxes in 2D, 5 in 3D


def test_random_rows_are_nonzero_codes_repeated_by_seed(monkeypatch, gf65536):
    # the coefficient rows as the product receives them: over F2 with k = 1
    # half of the uniform codes are 0, and the unit put at a random place
    # makes every row nonzero; on the identity basis each word is its row
    drawn, vaddmatmul = [], GF.vaddmatmul
    monkeypatch.setattr(GF, "vaddmatmul", lambda F, c, a, b: drawn.append(a) or vaddmatmul(F, c, a, b))
    for field, k in ((GF(2), 1), (gf65536, 1), (gf65536, 3)):
        rows = {}
        for seed in (0, 1, 2, 1 << 32, 1 << 64):
            upper = min_weight_random_upper(identity_entries(k), field, 200, seed)
            C = drawn[-1]
            assert C.dtype == np.uint16 and C.shape == (200, k), (field.q, seed)
            assert C.any(axis=1).all() and upper == np.count_nonzero(C, axis=1).min(), (field.q, seed)
            assert min_weight_random_upper(identity_entries(k), field, 200, seed) == upper
            assert np.array_equal(drawn[-1], C), (field.q, seed)
            rows[seed] = C.tobytes()
        # each seed draws its own rows, but over F2 with k = 1 every row is 1
        assert len(set(rows.values())) == (1 if field.q == 2 else len(rows)), field.q
        assert min_weight_random_upper(identity_entries(k), field, 0, 7) == k


def test_random_upper_bounds_exhaustive(toy_triangle):
    field = GF(4)
    M = generator_matrix(toy_triangle, field)
    upper = min_weight_random_upper(M.codes, field, iterations=300, seed=5)
    assert upper >= min_distance_exhaustive(M.codes, field)
    again = min_weight_random_upper(M.codes, field, iterations=300, seed=5)
    assert upper == again
    # no random word leaves the trivial bound n
    assert min_weight_random_upper(M.codes, field, iterations=0) == M.codes.shape[1]
    with pytest.raises(ValueError):
        min_weight_random_upper([[0, 0]], field)


def test_random_upper_pinned_values(toy_triangle, hirzebruch, cube, gf65536):
    # values weighed by reference.py's scalar mul and add over the row
    # basis, the rows drawn one 32-bit word at a time from random.Random
    square = Polytope.from_vertices([(0, 0), (2, 0), (0, 2), (2, 2)])
    segment = Polytope.from_vertices([(0,), (5,)])
    for P, q, seeds, expected in [
        (toy_triangle, 4, (0, 1, 2), [8, 8, 8]),
        (hirzebruch, 5, (0, 1, 2), [23, 22, 22]),
        (cube, 3, (0, 1, 2), [27, 27, 27]),
        (square, 9, (0, 1, 2), [73, 80, 80]),
        (segment, 257, (0, 1), [253, 255]),
    ]:
        M = generator_matrix(P, GF(q))
        got = [min_weight_random_upper(M.codes, GF(q), 200, s) for s in seeds]
        assert got == expected, (P, q)
    sparse_257 = [
        [51, 108, 2, 0, 0, 0, 0, 244, 0, 0, 92, 82, 232, 0],
        [197, 195, 0, 0, 0, 0, 69, 0, 0, 0, 0, 197, 0, 92],
        [21, 149, 0, 0, 115, 206, 0, 129, 253, 0, 0, 67, 0, 114],
    ]
    sparse_65536 = [
        [0, 0, 0, 0, 0, 0, 0, 0, 13437, 0, 61191, 0, 0, 0],
        [0, 38240, 39534, 16427, 0, 0, 0, 0, 0, 54493, 29414, 0, 0, 2830],
        [0, 45665, 0, 0, 62431, 0, 0, 0, 0, 0, 0, 26317, 19048, 0],
    ]
    for entries, field, expected in [
        (sparse_257, GF(257), [9, 9, 9]),
        (sparse_65536, gf65536, [10, 10, 10]),
    ]:
        got = [min_weight_random_upper(entries, field, 200, s) for s in (0, 1, 2)]
        assert got == expected, field


def test_oracle_does_not_import_code():
    # covers "from .code import x", "from . import code" and
    # "import projtoric.code"
    modules = []
    for node in ast.walk(ast.parse(Path(projtoric.oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            if not node.module:
                modules += [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
    assert "gf" in modules
    assert not any(m.split(".")[-1] == "code" for m in modules)


@st.composite
def polytopes(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    coords = st.integers(-3, 3) if dim < 3 else st.integers(-2, 2)
    points = draw(st.lists(st.tuples(*[coords] * dim), min_size=dim + 1, max_size=dim + 4))
    try:
        return Polytope.from_vertices(points)
    except PolytopeError:
        assume(False)


def examples(cases):
    """One hypothesis explicit example per (P, q) case, run every time."""
    return lambda test: reduce(lambda t, case: example(*case)(t), cases, test)


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(polytopes(), st.sampled_from((2, 3, 4, 5, 7, 16, 31)))
@examples(random_3d_corpus(24, seed=3))  # the 3D suite
def test_unionfind_matches_pairwise_reference(P, q):
    assert reduction_class_count_unionfind(P, q) == unionfind_reference(P, q)


def test_unionfind_class_counts(toy_triangle, unit_square, segment01):
    assert reduction_class_count_unionfind(toy_triangle, GF(4)) == 5
    assert reduction_class_count_unionfind(unit_square.dilate(2), GF(2)) == 9
    assert reduction_class_count_unionfind(segment01, GF(2)) == 2
    assert reduction_class_count_unionfind(unit_square, GF(3)) == 4


def test_pick_check(toy_triangle, unit_square, quadrilateral):
    assert pick_check(toy_triangle)
    assert pick_check(unit_square)
    assert pick_check(quadrilateral)
    assert pick_check(toy_triangle.dilate(3))


def test_pick_check_requires_dimension_two(segment01, cube):
    with pytest.raises(ValueError):
        pick_check(segment01)
    with pytest.raises(ValueError):
        pick_check(cube)


def test_pick_check_on_random_hulls():
    rng = random.Random(2)
    from projtoric.polytope import PolytopeError

    built = 0
    while built < 30:
        pts = [
            (rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(rng.randint(3, 7))
        ]
        try:
            P = Polytope.from_vertices(pts)
        except PolytopeError:
            continue
        built += 1
        assert pick_check(P)
