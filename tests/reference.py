"""Scalar references, one element code or one lattice point at a time.

The array kernels of projtoric.gf (vadd, vmul, vaddmatmul) and the
pure-Python oracles of the tests are checked against the field
arithmetic here. add and neg work digitwise in base p (GF has no
negation of its own); mul and power run off the field's exp/log
tables. Each refuses a code outside range(q) with FieldError, as
GF.inv does.

The lattice references are the scan and grouping the package used
before they moved onto arrays: a product over the bounding box filtered
by ref_contains on P's facets, tight_facets for every point, dict
grouping of congruence classes and min(key=...) for representatives,
with the sort keys spelled out per order kind. ref_contains is the
one-line facet test; it needs nothing from the package. scalar_rows is
the evaluation the matrix builders used before they were vectorised:
one mul/power chain per entry.

ref_face_incidence is face inclusion as build_flags tested it before
the incidence table: one face lies in another when its vertex index
set is a subset of the other's.

ref_faces is the face lattice as Polytope.faces found it before it read
the levels off the incidence: the intersection closure of the facets'
vertex sets, with one Fraction rank per face for its dimension.

ref_hull is the convex hull by subsets, as Polytope.from_vertices built
it before its double description: one Python-int kernel_vector and rank
per n-subset of the points, and one rank per point for the vertex test.
It reads nothing of projtoric.intlat, so it checks the hull against
another algorithm and other arithmetic than the package's: kernel_vector's
minors are Leibniz sums (_leibniz) and ref_rank is Gaussian elimination
over Fraction.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import numpy as np

from projtoric.gf import FieldError, _digits, _undigits
from projtoric.polytope import PolytopeError


def add(F, a, b):
    F._check(a)
    F._check(b)
    p, k = F.p, F.k
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)


def neg(F, a):
    F._check(a)
    return _undigits([-x % F.p for x in _digits(a, F.p, F.k)], F.p)


def sub(F, a, b):
    return add(F, a, neg(F, b))


def mul(F, a, b):
    F._check(a)
    F._check(b)
    if a == 0 or b == 0:
        return 0
    return int(F.exp_table[(int(F.log_table[a]) + int(F.log_table[b])) % (F.q - 1)])


def power(F, a, e):
    """a**e for any integer e; negative e uses the inverse."""
    F._check(a)
    if a == 0:
        if e < 0:
            raise FieldError("0 cannot be raised to a negative power")
        return 1 if e == 0 else 0
    return int(F.exp_table[int(F.log_table[a]) * e % (F.q - 1)])


def scalar_rows(exponents, field, on=None):
    """Row i holds prod_j x_j^e_j for e exponent row i and every x in
    units^k in product order, the units listed as g^0, ..., g^(q-2) and
    k the row length, one mul and power per factor. Row i is zero where
    on[i] is false."""
    exponents = np.asarray(exponents).tolist()
    cols = list(product(field.exp_table[:field.q - 1].tolist(), repeat=len(exponents[0])))
    rows = []
    for i, e in enumerate(exponents):
        if on is not None and not on[i]:
            rows.append((0,) * len(cols))
            continue
        row = []
        for x in cols:
            val = 1
            for base, exp in zip(x, e):
                val = mul(field, val, power(field, base, exp))
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


def ref_key(order, point):
    if order.kind == "lex":
        return tuple(point)
    if order.kind == "grlex":
        return (sum(point), tuple(point))
    if order.kind == "permlex":
        return tuple(point[i] for i in order.perm)
    return (sum(w * x for w, x in zip(order.weights, point)), tuple(point))


def ref_contains(normals, offsets, point):
    """Whether <point, u_i> >= -a_i for every normal u_i and offset a_i."""
    return all(sum(x * c for x, c in zip(point, u)) >= -a for u, a in zip(normals, offsets))


def ref_lattice_points(P):
    lo = [min(v[i] for v in P.vertices) for i in range(P.dim)]
    hi = [max(v[i] for v in P.vertices) for i in range(P.dim)]
    return tuple(p for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))) if ref_contains(P.normals, P.offsets, p))


def ref_buckets(P):
    """The lattice points of each face's relative interior, in face order."""
    index = {f.facet_indices: i for i, f in enumerate(P.faces)}
    buckets = [[] for _ in P.faces]
    for m in ref_lattice_points(P):
        buckets[index[P.tight_facets(m)]].append(m)
    return buckets


def ref_row_points(P):
    """The lattice points in the row order of the generator matrix."""
    return [m for bucket in ref_buckets(P) for m in bucket]


def ref_classes(points, q):
    per = defaultdict(list)
    for m in points:
        per[tuple(x % (q - 1) for x in m)].append(m)
    return list(per.values())


def ref_projective_reduction(P, q, order):
    """The order-minimal point of each class, listed by face, then in the
    order, as a list of lists."""
    key = lambda m: ref_key(order, m)  # noqa: E731
    return [
        list(rep)
        for bucket in ref_buckets(P)
        for rep in sorted((min(g, key=key) for g in ref_classes(bucket, q)), key=key)
    ]


def ref_toric_reduction(points, q, order):
    key = lambda m: ref_key(order, m)  # noqa: E731
    return tuple(sorted((min(g, key=key) for g in ref_classes(points, q)), key=key))


def ref_face_incidence(faces):
    """table[a][b]: the vertices of faces[a] are vertices of faces[b]."""
    return [[set(a.vertex_indices) <= set(b.vertex_indices) for b in faces] for a in faces]


def ref_faces(P):
    """P.faces as the package found them before the face lattice was read
    level by level: the intersection closure of the facets' vertex sets,
    each face's dimension the rank of its vertex differences, sorted by
    decreasing dimension, then by vertex index tuple, as
    (vertex_indices, facet_indices, dim)."""
    tight = [
        frozenset(i for i, v in enumerate(P.vertices) if sum(x * y for x, y in zip(v, u)) == -a)
        for u, a in zip(P.normals, P.offsets)
    ]
    found, frontier = set(), [frozenset(range(len(P.vertices)))]
    while frontier:
        s = frontier.pop()
        if s not in found:
            found.add(s)
            frontier.extend(s & t for t in tight if s & t)
    faces = []
    for s in found:
        idx = tuple(sorted(s))
        base = P.vertices[idx[0]]
        dim = ref_rank([[x - b for x, b in zip(P.vertices[i], base)] for i in idx[1:]])
        faces.append((idx, tuple(f for f, t in enumerate(tight) if s <= t), dim))
    return sorted(faces, key=lambda f: (-f[2], f[0]))


def _leibniz(S):
    """Determinant as the signed sum over permutations, sign by inversions."""
    n = len(S)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= S[i][j]
        total += term
    return total


def ref_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    M = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for row in M[r + 1:]:
            f = row[c] / M[r][c]
            row[c:] = [x - f * y for x, y in zip(row[c:], M[r][c:])]
        r += 1
    return r


def kernel_vector(rows, n):
    """Primitive integer kernel generator for n-1 independent rows in Z^n.

    Component j is the signed maximal minor omitting column j, reduced to
    primitive form. Raises ValueError when the rows have rank < n-1.
    """
    if len(rows) != n - 1:
        raise ValueError("exactly n-1 rows required")
    d = []
    for j in range(n):
        minor = [[row[t] for t in range(n) if t != j] for row in rows]
        d.append((-1) ** j * _leibniz(minor))
    g = gcd(*d)
    if g == 0:
        raise ValueError("rows do not have rank n-1")
    return [x // g for x in d]


def ref_hull(points):
    """(vertices, normals, offsets) of the convex hull of lattice points,
    sorted as Polytope keeps them: a point is a vertex when its tight
    facet normals have rank n, in any dimension n. Raises PolytopeError
    when the hull is not full-dimensional."""
    pts = sorted(set(map(tuple, points)))
    n = len(pts[0])
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))  # noqa: E731
    if ref_rank([[x - b for x, b in zip(p, pts[0])] for p in pts[1:]]) != n:
        raise PolytopeError("hull is not full-dimensional")
    facets = {}
    for combo in combinations(pts, n):
        diffs = [[x - b for x, b in zip(p, combo[0])] for p in combo[1:]]
        if ref_rank(diffs) != n - 1:
            continue
        u = kernel_vector(diffs, n)
        vals = [dot(p, u) for p in pts]
        c = dot(combo[0], u)
        if c == min(vals):
            facets[tuple(u)] = -c
        if c == max(vals):
            facets[tuple(-x for x in u)] = c
    normals = sorted(facets)
    offsets = [facets[u] for u in normals]
    verts = [p for p in pts if ref_rank([u for u, a in zip(normals, offsets) if dot(p, u) == -a]) == n]
    return tuple(verts), tuple(normals), tuple(offsets)
