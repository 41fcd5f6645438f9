"""Evaluation codes of lattice polytopes over finite fields.

The generator matrix has one row per lattice point of P (a monomial)
and one column per rational point of the variety, columns grouped into
blocks, one block per face. Straightening coordinates turn each
diagonal block into a Vandermonde-type matrix, and the whole matrix is
block lower triangular: an entry is nonzero exactly when the row's
point lies on the column's face. Dimension comes from counting
congruence classes mod q-1 face by face, and the distance bound from
counting reduced points of a surjective enlargement inside a
translated offset-difference region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gf import CAP, GF, as_field, field_size
from .oracle import min_distance_exhaustive, min_weight_random_upper, pick_check
from .oracle import _int_at_least, reduction_class_count_unionfind, row_basis
from .polytope import PolytopeError, face_incidence, offset_difference, same_normal_fan
from .variety import build_flags, flag_assignment, require_hypotheses, count_rational_points


class SurjectivityError(ValueError):
    """Raised when a distance bound is asked from a non-surjective pair."""


@dataclass(frozen=True)
class OrderSpec:
    """An addition-compatible total order on Z^N, compared by its columns.

    kinds: lex, grlex (total degree then lex), permlex (lex after a
    coordinate permutation), wlex (weight vector then lex). Entries are
    ints, not bools.
    """

    kind: str
    perm: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if self.kind not in ("lex", "grlex", "permlex", "wlex"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (*self.perm, *self.weights)):
            raise ValueError(f"order entries must be integers, got {(*self.perm, *self.weights)!r}")
        if self.kind == "permlex" and sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm!r} is not a permutation")
        if self.kind == "wlex" and not self.weights:
            raise ValueError("wlex requires a weight vector")

    @classmethod
    def lex(cls):
        return cls("lex")

    @classmethod
    def grlex(cls):
        return cls("grlex")

    @classmethod
    def permlex(cls, perm):
        return cls("permlex", perm=tuple(perm))

    @classmethod
    def wlex(cls, weights):
        return cls("wlex", weights=tuple(weights))

    @property
    def name(self):
        if self.kind == "permlex":
            return "permlex:" + ",".join(map(str, self.perm))
        if self.kind == "wlex":
            return "wlex:" + ",".join(map(str, self.weights))
        return self.kind

    def require_fit(self, top):
        """Raise ValueError unless the order fits int64 points x with |x_i| <=
        top[i]: len(top) coordinates and, for wlex, sum |w_i| max(top[i], 1)
        below 2^63, in Python ints, so that int64 holds each w_i and w.x."""
        n = len(top)
        if {"permlex": len(self.perm), "wlex": len(self.weights)}.get(self.kind, n) != n:
            raise ValueError(f"order {self.name} does not fit dimension {n}")
        if sum(abs(w) * max(t, 1) for w, t in zip(self.weights, top)) >> 63:
            raise ValueError(f"order {self.name} overflows int64 on points up to {list(top)}")

    def columns(self, points):
        """The order as int64 columns, compared lexicographically: lex is
        x, grlex (sum x, x), permlex x[perm] and wlex (w.x, x). Raises
        ValueError where require_fit does."""
        x = np.asarray(points, dtype=np.int64)
        top = np.abs(x).max(axis=0, initial=0).tolist() if self.weights else [0] * x.shape[1]
        self.require_fit(top)  # only w.x can leave int64
        if self.kind == "lex":
            return x
        if self.kind == "grlex":
            return np.column_stack((x.sum(axis=1), x))
        if self.kind == "permlex":
            return x[:, list(self.perm)]
        return np.column_stack((x @ np.array(self.weights, dtype=np.int64), x))


def stock_orders(dim):
    """Default order set: lex, grlex, and reversed-coordinate lex."""
    orders = [OrderSpec.lex(), OrderSpec.grlex()]
    if dim >= 2:
        orders.append(OrderSpec.permlex(reversed(range(dim))))
    return orders


def _rows(P):
    """Row points as an int64 array, with the face index of each row:
    grouped by face in face order, lexicographic within a face."""
    face = P.lattice_point_faces
    by_face = np.argsort(face, kind="stable")
    return P.lattice_scan[0][by_face], face[by_face]


def _evaluate(exponents, field):
    """Entry (i, c) is the monomial E[i], of any sign, at the unit tuple g^J[:, c]
    for J's column c the c-th tuple of range(q-1)^k in product order, a uint16 code.
    Steps E[:, j] * range(q-1) % (q-1) are added a coordinate at a time, earlier ones
    outer, sums of two or more cut below q-1: the last, below 2(q-1), indexes exp_table."""
    q1, (rows, k) = field.q - 1, exponents.shape
    powers, *steps = exponents.T[:, :, None] * np.arange(q1) % q1 if k else [np.zeros((rows, 1), np.intp)]
    for step in steps:
        if powers.shape[1] > q1:  # a first step is below q-1: skipping it pays on small blocks
            np.subtract(powers, q1, out=powers, where=powers >= q1)
        powers = (powers[:, :, None] + step[:, None, :]).reshape(rows, -1)
    return field.exp_table[powers]


@dataclass(frozen=True, eq=False)
class EvaluationMatrix:
    """Generator matrix of the code of P with its index bookkeeping.

    codes is the matrix: a read-only uint16 array of element codes of
    GF(q), which every consumer takes as it is; entries is its export
    form, a tuple of tuples of ints. Row i evaluates the monomial of
    row_points[i], in the interior of faces[row_face_index[i]], both
    read-only int64 arrays. The columns are the orbit blocks of the
    faces in face order, of widths block_widths, so a face's block is a
    column slice of codes; the first is the torus of P itself.
    """

    field: GF
    codes: np.ndarray
    row_points: np.ndarray
    row_face_index: np.ndarray
    faces: tuple
    block_widths: tuple

    def __post_init__(self):
        for array in (self.codes, self.row_points, self.row_face_index):
            array.flags.writeable = False

    @property
    def q(self):
        return self.field.q

    @property
    def shape(self):
        return self.codes.shape

    @property
    def entries(self):
        """The matrix as a tuple of tuples of ints, built row by row."""
        return tuple(tuple(row.tolist()) for row in self.codes)

    def torus_columns(self):
        """Indices of the columns of the dense torus block, the block of
        faces[0] = P, the one face of full dimension."""
        return tuple(range(self.block_widths[0]))

    def structural_violations(self):
        """Entries breaking the zero pattern, nonzero off the column's
        face or zero on it, as (i, j) pairs in row-major order. Empty on
        a correctly assembled matrix."""
        on_face = np.repeat(face_incidence(self.faces)[self.row_face_index], self.block_widths, axis=1)
        bad = on_face != (self.codes != 0)
        return list(map(tuple, np.argwhere(bad).tolist())) if bad.any() else []


def generator_matrix(P, field, flags=None):
    """Evaluation matrix of all monomials of P at all rational points.

    Deterministic given the canonical face and point orderings; a
    custom flag cover may be supplied, any cover yields an equivalent
    code.
    """
    field = as_field(field)
    require_hypotheses(P, field.q)
    assign = flag_assignment(P, build_flags(P) if flags is None else flags)
    faces = P.faces
    points, row_face = _rows(P)
    on_face = face_incidence(faces)[row_face]
    widths = tuple((field.q - 1) ** f.dim for f in faces)
    out = np.zeros((len(points), sum(widths)), dtype=np.uint16)
    start = 0
    for fi, (Q, w) in enumerate(zip(faces, widths)):
        on = on_face[:, fi]
        out[on, start:start + w] = _evaluate(assign[Q].straighten(points[on])[:, :Q.dim], field)
        start += w
    return EvaluationMatrix(field, out, points, row_face, faces, widths)


@dataclass(frozen=True, eq=False)
class ReductionSet:
    """Face-by-face reduction of the lattice points of P mod q-1:
    representatives is a read-only int64 array with one row per class
    (same face interior, congruent coordinates), its order-minimal point."""

    order: OrderSpec
    representatives: np.ndarray


def _class_table(P, q):
    """Read-only (perm, starts), kept on P per q: perm groups P's lattice
    points by class, (face, coordinates mod q-1), in lex order within one,
    and class c begins at perm[starts[c]]. A dilate builds and keeps its own."""
    def build():
        key = np.column_stack((P.lattice_point_faces, P.lattice_scan[0] % (q - 1)))
        perm = np.lexsort(key.T[::-1])  # stable: lex order within a class
        starts = np.flatnonzero(np.diff(key[perm], axis=0, prepend=-1).any(axis=1))  # key >= 0
        perm.flags.writeable = starts.flags.writeable = False
        return perm, starts
    return P.kept("class_tables", q, build)


def _representatives(P, q, order):
    """Read-only int64 array of each class's order-minimal lattice point, the
    least rank over its run of perm, by face, then in the order; kept on P per
    (q, order). Orders are total, so nothing ties; the points are lex sorted."""
    def build():
        perm, starts = _class_table(P, q)
        if order.kind == "lex":
            reps = least = perm[starts]
        else:
            by_rank = np.lexsort(order.columns(P.lattice_scan[0]).T[::-1])
            least = np.minimum.reduceat(np.argsort(by_rank)[perm], starts)
            reps = by_rank[least]
        points = P.lattice_scan[0][reps[np.lexsort((least, P.lattice_point_faces[reps]))]]
        points.flags.writeable = False
        return points
    return P.kept("representatives", (q, order), build)


def projective_reduction(P, field, order=None):
    """Reduce the lattice points of P face interior by face interior:
    two points merge when they lie in one face's relative interior and
    are congruent mod q-1, and each class is represented by its
    order-minimal member. They are listed by face, then in the order."""
    order = OrderSpec.lex() if order is None else order
    return ReductionSet(order, _representatives(P, field_size(field), order))


def dimension(P, field):
    """Dimension of the code: the number of reduced points of P."""
    q = field_size(field)
    require_hypotheses(P, q)
    return len(_class_table(P, q)[1])


def is_surjective(Pbig, P, field):
    """Whether Pbig evaluates onto the full space of the points of P.

    Requires the same normal fan, facet offsets dominating those of P,
    and as many reduced points as rational points: each k-face interior
    of Pbig must then carry all (q-1)^k congruence classes.
    """
    q = field_size(field)
    base = dict(zip(P.normals, P.offsets))
    if not same_normal_fan(Pbig, P) or any(a < base[u] for u, a in zip(Pbig.normals, Pbig.offsets)):
        return False
    return len(_class_table(Pbig, q)[1]) == count_rational_points(P, q)


def _dilate_lower_bound(P, q):
    """L of find_surjective_dilate, read from the points of one dilate cP,
    each cP read kept on P. Raises PolytopeError unless (q-1) times cP's
    slack_bound lies below 2^63, so that int64 holds each (q-1)-fold slack."""
    lifted = np.array([f.dim > 0 for f in P.faces])
    for c in range(1, P.dim + 2):
        C = P if c == 1 else P.kept("dilates", c, lambda: P.dilate(c))
        if np.bincount(C.lattice_point_faces, minlength=lifted.size)[lifted].all():
            break
    if (q - 1) * C.slack_bound() >> 63:
        raise PolytopeError(f"(q-1) times a facet slack of {c}P exceeds int64")
    normals = np.array(P.normals, dtype=np.int64).T
    slack = C.lattice_scan[0] @ normals + C.offsets
    vertex_slack = np.array(P.vertices, dtype=np.int64) @ normals + P.offsets

    def least(fi):  # L - 1 - (q-1)c of face fi: max over v, min over x, max over j
        a = vertex_slack[list(P.faces[fi].vertex_indices)]
        steps = -(q - 1) * slack[C.lattice_point_faces == fi, None] // np.maximum(a, 1)
        return np.where(a > 0, steps, -np.inf).max(axis=2).min(axis=0).max()
    return max(1, 1 + (q - 1) * c + int(max(map(least, np.flatnonzero(lifted)))))


def find_surjective_dilate(P, field, lambda_max=16):
    """Smallest factor lam <= lambda_max with lam*P surjective over P,
    or None when no such factor exists in range. The linear search starts
    at L, the largest over faces F of dim >= 1 and vertices v of F of the
    least lam at which relint(lam*F) meets lam*v + (q-1)Z^N (else lam*P
    misses a class of F): 1 + min over lattice x in relint(c(F - v)) of max
    over facets j with a_j(v) = a_j + <v, u_j> > 0 of floor((q-1) *
    -<x, u_j> / a_j(v)), as relint(k(F - v)) lies in relint(k'(F - v)) for
    k <= k' and relint(c(F - v)) holds a lattice point for c = dim F + 1:
    the sum of c affinely independent vertices of F, minus cv. Past lam = 1
    a negative facet offset a fails is_surjective, as lam*a < a. P keeps L
    per q and the surjective lam*P for P.dilate(lam). It keeps lam itself per
    q too, the proof that lam*P is surjective over (P, q): a later call
    returns it whenever lam <= lambda_max, and None otherwise, which is exact
    as lam is the least surjective factor >= L. A failure keeps no lam.
    lambda_max must be an int >= 1, not a bool."""
    _int_at_least(lambda_max, "lambda_max", 1)
    q = field_size(field)
    if (lam := P.__dict__.get("surjective_factors", {}).get(q)) is not None:
        return lam if lam <= lambda_max else None
    top = lambda_max if min(P.offsets) >= 0 else min(lambda_max, 1)
    for lam in range(P.kept("lower_bounds", q, lambda: _dilate_lower_bound(P, q)), top + 1):
        if is_surjective(B := P.dilate(lam), P, field):
            if B is not P:
                P.kept("dilates", lam, lambda: B)
            return P.kept("surjective_factors", q, lambda: lam)
    return None


def _proven(Pbig, P, q):
    """Whether find_surjective_dilate proved Pbig, this very object, surjective
    over (P, q): any other polytope, a fresh lam*P among them, is unproven."""
    lam = P.__dict__.get("surjective_factors", {}).get(q)
    return lam is not None and Pbig is P.dilate(lam)


@dataclass(frozen=True, eq=False)
class BoundDetails:
    """Distance bound, an int, with the survivor count of each reduced point."""

    bound: int
    order: OrderSpec
    reduced: np.ndarray
    counts: np.ndarray

    def attained_at(self):
        return self.reduced[self.counts == self.bound]


def _survivor_counts(region, small, large):
    """For each row m of small, the number of rows of large whose difference
    from m satisfies every inequality of region = (normals, offsets): per
    chunk of small, one facets x chunk x large compare of at most CAP entries."""
    normals, offsets = region
    values, floors = normals @ large.T, normals @ small.T - offsets[:, None]
    step, counts = max(1, CAP // (len(large) * len(normals))), []
    for i in range(0, len(small), step):
        inside = (values[:, None, :] >= floors[:, i:i + step, None]).all(axis=0)
        counts.append(np.count_nonzero(inside, axis=1))
    return np.concatenate(counts)


def bounds_over_orders(P, Pbig, field, orders=None):
    """BoundDetails for each monomial order, in the given order.

    For each reduced point m of P, counts the reduced points of Pbig
    whose difference from m satisfies every offset-difference
    inequality; the minimum count bounds the minimum distance from
    below. Only the representative choice varies with the order.
    Raises SurjectivityError unless Pbig is surjective over P; the dilate
    that find_surjective_dilate proved for (P, q) is not checked again.
    """
    q = field_size(field)
    orders = stock_orders(P.dim) if orders is None else list(orders)
    if not orders:
        raise ValueError("empty order list")
    if not (_proven(Pbig, P, q) or is_surjective(Pbig, P, q)):
        raise SurjectivityError("enlarged polytope is not surjective over the base")
    region, details = offset_difference(Pbig, P), []
    for order in orders:
        reduced = projective_reduction(P, q, order).representatives
        counts = _survivor_counts(region, reduced, _representatives(Pbig, q, order))
        details.append(BoundDetails(int(counts.min()), order, reduced, counts))
    return tuple(details)


def distance_lower_bound(P, Pbig, field, order=None):
    """Lower bound on the minimum distance of the code of P, lex order by default."""
    order = OrderSpec.lex() if order is None else order
    return bounds_over_orders(P, Pbig, field, [order])[0].bound


def best_bound_over_orders(P, Pbig, field, orders=None):
    """(best bound, achieving order) over a set of monomial orders.
    Ties keep the earliest order."""
    best = max(bounds_over_orders(P, Pbig, field, orders), key=lambda d: d.bound)
    return best.bound, best.order


def _integer(value, what):
    # a bool is an int subclass and a numpy mask, and int() would truncate a float
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def subcode_matrix(M, rows=None, cols=None):
    """Submatrix of an evaluation matrix, orderings preserved.

    rows selects lattice points and cols column indices, all when None.
    Returns a tuple of tuples of ints, the form the command line emits.
    Raises ValueError on an empty selection, an unknown row point, and an
    index or coordinate that is not a Python or numpy int, a bool or float.
    """
    points = list(map(tuple, M.row_points.tolist()))
    index = {m: i for i, m in enumerate(points)}
    rows = points if rows is None else [tuple(_integer(x, "row coordinate") for x in m) for m in rows]
    if (unknown := next((m for m in rows if m not in index), None)) is not None:
        raise ValueError(f"{unknown} is not a row of the matrix")
    cidx = range(M.shape[1]) if cols is None else [_integer(j, "column index") for j in cols]
    if any(not (0 <= j < M.shape[1]) for j in cidx):
        raise ValueError("column index out of range")
    if not rows or not cidx:
        raise ValueError("empty selection")
    return tuple(map(tuple, M.codes[np.ix_([index[m] for m in rows], cidx)].tolist()))


class Check(NamedTuple):
    """One record of verify_ledger; str(check) is the line verify prints."""

    label: str
    ok: bool | None  # None for a skip
    values: tuple = ()  # those compared, left against right
    detail: str = ""  # what a FAIL line adds

    def __str__(self):
        head = {None: "skip", True: "ok  ", False: "FAIL"}[self.ok]
        tail = f" ({self.detail})" if self.ok is False and self.detail else ""
        return f"{head} {self.label}{tail}"


NO_DILATE = Check("distance bound (no surjective dilate in range)", None)


def verify_ledger(P, M, order=None, lambda_max=16, budget=1 << 24, seed=0, require_distance=False):
    """Refuse a bad budget, seed or lambda_max with ValueError, then check the code of
    P, generated by M over M.field, against the oracles, yielding each Check as it is
    made: zero pattern; rank = reduction count = union-find count; length = point
    count; Pick's theorem on a polygon; at the least surjective dilate up to lambda_max
    (else NO_DILATE), bound under order <= random upper bound of seed, bound <= exact
    distance <= upper bound unless q^rank > budget: skipped, or with require_distance refused."""
    for value, what, least in ((budget, "budget", 0), (seed, "seed", 0), (lambda_max, "lambda_max", 1)):
        _int_at_least(value, what, least)
    field = M.field
    k = dimension(P, field)
    rk = len(row_basis(M.codes, field))  # the distance oracles read the basis it keeps
    uf = reduction_class_count_unionfind(P, field)
    n = count_rational_points(P, field.q)
    yield Check("block triangularity", not M.structural_violations())
    yield Check("rank equals reduction count", rk == k, (rk, k), f"rank {rk} vs {k}")
    yield Check("union-find agrees", uf == k, (uf, k), f"{uf} vs {k}")
    yield Check("length equals point count", M.shape[1] == n, (M.shape[1], n), f"{M.shape[1]} vs {n}")
    if P.dim == 2:
        yield Check("Pick's theorem", pick_check(P))
    if (lam := find_surjective_dilate(P, field, lambda_max)) is None:
        yield NO_DILATE
        return
    bound = distance_lower_bound(P, P.dilate(lam), field, order)
    upper = min_weight_random_upper(M.codes, field, seed=seed)
    yield Check("bound below random upper", bound <= upper, (bound, upper), f"{bound} vs {upper}")
    if not (require_distance or field.q ** rk <= budget):
        yield Check("exhaustive distance (over budget)", None)
        return
    d = min_distance_exhaustive(M.codes, field, budget=budget)
    yield Check("bound below true distance", bound <= d, (bound, d), f"{bound} vs {d}")
    yield Check("true distance below upper", d <= upper, (d, upper), f"{d} vs {upper}")
