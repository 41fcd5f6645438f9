"""Full-dimensional lattice polytopes with exact facet descriptions.

A polytope lives in Z^N and is stored by its lexicographically sorted
vertex tuple together with facet inequalities <m, u> >= -a, one per
facet, where u is the primitive inner normal and a the offset. Both
representations are validated against each other on construction, so
downstream code can trust vertices, facets, and the face lattice to
be mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import factorial, gcd

import numpy as np

from .intlat import rank

_CHUNK = 1 << 14  # entries of one product of the hull kernel


class PolytopeError(ValueError):
    """Raised when input data does not describe a valid lattice polytope."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _affine_rank(points):
    base = points[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return rank(diffs)


def _rows(head, tail):
    """The int64 rows [h | t] of the hull kernel, h in Z^n from head and t
    from tail, for stacks of n rows or of n - 1 heads.

    With |h_j| <= B and |t| <= S, S >= 1, a maximal minor of n rows, and
    each partial sum of its cofactor expansion, is at most n! products
    of n entries, one at most from the last column: n! B^(n-1) max(B, S).
    The one product it feeds, with a row [h | t], is at most
    n B n! B^(n-1) S + S n! B^n = (n+1)! B^n S, and that of a kernel of
    n - 1 heads at most n! B^n. Raises PolytopeError unless
    (n+1)! B^n S < 2^63, so int64 holds every value."""
    n = len(head[0])
    B = max(map(abs, chain.from_iterable(head)))
    S = max(1, *map(abs, tail))
    if factorial(n + 1) * B**n * S >> 63:
        raise PolytopeError("coordinates or offsets past the int64 bound of the hull kernel")
    return np.array([[*h, t] for h, t in zip(head, tail)], dtype=np.int64)


def _kernels(stacks):
    """The primitive kernel vector of each stack of k int64 rows in
    Z^(k+1): component j is (-1)^j times the maximal minor without
    column j, over the gcd of the components. The minors come from
    cofactor expansion along the rows, last row first, over every column
    subset; a stack of rank below k gives 0."""
    m, k, w = stacks.shape
    minors = {(): np.ones(m, np.int64)}
    for r in range(k - 1, -1, -1):
        minors = {
            cols: sum(
                (-1) ** i * stacks[:, r, c] * minors[cols[:i] + cols[i + 1:]]
                for i, c in enumerate(cols)
            )
            for cols in combinations(range(w), k - r)
        }
    K = np.column_stack([(-1) ** j * minors[(*range(j), *range(j + 1, w))] for j in range(w)])
    return K // np.maximum(np.gcd.reduce(K, axis=1), 1)[:, None]


def _subset_kernels(rows, k):
    """(kernels, products), chunk by chunk, over the k-subsets of the
    rows: the kernel of each subset and its product with every row."""
    subsets = combinations(range(len(rows)), k)
    step = max(1, _CHUNK // len(rows))
    while chunk := list(islice(subsets, step)):
        K = _kernels(rows[np.array(chunk, dtype=np.intp).reshape(len(chunk), k)])
        yield K, K @ rows.T


def _as_lattice_point(p, n=None):
    t = tuple(p)
    if not t or any(isinstance(x, bool) or not isinstance(x, int) for x in t):
        raise PolytopeError(f"{p!r} is not a nonempty tuple of ints")
    if n is not None and len(t) != n:
        raise PolytopeError(f"point {p!r} does not have {n} coordinates")
    return t


@dataclass(frozen=True)
class Face:
    """One face of a polytope, identified by its vertex index set."""

    vertex_indices: tuple
    facet_indices: tuple
    dim: int


@dataclass(frozen=True)
class Polytope:
    """A full-dimensional lattice polytope in Z^dim.

    Build instances through from_vertices or from_vrep_hrep; the bare
    constructor performs no validation. normals[i]/offsets[i] describe
    facet i, and facets are sorted by normal tuple, vertices
    lexicographically.
    """

    dim: int
    vertices: tuple
    normals: tuple
    offsets: tuple

    @classmethod
    def from_vertices(cls, points):
        """Convex hull of the given lattice points, in any dimension.

        Points that are not vertices of the hull are dropped. The hull
        must be full-dimensional in the ambient space.

        The points move to the first one as rows [p - first | 1]. The
        kernel (u, c) of n of these rows is a primitive normal u with
        <p - first, u> + c = 0 on the n points, and it gives the facet
        u or -u when every point lies on one side. A point is a vertex
        when no other point's set of tight facets contains its own: a
        vertex's tight facets meet in the vertex alone, and a non-vertex
        lies inside a face of dimension >= 1 whose vertices, input
        points, each lie on every facet the point lies on.
        """
        pts = sorted({_as_lattice_point(p) for p in points})
        if len({len(p) for p in pts}) != 1:
            raise PolytopeError("no points, or points of mixed dimensions")
        n = len(pts[0])
        if _affine_rank(pts) != n:
            raise PolytopeError("hull is not full-dimensional")
        first = pts[0]
        rows = _rows([[x - y for x, y in zip(p, first)] for p in pts], [1] * len(pts))
        found = set()
        for K, slack in _subset_kernels(rows, n):
            found.update(map(tuple, K[(slack >= 0).all(axis=1)].tolist()))
            found.update(map(tuple, (-K[(slack <= 0).all(axis=1)]).tolist()))
        found.discard((0,) * (n + 1))  # from n points that span no hyperplane
        facets = sorted(found)
        normals = tuple(f[:n] for f in facets)
        offsets = tuple(f[n] - _dot(f[:n], first) for f in facets)
        tight = rows @ np.array(facets, dtype=np.int64).T == 0
        vertex = tight.sum(axis=1) >= n  # a vertex lies on n facets at least
        tight = tight[vertex].astype(np.int64)
        shared = tight @ tight.T  # facets tight at both points
        vertex[vertex] = (shared == shared.diagonal()[:, None]).sum(axis=1) == 1
        return cls(n, tuple(p for p, v in zip(pts, vertex) if v), normals, offsets)

    @classmethod
    def from_vrep_hrep(cls, vertices, normals, offsets):
        """Build from an explicit vertex list and facet inequalities.

        normals[i]/offsets[i] describe the inequality <m, u> >= -a of
        facet i. The system moves to the first listed vertex v as rows
        [u | a + <v, u>]. It must be bounded: no kernel of n - 1 normals
        lies on one side of every normal. Its vertices, y/t + v for the
        kernels (y, t), t > 0, of n rows inside every inequality, must be
        lattice points and exactly the listed ones, and every inequality
        must be tight on an (n-1)-dimensional set.
        """
        verts = [_as_lattice_point(v) for v in vertices]
        if len(set(verts)) != len(verts):
            raise PolytopeError("duplicate vertices")
        if len({len(v) for v in verts}) != 1:
            raise PolytopeError("no vertices, or vertices of mixed dimensions")
        n = len(verts[0])
        if _affine_rank(verts) != n:
            raise PolytopeError("vertices do not span the ambient space")
        if len(normals) != len(offsets):
            raise PolytopeError("normals and offsets differ in length")
        normals = [_as_lattice_point(u, n) for u in normals]
        for u, a in zip(normals, offsets):
            if gcd(*u) != 1:
                raise PolytopeError(f"facet normal {u} is not primitive")
            if isinstance(a, bool) or not isinstance(a, int):
                raise PolytopeError(f"facet offset {a!r} is not an int")
        if len(set(normals)) != len(normals):
            raise PolytopeError("duplicate facet normals")
        if rank(normals) != n:
            raise PolytopeError("facet normals do not span the ambient space")
        first = verts[0]
        rows = _rows(normals, [a + _dot(first, u) for u, a in zip(normals, offsets)])
        for K, product in _subset_kernels(rows[:, :n], n - 1):
            if (K.any(axis=1) & ((product >= 0).all(axis=1) | (product <= 0).all(axis=1))).any():
                raise PolytopeError("inequalities describe an unbounded set")
        found = set()
        for K, product in _subset_kernels(rows, n):
            sign = np.sign(K[:, n:])  # t >= 0 from here on
            K, product = K * sign, product * sign
            for *y, t in K[(K[:, n] > 0) & (product >= 0).all(axis=1)].tolist():
                if t > 1:
                    point = tuple(t * v + x for v, x in zip(first, y))
                    raise PolytopeError(f"inequality system has non-lattice vertex {point}/{t}")
                found.add(tuple(v + x for v, x in zip(first, y)))
        if extra := set(verts) - found:
            raise PolytopeError(f"listed point {min(extra)} is not a vertex")
        if missing := found - set(verts):
            raise PolytopeError(f"vertex {min(missing)} missing from the vertex list")
        for u, a in zip(normals, offsets):
            tight = [v for v in verts if _dot(v, u) == -a]
            if not tight or _affine_rank(tight) != n - 1:
                raise PolytopeError(f"inequality {u} >= {-a} is not a facet")
        normals, offsets = zip(*sorted(zip(normals, offsets)))  # the normals are distinct
        return cls(n, tuple(sorted(verts)), normals, offsets)

    def tight_facets(self, point):
        """Indices of facets whose inequality is tight at the point."""
        return tuple(
            i
            for i, (u, a) in enumerate(zip(self.normals, self.offsets))
            if _dot(point, u) == -a
        )

    def slack_bound(self):
        """max |<m, u> + a| over the points m of the bounding box and the
        facets (u, a), exactly in Python ints: an affine function takes
        its extremes over a box at corners."""
        box = [(min(c), max(c)) for c in zip(*self.vertices)]
        return max(
            abs(a + sum(pick(x * lo, x * hi) for x, (lo, hi) in zip(u, box)))
            for u, a in zip(self.normals, self.offsets)
            for pick in (min, max)
        )

    @cached_property
    def lattice_scan(self):
        """(points, tight): the lattice points as a read-only int64 array
        in lexicographic order and the read-only mask of the facets tight
        at each, so a kept dilate hands every caller the same scan. The
        bounding box is scanned in slabs along the first coordinate of at
        most 2^12 grid points (or one unit wide), so temporaries stay small.

        Raises PolytopeError unless every vertex coordinate, normal entry
        and offset and the slack_bound lie below 2^63 in absolute value,
        so that int64 holds each value the scan forms. The slack_bound is
        at most (dim + 1) v^2 for v the largest of those |entries|, so it
        is computed only when that reaches 2^63."""
        v = max(map(abs, chain.from_iterable((*self.vertices, *self.normals, self.offsets))))
        if (self.dim + 1) * v * v >> 63 and max(v, self.slack_bound()) >> 63:
            raise PolytopeError("a coordinate, normal, offset or facet slack exceeds int64")
        box = np.array(self.vertices, dtype=np.int64)
        lo, extent = box.min(axis=0), np.ptp(box, axis=0) + 1
        normals = np.array(self.normals, dtype=np.int64).T
        offsets = np.array(self.offsets, dtype=np.int64)
        step = max(1, (1 << 12) // int(np.prod(extent[1:])))
        points, tight = [], []
        for start in range(0, int(extent[0]), step):
            shape = (min(step, int(extent[0]) - start), *extent[1:])
            grid = np.indices(shape, dtype=np.int64).reshape(self.dim, -1).T + lo
            grid[:, 0] += start
            slack = grid @ normals + offsets
            inside = (slack >= 0).all(axis=1)
            points.append(grid[inside])
            tight.append(slack[inside] == 0)
        points, tight = np.concatenate(points), np.concatenate(tight)
        points.flags.writeable = tight.flags.writeable = False
        return points, tight

    @cached_property
    def lattice_points(self):
        """All lattice points of the polytope, in lexicographic order."""
        return tuple(map(tuple, self.lattice_scan[0].tolist()))

    @cached_property
    def lattice_point_faces(self):
        """Index into faces of each lattice point's minimal face, whose
        relative interior holds it: the face whose facets are the point's
        tight facets, found by looking packed masks up among the faces'.
        The array is read-only."""
        masks = _facet_masks(self.faces)
        keys = np.packbits(np.concatenate((masks, self.lattice_scan[1])), axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        by_key = np.argsort(keys[: len(masks)])
        faces = by_key[np.searchsorted(keys[by_key], keys[len(masks):])]
        faces.flags.writeable = False
        return faces

    @cached_property
    def faces(self):
        """Every face of the polytope, the polytope itself included.

        Faces are computed as the intersection closure of the facet
        tight-vertex sets and ordered by decreasing dimension, then by
        vertex index tuple.
        """
        tight_sets = [
            frozenset(
                i for i, v in enumerate(self.vertices) if _dot(v, u) == -a
            )
            for u, a in zip(self.normals, self.offsets)
        ]
        full = frozenset(range(len(self.vertices)))
        found = {full}
        frontier = [full]
        while frontier:
            s = frontier.pop()
            for t in tight_sets:
                x = s & t
                if x and x not in found:
                    found.add(x)
                    frontier.append(x)
        faces = []
        for s in found:
            idx = tuple(sorted(s))
            fdim = _affine_rank([self.vertices[i] for i in idx])
            fidx = tuple(f for f, t in enumerate(tight_sets) if s <= t)
            faces.append(Face(idx, fidx, fdim))
        faces.sort(key=lambda f: (-f.dim, f.vertex_indices))
        return tuple(faces)

    def faces_of_dim(self, d):
        return tuple(f for f in self.faces if f.dim == d)

    def is_simple(self):
        """Whether every vertex lies on exactly dim facets."""
        return all(len(f.facet_indices) == self.dim for f in self.faces_of_dim(0))

    def kept(self, table, key, build):
        """Entry key of this polytope's table named table, from build() on
        first use; a raising build keeps nothing. Callers validate a key before
        the lookup, as 5.0 == np.int64(5) == 5. A dilate keeps its own tables."""
        entries = self.__dict__.setdefault(table, {})
        return entries[key] if key in entries else entries.setdefault(key, build())

    def dilate(self, factor):
        """The scaled polytope factor * P, for a positive int factor, not a
        bool: P itself for 1, or the one kept in P.__dict__["dilates"].

        Scaling keeps the vertex order and the normals, so the dilate
        shares the face list of P."""
        if isinstance(factor, bool) or not isinstance(factor, int) or factor < 1:
            raise PolytopeError(f"dilation factor must be a positive int, got {factor!r}")
        kept = self.__dict__.get("dilates", {})
        if factor == 1 or factor in kept:
            return kept.get(factor, self)
        scaled = Polytope(
            self.dim,
            tuple(tuple(factor * x for x in v) for v in self.vertices),
            self.normals,
            tuple(factor * a for a in self.offsets),
        )
        object.__setattr__(scaled, "faces", self.faces)
        return scaled


def _facet_masks(faces):
    """The bool table [a, i]: faces[a] lies on facet i. A facet is a
    face and lies on itself, so the largest index is the last facet's."""
    facets = [f.facet_indices for f in faces]
    masks = np.zeros((len(faces), 1 + max(map(max, filter(None, facets)))), dtype=bool)
    masks[np.repeat(np.arange(len(faces)), list(map(len, facets))), list(chain(*facets))] = True
    return masks


def face_incidence(faces):
    """table[a, b]: faces[a] lies in faces[b], as no facet that faces[b]
    lies on misses faces[a]; one product of the facet masks."""
    masks = _facet_masks(faces).astype(np.int64)
    return (1 - masks) @ masks.T == 0


def same_normal_fan(P, Q):
    """Whether two polytopes have identical normal fans.

    Equivalent to having the same facet normal set and the same
    collection of vertex cones (sets of facet normals tight at a
    vertex), read from the cached face lattice, which a dilate shares,
    and kept sorted on each polytope.
    """
    if P.dim != Q.dim or set(P.normals) != set(Q.normals):
        return False

    def cones(R):
        return R.kept("vertex_cones", None, lambda: tuple(sorted(
            tuple(sorted(R.normals[i] for i in f.facet_indices))
            for f in R.faces_of_dim(0)
        )))

    return cones(P) == cones(Q)


def offset_difference(outer, inner):
    """The region <m, u> >= -(a_out - a_in) over outer's facets, possibly
    unbounded, as (normals, offsets) int64 arrays, one row or entry each.

    Both polytopes must share the same facet normal set; offsets are
    matched facet by facet through the normal.
    """
    if set(outer.normals) != set(inner.normals):
        raise PolytopeError("polytopes do not share facet normals")
    by_normal = dict(zip(inner.normals, inner.offsets))
    offsets = [a - by_normal[u] for u, a in zip(outer.normals, outer.offsets)]
    return np.array(outer.normals, dtype=np.int64), np.array(offsets, dtype=np.int64)
