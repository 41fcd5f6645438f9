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
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import gcd

import numpy as np

from .intlat import kernel_vector, rank, solve_exact


class PolytopeError(ValueError):
    """Raised when input data does not describe a valid lattice polytope."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _affine_rank(points):
    base = points[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return rank(diffs)


def _as_lattice_point(p, n=None):
    t = tuple(p)
    if not t or any(not isinstance(x, int) for x in t):
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
class HalfspaceRegion:
    """Intersection of halfspaces <m, u_i> >= -a_i, possibly unbounded."""

    normals: tuple
    offsets: tuple

    def contains(self, point):
        return all(
            _dot(point, u) >= -a for u, a in zip(self.normals, self.offsets)
        )


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
        """Convex hull of the given lattice points, for dimension <= 3.

        Points that are not vertices of the hull are dropped. The hull
        must be full-dimensional in the ambient space; in dimension 4
        and up, supply facets explicitly through from_vrep_hrep.
        """
        pts = sorted({_as_lattice_point(p) for p in points})
        if len({len(p) for p in pts}) != 1:
            raise PolytopeError("no points, or points of mixed dimensions")
        n = len(pts[0])
        if n > 3:
            raise PolytopeError(
                "facet enumeration from vertices is supported up to dimension 3"
            )
        if _affine_rank(pts) != n:
            raise PolytopeError("hull is not full-dimensional")
        facets = {}
        for combo in combinations(pts, n):
            diffs = [[x - b for x, b in zip(p, combo[0])] for p in combo[1:]]
            if rank(diffs) != n - 1:
                continue
            u = kernel_vector(diffs, n)
            vals = [_dot(p, u) for p in pts]
            c = _dot(combo[0], u)
            if c == min(vals):
                facets[tuple(u)] = -c
            if c == max(vals):
                facets[tuple(-x for x in u)] = c
        normals = sorted(facets)
        offsets = [facets[u] for u in normals]
        verts = []
        for p in pts:
            tight = [u for u, a in zip(normals, offsets) if _dot(p, u) == -a]
            if rank(tight) == n:
                verts.append(p)
        return cls(n, tuple(verts), tuple(normals), tuple(offsets))

    @classmethod
    def from_vrep_hrep(cls, vertices, normals, offsets):
        """Build from an explicit vertex list and facet inequalities.

        normals[i]/offsets[i] describe the inequality <m, u> >= -a of
        facet i. The two descriptions are cross-validated: every
        inequality must define a genuine facet, every listed point must
        be a vertex, the polyhedron must be bounded, and no vertex of
        the inequality system may be missing from the list.
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
        clean_normals = []
        clean_offsets = []
        for normal, offset in zip(normals, offsets):
            u = _as_lattice_point(normal, n)
            if gcd(*u) != 1:
                raise PolytopeError(f"facet normal {u} is not primitive")
            if not isinstance(offset, int):
                raise PolytopeError(f"facet offset {offset!r} is not an int")
            clean_normals.append(u)
            clean_offsets.append(offset)
        normals, offsets = clean_normals, clean_offsets
        if len(set(normals)) != len(normals):
            raise PolytopeError("duplicate facet normals")
        if rank(normals) != n:
            raise PolytopeError("facet normals do not span the ambient space")
        for v in verts:
            for u, a in zip(normals, offsets):
                if _dot(v, u) < -a:
                    raise PolytopeError(f"vertex {v} violates facet {u}")
        for u, a in zip(normals, offsets):
            tight = [v for v in verts if _dot(v, u) == -a]
            if not tight or _affine_rank(tight) != n - 1:
                raise PolytopeError(f"inequality {u} >= {-a} is not a facet")
        for v in verts:
            tight = [u for u, a in zip(normals, offsets) if _dot(v, u) == -a]
            if rank(tight) != n:
                raise PolytopeError(f"listed point {v} is not a vertex")
        r = len(normals)
        for combo in combinations(range(r), n - 1):
            rows = [normals[i] for i in combo]
            try:
                d = kernel_vector(rows, n)
            except ValueError:
                continue
            for s in (d, [-x for x in d]):
                if all(_dot(s, u) >= 0 for u in normals):
                    raise PolytopeError("inequalities describe an unbounded set")
        vert_set = set(verts)
        for combo in combinations(range(r), n):
            rows = [normals[i] for i in combo]
            sol = solve_exact(rows, [[-offsets[i]] for i in combo])
            if sol is None:
                continue
            sol = [s for s, in sol]
            if any(
                sum(Fraction(x) * s for x, s in zip(u, sol)) < -a
                for u, a in zip(normals, offsets)
            ):
                continue
            if any(s.denominator != 1 for s in sol):
                raise PolytopeError(f"inequality system has non-lattice vertex {sol}")
            if tuple(int(s) for s in sol) not in vert_set:
                raise PolytopeError(f"vertex {sol} missing from the vertex list")
        order = sorted(range(r), key=lambda i: normals[i])
        return cls(
            n,
            tuple(sorted(verts)),
            tuple(normals[i] for i in order),
            tuple(offsets[i] for i in order),
        )

    contains = HalfspaceRegion.contains

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
        """(points, tight): the lattice points as an int64 array in
        lexicographic order and the mask of the facets tight at each. The
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
        return np.concatenate(points), np.concatenate(tight)

    @cached_property
    def lattice_points(self):
        """All lattice points of the polytope, in lexicographic order."""
        return tuple(map(tuple, self.lattice_scan[0].tolist()))

    @cached_property
    def lattice_point_faces(self):
        """Index into faces of each lattice point's minimal face, whose
        relative interior holds it: the face whose facets are the point's
        tight facets, found by looking packed masks up among the faces'."""
        masks = [[i in f.facet_indices for i in range(len(self.normals))] for f in self.faces]
        keys = np.packbits(np.concatenate((masks, self.lattice_scan[1])), axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        by_key = np.argsort(keys[: len(masks)])
        return by_key[np.searchsorted(keys[by_key], keys[len(masks):])]

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
        return all(
            len(self.tight_facets(v)) == self.dim for v in self.vertices
        )

    def dilate(self, factor):
        """The scaled polytope factor * P, for a positive integer factor.

        Scaling keeps the vertex order and the normals, so the dilate
        shares the face list of P."""
        if not isinstance(factor, int) or factor < 1:
            raise PolytopeError(f"dilation factor must be a positive int, got {factor!r}")
        scaled = Polytope(
            self.dim,
            tuple(tuple(factor * x for x in v) for v in self.vertices),
            self.normals,
            tuple(factor * a for a in self.offsets),
        )
        object.__setattr__(scaled, "faces", self.faces)
        return scaled


def same_normal_fan(P, Q):
    """Whether two polytopes have identical normal fans.

    Equivalent to having the same facet normal set and the same
    collection of vertex cones (sets of facet normals tight at a
    vertex), read from the cached face lattice, which a dilate shares.
    """
    if P.dim != Q.dim or set(P.normals) != set(Q.normals):
        return False

    def cones(R):
        return sorted(
            tuple(sorted(R.normals[i] for i in f.facet_indices))
            for f in R.faces_of_dim(0)
        )

    return cones(P) == cones(Q)


def offset_difference(outer, inner):
    """Halfspace region with outer's normals and offsets a_out - a_in.

    Both polytopes must share the same facet normal set; offsets are
    matched facet by facet through the normal.
    """
    if set(outer.normals) != set(inner.normals):
        raise PolytopeError("polytopes do not share facet normals")
    by_normal = dict(zip(inner.normals, inner.offsets))
    return HalfspaceRegion(
        outer.normals,
        tuple(a - by_normal[u] for u, a in zip(outer.normals, outer.offsets)),
    )
