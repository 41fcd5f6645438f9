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
from itertools import chain
from math import gcd

import numpy as np

from .intlat import rank


class PolytopeError(ValueError):
    """Raised when input data does not describe a valid lattice polytope."""


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _affine_rank(points):
    base = points[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return rank(diffs)


def _combine(a, v, b, w):
    """a v - b w over the gcd of its entries."""
    c = [a * x - b * y for x, y in zip(v, w)]
    g = gcd(*c)
    return tuple(x // g for x in c)


def _extreme_rays(rows):
    """(rays, lineality) of the cone {y : <r, y> >= 0 for every row r} of
    integer rows of one width w, by double description (Motzkin et al.
    1953, as in Fukuda and Prodon 1996), exactly in Python ints.

    rays lists each primitive extreme ray as (y, mask), bit i of mask set
    when row i is tight at y; lineality is a basis of {y : every <r, y>
    = 0}, empty when the cone is pointed, and a ray is unique up to adding
    a lineality vector. The cone starts as R^w, all lineality. A row that
    some lineality vector e meets, with <r, e> = s > 0 after a sign
    change, moves the other vectors along e onto the row's hyperplane and
    becomes the ray e, tight at every earlier row. A row that meets no
    lineality vector keeps the rays on its side and joins each adjacent
    pair across it, <r, y+> > 0 > <r, y->, in <r, y+> y- - <r, y-> y+. Two
    rays are adjacent when no third ray is tight at every row tight at
    both; a 2-face has tight rows of rank w - 2 - dim lineality, so a pair
    sharing fewer tight rows is passed over first."""
    w = len(rows[0])
    lineality = [tuple(int(i == j) for j in range(w)) for i in range(w)]
    rays = []
    for i, r in enumerate(rows):
        bit = 1 << i
        dots = [_dot(r, e) for e in lineality]
        if any(dots):
            k = next(k for k, d in enumerate(dots) if d)
            s, e = dots.pop(k), lineality.pop(k)
            if s < 0:
                s, e = -s, tuple(-x for x in e)
            lineality = [_combine(s, v, d, e) for v, d in zip(lineality, dots)]
            rays = [(_combine(s, v, _dot(r, v), e), m | bit) for v, m in rays]
            rays.append((e, bit - 1))
            continue
        dots = [_dot(r, v) for v, _ in rays]
        masks = [m for _, m in rays]
        need = w - 2 - len(lineality)
        joined = [
            (_combine(dp, rays[q][0], dq, rays[p][0]), z | bit)
            for p, dp in enumerate(dots) if dp > 0
            for q, dq in enumerate(dots) if dq < 0
            for z in (masks[p] & masks[q],)
            if z.bit_count() >= need and sum(m & z == z for m in masks) == 2
        ]
        rays = [(v, m | bit if d == 0 else m) for (v, m), d in zip(rays, dots) if d >= 0] + joined
    return rays, lineality


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
        extreme rays of {(u, c) : <p - first, u> + c >= 0 at every point}
        are the facets, primitive inner normals u with c the largest
        -<p - first, u>, and its lineality is {0} exactly when the hull is
        full-dimensional. A point is a vertex when no other point's set
        of tight facets contains its own: a vertex's tight facets meet in
        the vertex alone, and a non-vertex lies inside a face of dimension
        >= 1 whose vertices, input points, each lie on every facet the
        point lies on.
        """
        pts = sorted({_as_lattice_point(p) for p in points})
        if len({len(p) for p in pts}) != 1:
            raise PolytopeError("no points, or points of mixed dimensions")
        n = len(pts[0])
        first = pts[0]
        rays, lineality = _extreme_rays([[*(x - y for x, y in zip(p, first)), 1] for p in pts])
        if lineality:
            raise PolytopeError("hull is not full-dimensional")
        rays.sort()
        normals = tuple(f[:n] for f, _ in rays)
        offsets = tuple(f[n] - _dot(f[:n], first) for f, _ in rays)
        tight = [
            sum(1 << j for j, (_, m) in enumerate(rays) if m >> i & 1) for i in range(len(pts))
        ]
        on_n = [t for t in tight if t.bit_count() >= n]  # a vertex lies on n facets at least
        vertices = tuple(
            p for p, t in zip(pts, tight)
            if t.bit_count() >= n and sum(s & t == t for s in on_n) == 1
        )
        return cls(n, vertices, normals, offsets)

    @classmethod
    def from_vrep_hrep(cls, vertices, normals, offsets):
        """Build from an explicit vertex list and facet inequalities.

        normals[i]/offsets[i] describe the inequality <m, u> >= -a of
        facet i. The system moves to the first listed vertex v as rows
        [u | a + <v, u>], and the row [0 | 1] bounds t >= 0. The extreme
        rays (y, t) of that cone are the vertices y/t + v, t > 0, and the
        directions y of the set's unbounded edges, t = 0; the normals span,
        so the cone is pointed. The set must be bounded, its vertices must
        be lattice points and exactly the listed ones, and every
        inequality must be tight on a facet. Once the system is known to
        describe P, every facet of P is one of its rows, so a row is a
        facet exactly when the set of vertices tight on it, read off the
        rays' masks, is nonempty and no other row's strictly contains it.
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
        rows = [[*u, a + _dot(first, u)] for u, a in zip(normals, offsets)]
        rays, _ = _extreme_rays([*rows, [0] * n + [1]])
        tight = [sum(1 << j for j, (_, m) in enumerate(rays) if m >> i & 1)
                 for i in range(len(rows))]  # the rays tight on each row
        rays = [y for y, _ in rays]
        if any(y[n] == 0 for y in rays):
            raise PolytopeError("inequalities describe an unbounded set")
        if odd := [y for y in rays if y[n] > 1]:
            *y, t = min(odd)
            point = tuple(t * v + x for v, x in zip(first, y))
            raise PolytopeError(f"inequality system has non-lattice vertex {point}/{t}")
        found = {tuple(v + x for v, x in zip(first, y)) for y in rays}
        if extra := set(verts) - found:
            raise PolytopeError(f"listed point {min(extra)} is not a vertex")
        if missing := found - set(verts):
            raise PolytopeError(f"vertex {min(missing)} missing from the vertex list")
        for u, a, t in zip(normals, offsets, tight):
            if not t or any(s & t == t != s for s in tight):
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
        """Every face of the polytope, the polytope itself included,
        ordered by decreasing dimension, then by vertex index tuple.

        The faces come from the vertex-facet incidence level by level
        (Kaibel and Pfetsch 2002), with no rank computation: the (d-1)-faces
        are the inclusion-maximal, proper, nonempty intersections of a
        d-face's vertex set with the facets' vertex sets.
        """
        tight = [
            sum(1 << i for i, v in enumerate(self.vertices) if _dot(v, u) == -a)
            for u, a in zip(self.normals, self.offsets)
        ]
        faces, level = [], {(1 << len(self.vertices)) - 1}
        for d in range(self.dim, -1, -1):
            faces += sorted(
                (
                    Face(
                        tuple(i for i in range(len(self.vertices)) if s >> i & 1),
                        tuple(f for f, t in enumerate(tight) if s & t == s),
                        d,
                    )
                    for s in level
                ),
                key=lambda f: f.vertex_indices,
            )
            below = set()
            for s in level:
                cuts = {s & t for t in tight} - {0, s}
                below.update(c for c in cuts if not any(c != e and c & e == c for e in cuts))
            level = below
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
