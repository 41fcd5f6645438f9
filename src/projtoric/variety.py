"""Variety-level data derived from a polytope.

The evaluation-code construction needs two hypotheses: the polytope
must be simple (every vertex on exactly dim facets) and the field
characteristic must divide none of the vertex determinants, the
determinants of the matrices of facet normals meeting at each vertex.
This module checks those, counts rational points face by face, builds
flags of faces together with the straightening maps that put each face
onto a coordinate subspace, and reports the Picard invariants of the
normal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import field_size, prime_power
from .intlat import _hermite, determinant, snf_invariant_factors
from .polytope import face_incidence


class HypothesisError(Exception):
    """Raised when a construction requires hypotheses the input fails."""


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the two construction hypotheses for a (P, q) pair.

    determinants holds |det| of the facet normals meeting at each
    vertex, in vertex order, or None when the polytope is not simple.
    offenders lists the vertices that break a hypothesis: for a
    non-simple polytope those lying on more than dim facets, otherwise
    those whose determinant the characteristic divides.
    """

    q: int
    characteristic: int
    simple: bool
    determinants: tuple
    offenders: tuple

    @property
    def ok(self):
        return self.simple and not self.offenders


def check_hypotheses(P, q):
    """Report whether the pair (P, q) supports the code construction.

    Never raises on a failing polytope; the report carries the failure.
    P keeps the crowded vertices and determinants, which q does not fix;
    each call validates q, applies % p and returns a new report.
    """
    def build():  # the vertices on more than dim facets, else each |det|
        cones = [f.facet_indices for f in P.faces_of_dim(0)]  # in vertex order
        crowded = tuple(v for v, f in zip(P.vertices, cones) if len(f) > P.dim)
        return crowded, None if crowded else tuple(
            abs(determinant([list(P.normals[i]) for i in f])) for f in cones)
    p, _ = prime_power(q)  # validates q, which the kept table never sees
    crowded, dets = P.kept("vertex_determinants", None, build)
    if crowded:
        return HypothesisReport(q, p, False, None, crowded)
    offenders = tuple(v for v, d in zip(P.vertices, dets) if d % p == 0)
    return HypothesisReport(q, p, True, dets, offenders)


def require_hypotheses(P, q):
    """check_hypotheses, raising HypothesisError on any failure."""
    report = check_hypotheses(P, q)
    if not report.simple:
        v = report.offenders[0]
        n = len(P.faces_of_dim(0)[P.vertices.index(v)].facet_indices)
        raise HypothesisError(f"polytope is not simple: vertex {v} lies on {n} facets")
    if not report.ok:
        raise HypothesisError(
            f"characteristic {report.characteristic} divides the vertex "
            f"determinant at {report.offenders[0]}"
        )
    return report


def count_rational_points(P, q):
    """Rational points of the variety of P over a q-element field.

    One torus orbit of size (q-1)^k per k-face, so the count is
    sum over faces of (q-1)^dim. q is a field or a field size, checked
    as gf.field_size checks it.
    """
    q = field_size(q)
    return sum((q - 1) ** f.dim for f in P.faces)


def picard_invariants(P):
    """(free rank, torsion factors) of the class group of the variety.

    Computed from the Smith invariant factors of the facet normal
    matrix: free rank is #facets - dim, torsion collects the invariant
    factors exceeding 1.
    """
    factors = snf_invariant_factors([list(u) for u in P.normals])
    return len(P.normals) - P.dim, tuple(d for d in factors if d > 1)


@dataclass(frozen=True)
class Flag:
    """A maximal chain of faces with its straightening data.

    chain holds one face of each dimension 0..dim, ending at the
    polytope itself. Stack the normals of the facets through the base
    vertex, ordered so the first dim-j of them cut out the j-face, as
    A. With A T = H their Hermite form, inverse_transform is T^-1 with
    its rows reversed, and sends m - base_vertex to straightened
    coordinates. hnf_diagonal records the diagonal of H.
    """

    chain: tuple
    base_vertex: tuple
    inverse_transform: tuple
    hnf_diagonal: tuple

    def straighten(self, points):
        """Straightened coordinates of the rows of an int64 array of
        points, base vertex at 0: (points - base_vertex) @ inverse^T. The
        map is affine on all of Z^N; for a point on the j-face of the
        chain, all but the first j coordinates are zero."""
        return (points - np.array(self.base_vertex)) @ np.array(self.inverse_transform).T


def flag_for_chain(P, chain):
    """Straightening data for a maximal chain of faces of P.

    chain must hold one face of each dimension 0..dim, each a subface
    of the next, ending at P itself.
    """
    chain = tuple(chain)
    if len(chain) != P.dim + 1 or any(f.dim != d for d, f in enumerate(chain)):
        raise ValueError("chain must hold one face of each dimension")
    for small, big in zip(chain, chain[1:]):
        if any(i not in small.facet_indices for i in big.facet_indices):
            raise ValueError("chain faces are not nested")
    if chain[-1].facet_indices != ():
        raise ValueError("chain must end at the polytope itself")
    n = P.dim
    order = []
    for big, small in zip(chain[:0:-1], chain[-2::-1]):
        dropped = [i for i in small.facet_indices if i not in big.facet_indices]
        if len(dropped) != 1:
            raise HypothesisError("chain does not peel one facet per step")
        order += dropped
    A = [list(P.normals[f]) for f in order]
    H, _ = _hermite(A)  # A is nonsingular: each peeled facet drops one dimension
    inverse = []  # T^-1 = H^-1 A, row by row by forward substitution
    for i, (h, a) in enumerate(zip(H, A)):
        for c, row in zip(h, inverse):
            a = [x - c * y for x, y in zip(a, row)]
        inverse.append(tuple(x // h[i] for x in a))
    base = P.vertices[chain[0].vertex_indices[0]]
    return Flag(chain, base, tuple(inverse[::-1]), tuple(H[i][i] for i in range(n)))


def build_flags(P, reverse=False):
    """A deterministic list of flags whose chains cover every face.

    One greedy sweep over face indices in canonical order, by vertex
    index tuple (reversed with reverse=True): each vertex, then each
    face still uncovered, starts a chain. Going down and then up from
    the start, each step takes the first face of the next dimension
    that the incidence table admits, an uncovered one if there is one.
    A chain from a vertex holds no other vertex, so every vertex starts
    one. The reverse sweep generally yields a different cover;
    comparing the two checks that downstream results do not depend on
    the choice. P keeps each cover, and every call returns a new list.

    On a polygon the cover is the boundary walk from the first vertex
    towards its smaller neighbour (larger, with reverse), one flag per
    vertex holding the edge to the next: with vertices indexed
    lexicographically the boundary is two index-monotone chains from
    vertex 0 to vertex r-1; on one chain every vertex takes the edge to
    its larger neighbour, on the other the edge to its smaller one, and
    vertex r-1 takes the one edge still uncovered.
    """
    if not P.is_simple():
        raise HypothesisError("flags require a simple polytope")
    # keyed with the type, as sorted refuses reverse=1.0, which == True
    return list(P.kept("flag_covers", (reverse, type(reverse)), lambda: _cover(P, reverse)))


def _cover(P, reverse):
    faces = P.faces
    inside = face_incidence(faces)
    down, up = inside.T.tolist(), inside.tolist()  # down[b][a] == up[a][b]: a lies in b
    order = sorted(range(len(faces)), key=lambda i: faces[i].vertex_indices, reverse=reverse)
    by_dim = [[i for i in order if faces[i].dim == d] for d in range(P.dim + 1)]
    covered = np.zeros(len(faces), dtype=bool)
    flags = []
    for start in by_dim[0] + order:
        if covered[start]:
            continue
        s = faces[start].dim
        chain = {s: start}
        for d in (*range(s - 1, -1, -1), *range(s + 1, P.dim + 1)):
            admits = down[chain[d + 1]] if d < s else up[chain[d - 1]]
            cands = [i for i in by_dim[d] if admits[i]]
            chain[d] = next((i for i in cands if not covered[i]), cands[0])
        chain = [chain[d] for d in range(P.dim + 1)]
        covered[chain] = True
        flags.append(flag_for_chain(P, [faces[i] for i in chain]))
    return tuple(flags)


def flag_assignment(P, flags):
    """Map each face of P to the first flag whose chain contains it."""
    assign = {f: fl for fl in reversed(flags) for f in fl.chain}
    if missing := [f for f in P.faces if f not in assign]:
        raise ValueError(f"no flag covers the face {missing[0].vertex_indices}")
    return assign
