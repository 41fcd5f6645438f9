import random

import pytest

from projtoric import GF, Polytope, PolytopeError
from projtoric.variety import check_hypotheses


@pytest.fixture(scope="session")
def gf65536():
    # the largest supported field; building its tables takes about a second
    return GF(1 << 16)


@pytest.fixture
def segment01():
    return Polytope.from_vertices([(0,), (1,)])


@pytest.fixture
def toy_triangle():
    return Polytope.from_vertices([(0, 0), (1, 0), (-2, 3)])


@pytest.fixture
def quadrilateral():
    return Polytope.from_vertices([(0, 0), (2, 0), (3, 2), (0, 3)])


@pytest.fixture
def unit_square():
    return Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.fixture
def hirzebruch():
    # trapezoid of a Hirzebruch-type surface, heights 3 and 7 over width 2
    return Polytope.from_vertices([(0, 0), (2, 0), (2, 3), (0, 7)])


@pytest.fixture
def cube():
    return Polytope.from_vertices(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    )


def build_polygon_corpus(size=200, seed=0):
    """Random lattice polygons with vertices in [-5,5]^2, each paired
    with the first field size in a rotating {3,4,5,7} schedule that
    passes both hypotheses."""
    rng = random.Random(seed)
    qs = (3, 4, 5, 7)
    corpus = []
    while len(corpus) < size:
        npts = rng.randint(3, 7)
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(npts)]
        try:
            P = Polytope.from_vertices(pts)
        except PolytopeError:
            continue
        start = len(corpus) % len(qs)
        rotation = qs[start:] + qs[:start]
        q = next((qq for qq in rotation if check_hypotheses(P, qq).ok), None)
        if q is None:
            continue
        corpus.append((P, q))
    return corpus


@pytest.fixture(scope="session")
def polygon_corpus():
    return build_polygon_corpus()


def anchored(P):
    """Translate so the first vertex sits at the origin; all facet
    offsets become nonnegative, so dilates contain the polytope."""
    v0 = P.vertices[0]
    return Polytope.from_vertices(
        [tuple(x - y for x, y in zip(v, v0)) for v in P.vertices]
    )
