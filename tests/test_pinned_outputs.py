"""Two sha256 digests: one over the outputs of the matrix and the
distance bound, one over the flag covers.

For every case, the 200-polygon corpus and the 3D suite (both anchored,
so every dilate contains the polytope) and every data document over its
own q, the digest takes the dimension k, the row points, the matrix
bytes, the surjective factor lambda with a cap of 4q, and for each stock
order its name, bound, reduced points, survivor counts and the points
attaining the bound. A document that fails the hypotheses gives None
for k, the rows and the matrix; its bounds are still taken.

Each value is serialized as json.dumps(np.asarray(value).tolist()), the
same bytes for a tuple of tuples and for an integer array, so the digest
holds whichever of the two the package returns. It was frozen before the
bound path and the matrix bookkeeping moved from tuples to arrays.

FLAG_DIGEST takes, over the same cases and for both directions of
build_flags, each flag's chain as indices into P.faces, its base vertex,
inverse transform and HNF diagonal, then flag_assignment as the index
of each face's flag, in face order. It was frozen before the flag cover
was rebuilt over the face-incidence table.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from projtoric.cli import load_document
from projtoric.code import bounds_over_orders, dimension, find_surjective_dilate, generator_matrix
from projtoric.gf import GF
from projtoric.variety import build_flags, check_hypotheses, flag_assignment

from conftest import anchored
from test_acceptance import random_3d_corpus

DATA = Path(__file__).resolve().parent.parent / "data"

FLAG_DIGEST = "b52be911874375a4c5324b9f9675e6e4419d9b10bdd88168d52860470c79e358"
DIGEST = "e22b3748a4459a44f2ba3990c60e9f391d8bfcedf35f9cac40de363683593535"


def _cases(polygon_corpus):
    for P, q in polygon_corpus + random_3d_corpus(24, seed=3):
        yield anchored(P), q
    for path in sorted(DATA.glob("*.json")):
        P, doc = load_document(path)
        yield P, doc["q"]


def _outputs(P, q):
    field = GF(q)
    if check_hypotheses(P, q).ok:
        M = generator_matrix(P, field)
        yield dimension(P, field)
        yield M.row_points
        yield M.codes.astype("<u2").tobytes().hex()
    else:
        yield from (None, None, None)
    lam = find_surjective_dilate(P, field, 4 * q)
    yield lam
    if lam is not None:
        for d in bounds_over_orders(P, P.dilate(lam), field):
            yield from (d.order.name, d.bound, d.reduced, d.counts, d.attained_at())


def test_bound_path_outputs_sha256_pinned(polygon_corpus):
    h = hashlib.sha256()
    for P, q in _cases(polygon_corpus):
        for value in _outputs(P, q):
            h.update(json.dumps(np.asarray(value).tolist()).encode())
    assert h.hexdigest() == DIGEST


def _flag_outputs(P):
    for reverse in (False, True):
        flags = build_flags(P, reverse=reverse)
        for fl in flags:
            yield [P.faces.index(f) for f in fl.chain]
            yield from (fl.base_vertex, fl.inverse_transform, fl.hnf_diagonal)
        index = {id(fl): i for i, fl in enumerate(flags)}
        assign = flag_assignment(P, flags)
        yield [index[id(assign[f])] for f in P.faces]


def test_flag_covers_sha256_pinned(polygon_corpus):
    h = hashlib.sha256()
    for P, _ in _cases(polygon_corpus):
        for value in _flag_outputs(P):
            h.update(json.dumps(np.asarray(value).tolist()).encode())
    assert h.hexdigest() == FLAG_DIGEST
