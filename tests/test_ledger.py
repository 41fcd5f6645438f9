"""One sha256 over every record of verify_ledger on four sets: the
anchored 200-polygon corpus, the anchored 24-case 3D suite, the anchored
24-case 4D/5D suite, and each data document over its own q and
lambda_max. Every case runs with the defaults: lex order, budget 2^24,
seed 0.

Each case gives one line, json.dumps of its list of records, each record
[label, ok, values, detail], and a newline; a document that fails the
hypotheses gives the message of its HypothesisError instead. The digest
was frozen from verify's own call sequence before that sequence moved
from the command line into verify_ledger, so it holds the records of
every later change to the bound, the dilate search or an oracle to what
verify printed then. Only the random upper bounds were frozen again,
when their coefficient rows stopped reproducing random.randrange's
draws; every other value is as verify printed it. Its random upper
bounds and exhaustive distances are float products; they must be exact
however BLAS splits them.
Beside the pin, the ledger refuses a bad limit before its first record.
"""

import hashlib
import json
from pathlib import Path

import pytest

from projtoric import GF, HypothesisError, generator_matrix, verify_ledger
from projtoric.cli import load_document

from conftest import anchored
from test_acceptance import random_3d_corpus
from test_high_dim import high_dim_corpus

DATA = Path(__file__).resolve().parent.parent / "data"

DIGEST = "34551b9bd7a06c5d7b405388c46b8fb2bc3616557c5a1d41a52e75e8414be1e2"


def _cases(polygon_corpus):
    for P, q in polygon_corpus + random_3d_corpus(24, seed=3):
        yield anchored(P), q, 16
    for _, P, q, _ in high_dim_corpus():
        yield anchored(P), q, 16
    for path in sorted(DATA.glob("*.json")):
        P, doc = load_document(path)
        yield P, doc["q"], doc.get("lambda_max", 16)


def _records(P, q, lambda_max):
    try:
        M = generator_matrix(P, GF(q))
    except HypothesisError as exc:
        return str(exc)
    return list(verify_ledger(P, M, lambda_max=lambda_max))


def test_ledger_sha256_pinned(polygon_corpus):
    h = hashlib.sha256()
    for case in _cases(polygon_corpus):
        h.update((json.dumps(_records(*case)) + "\n").encode())
    assert h.hexdigest() == DIGEST


@pytest.mark.parametrize("limit", [{"budget": -1}, {"budget": True}, {"budget": 2.5}, {"seed": -1},
                                   {"lambda_max": 0}, {"lambda_max": True}])
def test_ledger_refuses_a_bad_limit_before_any_record(toy_triangle, limit):
    # budget=-1 read as "over budget" and skipped the exhaustive distance
    M = generator_matrix(toy_triangle, GF(4))
    (what, _), = limit.items()
    with pytest.raises(ValueError, match=f"{what} must be "):
        next(verify_ledger(toy_triangle, M, **limit))
