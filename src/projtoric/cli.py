"""Command-line front end.

Reads polytope documents (JSON), runs the constructions, and emits
matrices and parameter reports. Exit codes: 0 success, 1 verification
failure, 2 validation error, 3 hypothesis failure or no surjective
dilate up to the cap, 4 budget refusal: an exhaustive search over its
budget, or an array too large to allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from functools import cache

from .code import NO_DILATE, OrderSpec, _integer, bounds_over_orders, dimension, find_surjective_dilate
from .code import generator_matrix, stock_orders, subcode_matrix, verify_ledger
from .gf import GF, FieldError
from .oracle import BudgetExceededError
from .polytope import Polytope, PolytopeError
from .variety import HypothesisError, check_hypotheses, count_rational_points
from .variety import picard_invariants, require_hypotheses


def _integers(values, what):
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return tuple(_integer(x, what) for x in values)


def load_document(path):
    """The polytope of a JSON document, all of whose numbers must be
    integers, and the document itself. A facets list, when present and
    nonempty, is checked against the vertices; [] means their hull."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), list):
        raise ValueError("polytope document has no vertex list")
    vertices = [_integers(v, "vertex") for v in doc["vertices"]]
    facets = doc.get("facets", [])
    if not isinstance(facets, list) or not all(isinstance(f, dict) for f in facets):
        raise ValueError("facets must be a list of {normal, offset} objects")
    if facets:
        normals = [_integers(f["normal"], "facet normal") for f in facets]
        offsets = [_integer(f["offset"], "facet offset") for f in facets]
        P = Polytope.from_vrep_hrep(vertices, normals, offsets)
    else:
        P = Polytope.from_vertices(vertices)
    if "dim" in doc and _integer(doc["dim"], "dim") != P.dim:
        raise ValueError(f"document says dim {doc['dim']}, polytope has dim {P.dim}")
    return P, doc


def parse_order(text):
    if text == "lex":
        return OrderSpec.lex()
    if text == "grlex":
        return OrderSpec.grlex()
    if text.startswith("permlex:"):
        return OrderSpec.permlex(int(x) for x in text.split(":", 1)[1].split(","))
    if text.startswith("wlex:"):
        return OrderSpec.wlex(int(x) for x in text.split(":", 1)[1].split(","))
    raise ValueError(f"unknown order {text!r}")


def parse_point_list(text):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            points.append(tuple(int(x) for x in chunk.split(",")))
    return points


def _field_from(args, doc):
    q = args.q if args.q is not None else doc.get("q")
    if q is None:
        raise ValueError("no field size: pass --q or put q in the document")
    return GF(_integer(q, "q"))


def _order_from(args, doc, P, lam_max):
    """The order of --order, else of the document, else None. Raises
    ValueError when the order does not fit the points of lam*P for
    every lam <= lam_max, whose |x_i| are at most lam_max max |v_i|."""
    if args.order is not None:
        text = args.order
    elif "order" in doc:
        text = doc["order"]
        if not isinstance(text, str):
            raise ValueError(f"order must be a string, got {text!r}")
    else:
        return None
    order = parse_order(text)
    order.require_fit([lam_max * max(map(abs, axis)) for axis in zip(*P.vertices)])
    return order


def _lambda_max_from(args, doc):
    if args.lambda_max is not None:
        lam_max = args.lambda_max
    elif "lambda_max" in doc:
        lam_max = _integer(doc["lambda_max"], "lambda_max")
    else:
        return 16
    if lam_max < 1:
        raise ValueError(f"lambda_max must be at least 1, got {lam_max}")
    return lam_max


def _emit_matrix(entries, meta, fmt):
    if fmt == "csv":
        for row in entries:
            print(",".join(str(x) for x in row))
    else:
        payload = dict(meta)
        payload["entries"] = entries
        print(json.dumps(payload, indent=2))


def cmd_info(args):
    P, doc = load_document(args.polytope)
    field = _field_from(args, doc)
    report = check_hypotheses(P, field.q)
    by_dim = Counter(f.dim for f in P.faces)
    rank, torsion = picard_invariants(P)
    # all that can refuse runs before the first print: exit 2 leaves stdout empty
    n = count_rational_points(P, field.q)
    k = dimension(P, field) if report.ok else "unavailable (hypotheses fail)"
    print(f"polytope: dimension {P.dim}, {len(P.vertices)} vertices, {len(P.faces)} faces")
    print("facets:")
    for u, a in zip(P.normals, P.offsets):
        print(f"  u={u} a={a}")
    print("faces by dimension: " + " ".join(f"{d}:{by_dim[d]}" for d in sorted(by_dim)))
    print(f"picard rank {rank}, torsion " + (",".join(map(str, torsion)) if torsion else "none"))
    print(f"q = {field.q} (characteristic {report.characteristic})")
    print("H1 (simple): " + ("pass" if report.simple else "FAIL"))
    if report.simple:
        dets = ",".join(str(d) for d in report.determinants)
        print(f"vertex |det|: {dets}")
        if report.ok:
            print("H2 (determinants prime to q): pass")
        else:
            det = dict(zip(P.vertices, report.determinants))
            bad = ", ".join(f"|det|={det[v]} at vertex {v}" for v in report.offenders)
            print(f"H2 (determinants prime to q): FAIL {bad}")
    else:
        off = ", ".join(str(v) for v in report.offenders)
        print(f"offending vertices: {off}")
    print(f"n = {n}")
    print(f"k = {k}")
    return 0


def cmd_matrix(args):
    P, doc = load_document(args.polytope)
    field = _field_from(args, doc)
    M = generator_matrix(P, field)
    meta = {
        "q": field.q,
        "shape": list(M.shape),
        "row_points": M.row_points.tolist(),
        "block_widths": list(M.block_widths),
    }
    _emit_matrix(M.codes.tolist(), meta, args.format)
    return 0


def cmd_dim(args):
    P, doc = load_document(args.polytope)
    field = _field_from(args, doc)
    print(dimension(P, field))
    return 0


def cmd_bound(args):
    P, doc = load_document(args.polytope)
    field = _field_from(args, doc)
    lam_max = _lambda_max_from(args, doc)
    order = _order_from(args, doc, P, lam_max)
    require_hypotheses(P, field.q)
    lam = find_surjective_dilate(P, field, lam_max)
    if lam is None:
        print(f"no surjective dilate up to {lam_max}", file=sys.stderr)
        return 3
    print(f"lambda = {lam}")
    orders = stock_orders(P.dim) if order is None else [order]
    bounds = bounds_over_orders(P, P.dilate(lam), field, orders)
    for details in bounds:
        print(f"bound[{details.order.name}] = {details.bound}")
    best = max(bounds, key=lambda d: d.bound)
    print(f"best = {best.bound} ({best.order.name})")
    return 0


def cmd_verify(args):
    if args.budget < 0 or args.seed < 0:  # before the first ledger line
        raise ValueError(f"--budget and --seed must be nonnegative, got {args.budget}, {args.seed}")
    P, doc = load_document(args.polytope)
    field = _field_from(args, doc)
    lam_max = _lambda_max_from(args, doc)
    order = _order_from(args, doc, P, lam_max)
    M = generator_matrix(P, field)
    if args.inject_corruption:
        if M.codes.all():
            raise ValueError("matrix has no structural zero to corrupt")
        codes = M.codes.copy()
        codes.flat[codes.argmin()] = 1  # the first zero in row-major order
        M = dataclasses.replace(M, codes=codes)
    records = []
    for record in verify_ledger(P, M, order, lam_max, args.budget, args.seed, args.require_distance):
        print(record)
        records.append(record)
    return 1 if any(r.ok is False for r in records) else 3 if NO_DILATE in records else 0


def cmd_subcode(args):
    P, doc = load_document(args.polytope)
    field = _field_from(args, doc)
    M = generator_matrix(P, field)
    rows = parse_point_list(args.rows) if args.rows else None
    if args.cols is None or args.cols == "all":
        cols = None
    elif args.cols == "torus":
        cols = M.torus_columns()
    else:
        cols = [int(x) for x in args.cols.split(",")]
    sub = subcode_matrix(M, rows, cols)
    meta = {
        "q": field.q,
        "shape": [len(sub), len(sub[0])],
        "rows": M.row_points.tolist() if rows is None else [list(m) for m in rows],
    }
    _emit_matrix(sub, meta, args.format)
    return 0


@cache  # one parser per process: parse_args leaves it as it was
def build_parser():
    parser = argparse.ArgumentParser(
        prog="projtoric",
        description="evaluation codes of lattice polytopes over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=False, bound_options=False):
        p.add_argument("--polytope", required=True, help="polytope document (JSON)")
        p.add_argument("--q", type=int, default=None, help="field size, overrides the document")
        if bound_options:
            p.add_argument("--order", default=None, help="lex | grlex | permlex:P | wlex:W")
            p.add_argument("--lambda-max", dest="lambda_max", type=int, default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("info", help="facets, faces, hypotheses, parameters"))
    common(sub.add_parser("matrix", help="emit the generator matrix"), fmt=True)
    common(sub.add_parser("dim", help="dimension of the code"))
    common(sub.add_parser("bound", help="distance lower bound per order"), bound_options=True)
    p = sub.add_parser("verify", help="run the oracle ledger")
    common(p, bound_options=True)
    p.add_argument("--budget", type=int, default=1 << 24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--require-distance", action="store_true")
    p.add_argument("--inject-corruption", action="store_true")
    p = sub.add_parser("subcode", help="emit a submatrix")
    common(p, fmt=True)
    p.add_argument("--rows", default=None, help="lattice points, e.g. '0,0;1,0'")
    p.add_argument("--cols", default=None, help="all | torus | comma-separated indices")
    return parser


def entry(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "matrix": cmd_matrix,
        "dim": cmd_dim,
        "bound": cmd_bound,
        "verify": cmd_verify,
        "subcode": cmd_subcode,
    }
    try:
        return handlers[args.command](args)
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 3
    except (BudgetExceededError, MemoryError) as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 4
    except (PolytopeError, FieldError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
