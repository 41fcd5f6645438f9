"""How much does the choice of term order move the distance bound?

Samples random lattice polygons, computes the bound under every stock
order plus a few weight orders, and tallies how often each order is
strictly ahead of lex. Exhaustive distances are added where the message
space is small enough, to show the slack of the best bound.
"""

import argparse
import random
from dataclasses import dataclass, field as dfield

from projtoric import (
    GF,
    OrderSpec,
    Polytope,
    PolytopeError,
    check_hypotheses,
    distance_lower_bound,
    find_surjective_dilate,
    generator_matrix,
    min_distance_exhaustive,
    projective_reduction,
    stock_orders,
)


@dataclass
class Config:
    count: int = 100
    seed: int = 0
    box: int = 5
    qs: tuple = (3, 4, 5, 7)
    lambda_max: int = 16
    exhaustive_budget: int = 1 << 22
    extra_weights: tuple = ((1, 2), (2, 1), (1, 3))


@dataclass
class Tally:
    polygons: int = 0
    beats_lex: dict = dfield(default_factory=dict)
    ties: int = 0
    exact: int = 0
    compared: int = 0


def sample_polygons(cfg):
    rng = random.Random(cfg.seed)
    produced = 0
    while produced < cfg.count:
        pts = [
            (rng.randint(-cfg.box, cfg.box), rng.randint(-cfg.box, cfg.box))
            for _ in range(rng.randint(3, 7))
        ]
        try:
            P = Polytope.from_vertices(pts)
        except PolytopeError:
            continue
        # anchor at the first vertex so dilates contain the polygon
        v0 = P.vertices[0]
        P = Polytope.from_vertices(
            [tuple(a - b for a, b in zip(v, v0)) for v in P.vertices]
        )
        q = next(
            (qq for qq in cfg.qs if check_hypotheses(P, qq).ok), None
        )
        if q is None:
            continue
        produced += 1
        yield P, q


def run(cfg):
    orders = stock_orders(2) + [
        OrderSpec.wlex(w) for w in cfg.extra_weights
    ]
    tally = Tally(beats_lex={o.name: 0 for o in orders[1:]})
    for P, q in sample_polygons(cfg):
        fieldq = GF(q)
        lam = find_surjective_dilate(P, fieldq, lambda_max=cfg.lambda_max)
        if lam is None:
            continue
        big = P.dilate(lam)
        bounds = {
            o.name: distance_lower_bound(P, big, fieldq, o) for o in orders
        }
        tally.polygons += 1
        lex = bounds["lex"]
        best = max(bounds.values())
        for name, b in bounds.items():
            if name != "lex" and b > lex:
                tally.beats_lex[name] += 1
        if best == lex:
            tally.ties += 1
        k = len(projective_reduction(P, fieldq).representatives)
        if q ** k <= cfg.exhaustive_budget:
            M = generator_matrix(P, fieldq)
            d = min_distance_exhaustive(M.codes, fieldq)
            assert best <= d, f"bound {best} exceeds the distance {d}: {P.vertices} over F{q}"
            tally.compared += 1
            if best == d:
                tally.exact += 1
    return tally


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=Config.count)
    ap.add_argument("--seed", type=int, default=Config.seed)
    ap.add_argument("--box", type=int, default=Config.box)
    args = ap.parse_args()
    cfg = Config(count=args.count, seed=args.seed, box=args.box)

    tally = run(cfg)
    print(f"polygons with a surjective dilate: {tally.polygons}")
    print(f"lex already best: {tally.ties}")
    for name, wins in sorted(tally.beats_lex.items()):
        print(f"strictly beats lex [{name}]: {wins}")
    if tally.compared:
        print(
            f"best bound equals the true distance on "
            f"{tally.exact}/{tally.compared} exhaustively checked codes"
        )


if __name__ == "__main__":
    main()
