"""Walk the full pipeline on the triangle Conv((0,0),(1,0),(-2,3)) over F4.

Prints every intermediate object and verify_ledger's checks, ending with
the [21, 5, 8] parameters, and exits 1 when a check fails.
"""

from projtoric import (
    GF,
    OrderSpec,
    Polytope,
    bounds_over_orders,
    build_flags,
    check_hypotheses,
    count_rational_points,
    dimension,
    find_surjective_dilate,
    generator_matrix,
    projective_reduction,
    verify_ledger,
)


def main():
    P = Polytope.from_vertices([(0, 0), (1, 0), (-2, 3)])
    field = GF(4)

    print("polytope")
    print(f"  vertices: {P.vertices}")
    for u, a in zip(P.normals, P.offsets):
        print(f"  facet: <m, {u}> >= {-a}")

    report = check_hypotheses(P, field.q)
    print(f"hypotheses over F{field.q}")
    print(f"  simple: {report.simple}")
    print(f"  vertex |det|: {report.determinants}")
    print(f"  offenders: {report.offenders or 'none'}")

    n = count_rational_points(P, field.q)
    print(f"rational points of the variety: n = {n}")

    for flag in build_flags(P):
        print(f"flag at {flag.base_vertex}: hnf diagonal {flag.hnf_diagonal}")

    red = projective_reduction(P, field)
    print(f"reduced points ({len(red.representatives)}): {red.representatives.tolist()}")
    k = dimension(P, field)

    M = generator_matrix(P, field)
    print(f"generator matrix: {M.shape[0]} x {M.shape[1]}, "
          f"block widths {M.block_widths}")
    for row in M.codes.tolist():
        print("  " + " ".join(f"{x}" for x in row))

    lam = find_surjective_dilate(P, field, lambda_max=10)
    print(f"smallest surjective dilate: {lam}P")
    (details,) = bounds_over_orders(P, P.dilate(lam), field, [OrderSpec.lex()])
    print(f"survivor counts per reduced point: {details.counts.tolist()}")
    print(f"distance bound: {details.bound}, "
          f"attained at {details.attained_at().tolist()}")

    ledger = {r.label: r for r in verify_ledger(P, M, lambda_max=10)}
    print("ledger:\n" + "\n".join(f"  {r}" for r in ledger.values()))
    d, _ = ledger["true distance below upper"].values
    print(f"code parameters: [{n}, {k}, {d}] over F{field.q}")
    return 1 if any(r.ok is False for r in ledger.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
