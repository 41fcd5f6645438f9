"""The four benchmark workloads: inputs from a seed, one call per case,
and the checks on every output.

Each workload builds a fixed pass of cases from its seed. A case calls
into the projtoric package through module attributes (`code.dimension`,
not a name bound at import), so that the tracer's wrappers see the
calls. `run` returns the raw outputs; `check` turns them into a summary
that is compared with the frozen reference and returns the problems
found, empty when the case is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from projtoric import cli, code, gf, oracle, polytope, variety

from tracer import class_count, rational_points

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
CORPUS_SEED = 0  # the seed of the test suite's polygon corpus

BUDGET = 1 << 24  # exhaustive-distance budget in codewords, passed explicitly
RANDOM_ITERATIONS = 200
CLI_LAMBDA_MAX = 32


@dataclass
class Case:
    label: str
    data: dict = field(default_factory=dict)


def digest(entries):
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def _orders(P):
    return code.stock_orders(P.dim)


def _polytope(points):
    return polytope.Polytope.from_vertices(points)


def placed(P, rng):
    """P translated so that a seeded lattice point of P sits at the
    origin. All facet offsets become nonnegative, so dilates contain the
    polytope. Translation changes no output (k, lambda, bounds, distance
    and the straightened matrix entries) and no amount of work, so every
    seed asks for the same work while the package sees new coordinates."""
    p = rng.choice(P.lattice_points)
    return _polytope([tuple(x - y for x, y in zip(v, p)) for v in P.vertices])


def _warm(P):
    # faces and lattice points are cached on the polytope; filling them
    # here keeps that work in set-up, where the library users pay it
    P.faces
    P.lattice_points
    return P


# ---------------------------------------------------------------- sweep


def build_polygon_corpus(size=200, seed=0):
    """Random lattice polygons with vertices in [-5,5]^2, each paired
    with the first field size in a rotating {3,4,5,7} schedule that
    passes both hypotheses. The recipe of the test suite's corpus."""
    rng = random.Random(seed)
    qs = (3, 4, 5, 7)
    corpus = []
    while len(corpus) < size:
        npts = rng.randint(3, 7)
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(npts)]
        try:
            P = _polytope(pts)
        except polytope.PolytopeError:
            continue
        start = len(corpus) % len(qs)
        rotation = qs[start:] + qs[:start]
        q = next((qq for qq in rotation if variety.check_hypotheses(P, qq).ok), None)
        if q is None:
            continue
        corpus.append((P, q))
    return corpus


# Indices into the test suite's corpus of the polygons whose ledger time,
# measured when this benchmark was written, sits at the (i + 0.5)/30
# quantiles: a pass has the cost profile of the whole 200-polygon corpus
# (about 100 s on a 2-CPU Xeon) in about 12 s, one near-budget
# exhaustive case included.
SWEEP = (
    0, 8, 15, 22, 28, 31, 35, 39, 59, 62, 63, 65, 66, 68, 69,
    88, 90, 94, 105, 114, 116, 126, 130, 132, 141, 154, 178, 179, 187, 191,
)
SWEEP_TINY = (4, 52, 156)  # the three cheapest


def sweep_cases(seed, tiny=False):
    corpus = build_polygon_corpus(200, CORPUS_SEED)
    rng = random.Random(seed)
    cases = []
    for i in SWEEP_TINY if tiny else SWEEP:
        P, q = corpus[i]
        cases.append(Case(f"p{i:03d}/F{q}", dict(P=_warm(placed(P, rng)), F=gf.GF(q), q=q)))
    rng.shuffle(cases)
    return cases


def sweep_run(case):
    P, F, q = case.data["P"], case.data["F"], case.data["q"]
    M = code.generator_matrix(P, F)
    k = len(code.projective_reduction(P, F).representatives)
    rank = oracle.rank_gf(M.entries, F)
    uf = oracle.reduction_class_count_unionfind(P, F)
    violations = M.structural_violations()
    lam = code.find_surjective_dilate(P, F, 4 * q)
    bounds = best = None
    if lam is not None:
        B = P.dilate(lam)
        bounds = [code.distance_lower_bound(P, B, F, o) for o in _orders(P)]
        best = code.best_bound_over_orders(P, B, F, _orders(P))[0]
    upper = oracle.min_weight_random_upper(M.entries, F, RANDOM_ITERATIONS, 0)
    d = None
    if q**rank <= BUDGET:
        d = oracle.min_distance_exhaustive(M.entries, F, BUDGET)
    return dict(
        M=M, k=k, rank=rank, uf=uf, violations=len(violations), lam=lam,
        bounds=bounds, best=best, upper=upper, d=d,
    )


def sweep_check(case, out, reference):
    s = {key: out[key] for key in ("k", "lam", "bounds", "d")}
    s["sha"] = digest(out["M"].entries)
    problems = []
    if not out["rank"] == out["k"] == out["uf"]:
        problems.append(f"rank {out['rank']}, dimension {out['k']}, union-find {out['uf']}")
    if out["violations"]:
        problems.append(f"{out['violations']} structural violations")
    if out["lam"] is None:
        problems.append(f"no surjective dilate up to {4 * case.data['q']}")
    else:
        if out["best"] != max(out["bounds"]):
            problems.append(f"best bound {out['best']} is not the best of {out['bounds']}")
        if out["d"] is not None and out["best"] > out["d"]:
            problems.append(f"bound {out['best']} exceeds the distance {out['d']}")
        if out["best"] > out["upper"]:
            problems.append(f"bound {out['best']} exceeds the random upper bound {out['upper']}")
    if out["d"] is not None and out["d"] > out["upper"]:
        problems.append(f"distance {out['d']} exceeds the random upper bound {out['upper']}")
    return s, problems + _against(reference, case.label, s)


# -------------------------------------------------------------- certify

SHAPES = {
    "toy": [(0, 0), (1, 0), (-2, 3)],
    "square": [(0, 0), (1, 0), (0, 1), (1, 1)],
    "tri2": [(0, 0), (2, 0), (0, 2)],
    "quad": [(0, 0), (2, 0), (3, 2), (0, 3)],
    "trap": [(0, 0), (3, 0), (2, 1), (0, 1)],
    "pent": [(0, 0), (2, 0), (3, 1), (1, 3), (0, 2)],
    "hex": [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    "cube": [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "simplex": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "prism": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)],
    "box2": [(x, y, z) for x in (0, 2) for y in (0, 1) for z in (0, 1)],
}

# Fixed shapes, two per field, polygons over q in {8,...,31} and 3D
# polytopes over q in {5,...,11}; every pair passes both hypotheses.
# Random shapes would make the dilate search of a pass vary twofold
# between seeds; placing fixed shapes keeps the work equal.
CERTIFY = (
    ("toy", 8), ("hex", 8), ("square", 9), ("pent", 9), ("quad", 11), ("trap", 11),
    ("tri2", 13), ("pent", 13), ("toy", 16), ("hex", 16), ("square", 25), ("trap", 25),
    ("tri2", 27), ("square", 27), ("toy", 31), ("tri2", 31),
    ("simplex", 5), ("box2", 5), ("prism", 7), ("cube", 7), ("cube", 8), ("prism", 8),
    ("box2", 9), ("prism", 9), ("cube", 11), ("box2", 11),
)
CERTIFY_TINY = (("square", 8), ("cube", 5))


def certify_cases(seed, tiny=False):
    rng = random.Random(seed)
    cases = []
    for name, q in CERTIFY_TINY if tiny else CERTIFY:
        A = placed(_polytope(SHAPES[name]), rng)
        cases.append(Case(f"{name}/F{q}", dict(A=_warm(A), F=gf.GF(q), q=q)))
    rng.shuffle(cases)
    return cases


def certify_run(case):
    A, F, q = case.data["A"], case.data["F"], case.data["q"]
    k = code.dimension(A, F)
    lam = code.find_surjective_dilate(A, F, 4 * q)
    best = order = None
    if lam is not None:
        best, order = code.best_bound_over_orders(A, A.dilate(lam), F, _orders(A))
    return dict(k=k, lam=lam, best=best, order=order and order.name)


def certify_check(case, out, reference):
    A, q = case.data["A"], case.data["q"]
    problems = []
    k = class_count(A, q)
    if out["k"] != k:
        problems.append(f"dimension {out['k']}, class count {k}")
    if out["lam"] is None:
        problems.append(f"no surjective dilate up to {4 * q}")
    else:
        n = rational_points(A, q)
        if not 1 <= out["best"] <= n - k + 1:
            problems.append(f"bound {out['best']} outside [1, n-k+1] = [1, {n - k + 1}]")
    return dict(out), problems + _against(reference, case.label, out)


# ---------------------------------------------------------------- scale

SCALE = (("cube", 4, 16), ("hirzebruch", 10, 31), ("toy", 1, 257), ("square", 1, 257))
SCALE_TINY = (("cube", 1, 4), ("hirzebruch", 1, 7), ("toy", 1, 5), ("square", 1, 3))
HIRZEBRUCH = [(0, 0), (2, 0), (2, 3), (0, 7)]


def scale_cases(seed, tiny=False):
    # The order stays fixed: which large matrices meet in memory, and so
    # the peak resident size, depends on it.
    rng = random.Random(seed)
    cases = []
    for name, factor, q in SCALE_TINY if tiny else SCALE:
        base = _polytope(HIRZEBRUCH if name == "hirzebruch" else SHAPES[name])
        P = placed(base.dilate(factor), rng)
        cases.append(Case(f"{name}x{factor}/F{q}", dict(P=_warm(P), F=gf.GF(q))))
    return cases


def scale_run(case):
    P, F = case.data["P"], case.data["F"]
    M = code.generator_matrix(P, F)
    return dict(
        M=M,
        k=code.dimension(P, F),
        rank=oracle.rank_gf(M.entries, F),
        uf=oracle.reduction_class_count_unionfind(P, F),
        violations=len(M.structural_violations()),
    )


def scale_check(case, out, reference):
    s = dict(k=out["k"], shape=list(out["M"].shape), sha=digest(out["M"].entries))
    problems = []
    if not out["rank"] == out["k"] == out["uf"]:
        problems.append(f"rank {out['rank']}, dimension {out['k']}, union-find {out['uf']}")
    if out["violations"]:
        problems.append(f"{out['violations']} structural violations")
    return s, problems + _against(reference, case.label, s)


# ------------------------------------------------------------------ cli

CLI_FILES = (
    "cube.json", "hirzebruch_232.json", "quadrilateral.json",
    "segment01.json", "toy_triangle.json", "unit_square.json",
)
CLI_TINY = ("segment01.json", "quadrilateral.json")


def cli_argvs(path):
    p = str(path)
    lam = str(CLI_LAMBDA_MAX)
    return {
        "info": ["info", "--polytope", p],
        "dim": ["dim", "--polytope", p],
        "bound": ["bound", "--polytope", p, "--lambda-max", lam],
        "verify": ["verify", "--polytope", p, "--lambda-max", lam, "--budget", str(BUDGET), "--seed", "0"],
        "matrix": ["matrix", "--polytope", p, "--format", "json"],
        "subcode": ["subcode", "--polytope", p, "--cols", "torus", "--format", "json"],
    }


def cli_cases(seed, tiny=False):
    cases = []
    for name in CLI_TINY if tiny else CLI_FILES:
        path = ROOT / "data" / name
        if not path.is_file():
            raise FileNotFoundError(f"{path} is missing")
        for sub, argv in cli_argvs(path).items():
            cases.append(Case(f"{sub} {name}", dict(argv=argv, file=name, sub=sub)))
    random.Random(seed).shuffle(cases)
    return cases


def call_cli(argv):
    """cli.entry in process, stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.entry(argv)
        except SystemExit as exc:
            status = exc.code
    return dict(status=status, stdout=out.getvalue(), stderr=err.getvalue())


def cli_run(case):
    return call_cli(case.data["argv"])


def parse_cli(sub, stdout):
    """The values a successful subcommand printed, by key."""
    lines = stdout.splitlines()
    if sub == "info":
        vals = dict(line.split(" = ", 1) for line in lines if line[:4] in ("n = ", "k = "))
        k = vals["k"]
        return dict(n=int(vals["n"]), k=int(k) if k.isdigit() else None)
    if sub == "dim":
        return dict(k=int(stdout.strip()))
    if sub == "bound":
        lam = lines[0].split(" = ", 1)[1]
        if lam.startswith("none"):
            return dict(lam=None)
        bounds = {}
        for line in lines[1:-1]:
            key, value = line.split(" = ")
            bounds[key[len("bound["):-1]] = int(value)
        best, best_order = lines[-1].split(" = ", 1)[1].split(" ", 1)
        return dict(lam=int(lam), bounds=bounds, best=[int(best), best_order.strip("()")])
    if sub == "verify":
        return dict(fails=[line for line in lines if line.startswith("FAIL")], checks=len(lines))
    doc = json.loads(stdout)
    matrix = dict(shape=doc["shape"], sha=digest(doc["entries"]))
    return matrix if sub == "matrix" else dict(torus=matrix)


def cli_check(case, out, reference):
    status = out["status"]
    s = dict(status=status)
    if status in (2, 3, 4):
        return s, []
    if status != 0:
        return s, [f"exit {status}: {out['stdout'][-200:]}{out['stderr'][-200:]}"]
    try:
        got = parse_cli(case.data["sub"], out["stdout"])
    except (ValueError, KeyError, IndexError) as exc:
        return s, [f"unparsable output ({exc!r}): {out['stdout'][:200]}"]
    s.update(got)
    if case.data["sub"] == "verify":
        return s, [f"exit 0 with {got['fails']}"] if got["fails"] or not got["checks"] else []
    ref = reference[case.data["file"]]
    problems = [
        f"{key} = {value!r}, library gives {ref.get(key)!r}"
        for key, value in got.items()
        if value != ref.get(key)
    ]
    return s, problems


def cli_reference(name):
    """Library values for one document: what each subcommand must print."""
    P, doc = cli.load_document(ROOT / "data" / name)
    F = gf.GF(int(doc["q"]))
    ok = variety.check_hypotheses(P, F.q).ok
    ref = dict(n=rational_points(P, F.q), k=code.dimension(P, F) if ok else None)
    lam = code.find_surjective_dilate(P, F, CLI_LAMBDA_MAX)
    ref["lam"] = lam
    if lam is not None:
        orders = _orders(P)
        B = P.dilate(lam)
        ref["bounds"] = {o.name: code.distance_lower_bound(P, B, F, o) for o in orders}
        best, order = code.best_bound_over_orders(P, B, F, orders)
        ref["best"] = [best, order.name]
    if ok:
        M = code.generator_matrix(P, F)
        ref["shape"] = list(M.shape)
        ref["sha"] = digest(M.entries)
        torus = code.subcode_matrix(M, None, M.torus_columns())
        ref["torus"] = dict(shape=[len(torus), len(torus[0])], sha=digest(torus))
    return ref


# -------------------------------------------------------------- common


def _against(reference, label, summary):
    """Differences from the frozen outputs of the case; none while
    freezing, when there is no reference yet."""
    if reference is None:
        return []
    ref = reference.get(label)
    if ref is None:
        return [f"no frozen reference for {label}"]
    return [
        f"{key} = {summary.get(key)!r}, frozen {value!r}"
        for key, value in ref.items()
        if summary.get(key) != value
    ]


@dataclass(frozen=True)
class Workload:
    cases: object
    run: object
    check: object


WORKLOADS = {
    "sweep": Workload(sweep_cases, sweep_run, sweep_check),
    "certify": Workload(certify_cases, certify_run, certify_check),
    "scale": Workload(scale_cases, scale_run, scale_check),
    "cli": Workload(cli_cases, cli_run, cli_check),
}


def load_reference(workload):
    """Frozen outputs of the workload's cases, keyed by case label. The
    seed changes only placement and order, which change no output, so
    the reference applies to every seed."""
    return json.loads(REFERENCE.read_text())[workload]


def warm_up(fields):
    """Run the smallest code, the segment over F3, through every layer,
    CLI included, and touch each field's lookup tables. Lazy set-up
    then happens here instead of in the first timed case."""
    segment = _polytope([(0,), (1,)])
    F = gf.GF(3)
    M = code.generator_matrix(segment, F)
    code.dimension(segment, F)
    oracle.rank_gf(M.entries, F)
    oracle.reduction_class_count_unionfind(segment, F)
    M.structural_violations()
    lam = code.find_surjective_dilate(segment, F, 12)
    B = segment.dilate(lam)
    code.distance_lower_bound(segment, B, F)
    code.best_bound_over_orders(segment, B, F)
    oracle.min_weight_random_upper(M.entries, F, RANDOM_ITERATIONS, 0)
    oracle.min_distance_exhaustive(M.entries, F, BUDGET)
    for argv in cli_argvs(ROOT / "data" / "segment01.json").values():
        call_cli(argv)
    for F in fields:
        oracle.rank_gf(((1, 1),), F)
        oracle.min_distance_exhaustive(((1, 1),), F, BUDGET)
