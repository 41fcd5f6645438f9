import contextlib
import io
import json
import time
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from projtoric import cli
from projtoric.code import generator_matrix
from projtoric.gf import GF
from projtoric.polytope import Polytope

from test_code import DATA
from test_polytope import VREP_REJECTIONS


def write_doc(tmp_path, name, **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def toy_doc(tmp_path):
    return write_doc(
        tmp_path, "toy.json",
        vertices=[[0, 0], [1, 0], [-2, 3]], q=4,
    )


@pytest.fixture
def segment_doc(tmp_path):
    return write_doc(tmp_path, "seg.json", vertices=[[0], [1]], q=3)


@pytest.fixture
def quad_doc(tmp_path):
    return write_doc(
        tmp_path, "quad.json",
        vertices=[[0, 0], [2, 0], [3, 2], [0, 3]], q=7,
    )


def run(capsys, *argv):
    code = cli.entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_toy(capsys, toy_doc):
    code, out, _ = run(capsys, "info", "--polytope", toy_doc)
    assert code == 0
    assert "n = 21" in out
    assert "k = 5" in out
    assert "H1 (simple): pass" in out
    assert "H2 (determinants prime to q): pass" in out


def test_info_quadrilateral_reports_failure(capsys, quad_doc):
    code, out, _ = run(capsys, "info", "--polytope", quad_doc)
    assert code == 0
    assert "H2 (determinants prime to q): FAIL" in out
    assert "|det|=7" in out
    assert "k = unavailable (hypotheses fail)" in out
    assert "n = " in out


def test_matrix_segment_csv(capsys, segment_doc):
    code, out, _ = run(capsys, "matrix", "--polytope", segment_doc)
    assert code == 0
    assert out == "1,1,1,0\n1,2,0,1\n"


def test_matrix_json_is_deterministic(capsys, toy_doc):
    code, first, _ = run(
        capsys, "matrix", "--polytope", toy_doc, "--format", "json"
    )
    assert code == 0
    code, second, _ = run(
        capsys, "matrix", "--polytope", toy_doc, "--format", "json"
    )
    assert code == 0
    assert first == second
    payload = json.loads(first)
    P = Polytope.from_vertices([(0, 0), (1, 0), (-2, 3)])
    M = generator_matrix(P, GF(4))
    assert payload["entries"] == M.codes.tolist()
    assert tuple(payload["shape"]) == M.shape
    assert payload["q"] == 4


def test_matrix_hypothesis_failure_exit(capsys, quad_doc):
    code, _, err = run(capsys, "matrix", "--polytope", quad_doc)
    assert code == 3
    assert "hypothesis failure" in err


def test_dim(capsys, toy_doc, segment_doc):
    code, out, _ = run(capsys, "dim", "--polytope", toy_doc)
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "dim", "--polytope", segment_doc)
    assert code == 0 and out.strip() == "2"


def test_bound_toy(capsys, toy_doc):
    code, out, _ = run(capsys, "bound", "--polytope", toy_doc)
    assert code == 0
    assert "lambda = 5" in out
    assert "bound[lex] = 8" in out
    assert "best = 8" in out


def test_bound_tie_keeps_earliest_order(capsys, tmp_path):
    # grlex and permlex tie above lex; the earlier of the two is reported
    doc = write_doc(
        tmp_path, "tie.json", vertices=[[0, 0], [2, -7], [7, 2], [9, -7]], q=4
    )
    code, out, _ = run(capsys, "bound", "--polytope", doc)
    assert code == 0
    assert out == (
        "lambda = 4\n"
        "bound[lex] = 0\n"
        "bound[grlex] = 1\n"
        "bound[permlex:1,0] = 1\n"
        "best = 1 (grlex)\n"
    )


def test_bound_reads_the_document_order(capsys, tmp_path):
    doc = write_doc(
        tmp_path, "tie.json", vertices=[[0, 0], [2, -7], [7, 2], [9, -7]], q=4,
        order="grlex",
    )
    code, out, _ = run(capsys, "bound", "--polytope", doc)
    assert code == 0
    assert out == "lambda = 4\nbound[grlex] = 1\nbest = 1 (grlex)\n"


@pytest.mark.parametrize("order", ["bogus", "permlex:1,0,2", 5])
def test_bound_refuses_a_bad_document_order(capsys, tmp_path, order):
    # checked before the dilate search, which finds none under this cap
    doc = write_doc(
        tmp_path, "order.json", vertices=[[0, 0], [1, 0], [-2, 3]], q=4,
        order=order, lambda_max=2,
    )
    code, out, err = run(capsys, "bound", "--polytope", doc)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


@pytest.mark.parametrize("command", ["info", "matrix", "dim", "subcode"])
@pytest.mark.parametrize("flag", [["--order", "lex"], ["--lambda-max", "4"]])
def test_flags_of_bound_and_verify_only_exit_two(capsys, toy_doc, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.entry([command, "--polytope", toy_doc, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bound_hypothesis_failure_exit(capsys, quad_doc):
    code, out, err = run(capsys, "bound", "--polytope", quad_doc)
    assert code == 3
    assert out == ""
    assert "hypothesis failure" in err


def test_non_simple_failure_names_the_vertex(capsys, tmp_path):
    # the apex of a square pyramid lies on all four side facets
    path = write_doc(
        tmp_path, "pyramid.json",
        vertices=[[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0], [1, 1, 1]], q=3,
    )
    err = "hypothesis failure: polytope is not simple: vertex (1, 1, 1) lies on 4 facets\n"
    for command in ("dim", "matrix", "bound", "verify", "subcode"):
        assert run(capsys, command, "--polytope", path) == (3, "", err)


def test_bound_without_dilate(capsys, toy_doc):
    code, out, err = run(
        capsys, "bound", "--polytope", toy_doc, "--lambda-max", "2"
    )
    assert code == 3
    assert out == ""
    assert "no surjective dilate up to 2" in err


def test_no_surjective_dilate_under_the_default_cap_exits_three(capsys, tmp_path):
    # the toy triangle over F16 has lambda = 21, past the default cap of 16
    path = write_doc(tmp_path, "toy16.json", vertices=[[0, 0], [1, 0], [-2, 3]], q=16)
    assert run(capsys, "bound", "--polytope", path) == (3, "", "no surjective dilate up to 16\n")
    code, out, _ = run(capsys, "verify", "--polytope", path)
    assert code == 3
    assert "FAIL" not in out
    assert out.endswith(
        "ok   Pick's theorem\nskip distance bound (no surjective dilate in range)\n"
    )
    code, out, _ = run(capsys, "verify", "--polytope", path, "--inject-corruption")
    assert code == 1
    assert "FAIL block triangularity" in out
    code, out, _ = run(capsys, "bound", "--polytope", path, "--lambda-max", "21")
    assert code == 0
    assert "lambda = 21" in out


def test_parser_is_built_once_and_keeps_no_flags(capsys, toy_doc):
    # toy_doc's code has q^k = 4^5 words: the exhaustive distance runs
    # under the default budget and is refused under 4 with --require-distance
    assert cli.build_parser() is cli.build_parser()
    plain = run(capsys, "verify", "--polytope", toy_doc)
    assert plain[0] == 0
    assert "ok   bound below true distance" in plain[1]
    code, _, err = run(
        capsys, "verify", "--polytope", toy_doc, "--require-distance", "--budget", "4"
    )
    assert code == 4
    assert "budget refusal" in err
    assert run(capsys, "verify", "--polytope", toy_doc) == plain
    with pytest.raises(SystemExit) as exc:
        cli.entry(["verify", "--polytope", toy_doc, "--budget", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "verify", "--polytope", toy_doc) == plain


def test_verify_clean(capsys, toy_doc):
    code, out, _ = run(capsys, "verify", "--polytope", toy_doc)
    assert code == 0
    assert "FAIL" not in out
    assert "ok   block triangularity" in out


def test_verify_detects_corruption(capsys, toy_doc):
    code, out, _ = run(
        capsys, "verify", "--polytope", toy_doc, "--inject-corruption"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_budget_refusal(capsys, toy_doc):
    code, _, err = run(
        capsys, "verify", "--polytope", toy_doc,
        "--require-distance", "--budget", "100",
    )
    assert code == 4
    assert "budget refusal" in err


def test_matrix_too_large_to_allocate_is_a_budget_refusal(capsys):
    # the cube over F65536 has 8 x 281,487,861,809,153 entries, 4 PiB of
    # uint16: numpy refuses that allocation at once and touches no page
    code, out, err = run(
        capsys, "matrix", "--polytope", str(DATA / "cube.json"), "--q", "65536"
    )
    assert code == 4
    assert out == ""
    assert err.startswith("budget refusal: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--budget", "-5"],
    ["--budget", "-1", "--require-distance"],
    ["--seed", "-1"],
    ["--seed", "-3", "--budget", "100"],
])
def test_verify_refuses_a_negative_budget_or_seed(capsys, toy_doc, flags):
    # -5 once skipped the exhaustive distance as over budget, and seed -1
    # drew what seed 1 draws; both are refused before the first ledger line
    code, out, err = run(capsys, "verify", "--polytope", toy_doc, *flags)
    assert code == 2
    assert out == ""
    assert "must be nonnegative" in err


def test_subcode_torus(capsys, segment_doc):
    code, out, _ = run(
        capsys, "subcode", "--polytope", segment_doc, "--cols", "torus"
    )
    assert code == 0
    assert out == "1,1\n1,2\n"


def test_subcode_rows(capsys, toy_doc):
    code, out, _ = run(
        capsys, "subcode", "--polytope", toy_doc,
        "--rows", "0,1;1,0", "--cols", "torus",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(len(line.split(",")) == 9 for line in lines)


def test_subcode_bad_rows(capsys, toy_doc):
    code, _, err = run(
        capsys, "subcode", "--polytope", toy_doc, "--rows", "9,9"
    )
    assert code == 2
    assert "invalid input" in err


def test_q_override(capsys, tmp_path):
    doc = write_doc(tmp_path, "seg3.json", vertices=[[0], [3]], q=3)
    code, out, _ = run(capsys, "dim", "--polytope", doc)
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "dim", "--polytope", doc, "--q", "2")
    assert code == 0 and out.strip() == "3"


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "info", "--polytope", str(tmp_path / "absent.json")
    )
    assert code == 2
    assert "invalid input" in err


def test_bad_json_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "info", "--polytope", str(path))
    assert code == 2


def test_missing_q_exits_two(capsys, tmp_path):
    doc = write_doc(tmp_path, "noq.json", vertices=[[0], [1]])
    code, _, err = run(capsys, "dim", "--polytope", doc)
    assert code == 2
    assert "invalid input" in err


def test_huge_q_exits_two_without_factoring(capsys, tmp_path, segment_doc):
    # a Mersenne prime far above the 2^16 table limit: trial division
    # of it would not finish
    huge = 2**61 - 1
    doc = write_doc(tmp_path, "huge.json", vertices=[[0], [1]], q=huge)
    for argv in (["--polytope", doc], ["--polytope", segment_doc, "--q", str(huge)]):
        code, _, err = run(capsys, "dim", *argv)
        assert code == 2
        assert "2^16 table limit" in err


def test_dim_mismatch_exits_two(capsys, tmp_path):
    doc = write_doc(
        tmp_path, "mismatch.json", vertices=[[0, 0], [1, 0], [0, 1]],
        dim=3, q=4,
    )
    code, _, _ = run(capsys, "dim", "--polytope", doc)
    assert code == 2


def test_unknown_order_exits_two(capsys, toy_doc):
    code, _, err = run(
        capsys, "bound", "--polytope", toy_doc, "--order", "mystery"
    )
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("order", ["permlex:1,0,2", "wlex:1"])
def test_order_of_the_wrong_dimension_exits_two(capsys, toy_doc, command, order):
    # a permutation or weight vector must have one entry per coordinate
    code, _, err = run(capsys, command, "--polytope", toy_doc, "--order", order)
    assert code == 2
    assert "does not fit dimension 2" in err


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize(
    "order", ["wlex:-4611686018427387904,4611686018427387903", "wlex:99999999999999999999,1"]
)
def test_order_past_int64_exits_two_before_any_output(capsys, toy_doc, command, order):
    # wrapped int64 keys would give the first a bound of 9 against d = 8;
    # the second is not int64. Both are checked on 16P, the default cap
    code, out, err = run(capsys, command, "--polytope", toy_doc, "--order", order)
    assert (code, out) == (2, "")
    assert "overflows int64 on points up to [32, 48]" in err


def test_facet_document_roundtrip(capsys, tmp_path):
    doc = write_doc(
        tmp_path, "square.json",
        vertices=[[0, 0], [1, 0], [0, 1], [1, 1]],
        facets=[
            {"normal": [1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 0},
            {"normal": [-1, 0], "offset": 1},
            {"normal": [0, -1], "offset": 1},
        ],
        q=3,
    )
    code, out, _ = run(capsys, "dim", "--polytope", doc)
    assert code == 0 and out.strip() == "4"


def test_four_dimensional_vertex_document_runs_every_subcommand(capsys, tmp_path):
    # the unit 4-simplex: the projective space P^4, its code the [121, 5, 81]
    # first-order projective Reed-Muller code over F3
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    doc = write_doc(tmp_path, "simplex4.json", vertices=[[0, 0, 0, 0], *units], q=3)
    outputs = {}
    runs = ("info",), ("dim",), ("bound",), ("verify",), ("matrix",), ("subcode", "--cols", "torus")
    for command, *extra in runs:
        code, outputs[command], _ = run(capsys, command, "--polytope", doc, *extra)
        assert code == 0, command
    assert "n = 121\nk = 5\n" in outputs["info"]
    assert outputs["dim"] == "5\n"
    assert outputs["bound"] == (
        "lambda = 9\nbound[lex] = 81\nbound[grlex] = 81\n"
        "bound[permlex:3,2,1,0] = 81\nbest = 81 (lex)\n"
    )
    assert "FAIL" not in outputs["verify"] and "ok   bound below true distance" in outputs["verify"]
    assert [len(row.split(",")) for row in outputs["matrix"].splitlines()] == [121] * 5
    assert [len(row.split(",")) for row in outputs["subcode"].splitlines()] == [2**4] * 5


@pytest.mark.parametrize(
    "doc",
    [
        dict(vertices=[[0.5, 0], [1, 0], [0, 1]], q=4),
        dict(vertices=[[0, 0], [1, 0], [0, 1]], q=2.9),
        dict(vertices=[[0, 0], [1, 0], [0, 1]], q=True),
        dict(vertices=[[0, 0], [1, 0], [0, 1]], q="4"),
        dict(vertices=[[0, 0], [True, 0], [0, 1]], q=4),
        dict(vertices=[[0, 0], [1, 0], [0, 1]], dim=2.0, q=4),
        dict(vertices=[[0, 0], [1, 0], [0, 1.0]], q=4),
        dict(vertices=[0, 1], q=3),
        dict(vertices=5, q=3),
        dict(
            vertices=[[0, 0], [1, 0], [0, 1]], q=4,
            facets=[
                {"normal": [1, 0], "offset": 0},
                {"normal": [0, 1.5], "offset": 0},
                {"normal": [-1, -1], "offset": 1},
            ],
        ),
        dict(
            vertices=[[0, 0], [1, 0], [0, 1]], q=4,
            facets=[
                {"normal": [1, 0], "offset": 0},
                {"normal": [0, 1], "offset": 0.0},
                {"normal": [-1, -1], "offset": 1},
            ],
        ),
        dict(vertices=[[0, 0], [1, 0], [0, 1]], q=4, facets=[[1, 0, 0]]),
    ],
)
def test_non_integer_input_exits_two(capsys, tmp_path, doc):
    path = write_doc(tmp_path, "bad.json", **doc)
    code, out, err = run(capsys, "info", "--polytope", path)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_non_object_document_exits_two(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[[0, 0], [1, 0], [0, 1]]")
    code, _, err = run(capsys, "info", "--polytope", str(path))
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("order", [5, None, ["lex"], ""])
def test_bad_document_order_exits_two(capsys, tmp_path, order):
    path = write_doc(
        tmp_path, "order.json", vertices=[[0], [1]], q=3, order=order
    )
    code, _, err = run(capsys, "verify", "--polytope", path)
    assert code == 2
    assert "invalid input" in err


def test_document_order_is_used(capsys, tmp_path):
    path = write_doc(
        tmp_path, "order.json", vertices=[[0], [1]], q=3, order="grlex"
    )
    code, out, _ = run(capsys, "verify", "--polytope", path)
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("flag", ["0", "-3"])
def test_lambda_cap_below_one_exits_two(capsys, toy_doc, command, flag):
    code, out, err = run(
        capsys, command, "--polytope", toy_doc, "--lambda-max", flag
    )
    assert code == 2
    assert out == ""
    assert "lambda_max must be at least 1" in err


@pytest.mark.parametrize("value", [0, -1, 2.5, True, "8"])
def test_document_lambda_cap_is_checked(capsys, tmp_path, value):
    path = write_doc(
        tmp_path, "cap.json", vertices=[[0, 0], [1, 0], [-2, 3]], q=4,
        lambda_max=value,
    )
    code, out, err = run(capsys, "bound", "--polytope", path)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


def test_document_lambda_cap_is_used(capsys, tmp_path):
    path = write_doc(
        tmp_path, "cap.json", vertices=[[0, 0], [1, 0], [-2, 3]], q=4,
        lambda_max=2,
    )
    code, out, err = run(capsys, "bound", "--polytope", path)
    assert code == 3
    assert (out, err) == ("", "no surjective dilate up to 2\n")
    code, out, _ = run(capsys, "bound", "--polytope", path, "--lambda-max", "5")
    assert code == 0
    assert "lambda = 5" in out


def test_negative_offset_caps_the_search_at_one(capsys, tmp_path):
    # the origin lies outside P, so only lam = 1 is tried, however large the cap
    cap = 1 << 60
    path = write_doc(
        tmp_path, "far.json", vertices=[[1, 1], [2, 1], [1, 2]], q=3, lambda_max=cap
    )
    assert run(capsys, "bound", "--polytope", path) == (3, "", f"no surjective dilate up to {cap}\n")
    argv = ("bound", "--polytope", path, "--lambda-max", str(cap))
    assert run(capsys, *argv) == (3, "", f"no surjective dilate up to {cap}\n")


def test_info_non_simple_lists_offending_vertices(capsys, tmp_path):
    # the apexes sit over an edge of the base, so (0,0,0) lies on four
    # facets and every other vertex on three
    path = write_doc(
        tmp_path, "bipyramid.json",
        vertices=[[0, 0, 0], [2, 0, 0], [0, 2, 0], [1, 1, 2], [1, 1, -2]],
        q=5,
    )
    code, out, _ = run(capsys, "info", "--polytope", path)
    assert code == 0
    assert "H1 (simple): FAIL" in out
    assert "offending vertices: (0, 0, 0)\n" in out
    assert "k = unavailable (hypotheses fail)" in out


@pytest.mark.parametrize("command", ["info", "matrix", "dim", "bound", "verify", "subcode"])
@pytest.mark.parametrize("doc", [dict(vertices=[], q=4), dict(vertices=[], q=4, facets=[])])
def test_empty_vertex_list_exits_two(capsys, tmp_path, command, doc):
    path = write_doc(tmp_path, "empty.json", **doc)
    code, out, err = run(capsys, command, "--polytope", path)
    assert (code, out) == (2, "")
    assert "invalid input" in err


@pytest.mark.parametrize("command", ["info", "matrix", "dim", "bound", "verify", "subcode"])
def test_coordinates_past_int64_exit_two(capsys, tmp_path, command):
    # info computes n and k before its first line, so no half report shows
    path = write_doc(tmp_path, "far.json", vertices=[[0, 0], [1, 0], [0, 10**20]], q=3)
    code, out, err = run(capsys, command, "--polytope", path)
    assert (code, out) == (2, "")
    assert "invalid input" in err and "int64" in err


def test_hull_int64_bound_is_sharp(tmp_path):
    # the points move to the first one as rows [p - first | 1], and 2D once
    # asked 3! B^2 < 2^63 of the largest coordinate difference B; the hull
    # works in Python ints, so the document at B + 1 loads as the one at B
    # (loaded only: a subcommand would scan a box of about 10^18 points)
    b = isqrt((2**63 - 1) // 6)
    for edge in (b, b + 1):
        path = write_doc(tmp_path, "at.json", vertices=[[0, 0], [edge, 0], [0, edge]], q=3)
        P, _ = cli.load_document(path)
        assert (P.normals, P.offsets) == (((-1, -1), (0, 1), (1, 0)), (edge, 0, 0))


@pytest.mark.parametrize("command", ["info", "matrix", "dim", "bound", "verify", "subcode"])
def test_hull_past_int64_exits_without_traceback(capsys, tmp_path, command):
    # the hull builds, with normal entries up to a^2 = 2^64, and every
    # path after it refuses cleanly; the lattice scan's int64 guard
    # refuses the scan
    a = 2**32
    path = write_doc(tmp_path, "big.json", vertices=[[0, 0, 0], [a, 1, 0], [0, a, 1], [1, 0, a]], q=3)
    assert max(abs(x) for u in cli.load_document(path)[0].normals for x in u) >= 2**64
    code, out, err = run(capsys, command, "--polytope", path)
    assert code in (0, 2, 3)
    if command == "dim":
        assert (code, out) == (2, "")
        assert "invalid input" in err and "exceeds int64" in err


def test_six_cube_info_document(capsys, tmp_path):
    # 64 points and 729 faces; the time bound catches a hull that
    # enumerates the C(64, 6) subsets of the points, which takes minutes
    path = write_doc(tmp_path, "cube6.json", vertices=[list(p) for p in product((0, 1), repeat=6)], q=3)
    start = time.perf_counter()
    code, out, _ = run(capsys, "info", "--polytope", path)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "faces by dimension: 0:64 1:192 2:240 3:160 4:60 5:12 6:1\n" in out
    assert "\nn = 4096\nk = 64\n" in out


@pytest.mark.parametrize("case", VREP_REJECTIONS)
def test_refused_facet_documents_exit_two(capsys, tmp_path, case):
    vertices, normals, offsets, message = VREP_REJECTIONS[case]
    facets = [{"normal": list(u), "offset": a} for u, a in zip(normals, offsets)]
    path = write_doc(tmp_path, "facets.json", vertices=vertices, facets=facets, q=3)
    code, out, err = run(capsys, "info", "--polytope", path)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and message in err


@pytest.mark.parametrize("facets", [0, False, "", None, {}])
def test_facets_that_are_not_a_list_exit_two(capsys, tmp_path, facets):
    path = write_doc(tmp_path, "facets.json", vertices=[[0, 0], [1, 0], [0, 1]], q=3, facets=facets)
    code, out, err = run(capsys, "dim", "--polytope", path)
    assert (code, out) == (2, "")
    assert "facets must be a list" in err


def test_empty_facet_list_means_the_hull(capsys, tmp_path):
    path = write_doc(tmp_path, "facets.json", vertices=[[0, 0], [1, 0], [0, 1]], q=3, facets=[])
    assert run(capsys, "dim", "--polytope", path) == (0, "3\n", "")


FUZZ_JUNK = st.sampled_from([0, -1, 6, 1 << 17, 1 << 70, 2.5, True, "4", None, [1]])
FUZZ_BROKEN = {
    "vertices": st.one_of(
        st.just([]),
        st.lists(st.lists(st.integers(-2, 2), max_size=3), min_size=2, max_size=5),
        st.lists(st.one_of(FUZZ_JUNK, st.lists(FUZZ_JUNK, min_size=1)), min_size=1, max_size=4),
    ),
    "q": FUZZ_JUNK,
    "facets": st.one_of(
        FUZZ_JUNK,
        st.lists(st.lists(st.integers(-2, 2)), min_size=1, max_size=3),
        st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    "normal": st.one_of(FUZZ_JUNK, st.lists(st.integers(-2, 2), max_size=3)),
                    "offset": st.one_of(FUZZ_JUNK, st.integers(-2, 2)),
                },
            ),
            min_size=1,
            max_size=4,
        ),
    ),
    "order": st.sampled_from(["bogus", "", "permlex:0,0", "wlex:", 5, None]),
    "lambda_max": FUZZ_JUNK,
    "dim": st.integers(0, 4),
}


@st.composite
def fuzz_documents(draw):
    """A document of lattice points in [-2, 2]^d, at most one of whose
    keys holds a malformed value."""
    d = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    doc = dict(
        vertices=draw(st.lists(point, min_size=d + 1, max_size=6)),
        q=draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])),
    )
    if draw(st.booleans()):
        doc["order"] = draw(st.sampled_from(["lex", "grlex", "permlex:1,0", "wlex:1,-2"]))
    if draw(st.booleans()):
        doc["lambda_max"] = draw(st.integers(1, 40))
    broken = draw(st.sampled_from([None, None, None, *FUZZ_BROKEN]))
    if broken is not None:
        doc[broken] = draw(FUZZ_BROKEN[broken])
    return doc


FUZZ_ORDERS = ["lex", "grlex", "permlex:1,0", "permlex:0,0", "wlex:2,-1", "wlex:", "permlex:a", "x"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    fuzz_documents(),
    st.sampled_from(["info", "matrix", "dim", "bound", "verify", "subcode"]),
    st.fixed_dictionaries(
        {},
        optional={
            "--order": st.sampled_from(FUZZ_ORDERS),
            "--lambda-max": st.integers(-2, 40).map(str),
            "--cols": st.sampled_from(["all", "torus", "0,1", "-1", "99999", "a", ""]),
            "--rows": st.sampled_from(["0,0;1,0", "0", "1,x", "0,0,0", ";"]),
        },
    ),
)
def test_fuzzed_documents_and_flags_exit_cleanly(tmp_path_factory, doc, command, flags):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--polytope", str(path)]
    # flag=value, so that a value such as -1 is not read as a flag; each
    # subcommand gets only the flags it takes
    takes = {"--cols": ("subcode",), "--rows": ("subcode",)}
    for flag, value in flags.items():
        if command in takes.get(flag, ("bound", "verify")):
            argv += [flag + "=" + value]
    if command == "verify":  # keeps the exhaustive distance search small
        argv += ["--budget", "4096"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.entry(argv)
    assert code in (0, 2, 3, 4)


# verify's stdout and exit code on every data document, recorded before
# verify handed one row basis to the rank, random-upper and exhaustive
# oracles; --inject-corruption prints the compared values of failed checks
VERIFY_LEDGERS = {
    ('cube.json', ()): (0, [
        'ok   block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        'ok   bound below random upper',
        'ok   bound below true distance',
        'ok   true distance below upper',
    ]),
    ('cube.json', ('--inject-corruption',)): (1, [
        'FAIL block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        'ok   bound below random upper',
        'FAIL bound below true distance (27 vs 26)',
        'ok   true distance below upper',
    ]),
    ('hirzebruch_232.json', ()): (0, [
        'ok   block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        "ok   Pick's theorem",
        'ok   bound below random upper',
        'skip exhaustive distance (over budget)',
    ]),
    ('hirzebruch_232.json', ('--inject-corruption',)): (1, [
        'FAIL block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        "ok   Pick's theorem",
        'ok   bound below random upper',
        'skip exhaustive distance (over budget)',
    ]),
    ('quadrilateral.json', ()): (3, [
    ]),
    ('quadrilateral.json', ('--inject-corruption',)): (3, [
    ]),
    ('segment01.json', ()): (0, [
        'ok   block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        'ok   bound below random upper',
        'ok   bound below true distance',
        'ok   true distance below upper',
    ]),
    ('segment01.json', ('--inject-corruption',)): (1, [
        'FAIL block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        'FAIL bound below random upper (3 vs 2)',
        'FAIL bound below true distance (3 vs 2)',
        'ok   true distance below upper',
    ]),
    ('toy_triangle.json', ()): (0, [
        'ok   block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        "ok   Pick's theorem",
        'ok   bound below random upper',
        'ok   bound below true distance',
        'ok   true distance below upper',
    ]),
    ('toy_triangle.json', ('--inject-corruption',)): (1, [
        'FAIL block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        "ok   Pick's theorem",
        'ok   bound below random upper',
        'FAIL bound below true distance (8 vs 7)',
        'ok   true distance below upper',
    ]),
    ('unit_square.json', ()): (0, [
        'ok   block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        "ok   Pick's theorem",
        'ok   bound below random upper',
        'ok   bound below true distance',
        'ok   true distance below upper',
    ]),
    ('unit_square.json', ('--inject-corruption',)): (1, [
        'FAIL block triangularity',
        'ok   rank equals reduction count',
        'ok   union-find agrees',
        'ok   length equals point count',
        "ok   Pick's theorem",
        'FAIL bound below random upper (9 vs 8)',
        'FAIL bound below true distance (9 vs 8)',
        'ok   true distance below upper',
    ]),
}


@pytest.mark.parametrize("name,extra", sorted(VERIFY_LEDGERS))
def test_verify_output_unchanged_on_data(capsys, name, extra):
    code, out, _ = run(capsys, "verify", "--polytope", str(DATA / name), *extra)
    expected_code, lines = VERIFY_LEDGERS[name, extra]
    assert (code, out) == (expected_code, "".join(line + "\n" for line in lines))
