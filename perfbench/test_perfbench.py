"""Smoke tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package path set above)
from tracer import TIMED, Tracer, instrument  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def traced_pass(workload):
    """Set up and run one pass under a fresh tracer; (outcome, tracer)."""
    tracer = Tracer()
    with instrument(tracer):
        wl, cases, reference = run.set_up(workload, 7, tiny=True)
        outcome = run.Outcome()
        outcome.run_pass(wl, cases, reference, tracer)
    return outcome, tracer


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    bench(workload, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counters_exactly(workload):
    def counters(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"
                and k != "trace_overhead_frac"}

    first, second = bench(workload, 1), bench(workload, 1)
    assert counters(first) == counters(second)
    assert all(first["metrics"][name + ".calls"]["value"] for name in TIMED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_passes_give_the_frozen_outputs(workload):
    # no failure means every output matched its frozen reference
    first, t1 = traced_pass(workload)
    second, t2 = traced_pass(workload)
    assert not first.failures and not second.failures
    assert first.outputs == second.outputs


def test_instrument_restores_the_package():
    before = (workloads.code.generator_matrix, workloads.polytope.Polytope.__dict__["faces"])
    with instrument(Tracer()):
        assert workloads.code.generator_matrix is not before[0]
    after = (workloads.code.generator_matrix, workloads.polytope.Polytope.__dict__["faces"])
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100_000))
    outer = next(s for s in tracer.spans if s[1] == "outer")
    assert tracer.self_s["outer"] + tracer.self_s["inner"] == pytest.approx(outer[3] - outer[2])
    assert tracer.self_s["outer"] < tracer.self_s["inner"]


def test_tail_names_the_highest_percentile_with_ten_beyond():
    assert run.tail(range(1, 41)) == (75.0, 30)
    assert run.tail([5, 1, 3]) == (100.0, 5)
