"""Benchmark of the projtoric pipeline, one workload per process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. The workload's inputs come from --seed. One caller
runs the workload's pass of cases closed loop, the next case starting
when the previous one returns, and repeats the pass while another fits
in --seconds (at least twice). Every output is checked.

Times are scaled to a reference host speed. The host's speed drifts by
up to 1.5x within seconds (a fixed interpreter loop took 0.15 to 0.26 s
over four minutes on a 2-CPU Xeon), far more than the differences the
gate must see. So a fixed loop is timed between cases, at least every
0.25 s, and each case's measured seconds are multiplied by
REFERENCE_LOOP_S over the loop time around it. The unscaled figures are
printed on the line before the result.

--trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
self time, calls and counters for one set-up plus one pass, alternating
untraced and traced passes to give the tracing overhead, and writes the
spans to perfbench/out/. The last line of stdout is the result as one
JSON object; the lines before it name the tail percentile and record
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3  # set-ups per run: this process and two fresh ones
MIN_PASSES = 2  # a sweep or scale pass is half a run; one sample per case is too noisy
REFERENCE_LOOP_S = 0.006  # speed_loop() on the reference host, typical
SPEED_EVERY_S = 0.25


def speed_loop():
    """Seconds for a fixed pure-Python loop, the better of two tries."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i % 7
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Speed:
    """Host speed samples; factor() turns seconds measured between two
    samples into seconds at the reference speed."""

    def __init__(self):
        self.last = time.perf_counter()
        self.factors = []

    def due(self):
        return time.perf_counter() - self.last >= SPEED_EVERY_S

    def sample(self):
        loop = speed_loop()
        self.last = time.perf_counter()
        return loop

    def factor(self, before, after):
        f = REFERENCE_LOOP_S / ((before + after) / 2)
        self.factors.append(f)
        return f


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "certify", "scale", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import projtoric from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "projtoric" / "__init__.py").is_file():
        raise SystemExit(f"error: no projtoric package under {src}")
    sys.path.insert(0, str(src))
    import projtoric

    if Path(projtoric.__file__).resolve().parent != (src / "projtoric").resolve():
        raise SystemExit(f"error: projtoric imported from {projtoric.__file__}, not {src}")


def set_up(workload, seed, tiny):
    """Seeded inputs plus warm-up; the cases are ready to time."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    cases = wl.cases(seed, tiny)
    fields = {c.data["F"].q: c.data["F"] for c in cases if "F" in c.data}
    workloads.warm_up(fields.values())
    return wl, cases, workloads.load_reference(workload)


class Outcome:
    """Latencies, failures and outputs of the cases run so far."""

    def __init__(self):
        self.speed = Speed()
        self.latency = {}  # label -> scaled seconds per run of the case
        self.passes = []  # scaled seconds per pass, cases only
        self.raw_passes = []  # measured seconds per pass
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (label, problem)
        self.outputs = []  # per pass: {label: summary}

    def run_pass(self, wl, cases, reference, tracer=None):
        total = raw_total = 0.0
        outputs = {}
        group = []  # (label, measured seconds) since the last speed sample
        before = self.speed.sample()
        for n, case in enumerate(cases, 1):
            self.attempted += 1
            start = time.perf_counter()
            try:
                with tracer.span("case " + case.label) if tracer else nullcontext():
                    out = wl.run(case)
            except Exception as exc:  # a raising case is a failed case; keep going
                elapsed = time.perf_counter() - start
                self.failures.append((case.label, f"raised {exc!r}"))
                out = None
            else:
                elapsed = time.perf_counter() - start
            group.append((case.label, elapsed))
            if out is None:
                self.failed += 1
            else:
                with tracer.paused() if tracer else nullcontext():
                    summary, problems = wl.check(case, out, reference)
                outputs[case.label] = summary
                self.failed += bool(problems)
                self.failures.extend((case.label, p) for p in problems)
                out = None  # free this case's matrices before the next case runs
            if n == len(cases) or self.speed.due():
                after = self.speed.sample()
                factor = self.speed.factor(before, after)
                for label, seconds in group:
                    self.latency.setdefault(label, []).append(seconds * factor)
                    total += seconds * factor
                    raw_total += seconds
                group, before = [], after
        self.passes.append(total)
        self.raw_passes.append(raw_total)
        self.outputs.append(outputs)
        return total


def tail(values):
    """(percentile, value): the highest percentile with at least ten
    values beyond it, or the largest value when there are fewer than 11."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def environment():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return dict(
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=len(os.sched_getaffinity(0)),
        cpu=platform.processor() or platform.machine(),
        caches=caches,
        src_lines=src_lines,
    )


def setup_in_child(args):
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
    ]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def scaled_setup(args, start, loop_before):
    """Set up, then the set-up's seconds since `start` at reference speed."""
    state = set_up(args.workload, args.seed, args.tiny)
    elapsed = time.perf_counter() - start
    return state, elapsed * REFERENCE_LOOP_S / ((loop_before + speed_loop()) / 2)


def measure(args, start, loop_before):
    (wl, cases, reference), setup_s = scaled_setup(args, start, loop_before)
    setups = [setup_s]
    outcome = Outcome()
    loop_start = time.perf_counter()
    while True:
        outcome.run_pass(wl, cases, reference)
        elapsed = time.perf_counter() - loop_start
        next_end = elapsed + statistics.median(outcome.raw_passes)
        if len(outcome.passes) >= MIN_PASSES and next_end > args.seconds:
            break
    setups += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    per_case = [statistics.median(v) for v in outcome.latency.values()]
    pct, tail_s = tail(per_case)
    print(
        f"case_tail_ms is p{pct:.1f} of N={len(per_case)} per-case median latencies; "
        f"{len(outcome.passes)} passes; failed_frac = {outcome.failed}/{outcome.attempted}; "
        f"unscaled wall_s = {statistics.median(outcome.raw_passes):.4f}; "
        f"speed factor median {statistics.median(outcome.speed.factors):.3f}"
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(outcome.passes), "s"),
        "case_p50_ms": (1000 * statistics.median(per_case), "ms"),
        "case_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return outcome, metrics


def measure_traced(args):
    from tracer import COUNTERS, TIMED, Tracer, instrument

    tracer = Tracer()
    with instrument(tracer), tracer.span("setup"):
        wl, cases, reference = set_up(args.workload, args.seed, args.tiny)
    outcome = Outcome()
    plain, traced, pass_counts = [], [], []
    loop_start = time.perf_counter()
    while True:
        plain.append(outcome.run_pass(wl, cases, reference))
        counts, calls = tracer.counts.copy(), tracer.calls.copy()
        with instrument(tracer), tracer.span("pass"):
            traced.append(outcome.run_pass(wl, cases, reference, tracer))
        pass_counts.append((tracer.counts - counts, tracer.calls - calls))
        if len(traced) == 1:
            layer_s, layer_calls, layer_counts = (
                tracer.self_s.copy(), tracer.calls.copy(), tracer.counts.copy()
            )
        elapsed = time.perf_counter() - loop_start
        if elapsed + 2 * statistics.median(outcome.raw_passes) > args.seconds:
            break
    for counts in pass_counts[1:]:
        if counts != pass_counts[0]:
            outcome.failed += 1
            outcome.failures.append(("trace", "counters differ between traced passes"))
    write_spans(args, tracer)
    metrics = {}
    for name in TIMED:
        metrics[name + ".s"] = (layer_s[name], "s")
        metrics[name + ".calls"] = (layer_calls[name], "count")
    for name in COUNTERS:
        metrics[name] = (layer_counts[name], "count")
    tries = layer_counts["code.find_surjective_dilate.tries"]
    found = layer_counts["code.find_surjective_dilate.found"]
    metrics["code.find_surjective_dilate.hit_ratio"] = (found / tries if tries else 0.0, "ratio")
    metrics["trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "frac"
    )
    print(f"per-layer figures cover set-up plus one traced pass; {len(traced)} traced passes")
    return outcome, metrics


def write_spans(args, tracer):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for sid, name, start, end, parent in tracer.spans:
            fh.write(json.dumps(dict(id=sid, name=name, start=start, end=end, parent=parent)) + "\n")
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    args = parse_args(argv)
    loop_before = speed_loop()
    start = time.perf_counter()
    import_package()
    if args.setup_only:
        print(json.dumps({"setup_s": scaled_setup(args, start, loop_before)[1]}))
        return 0
    if args.trace:
        outcome, metrics = measure_traced(args)
    else:
        outcome, metrics = measure(args, start, loop_before)
    for label, problem in outcome.failures[:20]:
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment()))
    result = dict(
        correct=not outcome.failures,
        attempted=outcome.attempted,
        failed=outcome.failed,
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
