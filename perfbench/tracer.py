"""Spans and counters recorded from outside the projtoric package.

`instrument(tracer)` replaces each timed function of the package with a
wrapper for as long as the block runs, in every projtoric module that
holds a reference to it, so calls made inside the package are timed too.
Outside the block the package runs unmodified, which is why untraced
runs pay nothing for the tracing.

A span records name, start, end and parent. A function's self time is
its span's duration minus the time covered by its child spans. Counters
are computed after the span closes, from the call's inputs and outputs,
with tracing paused so that they neither create spans nor add to any
self time.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

import projtoric
from projtoric import cli, code, gf, intlat, oracle, polytope, variety

MODULES = (projtoric, cli, code, gf, intlat, oracle, polytope, variety)


class Tracer:
    """In-memory span log with per-function self time, calls and counters."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # open frames: [id, name, child seconds]
        self._next_id = 0
        self._paused = 0
        self.last_rank = None  # (entries, q, rank) of the latest rank_gf call

    def open_names(self):
        return [frame[1] for frame in self._stack]

    @contextmanager
    def span(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration
            self.spans.append((sid, name, start, end, parent))

    @contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, name, fn, count=None):
        """fn timed under `name`; count(tracer, args, result, exc) runs
        after the span with the call's bound arguments."""
        signature = inspect.signature(fn) if count else None

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            result = exc = None
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    with self.paused():
                        count(self, bound.arguments, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper


def _field_q(field):
    return field.q if isinstance(field, gf.GF) else int(field)


def _shape(entries):
    return len(entries) * (len(entries[0]) if entries else 0)


def class_count(P, q):
    """Reduction classes of P: lattice points grouped by tight facet set
    and coordinates mod q-1. Computed here, not by the package."""
    return len({(P.tight_facets(m), tuple(x % (q - 1) for x in m)) for m in P.lattice_points})


def rational_points(P, q):
    return sum((q - 1) ** f.dim for f in P.faces)


def _count_lattice_points(tr, a, result, exc):
    if exc is None:
        tr.counts["polytope.lattice_points.points"] += len(result)
        if "code.find_surjective_dilate" in tr.open_names():
            tr.counts["code.find_surjective_dilate.dilate_points"] += len(result)


def _count_faces(tr, a, result, exc):
    if exc is None:
        tr.counts["polytope.faces.faces"] += len(result)


def _count_flags(tr, a, result, exc):
    if exc is None:
        tr.counts["variety.build_flags.flags"] += len(result)


def _count_matrix(tr, a, result, exc):
    if exc is None:
        rows, cols = result.shape
        tr.counts["code.generator_matrix.entries"] += rows * cols


def _count_dilate(tr, a, result, exc):
    if exc is None:
        tr.counts["code.find_surjective_dilate.tries"] += result or a["lambda_max"]
        tr.counts["code.find_surjective_dilate.found"] += result is not None


def _count_pairs(tr, a, result, exc):
    if exc is None:
        P, q = a["P"], _field_q(a["field"])
        orders = a["orders"]
        n_orders = len(orders) if orders is not None else len(code.stock_orders(P.dim))
        tr.counts["code.best_bound_over_orders.pairs"] += (
            class_count(P, q) * rational_points(P, q) * n_orders
        )


def _count_violations(tr, a, result, exc):
    if exc is None:
        tr.counts["code.structural_violations.entries"] += _shape(a["self"].entries)


def _count_rank(tr, a, result, exc):
    if exc is None:
        tr.counts["oracle.rank_gf.entries"] += _shape(a["entries"])
        tr.last_rank = (a["entries"], _field_q(a["field"]), result)


def _count_exhaustive(tr, a, result, exc):
    entries, q = a["entries"], _field_q(a["field"])
    last = tr.last_rank
    if last is not None and last[0] is entries and last[1] == q:
        rank = last[2]
    else:
        rank = oracle.rank_gf(entries, q)
    tr.counts["oracle.min_distance_exhaustive.words_asked"] += q**rank
    tr.counts["oracle.min_distance_exhaustive.refused"] += isinstance(
        exc, oracle.BudgetExceededError
    )


def _count_unionfind(tr, a, result, exc):
    if exc is None:
        n = len(a["P"].lattice_points)
        tr.counts["oracle.reduction_class_count_unionfind.pairs"] += n * (n - 1) // 2


def _count_refusal(tr, a, result, exc):
    refused = result in (2, 3, 4) or (isinstance(exc, SystemExit) and exc.code == 2)
    tr.counts["cli.refusals"] += refused


# (module, attribute, metric name, counter) for each module-level function
FUNCTIONS = (
    (variety, "check_hypotheses", "variety.check_hypotheses", None),
    (variety, "build_flags", "variety.build_flags", _count_flags),
    (code, "generator_matrix", "code.generator_matrix", _count_matrix),
    (code, "projective_reduction", "code.projective_reduction", None),
    (code, "dimension", "code.dimension", None),
    (code, "find_surjective_dilate", "code.find_surjective_dilate", _count_dilate),
    (code, "best_bound_over_orders", "code.best_bound_over_orders", _count_pairs),
    (code, "distance_lower_bound", "code.distance_lower_bound", None),
    (oracle, "rank_gf", "oracle.rank_gf", _count_rank),
    (oracle, "min_distance_exhaustive", "oracle.min_distance_exhaustive", _count_exhaustive),
    (oracle, "min_weight_random_upper", "oracle.min_weight_random_upper", None),
    (
        oracle,
        "reduction_class_count_unionfind",
        "oracle.reduction_class_count_unionfind",
        _count_unionfind,
    ),
    (cli, "entry", "cli.entry", _count_refusal),
    (cli, "cmd_info", "cli.info", None),
    (cli, "cmd_dim", "cli.dim", None),
    (cli, "cmd_bound", "cli.bound", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "cmd_matrix", "cli.matrix", None),
    (cli, "cmd_subcode", "cli.subcode", None),
)

# (class, attribute, metric name, counter) for methods and cached properties
METHODS = (
    (gf.GF, "__init__", "gf.GF", None),
    (polytope.Polytope, "from_vertices", "polytope.from_vertices", None),
    (polytope.Polytope, "faces", "polytope.faces", _count_faces),
    (polytope.Polytope, "lattice_points", "polytope.lattice_points", _count_lattice_points),
    (code.EvaluationMatrix, "structural_violations", "code.structural_violations", _count_violations),
)

TIMED = tuple(name for _, _, name, _ in FUNCTIONS + METHODS)

COUNTERS = (
    "polytope.lattice_points.points",
    "polytope.faces.faces",
    "variety.build_flags.flags",
    "code.generator_matrix.entries",
    "code.find_surjective_dilate.tries",
    "code.find_surjective_dilate.dilate_points",
    "code.best_bound_over_orders.pairs",
    "code.structural_violations.entries",
    "oracle.rank_gf.entries",
    "oracle.min_distance_exhaustive.words_asked",
    "oracle.min_distance_exhaustive.refused",
    "oracle.reduction_class_count_unionfind.pairs",
    "cli.refusals",
)


def _replacement(tracer, cls, attr, name, count):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        return classmethod(tracer.wrap(name, raw.__func__, count))
    if isinstance(raw, cached_property):
        new = cached_property(tracer.wrap(name, raw.func, count))
        new.__set_name__(cls, attr)
        return new
    return tracer.wrap(name, raw, count)


@contextmanager
def instrument(tracer):
    """Route every timed function through `tracer` inside the block."""
    undo = []
    try:
        for module, attr, name, count in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, count)
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr, name, count in METHODS:
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, _replacement(tracer, cls, attr, name, count))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
