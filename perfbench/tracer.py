"""Spans and counters recorded from outside simplexalg.

``instrument(tracer)`` wraps the public functions of each layer for the
duration of a ``with`` block and restores them afterwards.  A span records
its name, start, end and the index of its parent span (-1 at top level).  A
span's self time is its duration minus the durations of its child spans;
``layer_metrics`` turns spans and counters into the per-layer metrics
the benchmark reports.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# check name -> verify function that produces it
SUITE_FUNCTIONS = {
    "spectral": "verify_spectral",
    "racah": "verify_difference_action",
    "f-relation": "verify_f_relation",
    "kd": "verify_kd",
    "kd-matrix": "verify_matrix_commutation",
    "orthogonality": "verify_selfadjoint_orthogonal",
    "irreducibility": "irreducibility_check",
    "submodules": "submodule_diagnostic",
    "separation": "verify_separation",
    "relations": "verify_relations",
}

# per-layer metric -> unit; the order is the order of the report
LAYER_METRICS = {
    "scalar.fraction_new": "count",
    "scalar.profiled_share": "ratio",
    "context.build_s": "s",
    "context.builds": "count",
    "jacobi.expand_s": "s",
    "jacobi.expansions": "count",
    "jacobi.repeat_ratio": "ratio",
    "linalg.inverse_s": "s",
    "moments.inner_product_s": "s",
    "moments.inner_products": "count",
    "moments.moment_calls": "count",
    "moments.repeat_ratio": "ratio",
    "diffops.apply_s": "s",
    "diffops.applies": "count",
    "diffops.compose_s": "s",
    "diffops.compositions": "count",
    "verify.matrix_of_s": "s",
    "verify.matrix_columns": "count",
    "racah.family_build_s": "s",
    "racah.family_builds": "count",
    "racah.cache_hit_ratio": "ratio",
    "racah.reduce_s": "s",
    "racah.reduce_calls": "count",
    "racah.numerator_terms": "count",
    "racah.printed_build_s": "s",
    "racah.assemble_s": "s",
    "racah.coefficient_evals": "count",
    "racah.nonzero_ratio": "ratio",
    **{f"suite.{check}_s": "s" for check in SUITE_FUNCTIONS},
    "irreducibility.span_adds": "count",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent]
        self.counters: dict = defaultdict(int)
        self._seen: dict = defaultdict(set)
        self._stack: list = []
        self.suite: "str | None" = None

    def count(self, name: str, amount: int = 1):
        self.counters[name] += amount

    def count_repeat(self, layer: str, key):
        """Count ``key`` under ``layer.repeats`` when it was seen before."""
        seen = self._seen[layer]
        if key in seen:
            self.counters[f"{layer}.repeats"] += 1
        else:
            seen.add(key)

    def wrap(self, name: str, fn, counter: "str | None" = None):
        """``fn`` recorded as a span named ``name`` (and counted)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if counter:
                self.counters[counter] += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return traced


def self_times(spans) -> list:
    """Self time of each span: its duration minus the durations of its
    direct children.  Spans nest within one thread, so children neither
    overlap nor leave their parent."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive_times(spans) -> dict:
    """Total duration per span name, not counting a span nested inside
    another span of the same name twice."""
    totals: dict = defaultdict(float)
    for name, start, end, parent in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name] += end - start
    return totals


def _replace_function(patches, module, attr, make):
    """Wrap module.attr everywhere simplexalg imported it by name."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "simplexalg" and getattr(mod, attr, None) is original:
            patches.append((mod, attr, original))
            setattr(mod, attr, wrapped)


def _replace_method(patches, cls, attr, make):
    original = cls.__dict__[attr]
    patches.append((cls, attr, original))
    setattr(cls, attr, make(original))


@contextmanager
def instrument(tracer: Tracer):
    """Record spans and counters at the layer boundaries of simplexalg."""
    from simplexalg import diffops, jacobi, linalg, moments, racah, verify

    patches: list = []
    span = tracer.wrap

    def expand(fn):
        def traced(nu, gamma):
            tracer.count("jacobi.expansions")
            tracer.count_repeat("jacobi", (tuple(nu), tuple(getattr(gamma, "gamma", gamma))))
            return fn(nu, gamma)

        return span("jacobi.expand", traced)

    def moment(fn):
        def counted(m, gamma):
            tracer.count("moments.moment_calls")
            tracer.count_repeat("moments", (tuple(m), tuple(getattr(gamma, "gamma", gamma))))
            return fn(m, gamma)

        return counted

    def matrix_of(fn):
        def traced(ctx, op, name=None):
            if name is None or name not in getattr(ctx, "_matrices", {}):
                tracer.count("verify.matrix_columns", len(ctx.level))
            return fn(ctx, op, name)

        return span("verify.matrix_of", traced)

    def family_build(fn):
        def traced(*args):
            op = fn(*args)
            tracer.count("racah.family_builds")
            tracer.count("racah.numerator_terms", sum(len(f.num.terms) for f in op.terms.values()))
            return op

        return span("racah.family_build", traced)

    def family_lookup(fn):
        def counted(*args):
            tracer.count("racah.family_lookups")
            return fn(*args)

        return counted

    def coefficient(fn):
        def counted(coef, nu):
            tracer.count("racah.coefficient_evals")
            value = fn(coef, nu)
            if value != 0:
                tracer.count("racah.coefficient_nonzero")
            return value

        return counted

    def span_add(fn):
        def counted(basis, vector):
            if tracer.suite == "irreducibility":
                tracer.count("irreducibility.span_adds")
            return fn(basis, vector)

        return counted

    def suite(check):
        def make(fn):
            traced = span(f"suite.{check}", fn)

            def run(*args, **kwargs):
                outer, tracer.suite = tracer.suite, check
                try:
                    return traced(*args, **kwargs)
                finally:
                    tracer.suite = outer

            return run

        return make

    try:
        _replace_function(patches, jacobi, "jacobi_simplex", expand)
        _replace_function(patches, moments, "simplex_moment", moment)
        _replace_function(
            patches, moments, "inner_product",
            lambda fn: span("moments.inner_product", fn, "moments.inner_products"),
        )
        for builder in ("b12_operator", "b23_operator", "b134_operator", "b123_operator"):
            _replace_function(patches, racah, builder, lambda fn: span("racah.printed_build", fn))
        _replace_function(patches, racah, "_build_racah_operator", family_build)
        _replace_function(patches, racah, "_racah_operator_cached", family_lookup)
        for check, function in SUITE_FUNCTIONS.items():
            _replace_function(patches, verify, function, suite(check))
        _replace_method(
            patches, verify.ModuleContext, "__init__",
            lambda fn: span("context.build", fn, "context.builds"),
        )
        _replace_method(patches, verify.ModuleContext, "matrix_of", matrix_of)
        _replace_method(patches, linalg.ExactMatrix, "inverse", lambda fn: span("linalg.inverse", fn))
        _replace_method(patches, linalg.SpanBasis, "add", span_add)
        _replace_method(patches, diffops.DiffOp, "apply", lambda fn: span("diffops.apply", fn, "diffops.applies"))
        _replace_method(
            patches, diffops.DiffOp, "__matmul__",
            lambda fn: span("diffops.compose", fn, "diffops.compositions"),
        )
        _replace_method(patches, racah.ZFraction, "reduce", lambda fn: span("racah.reduce", fn, "racah.reduce_calls"))
        for cls in (racah.ZMappedCoefficient, racah.PrintedCoefficient):
            _replace_method(patches, cls, "eval", coefficient)
        for method in ("assemble", "matrix_on_level"):
            _replace_method(patches, racah.RacahOp, method, lambda fn: span("racah.assemble", fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round that come from its spans and
    counters (the scalar, cli and trace metrics are added by the caller)."""
    busy = inclusive_times(tracer.spans)
    c = tracer.counters
    out = {
        "context.build_s": busy["context.build"],
        "context.builds": c["context.builds"],
        "jacobi.expand_s": busy["jacobi.expand"],
        "jacobi.expansions": c["jacobi.expansions"],
        "jacobi.repeat_ratio": _ratio(c["jacobi.repeats"], c["jacobi.expansions"]),
        "linalg.inverse_s": busy["linalg.inverse"],
        "moments.inner_product_s": busy["moments.inner_product"],
        "moments.inner_products": c["moments.inner_products"],
        "moments.moment_calls": c["moments.moment_calls"],
        "moments.repeat_ratio": _ratio(c["moments.repeats"], c["moments.moment_calls"]),
        "diffops.apply_s": busy["diffops.apply"],
        "diffops.applies": c["diffops.applies"],
        "diffops.compose_s": busy["diffops.compose"],
        "diffops.compositions": c["diffops.compositions"],
        "verify.matrix_of_s": busy["verify.matrix_of"],
        "verify.matrix_columns": c["verify.matrix_columns"],
        "racah.family_build_s": busy["racah.family_build"],
        "racah.family_builds": c["racah.family_builds"],
        "racah.cache_hit_ratio": _ratio(
            c["racah.family_lookups"] - c["racah.family_builds"], c["racah.family_lookups"]
        ),
        "racah.reduce_s": busy["racah.reduce"],
        "racah.reduce_calls": c["racah.reduce_calls"],
        "racah.numerator_terms": c["racah.numerator_terms"],
        "racah.printed_build_s": busy["racah.printed_build"],
        "racah.assemble_s": busy["racah.assemble"],
        "racah.coefficient_evals": c["racah.coefficient_evals"],
        "racah.nonzero_ratio": _ratio(c["racah.coefficient_nonzero"], c["racah.coefficient_evals"]),
    }
    for check in SUITE_FUNCTIONS:
        out[f"suite.{check}_s"] = busy[f"suite.{check}"]
    out["irreducibility.span_adds"] = c["irreducibility.span_adds"]
    return out


def trace_summary(tracer: Tracer) -> dict:
    """Spans, counters and per-name self and inclusive times, for the trace file."""
    selfs = self_times(tracer.spans)
    by_name: dict = defaultdict(lambda: {"count": 0, "self_s": 0.0})
    for (name, *_), self_s in zip(tracer.spans, selfs):
        by_name[name]["count"] += 1
        by_name[name]["self_s"] += self_s
    for name, total in inclusive_times(tracer.spans).items():
        by_name[name]["inclusive_s"] = total
    top = [i for i, span in enumerate(tracer.spans) if span[3] < 0]
    return {
        "top_level_s": sum(tracer.spans[i][2] - tracer.spans[i][1] for i in top),
        "self_sum_s": sum(selfs),
        "by_name": dict(by_name),
        "counters": dict(tracer.counters),
        "spans": tracer.spans,
    }
