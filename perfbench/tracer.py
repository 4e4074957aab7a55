"""Spans and counters at the layer boundaries of grs, installed from outside.

The tracer rebinds the public entry points of every grs module to wrappers
that record a span (name, start, end, parent span) or bump a counter.  The
wrappers replace every name under which grs modules hold the function, so a
call from ``grs.recovery`` to its imported ``solve_triangular`` or
``accessible_points``, or from ``grs.singularities`` to ``chart_transform``,
is traced like a call through the defining module.  Nothing under ``src/``
changes; an untraced run never installs the wrappers.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name); the span name of verify_symmetry depends
# on its mode argument and is resolved per call
SPANNED = [
    ("algebra", "poly_gcd", "algebra.poly_gcd"),
    ("algebra", "exact_divide", "algebra.exact_divide"),
    ("algebra", "solve_triangular", "algebra.solve_triangular"),
    ("algebra", "parse_rat", "algebra.parse"),
    ("surface", "chart_transform", "surface.chart_transform"),
    ("surface", "check_log_condition", "surface.check_log_condition"),
    ("surface", "generic_family", "surface.generic_family"),
    ("singularities", "accessible_points", "singularities.accessible_points"),
    ("singularities", "divisor_chart_local", "singularities.divisor_chart_local"),
    ("singularities", "linearization_matrix", "singularities.linearization_matrix"),
    ("singularities", "linearization", "singularities.linearization"),
    ("singularities", "alpha_test", "singularities.alpha_test"),
    ("blowup", "resolve_family", "blowup.resolve_family"),
    ("blowup", "resolve_multiplicity", "blowup.resolve_multiplicity"),
    ("recovery", "recover", "recovery.recover"),
    ("recovery", "generate_constraints", "recovery.constraints"),
    ("recovery", "verify_recovered", "recovery.verify"),
    ("recovery", "eigenvalue_relation", "recovery.eigenvalue_relation"),
    ("recovery", "match_specialization", "recovery.match"),
    ("recovery", "construct_existence_system", "recovery.construct"),
    ("symmetry", "verify_symmetry", None),
    ("symmetry", "verify_involution", "symmetry.involution"),
    ("diophantine", "enumerate_natural", "diophantine.enumerate_natural"),
    ("diophantine", "bounded_integer_search", "diophantine.bounded_integer_search"),
    ("diophantine", "brute_force_box", "diophantine.brute_force_box"),
    ("catalog", "get_system", "catalog.get_system"),
    ("catalog", "get_scheme", "catalog.get_scheme"),
    ("catalog", "get_maps", "catalog.get_maps"),
    ("catalog", "match_pair", "catalog.match_pair"),
    ("io", "dumps", "io.dumps"),
    ("io", "loads", "io.loads"),
    ("io", "vf_to_json", "io.vf_to_json"),
    ("io", "vf_from_json", "io.vf_from_json"),
    ("io", "scheme_to_json", "io.scheme_to_json"),
    ("io", "scheme_from_json", "io.scheme_from_json"),
    ("cli", "main", "cli.main"),
]

# self-time metrics: metric name -> span names whose self times it sums
SELF_TIMES = {
    "algebra.poly_gcd.self_s": ("algebra.poly_gcd",),
    "algebra.exact_divide.self_s": ("algebra.exact_divide",),
    "algebra.solve_triangular.self_s": ("algebra.solve_triangular",),
    "algebra.parse.self_s": ("algebra.parse",),
    "surface.chart_transform.self_s": ("surface.chart_transform",),
    "singularities.accessible_points.self_s": ("singularities.accessible_points",),
    "singularities.linearization_matrix.self_s": ("singularities.linearization_matrix",),
    "blowup.resolve_family.self_s": ("blowup.resolve_family",),
    "blowup.resolve_multiplicity.self_s": ("blowup.resolve_multiplicity",),
    "recovery.constraints.self_s": ("recovery.constraints",),
    "recovery.verify.self_s": ("recovery.verify",),
    "recovery.substitute.self_s": ("recovery.recover",),
    "recovery.match.self_s": ("recovery.match",),
    "symmetry.probe.self_s": ("symmetry.probe",),
    "symmetry.symbolic.self_s": ("symmetry.symbolic",),
    "diophantine.self_s": ("diophantine.enumerate_natural",
                           "diophantine.bounded_integer_search",
                           "diophantine.brute_force_box"),
    "catalog.self_s": ("catalog.get_system", "catalog.get_scheme", "catalog.get_maps",
                       "catalog.match_pair"),
    "io.self_s": ("io.dumps", "io.loads", "io.vf_to_json", "io.vf_from_json",
                  "io.scheme_to_json", "io.scheme_from_json"),
    "cli.self_s": ("cli.main",),
}

COUNTS = (
    "algebra.poly_gcd.calls",
    "algebra.poly_gcd.trivial",
    "algebra.poly_gcd.peak_terms",
    "algebra.exact_divide.calls",
    "algebra.mpoly.mul_calls",
    "algebra.mrat.normalizations",
    "algebra.solve_triangular.calls",
    "surface.chart_transform.calls",
    "singularities.linearization_matrix.calls",
    "recovery.constraints.equations",
    "recovery.solve.steps",
)

RATIOS = {
    # name: (numerator count, denominator count); 0 when the denominator is 0
    "algebra.poly_gcd.useful_ratio": ("algebra.poly_gcd.useful", "algebra.poly_gcd.calls"),
    "surface.chart_transform.distinct_ratio": ("surface.chart_transform.distinct",
                                               "surface.chart_transform.calls"),
    "symmetry.draws.accepted_ratio": ("symmetry.draws.accepted", "symmetry.draws.attempts"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {name: "s" for name in SELF_TIMES}
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead_s"] = "s"
    return units


def _grs_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "grs" or name.startswith("grs."))]


def replace_everywhere(original, replacement) -> None:
    """Rebind every grs module attribute that refers to ``original``."""
    for mod in _grs_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    """Collects spans and counts while installed; one instance per run."""

    def __init__(self):
        self.spans: list = []          # (name, start_ns, end_ns, parent index)
        self.counts: Counter = Counter()
        self.distinct_charts: set = set()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import grs
        from grs import algebra, symmetry
        for module, attr, name in SPANNED:
            mod = getattr(grs, module)
            original = getattr(mod, attr)
            wrapper = self._spanned(original, name or self._symmetry_name,
                                    self._hooks(attr))
            replace_everywhere(original, wrapper)
            self._undo.append((original, wrapper))
        for owner, attr, key in ((algebra.MPoly, "__mul__", "algebra.mpoly.mul_calls"),):
            original = getattr(owner, attr)
            setattr(owner, attr, self._counted(original, key))
            self._undo.append((owner, attr, original))
        for module, attr, key in ((algebra, "_normalize_pair", "algebra.mrat.normalizations"),
                                  (symmetry, "draw_parameters", "symmetry.draws.attempts")):
            original = getattr(module, attr)
            wrapper = self._counted(original, key)
            replace_everywhere(original, wrapper)
            self._undo.append((original, wrapper))

    def uninstall(self) -> None:
        for entry in reversed(self._undo):
            if len(entry) == 3:
                owner, attr, original = entry
                setattr(owner, attr, original)
            else:
                original, wrapper = entry
                replace_everywhere(wrapper, original)
        self._undo.clear()

    @staticmethod
    def _symmetry_name(args, kwargs) -> str:
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "numeric-probe")
        return "symmetry.symbolic" if mode == "symbolic" else "symmetry.probe"

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, name, hooks):
        spans, stack, active = self.spans, self._stack, self._active
        before, after = hooks
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            active[span_name] += 1
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (span_name, start, clock(), parent)
                stack.pop()
                active[span_name] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # -- counters at the boundaries ----------------------------------------

    def _hooks(self, attr):
        counts, active = self.counts, self._active

        def gcd_before(args, kwargs):
            if active["algebra.poly_gcd"] == 1:
                counts["algebra.poly_gcd.calls"] += 1
                terms = max(len(args[0].terms), len(args[1].terms))
                if terms > counts["algebra.poly_gcd.peak_terms"]:
                    counts["algebra.poly_gcd.peak_terms"] = terms

        def gcd_after(args, kwargs, result):
            if active["algebra.poly_gcd"] == 0:
                if result.is_constant():
                    counts["algebra.poly_gcd.trivial"] += 1
                else:
                    counts["algebra.poly_gcd.useful"] += 1

        def chart_before(args, kwargs):
            counts["surface.chart_transform.calls"] += 1
            key = (args[0], args[1] if len(args) > 1 else kwargs["target"])
            if key not in self.distinct_charts:
                self.distinct_charts.add(key)
                counts["surface.chart_transform.distinct"] += 1

        def call_counter(key):
            def before(args, kwargs):
                counts[key] += 1
            return before

        def solve_after(args, kwargs, result):
            counts["recovery.solve.steps"] += len(result.trace)

        def constraints_after(args, kwargs, result):
            counts["recovery.constraints.equations"] += len(result.equations)

        def symmetry_after(args, kwargs, result):
            if result.mode == "numeric-probe":
                counts["symmetry.draws.accepted"] += result.draws

        return {
            "poly_gcd": (gcd_before, gcd_after),
            "exact_divide": (call_counter("algebra.exact_divide.calls"), None),
            "solve_triangular": (call_counter("algebra.solve_triangular.calls"), solve_after),
            "chart_transform": (chart_before, None),
            "linearization_matrix": (call_counter("singularities.linearization_matrix.calls"),
                                     None),
            "generate_constraints": (None, constraints_after),
            "verify_symmetry": (None, symmetry_after),
        }.get(attr, (None, None))

    # -- per-pass summaries -------------------------------------------------

    def begin_pass(self) -> int:
        """Reset the counters; returns the index of the pass's first span."""
        self.counts.clear()
        self.distinct_charts.clear()
        return len(self.spans)

    def pass_summary(self, first_span: int) -> tuple[dict, dict]:
        """(self seconds by metric, counts) for the spans recorded since first_span."""
        spans = self.spans[first_span:]
        child = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        by_name: Counter = Counter()
        for (name, start, end, parent), inner in zip(spans, child):
            by_name[name] += end - start - inner
        self_s = {metric: sum(by_name[n] for n in names) / 1e9
                  for metric, names in SELF_TIMES.items()}
        counts = {name: self.counts[name] for name in COUNTS}
        for name, (num, den) in RATIOS.items():
            counts[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        return self_s, counts

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


def median_summary(summaries: list[tuple[dict, dict]]) -> tuple[dict, dict, bool]:
    """Median self times over traced passes, the counts, and whether they repeat."""
    self_s = {name: statistics.median(s[name] for s, _ in summaries) for name in SELF_TIMES}
    counts = summaries[0][1]
    repeat = all(c == counts for _, c in summaries[1:])
    return self_s, counts, repeat
