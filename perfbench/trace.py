"""Spans and counts around the public functions of each ``chaoscope`` layer.

:func:`install` replaces every module and class attribute through which a
traced function is reached (``dynamics.project_addr`` as well as
``bouquet.project_addr``, ``Formula.locate``, ``OrbitCursor.advance``) with a
wrapper that records a span: name, parent span, start and duration.  A
span's self time is its duration minus the durations of its child spans.
Nothing is installed in an untraced run, and the wrappers record only while
:attr:`Tracer.active` is set, which the harness does around timed steps.

Spans are kept in memory; per-name totals cover every call, while the span
list written at the end keeps the first :data:`SPAN_CAP` spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 50_000

# (module, attribute path, span name)
TARGETS = (
    ("chaoscope.bouquet", "Formula.locate", "bouquet.locate"),
    ("chaoscope.bouquet", "project_addr", "bouquet.project_addr"),
    ("chaoscope.bouquet", "check_addr", "bouquet.check_addr"),
    ("chaoscope.bouquet", "lift_choices", "bouquet.lift_choices"),
    ("chaoscope.bouquet", "find_occurrences", "bouquet.find_occurrences"),
    ("chaoscope.bouquet", "materialize_graph", "bouquet.materialize_graph"),
    ("chaoscope.dynamics", "column_of", "dynamics.column_of"),
    ("chaoscope.dynamics", "step", "dynamics.step"),
    ("chaoscope.dynamics", "next_base_time", "dynamics.next_base_time"),
    ("chaoscope.dynamics", "distance", "dynamics.distance"),
    ("chaoscope.dynamics", "OrbitCursor.__init__", "dynamics.OrbitCursor"),
    ("chaoscope.dynamics", "OrbitCursor.advance", "dynamics.advance"),
    ("chaoscope.analysis", "li_yorke_test", "analysis.li_yorke_test"),
    ("chaoscope.analysis", "_find_proximal", "analysis.find_proximal"),
    ("chaoscope.analysis", "proximal_certificate", "analysis.proximal_certificate"),
    ("chaoscope.analysis", "degree_window_min", "analysis.degree_window_min"),
    ("chaoscope.analysis", "mixing_gap_report", "analysis.mixing_gap_report"),
    ("chaoscope.graphs", "validate_edge_surjective", "graphs.validate_edge_surjective"),
    ("chaoscope.graphs", "validate_homomorphism", "graphs.validate_homomorphism"),
    ("chaoscope.graphs", "validate_bidirectional", "graphs.validate_bidirectional"),
    ("chaoscope.dsl", "parse", "dsl.parse"),
    ("chaoscope.dsl", "document_tower", "dsl.document_tower"),
)


def _column_class(args, kwargs):
    return f"s{args[0].spine_level}"


def _step_class(args, kwargs):
    delta = abs(args[1] if len(args) > 1 else kwargs["delta"])
    return {1: "d1", 10**12: "d1e12"}.get(delta)


def _edges_validated(args, kwargs):
    obj = args[0]
    graph = getattr(obj, "source", obj)  # a CoverMap or a MaterializedGraph
    return graph.edge_count


# span name -> function of the call's arguments giving a sample class
CLASSIFY = {
    "dynamics.column_of": _column_class,
    "dynamics.step": _step_class,
}
# span name -> function of the call's arguments giving units of work
WORK = {
    "graphs.validate_edge_surjective": _edges_validated,
    "graphs.validate_homomorphism": _edges_validated,
    "graphs.validate_bidirectional": _edges_validated,
}
# names whose per-call durations are kept for percentiles
SAMPLED = {
    "bouquet.lift_choices", "dynamics.column_of", "dynamics.step",
    "dynamics.next_base_time", "dynamics.distance", "analysis.li_yorke_test",
    "analysis.proximal_certificate", "analysis.degree_window_min",
}


class RoundStats:
    """Per-name totals of one round."""

    def __init__(self):
        self.names: dict[str, list] = {}  # name -> [calls, total s, self s, work]
        self.children: Counter = Counter()  # (parent name, child name) -> calls

    def record(self, name: str) -> list:
        rec = self.names[name] = [0, 0.0, 0.0, 0]
        return rec

    def get(self, field: str, name: str):
        return self.names.get(name, _EMPTY)[_FIELDS[field]]


_FIELDS = {"calls": 0, "total": 1, "self_time": 2, "work": 3}
_EMPTY = (0, 0.0, 0.0, 0)


class Tracer:
    def __init__(self):
        self.active = False
        self.rounds: list[RoundStats] = []
        self.samples: defaultdict = defaultdict(list)  # (name, class) -> durations
        self.spans: list[tuple] = []  # (id, parent id, name, start, duration)
        self.span_count = 0
        self._stack: list[list] = []  # [span id, name, child time]
        self._installed: list[tuple] = []
        self.missing: list[str] = []
        self._origin = perf_counter()
        self.current = RoundStats()

    def new_round(self) -> None:
        self.current = RoundStats()
        self.rounds.append(self.current)

    def wrap(self, name: str, fn):
        tracer = self
        classify = CLASSIFY.get(name)
        work = WORK.get(name)
        samples = tracer.samples[(name, None)] if name in SAMPLED and not classify else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stats = tracer.current
                rec = stats.names.get(name) or stats.record(name)
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    stats.children[(parent[1], name)] += 1
                if work is not None:
                    rec[3] += work(args, kwargs)
                if samples is not None:
                    samples.append(duration)
                elif classify is not None:
                    tracer.samples[(name, classify(args, kwargs))].append(duration)
                if span_id < SPAN_CAP:
                    tracer.spans.append((span_id, None if parent is None else parent[0],
                                         name, start - tracer._origin, duration))

        return traced

    def install(self) -> None:
        """Wrap every target wherever it is reachable inside ``chaoscope``.

        A target the program no longer has is listed in :attr:`missing`,
        and the metrics read from it stay 0.
        """
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "chaoscope" or key.startswith("chaoscope."))]
        for module_name, path, name in TARGETS:
            owner = sys.modules[module_name]
            *cls_name, attr = path.split(".")
            if cls_name:
                owner = getattr(owner, cls_name[0], None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if cls_name:
                self._replace(owner, attr, original, self.wrap(name, original))
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reading the record ---------------------------------------------------

    def per_round(self, field: str, name: str) -> list[float]:
        return [r.get(field, name) for r in self.rounds]

    def median_per_round(self, field: str, name: str) -> float:
        return statistics.median(self.per_round(field, name))

    def calls_total(self, name: str) -> int:
        return sum(self.per_round("calls", name))

    def children_total(self, parent: str, child: str) -> int:
        return sum(r.children[(parent, child)] for r in self.rounds)

    def quantile(self, name: str, q: float, key=None) -> float:
        values = sorted(self.samples.get((name, key), ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]

    def to_json(self) -> dict:
        return {
            "round_fields": ["calls", "total_s", "self_s", "work"],
            "rounds": [{
                "names": r.names,
                "children": [[p, c, n] for (p, c), n in sorted(r.children.items())],
            } for r in self.rounds],
            "missing_targets": self.missing,
            "span_count": self.span_count,
            "spans_kept": len(self.spans),
            "span_fields": ["id", "parent", "name", "start_s", "duration_s"],
            "spans": self.spans,
        }


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _us(seconds: float) -> float:
    return seconds * 1e6


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _advance_mean_self_us(t: Tracer) -> float:
    calls = t.calls_total("dynamics.advance")
    self_time = sum(t.per_round("self_time", "dynamics.advance"))
    return _us(_ratio(self_time, calls))


# name -> (unit, value from the tracer and the workload's shape counts).
# Per-round figures are medians over the run's rounds; percentiles pool
# every call of the run.  A layer the workload does not reach reads 0.
LAYER_METRICS = {
    "bouquet.locate.calls": (
        "count", lambda t, s: t.median_per_round("calls", "bouquet.locate")),
    "bouquet.locate.self_ms": (
        "ms", lambda t, s: _ms(t.median_per_round("self_time", "bouquet.locate"))),
    "bouquet.project_addr.calls": (
        "count", lambda t, s: t.median_per_round("calls", "bouquet.project_addr")),
    "bouquet.project_addr.self_ms": (
        "ms", lambda t, s: _ms(t.median_per_round("self_time", "bouquet.project_addr"))),
    "bouquet.check_addr.per_projection": (
        "ratio", lambda t, s: _ratio(t.calls_total("bouquet.check_addr"),
                                     t.calls_total("bouquet.project_addr"))),
    "bouquet.lift_choices.p50_us": (
        "us", lambda t, s: _us(t.quantile("bouquet.lift_choices", 0.5))),
    "bouquet.find_occurrences.ms": (
        "ms", lambda t, s: _ms(t.median_per_round("total", "bouquet.find_occurrences"))),
    "bouquet.materialize_graph.calls": (
        "count", lambda t, s: t.median_per_round("calls", "bouquet.materialize_graph")),
    "bouquet.materialize_graph.self_ms": (
        "ms", lambda t, s: _ms(t.median_per_round("self_time", "bouquet.materialize_graph"))),
    **{f"dynamics.column_of.p50_us.{key}": (
        "us", lambda t, s, key=key: _us(t.quantile("dynamics.column_of", 0.5, key)))
       for key in ("s8", "s12", "s16")},
    **{f"dynamics.step.p50_us.{key}": (
        "us", lambda t, s, key=key: _us(t.quantile("dynamics.step", 0.5, key)))
       for key in ("d1", "d1e12")},
    "dynamics.next_base_time.p50_us": (
        "us", lambda t, s: _us(t.quantile("dynamics.next_base_time", 0.5))),
    "dynamics.distance.p50_us": (
        "us", lambda t, s: _us(t.quantile("dynamics.distance", 0.5))),
    "dynamics.advance.calls": (
        "count", lambda t, s: t.median_per_round("calls", "dynamics.advance")),
    "dynamics.advance.mean_self_us": ("us", lambda t, s: _advance_mean_self_us(t)),
    "dynamics.advance.projections_per_step": (
        "ratio", lambda t, s: _ratio(
            t.children_total("dynamics.advance", "bouquet.project_addr"),
            t.calls_total("dynamics.advance"))),
    "analysis.li_yorke_test.p50_ms": (
        "ms", lambda t, s: _ms(t.quantile("analysis.li_yorke_test", 0.5))),
    "analysis.li_yorke_test.p90_ms": (
        "ms", lambda t, s: _ms(t.quantile("analysis.li_yorke_test", 0.9))),
    # the exhaustive fallback of the proximal search starts two cursors
    "analysis.proximal.fallback_pairs": (
        "count", lambda t, s: statistics.median(
            r.children[("analysis.find_proximal", "dynamics.OrbitCursor")] // 2
            for r in t.rounds)),
    "analysis.separation.full_horizon_pairs": (
        "count", lambda t, s: s.get("analysis.separation.full_horizon_pairs", 0)),
    "analysis.proximal_certificate.p50_ms": (
        "ms", lambda t, s: _ms(t.quantile("analysis.proximal_certificate", 0.5))),
    "analysis.degree_window_min.p50_ms": (
        "ms", lambda t, s: _ms(t.quantile("analysis.degree_window_min", 0.5))),
    "analysis.mixing_gap_report.ms": (
        "ms", lambda t, s: _ms(t.median_per_round("total", "analysis.mixing_gap_report"))),
    **{f"graphs.{name}.ms": (
        "ms", lambda t, s, name=name: _ms(t.median_per_round("total", f"graphs.{name}")))
       for name in ("validate_edge_surjective", "validate_homomorphism",
                    "validate_bidirectional")},
    "graphs.edges_validated": (
        "count", lambda t, s: statistics.median(
            sum(r.get("work", name) for name in WORK) for r in t.rounds)),
    "dsl.parse.ms": ("ms", lambda t, s: _ms(t.median_per_round("total", "dsl.parse"))),
    "dsl.document_tower.ms": (
        "ms", lambda t, s: _ms(t.median_per_round("total", "dsl.document_tower"))),
}


def layer_metrics(tracer: Tracer, shape: dict) -> dict:
    return {name: {"value": fn(tracer, shape), "unit": unit}
            for name, (unit, fn) in LAYER_METRICS.items()}
