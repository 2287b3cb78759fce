"""Spans around calls into the library's public functions, and the
per-layer metrics derived from them.

The tracer replaces module attributes with timing wrappers while it is
installed; the library itself carries no instrumentation.  A binding is
wrapped under every module that calls it, because a name imported with
``from .series import series_exp`` is looked up in the importing module.
Spans are kept in memory and written out at the end of the run.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

from mimocov import analytic, cli, insights, model, montecarlo

# span name -> (owner, attribute) bindings that carry it
BINDINGS = {
    "model.validate": [(model, "validate")],
    "model.bundle_from_params": [(model, "bundle_from_params")],
    "analytic.coverage": [(analytic, "coverage")],
    "analytic.cellular_entries": [(analytic, "cellular_entries"), (insights, "cellular_entries")],
    "analytic.adhoc_entries": [(analytic, "adhoc_entries"), (insights, "adhoc_entries")],
    "series.series_exp": [(analytic, "series_exp"), (insights, "series_exp")],
    "series.series_reciprocal": [(analytic, "series_reciprocal"), (insights, "series_reciprocal")],
    "insights.cellular_decay_rate": [(insights, "cellular_decay_rate")],
    "insights.improvement_sequence": [(insights, "improvement_sequence")],
    "insights.density_profile": [(insights, "density_profile")],
    "insights.density_eval": [(insights.DensityProfile, "coverage_at"),
                              (insights.DensityProfile, "derivative_at")],
    "insights.adhoc_peak_bound": [(insights, "adhoc_peak_bound")],
    "montecarlo.simulate": [(montecarlo, "simulate")],
    "cli.main": [(cli, "main")],
}

# the work size recorded with a span, from the call's arguments
_SIZES = {
    "analytic.cellular_entries": lambda args: args[1],
    "analytic.adhoc_entries": lambda args: args[1],
    "series.series_exp": lambda args: len(args[0]),
    "series.series_reciprocal": lambda args: len(args[0]),
}


class Tracer:
    """Records (name, start, end, parent, op, size) per wrapped call."""

    def __init__(self):
        self.spans = []
        self.op = None        # id of the op in progress; set by the caller
        self.source = None    # which deck the op belongs to
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        sizer = _SIZES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, self.source,
                    sizer(args) if sizer else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        for name, bindings in BINDINGS.items():
            for owner, attr in bindings:
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, source, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "source": source, "size": size}) + "\n")


def duration(span) -> float:
    return span[2] - span[1]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += duration(span)
    return [duration(s) - c for s, c in zip(spans, child)]


def series_terms(m: int) -> int:
    """Inner-product terms of one O(M^2) recursion of order m."""
    return m * (m - 1) // 2


def layer_metrics(spans, sources) -> tuple[dict, dict]:
    """Per-layer values from spans.  `sources` lists the decks in order of
    preference; each metric uses the first deck whose spans have it.
    Returns (values, deck used per metric)."""
    selfs = self_times(spans)
    values, used = {}, {}

    def parent_name(span):
        return spans[span[3]][0] if span[3] is not None else None

    def pick(pred):
        for source in sources:
            idx = [i for i, s in enumerate(spans) if s[5] == source and pred(s)]
            if idx:
                return source, idx
        return None, []

    def put(metric, pred, reduce):
        source, idx = pick(pred)
        if idx:
            values[metric] = reduce(idx)
            used[metric] = source

    def named(*names):
        return lambda s: s[0] in names

    def total(idx):
        return math.fsum(duration(spans[i]) for i in idx)

    def per_call(scale):
        return lambda idx: scale * total(idx) / len(idx)

    put("model.validate_us",
        lambda s: s[0].startswith("model.") and not (parent_name(s) or "").startswith("model."),
        per_call(1e6))
    put("analytic.cellular_entry_us", named("analytic.cellular_entries"),
        lambda idx: 1e6 * total(idx) / sum(spans[i][6] for i in idx))
    put("analytic.cellular_entries_share",
        lambda s: s[0] == "analytic.cellular_entries" and parent_name(s) == "analytic.coverage",
        lambda idx: total(idx) / total({spans[i][3] for i in idx}))
    put("analytic.adhoc_entries_us", named("analytic.adhoc_entries"), per_call(1e6))
    put("analytic.coverage_overhead_us", named("analytic.coverage"),
        lambda idx: 1e6 * math.fsum(selfs[i] for i in idx) / len(idx))
    for metric, name in (("series.exp_ns_per_term", "series.series_exp"),
                         ("series.reciprocal_ns_per_term", "series.series_reciprocal")):
        put(metric, lambda s, name=name: s[0] == name and s[6] > 1,
            lambda idx: 1e9 * total(idx) / sum(series_terms(spans[i][6]) for i in idx))
    put("series.terms_total", named("series.series_exp", "series.series_reciprocal"),
        lambda idx: sum(series_terms(spans[i][6]) for i in idx))
    put("insights.decay_rate_ms", named("insights.cellular_decay_rate"), per_call(1e3))
    put("insights.improvement_sequence_ms", named("insights.improvement_sequence"), per_call(1e3))
    put("insights.density_profile_ms", named("insights.density_profile"), per_call(1e3))
    put("insights.density_eval_us", named("insights.density_eval"), per_call(1e6))
    put("cli.command_ms", named("cli.main"), per_call(1e3))
    return values, used
