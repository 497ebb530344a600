"""Spans around calls into ehpcalc's public functions, recorded from outside.

Tracer.install() rebinds each traced function, wherever an ehpcalc module
holds it, to a wrapper that records a span: name, start, end, parent span
and op. Spans stay in memory; sizes are computed from the results after
each op, outside every span, and the whole trace is written out at the end
of the run. A layer's time is its spans' self time: duration minus the
time covered by direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import time

_MODULES = ("ehpcalc", "ehpcalc.cli", "ehpcalc.simplicial", "ehpcalc.homology",
            "ehpcalc.james", "ehpcalc.gw", "ehpcalc.kmw", "ehpcalc.ehp")


def _chain_sizes(C):
    entries = nnz = 0
    for b in C.boundaries:
        entries += b.rows * b.cols
        nnz += sum(1 for row in b.entries for v in row if v)
    return {"homology.matrix_entries": entries, "homology.matrix_nnz": nnz}


def _smith_sizes(result):
    _factors, U, V = result
    bits = max((abs(v).bit_length() for M in (U, V) for row in M.entries for v in row), default=0)
    return {"homology.smith_dense_max_bits": bits}


# (span name, defining module, function names, sizes of a result or None).
# A layer's time metric is named by time_metric(span name). Sizes are summed over
# spans, except the *_max_* ones, which take the maximum. cli.argparse is
# the parser's construction and its parse_args call; see Tracer.install.
LAYERS = (
    ("cli.argparse", "ehpcalc.cli", ("build_parser",), None),
    ("cli.parse_expr", "ehpcalc.cli", ("parse_gw_expr", "parse_kmw_expr", "parse_sheaf_expr", "parse_word"), None),
    ("simplicial.construct", "ehpcalc.cli", ("parse_space",),
     lambda K: {"simplicial.generators": K.n_generators}),
    ("simplicial.smash_power", "ehpcalc.james", ("smash_power",), None),
    ("homology.chains", "ehpcalc.homology", ("normalized_chain_complex",), _chain_sizes),
    ("homology.reduced", "ehpcalc.homology", ("reduced_homology",), None),
    ("james.truncation", "ehpcalc.james", ("james_truncation",),
     lambda J: {"james.truncation_generators": J.n_generators}),
    ("james.hopf_word", "ehpcalc.james", ("james_hopf_word",),
     lambda w: {"james.hopf_word_letters": len(w.letters)}),
    ("james.hopf_map", "ehpcalc.james", ("james_hopf_map",), None),
    ("james.unit_map", "ehpcalc.james", ("suspension_unit_E",), None),
    ("james.map", "ehpcalc.james", ("james_map",), None),
    ("james.quotient", "ehpcalc.james", ("james_quotient",), None),
    ("gw.make", "ehpcalc.gw", ("gw_make",), None),
    ("gw.arith", "ehpcalc.gw", ("gw_add", "gw_mul", "gw_scale"), None),
    ("gw.invariants", "ehpcalc.gw", ("gw_invariants",), lambda inv: {"gw.rank_total": abs(inv["rank"])}),
    ("kmw.normal_form", "ehpcalc.kmw", ("kmw_normal_form",), None),
    ("ehp", "ehpcalc.ehp", ("exchange_degree", "hp_differential", "classical_hp_degree",
                            "hp_invariant_report", "ehp_sequence_report", "signed_preimages",
                            "degree_by_signed_preimages", "known_results_table",
                            "known_results_lookup"), None),
)

# Dense Smith is timed where the benchmark calls it directly; inside
# reduced_homology it stays part of homology.reduced.
SMITH = ("homology.smith_dense", "ehpcalc", ("smith_normal_form",), _smith_sizes)

SIZE_METRICS = {
    "simplicial.generators": "count",
    "homology.matrix_entries": "count",
    "homology.matrix_nnz": "count",
    "homology.smith_dense_max_bits": "bits",
    "james.truncation_generators": "count",
    "james.hopf_word_letters": "count",
    "gw.rank_total": "count",
}


def time_metric(span: str) -> str:
    """homology.chains -> homology.chains_ms; a bare module name gets .ms."""
    return f"{span}_ms" if "." in span else f"{span}.ms"


TIME_METRICS = tuple(time_metric(name) for name, *_ in LAYERS + (SMITH,))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, result, sizes]
        self._stack = []
        self._pending = []
        self.op = None

    def _wrap(self, name, fn, sizes):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   tracer._stack[-1] if tracer._stack else None, tracer.op, None, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if sizes is not None:
                rec[5] = out
                tracer._pending.append((rec, sizes))
            return out

        return traced

    def _traced_parser(self, build_parser):
        """build_parser whose construction and parse_args are both spans."""
        build = self._wrap("cli.argparse", build_parser, None)

        @functools.wraps(build_parser)
        def traced():
            parser = build()
            parser.parse_args = self._wrap("cli.argparse", parser.parse_args, None)
            return parser

        return traced

    def install(self):
        """Rebind the traced functions in every ehpcalc module that holds them."""
        modules = [importlib.import_module(m) for m in _MODULES]
        for name, home, attrs, sizes in LAYERS:
            for attr in attrs:
                fn = getattr(importlib.import_module(home), attr)
                traced = self._traced_parser(fn) if attr == "build_parser" else self._wrap(name, fn, sizes)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)
        name, home, (attr,), sizes = SMITH
        mod = importlib.import_module(home)
        setattr(mod, attr, self._wrap(name, getattr(mod, attr), sizes))

    def end_op(self):
        """Turn the results held since the last op into sizes and drop them."""
        for rec, sizes in self._pending:
            rec[6] = sizes(rec[5])
            rec[5] = None
        self._pending = []

    def export(self):
        """Plain records for the trace file and for aggregation."""
        self.end_op()
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "sizes": sz}
            for n, s, e, p, op, _res, sz in self.spans
        ]


def aggregate(spans: list[dict]) -> dict:
    """Self time per layer in ms and summed (or maximal) sizes.

    Parent indices are local to the list the span came from; spans of one
    list are contiguous, so callers pass each child's list separately and
    add up the results with merge().
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {m: 0.0 for m in TIME_METRICS}
    out.update({m: 0 for m in SIZE_METRICS})
    for s, covered in zip(spans, child_time):
        out[time_metric(s["name"])] += (s["end"] - s["start"] - covered) * 1000
        for key, value in (s["sizes"] or {}).items():
            out[key] = max(out[key], value) if "_max_" in key else out[key] + value
    return out


def merge(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = max(total.get(key, 0), value) if "_max_" in key else total.get(key, 0) + value
    return total
