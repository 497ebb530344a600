"""Benchmark for ehpcalc: run one workload and print its metrics.

    python3 perfbench/run.py --workload homology_cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; ehpcalc is imported from src/. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run makes one untraced and one traced round and reports the
per-layer metrics and the tracing overhead, and writes every span to
perfbench/out/. Progress and failures go to stderr. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A round is the workload's whole op list; a run makes seconds / nominal
# rounds (at least one), so every run of a workload attempts the same ops.
NOMINAL_ROUND_S = {"homology_cold": 8.0, "library_session": 5.0, "forms_stream": 4.0}
# Set-up is timed by fresh interpreters spread between the rounds, so that
# setup_s samples the machine over the whole run, like the op times.
SETUP_PROBES = 9


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and generate the inputs, then exit (used to time set-up)")
    return p.parse_args(argv)


def time_setup(args, count: int) -> list[float]:
    """Wall times of fresh interpreters that start, import ehpcalc and the
    harness, generate the workload's inputs, and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def execute(ops, first: int, traced: bool):
    """Run ops in order in this (child) process: [(seconds, error, data)],
    the spans when traced, and a pace sample taken after each op."""
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    state: dict = {}
    out, paces = [], []
    for i, op in enumerate(ops, start=first):
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        try:
            result, error = op.run(state), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, (type(exc).__name__, str(exc))
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_op()
        out.append((elapsed, error, op.extract(result) if error is None else None))
        paces.append(pace.sample())
    return out, tracer.export() if tracer else None, paces


def run_round(workload, traced: bool, paces: list):
    """One pass over the op list: per-op results, peak RSS in MB, span lists.
    The pace samples are appended to paces."""
    from runner import run_forked

    if workload.fork_each_op:
        results, peak, span_lists = [], 0.0, []
        for i, op in enumerate(workload.ops):
            (res, spans, samples), rss = run_forked(execute, [op], i, traced)
            results += res
            peak = max(peak, rss)
            span_lists.append(spans)
            paces += samples
        return results, peak, span_lists
    (results, spans, samples), peak = run_forked(execute, workload.ops, 0, traced)
    paces += samples
    return results, peak, [spans]


def check_round(workload, results) -> tuple[int, bool]:
    """Failed-op count and whether every op that did not fail was right."""
    failed, correct = 0, True
    for op, (_t, error, data) in zip(workload.ops, results):
        if error is not None:
            failed += 1
            if error[0] != op.expect_error:
                print(f"FAILED {op.label}: {error[0]}: {error[1]}", file=sys.stderr)
            continue
        problem = op.check(data)
        if problem:
            correct = False
            print(f"WRONG {op.label}: {problem}", file=sys.stderr)
    return failed, correct


def end_to_end(rounds, peak: float, setup_s: float, scale: float) -> dict:
    """wall_s sums each op's median over the rounds; the percentiles are
    taken over those medians. Times are multiplied by scale."""
    per_op = [statistics.median(r[i][0] for r in rounds) * scale for i in range(len(rounds[0]))]
    cuts = statistics.quantiles(per_op, n=10)
    values = {
        "setup_s": (setup_s * scale, "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_p90_ms": (cuts[8] * 1000, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload, seed: int, untraced, traced, span_lists, scale: float) -> dict:
    import tracing

    totals: dict = {}
    for spans in span_lists:
        tracing.merge(totals, tracing.aggregate(spans))
    wall = sum(t for t, _e, _d in traced) * scale
    base = sum(t for t, _e, _d in untraced) * scale
    out = {k: {"value": v * scale, "unit": "ms"} if k in tracing.TIME_METRICS
           else {"value": v, "unit": tracing.SIZE_METRICS[k]} for k, v in totals.items()}
    out["trace.wall_s"] = {"value": wall, "unit": "s"}
    out["trace.untraced_wall_s"] = {"value": base, "unit": "s"}
    out["trace.overhead_pct"] = {"value": 100 * (wall - base) / base, "unit": "%"}

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    flat, labels = [], [op.label for op in workload.ops]
    for spans in span_lists:
        offset = len(flat)
        flat += [dict(s, parent=None if s["parent"] is None else s["parent"] + offset) for s in spans]
    with open(os.path.join(HERE, "out", f"trace-{workload.name}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "ops": labels, "spans": flat,
                   "metrics": out}, fh)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ehpcalc", "__init__.py")):
        print(f"no ehpcalc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    paces: list = []
    if args.trace:
        untraced, _, _ = run_round(workload, False, paces)
        traced, _, span_lists = run_round(workload, True, paces)
        rounds = [untraced, traced]
        metrics = per_layer(workload, args.seed, untraced, traced, span_lists, pace.factor(paces))
    else:
        n = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
        # probes before the first round, between rounds and after the last
        share = [SETUP_PROBES * (i + 1) // (n + 1) - SETUP_PROBES * i // (n + 1) for i in range(n + 1)]
        rounds, peak, setups = [], 0.0, time_setup(args, share[0])
        for probes in share[1:]:
            results, rss, _ = run_round(workload, False, paces)
            rounds.append(results)
            peak = max(peak, rss)
            setups += time_setup(args, probes)
        metrics = end_to_end(rounds, peak, statistics.median(setups), pace.factor(paces))
        measured = end_to_end(rounds, peak, statistics.median(setups), 1.0)
        print("measured before scaling: " + ", ".join(
            f"{k} {v['value']:.4g} {v['unit']}" for k, v in measured.items()), file=sys.stderr)
    print(f"pace: kernel median {statistics.median(paces) * 1000:.4f} ms over {len(paces)} samples, "
          f"scale {pace.factor(paces):.4f}", file=sys.stderr)

    failed, correct = 0, True
    for results in rounds:
        f, ok = check_round(workload, results)
        failed += f
        correct = correct and ok
    attempted = len(rounds) * len(workload.ops)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(workload.ops)} ops, "
          f"{failed} failed, correct={correct}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
