"""Write the CLI argvs of a benchmark workload, for compare_outputs.py.

    python3 tools/workload_argvs.py --workload forms_stream --seed 601 --seed 7 --out argvs.json

Builds the workload from perfbench/workloads.py at each seed, with
workloads.cli_op replaced by a recorder in this process, so that no op
runs. Every recorded argv is written twice, once with "--format json" (as
the benchmark runs it) and once with "--format text", in op order, seed by
seed. The output is the JSON list of argument lists that
compare_outputs.py --argvs reads. Ops that do not go through the CLI are
not recorded. perfbench/ is imported as it is. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ("json", "text")


def workload_argvs(workload: str, seeds) -> list[list[str]]:
    """Every CLI argv of the workload at the seeds, once per format."""
    for path in (os.path.join(HERE, "src"), os.path.join(HERE, "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    recorded = []
    real = workloads.cli_op
    workloads.cli_op = lambda _label, argv, _check: argv
    try:
        for seed in seeds:
            ops = workloads.WORKLOADS[workload](seed).ops
            recorded.extend(op for op in ops if isinstance(op, list))
    finally:
        workloads.cli_op = real
    return [[*argv, "--format", fmt] for argv in recorded for fmt in FORMATS]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a name from perfbench/workloads.py's WORKLOADS")
    p.add_argument("--seed", type=int, action="append", required=True, help="repeat for more seeds")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    argvs = workload_argvs(args.workload, args.seed)
    with open(args.out, "w") as fh:
        json.dump(argvs, fh)
    print(f"wrote {len(argvs)} argvs to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
