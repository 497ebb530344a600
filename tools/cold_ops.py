"""Time CLI ops cold, each in a fresh fork, as homology_cold meets them.

    python3 tools/cold_ops.py --workload homology_cold --seed 601 --limit 40

Takes the workload's argvs in JSON format (the ones the benchmark runs)
from workload_argvs.py. This process imports ehpcalc.cli and builds the
argv list, and runs no op. For each argv it forks one child, which runs
cli.main(argv) twice with its output captured and reports, for each run,
the time and the minor page faults (resource.getrusage of the child).
Prints the medians over the argvs of the first and the second run. The
first run pays the child's first touch of memory, the second mostly not.
perfbench/ is imported as it is. Standard library only; POSIX only.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workload_argvs import workload_argvs  # noqa: E402

RUNS = 2


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _run_twice(cli, argv) -> list[tuple[float, int, int]]:
    """(seconds, minor faults, exit code) of each run of cli.main(argv)."""
    readings = []
    for _ in range(RUNS):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            faults, start = _minor_faults(), time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
            readings.append((time.perf_counter() - start, _minor_faults() - faults, code))
    return readings


def in_fresh_fork(cli, argv) -> list[tuple[float, int, int]]:
    """_run_twice(cli, argv) in a child forked from this process."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            os.write(write_fd, json.dumps(_run_twice(cli, argv)).encode())
        except BaseException:  # reported here; the parent sees no reading
            traceback.print_exc()
            code = 1
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"the child for {argv} ended without a reading")
    return json.loads(data)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a name from perfbench/workloads.py's WORKLOADS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--limit", type=int, default=None, help="time only the first N argvs")
    args = p.parse_args(argv)
    argvs = [a for a in workload_argvs(args.workload, [args.seed]) if a[-2:] == ["--format", "json"]]
    argvs = argvs[:args.limit]
    from ehpcalc import cli  # imported by workload_argvs already

    readings = [in_fresh_fork(cli, a) for a in argvs]
    print(f"{args.workload} seed {args.seed}: {len(argvs)} ops, each in a fresh fork, run {RUNS} times")
    for k, name in enumerate(("first", "second")):
        ms = statistics.median(r[k][0] for r in readings) * 1e3
        faults = statistics.median(r[k][1] for r in readings)
        failed = sum(r[k][2] != 0 for r in readings)
        print(f"{name} run: median {ms:.2f} ms, {faults:g} minor page faults, {failed} nonzero exits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
