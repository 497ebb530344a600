"""Time first builds of large complexes, each in a fresh child process.

    python3 tools/build_ladder.py
    python3 tools/build_ladder.py --rung 'smash_power(W8,3)' --runs 3 --root ../parent

Each rung is one build that the library makes from scratch: a product or
smash with a high sphere, a smash power, a long James truncation and the
cube of the wedge of eight circles. A rung can also be a reduction: the
certified Smith form of a dense 24 x 24 draw. For each run of each rung a
new interpreter imports ehpcalc from ROOT/src (this checkout by default),
makes the operands, then times the build alone. It prints one line per build:
the rung, the seconds the build took, and the child's peak resident set
size (ru_maxrss, import and operands included). Every cache is cold in a
new process, so each line is a first build. Standard library only; POSIX
only (resource).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# rung -> (operands, build), both run in the child after the imports of CHILD
RUNGS = {
    "product(S256,S1)": ("A, B = build_sphere(256), build_sphere(1)", "product(A, B)"),
    "smash(S256,S1)": ("A, B = build_sphere(256), build_sphere(1)", "smash(A, B)"),
    "product(S128,S1)": ("A, B = build_sphere(128), build_sphere(1)", "product(A, B)"),
    "smash_power(S2,4)": ("K = build_sphere(2)", "smash_power(K, 4)"),
    "J(S0,1999)": ("K = build_sphere(0)", "james_truncation(K, 1999)"),
    "smash_power(W8,3)": ("K = wedge(*[build_sphere(1)] * 8)", "smash_power(K, 3)"),
    "smith_normal_form(24x24)": ("rng = random.Random(24); "
                                 "M = IntegerMatrix.from_rows([[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)])",
                                 "smith_normal_form(M)"),
}

CHILD = """
import json, random, resource, sys, time
from ehpcalc.homology import IntegerMatrix, smith_normal_form
from ehpcalc.james import james_truncation, smash_power
from ehpcalc.simplicial import build_sphere, product, smash, wedge
operands, build = sys.argv[1:3]
exec(operands)
start = time.perf_counter()
exec(build)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_rung(root: str, rung: str) -> dict:
    """Seconds and peak RSS in MB of one first build of rung, in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, *RUNGS[rung]], env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{rung}: the build failed\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="a rung to run (repeatable); all rungs by default")
    parser.add_argument("--runs", type=int, default=1, help="fresh builds per rung (default 1)")
    parser.add_argument("--root", default=HERE, help="the checkout whose src/ is imported (default: this one)")
    args = parser.parse_args(argv)
    for rung in args.rung or RUNGS:
        for _ in range(args.runs):
            got = run_rung(args.root, rung)
            print(f"{rung}: {got['seconds']:.3f} s, {got['peak_rss_mb']:.1f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
