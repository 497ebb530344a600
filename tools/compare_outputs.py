"""Compare the CLI's outputs in this checkout and a parent checkout.

    python3 tools/compare_outputs.py --parent ../parent --argvs argvs.json

ARGVS is a JSON list of argument lists, e.g.

    [["tensor", "--expr", "KMW(2) (x) KMW(3)"],
     ["ehp", "sequence", "--sphere", "S[2+1a]", "--format", "json"]]

Each side runs every argv through ehpcalc.cli.main in one child process
of its own, with the side's src/ first on the import path. An argv's
outcome is its exit code (argparse's included), its stdout and its
stderr; an exception that escapes main is recorded by type and message.
Prints how many argvs were compared and the first one whose outcome
differs, and exits 1 on any difference. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# run in the child: one [exit code, stdout, stderr] per argv, as JSON
CHILD = """
import contextlib, io, json, sys
import ehpcalc.cli
with open(sys.argv[1]) as fh:
    argvs = json.load(fh)
outcomes = []
for argv in argvs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ehpcalc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    outcomes.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": ehpcalc.cli.__file__, "outcomes": outcomes}, sys.stdout)
"""


def run_side(root: str, argvs_file: str) -> list:
    src = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CHILD, argvs_file], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(done.stdout)
    if not os.path.abspath(doc["module"]).startswith(src + os.sep):
        raise SystemExit(f"{root}: ehpcalc was imported from {doc['module']}, not from {src}")
    return doc["outcomes"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--argvs", required=True, help="JSON file holding a list of argument lists")
    args = p.parse_args(argv)

    argvs_file = os.path.abspath(args.argvs)
    with open(argvs_file) as fh:
        argvs = json.load(fh)
    parent = run_side(os.path.abspath(args.parent), argvs_file)
    change = run_side(HERE, argvs_file)
    print(f"compared {len(argvs)} argvs")
    for argv, old, new in zip(argvs, parent, change):
        if old != new:
            print(f"first difference: {json.dumps(argv)}")
            for part, a, b in zip(("exit code", "stdout", "stderr"), old, new):
                if a != b:
                    print(f"  {part}: parent {a!r}, change {b!r}")
            return 1
    print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
