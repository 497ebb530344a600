"""Record the benchmark of this checkout against a parent checkout.

    python3 tools/bench_record.py --parent ../parent --out BENCH_16.json

For each of PAIRS pairs and each workload, runs

    python3 perfbench/run.py --workload W --seed S

once in the parent checkout and once in this one, alternating which side
goes first, and keeps the last line of each run's stdout (one JSON object).
From each run's stderr it keeps the lines "measured before scaling: ..."
and "pace: kernel median ...", and reads the first into the run's
"unscaled" metrics: a scaled time moves with the pace kernel, so a change
in a scaled metric is read against the unscaled one. The run length is
perfbench's own. The output file holds every run, the medians of each
end-to-end metric per workload and side, scaled ("medians") and unscaled
("unscaled_medians"), and the machine the runs were made on. Standard
library only; perfbench itself is run as it is.

Each run has PYTHONDONTWRITEBYTECODE=1 in its environment, and the script
refuses to start while either checkout holds a __pycache__ under src/ or
perfbench/: bytecode cached on one side only would show there as a
setup_s gain.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("homology_cold", "library_session", "forms_stream")
# ten pairs: the fewest that can back a claimed gain
PAIRS = 10
MEASURED, PACE = "measured before scaling: ", "pace: kernel median "


def run_once(root: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    run = json.loads(done.stdout.strip().splitlines()[-1])
    run["stderr"] = [line for line in done.stderr.splitlines() if line.startswith((MEASURED, PACE))]
    measured = next(line for line in run["stderr"] if line.startswith(MEASURED))
    run["unscaled"] = {}
    for part in measured[len(MEASURED):].split(", "):  # "wall_s 0.3021 s"
        name, value, unit = part.split(" ")
        run["unscaled"][name] = {"value": float(value), "unit": unit}
    return run


def bytecode_caches(root: str) -> list[str]:
    """The __pycache__ directories under root's src/ and perfbench/."""
    found = []
    for top in ("src", "perfbench"):
        for folder, subfolders, _files in os.walk(os.path.join(root, top)):
            if "__pycache__" in subfolders:
                found.append(os.path.join(folder, "__pycache__"))
    return found


def medians(runs: list[dict], key: str = "metrics") -> dict:
    names = runs[0][key]
    return {k: statistics.median(r[key][k]["value"] for r in runs) for k in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--out", required=True, help="file to write, e.g. BENCH_16.json")
    p.add_argument("--seed", type=int, default=601)
    args = p.parse_args(argv)

    sides = {"parent": os.path.abspath(args.parent), "change": HERE}
    cached = [path for root in sides.values() for path in bytecode_caches(root)]
    if cached:
        print(f"refusing to start: {cached[0]} holds cached bytecode; delete it", file=sys.stderr)
        return 1
    runs = {w: {side: [] for side in sides} for w in WORKLOADS}
    for i in range(PAIRS):
        for w in WORKLOADS:
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {i + 1}/{PAIRS}: {w} on {side}", file=sys.stderr)
                runs[w][side].append(run_once(sides[side], w, args.seed))
    doc = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed}",
        "machine": {"python": platform.python_version(), "system": platform.platform(),
                    "cpus": os.cpu_count()},
        "pairs": PAIRS,
        "medians": {w: {side: medians(r) for side, r in by_side.items()} for w, by_side in runs.items()},
        "unscaled_medians": {w: {side: medians(r, "unscaled") for side, r in by_side.items()}
                             for w, by_side in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
