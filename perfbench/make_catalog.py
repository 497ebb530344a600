"""Write catalog.json: the composite spaces of the homology_cold workload.

    python3 perfbench/make_catalog.py

Random expressions of the CLI grammar are drawn from a fixed seed; for
each step of a geometric ladder of generator counts the closest unused
expression is kept, so the catalog spans small to mid-sized spaces
without gaps. Sizes are predicted by checks.cells, never by building.
The output is deterministic; the benchmark only reads it.
"""
from __future__ import annotations

import json
import math
import os
import random

import checks
from checks import S

SEED = 1507
POOL = 30000
N_COMPOSITES = 92
COMPOSITE_GENERATORS = (6, 260)
N_CENSUS = 8
CENSUS_GENERATORS = (20, 400)
SUBSPACE_CAP = 600  # no intermediate space above this many generators

# Q(K,n) is built through an isomorphism search that does not finish on
# larger quotients (Q(S1,4), Q(S2,3)), so only these quotients are drawn.
QUOTIENTS = [("Q", S(1), 2), ("Q", S(1), 3), ("Q", S(2), 2), ("Q", S(3), 2)]


def draw(rng: random.Random, depth: int):
    """(space, cells, largest generator count of any subspace)."""
    if depth == 0 or rng.random() < 0.35:
        r = rng.random()
        space = (S(1) if r < 0.4 else S(2) if r < 0.7 else S(3) if r < 0.8 else
                 S(0) if r < 0.87 else ("pt",) if r < 0.9 else rng.choice(QUOTIENTS))
        c = checks.cells(space)
        return space, c, 1 + sum(c.values())
    if rng.random() < 0.2:
        inner, c, big = draw(rng, depth - 1)
        n = rng.randint(2, 4)
        c = checks.james_cells(c, n) if 1 + sum(c.values()) <= SUBSPACE_CAP else {0: SUBSPACE_CAP}
        return ("J", inner, n), c, max(big, 1 + sum(c.values()))
    tag = rng.choice("++x^")
    (a, ca, ba), (b, cb, bb) = draw(rng, depth - 1), draw(rng, depth - 1)
    if tag == "+":
        c = checks.add_counts(ca, cb)
    elif tag == "^":
        c = checks.smash_cells(ca, cb)
    else:
        c = checks.add_counts(checks.add_counts(ca, cb), checks.smash_cells(ca, cb))
    return (tag, a, b), c, max(ba, bb, 1 + sum(c.values()))


def pick(pool: dict, lo: float, hi: float, n: int) -> list:
    """For each step of a geometric ladder, the unused entry whose size is
    closest to it on a log scale."""
    chosen = []
    for k in range(n):
        target = math.log(lo * (hi / lo) ** (k / (n - 1)))
        key = min(pool, key=lambda key: (abs(math.log(pool[key][1]) - target), key))
        chosen.append(pool.pop(key)[0])
    return chosen


def main():
    rng = random.Random(SEED)
    composites, bases = {}, {}
    for _ in range(POOL):
        space, c, big = draw(rng, 4)
        if big > SUBSPACE_CAP:
            continue
        text = checks.render(space)
        if space[0] in "+x^J" and text not in composites:
            composites[text] = (space, 1 + sum(c.values()))
        if space[0] in "+x^" and big <= 30:
            n = rng.randint(2, 4)
            size = 1 + sum(checks.james_cells(c, n).values())
            bases.setdefault((text, n), ((space, n), size))
    doc = {
        "seed": SEED,
        "composites": pick(composites, *COMPOSITE_GENERATORS, N_COMPOSITES),
        "census": pick(bases, *CENSUS_GENERATORS, N_CENSUS),
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.json")
    with open(path, "w") as fh:  # one entry per line
        fh.write(f'{{"seed": {SEED},\n')
        for key in ("composites", "census"):
            entries = ",\n".join(json.dumps(e) for e in doc[key])
            fh.write(f'"{key}": [\n{entries}\n]' + (",\n" if key == "composites" else "}\n"))
    print(f"wrote {path}: {len(doc['composites'])} composites, {len(doc['census'])} censuses")


if __name__ == "__main__":
    main()
