"""
Walk the James filtration of a sphere: census of words by level, homology
of each truncation, and the quotient identification with a smash power.
"""

from ehpcalc.homology import reduced_homology
from ehpcalc.james import james_quotient, james_truncation, james_words
from ehpcalc.simplicial import build_sphere, wedge

S1 = build_sphere(1)
S2 = build_sphere(2)

for K, label in [(S1, "S^1"), (S2, "S^2"), (wedge(S1, S1), "S^1 v S^1")]:
    print(f"== James levels of {label}")
    for n in (1, 2, 3):
        J = james_truncation(K, n)
        census = {}
        for name, _ in J.gens:
            census[J.dim_of(name)] = census.get(J.dim_of(name), 0) + 1
        hom = {d: str(g) for d, g in sorted(reduced_homology(J).items())}
        print(f"  n={n}: generators by dimension {census}")
        print(f"       reduced homology {hom}")

# the top filtration quotient collapses everything below the top level,
# and what is left is exactly the n-fold smash power
for n in (2, 3):
    Q, witness = james_quotient(S1, n)  # the witness is checked on construction
    print(f"J_{n}(S^1) / J_{n - 1}(S^1) matches the {n}-fold smash power:"
          f" {len(witness)} generators paired")

# the word dictionary drives all of this: each named generator of a
# truncation is a reduced word of simplices of K
words = james_words(S1, 2)
sample = sorted(words)[:4]
print("sample word names at level 2:", sample)
