"""
Exact Smith reduction of integer matrices and the homology it computes.
"""

from ehpcalc.homology import (
    HomologyGroup,
    IntegerMatrix,
    chain_homology,
    reduced_homology,
    smith_normal_form,
)
from ehpcalc.james import james_truncation
from ehpcalc.simplicial import build_sphere

M = IntegerMatrix.from_rows([
    [2, 4, 4],
    [-6, 6, 12],
    [10, 4, 16],
])
factors, U, V = smith_normal_form(M)
D = U @ M @ V
print("invariant factors:", factors)
print("diagonalized:", D.entries)

# U and V certify the reduction: both are integer matrices with unit
# determinant, so the factors are a change-of-basis invariant
assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

# a chain complex with torsion, as sparse boundary columns by degree: one
# vertex, one edge, and a 2-cell whose boundary wraps twice around the edge
groups = chain_homology([[{}], [{}], [{0: 2}]])
for n in (0, 1, 2):
    print(f"H_{n} of the double-wrap complex: {groups.get(n, HomologyGroup(0))}")

# the same machinery drives simplicial homology end to end
J2 = james_truncation(build_sphere(2), 2)
print("reduced homology of the level-2 truncation of S^2:",
      {n: str(g) for n, g in sorted(reduced_homology(J2).items())})
