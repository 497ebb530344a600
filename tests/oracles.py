"""Independent brute-force oracles used to pin expected values.

Each oracle deliberately avoids the code paths of the implementation it
checks: counts come from first-principles enumeration, homology ranks
from rational row reduction, isometry from representation numbers.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def shuffle_count(dims_a: list[int], dims_b: list[int], n: int) -> int:
    """Number of nondegenerate n-cells of a product, from generator dims only.

    Pairs (p, q) of generator dimensions contribute the number of ways to
    pick disjoint degeneracy index sets I, J inside {0..n-1} with
    |I| = n - p and |J| = n - q.
    """
    total = 0
    for p, q in itertools.product(dims_a, dims_b):
        if not max(p, q) <= n <= p + q:
            continue
        for I in itertools.combinations(range(n), n - p):
            rest = [i for i in range(n) if i not in I]
            total += sum(1 for _ in itertools.combinations(rest, n - q))
    return total


def increasing_tuples(q: int, r: int) -> list[tuple[int, ...]]:
    """All strictly increasing r-tuples from range(q), lexicographically.

    Brute force: filter the full cartesian power rather than using a
    combinatorial generator.
    """
    out = []
    for t in itertools.product(range(q), repeat=r):
        if all(t[i] < t[i + 1] for i in range(r - 1)):
            out.append(t)
    return sorted(out)


def rational_rank(matrix: list[list[int]]) -> int:
    """Rank over Q by fraction-exact Gaussian elimination."""
    if not matrix or not matrix[0]:
        return 0
    m = [[Fraction(x) for x in row] for row in matrix]
    rows, cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [inv * x for x in m[row]]
        for r in range(rows):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def integer_det(matrix: list[list[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def gcd_of_minors(matrix: list[list[int]], k: int) -> int:
    """gcd of all k x k minors; 0 when every minor vanishes."""
    import math

    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    g = 0
    for rs in itertools.combinations(range(rows), k):
        for cs in itertools.combinations(range(cols), k):
            minor = integer_det([[matrix[r][c] for c in cs] for r in rs])
            g = math.gcd(g, minor)
    return g


def representation_counts(q: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """How often the diagonal form sum(a_i x_i^2) takes each value of F_q.

    Isometric forms have identical count vectors, and over a finite field
    of odd order the counts plus the rank pin the isometry class.
    """
    counts = [0] * q
    for xs in itertools.product(range(q), repeat=len(coeffs)):
        counts[sum(a * x * x for a, x in zip(coeffs, xs)) % q] += 1
    return tuple(counts)


def homology_ranks_from_chains(boundaries: dict[int, list[list[int]]], basis_sizes: dict[int, int]) -> dict[int, int]:
    """Free ranks of reduced homology from boundary matrices, torsion ignored."""
    out = {}
    degrees = sorted(basis_sizes)
    for n in degrees:
        r_n = rational_rank(boundaries.get(n, []))
        r_next = rational_rank(boundaries.get(n + 1, []))
        free = basis_sizes[n] - r_n - r_next
        if free:
            out[n] = free
    return out


def james_cell_count(gen_dims: list[int], n: int, m: int) -> int:
    """Nondegenerate m-cells of the length-<=n word complex, by counting only.

    A word is an ordered tuple of letters s_W(core); inclusion-exclusion over
    the shared degeneracy indices counts tuples with empty intersection,
    without building a single word object.
    """
    import math

    total = 0
    for ell in range(1, n + 1):
        for dims in itertools.product(gen_dims, repeat=ell):
            if any(d > m for d in dims):
                continue
            for s in range(m + 1):
                prod = 1
                for d in dims:
                    k = m - d - s
                    if k < 0 or k > m - s:
                        prod = 0
                        break
                    prod *= math.comb(m - s, k)
                total += (-1) ** s * math.comb(m, s) * prod
    return total


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in the units mod p, by direct iteration."""
    a %= p
    if a == 0:
        raise ValueError("not a unit")
    acc, k = a, 1
    while acc != 1:
        acc = acc * a % p
        k += 1
    return k


def independent_primitive_root(p: int) -> int:
    """Smallest generator of the units mod p, certified by the order test."""
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise ValueError("no generator found")


def fp_power_product(p: int, pairs: list[tuple[int, int]]) -> int:
    """Product of a^c mod p over (a, c) pairs, negative exponents allowed."""
    acc = 1
    for a, c in pairs:
        acc = acc * pow(a % p, c % (p - 1), p) % p
    return acc


def sign_product_signature(terms: list[tuple[int, int, list[int]]]) -> int:
    """Signature of sum of c * prod(sign(a_i) - 1) over (c, s, letters) terms.

    Integer arithmetic only: each factor contributes 0 for a positive letter
    and -2 for a negative one; the eta power s never changes the value.
    """
    total = 0
    for c, _s, letters in terms:
        prod = 1
        for a in letters:
            prod *= 0 if a > 0 else -2
        total += c * prod
    return total


def reference_insert_degeneracy(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Normal form of s_i on a normal word, by the identity s_i s_j = s_{j+1} s_i (i <= j)."""
    if not word:
        return (i,)
    j = word[0]
    if i > j:
        return (i,) + word
    return (j + 1,) + reference_insert_degeneracy(word[1:], i)


def reference_face(K, x, i: int):
    """d_i x by peeling the outermost degeneracy and recursing.

    Uses only the face table of K and the three face-degeneracy identities;
    the implementation walks the word iteratively instead.
    """
    from ehpcalc.simplicial import Simplex

    if not x.word:
        return K.faces_of(x.generator)[i]
    a = x.word[0]
    inner = Simplex(x.generator, x.word[1:], x.dim - 1)  # x = s_a inner
    if i in (a, a + 1):
        return inner
    if i < a:
        f, outer = reference_face(K, inner, i), a - 1
    else:
        f, outer = reference_face(K, inner, i - 1), a
    return Simplex(f.generator, reference_insert_degeneracy(f.word, outer), x.dim - 1)


def reference_in_degeneracy_image(K, x, i: int) -> bool:
    """x = s_i(y) for some y, decided as s_i d_i x == x."""
    from ehpcalc.simplicial import Simplex

    if x.dim == 0 or i >= x.dim:
        return False
    f = reference_face(K, x, i)
    return Simplex(f.generator, reference_insert_degeneracy(f.word, i), x.dim) == x


def reference_joint_normal_form(complexes, xs, dim: int):
    """Strip shared degeneracies one at a time, smallest index first, by faces."""
    strips: list[int] = []
    cur = tuple(xs)
    d = dim
    while d > 0:
        if cur:
            hit = next((i for i in range(d)
                        if all(reference_in_degeneracy_image(K, x, i) for K, x in zip(complexes, cur))),
                       None)
        else:
            hit = 0
        if hit is None:
            break
        cur = tuple(reference_face(K, x, hit) for K, x in zip(complexes, cur))
        strips.append(hit)
        d -= 1
    word: tuple[int, ...] = ()
    for i in reversed(strips):
        word = reference_insert_degeneracy(word, i)
    return word, cur
