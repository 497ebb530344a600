"""Independent brute-force oracles used to pin expected values.

Each oracle deliberately avoids the code paths of the implementation it
checks: counts come from first-principles enumeration, homology ranks
from rational row reduction, isometry from representation numbers, and
isomorphisms of simplicial sets from a face-by-face check of a witness.
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


def reference_smith_normal_form(matrix: list[list[int]], cols: int):
    """Dense Smith normal form: (invariant factors, U, V) with U*M*V diagonal.

    The straightforward dense algorithm, kept as a reference for the sparse
    engine: the pivot is the smallest nonzero entry (row-major ties), its
    column and row are cleared by Euclid steps, and a row with an entry the
    pivot does not divide is added to the pivot row. Its U and V can grow
    very large on dense input.
    """
    A = [list(row) for row in matrix]
    n, m = len(A), cols
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        if i != j:
            A[i], A[j] = A[j], A[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in A:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def pivot_at(t):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                v = A[i][j]
                if v != 0 and (best is None or abs(v) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(n, m):
        pos = pivot_at(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            culprit = next(
                (i for i in range(t + 1, n) for j in range(t + 1, m) if A[i][j] % A[t][t] != 0),
                None,
            )
            if culprit is None:
                break
            add_row(t, culprit, 1)
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
            U[t] = [-v for v in U[t]]
        t += 1
    factors = [A[i][i] for i in range(min(n, m)) if A[i][i] != 0]
    return factors, U, V


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


def nondegenerate_count(censuses, m: int, power: int = 1) -> int:
    """Jointly nondegenerate m-tuples, one m-simplex from each factor given
    by its census {dim: generators}, the factor list repeated power times.

    Inclusion-exclusion over the shared degeneracy indices: a p-dimensional
    generator has C(m - k, p) m-simplices in the image of k given
    degeneracies, so the count is sum_k (-1)^k C(m, k) prod_i sum_p c_i(p)
    C(m - k, p), whose product only shrinks as k grows.
    """
    import math

    total, binom = 0, 1  # binom = C(m, k)
    for k in range(m + 1):
        size = math.prod(sum(c * math.comb(m - k, p) for p, c in census.items()) for census in censuses)
        if not size:
            break
        total += (-1) ** k * binom * size ** power
        binom = binom * (m - k) // (k + 1)
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


def assert_generator_isomorphism(A, B, witness):
    """witness is a dimension-preserving bijection from the generators of A
    onto those of B, and sends each face s_W(y) of a generator to the same
    face of its image, which must be s_W(witness[y])."""
    assert sorted(witness) == sorted(A.generators())
    assert sorted(witness.values()) == sorted(B.generators())
    assert witness[A.basepoint] == B.basepoint
    for a, b in witness.items():
        assert A.dim_of(a) == B.dim_of(b)
        if A.dim_of(a) > 0:
            for fa, fb in zip(A.faces_of(a), B.faces_of(b)):
                assert (witness[fa.generator], fa.word) == (fb.generator, fb.word)


def assert_faces_follow_class_rule(K, cells, factors, rule):
    """K is assembled from cells, (name, cell) pairs whose cell is a tuple of
    simplices with entry j in factors[j % len(factors)]: rule names each
    cell by its name, face i of each cell is rule applied to its entries'
    faces i (each taken by reference_face), and the cells are the generators
    of K, the basepoint aside."""
    assert {name for name, _ in cells} | {K.basepoint} == set(K.generators())
    for name, cell in cells:
        dim = cell[0].dim
        got = rule(cell)
        assert (got.generator, got.word, got.dim) == (name, (), dim)
        for i in range(dim + 1 if dim else 0):
            faces = tuple(reference_face(factors[j % len(factors)], x, i) for j, x in enumerate(cell))
            assert K.faces_of(name)[i] == rule(faces), (name, i)


def reference_cells(K, r: int, dim: int):
    """The r-tuples of dim-simplices of K over no basepoint that share no
    degeneracy, from the full cartesian power."""
    xs = [x for x in K.simplices(dim) if x.generator != K.basepoint]
    return [t for t in itertools.product(xs, repeat=r) if not set.intersection(*(set(x.word) for x in t))]


# -- the expanded-tuple form store that ehpcalc.gw replaced by counts per
# square class. A form is a pair (pos, neg) of tuples of canonical class
# representatives, one entry per copy: 1 over Qbar, +-1 over R, 1 or "g"
# over F_q, a squarefree integer over Q.


def _reference_squarefree(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def _reference_field(field) -> tuple[str, int, int]:
    """(kind, q, p) with q = p = 0 outside finite fields."""
    q = field.q or 0
    p = next((d for d in range(2, q + 1) if q % d == 0), 0)
    return field.kind, q, p


def reference_gw_class(field, a):
    """Canonical class of a nonzero int, a Fraction, or the symbol g."""
    kind, q, p = _reference_field(field)
    if a == "g":
        return "g"
    if isinstance(a, Fraction):
        a = a.numerator * a.denominator
    if kind == "quadratically-closed":
        return 1
    if kind == "real-closed":
        return 1 if a > 0 else -1
    if kind == "rationals":
        return _reference_squarefree(a)
    return 1 if pow(a, (q - 1) // 2, p) == 1 else "g"


def reference_gw_class_mul(field, a, b):
    kind = field.kind
    if kind == "quadratically-closed":
        return 1
    if kind == "real-closed":
        return a * b
    if kind == "finite-odd":
        return "g" if (a == "g") ^ (b == "g") else 1
    return _reference_squarefree(a * b)


def _reference_key(c):
    return (1, 0) if c == "g" else (0, c)


def _reference_from_counts(net: dict) -> tuple[tuple, tuple]:
    pos, neg = [], []
    for c in sorted(net, key=_reference_key):
        n = net[c]
        (pos if n > 0 else neg).extend([c] * abs(n))
    return tuple(pos), tuple(neg)


def reference_gw_normalize(field, pos, neg) -> tuple[tuple, tuple]:
    kind = field.kind
    rank = len(pos) - len(neg)
    if kind == "quadratically-closed":
        return _reference_from_counts({1: rank})
    if kind == "real-closed":
        sig = sum(pos) - sum(neg)
        return _reference_from_counts({1: (rank + sig) // 2, -1: (rank - sig) // 2})
    if kind == "finite-odd":
        if (pos.count("g") + neg.count("g")) % 2:
            return _reference_from_counts({1: rank - 1, "g": 1})
        return _reference_from_counts({1: rank})
    # rationals: cancel identical classes, then rewrite hyperbolic pairs
    # <a> + <-a> as <1> + <-1>, one copy at a time
    net: dict = {}
    for c in pos:
        net[c] = net.get(c, 0) + 1
    for c in neg:
        net[c] = net.get(c, 0) - 1
    planes = 0
    for c in sorted(net, key=_reference_key):
        if c in (1, -1):
            continue
        opp = reference_gw_class_mul(field, c, -1)
        while net.get(c, 0) > 0 and net.get(opp, 0) > 0:
            net[c] -= 1
            net[opp] -= 1
            planes += 1
        while net.get(c, 0) < 0 and net.get(opp, 0) < 0:
            net[c] += 1
            net[opp] += 1
            planes -= 1
    net[1] = net.get(1, 0) + planes
    net[-1] = net.get(-1, 0) + planes
    return _reference_from_counts({c: n for c, n in net.items() if n})


def reference_gw_make(field, terms):
    pos, neg = [], []
    for coeff, a in terms:
        (pos if coeff > 0 else neg).extend([reference_gw_class(field, a)] * abs(coeff))
    return reference_gw_normalize(field, tuple(pos), tuple(neg))


def reference_gw_add(field, x, y):
    return reference_gw_normalize(field, x[0] + y[0], x[1] + y[1])


def reference_gw_neg(field, x):
    return reference_gw_normalize(field, x[1], x[0])


def reference_gw_mul(field, x, y):
    (xp, xn), (yp, yn) = x, y

    def prods(us, vs):
        return tuple(reference_gw_class_mul(field, a, b) for a in us for b in vs)

    return reference_gw_normalize(field, prods(xp, yp) + prods(xn, yn), prods(xp, yn) + prods(xn, yp))


def reference_gw_scale(field, n, x):
    out = reference_gw_normalize(field, (), ())
    for _ in range(abs(n)):
        out = reference_gw_add(field, out, x)
    return out if n >= 0 else reference_gw_neg(field, out)


def reference_gw_str(x) -> str:
    def display_key(rep):
        if rep == "g":
            return (4, 0)
        if rep == 1:
            return (0, 0)
        if rep == -1:
            return (1, 0)
        return (2 if rep > 0 else 3, abs(rep))

    parts = []
    for classes, sign in zip(x, ("", "-")):
        counts: dict = {}
        for c in classes:
            counts[c] = counts.get(c, 0) + 1
        for c in sorted(counts, key=display_key):
            parts.append(f"{sign}{'' if counts[c] == 1 else counts[c]}<{c}>")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def reference_gw_invariants(field, x) -> dict:
    """Rank, discriminant class (one factor per copy) and signature."""
    pos, neg = x
    disc = 1
    for c in pos + neg:
        disc = reference_gw_class_mul(field, disc, c)
    if field.kind == "real-closed":
        signature = sum(pos) - sum(neg)
    elif field.kind == "rationals":
        signature = sum(1 if c > 0 else -1 for c in pos) - sum(1 if c > 0 else -1 for c in neg)
    else:
        signature = "undefined"
    return {"rank": len(pos) - len(neg), "disc": disc, "signature": signature}


def reference_gw_witt_str(field, x) -> str:
    inv = reference_gw_invariants(field, x)
    kind = field.kind
    if kind == "quadratically-closed":
        return "<1>" if inv["rank"] % 2 else "0"
    if kind == "real-closed":
        return str(inv["signature"])
    if kind == "finite-odd":
        minus = reference_gw_class(field, -1)
        parity = inv["rank"] % 2
        disc = inv["disc"]
        if (inv["rank"] - parity) // 2 % 2:
            disc = reference_gw_class_mul(field, disc, minus)
        if parity:
            return f"<{disc}>"
        if disc == 1:
            return "0"
        return "<1>+<1>" if reference_gw_class_mul(field, disc, minus) == 1 else "<1>+<g>"
    # rationals: subtract hyperbolic planes one at a time
    h = reference_gw_make(field, [(1, 1), (1, -1)])
    while 1 in x[0] and -1 in x[0]:
        x = reference_gw_add(field, x, reference_gw_neg(field, h))
    while 1 in x[1] and -1 in x[1]:
        x = reference_gw_add(field, x, h)
    return f"[{reference_gw_str(x)}]"


def reference_gw_power(field, x, k: int):
    """x^k by k multiplications, starting from <1>."""
    out = reference_gw_make(field, [(1, 1)])
    for _ in range(k):
        out = reference_gw_mul(field, out, x)
    return out


def reference_exchange_degree(field, p: int, q: int):
    """(-1)^p eps^q with eps = -<-1>, multiplied out q times."""
    eps = reference_gw_make(field, [(-1, -1)])
    return reference_gw_scale(field, (-1) ** p, reference_gw_power(field, eps, q))


def reference_hp_variant(field, p: int, q: int):
    """<1> + (-1)^(p+1+q) <-1>^q, multiplied out q times."""
    power = reference_gw_power(field, reference_gw_make(field, [(1, -1)]), q)
    return reference_gw_add(field, reference_gw_make(field, [(1, 1)]),
                            reference_gw_scale(field, (-1) ** (p + 1 + q), power))
