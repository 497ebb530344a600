"""Independent checks of ehpcalc's outputs.

Nothing here imports ehpcalc. Each expected value is derived from first
principles: reduced homology from the expression (wedge sums, Kunneth,
smash tensor products, James splitting), cell counts by inclusion and
exclusion over shared degeneracies, Hopf words by brute-force subsequence
enumeration, Smith certificates by matrix products and Bareiss
determinants, quadratic form invariants from Jacobi symbols and sign
counts, and the EHP boundary element from its parity table.

Every check returns None when the output is right and a one-line reason
when it is not.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

# -- space expressions ------------------------------------------------------
#
# A space is a tuple tree: ("S", n), ("pt",), ("+", a, b), ("x", a, b),
# ("^", a, b), ("J", a, n), ("Q", a, n).

_PREC = {"+": 0, "x": 1, "^": 2}


def S(n: int):
    return ("S", n)


def render(space) -> str:
    """The space in the CLI grammar, parenthesised only where needed."""
    tag = space[0]
    if tag == "S":
        return f"S{space[1]}"
    if tag == "pt":
        return "pt"
    if tag in ("J", "Q"):
        return f"{tag}({render(space[1])},{space[2]})"
    p = _PREC[tag]

    def part(child, strict):
        text = render(child)
        cp = _PREC.get(child[0], 3)
        return f"({text})" if cp < p or (strict and cp == p) else text

    return f"{part(space[1], False)}{tag}{part(space[2], True)}"


def add_counts(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _tensor(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _power(a: dict, n: int) -> dict:
    out = a
    for _ in range(n - 1):
        out = _tensor(out, a)
    return out


def betti(space) -> dict[int, int]:
    """Reduced Betti numbers. Every space of the grammar is torsion free, so
    these are the whole reduced homology."""
    tag = space[0]
    if tag == "S":
        return {space[1]: 1} if space[1] > 0 else {0: 1}
    if tag == "pt":
        return {}
    if tag == "+":
        return add_counts(betti(space[1]), betti(space[2]))
    if tag == "^":
        return _tensor(betti(space[1]), betti(space[2]))
    if tag == "x":
        a, b = betti(space[1]), betti(space[2])
        return add_counts(add_counts(a, b), _tensor(a, b))
    a, n = betti(space[1]), space[2]
    if tag == "Q":
        return _power(a, n)
    out: dict = {}
    for i in range(1, n + 1):
        out = add_counts(out, _power(a, i))
    return out


def _pair_cells(p: int, q: int, m: int) -> int:
    """Nondegenerate m-simplices of a product coming from a p-cell and a
    q-cell: disjoint degeneracy sets of sizes m - p and m - q in {0..m-1}."""
    if not max(p, q) <= m <= p + q:
        return 0
    return comb(m, m - p) * comb(p, m - q)


def smash_cells(a: dict, b: dict) -> dict:
    out: dict = {}
    for p, x in a.items():
        for q, y in b.items():
            for m in range(max(p, q), p + q + 1):
                out[m] = out.get(m, 0) + x * y * _pair_cells(p, q, m)
    return out


def james_cells(c: dict, n: int) -> dict:
    """Non-basepoint cells of J_n from those of K, by inclusion and exclusion.

    An m-simplex of K lying in the image of s_i for every i in a set S of
    size j is the degeneracy of an (m - j)-simplex, so there are N(m - j) of
    them, where N(d) counts the non-basepoint d-simplices of K. Words of
    length l with no common degeneracy number sum_j (-1)^j C(m, j) N(m-j)^l.
    """
    top = n * max(c, default=0)

    def simplices(d):
        return sum(cnt * comb(d, k) for k, cnt in c.items() if k <= d)

    out = {}
    for m in range(top + 1):
        total = sum(
            (-1) ** j * comb(m, j) * simplices(m - j) ** ell
            for ell in range(1, n + 1)
            for j in range(m + 1)
        )
        if total:
            out[m] = total
    return out


def cells(space) -> dict[int, int]:
    """Nondegenerate non-basepoint cells by dimension."""
    tag = space[0]
    if tag == "S":
        return {space[1]: 1}
    if tag == "pt":
        return {}
    if tag == "+":
        return add_counts(cells(space[1]), cells(space[2]))
    a = cells(space[1])
    if tag == "^":
        return smash_cells(a, cells(space[2]))
    if tag == "x":
        b = cells(space[2])
        return add_counts(add_counts(a, b), smash_cells(a, b))
    if tag == "Q":
        out = a
        for _ in range(space[2] - 1):
            out = smash_cells(out, a)
        return out
    return james_cells(a, space[2])


def generator_count(space) -> int:
    return 1 + sum(cells(space).values())


def check_homology(space, doc: dict) -> str | None:
    want = betti(space)
    got = {}
    for g in doc["groups"]:
        if g["torsion"]:
            return f"{render(space)}: unexpected torsion {g['torsion']} in degree {g['degree']}"
        got[g["degree"]] = g["free_rank"]
    if got != want:
        return f"{render(space)}: ranks {got}, expected {want}"
    return None


def check_james_census(space, n: int, doc: dict) -> str | None:
    want = add_counts({0: 1}, james_cells(cells(space), n))
    got = {int(d): c for d, c in doc["cells"].items()}
    if got != want or doc["generators"] != sum(want.values()):
        return f"J({render(space)},{n}): cells {got}, expected {want}"
    return None


def check_cell_census(name: str, counts: dict, want: dict) -> str | None:
    """counts and want include the basepoint in dimension 0."""
    if counts != want:
        return f"{name}: cells {counts}, expected {want}"
    return None


# -- James words --------------------------------------------------------------


def hopf_tokens(letters: list[str], r: int) -> list[str]:
    """Letters of the r-th Hopf word of a word of nondegenerate 1-simplices:
    every strictly increasing index r-tuple, found by filtering the full
    cartesian power, in lexicographic order, named as a left-nested smash."""
    q = len(letters)
    out = []
    for idx in sorted(itertools.product(range(q), repeat=r)):
        if any(a >= b for a, b in zip(idx, idx[1:])):
            continue
        name = letters[idx[0]]
        for i in idx[1:]:
            name = f"({name}^{letters[i]})"
        out.append(name)
    return out


def check_hopf_word(letters: list[str], r: int, got: list[str]) -> str | None:
    want = hopf_tokens(letters, r)
    if got != want:
        return f"H_{r}[{'|'.join(letters)}]: {len(got)} letters, expected {len(want)}"
    return None


# -- Smith normal form --------------------------------------------------------


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign, prev = 1, 1
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
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rational_rank(matrix: list[list[int]]) -> int:
    m = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            c = m[r][col] / m[rank][col]
            m[r] = [a - c * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_smith(M: list[list[int]], factors: list[int], U, V) -> str | None:
    D = matmul(matmul(U, M), V)
    n, m = len(M), len(M[0])
    for i in range(n):
        for j in range(m):
            want = factors[i] if i == j and i < len(factors) else 0
            if D[i][j] != want:
                return f"{n}x{m}: U*M*V differs from diag(factors) at ({i},{j})"
    if any(f <= 0 for f in factors):
        return f"{n}x{m}: non-positive invariant factor"
    if any(b % a for a, b in zip(factors, factors[1:])):
        return f"{n}x{m}: factors {factors} are not a divisibility chain"
    if abs(bareiss_det(U)) != 1 or abs(bareiss_det(V)) != 1:
        return f"{n}x{m}: U or V is not unimodular"
    if len(factors) != rational_rank(M):
        return f"{n}x{m}: {len(factors)} factors for rank {rational_rank(M)}"
    if n == m:
        prod = 1
        for f in factors:
            prod *= f
        if len(factors) < n:
            prod = 0
        if prod != abs(bareiss_det(M)):
            return f"{n}x{n}: product of factors {prod} != |det M|"
    return None


# -- quadratic forms ------------------------------------------------------------


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def squarefree(n: int) -> int:
    sign, n, out, d = (-1 if n < 0 else 1), abs(n), 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def field_name(field: str) -> str:
    return {"q": "Q", "r": "R", "qbar": "Qbar"}.get(field, field.upper())


def square_rep(field: str, unit):
    """Representative of a unit's square class: 1 or "g" over F_q, the sign
    over R, 1 over Qbar, the squarefree part over Q."""
    if unit == "g":
        return "g"
    if isinstance(unit, Fraction):
        unit = unit.numerator * unit.denominator
    if field == "qbar":
        return 1
    if field == "r":
        return 1 if unit > 0 else -1
    if field == "q":
        return squarefree(unit)
    p, k = prime_power(int(field[1:]))
    # a unit of F_p stays a non-square in F_{p^k} only for odd k
    return "g" if k % 2 and jacobi(unit, p) == -1 else 1


def format_counts(counts: dict) -> str:
    """Display of a form given as square-class counts, <1> first, then <-1>,
    then by magnitude with positives first, the non-residue last; positive
    parts before negative ones."""

    def key(rep):
        if rep == "g":
            return (4, 0)
        if rep in (1, -1):
            return (0 if rep == 1 else 1, 0)
        return (2 if rep > 0 else 3, abs(rep))

    parts = []
    for sign in (1, -1):
        for rep in sorted((r for r, n in counts.items() if n * sign > 0), key=key):
            n = abs(counts[rep])
            parts.append(("" if sign > 0 else "-") + ("" if n == 1 else str(n)) + f"<{rep}>")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def gw_expected(field: str, terms) -> dict:
    """Rank, discriminant, signature and (where the normal form follows from
    them) the element of sum(c * <u>) over (c, u) terms."""
    reps = [(c, square_rep(field, u)) for c, u in terms]
    rank = sum(c for c, _ in reps)
    element = None
    if field.startswith("f"):
        nonsquares = sum(abs(c) for c, rep in reps if rep == "g") % 2
        disc = "g" if nonsquares else 1
        element = format_counts({1: rank - 1, "g": 1} if nonsquares else {1: rank})
        signature = None
    elif field == "qbar":
        disc, signature = 1, None
        element = format_counts({1: rank})
    else:
        negatives = sum(abs(c) for c, rep in reps if rep < 0)
        signature = sum(c * (1 if rep > 0 else -1) for c, rep in reps)
        if field == "r":
            disc = -1 if negatives % 2 else 1
            element = format_counts({1: (rank + signature) // 2, -1: (rank - signature) // 2})
        else:
            odd = 1
            for c, rep in reps:
                if c % 2:
                    odd *= abs(rep)
            disc = squarefree((-1) ** negatives * odd)
            if all(rep in (1, -1) for _, rep in reps):
                net: dict = {}
                for c, rep in reps:
                    net[rep] = net.get(rep, 0) + c
                element = format_counts(net)
    return {"rank": rank, "disc": str(disc), "signature": signature, "element": element}


def check_gw(field: str, terms, doc: dict) -> str | None:
    want = gw_expected(field, terms)
    if doc["field"] != field_name(field):
        return f"gw: field {doc['field']}"
    for key in ("rank", "disc", "signature"):
        if doc[key] != want[key]:
            return f"gw over {field}: {key} {doc[key]!r}, expected {want[key]!r}"
    if want["element"] is not None and doc["element"] != want["element"]:
        return f"gw over {field}: element {doc['element']!r}, expected {want['element']!r}"
    return None


# -- symbols and sheaves --------------------------------------------------------


def check_kmw(field: str, degree: int, forms, doc: dict) -> str | None:
    """forms: the degree-0 value as (coefficient, unit) terms, or None when
    only the degree is predicted. Over Q no normal form exists."""
    if doc["degree"] != degree:
        return f"kmw over {field}: degree {doc['degree']}, expected {degree}"
    if field == "q":
        if doc["normal_form"] is not None:
            return "kmw over Q: a normal form was claimed"
    elif forms is not None:
        want = gw_expected(field, forms)["element"]
        if doc["normal_form"] != want:
            return f"kmw over {field}: normal form {doc['normal_form']!r}, expected {want!r}"
    return None


def check_tensor(degrees: list[int], contract: int, doc: dict) -> str | None:
    """KMW(m) (x) KMW(n) = KMW(m + n); contracting j times lowers the degree
    by j and reaches W below degree 0."""
    n = sum(degrees) - contract
    want = f"KMW({n})" if n >= 0 else "W"
    if doc["result"] != want:
        return f"tensor {degrees} _{{-{contract}}}: {doc['result']}, expected {want}"
    return None


# -- EHP ----------------------------------------------------------------------------


def exchange_expected(field: str, p: int, q: int) -> str:
    """(-1)^p eps^q with eps = -<-1> is (-1)^(p+q) <(-1)^q>."""
    return gw_expected(field, [((-1) ** (p + q), -1 if q % 2 else 1)])["element"]


_CASES = {(0, 0): "0", (1, 0): "2", (0, 1): "h", (1, 1): "1+eps"}


def check_hp(field: str, p: int, q: int, doc: dict) -> str | None:
    """1 - (-1)^p eps^q = <1> - (-1)^(p+q) <(-1)^q>: rank 1 - (-1)^(p+q) and
    real signature 1 - (-1)^p."""
    sign = -((-1) ** (p + q))
    neg_rep = -1 if q % 2 else 1
    expected = gw_expected(field, [(1, 1), (sign, neg_rep)])
    want = {
        "case": _CASES[(p % 2, q % 2)],
        "rank": 1 - (-1) ** (p + q),
        "signature": 1 - (-1) ** p,
        "element": expected["element"],
    }
    for key, value in want.items():
        if doc[key] != value:
            return f"ehp hp p={p} q={q} over {field}: {key} {doc[key]!r}, expected {value!r}"
    return None


def check_exchange(field: str, p: int, q: int, doc: dict) -> str | None:
    want = exchange_expected(field, p, q)
    if doc["element"] != want:
        return f"ehp exchange p={p} q={q} over {field}: {doc['element']!r}, expected {want!r}"
    return None


def check_sequence(n: int, q: int, mode: str, doc: dict) -> str | None:
    entries = doc["entries"]
    if doc["mode"] != mode or len(entries) != 5:
        return f"ehp sequence S[{n}+{q}a]: wrong shape"
    if mode == "low_degree":
        arrows = [e["arrow"] for e in entries]
        if arrows[:3] != ["H", "P", "E"] or entries[1]["sheaf"] != f"KMW({2 * q})":
            return f"ehp sequence S[{n}+{q}a]: P-term {entries[1]['sheaf']}, expected KMW({2 * q})"
    elif doc["annotation"] != f"E is an isomorphism on pi_q for q <= {2 * n - 2}":
        return f"ehp sequence S[{n}+{q}a]: annotation {doc['annotation']!r}"
    return None


def check_classical(p: int, doc: dict) -> str | None:
    if doc["degree"] != 1 - (-1) ** p:
        return f"ehp classical p={p}: {doc['degree']}"
    return None


MAP_DEGREES = {"whitehead_exchange_homotopy": -1, "identity": 1, "coordinate_flip": -1}


def check_degree(maps: list[str], doc: dict) -> str | None:
    want = 1
    for m in maps:
        want *= MAP_DEGREES[m]
    if doc["degree"] != want:
        return f"degree {maps}: {doc['degree']}, expected {want}"
    return None


def check_facts(doc: dict) -> str | None:
    keys = {e["key"]: e["value"] for e in doc["facts"]}
    if keys != {"pi_{4+5a}(S^{3+3a})": "Z/24", "pi_{4+6a}(S^{3+3a})": "0"}:
        return f"facts: {keys}"
    return None
