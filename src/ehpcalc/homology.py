"""Integer chain complexes, Smith normal form, reduced homology.

One chain value serves every homology answer: a list of sparse boundary
columns by degree, columns[n][j] the boundary of cell j of degree n as
{row: coeff} over the cells of degree n - 1, so degree n has
len(columns[n]) cells. reduced_chains reads it off a complex;
direct_sum, tensor and reduced_product give the chains of a wedge, a
smash and a product from those of the parts (Eilenberg-Zilber, so the
Kunneth Tor terms come through), with no complex built. james_chains
gives those of J_n K and of its quotient K^n as sums of tensor powers of
K's (the James splitting, I. M. James, Ann. of Math. 62, 1955).
chain_homology checks shapes and d o d = 0, then reads the groups off.

One sparse elimination, _smith, serves both homology and dense matrices:
on sparse columns it takes the +-1 pivots first (Kaczynski-Mrozek-
Slusarek; Dumas-Heckenbach-Saunders-Welker), then Euclid steps on the
smallest entry. Homology reads its invariant factors off the boundary
columns and never builds a dense matrix; smith_normal_form asks it for
certificates too, U and V with U*M*V = diag(factors).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import CapExceeded, DomainError
from .simplicial import SMASH_POWER_CAP, SSet, _all_of_type


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense matrix with arbitrary-precision integer entries."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DomainError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise DomainError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise DomainError("column count mismatch")
        if not all(_all_of_type(row, int) for row in self.entries):
            v = next(v for row in self.entries for v in row if type(v) is not int)
            raise DomainError(f"matrix entry must be of type int, got {v!r}")

    @staticmethod
    def from_rows(rows_list, cols: int | None = None) -> "IntegerMatrix":
        rows_list = [tuple(row) for row in rows_list]
        if cols is None:
            cols = len(rows_list[0]) if rows_list else 0
        return IntegerMatrix(len(rows_list), cols, tuple(rows_list))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DomainError("matrix shapes do not compose")
        cols = [tuple(row[j] for row in other.entries) for j in range(other.cols)]
        out = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries
        )
        return IntegerMatrix(self.rows, other.cols, out)


@dataclass(frozen=True)
class HomologyGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise DomainError("torsion coefficients must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise DomainError("torsion coefficients must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


# Sparse columns: columns[n][j] is the boundary of cell j of degree n as
# {row: coeff} over the cells of degree n - 1, zeros left out; a chain value
# is a list[Columns], one per degree.
Columns = list[dict[int, int]]


def _check_composites(columns: list[Columns]) -> None:
    """Raise unless each column's rows are cells one degree down (a degree-0
    column has none) and d_{n-1} d_n = 0, by sparse products over nonzero entries."""
    for n, cols in enumerate(columns):
        rows = range(len(columns[n - 1]) if n else 0)
        if not all(r in rows for col in cols for r in col):
            raise DomainError(f"boundary shape mismatch in degree {n}")
    for n in range(2, len(columns)):
        below = columns[n - 1]
        for col in columns[n]:
            acc: dict[int, int] = {}
            for r, v in col.items():
                for s, w in below[r].items():
                    acc[s] = acc.get(s, 0) + v * w
            if any(acc.values()):
                raise DomainError(f"boundary composite nonzero in degree {n}")


def normalized_chain_complex(K: SSet, reduced: bool = False) -> tuple[tuple[tuple[str, ...], ...], list[Columns]]:
    """Generator names per degree and the chain value on the nondegenerate
    generators, in that order; the reduced variant drops the basepoint."""
    gens: list[tuple[str, ...]] = []
    for d in range(K.max_dim + 1):
        names = list(K.generators(d))
        if reduced and d == 0:
            names.remove(K.basepoint)
        gens.append(tuple(names))
    columns: list[Columns] = [[{} for _ in gens[0]]]
    for n in range(1, len(gens)):
        index = {name: i for i, name in enumerate(gens[n - 1])}
        cols = []
        for name in gens[n]:
            col: dict[int, int] = {}
            for i, f in enumerate(K.faces_of(name)):
                r = index.get(f.generator)
                if f.is_degenerate or r is None:
                    continue
                v = col.get(r, 0) + (-1 if i & 1 else 1)
                if v:
                    col[r] = v
                else:
                    del col[r]
            cols.append(col)
        columns.append(cols)
    return tuple(gens), columns


def _add(vecs: dict[int, dict[int, int]], dst: int, src: int, a: int) -> None:
    """vecs[dst] += a * vecs[src]; a vector never touched is the unit vector."""
    d = vecs.setdefault(dst, {dst: 1})
    for i, v in vecs.get(src, {src: 1}).items():
        w = d.get(i, 0) + a * v
        if w:
            d[i] = w
        else:
            del d[i]


def _smith(columns: Columns, certify: bool = False):
    """Smith normal form of the matrix with the given sparse columns: the
    pivots (row, col, value) in the order taken, whose absolute values are
    the invariant factors, each dividing the next, and U and V.

    The matrix changes only by a column step (add_col) and a row step
    (add_row). First +-1 pivots clear their rows from the other columns,
    shortest column first and within it on the shortest row (Markowitz-
    style, to keep fill-in low). With none left, the smallest entry is the
    pivot: a remainder in its column or row becomes the next pivot
    (Euclid), and a row with an entry the pivot does not divide is added
    to its row. With certify, add_col records its steps in the sparse
    columns of V, add_row and each +-1 pivot theirs in the sparse rows of
    U (a vector never touched is a unit vector), so U*M*V holds each
    pivot's value in its place, and after each pivot of the Euclid stage
    the rows left are size-reduced against each other, which keeps U and
    V small; otherwise U and V stay empty.
    """
    cols = {j: dict(c) for j, c in enumerate(columns) if c}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for r in c:
            rows.setdefault(r, set()).add(j)
    U: dict[int, dict[int, int]] = {}
    V: dict[int, dict[int, int]] = {}
    pivots = []

    def add_col(k, j, a):  # column k += a * column j, the one column step
        ck = cols[k]
        for s, v in cols[j].items():
            w = ck.get(s, 0) + a * v
            if w:
                if s not in ck:
                    rows[s].add(k)
                ck[s] = w
            else:
                del ck[s]
                rows[s].discard(k)
        if certify:
            _add(V, k, j, a)

    def add_row(s, r, a):  # row s += a * row r, for s != r
        for k in rows[r]:
            ck = cols[k]
            w = ck.get(s, 0) + a * ck[r]
            if w:
                if s not in ck:
                    rows[s].add(k)
                ck[s] = w
            else:
                del ck[s]
                rows[s].discard(k)
        if certify:
            _add(U, s, r, a)

    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    while heap:
        size, j = heapq.heappop(heap)
        c = cols.get(j)
        if c is None or len(c) != size:
            continue  # dropped, or queued again at its new length
        units_at = [r for r, v in c.items() if v == 1 or v == -1]
        if not units_at:
            continue  # requeued if a later column operation changes it
        r = min(units_at, key=lambda r: len(rows[r]))
        p = c.pop(r)
        for k in rows.pop(r):
            if k == j:
                continue
            ck = cols[k]
            q = ck.pop(r) * p  # ck -= q * c clears row r, since p * p == 1
            add_col(k, j, -q)
            if ck:
                heapq.heappush(heap, (len(ck), k))
            else:
                del cols[k]
        for s in c:
            rows[s].discard(j)
        if certify:
            for s, v in c.items():
                _add(U, s, r, -v * p)  # row r now meets column j only
        del cols[j]
        pivots.append((r, j, p))

    while entries := [(abs(v), r, j) for j, c in cols.items() for r, v in c.items()]:
        _, r, j = min(entries)
        while True:
            c = cols[j]
            p = c[r]
            if (s := next((s for s in c if s != r), None)) is not None:
                if q := c[s] // p:
                    add_row(s, r, -q)
                if s in c:
                    r = s  # the remainder is the smaller pivot
            elif (k := next((k for k in rows[r] if k != j), None)) is not None:
                if q := cols[k][r] // p:
                    add_col(k, j, -q)
                if r in cols[k]:
                    j = k
            elif (s := next((s for k, ck in cols.items() if k != j
                             for s, v in ck.items() if v % p), None)) is not None:
                add_row(r, s, 1)
            else:
                break
        del cols[j], rows[r]
        pivots.append((r, j, p))
        if certify:
            live = [s for s, ks in rows.items() if ks]
            shrunk = True
            while shrunk:  # subtract the nearest multiple of another row while that shortens a row
                shrunk = False
                seen: dict[int, tuple[dict[int, int], int]] = {}  # row -> (entries, squared norm) until it changes
                for a in live:
                    for b in filter(a.__ne__, live):
                        if b not in seen:
                            vb = {k: cols[k][b] for k in rows[b]}
                            seen[b] = vb, sum(v * v for v in vb.values())
                        vb, nb = seen[b]
                        dot = sum(v * cols[k].get(a, 0) for k, v in vb.items())
                        q = (2 * dot + nb) // (2 * nb) if nb else 0
                        if q and 2 * q * dot > q * q * nb:
                            add_row(a, b, -q)
                            seen.pop(a, None)  # only row a changed
                            shrunk = True
    return pivots, U, V


def smith_normal_form(M: IntegerMatrix) -> tuple[list[int], IntegerMatrix, IntegerMatrix]:
    """Diagonalize M over Z: returns (invariant factors, U, V) with U*M*V diagonal.

    Invariant factors are positive and each divides the next; U*M*V is
    diag(factors) padded with zeros, and U and V are unimodular.
    """
    n, m = M.rows, M.cols
    columns = [{i: row[j] for i, row in enumerate(M.entries) if row[j]} for j in range(m)]
    pivots, U, V = _smith(columns, certify=True)
    for r, _, d in pivots:
        if d < 0:
            U[r] = {i: -v for i, v in U.get(r, {r: 1}).items()}

    def moved(vecs, front, size):  # the pivot vectors first, then the others in order
        order = front + sorted(set(range(size)) - set(front))
        return [[vecs.get(i, {i: 1}).get(t, 0) for t in range(size)] for i in order]

    V_cols = moved(V, [j for _, j, _ in pivots], m)
    return ([abs(d) for _, _, d in pivots], IntegerMatrix.from_rows(moved(U, [r for r, _, _ in pivots], n), n),
            IntegerMatrix.from_rows(list(zip(*V_cols)), m))


def chain_homology(columns: list[Columns]) -> dict[int, HomologyGroup]:
    """Homology of the chain value columns by degree; trivial degrees are omitted."""
    _check_composites(columns)
    ranks = [0] * (len(columns) + 1)
    torsion: list[tuple[int, ...]] = [()] * len(columns)
    for n in range(1, len(columns)):
        factors = [abs(d) for _, _, d in _smith(columns[n])[0]]
        ranks[n] = len(factors)
        # factors of the boundary out of degree n give torsion one degree down
        torsion[n - 1] = tuple(d for d in factors if d > 1)
    out = {}
    for n, cells in enumerate(columns):
        group = HomologyGroup(len(cells) - ranks[n] - ranks[n + 1], torsion[n])
        if not group.is_trivial:
            out[n] = group
    return out


def reduced_chains(K: SSet) -> list[Columns]:
    """The reduced normalized chains of K as a chain value."""
    return normalized_chain_complex(K, reduced=True)[1]


def reduced_homology(K: SSet) -> dict[int, HomologyGroup]:
    """Reduced integral homology by degree; trivial degrees are omitted."""
    return chain_homology(reduced_chains(K))


def direct_sum(*parts: list[Columns]) -> list[Columns]:
    """The parts summed: in each degree their cells in turn, each part's rows
    shifted past the earlier parts' cells. The first part's columns are shared."""
    out: list[Columns] = [[] for _ in range(max(map(len, parts)))]
    for C in parts:
        shift = [0] + [len(out[n]) for n in range(len(C) - 1)]
        for n, (cols, b) in enumerate(zip(C, shift)):
            out[n] += [{r + b: v for r, v in col.items()} for col in cols] if b else cols
    return out


def tensor(A: list[Columns], B: list[Columns], stage: str = "smash") -> list[Columns]:
    """A (x) B, with d(a (x) b) = da (x) b + (-1)^|a| a (x) db. The cells of
    degree n are the pairs of degree (p, n - p), ordered by p, then a, then
    b. Counted before any column is built, and refused past SMASH_POWER_CAP."""
    size = sum(map(len, A)) * sum(map(len, B))
    if size > SMASH_POWER_CAP:
        raise CapExceeded(f"{stage}: {size} chain cells, over the cap of {SMASH_POWER_CAP}")
    # start[n][p]: index of the first cell (a, b) with |a| = p among degree n,
    # for the degrees p and n - p where A and B both have cells
    start: list[dict[int, int]] = [{} for _ in range(len(A) + len(B) - 1)]
    ends = [0] * len(start)
    qs = [q for q, cells in enumerate(B) if cells]
    for p in (p for p, cells in enumerate(A) if cells):
        for q in qs:
            start[p + q][p] = ends[p + q]
            ends[p + q] += len(A[p]) * len(B[q])
    out = []
    for n, offsets in enumerate(start):
        cols = []
        for p in offsets:
            q = n - p
            nb, nb_down = len(B[q]), len(B[q - 1]) if q else 0
            below = start[n - 1] if n else {}
            below_a, below_b = below.get(p - 1), below.get(p)
            sign = -1 if p & 1 else 1
            for i, da in enumerate(A[p]):
                for j, db in enumerate(B[q]):
                    col = {below_a + r * nb + j: v for r, v in da.items()}
                    col.update({below_b + i * nb_down + r: sign * v for r, v in db.items()})
                    cols.append(col)
        out.append(cols)
    return out


def reduced_product(A: list[Columns], B: list[Columns]) -> list[Columns]:
    """Reduced chains of a product: A (x) B + A + B."""
    return direct_sum(tensor(A, B, "product"), A, B)


def james_chains(C: list[Columns], n: int, quotient: bool = False) -> list[Columns]:
    """Reduced chains of J(K,n) from C, those of K, by the James splitting:
    C + C(x)C + ... + C^(x)n; with quotient those of Q(K,n), C^(x)n. The
    cells and degree lists of the n powers are counted before any is built,
    and refused past SMASH_POWER_CAP after at most that many powers."""
    if n < 1:
        raise DomainError("truncation level must be >= 1")
    cells = sum(map(len, C))
    if not cells:
        return []
    stage = "james quotient" if quotient else "james truncation"
    size = 0
    for k in range(1, n + 1):
        size += cells**k + k * (len(C) - 1) + 1
        if size > SMASH_POWER_CAP:
            raise CapExceeded(f"{stage}: {size} chain cells and degrees in {k} powers, "
                              f"over the cap of {SMASH_POWER_CAP}")
    powers = [C]
    for _ in range(n - 1):
        powers.append(tensor(powers[-1], C, stage))
    return powers[-1] if quotient else direct_sum(*powers)


def euler_characteristic(K: SSet) -> int:
    """Reduced Euler characteristic, from the generator census."""
    return sum((-1) ** d for name, d in K.gens if name != K.basepoint)


def homology_to_doc(groups: dict[int, HomologyGroup]) -> list[dict]:
    return [
        {"degree": n, "free_rank": g.free_rank, "torsion": list(g.torsion)}
        for n, g in sorted(groups.items())
    ]
