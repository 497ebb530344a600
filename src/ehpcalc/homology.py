"""Integer chain complexes, Smith normal form, reduced homology.

Reduced homology works on sparse boundary columns, one {row: coeff} dict per
generator, and never builds a dense matrix. Each boundary is reduced by
eliminating its +-1 pivots with sparse column operations (Kaczynski-Mrozek-
Slusarek; Dumas-Heckenbach-Saunders-Welker), each pivot an invariant factor 1;
whatever is left is passed densely to smith_normal_form, whose factors finish
the list. smith_normal_form itself stays the certified API: it returns U and V
with U*M*V diagonal.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .simplicial import SSet


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

    @staticmethod
    def from_rows(rows_list, cols: int | None = None) -> "IntegerMatrix":
        rows_list = [tuple(int(v) for v in row) for row in rows_list]
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

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)


def smith_normal_form(M: IntegerMatrix) -> tuple[list[int], IntegerMatrix, IntegerMatrix]:
    """Diagonalize M over Z: returns (invariant factors, U, V) with U*M*V diagonal.

    Invariant factors are positive and each divides the next.  Pivot choice is
    the smallest nonzero entry in absolute value, ties broken in row-major
    order, which makes the elimination deterministic.
    """
    A = [list(row) for row in M.entries]
    n, m = M.rows, M.cols
    U = [list(row) for row in IntegerMatrix.identity(n).entries]
    V = [list(row) for row in IntegerMatrix.identity(m).entries]

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
        # row_dst += c * row_src
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
            # clear column t, re-selecting a smaller pivot whenever a
            # remainder turns up
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(i, t, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(j, t, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # divisibility fix: pull a non-divisible entry into row t
            culprit = next(
                (
                    (i, j)
                    for i in range(t + 1, n)
                    for j in range(t + 1, m)
                    if A[i][j] % A[t][t] != 0
                ),
                None,
            )
            if culprit is None:
                break
            add_row(t, culprit[0], 1)
        if A[t][t] < 0:
            A[t] = [-v for v in A[t]]
            U[t] = [-v for v in U[t]]
        t += 1

    factors = [A[i][i] for i in range(min(n, m)) if A[i][i] != 0]
    return (
        factors,
        IntegerMatrix.from_rows(U, n),
        IntegerMatrix.from_rows(V, m),
    )


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

    def direct_sum(self, other: "HomologyGroup") -> "HomologyGroup":
        return HomologyGroup(
            self.free_rank + other.free_rank,
            _recombine_torsion(self.torsion + other.torsion),
        )

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _recombine_torsion(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    # invariant factors of the direct sum via primary decomposition
    by_prime: dict[int, list[int]] = {}
    for c in coeffs:
        for p, e in _factorize(c).items():
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    length = max((len(v) for v in by_prime.values()), default=0)
    out = []
    for k in range(length):
        d = 1
        for p, exps in by_prime.items():
            if k < len(exps):
                d *= p ** exps[k]
        out.append(d)
    return tuple(reversed(out))


# Sparse columns: columns[n][j] is the boundary of generator j of degree n
# as {row: coeff} over the generators of degree n - 1, zeros left out.
Columns = list[dict[int, int]]


def _check_composites(columns: list[Columns]) -> None:
    """Raise unless d_{n-1} d_n = 0, by sparse products over nonzero entries."""
    for n in range(2, len(columns)):
        below = columns[n - 1]
        for col in columns[n]:
            acc: dict[int, int] = {}
            for r, v in col.items():
                for s, w in below[r].items():
                    acc[s] = acc.get(s, 0) + v * w
            if any(acc.values()):
                raise DomainError(f"boundary composite nonzero in degree {n}")


@dataclass(frozen=True)
class ChainComplex:
    """Per-degree generator lists with integer boundary matrices."""

    generators: tuple[tuple[str, ...], ...]
    boundaries: tuple[IntegerMatrix, ...]

    def __post_init__(self):
        if len(self.boundaries) != max(len(self.generators) - 1, 0):
            raise DomainError("need one boundary matrix per positive degree")
        for n, b in enumerate(self.boundaries, start=1):
            if b.rows != len(self.generators[n - 1]) or b.cols != len(self.generators[n]):
                raise DomainError(f"boundary shape mismatch in degree {n}")
        columns = [[{}] * len(self.generators[0])] if self.generators else []
        for b in self.boundaries:
            dense = zip(*b.entries) if b.rows else [()] * b.cols
            columns.append([{i: v for i, v in enumerate(col) if v} for col in dense])
        _check_composites(columns)

    @property
    def top_degree(self) -> int:
        return len(self.generators) - 1

    def boundary(self, n: int) -> IntegerMatrix:
        """Matrix of the boundary map out of degree n (zero off the range)."""
        if 1 <= n <= self.top_degree:
            return self.boundaries[n - 1]
        rows = len(self.generators[n - 1]) if 0 <= n - 1 <= self.top_degree else 0
        cols = len(self.generators[n]) if 0 <= n <= self.top_degree else 0
        return IntegerMatrix.zero(rows, cols)


def _boundary_columns(K: SSet, reduced: bool) -> tuple[tuple[tuple[str, ...], ...], list[Columns]]:
    """Generator names per degree and the sparse boundary columns out of each
    degree; the reduced variant drops the basepoint generator in degree 0."""
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


def normalized_chain_complex(K: SSet, reduced: bool = False) -> ChainComplex:
    """Chains on the nondegenerate generators; the reduced variant drops the
    basepoint generator in degree 0."""
    gens, columns = _boundary_columns(K, reduced)
    boundaries = []
    for n in range(1, len(gens)):
        mat = [[0] * len(gens[n]) for _ in gens[n - 1]]
        for j, col in enumerate(columns[n]):
            for r, v in col.items():
                mat[r][j] = v
        boundaries.append(IntegerMatrix.from_rows(mat, len(gens[n])))
    return ChainComplex(gens, tuple(boundaries))


def _eliminate_unit_pivots(columns: Columns) -> tuple[int, Columns]:
    """Eliminate +-1 pivots by sparse column operations.

    Pivots are taken shortest column first and, within it, on the shortest
    row (Markowitz-style), to keep fill-in low. A pivot's row is cleared from
    every other column, after which its row and column split off as an
    invariant factor 1. Returns the number of pivots and the nonempty columns
    left, which hold no +-1 entry and carry the remaining invariant factors.
    """
    cols = {j: dict(c) for j, c in enumerate(columns) if c}
    rows: dict[int, set[int]] = {}
    for j, c in cols.items():
        for r in c:
            rows.setdefault(r, set()).add(j)
    heap = [(len(c), j) for j, c in cols.items()]
    heapq.heapify(heap)
    units = 0
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
            for s, v in c.items():
                w = ck.get(s, 0) - q * v
                if w:
                    if s not in ck:
                        rows[s].add(k)
                    ck[s] = w
                else:
                    del ck[s]
                    rows[s].discard(k)
            if ck:
                heapq.heappush(heap, (len(ck), k))
            else:
                del cols[k]
        for s in c:
            rows[s].discard(j)
        del cols[j]
        units += 1
    return units, list(cols.values())


def _invariant_factors(columns: Columns) -> list[int]:
    """Invariant factors of the matrix with the given sparse columns."""
    units, rest = _eliminate_unit_pivots(columns)
    factors = [1] * units
    if rest:
        row_ids = sorted({r for c in rest for r in c})
        dense = [[c.get(r, 0) for c in rest] for r in row_ids]
        factors += smith_normal_form(IntegerMatrix.from_rows(dense, len(rest)))[0]
    return factors


def reduced_homology(K: SSet) -> dict[int, HomologyGroup]:
    """Reduced integral homology by degree; trivial degrees are omitted."""
    return dict(_reduced_homology_items(K))


@lru_cache(maxsize=None)
def _reduced_homology_items(K: SSet) -> tuple[tuple[int, HomologyGroup], ...]:
    gens, columns = _boundary_columns(K, reduced=True)
    _check_composites(columns)
    ranks = [0] * (len(gens) + 1)
    torsion: list[tuple[int, ...]] = [()] * len(gens)
    for n in range(1, len(gens)):
        factors = _invariant_factors(columns[n])
        ranks[n] = len(factors)
        # factors of the boundary out of degree n give torsion one degree down
        torsion[n - 1] = tuple(d for d in factors if d > 1)
    out = []
    for n, names in enumerate(gens):
        group = HomologyGroup(len(names) - ranks[n] - ranks[n + 1], torsion[n])
        if not group.is_trivial:
            out.append((n, group))
    return tuple(out)


def euler_characteristic(K: SSet) -> int:
    """Reduced Euler characteristic, from the generator census."""
    return sum((-1) ** d for name, d in K.gens if name != K.basepoint)


def homology_to_doc(groups: dict[int, HomologyGroup]) -> list[dict]:
    return [
        {"degree": n, "free_rank": g.free_rank, "torsion": list(g.torsion)}
        for n, g in sorted(groups.items())
    ]
