"""The one assembly of tuple complexes: products, smashes and so smash
powers, James truncations and the targets of Hopf maps.

A cell is a tuple of small-int positions, entry j a position in its
factor's list K.simplices(m). _tables gives each factor's levels, one per
dimension, with each simplex's mask, token and faces as positions one
dimension down; _tuple_complex names the cells, reads their faces from
rows keyed by position and checks the result with SSet.build. The
callers, with their enumerations and names, are product and smash in
simplicial and the James constructions in james.
"""
from __future__ import annotations

import functools
import gc
import itertools
import operator
from collections import defaultdict

from . import simplicial
from .errors import DomainError
from .simplicial import SSet, Simplex, _joint_normal_form, _mask_of, _new_simplex, _nondegenerate_positions, _simplex

# The kernels face and simplex_token are read from simplicial when called, so
# a build takes the same ones as the rest of the package.


class _Lazy(dict):
    """A dict that fills each missing key with fill(key), once."""

    __slots__ = ("fill",)

    def __init__(self, fill):  # dict.__new__ has made it empty
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def _collector_paused(build):
    """build with the cyclic collector paused and then left as it was.
    Everything a build makes outlives it, so each collector pass during the
    build would only walk those objects again; lazy arguments are consumed
    inside the pause too. A collector that was on takes one pass over its
    youngest generation when the build ends: the pass it owes for what the
    build made, paid there and not by whatever allocates next."""
    @functools.wraps(build)
    def paused(*args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args)
        finally:
            if enabled:
                gc.enable()
                gc.collect(0)
    return paused


class _Level:
    """A factor K's m-simplices, each read by its position p in
    K.simplices(m): its mask, its token from named and its faces d_0..d_m
    as positions one dimension down in levels, each token and face row
    taken on first use. base is the basepoint's position, rest the other
    positions, and index gives each simplex's position."""

    __slots__ = ("simplices", "masks", "index", "base", "rest", "tokens", "faces")

    def __init__(self, K: SSet, levels: _Lazy, named: dict, m: int):
        self.simplices = simplices = K.simplices(m)
        self.masks = list(map(_mask_of, simplices))
        self.index = dict(zip(simplices, itertools.count()))
        self.base = base = self.index[_simplex(K.basepoint, (1 << m) - 1, m)]
        self.rest = (*range(base), *range(base + 1, len(simplices)))  # a tuple, for itertools.product
        self.tokens = _Lazy(lambda p: named[x] if (x := simplices[p]) in named
                            else named.setdefault(x, simplicial.simplex_token(x)))
        self.faces = _Lazy(functools.partial(_face_positions, K, simplices, levels, m))


def _face_positions(K: SSet, simplices, levels: _Lazy, m: int, p: int) -> tuple[int, ...]:
    """The faces d_0..d_m of K's m-simplex at position p, as positions in
    levels[m - 1]."""
    x, index, face = simplices[p], levels[m - 1].index, simplicial.face
    return tuple([index[face(K, x, i)] for i in range(m + 1)])


def _tables(*factors: SSet) -> list[_Lazy]:
    """For each factor, its _Level for each m, made on first use, all named
    from one token per simplex; a factor given twice shares its levels, so
    each of its faces is taken once."""
    named: dict[Simplex, str] = {}
    made: dict[int, _Lazy] = {}
    for K in factors:
        if id(K) not in made:
            made[id(K)] = levels = _Lazy(None)
            levels.fill = functools.partial(_Level, K, levels, named)
    return [made[id(K)] for K in factors]


class _LetterRows(dict):
    """prefix -> row for one dimension of a James truncation: a prefix with
    letters over the basepoint shares the row of the prefix without them,
    since each face class drops such letters; any other new prefix gets a
    new row."""

    __slots__ = ("base",)

    def __init__(self, base: int):
        self.base = base

    def __missing__(self, head: tuple[int, ...]) -> dict:
        self[head] = row = self[tuple(filter(self.base.__ne__, head))] if self.base in head else {}
        return row


@_collector_paused
def _tuple_complex(basepoint: str, tables: list[_Lazy], cells, reduce, top: int, by_letter: bool = False) -> SSet:
    """The complex on the given cells, each a tuple of positions of
    m-simplices, entry j read in tables[j % len(tables)]. cells yields
    (m, prefix, named) by ascending m up to top, named a dict {last
    position: name} of the cells that extend prefix, so each cell is named
    once. Face i of a cell takes its entries' faces i, lets reduce drop
    what the construction collapses (whole runs of entries: a pair of a
    smash, a letter of a James word, an r-tuple of a Hopf target), and is
    the name of their joint core under the shared word, or the
    basepoint when nothing is left; SSet.build checks every identity.
    Every caller's cells are fixed by reduce and jointly nondegenerate, so
    a face tuple that is a cell is that cell.

    The faces i of the cells on one prefix extend the prefix's face i, so
    the cells of each dimension are kept in rows, one per prefix, each a
    dict {last position: face value}: a cell's faces are
    tuple(map(dict.get, rows, its last entry's faces)), read in C. The
    class rule runs only on a face that no row holds yet, and its row then
    keeps the value. by_letter says that there is one table and that
    reduce drops each entry over the basepoint by itself, as a James word
    drops such letters: a face prefix then shares the row of the prefix
    less those entries. No face reads a cell of dimension top, so no row
    keeps them. The rows and tables, tokens included, are dropped before
    the identity check, so their peak and its do not add."""
    n = len(tables)
    dims: dict[str, int] = {basepoint: 0}
    faces: dict[str, tuple[Simplex, ...]] = {}
    # d -> prefix -> row; d -> each table's d-simplices, and its positions of them
    rows_at = _Lazy(lambda d: _LetterRows(tables[0][d].base) if by_letter else defaultdict(dict))
    simplices, index = _Lazy(lambda d: [t[d].simplices for t in tables]), _Lazy(lambda d: [t[d].index for t in tables])

    def face_class(d: int, at: tuple[int, ...]) -> Simplex:
        xs = tuple(map(operator.getitem, simplices[d] * len(at), at))
        shared, core = _joint_normal_form(reduce(xs), d)
        if not core:
            return _simplex(basepoint, shared, d)
        c = d - shared.bit_count()
        if shared or len(core) < len(at):  # the core's own positions
            at = tuple(map(operator.getitem, index[c] * len(core), core))
        if (cell := rows_at[c].get(at[:-1], {}).get(at[-1])) is None:
            raise DomainError(f"face core {tuple(map(simplicial.simplex_token, core))} is not a cell")
        return _simplex(cell.generator, shared, d)

    level = below = rows = None
    for m, prefix, named in cells:
        row = {}
        if m < top:
            rows_at[m][prefix] = row
        if m:
            if m != level:  # each table's faces of m-simplices, and the rows they land in
                level, ends, below = m, [t[m].faces for t in tables], rows_at[m - 1]
            # heads[i] is the prefix's face i, and rows[i] its row
            heads = list(zip(*map(operator.getitem, ends * len(prefix), prefix))) if prefix else [()] * (m + 1)
            rows = list(map(below.__getitem__, heads))
            last = ends[len(prefix) % n]
        for q, name in named.items():
            dims[name] = m
            row[q] = _new_simplex((name, 0, m))
            if m:
                faces[name] = fs = tuple(map(dict.get, rows, at := last[q]))
                if not all(fs):  # a face no row holds yet: its class, then kept in its row
                    for i in [i for i, f in enumerate(fs) if f is None]:
                        if at[i] not in rows[i]:
                            rows[i][at[i]] = face_class(m - 1, heads[i] + (at[i],))
                    faces[name] = tuple(map(dict.get, rows, at))
    for t in tables:  # each table's levels, and with its fill the tokens
        t.clear()
        t.fill = None
    del rows_at, simplices, index, below, rows, face_class, tables
    return SSet.build(basepoint, dims, faces)


def _placed(tables: list[_Lazy], named):
    """The (m, prefix, named) rows of _tuple_complex for (name, cell) pairs
    given as tuples of simplices, each entry's position read in its table."""
    rows: defaultdict = defaultdict(lambda: defaultdict(dict))
    index = _Lazy(lambda m: [t[m].index for t in tables])  # m -> each table's positions of m-simplices
    for name, xs in named:
        at = tuple(map(operator.getitem, index[xs[0].dim] * len(xs), xs))
        rows[xs[0].dim][at[:-1]][at[-1]] = name
    return [(m, prefix, row) for m in sorted(rows) for prefix, row in rows[m].items()]


def _pair_rows(tables: list[_Lazy], sep: str, basepoints: bool, top: int):
    """The (m, prefix, named) rows of _tuple_complex for the jointly
    nondegenerate pairs of positions up to dimension top, over basepoint
    generators too if basepoints, each named "(x<sep>y)" from the tables'
    tokens, so each entry's token is taken once."""
    A, B = tables
    for m in range(top + 1):
        a, b = A[m], B[m]
        choices = [range(len(a.simplices)), range(len(b.simplices))] if basepoints else [a.rest, b.rest]
        for prefix, lasts in _nondegenerate_positions(choices, [a.masks, b.masks], m):
            head, token = f"({a.tokens[prefix[0]]}{sep}", b.tokens
            yield m, prefix, {q: f"{head}{token[q]})" for q in lasts}


def _named_pairs(A: SSet, B: SSet, sep: str, basepoints: bool):
    """(name, (x, y)) for the jointly nondegenerate pairs, named "(x<sep>y)",
    lazily: _pair_rows read as simplices."""
    tables = _tables(A, B)
    for m, (p,), named in _pair_rows(tables, sep, basepoints, A.max_dim + B.max_dim):
        x, ys = tables[0][m].simplices[p], tables[1][m].simplices
        yield from ((name, (x, ys[q])) for q, name in named.items())
