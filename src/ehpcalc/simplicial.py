"""Finite pointed simplicial sets with explicit degeneracy bookkeeping.

Only nondegenerate simplices are stored. An arbitrary simplex is a
generator name together with a degeneracy word in normal form, so equality
of simplices is literal equality and the simplicial identities can be
enforced mechanically on construction.

Normal-form rule: by the Eilenberg-Zilber lemma a simplex x = s_W(y), with
y nondegenerate and W a strictly decreasing word, lies in the image of s_i
exactly when i is a letter of W (May, Simplicial Objects in Algebraic
Topology, 1967, section 4). So W is held as an int bitmask (bit i set iff
i is a letter): degeneracy tests, faces and shared normal forms are a few int
operations, and the tuple of letters is only a view, for text and tuple APIs.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapExceeded, DomainError, ExprParseError
from .gw import DIGITS_CAP

# Largest sphere dimension built: a product or smash with S^n checks the
# simplicial identities on about n cells of dimension about n, each over
# n^2 / 2 pairs of faces, so its time grows about as n^3.
SPHERE_DIM_CAP = 256
# Most generators of a product, smash or smash power, counted before it is
# built (the cube of a wedge of eight circles has 6,657); most Hopf letters.
SMASH_POWER_CAP = 25_000
_mask_of = operator.itemgetter(1)  # a Simplex's mask


def _letters(mask: int) -> tuple[int, ...]:
    """The strictly decreasing word of a mask: its set bits, highest first."""
    return tuple(i for i in range(mask.bit_length() - 1, -1, -1) if mask >> i & 1)


def _insert(mask: int, bits: int) -> int:
    """s_bits composed onto s_mask, in normal form: each letter i of bits, lowest
    first, is set and every letter at or above it raised (s_i s_j = s_{j+1} s_i, i <= j)."""
    while bits:
        low = bits & -bits
        a = low.bit_length() - 1
        mask, bits = mask & low - 1 | low | mask >> a << a + 1, bits ^ low
    return mask


def _bad_index(i, kind: str, dim: int) -> DomainError:
    """The refusal of an index that is not exactly an int (a bool is not one), or out of range."""
    return DomainError(f"{kind} index must be of type int, got {i!r}" if type(i) is not int
                       else f"{kind} index {i} out of range for dim {dim}")


def insert_degeneracy(word: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Normal form of s_i composed onto an already-normal degeneracy word.

    Words are strictly decreasing tuples (i_k, ..., i_1) denoting
    s_{i_k} ... s_{i_1}, leftmost entry outermost.  Uses the identity
    s_i s_j = s_{j+1} s_i for i <= j, on the word's bitmask (see _insert).
    Refuses, as Simplex does, an index that is not exactly an int, a
    negative one and a word that is not strictly decreasing.

    >>> insert_degeneracy((), 0)
    (0,)
    >>> insert_degeneracy((0,), 0)
    (1, 0)
    >>> insert_degeneracy((2, 0), 4)
    (4, 2, 0)
    """
    if not _all_of_type((*word, i), int):
        raise _bad_index(next(j for j in (*word, i) if type(j) is not int), "degeneracy", 0)  # dim unread
    if not all(map(operator.gt, word, word[1:])):
        raise DomainError(f"degeneracy word {word} is not strictly decreasing")
    if (low := min(i, word[-1]) if word else i) < 0:
        raise DomainError(f"degeneracy index must be nonnegative, got {low}")
    return _letters(_insert(sum(map((1).__lshift__, word)), 1 << i))


class _SimplexFields(NamedTuple):
    generator: str
    mask: int
    dim: int


class Simplex(_SimplexFields):
    """A simplex of some complex: the tuple (generator, mask, dim), so it
    hashes and compares as that tuple does. Bit i of mask is set iff s_i is
    a letter of the normal-form degeneracy word, whose strictly decreasing
    tuple is word, made when read. Built, and checked, from that tuple;
    dim is the generator's dimension plus the word length.
    """

    __slots__ = ()

    def __new__(cls, generator: str, word: tuple[int, ...], dim: int) -> "Simplex":
        if not _all_of_type(word, int):
            raise _bad_index(next(i for i in word if type(i) is not int), "degeneracy", dim)
        if not all(map(operator.gt, word, word[1:])):
            raise DomainError(f"degeneracy word {word} is not strictly decreasing")
        if word and not 0 <= word[-1] <= word[0] < dim:
            raise _bad_index(word[0] if word[0] >= dim else word[-1], "degeneracy", dim)
        return tuple.__new__(cls, (generator, sum(map((1).__lshift__, word)), dim))

    def __getnewargs__(self):  # copies and pickles rebuild from the tuple word
        return self.generator, self.word, self.dim

    @property
    def word(self) -> tuple[int, ...]:
        return _letters(self.mask)

    @property
    def is_degenerate(self) -> bool:
        return bool(self.mask)


def _simplex(generator: str, mask: int, dim: int) -> Simplex:
    """A Simplex whose mask is normal by construction, built without the check."""
    return tuple.__new__(Simplex, (generator, mask, dim))


_new_simplex = functools.partial(tuple.__new__, Simplex)  # _simplex on the tuple (generator, mask, dim), in C


def _all_of_type(values, kind: type) -> bool:
    """True iff every value is of exactly type kind (so a bool is not an
    int), checked in C."""
    return set(map(type, values)) <= {kind}


# no whitespace, and not a degeneracy operator such as "s0"; \Z, since $
# would also match before a final newline
_NAME_RE = re.compile(r"(?!s\d+\Z)\S+\Z")


@dataclass(frozen=True)
class SSet:
    """A finite pointed simplicial set given by nondegenerate generators.

    Two dicts, put in (dim, name) order by build and never changed after:
    _dims maps each generator to its dimension, and _faces each generator of
    positive dimension to its faces d_0..d_n, Simplex values of the same
    complex. gens is a read-only view of _dims; the hash is taken once.
    """

    basepoint: str
    _dims: dict[str, int]
    _faces: dict[str, tuple[Simplex, ...]]

    def __hash__(self) -> int:
        # hashed once, on first use: caches keyed on complexes would otherwise
        # re-hash every face on every lookup, and most complexes are never hashed
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.basepoint, *self._dims.items(), *self._faces.items())))
        return self._hash

    @property
    def gens(self):
        return self._dims.items()

    # -- construction ---------------------------------------------------

    @staticmethod
    def build(basepoint: str, dims: dict[str, int], faces: dict[str, tuple[Simplex, ...]]) -> "SSet":
        """The complex on the given generators and faces, every face and
        identity checked. The types of names and dimensions are checked, in
        C, before the per-generator checks read them, and those of face
        entries before any face is read."""
        if basepoint not in dims or dims[basepoint] != 0:
            raise DomainError(f"basepoint {basepoint!r} must be a dimension-0 generator")
        if not _all_of_type(dims, str):
            raise DomainError(f"bad generator name {next(n for n in dims if type(n) is not str)!r}")
        if not _all_of_type(dims.values(), int):
            name, d = next((n, d) for n, d in dims.items() if type(d) is not int)
            raise DomainError(f"dimension of {name!r} must be of type int, got {d!r}")
        for name, d in dims.items():
            if not _NAME_RE.match(name):
                raise DomainError(f"bad generator name {name!r}")
            if d < 0:
                raise DomainError(f"generator {name!r} has negative dimension")
            if d == 0 and name in faces:
                raise DomainError(f"dimension-0 generator {name!r} cannot have faces")
            if d > 0 and (name not in faces or len(faces[name]) != d + 1):
                raise DomainError(f"generator {name!r} needs exactly {d + 1} faces")
        dims = {n: dims[n] for n in sorted(sorted(dims), key=dims.__getitem__)}  # names sorted within each dim
        faces = {n: tuple(faces[n]) for n, d in dims.items() if d > 0}
        if not _all_of_type(itertools.chain.from_iterable(faces.values()), Simplex):
            name, i, f = next((n, i, f) for n, fs in faces.items() for i, f in enumerate(fs) if type(f) is not Simplex)
            raise DomainError(f"face {i} of {name!r} is not a Simplex: {f!r}")
        K = SSet(basepoint, dims, faces)
        K._validate()
        return K

    def _validate(self) -> None:
        """Check every face's generator and dimension, then the identity
        d_i d_j = d_{j-1} d_i for i < j on every generator. Both depend only
        on the face tuple (d is its length less one): each distinct tuple is
        checked once, under the first generator in (dim, name) order with it."""
        first: dict[tuple[Simplex, ...], str] = {}
        for name, faces in self._faces.items():
            if first.setdefault(faces, name) != name:
                continue
            d = len(faces) - 1
            for i, (generator, mask, dim) in enumerate(faces):
                if (at := self._dims.get(generator)) is None:
                    raise DomainError(f"face {i} of {name!r} references unknown generator {generator!r}")
                if dim != d - 1 or at + mask.bit_count() != dim:
                    raise DomainError(f"face {i} of {name!r} has inconsistent dimension")
        # ff[j][i] = d_i d_j x: a nondegenerate face's faces are its row of the
        # table, and a degenerate one's are computed once per distinct simplex
        faces_of: dict[Simplex, tuple[Simplex, ...]] = {}
        for faces, name in first.items():
            d = len(faces) - 1
            if d < 2:
                continue
            ff = []
            for f in faces:
                if f.mask and f not in faces_of:
                    faces_of[f] = tuple(face(self, f, i) for i in range(d))
                ff.append(faces_of[f] if f.mask else self._faces[f.generator])
            column = tuple(zip(*ff))  # column[j - 1][i] = d_{j-1} d_i x
            for j in range(1, d + 1):  # all i < j at once, then the first i that fails
                if ff[j][:j] != column[j - 1][:j]:
                    i = next(i for i in range(j) if ff[j][i] != column[j - 1][i])
                    raise DomainError(f"simplicial identity fails at generator {name!r} (i={i}, j={j})")

    # -- lookups --------------------------------------------------------

    def dim_of(self, name: str) -> int:
        try:
            return self._dims[name]
        except KeyError:
            raise DomainError(f"unknown generator {name!r}") from None

    def faces_of(self, name: str) -> tuple[Simplex, ...]:
        if self.dim_of(name) == 0:
            raise DomainError(f"dimension-0 generator {name!r} has no faces")
        return self._faces[name]

    def generators(self, dim: int | None = None) -> tuple[str, ...]:
        if dim is None:
            return tuple(self._dims)
        return tuple(n for n, d in self._dims.items() if d == dim)

    @property
    def max_dim(self) -> int:
        return max(d for _, d in self.gens)

    @property
    def n_generators(self) -> int:
        return len(self._dims)

    def simplex(self, name: str, word: tuple[int, ...] = ()) -> Simplex:
        return Simplex(name, word, self.dim_of(name) + len(word))

    def basepoint_simplex(self, dim: int) -> Simplex:
        """The unique simplex over the basepoint in each dimension."""
        return _simplex(self.basepoint, (1 << dim) - 1, dim)

    def simplices(self, dim: int) -> tuple[Simplex, ...]:
        """All simplices of the given dimension, degenerate ones included."""
        out, full = [], (1 << dim) - 1
        for name, d in self.gens:
            if d <= dim:  # words in lexicographic order: their complements, of d indices, in reverse order
                out += [_simplex(name, full ^ sum(map((1).__lshift__, rest)), dim)
                        for rest in itertools.combinations(range(dim), d)][::-1]
        return tuple(out)


def degenerate(x: Simplex, i: int) -> Simplex:
    """s_i applied to x, in normal form."""
    if type(i) is not int or not 0 <= i <= x.dim:
        raise _bad_index(i, "degeneracy", x.dim)
    return _simplex(x.generator, _insert(x.mask, 1 << i), x.dim + 1)


def face(K: SSet, x: Simplex, i: int) -> Simplex:
    """d_i applied to x, commuted into normal form via the simplicial identities.

    On x = s_W(y), with W a bitmask: as d_i s_a = id for a in (i - 1, i), a letter
    there is dropped and those above it lowered. Otherwise d_i x = s_W' d_k y with
    k = i less the letters below i and W' = W less i, W' inserted onto d_k y's word.
    """
    generator, mask, dim = x
    if dim == 0:
        raise DomainError("a 0-simplex has no faces")
    if type(i) is not int or not 0 <= i <= dim:
        raise _bad_index(i, "face", dim)
    if mask & 3 << i >> 1:  # bit i - 1 or bit i: drop it
        a = i if mask >> i & 1 else i - 1
        return _simplex(generator, mask & (1 << a) - 1 | mask >> a + 1 << a, dim - 1)
    f = K.faces_of(generator)[i - (mask & (1 << i) - 1).bit_count()]
    if not mask:
        return f
    outer = mask & (1 << i) - 1 | mask >> i + 1 << i
    return _simplex(f.generator, _insert(f.mask, outer) if f.mask else outer, dim - 1)


def in_degeneracy_image(K: SSet, x: Simplex, i: int) -> bool:
    """True iff x = s_i(y) for some y (then y = d_i(x)): i is in x's word."""
    return 0 <= i and x.mask >> i & 1 == 1


def _shared(xs: tuple[Simplex, ...], dim: int) -> int:
    """The mask of the letters every x has; of all of range(dim) if xs is empty."""
    return functools.reduce(operator.and_, map(_mask_of, xs), (1 << dim) - 1)


def shared_degeneracies(xs: tuple[Simplex, ...], dim: int) -> set[int]:
    """Indices i with every x in the image of s_i; all of range(dim) if xs is empty."""
    return set(_letters(_shared(xs, dim)))


def _joint_normal_form(xs: tuple[Simplex, ...], dim: int) -> tuple[int, tuple[Simplex, ...]]:
    """joint_normal_form with the shared word as a mask: the AND of the
    masks, each core's other bits squeezed down past the shared ones."""
    shared = _shared(xs, dim)
    if not shared:
        return 0, xs
    cores = xs
    for a in _letters(shared):  # highest first, so the letters below a stay put
        cores = [_simplex(g, m & (1 << a) - 1 | m >> a + 1 << a, d - 1) for g, m, d in cores]
    return shared, tuple(cores)


def joint_normal_form(xs: tuple[Simplex, ...], dim: int) -> tuple[tuple[int, ...], tuple[Simplex, ...]]:
    """Strip the largest shared degeneracy word off a tuple of simplices.

    Returns (word, cores) with xs = s_word applied componentwise to cores
    and the cores jointly nondegenerate.  An empty tuple strips all the
    way down to dimension 0.  The shared word is the intersection S of the
    words, the AND of their masks; each core keeps its other letters, each
    lowered by the number of letters of S below it. The word is a tuple.
    """
    shared, cores = _joint_normal_form(xs, dim)
    return _letters(shared), cores


def dimension_census(K: SSet, basepoint: bool) -> dict[int, int]:
    """Generators of K per dimension, the basepoint counted only if asked."""
    return Counter(d for name, d in K.gens if basepoint or name != K.basepoint)


def _nondegenerate_positions(choices, masks, m: int):
    """The jointly nondegenerate tuples of positions, entry j one of
    choices[j] with its mask read in masks[j], prefix first: (prefix, lasts)
    for each prefix in itertools.product order that some last choice
    completes, with those choices in order. A last choice completes a prefix
    when its mask has none of the prefix's shared bits; the choices for
    each shared mask are found once."""
    *heads, last = choices
    last_masks, lasts, full = masks[len(heads)], {}, (1 << m) - 1
    for prefix in itertools.product(*heads):  # every tuple of vertices is nondegenerate
        shared = full and functools.reduce(operator.and_, map(operator.getitem, masks, prefix), full)
        if (row := lasts.get(shared)) is None:
            row = lasts[shared] = [q for q in last if not shared & last_masks[q]]
        if row:
            yield prefix, row


def nondegenerate_tuples(choices, m: int):
    """The jointly nondegenerate tuples of m-simplices, one from each list of
    choices, in itertools.product order: _nondegenerate_positions read as
    simplices."""
    choices = list(map(tuple, choices))
    *heads, last = choices
    for prefix, lasts in _nondegenerate_positions([range(len(c)) for c in choices],
                                                  [list(map(_mask_of, c)) for c in choices], m):
        head = tuple(map(operator.getitem, heads, prefix))
        yield from (head + (last[q],) for q in lasts)


def simplex_token(x: Simplex) -> str:
    """Compact name for a simplex: degeneracy prefixes joined with dots."""
    return ".".join([f"s{i}" for i in x.word] + [x.generator]) if x.mask else x.generator


# -- constructors -------------------------------------------------------


def check_sphere_dim(n: int) -> None:
    """Refuse a sphere dimension that is negative or past SPHERE_DIM_CAP."""
    if type(n) is not int:  # bool is an int subclass
        raise DomainError(f"sphere dimension must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"sphere dimension must be nonnegative, got {n}")
    if n > SPHERE_DIM_CAP:
        raise CapExceeded(f"sphere: dimension {n} exceeds the cap of {SPHERE_DIM_CAP}")


def point() -> SSet:
    return SSet.build("*", {"*": 0}, {})


def build_sphere(n: int) -> SSet:
    """Minimal simplicial n-sphere: basepoint plus one free generator.

    >>> build_sphere(1).generators()
    ('*', 'e1')
    """
    check_sphere_dim(n)
    return _wedge_of_spheres({f"e{n}": n})


def _wedge_of_spheres(dims: dict[str, int]) -> SSet:
    """The wedge of spheres on the basepoint "*", one generator of each
    given name and dimension with every face over the basepoint; the names
    are checked in sorted order."""
    faces = {n: (_simplex("*", (1 << d - 1) - 1, d - 1),) * (d + 1)
             for n, d in dims.items() if d > 0}
    return SSet.build("*", {"*": 0} | dict(sorted(dims.items())), faces)


PairTable = tuple[tuple[str, tuple[Simplex, Simplex]], ...]


def _check_size(stage: str, size: int) -> None:
    if size > SMASH_POWER_CAP:
        raise CapExceeded(f"{stage}: {size} generators, over the cap of {SMASH_POWER_CAP}")


def pair_census(ca: dict[int, int], cb: dict[int, int], check) -> Counter:
    """Jointly nondegenerate pairs per dimension, from the censuses {dim:
    cells} of two factors: a p-cell and a q-cell give C(m, p) C(p, m - q)
    m-cells, and D(p, q) in all, the Delannoy number. check(total) sees the
    total first and may refuse it; each term counts at least one pair, so a
    total under a cap is split by dimension in at most that many terms.

    >>> circle = {0: 1, 1: 1}
    >>> sorted(pair_census(circle, circle, print).items())
    6
    [(0, 1), (1, 3), (2, 2)]
    """
    delannoy, row = {}, [1] * (max(cb, default=0) + 1)  # row[q] = D(p, q), from D(0, q) = 1
    for p in range(max(ca, default=0) + 1):
        if p in ca:
            delannoy[p] = row[:]
        diag = row[0]
        for q in range(1, len(row)):  # D(p + 1, q) = D(p, q) + D(p + 1, q - 1) + D(p, q - 1)
            row[q], diag = row[q] + row[q - 1] + diag, row[q]
    check(sum(a * b * delannoy[p][q] for p, a in ca.items() for q, b in cb.items()))
    out: Counter = Counter()
    for p, a in ca.items():
        for q, b in cb.items():
            for m in range(max(p, q), p + q + 1):
                out[m] += a * b * math.comb(m, p) * math.comb(p, m - q)
    return out


def product_census(ca: dict[int, int], cb: dict[int, int]) -> Counter:
    """Generators of A x B per dimension from those of A and B; refused past SMASH_POWER_CAP."""
    return pair_census(ca, cb, functools.partial(_check_size, "product"))


_BASEPOINT = Counter({0: 1})


def smash_census(ca: dict[int, int], cb: dict[int, int]) -> Counter:
    """Generators of A ^ B per dimension from those of A and B: the basepoint
    and the pairs of other generators; refused past SMASH_POWER_CAP."""
    pairs = pair_census(Counter(ca) - _BASEPOINT, Counter(cb) - _BASEPOINT, lambda n: _check_size("smash", 1 + n))
    return _BASEPOINT + pairs


# The tuple-complex assembly reads the kernels above, and product and smash
# below read it, so it is imported here.
from .assembly import _named_pairs, _pair_rows, _tables, _tuple_complex  # noqa: E402


@functools.lru_cache(maxsize=None)
def product(A: SSet, B: SSet) -> SSet:
    """Categorical product, its cells the jointly nondegenerate pairs "(x,y)"."""
    product_census(dimension_census(A, True), dimension_census(B, True))
    tables, top = _tables(A, B), A.max_dim + B.max_dim
    return _tuple_complex(f"({A.basepoint},{B.basepoint})", tables, _pair_rows(tables, ",", True, top), tuple, top)


def product_with_pairs(A: SSet, B: SSet) -> tuple[SSet, PairTable]:
    """product(A, B) plus the generator-to-component-pair table, named anew
    on each call: the cache holds only the complex."""
    return product(A, B), tuple(sorted(_named_pairs(A, B, ",", True)))


def wedge(A: SSet, *more: SSet) -> SSet:
    """One-point union of the parts in one build, named as the left fold
    wedge(wedge(A, B), C) names it: part k of n behind "l." n - k times
    and, after the first, one "r.". One part is returned as it is."""
    dims: dict[str, int] = {"*": 0}
    faces: dict[str, tuple[Simplex, ...]] = {}
    for k, K in enumerate((A, *more)):
        prefix = "l." * (len(more) - k) + ("r." if k else "")
        dims |= {prefix + name: d for name, d in K.gens if name != K.basepoint}
        for name, row in K._faces.items():
            faces[prefix + name] = tuple(
                _simplex("*" if f.generator == K.basepoint else prefix + f.generator, f.mask, f.dim)
                for f in row)
    return SSet.build("*", dims, faces) if more else A


def collapse(K: SSet, kill: frozenset[str] | set[str]) -> SSet:
    """Quotient by a face-closed set of generators, all sent to the basepoint."""
    kill = frozenset(kill)
    if K.basepoint in kill:
        raise DomainError("cannot collapse the basepoint")
    unknown = kill - set(K.generators())
    if unknown:
        raise DomainError(f"cannot collapse unknown generators {sorted(unknown)}")
    for g, row in K._faces.items():  # in (dim, name) order, so the offender named is fixed
        if g in kill and any(f.generator not in kill and f.generator != K.basepoint for f in row):
            raise DomainError(f"collapse set is not face-closed at {g!r}")
    dims = {n: d for n, d in K.gens if n not in kill}
    faces = {name: tuple(K.basepoint_simplex(f.dim) if f.generator in kill else f for f in row)
             for name, row in K._faces.items() if name not in kill}
    return SSet.build(K.basepoint, dims, faces)


@functools.lru_cache(maxsize=None)
def smash(A: SSet, B: SSet) -> SSet:
    """Smash product, built in one pass: the survivors are the product cells
    with no basepoint core, named "(x^y)"; a face whose joint normal
    form has a basepoint core lands on the basepoint "*"."""
    smash_census(dimension_census(A, True), dimension_census(B, True))
    tables, top = _tables(A, B), A.max_dim + B.max_dim
    return _tuple_complex("*", tables, _pair_rows(tables, "^", False, top),
                          lambda xy: () if A.basepoint == xy[0].generator or B.basepoint == xy[1].generator else xy,
                          top)


def smash_with_pairs(A: SSet, B: SSet) -> tuple[SSet, PairTable]:
    """smash(A, B) plus component pairs for the surviving generators, named
    anew on each call: the cache holds only the complex."""
    return smash(A, B), tuple(sorted(_named_pairs(A, B, "^", False)))


def _smash_class(a: str, b: str, x: Simplex, y: Simplex) -> Simplex:
    word, (cx, cy) = _joint_normal_form((x, y), x.dim) if x.mask & y.mask else (0, (x, y))
    if cx.generator == a or cy.generator == b:
        return _simplex("*", (1 << x.dim) - 1, x.dim)
    return _simplex(f"({simplex_token(cx)}^{simplex_token(cy)})", word, x.dim)


def smash_class(A: SSet, B: SSet, x: Simplex, y: Simplex) -> Simplex:
    """Image of the product simplex (x, y) in smash(A, B); x, y of equal dim."""
    if x.dim != y.dim:
        raise DomainError(f"component dimensions differ: {x.dim} vs {y.dim}")
    return _smash_class(A.basepoint, B.basepoint, x, y)


def suspension(K: SSet) -> SSet:
    """Smash with the minimal circle."""
    return smash(build_sphere(1), K)


# -- simplicial maps ----------------------------------------------------


@dataclass(frozen=True)
class SMap:
    """A pointed simplicial map, stored by generator images and verified:
    one dict, put in the source's (dim, name) order by build and never
    changed after, with images a read-only view of it."""

    source: SSet
    target: SSet
    _img: dict[str, Simplex]

    def __hash__(self) -> int:
        return hash((self.source, self.target, *self._img.items()))

    @property
    def images(self):
        return self._img.items()

    @staticmethod
    def build(source: SSet, target: SSet, images: dict[str, Simplex]) -> "SMap":
        if set(images) != set(source.generators()):
            raise DomainError("images must cover exactly the source generators")
        if not _all_of_type(images.values(), Simplex):
            name, x = next((n, x) for n, x in images.items() if type(x) is not Simplex)
            raise DomainError(f"image of {name!r} is not a Simplex: {x!r}")
        if images[source.basepoint] != target.basepoint_simplex(0):
            raise DomainError("a pointed map must send basepoint to basepoint")
        f = SMap(source, target, {name: images[name] for name in source.generators()})
        for name, d in source.gens:
            if images[name].dim != d:
                raise DomainError(f"image of {name!r} has wrong dimension")
            if d == 0:
                continue
            for i in range(d + 1):
                lhs = f(face(source, source.simplex(name), i))
                rhs = face(target, images[name], i)
                if lhs != rhs:
                    raise DomainError(f"not simplicial at generator {name!r}, face {i}")
        return f

    def __call__(self, x: Simplex) -> Simplex:
        y = self._img[x.generator]
        return _simplex(y.generator, _insert(y.mask, x.mask), x.dim) if x.mask else y

    def image(self, name: str) -> Simplex:
        return self._img[name]


def identity_map(K: SSet) -> SMap:
    return SMap.build(K, K, {n: K.simplex(n) for n in K.generators()})


def compose(g: SMap, f: SMap) -> SMap:
    if f.target != g.source:
        raise DomainError("compose needs matching middle complex")
    return SMap.build(f.source, g.target, {n: g(img) for n, img in f.images})


def fold_map(K: SSet) -> SMap:
    """The fold wedge(K, K) -> K, identity on either copy."""
    W = wedge(K, K)
    images: dict[str, Simplex] = {"*": K.basepoint_simplex(0)}
    for name, _ in W.gens:
        if name == "*":
            continue
        images[name] = K.simplex(name[2:])  # strip the l./r. prefix
    return SMap.build(W, K, images)


def smash_map(f: SMap, g: SMap) -> SMap:
    """The induced map smash(A, B) -> smash(A', B')."""
    S, pairs = smash_with_pairs(f.source, g.source)
    T = smash(f.target, g.target)
    images: dict[str, Simplex] = {S.basepoint: T.basepoint_simplex(0)}
    for name, (sa, sb) in pairs:
        images[name] = smash_class(f.target, g.target, f(sa), g(sb))
    return SMap.build(S, T, images)


# -- serialization ------------------------------------------------------


def _face_str(x: Simplex) -> str:
    return " ".join([f"s{i}" for i in x.word] + [x.generator])


_OP_RE = re.compile(r"^s(\d+)$")


def _parse_face(text: str, dim: int, dims: dict[str, int]) -> Simplex:
    tokens = text.split()
    if not tokens:
        raise ExprParseError("empty face entry")
    name = tokens[-1]
    word = []
    for t in tokens[:-1]:
        m = _OP_RE.match(t)
        if not m:
            raise ExprParseError(f"bad degeneracy token {t!r} in face {text!r}")
        if len(m.group(1)) > DIGITS_CAP:
            raise ExprParseError(f"degeneracy index: {len(m.group(1))} digits exceed the cap of {DIGITS_CAP}")
        word.append(int(m.group(1)))
    if name not in dims:
        raise ExprParseError(f"face {text!r} references unknown generator {name!r}")
    return Simplex(name, tuple(word), dim)


def sset_to_doc(K: SSet) -> dict:
    """JSON-ready document; one entry per generator, faces as operator strings."""
    gens = []
    for name, d in K.gens:
        entry: dict = {"name": name, "dim": d}
        if d > 0:
            entry["faces"] = [_face_str(f) for f in K.faces_of(name)]
        gens.append(entry)
    return {"basepoint": K.basepoint, "generators": gens}


def _typed(value, kind: type, field: str):
    if type(value) is not kind:  # bool is an int subclass
        raise ExprParseError(f"{field} must be of type {kind.__name__}, got {value!r}")
    return value


def sset_from_doc(doc: dict) -> SSet:
    try:
        basepoint = _typed(doc["basepoint"], str, "basepoint")
        entries = doc["generators"]
        dims = {_typed(e["name"], str, "generator name"): _typed(e["dim"], int, f"dim of {e['name']!r}")
                for e in entries}
        faces = {}
        for e in entries:
            if e["dim"] > 0:
                if not (isinstance(e["faces"], list) and all(isinstance(s, str) for s in e["faces"])):
                    raise ExprParseError(f"faces of {e['name']!r} must be a list of strings")
                faces[e["name"]] = tuple(_parse_face(s, e["dim"] - 1, dims) for s in e["faces"])
    except (KeyError, TypeError) as exc:
        raise ExprParseError(f"malformed simplicial-set document: {exc}") from exc
    return SSet.build(basepoint, dims, faces)


def sset_dumps(K: SSet) -> str:
    return json.dumps(sset_to_doc(K), sort_keys=True, indent=2)


def sset_loads(text: str) -> SSet:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the recursion limit
        raise ExprParseError(f"not valid JSON: {exc}") from exc
    return sset_from_doc(doc)
