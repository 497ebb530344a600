"""Truncated free-monoid construction on a pointed complex, the one-letter
inclusion, word-subsequence invariants, and filtration quotients."""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from operator import attrgetter

from .errors import CapExceeded, DomainError
from .simplicial import (SMASH_POWER_CAP, SMap, SSet, Simplex, _BASEPOINT, _all_of_type, _simplex, _smash_class,
                         _tuple_complex, collapse, degenerate, dimension_census, face, joint_normal_form,
                         nondegenerate_tuples, pair_census, shared_degeneracies, simplex_token, smash, smash_census)

TRUNCATION_CAP = 2000
# Most factors of a smash power: a power of S^0 keeps two generators while
# their names grow with the number of factors.
SMASH_FACTOR_CAP = 1000
_setattr = object.__setattr__
_generator = attrgetter("generator")


def _check_factors(r: int) -> None:
    if r < 1:
        raise DomainError("smash power needs r >= 1")
    if r > SMASH_FACTOR_CAP:
        raise CapExceeded(f"smash power: {r} factors exceed the cap of {SMASH_FACTOR_CAP}")


@lru_cache(maxsize=None)
def smash_power(K: SSet, r: int) -> SSet:
    """Left-associated smash power, the fold of smash: ((K ^ K) ^ ...) ^ K,
    each power before r built and cached on the way. Each power up to r is
    counted first, so the first over the cap refuses before any is built."""
    _check_factors(r)
    census = dimension_census(K, basepoint=True)
    reduce(lambda power, _: smash_census(power, census), range(r - 1), census)
    return reduce(lambda P, _: smash(P, K), range(r - 1), K)


def _power_class(basepoint: str, xs, known: dict) -> Simplex:
    """Left-nested smash classes, out ^ x over the basepoint at the first step
    (out a letter) and over "*" after, each step kept in known under its
    arguments."""
    out, first = xs[0], True
    for x in xs[1:]:
        key = first, out, x
        if key not in known:
            known[key] = _smash_class(basepoint if first else "*", basepoint, out, x)
        out, first = known[key], False
    return out


def smash_power_class(K: SSet, r: int, xs: tuple[Simplex, ...]) -> Simplex:
    """Class of x_1 ^ ... ^ x_r inside smash_power(K, r), named without it."""
    _check_factors(r)
    if len(xs) != r or any(x.dim != xs[0].dim for x in xs):
        raise DomainError("need exactly r simplices of one dimension")
    return _power_class(K.basepoint, xs, {})


@dataclass(frozen=True)
class JamesWord:
    """Reduced word of same-dimension simplices of a fixed complex.

    Letters equal to the degenerate basepoint are deleted on construction,
    so equality of words is literal tuple equality.
    """

    complex: SSet
    dim: int
    letters: tuple[Simplex, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise DomainError("negative word dimension")
        if not _all_of_type(self.letters, Simplex):
            i, x = next((i, x) for i, x in enumerate(self.letters) if type(x) is not Simplex)
            raise DomainError(f"letter {i} is not a Simplex: {x!r}")
        kept = []
        for x in self.letters:
            if x.dim != self.dim:
                raise DomainError("letters must all have the word dimension")
            if self.complex.dim_of(x.generator) + len(x.word) != x.dim:
                raise DomainError("letter does not live in the complex")
            if x.generator != self.complex.basepoint:
                kept.append(x)
        object.__setattr__(self, "letters", tuple(kept))

    def __len__(self) -> int:
        return len(self.letters)


def _word(K: SSet, dim: int, letters: tuple[Simplex, ...]) -> JamesWord:
    """A JamesWord whose letters are dim-simplices of K by construction,
    built without the checks and sharing the tuple, unless a basepoint
    letter must go: faces and smash classes can land on the basepoint."""
    w = object.__new__(JamesWord)
    _setattr(w, "complex", K)
    _setattr(w, "dim", dim)
    if K.basepoint in map(_generator, letters):
        letters = tuple(x for x in letters if x.generator != K.basepoint)
    _setattr(w, "letters", letters)
    return w


def word_face(w: JamesWord, i: int) -> JamesWord:
    if w.dim == 0:
        raise DomainError("a 0-dimensional word has no faces")
    return _word(w.complex, w.dim - 1, tuple(face(w.complex, x, i) for x in w.letters))


def word_degenerate(w: JamesWord, i: int) -> JamesWord:
    return _word(w.complex, w.dim + 1, tuple(degenerate(x, i) for x in w.letters))


def word_is_degenerate(w: JamesWord) -> bool:
    # an empty word is degenerate in every positive dimension
    return bool(shared_degeneracies(w.letters, w.dim))


def word_token(w: JamesWord) -> str:
    if not w.letters:
        return "*"
    return "[" + "|".join(simplex_token(x) for x in w.letters) + "]"


def word_normal_form(w: JamesWord) -> tuple[tuple[int, ...], JamesWord]:
    """Shared degeneracy word and the nondegenerate core word under it."""
    word, cores = joint_normal_form(w.letters, w.dim)
    return word, _word(w.complex, w.dim - len(word), cores)


def truncation_census(census: dict[int, int], n: int, quotient: bool = False) -> Counter:
    """Generators of J(K,n) per dimension from the census of K, basepoint
    included: the basepoint and the cells of each K^l, l <= n, but its
    basepoint, K's cells paired with those of K^(l-1). CapExceeded past
    TRUNCATION_CAP, before the power that passes it is split by dimension.
    With quotient, those of Q(K,n) = K^n, after the truncation and factor caps."""
    if n < 1:
        raise DomainError("truncation level must be >= 1")

    def check(size: int) -> None:  # the words counted so far and the next power's
        if sum(out.values()) + size > TRUNCATION_CAP:
            raise CapExceeded(f"truncation exceeds {TRUNCATION_CAP} generators")

    cells = Counter(census) - _BASEPOINT
    out = power = _BASEPOINT  # the empty word
    for _ in range(n):
        power = pair_census(power, cells, check)
        if not power:
            break
        out = out + power
    if quotient:
        _check_factors(n)
        return _BASEPOINT + power
    return out


def james_census(K: SSet, n: int) -> dict[int, int]:
    """Generators of the level-n truncation per dimension, basepoint
    included: truncation_census of K's census, so nothing is built;
    CapExceeded past TRUNCATION_CAP.

    >>> from ehpcalc.simplicial import build_sphere
    >>> james_census(build_sphere(1), 2)
    {0: 1, 1: 2, 2: 2}
    """
    return dict(sorted(truncation_census(dimension_census(K, basepoint=True), n).items()))


@lru_cache(maxsize=None)
def _james_data(K: SSet, n: int) -> tuple[SSet, dict[str, JamesWord]]:
    letters = {m: [x for x in K.simplices(m) if x.generator != K.basepoint] for m in james_census(K, n)}
    cells = (xs for m, ys in letters.items() if ys for ell in range(1, n + 1)
             for xs in nondegenerate_tuples([ys], m, power=ell))
    tokens = {x: simplex_token(x) for ys in letters.values() for x in ys}  # once per letter
    named = [(f"[{'|'.join(map(tokens.__getitem__, xs))}]", xs) for xs in cells]  # words can be long
    J = _tuple_complex("*", (K,), named, lambda xs: tuple(x for x in xs if x.generator != K.basepoint))
    return J, {name: _word(K, xs[0].dim, xs) for name, xs in sorted(named)}


def james_truncation(K: SSet, n: int) -> SSet:
    """Words of length <= n, as a pointed simplicial set."""
    return _james_data(K, n)[0]


def james_words(K: SSet, n: int) -> dict[str, JamesWord]:
    """Generator name to word, for the nondegenerate cells of the truncation."""
    return dict(_james_data(K, n)[1])


def suspension_unit_E(K: SSet, n: int) -> SMap:
    """One-letter-word inclusion of K into its level-n truncation."""
    J, _ = _james_data(K, n)
    images = {g: _simplex(f"[{g}]", (), d) for g, d in K.gens if g != K.basepoint}  # the cells [g]
    return SMap.build(K, J, images | {K.basepoint: J.basepoint_simplex(0)})


def _subsequence_count(length: int, r: int) -> int:
    count = math.comb(length, r)
    if count > SMASH_POWER_CAP:
        raise CapExceeded(f"hopf word: {count} subsequences, over the cap of {SMASH_POWER_CAP}")
    return count


def _subsequences(w: JamesWord, r: int):
    """The r-fold subsequences of w's letters, lexicographic, under the caps."""
    if r < 1:
        raise DomainError("subsequence length must be >= 1")
    if not _subsequence_count(len(w.letters), r):
        return ()  # combinations would allocate r indices first
    _check_factors(r)
    return itertools.combinations(w.letters, r)


def james_hopf_letters(w: JamesWord, r: int) -> tuple[Simplex, ...]:
    """Classes x_i1 ^ ... ^ x_ir of the r-fold subsequences of w in
    lexicographic order, named as in smash_power(w.complex, r) without
    building it; basepoint classes "*" are dropped (at r = 1 there are none).

    >>> from ehpcalc.cli import parse_word
    >>> "".join(simplex_token(x) for x in james_hopf_letters(parse_word("x|y|z"), 2))
    '(x^y)(x^z)(y^z)'
    """
    classes = map(partial(_power_class, w.complex.basepoint, known={}), _subsequences(w, r))
    return tuple(x for x in classes if r == 1 or x.generator != "*")


def james_hopf_word(w: JamesWord, r: int) -> JamesWord:
    """james_hopf_letters as a word over smash_power(w.complex, r)."""
    letters = james_hopf_letters(w, r)
    return _word(smash_power(w.complex, r), w.dim, letters)


def james_hopf_map(K: SSet, n: int, r: int) -> SMap:
    """Simplexwise subsequence map out of the level-n truncation, into the
    subcomplex of J_{C(n,r)}(K^r) spanned by its images (the point when
    r > n). The target's cells, words of r-tuples of simplices of K, are
    faced in K: no smash power is built, and SMap.build checks simpliciality.

    >>> from ehpcalc.simplicial import build_sphere
    >>> james_hopf_map(build_sphere(1), 3, 2).target.n_generators
    17
    """
    if n < 1 or r < 1:
        raise DomainError("levels must be >= 1")
    _check_factors(r)
    james_census(K, n)  # the truncation cap comes first
    if K.n_generators > 1:
        # a non-basepoint generator repeated makes words of every length up
        # to n, so the shortest word past the cap is known before any is built
        for length in range(r, n + 1):
            _subsequence_count(length, r)
    J, words = _james_data(K, n)
    power_class = partial(_power_class, K.basepoint, known={})

    def kept(letters) -> tuple[Simplex, ...]:
        # letters hold r components per class; a class with a basepoint component is "*"
        groups = (letters[k:k + r] for k in range(0, len(letters), r))
        return tuple(x for xs in groups if K.basepoint not in map(_generator, xs) for x in xs)

    images, cells = {}, {}
    for name, w in words.items():
        # the kept classes commute with their shared degeneracies
        word, core = joint_normal_form(kept([x for xs in _subsequences(w, r) for x in xs]), w.dim)
        token = "|".join(simplex_token(power_class(core[k:k + r])) for k in range(0, len(core), r))
        images[name] = _simplex(f"[{token}]" if token else "*", word, w.dim)
        cells[images[name].generator] = core  # the empty word is the basepoint cell
    T = _tuple_complex("*", (K,), ((g, xs) for g, xs in cells.items() if xs), kept)
    images["*"] = T.basepoint_simplex(0)
    return SMap.build(J, T, images)


def james_map(f: SMap, n: int) -> SMap:
    """Letterwise induced map between level-n truncations."""
    Js, words = _james_data(f.source, n)
    Jt, _ = _james_data(f.target, n)
    images = {"*": Jt.basepoint_simplex(0)}
    for name, w in words.items():
        word, core = word_normal_form(JamesWord(f.target, w.dim, tuple(f(x) for x in w.letters)))
        images[name] = _simplex(word_token(core), word, w.dim)
    return SMap.build(Js, Jt, images)


def james_quotient(K: SSet, n: int) -> tuple[SSet, dict[str, str]]:
    """Collapse of words shorter than n, with its isomorphism [x1|...|xn] ->
    x1^...^xn onto the n-fold smash power as a generator witness: the map is
    checked simplicial and a bijection onto nondegenerate generators."""
    truncation_census(dimension_census(K, basepoint=True), n, quotient=True)  # every cap before any word is built
    J, words = _james_data(K, n)
    Q = collapse(J, {name for name, w in words.items() if len(w) < n})
    P = smash_power(K, n)
    power_class = partial(_power_class, K.basepoint, known={})
    images = {name: power_class(w.letters) for name, w in words.items() if len(w) == n}
    images[Q.basepoint] = P.basepoint_simplex(0)
    SMap.build(Q, P, images)
    witness = {name: x.generator for name, x in images.items()}
    if any(x.word for x in images.values()) or sorted(witness.values()) != sorted(P.generators()):
        raise DomainError("quotient did not match the smash power")
    return Q, witness


def cartan_word_check(K: SSet, letters) -> bool:
    """Subsequence word at r = 2 versus the concatenation of one-letter pair
    words, both reduced; letters may include the basepoint."""
    letters = tuple(letters)
    lhs = james_hopf_letters(JamesWord(K, letters[0].dim if letters else 0, letters), 2)
    pairs = map(partial(_power_class, K.basepoint, known={}), itertools.combinations(letters, 2))
    return lhs == tuple(x for x in pairs if x.generator != "*")
