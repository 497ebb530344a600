"""Symmetric bilinear form arithmetic over concrete fields of characteristic
not 2: square classes, the Grothendieck-Witt ring, Witt quotients, and powers
of the fundamental ideal.

Each field kind has one home: a Field resolves its kind object once, from the
table _KINDS, and that object owns the square classes and their product,
normalisation, the signature, the Witt class, the ideal powers and the
per-kind parts of kmw.py, the Milnor identity included. A GWElement holds
one count per square class, keyed by the class's canonical representative
(a plain int, or "g"), so no work or memory grows with a coefficient
(Milnor-Husemoller). SquareClass wraps a representative with its field; it
is the value of square_class() and of the discriminant in gw_invariants().
"""
from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, isqrt, prod

from .errors import CapExceeded, DomainError, NormalFormUnavailable

QUADRATICALLY_CLOSED = "quadratically-closed"
REAL_CLOSED = "real-closed"
FINITE_ODD = "finite-odd"
RATIONALS = "rationals"

# Trial division runs up to sqrt(n): about a million steps at this bound.
TRIAL_DIVISION_BOUND = 10**12
# A discrete-log table holds p - 1 entries; at most DLOG_TABLES_KEPT of them
# stay cached at once.
DLOG_TABLE_CAP = 10**6
DLOG_TABLES_KEPT = 8
# Largest sum of |c| * (bits of a letter) over the terms of a Milnor part
# over Qbar: its product then prints in under 4,300 decimal digits, the
# interpreter's limit on converting an int to a string.
MILNOR_BITS_CAP = 10_000
# Most decimal digits of an integer read or printed: the interpreter refuses
# to convert longer ints to or from strings. Coefficients of forms and of
# symbols are held below it, so every result prints.
DIGITS_CAP = 4300
_TOO_MANY_DIGITS = 10**DIGITS_CAP


def _prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, or None when q has two prime factors."""
    if q > TRIAL_DIVISION_BOUND:
        raise DomainError(f"field size {q} exceeds the trial-division bound {TRIAL_DIVISION_BOUND}")
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def _squarefree(n: int) -> int:
    if abs(n) > TRIAL_DIVISION_BOUND:
        raise DomainError(f"square class of {n}: |n| exceeds the trial-division bound {TRIAL_DIVISION_BOUND}")
    out, m, d = 1, abs(n), 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
        if m % d == 0:
            m //= d
            out *= d
        d += 1
    return (1 if n > 0 else -1) * out * m


@lru_cache(maxsize=DLOG_TABLES_KEPT)
def _dlog_table(p: int) -> dict:
    if p > DLOG_TABLE_CAP:
        raise CapExceeded(f"discrete-log table: p = {p} exceeds the cap of {DLOG_TABLE_CAP}")
    # powers of the smallest generator of the units mod p
    for g in range(2, p):
        table, acc = {}, 1
        for e in range(p - 1):
            table[acc] = e
            acc = acc * g % p
        if len(table) == p - 1:
            return table
    raise DomainError("no multiplicative generator found")


def _common(a: int, b: int) -> int:
    """The signed count that a and b share when they have one sign, else 0."""
    return min(a, b, key=abs) if a * b > 0 else 0


class _Kind:
    """What the four kinds share; each subclass is the one home of a kind.

    A square class is held by its canonical representative: 1 over a
    quadratically closed field, +-1 over a real closed one, 1 or "g" over a
    finite one, a squarefree integer over Q. normalize may rewrite the dict
    {representative: count} that it is given.
    """

    p = 0  # the characteristic
    formally_real = False
    milnor_identity = 0  # the neutral value of milnor_part, written additively

    def __init__(self, q):
        if q is not None:
            raise DomainError("only finite fields carry a size")
        self.minus = self.rep(-1)

    def mul(self, r, s):
        # r and s are squarefree integers, so dividing out their gcd leaves
        # the squarefree part of r * s
        g = gcd(r, s)
        return (r // g) * (s // g)

    def normalize(self, net: dict) -> dict:
        # over Qbar and R the counts per class are already canonical
        return net

    def signature(self, counts):
        if not self.formally_real:
            return "undefined"
        return sum(n if r > 0 else -n for r, n in counts)

    def witt_is_zero(self, data) -> bool:
        # zero rank parity, zero signature, or no classes left over Q
        return not any(data)

    def ideal_contains(self, x, n: int) -> bool:
        """Membership in I^n for n >= 2."""
        return witt_class(x).is_zero

    def letter(self, value: Fraction):
        """Canonical bracket entry of a rational unit."""
        if value == 0:
            raise DomainError("bracket entry is not a unit")
        return value

    def check_exact(self, degree, terms) -> None:
        """Raise NormalFormUnavailable where a symbol has no exact normal form."""

    def parts_match(self, n: int, milnor, witt) -> bool:
        """Whether the Milnor and Witt parts of degree n >= 1 agree mod 2."""
        return witt.is_zero


class _QuadraticallyClosed(_Kind):
    """Every unit is a square: GW is Z by the rank, W is Z/2."""

    label = "Qbar"
    milnor_identity = 1  # milnor_part multiplies positive rationals

    def rep(self, a):
        return 1

    def witt_data(self, x) -> tuple:
        return (gw_invariants(x)["rank"] % 2,)

    def witt_str(self, w) -> str:
        return "<1>" if w.data[0] else "0"

    def ideal_description(self, n: int) -> str:
        return "0"

    def check_exact(self, degree, terms) -> None:
        if degree is not None and degree >= 2:
            raise NormalFormUnavailable("only degree 1 is exact over this field")
        # the torsion of the unit group is not finitely presented here
        if degree == 1 and any(a < 0 for _c, (_s, letters) in terms for a in letters):
            raise NormalFormUnavailable("negative entries have no exact form here")

    def milnor_part(self, n: int, terms):
        # degree 1: the positive units form a free group
        powers = [(Fraction(w[0]), c) for c, (s, w) in terms if s == 0]
        bits = sum(abs(c) * (a.numerator.bit_length() + a.denominator.bit_length()) for a, c in powers)
        if bits > MILNOR_BITS_CAP:
            raise CapExceeded(f"Milnor part over Qbar: {bits} bits exceeds the cap of {MILNOR_BITS_CAP}")
        return prod((a ** c for a, c in powers), start=Fraction(1))


class _RealClosed(_Kind):
    """Units are squares up to sign: GW is Z^2 by rank and signature, W is Z."""

    label = "R"
    formally_real = True

    def rep(self, a):
        return 1 if a > 0 else -1

    def witt_data(self, x) -> tuple:
        return (gw_invariants(x)["signature"],)

    def witt_str(self, w) -> str:
        return str(w.data[0])

    def ideal_contains(self, x, n: int) -> bool:
        return witt_class(x).data[0] % (2 ** n) == 0

    def ideal_description(self, n: int) -> str:
        return f"{2 ** n}Z under the signature isomorphism"

    def check_exact(self, degree, terms) -> None:
        # only the sign fragment is exact in positive degrees
        if degree is not None and degree >= 1 and any(
                a != -1 for _c, (_s, letters) in terms for a in letters):
            raise NormalFormUnavailable("entries outside {1, -1} have no exact form here")

    def milnor_part(self, n: int, terms):
        return sum(coeff for coeff, (s, _l) in terms if s == 0) % 2

    def parts_match(self, n: int, milnor, witt) -> bool:
        sig = witt.data[0]
        return sig % (1 << n) == 0 and (sig >> n) % 2 == milnor % 2


class _FiniteOdd(_Kind):
    """F_q with q = p^k odd: the classes 1 and the non-residue g; GW is
    Z + Z/2 by rank and discriminant, W has four elements."""

    def __init__(self, q):
        if q is None or q < 3 or q % 2 == 0:
            raise DomainError("finite field size must be an odd prime power >= 3")
        pk = _prime_power(q)
        if pk is None:
            raise DomainError(f"{q} is not a prime power")
        self.q, self.p = q, pk[0]
        self.label = f"F{q}"
        self.minus = self.rep(-1)

    def rep(self, a):
        if a % self.p == 0:
            raise DomainError(f"{a} is zero in characteristic {self.p}")
        # Euler criterion in the prime subfield decides squareness in the
        # extension as well
        return 1 if pow(a, (self.q - 1) // 2, self.p) == 1 else "g"

    def mul(self, r, s):
        return "g" if (r == "g") != (s == "g") else 1

    def normalize(self, net: dict) -> dict:
        rank = sum(net.values())
        return {1: rank - 1, "g": 1} if net.get("g", 0) % 2 else {1: rank}

    def witt_data(self, x) -> tuple:
        inv = gw_invariants(x)
        parity = inv["rank"] % 2
        disc = inv["disc"].rep
        if (inv["rank"] - parity) // 2 % 2:
            disc = self.mul(disc, self.minus)
        return (parity, disc)

    def witt_str(self, w) -> str:
        parity, disc = w.data
        if parity == 1:
            return f"<{disc}>"
        if disc == 1:
            return "0"
        # rank-2 representative; its honest discriminant undoes the
        # one-hyperbolic-plane twist
        return "<1>+<1>" if self.mul(disc, self.minus) == 1 else "<1>+<g>"

    def witt_is_zero(self, data) -> bool:
        return data == (0, 1)

    def ideal_description(self, n: int) -> str:
        return "order 2, the even-rank classes" if n == 1 else "0"

    def letter(self, value: Fraction):
        num, den = value.numerator % self.p, value.denominator % self.p
        if num == 0 or den == 0:
            raise DomainError("bracket entry is not a unit")
        return num * pow(den, -1, self.p) % self.p

    def milnor_part(self, n: int, terms):
        if n >= 2:
            return 0
        table = _dlog_table(self.p)
        stretch = (self.q - 1) // (self.p - 1)
        total = sum(coeff * table[letters[0]] * stretch for coeff, (s, letters) in terms if s == 0)
        return total % (self.q - 1)

    def parts_match(self, n: int, milnor, witt) -> bool:
        if n >= 2:
            return milnor == 0 and witt.is_zero
        return (milnor % 2 == 1) == (not witt.is_zero)


class _Rationals(_Kind):
    """Squarefree integer classes. Normal forms are sound but not canonical,
    so equality is decided only where rank, discriminant and signature tell
    two forms apart."""

    label = "Q"
    formally_real = True

    def rep(self, a):
        return _squarefree(a)

    def normalize(self, net: dict) -> dict:
        # rewrite hyperbolic pairs <a> + <-a> of one sign as <1> + <-1>
        planes = 0
        for r in [r for r in net if r not in (1, -1)]:
            m = _common(net[r], net.get(-r, 0))
            if m:
                net[r] -= m
                net[-r] -= m
                planes += m
        net[1] = net.get(1, 0) + planes
        net[-1] = net.get(-1, 0) + planes
        return net

    def witt_data(self, x) -> tuple:
        # drop the hyperbolic planes <1> + <-1> of the normal form and keep
        # the rest as a representative
        net = dict(x.counts)
        m = _common(net.get(1, 0), net.get(-1, 0))
        return _element(x.field, [*x.counts, (1, -m), (-1, -m)]).counts

    def witt_str(self, w) -> str:
        return f"[{GWElement(w.field, w.data)}]"

    def ideal_contains(self, x, n: int) -> bool:
        raise DomainError("membership beyond the first power is unsupported here")

    def ideal_description(self, n: int) -> str:
        return "even-rank classes" if n == 1 else "generated by n-fold Pfister classes"

    def check_exact(self, degree, terms) -> None:
        raise NormalFormUnavailable("no exact normal form over this field")


# the one place a kind name is read
_KINDS = {
    QUADRATICALLY_CLOSED: _QuadraticallyClosed,
    REAL_CLOSED: _RealClosed,
    FINITE_ODD: _FiniteOdd,
    RATIONALS: _Rationals,
}


@dataclass(frozen=True)
class Field:
    """A field of one of the four kinds; q is the size of a finite field and
    ops the kind object, resolved once from _KINDS."""

    kind: str
    q: int | None = None
    ops: _Kind = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        make = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if make is None:
            raise DomainError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "ops", make(self.q))

    @property
    def characteristic(self) -> int:
        return self.ops.p

    def __str__(self) -> str:
        return self.ops.label


def quadratically_closed() -> Field:
    return Field(QUADRATICALLY_CLOSED)


def real_closed() -> Field:
    return Field(REAL_CLOSED)


def finite_odd(q: int) -> Field:
    return Field(FINITE_ODD, q)


def rationals() -> Field:
    return Field(RATIONALS)


def non_residue(field: Field) -> int:
    """Smallest positive non-residue, for finite fields of prime order."""
    p = field.characteristic
    if p == 0:
        raise DomainError("non-residue lookup needs a finite field")
    if field.q != p:
        raise DomainError("no prime-subfield non-residue in a proper extension")
    return next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)


@dataclass(frozen=True)
class SquareClass:
    """A unit up to squares, in the field's canonical form."""

    field: Field
    rep: int | str

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise DomainError("square classes live over different fields")
        return SquareClass(self.field, self.field.ops.mul(self.rep, other.rep))

    def __str__(self) -> str:
        return str(self.rep)


def square_class(field: Field, a) -> SquareClass:
    """Canonical square class of a nonzero unit; finite fields accept the
    symbol "g" for the fixed non-residue."""
    if a == "g":
        if field.characteristic == 0:
            raise DomainError("the symbol g is reserved for finite fields")
        return SquareClass(field, "g")
    if isinstance(a, Fraction):
        if a == 0:
            raise DomainError("zero is not a unit")
        a = a.numerator * a.denominator
    if not isinstance(a, int) or a == 0:
        raise DomainError(f"not a unit: {a!r}")
    return SquareClass(field, field.ops.rep(a))


def _class_key(rep):
    # <1> first, then <-1>, then by magnitude, the non-residue last
    if rep == "g":
        return (4, 0)
    return ({1: 0, -1: 1}.get(rep, 2 if rep > 0 else 3), abs(rep))


@dataclass(frozen=True)
class GWElement:
    """Virtual diagonal form in the field kind's normal form: (canonical
    representative, nonzero count) pairs in display order."""

    field: Field
    counts: tuple[tuple[int | str, int], ...]

    def __str__(self) -> str:
        out = ""
        for rep, n in sorted(self.counts, key=lambda cn: cn[1] < 0):
            sign = (" + " if n > 0 else " - ") if out else ("" if n > 0 else "-")
            out += f"{sign}{'' if abs(n) == 1 else abs(n)}<{rep}>"
        return out or "0"


def _check_digits(coefficients) -> None:
    """Refuse coefficients of more than DIGITS_CAP digits, which would not print."""
    for n in coefficients:
        if abs(n) >= _TOO_MANY_DIGITS:
            raise CapExceeded(f"coefficient of {n.bit_length()} bits exceeds the cap of {DIGITS_CAP} digits")


def _element(field: Field, pairs) -> GWElement:
    """Normal form of the sum of n<rep> over the (rep, n) pairs."""
    net: dict = {}
    for rep, n in pairs:
        net[rep] = net.get(rep, 0) + n
    net = field.ops.normalize(net)
    _check_digits(net.values())
    return GWElement(field, tuple((rep, net[rep]) for rep in sorted(net, key=_class_key) if net[rep]))


def gw_make(field: Field, terms) -> GWElement:
    """Element from (integer coefficient, unit) terms, e.g. h = [(1, 1), (1, -1)]."""
    return _element(field, ((square_class(field, a).rep, coeff) for coeff, a in terms))


def gw_zero(field: Field) -> GWElement:
    return gw_make(field, [])


def gw_one(field: Field) -> GWElement:
    return gw_make(field, [(1, 1)])


def hyperbolic(field: Field) -> GWElement:
    """h = <1> + <-1>."""
    return gw_make(field, [(1, 1), (1, -1)])


def exchange_class(field: Field) -> GWElement:
    """The class -<-1> that swaps smash factors."""
    return gw_make(field, [(-1, -1)])


def _same_field(x: GWElement, y: GWElement):
    if x.field != y.field:
        raise DomainError("elements live over different fields")


def gw_add(x: GWElement, y: GWElement) -> GWElement:
    _same_field(x, y)
    return _element(x.field, x.counts + y.counts)


def gw_neg(x: GWElement) -> GWElement:
    return gw_scale(-1, x)


def gw_sub(x: GWElement, y: GWElement) -> GWElement:
    return gw_add(x, gw_neg(y))


def gw_mul(x: GWElement, y: GWElement) -> GWElement:
    _same_field(x, y)
    mul = x.field.ops.mul
    return _element(x.field, ((mul(a, b), m * n) for a, m in x.counts for b, n in y.counts))


def gw_scale(n: int, x: GWElement) -> GWElement:
    return _element(x.field, ((rep, n * k) for rep, k in x.counts))


def gw_invariants(x: GWElement) -> dict:
    """Rank, discriminant class, and (where ordered) signature."""
    ops = x.field.ops
    disc = reduce(ops.mul, (rep for rep, n in x.counts if n % 2), 1)
    return {
        "rank": sum(n for _rep, n in x.counts),
        "disc": SquareClass(x.field, disc),
        "signature": ops.signature(x.counts),
    }


def gw_equal(x: GWElement, y: GWElement):
    """Equality decision; over the rationals the answer may be "undecided"."""
    _same_field(x, y)
    if x.counts == y.counts:
        return True
    ix, iy = gw_invariants(x), gw_invariants(y)
    if (ix["rank"], ix["disc"], ix["signature"]) != (iy["rank"], iy["disc"], iy["signature"]):
        return False
    # only over Q do equal invariants leave distinct normal forms
    return "undecided"


@dataclass(frozen=True)
class WittClass:
    """Class of a form modulo hyperbolic multiples."""

    field: Field
    data: tuple

    def __str__(self) -> str:
        return self.field.ops.witt_str(self)

    @property
    def is_zero(self) -> bool:
        return self.field.ops.witt_is_zero(self.data)


def witt_class(x: GWElement) -> WittClass:
    return WittClass(x.field, x.field.ops.witt_data(x))


def witt_ring_table(field: Field) -> dict:
    """Addition and multiplication tables of the four-element Witt ring,
    found by enumerating small diagonal forms."""
    if field.characteristic == 0:
        raise DomainError("tables are enumerated for finite fields only")
    seen: dict[tuple, GWElement] = {}
    for rank in range(3):
        for combo in itertools.product([1, "g"], repeat=rank):
            el = gw_make(field, [(1, u) for u in combo])
            seen.setdefault(witt_class(el).data, el)
    if len(seen) != 4:
        raise DomainError("expected a four-element Witt ring")
    reps = list(seen.values())
    labels = [str(witt_class(r)) for r in reps]
    index = {data: i for i, data in enumerate(seen)}
    add = [[labels[index[witt_class(gw_add(a, b)).data]] for b in reps] for a in reps]
    mul = [[labels[index[witt_class(gw_mul(a, b)).data]] for b in reps] for a in reps]
    # a group of order four is cyclic when some element has a nonzero double
    cyclic = any(not witt_class(gw_add(r, r)).is_zero for r in reps)
    return {"elements": labels, "add": add, "mul": mul, "cyclic": cyclic}


@dataclass(frozen=True)
class IdealPower:
    """Power of the fundamental ideal, with a membership test on Witt classes."""

    field: Field
    n: int
    description: str

    def contains(self, x: GWElement) -> bool:
        if x.field != self.field:
            raise DomainError("element lives over a different field")
        if self.n <= 0:
            return True
        if self.n == 1:  # I is the even-rank classes over every field
            return gw_invariants(x)["rank"] % 2 == 0
        return self.field.ops.ideal_contains(x, self.n)


def fundamental_ideal_power(field: Field, n: int) -> IdealPower:
    if n <= 0:
        return IdealPower(field, n, f"W({field})")
    return IdealPower(field, n, field.ops.ideal_description(n))


def pfister_form(field: Field, units) -> GWElement:
    """Product of the binary forms <1> + <-a> over the given units."""
    ops = field.ops
    out = gw_one(field)
    for a in units:
        minus_a = ops.mul(square_class(field, a).rep, ops.minus)
        out = gw_mul(out, _element(field, [(1, 1), (minus_a, 1)]))
    return out
