"""Graded symbol calculus on two generators: degree +1 brackets [a] over
the field's units, a central degree -1 element eta, integer scalars in
degree 0. Products rewrite locally ([1] = 0, eta moved to the front), and
a KMWSymbol checks its terms once, where it is made. Exact normal forms
exist over the decidable coefficient fields and route degree 0 to diagonal
forms, negative degrees to their classes modulo hyperbolics, and positive
degrees to a (multiplicative part, ideal part) pair with a mod-2 matching;
what depends on the field kind (letters, exactness, the Milnor part and its
identity, the mod-2 match, formal reality) is asked of the field's kind
object in gw.py. Symbolic sheaf tags carry the closed rewrite tables for
contraction and the tensor pairing.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, DomainError, NoTensorRule, NormalFormUnavailable
from .gw import (
    Field,
    GWElement,
    _check_digits,
    _integer,
    gw_add,
    gw_make,
    gw_mul,
    gw_one,
    gw_scale,
    gw_sub,
    gw_zero,
    witt_class,
)

# Most terms a product of two symbols may expand to before they merge: each
# <a> is 1 + eta [a], so a product of k forms with distinct entries has 2^k.
PRODUCT_TERMS_CAP = 25_000

# ------------------------------------------------------------------ symbols


@dataclass(frozen=True)
class KMWSymbol:
    """Integer combination of monomials eta^s [a_1]...[a_m], one shared
    degree m - s; the empty combination leaves the degree unset."""

    field: Field
    degree: int | None
    terms: tuple  # ((coeff, (s, letters)), ...) merged, sorted, no zeros

    def __post_init__(self):
        for coeff, (s, letters) in self.terms:
            if not isinstance(coeff, int) or coeff == 0:
                raise DomainError("coefficients must be nonzero integers")
            if not isinstance(s, int) or s < 0:
                raise DomainError("eta exponents must be non-negative integers")
            if any(a == 1 for a in letters):
                raise DomainError("a bracket at 1 is zero and must be dropped")
            if len(letters) - s != self.degree:
                raise DomainError("terms must share one degree")
        if not self.terms and self.degree is not None:
            raise DomainError("the empty combination carries no degree")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for coeff, (s, letters) in self.terms:
            body = []
            if s == 1:
                body.append("eta")
            elif s > 1:
                body.append(f"eta^{s}")
            body.extend(f"[{a}]" for a in letters)
            mono = " ".join(body) if body else "1"
            mag = abs(coeff)
            head = mono if mag == 1 and body else (f"{mag} {mono}" if body else str(mag))
            if not pieces:
                pieces.append(head if coeff > 0 else f"- {head}")
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + head)
        return " ".join(pieces)


def _build(field: Field, items) -> KMWSymbol:
    """Merge (coeff, monomial) items into a symbol, dropping monomials
    containing a bracket at 1 and zero coefficients; KMWSymbol checks that
    the rest share the degree of the first."""
    acc: dict = {}
    for coeff, (s, letters) in items:
        _integer(coeff)  # checked here, before a non-integer could be summed into a count
        if not any(a == 1 for a in letters):
            key = (s, tuple(letters))
            acc[key] = acc.get(key, 0) + coeff
    _check_digits(acc.values())
    terms = tuple((coeff, mono) for mono, coeff in sorted(acc.items()) if coeff != 0)
    return KMWSymbol(field, next((len(letters) - s for _c, (s, letters) in terms), None), terms)


def kmw_zero(field: Field) -> KMWSymbol:
    return KMWSymbol(field, None, ())


def kmw_bracket(field: Field, a) -> KMWSymbol:
    """The degree 1 generator [a]; [1] is already zero. The entry is kept
    as an int in the prime subfield for finite fields, a nonzero
    lowest-terms Fraction elsewhere."""
    if isinstance(a, str):
        raise DomainError("bracket entries must be numeric units")
    return _build(field, [(1, (0, (field.ops.letter(Fraction(a)),)))])


def kmw_eta(field: Field) -> KMWSymbol:
    """The central degree -1 generator."""
    return _build(field, [(1, (1, ()))])


def kmw_scalar(field: Field, c: int) -> KMWSymbol:
    """The degree 0 integer c."""
    return _build(field, [(c, (0, ()))])


def _same_field(x: KMWSymbol, y: KMWSymbol):
    if x.field != y.field:
        raise DomainError("symbols live over different fields")


def kmw_add(x: KMWSymbol, y: KMWSymbol) -> KMWSymbol:
    _same_field(x, y)
    if x.degree is not None and y.degree is not None and x.degree != y.degree:
        raise DomainError("cannot add symbols of different degrees")
    return _build(x.field, x.terms + y.terms)


def kmw_neg(x: KMWSymbol) -> KMWSymbol:
    return _build(x.field, tuple((-c, m) for c, m in x.terms))


def kmw_sub(x: KMWSymbol, y: KMWSymbol) -> KMWSymbol:
    return kmw_add(x, kmw_neg(y))


def kmw_scale(n: int, x: KMWSymbol) -> KMWSymbol:
    return _build(x.field, tuple((n * c, m) for c, m in x.terms))


def kmw_mul(x: KMWSymbol, y: KMWSymbol) -> KMWSymbol:
    """Product; eta is central, so all eta powers collect in front while
    bracket letters concatenate in order."""
    _same_field(x, y)
    count = len(x.terms) * len(y.terms)
    if count > PRODUCT_TERMS_CAP:
        raise CapExceeded(f"symbol product: {count} terms, over the cap of {PRODUCT_TERMS_CAP}")
    items = []
    for cx, (sx, lx) in x.terms:
        for cy, (sy, ly) in y.terms:
            items.append((cx * cy, (sx + sy, lx + ly)))
    return _build(x.field, items)


def kmw_power(x: KMWSymbol, n: int) -> KMWSymbol:
    if n < 0:
        raise DomainError("negative symbol powers are not defined")
    out = kmw_scalar(x.field, 1)
    for _ in range(n):
        out = kmw_mul(out, x)
    return out


def kmw_form(field: Field, a) -> KMWSymbol:
    """<a> = 1 + eta [a], the degree 0 class of the unit a."""
    return kmw_add(kmw_scalar(field, 1), kmw_mul(kmw_eta(field), kmw_bracket(field, a)))


def kmw_hyperbolic(field: Field) -> KMWSymbol:
    """h = 2 + eta [-1] = <1> + <-1>."""
    return kmw_add(kmw_scalar(field, 2), kmw_mul(kmw_eta(field), kmw_bracket(field, -1)))


def kmw_epsilon(field: Field) -> KMWSymbol:
    """The swap class -<-1>."""
    return kmw_neg(kmw_form(field, -1))


# ------------------------------------------------------------- normal forms


def _gw_value(field: Field, terms) -> GWElement:
    """Sum of coeff * prod([a_i] -> <a_i> - <1>); eta powers act as the
    identity on this value, so they are ignored here."""
    total = gw_zero(field)
    for coeff, (_s, letters) in terms:
        prod = gw_one(field)
        for a in letters:
            prod = gw_mul(prod, gw_sub(gw_make(field, [(1, a)]), gw_one(field)))
        total = gw_add(total, gw_scale(coeff, prod))
    return total


@dataclass(frozen=True)
class KMWNormalForm:
    """Degree 0 holds a diagonal-form value, negative degrees a class
    modulo hyperbolics, positive degrees a (multiplicative, ideal) pair
    whose mod-2 images must match."""

    field: Field
    degree: int | None
    value: object

    def __post_init__(self):
        n = self.degree
        if n is not None and n > 0 and not self.field.ops.parts_match(n, *self.value):
            raise DomainError("normal form parts have mismatched mod-2 images")

    def is_zero(self) -> bool:
        if self.degree is None:
            return True
        if self.degree == 0:
            return not self.value.counts
        if self.degree < 0:
            return self.value.is_zero
        milnor, witt = self.value
        return milnor == self.field.ops.milnor_identity and witt.is_zero

    def __str__(self) -> str:
        if self.degree is None:
            return "0"
        if self.degree <= 0:
            return str(self.value)
        milnor, witt = self.value
        return f"({milnor}, {witt})"


def kmw_normal_form(x: KMWSymbol) -> KMWNormalForm:
    """Exact evaluation where a normal form exists; raises otherwise so
    callers can fall back to symbolic comparison."""
    field = x.field
    field.ops.check_exact(x.degree, x.terms)
    if x.degree is None:
        return KMWNormalForm(field, None, None)
    n = x.degree
    if n == 0:
        return KMWNormalForm(field, 0, _gw_value(field, x.terms))
    if n < 0:
        return KMWNormalForm(field, n, witt_class(_gw_value(field, x.terms)))
    milnor = field.ops.milnor_part(n, x.terms)
    witt = witt_class(_gw_value(field, x.terms))
    return KMWNormalForm(field, n, (milnor, witt))


def kmw_equal(x: KMWSymbol, y: KMWSymbol):
    """True/False via normal forms where they exist; otherwise the merged
    difference decides only syntactic equality, and the honest answer for
    the rest is "undecided"."""
    _same_field(x, y)
    if x.degree is not None and y.degree is not None and x.degree != y.degree:
        raise DomainError("cannot compare symbols of different degrees")
    diff = kmw_sub(x, y)
    if not diff.terms:
        return True
    try:
        return kmw_normal_form(diff).is_zero()
    except NormalFormUnavailable:
        return "undecided"


# ------------------------------------------------------------- sheaf tags

# argument kind -> (test, refusal); a bool is not an integer here
_ARGUMENTS = {
    "degree": (lambda v: type(v) is int, "a degree must be an integer"),
    "modulus": (lambda v: type(v) is int and v >= 2, "a modulus must be an integer >= 2"),
    "factor": (lambda v: isinstance(v, SheafExpr), "tensor arguments must be sheaf expressions"),
    "inner": (lambda v: isinstance(v, SheafExpr), "contraction applies to a sheaf expression"),
    "count": (lambda v: type(v) is int and v >= 0, "contraction count must be a non-negative integer"),
}

# tag -> (argument kinds, token format); the one place a tag is described
_SHEAF_TAGS = {
    "KMW": (("degree",), "KMW({0})"),
    "KM": (("degree",), "KM({0})"),
    "KM_mod": (("degree", "modulus"), "KM({0})/{1}"),
    "I": (("degree",), "I({0})"),
    "W": ((), "W"),
    "Z": ((), "Z"),
    "Z_mod": (("modulus",), "Z/{0}"),
    "Zero": ((), "0"),
    "Tensor": (("factor", "factor"), "{0} (x) {1}"),
    "Contraction": (("inner", "count"), "{0}_{{-{1}}}"),
}

# graded tag -> (its contraction below degree 0, at degree 0); other leaves are stable
_CONTRACTED = {"KMW": ("W", "KMW"), "KM": ("Zero", "Z"), "KM_mod": ("Zero", "Z_mod"), "I": ("W", "W")}


@dataclass(frozen=True)
class SheafExpr:
    """Symbolic tag tree; leaves carry integer parameters only."""

    tag: str
    args: tuple = ()

    def __post_init__(self):
        if self.tag not in _SHEAF_TAGS:
            raise DomainError(f"unknown sheaf tag {self.tag!r}")
        kinds = _SHEAF_TAGS[self.tag][0]
        if len(self.args) != len(kinds):
            raise DomainError(f"tag {self.tag} takes {len(kinds)} arguments")
        for kind, value in zip(kinds, self.args):
            accepts, refusal = _ARGUMENTS[kind]
            if not accepts(value):
                raise DomainError(refusal)

    def __str__(self) -> str:
        return sheaf_token(self)


def sheaf_token(e: SheafExpr) -> str:
    return _SHEAF_TAGS[e.tag][1].format(*e.args)


def contraction(e: SheafExpr, j: int) -> SheafExpr:
    """j-fold contraction by the closed table; nested tensor and
    contraction nodes are resolved first."""
    return _resolve(SheafExpr("Contraction", (e, j)))


def aone_tensor(e1: SheafExpr, e2: SheafExpr) -> SheafExpr:
    """Tensor pairing by the closed table, with Z as the unit: for
    m, n >= 1, KMW(m) (x) KMW(n) = KMW(m+n), or KM(m+n)/r when a factor
    is KM(.)/r with one shared r. Other pairs are refused, not guessed."""
    return _resolve(SheafExpr("Tensor", (e1, e2)))


def _resolve(e: SheafExpr) -> SheafExpr:
    if e.tag == "Contraction":
        x, j = _resolve(e.args[0]), e.args[1]
        if j == 0 or x.tag not in _CONTRACTED:
            return x
        n = x.args[0] - j
        below, at_zero = _CONTRACTED[x.tag]
        tag = below if n < 0 else at_zero if n == 0 else x.tag
        # the result keeps the trailing arguments it takes: modulus, graded degree
        args = (n, *x.args[1:])
        return SheafExpr(tag, args[len(args) - len(_SHEAF_TAGS[tag][0]):])
    if e.tag == "Tensor":
        x, y = _resolve(e.args[0]), _resolve(e.args[1])
        if "Z" in (x.tag, y.tag):
            return y if x.tag == "Z" else x
        if all(f.tag in ("KMW", "KM_mod") and f.args[0] >= 1 for f in (x, y)):
            moduli = {f.args[1] for f in (x, y) if f.tag == "KM_mod"}
            if len(moduli) <= 1:
                return SheafExpr("KM_mod" if moduli else "KMW", (x.args[0] + y.args[0], *moduli))
        raise NoTensorRule(f"no rule for {sheaf_token(x)} (x) {sheaf_token(y)}")
    return e


def rational_decomposition(n: int, field: Field) -> dict:
    """After tensoring with the rationals the two factors survive or die
    by degree and by orderability of the field."""
    return {
        "degree": n,
        "field": str(field),
        "milnor_part_nontrivial": n >= 0,
        "I_part_nontrivial": field.ops.formally_real,
    }
