"""EHP bookkeeping for motivic spheres.

Exchange-map degrees, the four-case boundary element with its case label,
exact-sequence window reports, an exact signed-preimage degree check for
self-maps of the square, and a small table of recorded values.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, DomainError, NotRegularValue
from .gw import (
    Field,
    GWElement,
    exchange_class,
    gw_add,
    gw_invariants,
    gw_make,
    gw_one,
    gw_scale,
    gw_sub,
    real_closed,
)
from .kmw import SheafExpr, aone_tensor, sheaf_token


@dataclass(frozen=True)
class SphereBidegree:
    """The sphere S^{i+ja}: i simplicial suspensions smashed with j torus factors."""

    simplicial: int
    gm: int

    def __post_init__(self):
        for part in (self.simplicial, self.gm):
            if not isinstance(part, int) or isinstance(part, bool):
                raise DomainError("sphere bidegrees are pairs of integers")
        if self.simplicial < 0 or self.gm < 0:
            raise DomainError("sphere bidegrees are nonnegative")

    def smash(self, other: "SphereBidegree") -> "SphereBidegree":
        return SphereBidegree(self.simplicial + other.simplicial, self.gm + other.gm)

    def suspend(self) -> "SphereBidegree":
        return SphereBidegree(self.simplicial + 1, self.gm)

    def token(self) -> str:
        if self.gm == 0:
            return f"S^{{{self.simplicial}}}"
        return f"S^{{{self.simplicial}+{self.gm}a}}"

    def __str__(self):
        return self.token()


def _pi(m: int, w: int, space: str) -> str:
    sub = f"{m}+{w}a" if w else f"{m}"
    return f"pi_{{{sub}}}({space})"


def exchange_degree(p: int, q: int, field: Field) -> GWElement:
    """Degree (-1)^p eps^q of the factor swap on the smash square of S^{p+qa}.

    eps^2 = <1>, so eps^q is eps for odd q and <1> for even q.
    """
    if p < 0 or q < 0:
        raise DomainError("exchange degrees need p >= 0 and q >= 0")
    return gw_scale((-1) ** p, exchange_class(field) if q % 2 else gw_one(field))


# case label keyed by (p mod 2, q mod 2)
_CASE_LABELS = {
    (0, 0): "0",
    (1, 0): "2",
    (0, 1): "h",
    (1, 1): "1+eps",
}


def hp_differential(p: int, q: int, field: Field) -> tuple:
    """The boundary element 1 - (-1)^p eps^q together with its parity case label."""
    if p <= 1:
        raise DomainError("the differential is identified only for p > 1")
    if q < 1:
        raise DomainError("q = 0 is the classical case; use classical_hp_degree")
    value = gw_sub(gw_one(field), exchange_degree(p, q, field))
    return value, _CASE_LABELS[(p % 2, q % 2)]


def classical_hp_degree(p: int) -> int:
    """Integer boundary degree 1 - (-1)^p for spheres with no torus factor."""
    if p <= 1:
        raise DomainError("the differential is identified only for p > 1")
    return 1 - (-1) ** p


def hp_differential_variant(p: int, q: int, field: Field) -> GWElement:
    """The same boundary element written as <1> + (-1)^(p+1+q) <-1>^q, where
    <-1>^q is <-1> for odd q and <1> for even q."""
    if p <= 1 or q < 1:
        raise DomainError("the differential is identified only for p > 1, q >= 1")
    minus_one_power = gw_make(field, [(1, -1 if q % 2 else 1)])
    return gw_add(gw_one(field), gw_scale((-1) ** (p + 1 + q), minus_one_power))


def hp_invariant_report(p: int, q: int) -> dict:
    """Rank and real signature of the boundary element, checked against parity."""
    value, _label = hp_differential(p, q, real_closed())
    inv = gw_invariants(value)
    rank, signature = inv["rank"], inv["signature"]
    if rank != 1 - (-1) ** (p + q):
        raise DomainError("rank disagrees with the parity formula")
    if signature != 1 - (-1) ** p:
        raise DomainError("signature disagrees with the parity formula")
    return {"rank": rank, "signature": signature}


@dataclass(frozen=True)
class EHPReport:
    """An exact-sequence window: entries are (label, sheaf token, arrow out)."""

    space: str
    mode: str
    entries: tuple
    annotation: str = None

    def tokens(self) -> list:
        """Flat token list; only P is labelled in the low-degree window."""
        out = []
        last = len(self.entries) - 1
        for k, (label, _sheaf, arrow) in enumerate(self.entries):
            out.append(label)
            if k == last:
                break
            if arrow and (self.mode == "full_range" or arrow == "P"):
                out.append(f"-{arrow}->")
            else:
                out.append("->")
        return out

    def to_doc(self) -> dict:
        entries = [
            {
                "label": label,
                "sheaf": sheaf,
                "arrow": arrow,
                "basis": "tensor table" if sheaf else "recorded sequence shape",
            }
            for label, sheaf, arrow in self.entries
        ]
        return {
            "space": self.space,
            "mode": self.mode,
            "entries": entries,
            "annotation": self.annotation,
            "tokens": self.tokens(),
        }


def ehp_sequence_report(sphere: SphereBidegree, mode: str) -> EHPReport:
    """Exact-sequence window for X = S^{n+qa}; needs n >= 2."""
    n, q = sphere.simplicial, sphere.gm
    if n < 2:
        raise DomainError("the sequence needs simplicial degree >= 2")
    if mode == "low_degree":
        middle = aone_tensor(SheafExpr("KMW", (q,)), SheafExpr("KMW", (q,)))
        sx = sphere.suspend()
        own = SphereBidegree(2 * n + 1, 2 * q)
        entries = (
            (_pi(2 * n + 1, 2 * q, sx.token()), None, "H"),
            (_pi(2 * n + 1, 2 * q, own.token()), sheaf_token(middle), "P"),
            (_pi(2 * n - 1, 2 * q, sphere.token()), None, "E"),
            (_pi(2 * n, 2 * q, sx.token()), None, None),
            ("0", None, None),
        )
        return EHPReport(sphere.token(), mode, entries)
    if mode == "full_range":
        double = sphere.smash(sphere)
        left = 3 * n - 2
        entries = (
            (_pi(left, 0, sphere.token()), None, "E"),
            (_pi(left, 0, f"J({sphere.token()})"), None, "H"),
            (_pi(left, 0, f"J({double.token()})"), None, "P"),
            (_pi(left - 1, 0, sphere.token()), None, "E"),
            ("...", None, None),
        )
        note = f"E is an isomorphism on pi_q for q <= {2 * n - 2}"
        return EHPReport(sphere.token(), mode, entries, note)
    raise DomainError("mode must be low_degree or full_range")


# map id -> pieces (t_lo, t_hi, solve, jacobian). A piece covers t_lo <= t <=
# t_hi; solve gives its one point over a value (x, y), jacobian the
# determinant there. The Whitehead map sends (u,t) to (u, 1-2t(1-u)) below
# the seam and to (1-2(1-t)(1-u), u) above it; both Jacobians are -2(1-u).
_HALF = Fraction(1, 2)
_SQUARE_MAPS = {
    "whitehead_exchange_homotopy": (
        (0, _HALF, lambda x, y: (x, (1 - y) / (2 * (1 - x))), lambda u, t: -2 * (1 - u)),
        (_HALF, 1, lambda x, y: (y, 1 - (1 - x) / (2 * (1 - y))), lambda u, t: -2 * (1 - u)),
    ),
    "identity": ((0, 1, lambda x, y: (x, y), lambda u, t: 1),),
    "coordinate_flip": ((0, 1, lambda x, y: (x, 1 - y), lambda u, t: -1),),
}
# Each Whitehead map adds about ten bits to a preimage's coordinates, so the
# work of a composite grows with the square of its length.
DEGREE_MAPS_CAP = 1000


def _as_point(value):
    try:
        x, y = (Fraction(v) for v in value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError("value must be a pair of rationals") from exc
    return x, y


def signed_preimages(map_id: str, value) -> list:
    """Exact preimages of an interior rational value, each with its Jacobian sign.

    The square's boundary is collapsed to the basepoint, so solutions on or
    beyond an edge are dropped; a solution landing exactly on the seam
    between two pieces makes the value non-regular.
    """
    if map_id not in _SQUARE_MAPS:
        known = ", ".join(sorted(_SQUARE_MAPS))
        raise DomainError(f"unknown map id {map_id!r}; known ids: {known}")
    x, y = _as_point(value)
    if not (0 < x < 1 and 0 < y < 1):
        raise NotRegularValue("value must be interior to the square")
    found = []
    for t_lo, t_hi, solve, jacobian in _SQUARE_MAPS[map_id]:
        u, t = solve(x, y)
        if not (0 < u < 1 and 0 < t < 1):
            continue  # basepoint-identified under the edge collapse
        if t == t_lo or t == t_hi:
            raise NotRegularValue("a preimage lies on a piece boundary")
        if not t_lo < t < t_hi:
            continue  # governed by the other piece
        jac = jacobian(u, t)
        if jac == 0:
            raise NotRegularValue("zero Jacobian at a preimage")
        found.append(((u, t), 1 if jac > 0 else -1))
    return sorted(found)


def _signed_fiber(map_id, value) -> list:
    """(point, sign) for each exact preimage of value under the composite
    map_id, the sign the product of the Jacobian signs along the way."""
    ids = [map_id] if isinstance(map_id, str) else list(map_id)
    if not ids:
        raise DomainError("need at least one map id")
    if len(ids) > DEGREE_MAPS_CAP:
        raise CapExceeded(f"degree: {len(ids)} maps exceed the cap of {DEGREE_MAPS_CAP}")
    fibers = [(_as_point(value), 1)]
    for mid in ids:
        fibers = [
            (point, sign * s)
            for target, sign in fibers
            for point, s in signed_preimages(mid, target)
        ]
    return fibers


def degree_by_signed_preimages(map_id, value) -> int:
    """Degree as the signed count of exact rational preimages.

    map_id is a single id or a sequence of ids denoting a composite,
    outermost first.
    """
    return sum(sign for _point, sign in _signed_fiber(map_id, value))


_RECORDED_HYPOTHESES = "characteristic 0, containing a quadratically closed subfield"
_RECORDED_VALUES = (("pi_{4+5a}(S^{3+3a})", "Z/24"), ("pi_{4+6a}(S^{3+3a})", "0"))


def known_results_table() -> list:
    """Recorded homotopy sheaf values; entries are data, never computed."""
    return [{"key": key, "value": value, "status": "recorded fact", "hypotheses": _RECORDED_HYPOTHESES}
            for key, value in _RECORDED_VALUES]


def known_results_lookup(key: str):
    """The table entry for a key, or None."""
    for entry in known_results_table():
        if entry["key"] == key:
            return entry
    return None
