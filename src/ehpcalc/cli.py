"""Command-line front end over the library modules.

Each subcommand validates its arguments, dispatches to one library
operation, and prints text or JSON (--format). Identical invocations
produce byte-identical output. Exit codes: 0 success, 1 domain error,
2 parse error.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from .ehp import (
    SphereBidegree,
    classical_hp_degree,
    degree_by_signed_preimages,
    ehp_sequence_report,
    exchange_degree,
    hp_differential,
    hp_invariant_report,
    known_results_lookup,
    known_results_table,
    signed_preimages,
)
from .errors import DomainError, ExprParseError, NormalFormUnavailable
from .gw import (
    finite_odd,
    gw_add,
    gw_invariants,
    gw_make,
    gw_zero,
    quadratically_closed,
    rationals,
    real_closed,
)
from .homology import homology_to_doc, reduced_homology
from .james import JamesWord, james_hopf_word, james_quotient, james_truncation
from .kmw import (
    SheafExpr,
    aone_tensor,
    contraction,
    kmw_add,
    kmw_bracket,
    kmw_eta,
    kmw_form,
    kmw_mul,
    kmw_neg,
    kmw_normal_form,
    kmw_scalar,
    sheaf_token,
)
from .simplicial import (
    Simplex,
    SSet,
    build_sphere,
    degenerate,
    point,
    product,
    simplex_token,
    smash,
    wedge,
)


def parse_field(text: str):
    t = text.strip().lower()
    if t in ("real-closed", "r"):
        return real_closed()
    if t in ("quadratically-closed", "qbar"):
        return quadratically_closed()
    if t in ("rationals", "q"):
        return rationals()
    if re.fullmatch(r"f\d+", t):
        return finite_odd(int(t[1:]))
    raise ExprParseError(f"unknown field {text!r}")


def _scan(text: str, token_re: re.Pattern, what: str) -> list:
    flat = "".join(text.split())
    out, pos = [], 0
    while pos < len(flat):
        m = token_re.match(flat, pos)
        if not m:
            raise ExprParseError(f"bad {what} expression near {flat[pos:]!r}")
        out.append(m.group(0))
        pos = m.end()
    if not out:
        raise ExprParseError(f"empty {what} expression")
    return out


# Deepest parenthesis nesting the recursive parsers accept: deeper input
# is a parse error, well inside the interpreter's recursion limit.
MAX_NESTING = 100


class _Cursor:
    def __init__(self, tokens, what):
        self.tokens = tokens
        self.what = what
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExprParseError(f"{self.what} expression ends early")
        if expected is not None and tok != expected:
            raise ExprParseError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def done(self):
        if self.peek() is not None:
            raise ExprParseError(f"unexpected trailing token {self.peek()!r}")

    def nested(self, parse):
        """parse(self) one nesting level deeper, refused past MAX_NESTING levels."""
        if self.depth >= MAX_NESTING:
            raise ExprParseError(f"{self.what} expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse(self)
        finally:
            self.depth -= 1


# -- space expressions: S{n}, pt, wedge +, product x, smash ^, J(K,n), Q(K,n)


_SPACE_RE = re.compile(r"S\d+|pt|J|Q|\d+|[+^x(),]")


def parse_space(text: str) -> SSet:
    cur = _Cursor(_scan(text, _SPACE_RE, "space"), "space")
    K = _space_sum(cur)
    cur.done()
    return K


def _space_sum(cur) -> SSet:
    K = _space_product(cur)
    while cur.peek() == "+":
        cur.take()
        K = wedge(K, _space_product(cur))
    return K


def _space_product(cur) -> SSet:
    K = _space_smash(cur)
    while cur.peek() == "x":
        cur.take()
        K = product(K, _space_smash(cur))
    return K


def _space_smash(cur) -> SSet:
    K = _space_atom(cur)
    while cur.peek() == "^":
        cur.take()
        K = smash(K, _space_atom(cur))
    return K


def _space_level(cur) -> int:
    tok = cur.take()
    if not tok.isdigit():
        raise ExprParseError(f"expected a level, found {tok!r}")
    return int(tok)


def _space_atom(cur) -> SSet:
    tok = cur.take()
    if tok == "(":
        K = cur.nested(_space_sum)
        cur.take(")")
        return K
    if tok == "pt":
        return point()
    if tok[0] == "S" and tok[1:].isdigit():
        return build_sphere(int(tok[1:]))
    if tok in ("J", "Q"):
        cur.take("(")
        K = cur.nested(_space_sum)
        cur.take(",")
        n = _space_level(cur)
        cur.take(")")
        return james_truncation(K, n) if tok == "J" else james_quotient(K, n)[0]
    raise ExprParseError(f"unexpected token {tok!r}")


# -- james words: letters split on |, each "s1 s0 name" with ops outermost first


def _free_letters_complex(base_dims: dict) -> SSet:
    dims = {"*": 0}
    faces = {}
    for name, d in sorted(base_dims.items()):
        dims[name] = d
        if d > 0:
            bp = Simplex("*", tuple(range(d - 2, -1, -1)), d - 1)
            faces[name] = tuple(bp for _ in range(d + 1))
    return SSet.build("*", dims, faces)


def parse_word(text: str, dim=None) -> JamesWord:
    raw = [part.strip() for part in text.split("|")]
    letters = []
    for part in raw:
        toks = part.split()
        if not toks:
            raise ExprParseError("empty letter in word")
        *ops, name = toks
        for op in ops:
            if not re.fullmatch(r"s\d+", op):
                raise ExprParseError(f"bad degeneracy operator {op!r}")
        letters.append((tuple(int(op[1:]) for op in ops), name))
    word_dim = dim if dim is not None else 1 + max(len(ops) for ops, _ in letters)
    base_dims: dict = {}
    for ops, name in letters:
        d = word_dim - len(ops)
        if d < 0:
            raise DomainError(f"letter {name!r} has too many degeneracies for dimension {word_dim}")
        if base_dims.setdefault(name, d) != d:
            raise DomainError(f"letter {name!r} is used at inconsistent dimensions")
    K = _free_letters_complex(base_dims)
    simplices = []
    for ops, name in letters:
        x = K.simplex(name)
        for i in reversed(ops):
            x = degenerate(x, i)
        simplices.append(x)
    return JamesWord(K, word_dim, tuple(simplices))


# -- diagonal forms: "<1> + <-1> - 2<g>"


_GW_RE = re.compile(r"<[^<>]+>|\d+|[+\-*]")


def _parse_unit(body: str):
    if body == "g":
        return "g"
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprParseError(f"bad unit {body!r}") from exc


def parse_gw_expr(text: str, field):
    toks = _scan(text, _GW_RE, "form")
    i, n = 0, len(toks)
    total = gw_zero(field)
    first = True
    while i < n:
        sign = 1
        if toks[i] in "+-":
            sign = -1 if toks[i] == "-" else 1
            i += 1
        elif not first:
            raise ExprParseError("form terms must be joined by + or -")
        first = False
        coeff, has_coeff = 1, False
        if i < n and toks[i].isdigit():
            coeff, has_coeff = int(toks[i]), True
            i += 1
            if i < n and toks[i] == "*":
                i += 1
        if i < n and toks[i].startswith("<"):
            unit = _parse_unit(toks[i][1:-1])
            i += 1
        elif has_coeff:
            unit = 1
        else:
            raise ExprParseError("expected <unit>")
        total = gw_add(total, gw_make(field, [(sign * coeff, unit)]))
    if first:
        raise ExprParseError("empty form expression")
    return total


# -- symbols: "[a]", "eta", "<a>", integer scalars, joined by + - *


_KMW_RE = re.compile(r"\[[^][]+\]|<[^<>]+>|eta|\d+|[+\-*]")


def _rational(body: str) -> Fraction:
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprParseError(f"bad entry {body!r}") from exc


def parse_kmw_expr(text: str, field):
    cur = _Cursor(_scan(text, _KMW_RE, "symbol"), "symbol")

    def unit():
        tok = cur.take()
        if tok == "eta":
            return kmw_eta(field)
        if tok.startswith("["):
            return kmw_bracket(field, _rational(tok[1:-1]))
        if tok.startswith("<"):
            return kmw_form(field, _rational(tok[1:-1]))
        if tok.isdigit():
            return kmw_scalar(field, int(tok))
        raise ExprParseError(f"unexpected token {tok!r}")

    def product_term():
        sym = unit()
        while cur.peek() == "*":
            cur.take()
            sym = kmw_mul(sym, unit())
        return sym

    sign = 1
    if cur.peek() in ("+", "-"):
        sign = -1 if cur.take() == "-" else 1
    total = product_term() if sign > 0 else kmw_neg(product_term())
    while cur.peek() is not None:
        joiner = cur.take()
        if joiner not in ("+", "-"):
            raise ExprParseError("symbol terms must be joined by + or -")
        term = product_term()
        total = kmw_add(total, kmw_neg(term) if joiner == "-" else term)
    return total


# -- sheaf names: KMW(n), KM(n)[/r], I(n), W, Z[/r], 0, (x), _{-j}


_SHEAF_RE = re.compile(r"\(x\)|KMW|KM|I|W|Z|_\{-?\d+\}|-?\d+|[()/]")


def parse_sheaf_expr(text: str) -> SheafExpr:
    cur = _Cursor(_scan(text, _SHEAF_RE, "sheaf"), "sheaf")
    e = _sheaf_tensor(cur)
    cur.done()
    return e


def _sheaf_int(cur) -> int:
    tok = cur.take()
    if not re.fullmatch(r"-?\d+", tok):
        raise ExprParseError(f"expected an integer, found {tok!r}")
    return int(tok)


def _sheaf_tensor(cur) -> SheafExpr:
    e = _sheaf_atom(cur)
    while cur.peek() == "(x)":
        cur.take()
        e = aone_tensor(e, _sheaf_atom(cur))
    return e


def _sheaf_atom(cur) -> SheafExpr:
    tok = cur.take()
    if tok == "(":
        e = cur.nested(_sheaf_tensor)
        cur.take(")")
    elif tok == "KMW":
        cur.take("(")
        e = SheafExpr("KMW", (_sheaf_int(cur),))
        cur.take(")")
    elif tok in ("KM", "I"):
        cur.take("(")
        n = _sheaf_int(cur)
        cur.take(")")
        if tok == "KM" and cur.peek() == "/":
            cur.take()
            e = SheafExpr("KM_mod", (n, _sheaf_int(cur)))
        else:
            e = SheafExpr(tok, (n,))
    elif tok == "W":
        e = SheafExpr("W", ())
    elif tok == "Z":
        if cur.peek() == "/":
            cur.take()
            e = SheafExpr("Z_mod", (_sheaf_int(cur),))
        else:
            e = SheafExpr("Z", ())
    elif tok == "0":
        e = SheafExpr("Zero", ())
    else:
        raise ExprParseError(f"unexpected token {tok!r}")
    while cur.peek() is not None and cur.peek().startswith("_{"):
        v = int(cur.take()[2:-1])
        if v > 0:
            raise ExprParseError("subscripts denote contraction; write _{-j}")
        e = contraction(e, -v)
    return e


def parse_sphere(text: str) -> SphereBidegree:
    m = re.fullmatch(r"S\[(\d+)(?:\+(\d+)a)?\]", "".join(text.split()))
    if not m:
        raise ExprParseError(f"bad sphere {text!r}; write S[n] or S[n+qa]")
    return SphereBidegree(int(m.group(1)), int(m.group(2) or 0))


# -- subcommands


def _render(args, text: str, doc: dict) -> str:
    if args.format == "json":
        return json.dumps(doc, sort_keys=True)
    return text


def cmd_homology(args) -> str:
    K = parse_space(args.space)
    groups = reduced_homology(K)
    text = "{" + ", ".join(f"{n}: {g}" for n, g in sorted(groups.items())) + "}"
    doc = {"space": args.space, "groups": homology_to_doc(groups)}
    return _render(args, text, doc)


def cmd_james(args) -> str:
    K = parse_space(args.space)
    J = james_truncation(K, args.level)
    counts = {}
    for _name, d in J.gens:
        counts[d] = counts.get(d, 0) + 1
    text = "{" + ", ".join(f"{d}: {c}" for d, c in sorted(counts.items())) + "}"
    doc = {
        "space": args.space,
        "level": args.level,
        "cells": {str(d): c for d, c in sorted(counts.items())},
        "generators": J.n_generators,
    }
    return _render(args, text, doc)


def cmd_hopf(args) -> str:
    w = parse_word(args.word, args.dim)
    hw = james_hopf_word(w, args.r)
    letters = [simplex_token(x) for x in hw.letters]
    text = "".join(letters) if letters else "*"
    doc = {"word": args.word, "r": args.r, "letters": letters}
    return _render(args, text, doc)


def cmd_gw(args) -> str:
    field = parse_field(args.field)
    x = parse_gw_expr(args.expr, field)
    inv = gw_invariants(x)
    bits = [f"rank {inv['rank']}", f"disc {inv['disc']}"]
    if inv["signature"] != "undefined":
        bits.append(f"signature {inv['signature']}")
    text = f"{x} ({', '.join(bits)})"
    doc = {
        "field": str(field),
        "element": str(x),
        "rank": inv["rank"],
        "disc": str(inv["disc"]),
        "signature": None if inv["signature"] == "undefined" else inv["signature"],
    }
    return _render(args, text, doc)


def cmd_kmw(args) -> str:
    field = parse_field(args.field)
    x = parse_kmw_expr(args.expr, field)
    try:
        nf_text = str(kmw_normal_form(x))
    except NormalFormUnavailable:
        nf_text = None
    if x.degree is None:
        text = "0 (zero)"
    else:
        tail = f"normal form {nf_text}" if nf_text is not None else "normal form unavailable"
        text = f"{x} (degree {x.degree}; {tail})"
    doc = {
        "field": str(field),
        "symbol": str(x),
        "degree": x.degree,
        "normal_form": nf_text,
    }
    return _render(args, text, doc)


def cmd_tensor(args) -> str:
    e = parse_sheaf_expr(args.expr)
    token = sheaf_token(e)
    return _render(args, token, {"expr": args.expr, "result": token})


def cmd_ehp_hp(args) -> str:
    field = parse_field(args.field)
    value, label = hp_differential(args.p, args.q, field)
    report = hp_invariant_report(args.p, args.q)
    text = f"{label} (rank {report['rank']}, signature {report['signature']})"
    doc = {
        "p": args.p,
        "q": args.q,
        "field": str(field),
        "case": label,
        "element": str(value),
        "rank": report["rank"],
        "signature": report["signature"],
    }
    return _render(args, text, doc)


def cmd_ehp_exchange(args) -> str:
    field = parse_field(args.field)
    value = exchange_degree(args.p, args.q, field)
    doc = {"p": args.p, "q": args.q, "field": str(field), "element": str(value)}
    return _render(args, str(value), doc)


def cmd_ehp_sequence(args) -> str:
    sphere = parse_sphere(args.sphere)
    report = ehp_sequence_report(sphere, args.mode)
    text = " ".join(report.tokens())
    if report.annotation:
        text += "\n" + report.annotation
    return _render(args, text, report.to_doc())


def cmd_ehp_classical(args) -> str:
    value = classical_hp_degree(args.p)
    return _render(args, str(value), {"p": args.p, "degree": value})


def cmd_degree(args) -> str:
    parts = [part.strip() for part in args.at.split(",")]
    if len(parts) != 2:
        raise ExprParseError("the value is two comma-separated rationals")
    for part in parts:
        try:
            Fraction(part)
        except (ValueError, ZeroDivisionError) as exc:
            raise ExprParseError(f"bad coordinate {part!r}") from exc
    value = tuple(parts)
    ids = args.map
    deg = degree_by_signed_preimages(ids[0] if len(ids) == 1 else ids, value)
    doc = {"maps": ids, "value": parts, "degree": deg}
    if len(ids) == 1:
        doc["preimages"] = [
            {"point": [str(u), str(t)], "sign": s}
            for (u, t), s in signed_preimages(ids[0], value)
        ]
    return _render(args, str(deg), doc)


def cmd_facts(args) -> str:
    def line(entry):
        return f"{entry['key']} = {entry['value']}  [{entry['status']}; {entry['hypotheses']}]"

    if args.key is None:
        table = known_results_table()
        return _render(args, "\n".join(line(e) for e in table), {"facts": table})
    entry = known_results_lookup(args.key)
    if entry is None:
        raise DomainError(f"no recorded fact for key {args.key!r}")
    return _render(args, line(entry), entry)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehpcalc",
        description="Exact calculators: homology, James words, symbols, sequence reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(owner, name, run, **kwargs):
        p = owner.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(run=run)
        return p

    p = add(sub, "homology", cmd_homology, help="reduced integral homology of a space expression")
    p.add_argument("--space", required=True)

    p = add(sub, "james", cmd_james, help="cell census of a truncation level")
    p.add_argument("--space", required=True)
    p.add_argument("-n", "--level", type=int, required=True)

    p = add(sub, "hopf", cmd_hopf, help="subsequence word of a james word")
    p.add_argument("--word", required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--dim", type=int, default=None)

    p = add(sub, "gw", cmd_gw, help="normalize a diagonal form and report invariants")
    p.add_argument("--expr", required=True)
    p.add_argument("--field", required=True)

    p = add(sub, "kmw", cmd_kmw, help="normalize a symbol expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--field", required=True)

    p = add(sub, "tensor", cmd_tensor, help="resolve a sheaf expression")
    p.add_argument("--expr", required=True)

    ehp = sub.add_parser("ehp", help="sphere bookkeeping")
    ehp_sub = ehp.add_subparsers(dest="ehp_command", required=True)

    p = add(ehp_sub, "hp", cmd_ehp_hp, help="boundary element case and invariants")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--field", required=True)

    p = add(ehp_sub, "exchange", cmd_ehp_exchange, help="factor-swap degree")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--field", required=True)

    p = add(ehp_sub, "sequence", cmd_ehp_sequence, help="exact-sequence window report")
    p.add_argument("--sphere", required=True)
    p.add_argument("--mode", choices=("low_degree", "full_range"), default="low_degree")

    p = add(ehp_sub, "classical", cmd_ehp_classical, help="integer boundary degree at q = 0")
    p.add_argument("-p", type=int, required=True)

    p = add(sub, "degree", cmd_degree, help="signed-preimage degree of a built-in square map")
    p.add_argument("--map", nargs="+", required=True)
    p.add_argument("--at", required=True)

    p = add(sub, "facts", cmd_facts, help="recorded values table")
    p.add_argument("--key", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.run(args)
    except ExprParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
