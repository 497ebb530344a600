"""Command-line front end over the library modules.

Each subcommand validates its arguments, dispatches to one library
operation, and prints text or JSON (--format). Identical invocations
produce byte-identical output. Exit codes: 0 success, 1 domain error,
2 parse error.

_COMMANDS holds each subcommand and its options once. build_parser makes
the argparse parser of it at import, and _read_args reads from it an argv
made of a path and then each option at most once, as "flag value", "flag
v1 v2 ..." or "--flag=value", when int() reads each value, it is a choice
or it is a separate token not starting with "-". Every other argv, and all
help, usage and error text, is left to argparse. The expression grammars
share their front end: _scan splits a string into tokens, _Cursor walks
them, _fold reads a chain of one left-associative operator, _signed_sum
reads terms joined by + and -, and _int and _fraction are the one readers
of integers and rational numbers. Space expressions fold into an _Algebra:
built complexes for parse_space, reduced chains for homology and censuses
{dim: generators} for james, so neither homology nor james builds a
complex, not even Sn or pt.
"""

import argparse
import json
import re
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial, reduce

from .ehp import (
    SphereBidegree,
    _signed_fiber,
    classical_hp_degree,
    ehp_sequence_report,
    exchange_degree,
    hp_differential,
    hp_invariant_report,
    known_results_lookup,
    known_results_table,
)
from .errors import CapExceeded, DomainError, ExprParseError, NormalFormUnavailable
from .gw import (
    DIGITS_CAP,
    finite_odd,
    gw_add,
    gw_invariants,
    gw_make,
    gw_neg,
    quadratically_closed,
    rationals,
    real_closed,
)
from .homology import chain_homology, direct_sum, homology_to_doc, james_chains, reduced_product, tensor
from .james import JamesWord, james_hopf_letters, james_quotient, james_truncation, truncation_census
from .kmw import (
    _SHEAF_TAGS,
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
from .simplicial import (SPHERE_DIM_CAP, SSet, _wedge_of_spheres, build_sphere, check_sphere_dim, degenerate, point,
                         product, product_census, simplex_token, smash, smash_census, wedge)


def parse_field(text: str):
    t = text.strip().lower()
    if t in ("real-closed", "r"):
        return real_closed()
    if t in ("quadratically-closed", "qbar"):
        return quadratically_closed()
    if t in ("rationals", "q"):
        return rationals()
    if re.fullmatch(r"f\d+", t):
        return finite_odd(_int(t[1:], "field size"))
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
        """The next token, or "" past the end."""
        return self.tokens[self.i] if self.i < len(self.tokens) else ""

    def take(self, expected=None):
        tok = self.peek()
        if not tok:
            raise ExprParseError(f"{self.what} expression ends early")
        if expected is not None and tok != expected:
            raise ExprParseError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def done(self):
        if self.peek():
            raise ExprParseError(f"unexpected trailing token {self.peek()!r}")

    def nested(self, parse, *args):
        """parse(self, *args) one nesting level deeper, refused past MAX_NESTING levels."""
        if self.depth >= MAX_NESTING:
            raise ExprParseError(f"{self.what} expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        try:
            return parse(self, *args)
        finally:
            self.depth -= 1


def _fold(cur, op, operand, combine, *args):
    """operand (op operand)*, combined from the left; operand(cur, *args)
    reads each operand."""
    x = operand(cur, *args)
    while cur.peek() == op:
        cur.take()
        x = combine(x, operand(cur, *args))
    return x


def _signed_sum(cur, term, add, neg):
    """[+|-] term ((+|-) term)*, each term evaluated as soon as it is read."""
    def signed(sign):
        x = term(cur)
        return neg(x) if sign == "-" else x

    total = signed(cur.take() if cur.peek() in ("+", "-") else "+")
    while cur.peek():
        sign = cur.take()
        if sign not in ("+", "-"):
            raise ExprParseError(f"{cur.what} terms must be joined by + or -")
        total = add(total, signed(sign))
    return total


def _int(digits: str, what: str) -> int:
    """An integer token, refused past DIGITS_CAP digits."""
    if len(digits.lstrip("+-")) > DIGITS_CAP:
        raise CapExceeded(f"{what}: {len(digits.lstrip('+-'))} digits exceed the cap of {DIGITS_CAP}")
    return int(digits)


def _fraction(body: str, what: str) -> Fraction:
    # a decimal exponent may not carry the value past DIGITS_CAP digits,
    # which Fraction would expand before any other bound is reached
    decimal = re.fullmatch(r"\s*([-+]?[\d_.]*)[eE]([-+]?\d+(?:_\d+)*)\s*", body)
    if decimal and len(decimal[1]) + abs(_int(decimal[2], f"{what} exponent")) >= DIGITS_CAP:
        raise CapExceeded(f"{what}: the decimal exponent gives more than {DIGITS_CAP} digits")
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprParseError(f"bad {what} {body!r}") from exc


# -- space expressions: S{n}, pt, wedge +, product x, smash ^, J(K,n), Q(K,n)


_SPACE_RE = re.compile(r"S\d+|pt|J|Q|\d+|[+^x(),]")


# What a space expression folds into: sphere(n) and point() for Sn and pt,
# wedge of all the parts of a + chain, the combines of x and ^, and james
# and quotient for J(K,n) and Q(K,n).
_Algebra = namedtuple("_Algebra", "sphere point wedge product smash james quotient")
# built complexes, for parse_space; the James builders are looked up at each
# call, so that a profiler's wrapper on this module sees them
_BUILD = _Algebra(build_sphere, point, wedge, product, smash, lambda K, n: james_truncation(K, n),
                  lambda K, n: james_quotient(K, n)[0])
# reduced chains (Eilenberg-Zilber and the James splitting), for homology:
# Sn has one cell, in degree n, with zero boundary, and pt has none
_CHAINS = _Algebra(lambda n: [[] for _ in range(n)] + [[{}]], lambda: [[]], lambda *cs: reduce(direct_sum, cs),
                   reduced_product, tensor, james_chains, partial(james_chains, quotient=True))
# censuses with the basepoint, for james: a wedge shares one basepoint
_CENSUS = _Algebra(lambda n: Counter([0, n]), lambda: Counter([0]),
                   lambda *parts: reduce(lambda a, b: a + b - Counter([0]), parts),
                   product_census, smash_census, truncation_census, partial(truncation_census, quotient=True))


def parse_space(text: str) -> SSet:
    return _eval_space(text, _BUILD)


def _eval_space(text: str, alg: _Algebra):
    cur = _Cursor(_scan(text, _SPACE_RE, "space"), "space")
    x = _space_sum(cur, alg)
    cur.done()
    return x


def _space_level(cur) -> int:
    tok = cur.take()
    if not tok.isdigit():
        raise ExprParseError(f"expected a level, found {tok!r}")
    return _int(tok, "level")


def _space_atom(cur, alg: _Algebra):
    tok = cur.take()
    if tok == "(":
        x = cur.nested(_space_sum, alg)
        cur.take(")")
        return x
    if tok == "pt":
        return alg.point()
    if tok[0] == "S" and tok[1:].isdigit():
        n = _int(tok[1:], "sphere dimension")
        check_sphere_dim(n)
        return alg.sphere(n)
    if tok in ("J", "Q"):
        cur.take("(")
        K = cur.nested(_space_sum, alg)
        cur.take(",")
        n = _space_level(cur)
        cur.take(")")
        return (alg.james if tok == "J" else alg.quotient)(K, n)
    raise ExprParseError(f"unexpected token {tok!r}")


# smash binds tightest, then product, then wedge
def _space_smash(cur, alg: _Algebra):
    return _fold(cur, "^", _space_atom, alg.smash, alg)


def _space_product(cur, alg: _Algebra):
    return _fold(cur, "x", _space_smash, alg.product, alg)


def _space_sum(cur, alg: _Algebra):
    # the parts of a + chain, all read before one wedge (which refuses nothing)
    return alg.wedge(*_fold(cur, "+", lambda *read: [_space_product(*read)], list.__add__, alg))


# -- james words: letters split on |, each "s1 s0 name" with ops outermost first


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
        letters.append((tuple(_int(op[1:], "degeneracy") for op in ops), name))
    word_dim = dim if dim is not None else 1 + max(len(ops) for ops, _ in letters)
    base_dims: dict = {}
    for ops, name in letters:
        d = word_dim - len(ops)
        if d < 0:
            raise DomainError(f"letter {name!r} has too many degeneracies for dimension {word_dim}")
        if d > SPHERE_DIM_CAP:  # validating a letter costs about d^3
            raise CapExceeded(f"word: letter dimension {d} exceeds the cap of {SPHERE_DIM_CAP}")
        if base_dims.setdefault(name, d) != d:
            raise DomainError(f"letter {name!r} is used at inconsistent dimensions")
    K = _wedge_of_spheres(base_dims)
    simplices = []
    for ops, name in letters:
        x = K.simplex(name)
        for i in reversed(ops):
            x = degenerate(x, i)
        simplices.append(x)
    return JamesWord(K, word_dim, tuple(simplices))


# -- diagonal forms: "<1> + <-1> - 2<g>"


_GW_RE = re.compile(r"<[^<>]+>|\d+|[+\-*]")


def parse_gw_expr(text: str, field):
    def term(cur):
        # [n[*]]<unit>, or a bare n standing for n<1>
        coeff = cur.take() if cur.peek().isdigit() else ""
        if coeff and cur.peek() == "*":
            cur.take()
        if cur.peek().startswith("<"):
            body = cur.take()[1:-1]
            unit = "g" if body == "g" else _fraction(body, "unit")
        elif coeff:
            unit = 1
        else:
            raise ExprParseError("expected <unit>")
        return gw_make(field, [(_int(coeff, "coefficient") if coeff else 1, unit)])

    return _signed_sum(_Cursor(_scan(text, _GW_RE, "form"), "form"), term, gw_add, gw_neg)


# -- symbols: "[a]", "eta", "<a>", integer scalars, joined by + - *


_KMW_RE = re.compile(r"\[[^][]+\]|<[^<>]+>|eta|\d+|[+\-*]")


def parse_kmw_expr(text: str, field):
    def unit(cur):
        tok = cur.take()
        if tok == "eta":
            return kmw_eta(field)
        if tok.startswith("["):
            return kmw_bracket(field, _fraction(tok[1:-1], "entry"))
        if tok.startswith("<"):
            return kmw_form(field, _fraction(tok[1:-1], "entry"))
        if tok.isdigit():
            return kmw_scalar(field, _int(tok, "scalar"))
        raise ExprParseError(f"unexpected token {tok!r}")

    product_term = partial(_fold, op="*", operand=unit, combine=kmw_mul)
    return _signed_sum(_Cursor(_scan(text, _KMW_RE, "symbol"), "symbol"), product_term, kmw_add, kmw_neg)


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
    return _int(tok, "integer")


def _sheaf_atom(cur) -> SheafExpr:
    tok = cur.take()
    tag = "Zero" if tok == "0" else tok  # no token spells Tensor, Contraction or a _mod tag
    if tok == "(":
        e = cur.nested(_sheaf_tensor)
        cur.take(")")
    elif tag in _SHEAF_TAGS:
        args = ()
        if _SHEAF_TAGS[tag][0]:  # a graded name takes its degree, (n)
            cur.take("(")
            args = (_sheaf_int(cur),)
            cur.take(")")
        if cur.peek() == "/" and f"{tag}_mod" in _SHEAF_TAGS:
            cur.take()
            tag, args = f"{tag}_mod", (*args, _sheaf_int(cur))
        e = SheafExpr(tag, args)
    else:
        raise ExprParseError(f"unexpected token {tok!r}")
    while cur.peek().startswith("_{"):
        v = _int(cur.take()[2:-1], "subscript")
        if v > 0:
            raise ExprParseError("subscripts denote contraction; write _{-j}")
        e = contraction(e, -v)
    return e


_sheaf_tensor = partial(_fold, op="(x)", operand=_sheaf_atom, combine=aone_tensor)


def parse_sphere(text: str) -> SphereBidegree:
    m = re.fullmatch(r"S\[(\d+)(?:\+(\d+)a)?\]", "".join(text.split()))
    if not m:
        raise ExprParseError(f"bad sphere {text!r}; write S[n] or S[n+qa]")
    return SphereBidegree(_int(m.group(1), "sphere degree"), _int(m.group(2) or "0", "sphere weight"))


# -- subcommands


def _render(args, text: str, doc: dict) -> str:
    if args.format == "json":
        return json.dumps(doc, sort_keys=True)
    return text


def cmd_homology(args) -> str:
    groups = chain_homology(_eval_space(args.space, _CHAINS))
    text = "{" + ", ".join(f"{n}: {g}" for n, g in sorted(groups.items())) + "}"
    doc = {"space": args.space, "groups": homology_to_doc(groups)}
    return _render(args, text, doc)


def cmd_james(args) -> str:
    counts = truncation_census(_eval_space(args.space, _CENSUS), args.level)
    text = "{" + ", ".join(f"{d}: {c}" for d, c in sorted(counts.items())) + "}"
    doc = {
        "space": args.space,
        "level": args.level,
        "cells": {str(d): c for d, c in sorted(counts.items())},
        "generators": sum(counts.values()),
    }
    return _render(args, text, doc)


def cmd_hopf(args) -> str:
    letters = [simplex_token(x) for x in james_hopf_letters(parse_word(args.word, args.dim), args.r)]
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
    token = sheaf_token(parse_sheaf_expr(args.expr))
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
    value = tuple(_fraction(part, "coordinate") for part in parts)
    fiber = _signed_fiber(args.map, value)
    deg = sum(sign for _point, sign in fiber)
    doc = {"maps": args.map, "value": parts, "degree": deg}
    if len(args.map) == 1:
        doc["preimages"] = [
            {"point": [str(u), str(t)], "sign": s}
            for (u, t), s in fiber
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


# One row per subcommand, in help order: path, runner, summary and options
# after --format, each (flags, kind[, default]) with kind str, int, list (one
# or more values) or a tuple of choices; an option with no default is required.
_FORMAT = ("--format", ("text", "json"), "text")
_KINDS = {str: {}, int: {"type": int}, list: {"nargs": "+"}}  # add_argument's keywords
_REQUIRED = object()  # the value of a required option until it is read
_COMMANDS = (
    ("homology", cmd_homology, "reduced integral homology of a space expression", [("--space", str)]),
    ("james", cmd_james, "cell census of a truncation level", [("--space", str), ("-n --level", int)]),
    ("hopf", cmd_hopf, "subsequence word of a james word", [("--word", str), ("-r", int), ("--dim", int, None)]),
    ("gw", cmd_gw, "normalize a diagonal form and report invariants", [("--expr", str), ("--field", str)]),
    ("kmw", cmd_kmw, "normalize a symbol expression", [("--expr", str), ("--field", str)]),
    ("tensor", cmd_tensor, "resolve a sheaf expression", [("--expr", str)]),
    ("ehp", None, "sphere bookkeeping", []),  # a group of the rows below it
    ("ehp hp", cmd_ehp_hp, "boundary element case and invariants", [("-p", int), ("-q", int), ("--field", str)]),
    ("ehp exchange", cmd_ehp_exchange, "factor-swap degree", [("-p", int), ("-q", int), ("--field", str)]),
    ("ehp sequence", cmd_ehp_sequence, "exact-sequence window report",
     [("--sphere", str), ("--mode", ("low_degree", "full_range"), "low_degree")]),
    ("ehp classical", cmd_ehp_classical, "integer boundary degree at q = 0", [("-p", int)]),
    ("degree", cmd_degree, "signed-preimage degree of a built-in square map", [("--map", list), ("--at", str)]),
    ("facts", cmd_facts, "recorded values table", [("--key", str, None)]),
)


def _reader(path, run, options):
    """A row's {flag: (dest, read, many)}, and its namespace before any option is read."""
    *groups, name = words = path.split()
    flags, args = {}, {"command": words[0], "run": run, **{f"{group}_command": name for group in groups}}
    for spec, kind, *default in (_FORMAT, *options):
        dest = spec.split()[-1].lstrip("-")  # the long flag, written last
        read = {int: int, str: str, list: str}.get(kind) or dict(zip(kind, kind)).__getitem__
        flags |= dict.fromkeys(spec.split(), (dest, read, kind is list))
        args[dest] = default[0] if default else _REQUIRED
    return flags, args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ehpcalc", description=(
        "Exact calculators: homology, James words, symbols, sequence reports."))
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, run, summary, options in _COMMANDS:
        group, _, name = path.rpartition(" ")
        p = groups[group].add_parser(name, help=summary)
        if run is None:
            groups[path] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        for flags, kind, *default in (_FORMAT, *options):
            p.add_argument(*flags.split(), **_KINDS.get(kind, {"choices": kind}),
                           **({"default": default[0]} if default else {"required": True}))
        p.set_defaults(run=run)
    return parser


_PARSER = build_parser()
_READERS = {tuple(path.split()): _reader(path, run, options) for path, run, _, options in _COMMANDS if run}


def _read_args(argv: list):
    """_PARSER's namespace for an argv list of the form the module docstring gives, else None."""
    if not isinstance(argv, list) or not all(isinstance(token, str) for token in argv):
        return None
    args, i = {}, 1 if tuple(argv[:1]) in _READERS else 2
    try:
        flags, defaults = _READERS[tuple(argv[:i])]
        while i < len(argv):
            flag, eq, value = argv[i].partition("=")
            dest, read, many = flags[flag if eq and flag.startswith("--") else argv[i]]
            end = next((j for j in range(i + 1, len(argv)) if argv[j].startswith("-")), len(argv))
            values, i = ([value] if eq else []) + argv[i + 1:end], end
            if dest in args or value == "--" or not values or len(values) > 1 and (eq or not many):
                return None  # a repeat, --flag=-- (which argparse reads as no value), or a wrong count
            args[dest] = [read(v) for v in values] if many else read(values[0])
    except (KeyError, ValueError):  # an unknown path or flag, or a value int() or the choices refuse
        return None
    return None if _REQUIRED in (args := defaults | args).values() else argparse.Namespace(**args)


def main(argv=None) -> int:
    args = _read_args(argv) or _PARSER.parse_args(argv)
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
