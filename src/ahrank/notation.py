"""Parser and printer for reductive Lie algebra expressions.

The input language of the command line (case-insensitive)::

    expression := atom ( ("x" | "*") atom )*
    atom       := sl "(" arg "," field ")"            field in {R, C, H}
                | su  "(" arg [ "," arg ] ")"
                | su* "(" arg ")"   |   so* "(" arg ")"
                | so  "(" arg [ "," (arg | C) ] ")"   Spin(...) = so(...)
                | sp  "(" arg [ "," (arg | R | C) ] ")"
                | u   "(" arg [ "," arg ] ")"
                | S   "(" u-atom ( sep u-atom )* ")"
                | e6 | e7 | e8 | f4 | g2 [ "(" form ")" ]
                | T "^" arg   |   R "^" arg
    arg        := ["-"] term ( ("+" | "-") term )*
    term       := INT [ NAME ] | NAME

Whitespace between tokens is ignored, and INT is a run of decimal digits
of any script.  The multiplication and minus signs may also be written as
the Unicode signs × and −, and the letters R, C, H and Z as ℝ, ℂ, ℍ and ℤ.
``form`` is a Roman numeral (e6: I..IV, e7: V..VII, e8: VIII..IX,
f4: I..II), "split" for g2, or "C" for a complex algebra viewed as real;
a bare exceptional name denotes the compact form.  NAMEs inside ``arg``
must be bound by the substitution environment passed to :func:`parse`.

Braces and square brackets are transparent, and discrete-quotient
suffixes ("/Z_n", "/{...}") are stripped: they carry group-level data
that does not affect the Lie algebra.  Anything stripped this way is
reported on the record returned by :func:`parse_expression`.  A quotient
group left unclosed or empty, or missing after the '/', is a parse error.

Normalizations applied while parsing: the abelian cases so(2) = so*(2) =
T^1, so(1,1) = R^1 and so(2,C) = T^1 x R^1, sl(n,H) = su*(2n), u(p,q) =
su(p,q) x T^1 and S(U(p,q) x U(1)) = su(p,q) x T^1.  Every other
isomorphism (su(2,1) = su(1,2), so(4) = su(2) x su(2), ...) is decided
by ``satake.canonical`` when the algebra is built.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache

from .cones import ReductiveAlgebra
from .rootsys import EXCEPTIONAL_TYPES, Record
from .satake import EXCEPTIONAL, FAMILIES, RealFormSpec

_DOUBLE_STRUCK = str.maketrans("ℝℂℍℤ", "rchz")
#: The lexer's pieces, which tile the text: a whitespace run, a letter run
#: with an optional trailing "*" (NAME), a digit run (INT), or any single
#: other character (a symbol, the Unicode times or minus sign, or an error).
#: Each piece is decided by its first character, so matching never
#: backtracks.  ``\d`` and ``\s`` accept exactly what ``str.isdecimal`` and
#: ``str.isspace`` accept.
_PIECES = re.compile(r"\s+|[A-Za-zℝℂℍℤ]+\*?|\d+|.", re.S).findall
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyzℝℂℍℤ"
_SYMBOLS = "(),^/{}[]+-*_"
#: Lookups for the exceptional atoms: ``rootsys.EXCEPTIONAL_TYPES`` as (lower-case
#: letter, rank); every form label of ``satake.EXCEPTIONAL`` ("c" for a complex
#: algebra viewed as real); and each lower-case family label ("e6_iv") to its family.
_EXCEPTIONAL_TYPES = {(letter.lower(), rank) for letter, rank in EXCEPTIONAL_TYPES}
_FORM_LABELS = {family.partition("_")[2].lower() for family in EXCEPTIONAL} | {"c"}
_EXCEPTIONAL_FAMILY = {family.lower(): family for family in EXCEPTIONAL}
#: Longest integer literal, and longest argument value, accepted: Python's
#: default limit on converting between int and decimal string, past which
#: ``int()`` and ``str()`` themselves raise.
_MAX_INT_DIGITS = 4300
_ARGUMENT_BOUND = 10**_MAX_INT_DIGITS


class ParseError(ValueError):
    """Malformed algebra expression; carries the source position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (position {position})")
        self.reason = message
        self.position = position


class AlgebraExpression(Record):
    """A parsed expression together with the group-level data stripped from
    it (discrete quotients, grouping braces, covering prefixes)."""

    __slots__ = ("source", "algebra", "discarded")

    def __init__(self, source: str, algebra: ReductiveAlgebra, discarded: tuple[str, ...]) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "discarded", discarded)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, position), kind one of NAME, INT, SYM, END.

    One ``findall`` splits the text into the pieces of ``_PIECES``; each is
    classified by its first character, and its position is the sum of the
    lengths of the pieces before it.  Whitespace is its own piece, so a
    trailing space is skipped rather than reported as an unexpected
    character.
    """
    tokens = []
    append = tokens.append
    pos = 0
    for piece in _PIECES(text):
        first = piece[0]
        if first in _SYMBOLS:
            append(("SYM", piece, pos))
        elif first in _LETTERS:
            name = piece.lower()
            append(("NAME", name if name.isascii() else name.translate(_DOUBLE_STRUCK), pos))
        elif first.isdecimal():
            if len(piece) > _MAX_INT_DIGITS:
                raise ParseError(f"integer literal longer than {_MAX_INT_DIGITS} digits", pos)
            append(("INT", piece, pos))
        elif first == "×":  # multiplication sign, same role as "x"
            append(("NAME", "x", pos))
        elif first == "−":  # minus sign
            append(("SYM", "-", pos))
        elif not first.isspace():
            raise ParseError(f"unexpected character {piece!r}", pos)
        pos += len(piece)
    append(("END", "", pos))
    return tokens


class _Parser:
    """Recursive descent over the token list.  ``index`` is the next token;
    it never passes END, since only tokens of another kind are consumed."""

    def __init__(self, text: str, params: dict[str, int]) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.env = params
        self.factors: list[RealFormSpec] = []
        self.compact_center = 0
        self.split_center = 0
        self.discarded: list[str] = []

    def expect_sym(self, symbol: str, what: str) -> None:
        kind, text, pos = self.tokens[self.index]
        if kind != "SYM" or text != symbol:
            raise ParseError(f"expected {what}", pos)
        self.index += 1

    def _note(self, message: str) -> None:
        if message not in self.discarded:
            self.discarded.append(message)

    # -- structural noise: braces, brackets, quotients, separators ----------

    def _skip_structural(self) -> None:
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.index]
            if kind != "SYM":
                return
            if text in "{}[]":
                self._note("grouping braces")
                self.index += 1
            elif text == "/":
                self._skip_quotient()
            else:
                return

    def _skip_quotient(self) -> None:
        self._note("discrete quotient")
        tokens = self.tokens
        self.index += 1  # the '/'
        kind, text, pos = tokens[self.index]
        if kind == "SYM" and text in "{[":
            self._skip_group()
            return
        if kind != "NAME" or text[0] == "x":  # no group, or a separator
            raise ParseError("expected a discrete group after '/'", pos)
        self.index += 1
        kind, text, pos = tokens[self.index]
        if kind == "SYM" and text == "_":
            self.index += 1
            kind, text, pos = tokens[self.index]
            if kind == "SYM" and text == "{":
                self._skip_group()
            elif kind == "INT" or (kind == "NAME" and text[0] != "x"):
                self.index += 1
            else:
                raise ParseError("expected a subscript after '_'", pos)
        elif kind == "INT":
            self.index += 1

    def _skip_group(self) -> None:
        """Skip a bracketed quotient group, from its opening bracket to the
        matching close; an unclosed group, or one holding only brackets, is
        an error at its opening."""
        tokens = self.tokens
        opening = tokens[self.index][2]
        depth = 0
        empty = True
        while True:
            kind, text, _ = tokens[self.index]
            if kind == "END":
                raise ParseError("unclosed quotient group", opening)
            self.index += 1
            if kind == "SYM" and text in "{[":
                depth += 1
            elif kind == "SYM" and text in "}]":
                depth -= 1
                if depth == 0:
                    if empty:
                        raise ParseError("empty quotient group", opening)
                    return
            else:
                empty = False

    def _at_separator(self) -> bool:
        """Consume a product separator if one is next.  An unspaced product
        like "U(1)xU(1)" lexes the separator into the next name; no atom
        starts with "x", so such a name is a separator, and its tail is left
        as the next token."""
        i = self.index
        kind, text, pos = self.tokens[i]
        if kind == "NAME" and text[0] == "x":
            if len(text) > 1:
                self.tokens[i] = ("NAME", text[1:], pos + 1)
                return True
        elif kind != "SYM" or text != "*":
            return False
        self.index = i + 1
        return True

    # -- arithmetic arguments ----------------------------------------------

    def _arith(self) -> int:
        """arg := ["-"] term (("+" | "-") term)*, term := INT [NAME] | NAME;
        a NAME starting with "x" after an INT is a separator, not a factor.
        A value of more than ``_MAX_INT_DIGITS`` digits is an error at the
        argument's start."""
        tokens, env = self.tokens, self.env
        i = self.index
        kind, text, pos = tokens[i]
        sign = 1
        if kind == "SYM" and text in "+-":
            sign = -1 if text == "-" else 1
            i += 1
            kind, text, pos = tokens[i]
        total = 0
        while True:
            if kind == "INT":
                value = int(text)
                i += 1
                kind, text, pos = tokens[i]
                if kind == "NAME" and text[0] != "x":
                    if text not in env:
                        raise ParseError(f"unbound parameter {text!r}", pos)
                    value *= env[text]
                    i += 1
                    kind, text, pos = tokens[i]
            elif kind == "NAME":
                if text not in env:
                    raise ParseError(f"unbound parameter {text!r}", pos)
                value = env[text]
                i += 1
                kind, text, pos = tokens[i]
            else:
                raise ParseError("expected an integer argument", pos)
            total += sign * value
            if kind != "SYM" or text not in "+-":
                if abs(total) >= _ARGUMENT_BOUND:
                    start = tokens[self.index][2]
                    raise ParseError(f"argument value longer than {_MAX_INT_DIGITS} digits", start)
                self.index = i
                return total
            sign = -1 if text == "-" else 1
            i += 1
            kind, text, pos = tokens[i]

    def _args(
        self, name: str, fields: frozenset[str], field_names: str
    ) -> tuple[int, int | None, str | None]:
        """Parse "(" arg ["," (arg | field)] ")"; returns (first, second, field).
        An unbound name where a field may stand is an error naming the
        fields, as ``field_names`` spells them."""
        tokens = self.tokens
        kind, text, open_paren = tokens[self.index]
        if kind != "SYM" or text != "(":
            raise ParseError(f"expected '(' after {name}", open_paren)
        self.index += 1
        first = self._arith()
        second = field = None
        kind, text, pos = tokens[self.index]
        if kind == "SYM" and text == ",":
            self.index += 1
            kind, text, pos = tokens[self.index]
            if kind == "NAME" and text not in self.env and fields:
                if text not in fields:
                    raise ParseError(
                        f"{text!r} is neither a field of {name} ({field_names})"
                        " nor a bound parameter",
                        pos,
                    )
                field = text
                self.index += 1
            else:
                second = self._arith()
            kind, text, pos = tokens[self.index]
        if kind != "SYM" or text != ")":
            raise ParseError(f"expected ')' closing the arguments of {name}", pos)
        self.index += 1
        if first < 0 or (second is not None and second < 0):
            raise ParseError(f"negative dimension in {name}(...)", open_paren)
        return first, second, field

    # -- factor contributions: (first, second, field, position) ------------

    def _contrib_su(self, p: int, q: int | None, field: str | None, pos: int) -> None:
        if q is None or min(p, q) == 0:
            n = p if q is None else p + q
            if n >= 2:
                self.factors.append(RealFormSpec("compact_A", (n - 1,)))
        else:
            self.factors.append(RealFormSpec("su_pq", (p, q)))

    def _contrib_su_star(self, m: int, second: int | None, field: str | None, pos: int) -> None:
        if second is not None:
            raise ParseError("su* takes a single argument", pos)
        if m % 2 or m == 0:
            raise ParseError(f"su* takes a positive even argument, got {m}", pos)
        self.factors.append(RealFormSpec("su_star", (m,)))

    def _contrib_sl(self, n: int, second: int | None, field: str | None, pos: int) -> None:
        if field is None:
            raise ParseError("sl requires a field: sl(n,R), sl(n,C) or sl(n,H)", pos)
        if n == 0:
            raise ParseError("sl(0,...) is not an algebra", pos)
        if field == "h":  # quaternionic: sl(n,H) = su*(2n)
            if 2 * n >= _ARGUMENT_BOUND:
                raise ParseError(f"argument value longer than {_MAX_INT_DIGITS} digits", pos)
            self._contrib_su_star(2 * n, None, None, pos)
        elif n >= 2:
            family, rank = ("sl_R", n) if field == "r" else ("complex_A", n - 1)
            self.factors.append(RealFormSpec(family, (rank,)))

    def _contrib_so_n(self, kind: str, n: int) -> None:
        """so(n) for kind "compact", so(n,C) for kind "complex"; so(2) = T^1
        and so(2,C) = T^1 x R^1."""
        if n == 2:
            self.compact_center += 1
            if kind == "complex":
                self.split_center += 1
        elif n >= 3:
            self.factors.append(RealFormSpec(f"{kind}_{'B' if n % 2 else 'D'}", (n // 2,)))

    def _contrib_so(self, p: int, q: int | None, field: str | None, pos: int) -> None:
        if field == "c":
            self._contrib_so_n("complex", p)
        elif q is None or min(p, q) == 0:
            self._contrib_so_n("compact", p if q is None else p + q)
        elif p == q == 1:  # so(1,1) = R^1
            self.split_center += 1
        else:
            self.factors.append(RealFormSpec("so_pq", (p, q)))

    def _contrib_spin(self, p: int, q: int | None, field: str | None, pos: int) -> None:
        self._note("covering prefix Spin")
        self._contrib_so(p, q, field, pos)

    def _contrib_so_star(self, m: int, second: int | None, field: str | None, pos: int) -> None:
        if second is not None:
            raise ParseError("so* takes a single argument", pos)
        if m % 2:
            raise ParseError(f"so* takes an even argument, got {m}", pos)
        if m == 2:
            self.compact_center += 1
        elif m:
            self.factors.append(RealFormSpec("so_star", (m,)))

    def _contrib_sp(self, p: int, q: int | None, field: str | None, pos: int) -> None:
        if field is not None:
            if p >= 1:
                self.factors.append(RealFormSpec("sp_R" if field == "r" else "complex_C", (p,)))
        elif q is None or min(p, q) == 0:
            n = p if q is None else p + q
            if n >= 1:
                self.factors.append(RealFormSpec("compact_C", (n,)))
        else:
            self.factors.append(RealFormSpec("sp_pq", (p, q)))

    def _contrib_u(self, p: int, q: int | None, field: str | None, pos: int) -> None:
        if (p if q is None else p + q) >= 1:
            self.compact_center += 1
        self._contrib_su(p, q, field, pos)

    # -- atoms ---------------------------------------------------------------

    def _atom(self) -> None:
        tokens = self.tokens
        kind, name, pos = tokens[self.index]
        if kind != "NAME":
            self._skip_structural()
            kind, name, pos = tokens[self.index]
            if kind != "NAME":
                raise ParseError("expected an algebra name", pos)
        entry = _ATOMS.get(name)
        if entry is None:
            raise ParseError(f"unknown atom {name!r}", pos)
        self.index += 1
        fields, field_names, contribute = entry
        if fields is None:
            contribute(self, name, pos)
        else:
            contribute(self, *self._args(name, fields, field_names), pos)

    def _center(self, name: str, pos: int) -> None:
        """T^k, a compact center, or R^k, a split one."""
        self.expect_sym("^", f"'^' after {name.upper()}")
        k = self._arith()
        if name == "t":
            if k < 0:
                raise ParseError("torus dimension must be nonnegative", pos)
            self.compact_center += k
        else:
            if k < 0:
                raise ParseError("split-abelian dimension must be nonnegative", pos)
            self.split_center += k

    def _exceptional_atom(self, letter: str, pos: int) -> None:
        tokens = self.tokens
        i = self.index
        kind, text, _ = tokens[i]
        if kind != "INT":
            raise ParseError(f"unknown atom {letter!r}", pos)
        rank = int(text)
        if (letter, rank) not in _EXCEPTIONAL_TYPES:
            raise ParseError(f"unknown exceptional type {letter}{rank}", pos)
        kind, text, _ = tokens[i + 1]
        if kind != "SYM" or text != "(":
            self.index = i + 1
            self.factors.append(RealFormSpec(f"compact_{letter.upper()}", (rank,)))
            return
        kind, form, form_pos = tokens[i + 2]
        if kind != "NAME" or form not in _FORM_LABELS:
            raise ParseError(f"expected a form label for {letter}{rank}", form_pos)
        self.index = i + 3
        self.expect_sym(")", f"')' closing the form of {letter}{rank}")
        if form == "c":
            self.factors.append(RealFormSpec(f"complex_{letter.upper()}", (rank,)))
        elif (family := _EXCEPTIONAL_FAMILY.get(f"{letter}{rank}_{form}")) is not None:
            self.factors.append(RealFormSpec(family))
        else:
            raise ParseError(f"unknown form {form!r} for {letter}{rank}", pos)

    def _s_construction(self, name: str, pos: int) -> None:
        """S(U(...) x U(...) x ...): unitary factors with one overall trace
        condition, so k factors contribute their su parts plus T^(k-1)."""
        self.expect_sym("(", "'(' after S")
        tokens = self.tokens
        count = 0
        while True:
            self._skip_structural()
            kind, text, pos = tokens[self.index]
            if kind != "NAME" or text != "u":
                raise ParseError("S(...) expects U(...) factors", pos)
            self.index += 1
            self._contrib_su(*self._args("u", _NO_FIELDS, ""), pos)
            count += 1
            self._skip_structural()
            if not self._at_separator():
                break
        self.expect_sym(")", "')' closing S(...)")
        self.compact_center += count - 1

    # -- top level -----------------------------------------------------------

    def parse(self) -> ReductiveAlgebra:
        tokens = self.tokens
        self._atom()
        while True:
            kind, text, pos = tokens[self.index]
            if kind == "SYM" and text in "{}[]/":
                self._skip_structural()
                kind, text, pos = tokens[self.index]
            if kind == "END":
                break
            if not self._at_separator():
                raise ParseError("expected 'x' between factors or end of expression", pos)
            self._atom()
        if not self.factors and not self.compact_center and not self.split_center:
            raise ParseError("expression denotes the zero algebra", 0)
        if self.compact_center >= _ARGUMENT_BOUND or self.split_center >= _ARGUMENT_BOUND:
            raise ParseError(f"center dimension longer than {_MAX_INT_DIGITS} digits", 0)
        return ReductiveAlgebra(tuple(self.factors), self.compact_center, self.split_center)


_NO_FIELDS: frozenset[str] = frozenset()
#: Each atom name with the field names its second argument may take, those
#: fields as its error messages spell them, and the method that adds its
#: contribution from the parsed arguments; an atom with ``None`` for fields
#: has no argument list, and its method reads the tokens after the name
#: itself.
_ATOMS = {
    "sl": (frozenset("rch"), "R, C or H", _Parser._contrib_sl),
    "su": (_NO_FIELDS, "", _Parser._contrib_su),
    "su*": (_NO_FIELDS, "", _Parser._contrib_su_star),
    "so": (frozenset("c"), "C", _Parser._contrib_so),
    "spin": (frozenset("c"), "C", _Parser._contrib_spin),
    "so*": (_NO_FIELDS, "", _Parser._contrib_so_star),
    "sp": (frozenset("rc"), "R or C", _Parser._contrib_sp),
    "u": (_NO_FIELDS, "", _Parser._contrib_u),
    "s": (None, "", _Parser._s_construction),
    "t": (None, "", _Parser._center),
    "r": (None, "", _Parser._center),
    "e": (None, "", _Parser._exceptional_atom),
    "f": (None, "", _Parser._exceptional_atom),
    "g": (None, "", _Parser._exceptional_atom),
}


def parse_expression(text: str, params: dict[str, int] | None = None) -> AlgebraExpression:
    """Parse an algebra expression, reporting any group-level data stripped.

    ``params`` binds the integer parameters that may appear inside
    arguments (e.g. ``{"k": 2}`` for "so(2k-1,2k-1)"); a value that is not
    an integer raises ``TypeError``.  A repeated call with equal arguments
    may return the same record.
    """
    if not params:
        return _memo_parse(text, ())
    return _memo_parse(text, tuple(sorted((k, operator.index(v)) for k, v in params.items())))


@lru_cache(maxsize=2048)
def _memo_parse(text: str, params: tuple[tuple[str, int], ...]) -> AlgebraExpression:
    """``parse_expression`` remembered per process, keyed on the text and
    the params as a sorted tuple.  It pays only in a caller that parses
    the same whole texts again.  The record is immutable, so every caller
    can share it, and a text that raises ``ParseError`` is not kept."""
    parser = _Parser(text, dict(params))
    algebra = parser.parse()
    return AlgebraExpression(text, algebra, tuple(parser.discarded))


def parse(text: str, params: dict[str, int] | None = None) -> ReductiveAlgebra:
    """Parse an algebra expression to its normalized reductive algebra."""
    return parse_expression(text, params).algebra


# ---------------------------------------------------------------------------
# printing

def render(alg: ReductiveAlgebra) -> str:
    """Canonical form: each factor by its name in ``satake.FAMILIES``, the
    factors sorted, centers appended as T^k and R^k."""
    parts = [FAMILIES[spec.family][2](*spec.params) for spec in alg.simple_factors]
    if alg.compact_center_dim:
        parts.append(f"T^{alg.compact_center_dim}")
    if alg.split_center_dim:
        parts.append(f"R^{alg.split_center_dim}")
    return " x ".join(parts)
