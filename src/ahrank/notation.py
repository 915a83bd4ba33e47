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

import re

from .cones import ReductiveAlgebra
from .rootsys import Record
from .satake import EXCEPTIONAL, RealFormSpec

_DOUBLE_STRUCK = str.maketrans("ℝℂℍℤ", "rchz")
#: One alternative per token kind: whitespace, NAME, INT, SYM, the Unicode
#: times and minus signs, and any other character (an error).  ``\d`` and
#: ``\s`` accept exactly what ``str.isdecimal`` and ``str.isspace`` accept.
_TOKEN = re.compile(r"(\s+)|([A-Za-zℝℂℍℤ]+\*?)|(\d+)|([(),^/{}\[\]+\-*_])|(×)|(−)|(.)", re.S)
_FIELDS = {"r", "c", "h"}
#: Lookups derived from ``satake.EXCEPTIONAL``: the exceptional types as
#: (lower-case letter, rank), every form label ("c" for a complex algebra
#: viewed as real), and each lower-case family label ("e6_iv") to its family.
_EXCEPTIONAL_TYPES = {(letter.lower(), rank) for letter, rank, _, _ in EXCEPTIONAL.values()}
_FORM_LABELS = {family.partition("_")[2].lower() for family in EXCEPTIONAL} | {"c"}
_EXCEPTIONAL_FAMILY = {family.lower(): family for family in EXCEPTIONAL}
#: Longest integer literal accepted: Python's default limit on converting a
#: decimal string to int, past which ``int()`` itself raises.
_MAX_INT_DIGITS = 4300


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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, position), kind one of NAME, INT, SYM, END.

    Every alternative of ``_TOKEN`` is decided by its first character, so
    matching never backtracks; whitespace is its own alternative so that a
    trailing space is skipped rather than reported by the catch-all.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 1:
            continue
        pos = match.start()
        if group == 2:
            tokens.append(("NAME", match[2].lower().translate(_DOUBLE_STRUCK), pos))
        elif group == 3:
            if match.end() - pos > _MAX_INT_DIGITS:
                raise ParseError(f"integer literal longer than {_MAX_INT_DIGITS} digits", pos)
            tokens.append(("INT", match[3], pos))
        elif group == 4:
            tokens.append(("SYM", match[4], pos))
        elif group == 5:  # multiplication sign, same role as "x"
            tokens.append(("NAME", "x", pos))
        elif group == 6:  # minus sign
            tokens.append(("SYM", "-", pos))
        else:
            raise ParseError(f"unexpected character {match[7]!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, params: dict[str, int] | None) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.env = dict(params or {})
        self.factors: list[RealFormSpec] = []
        self.compact_center = 0
        self.split_center = 0
        self.discarded: list[str] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] != "END":
            self.index += 1
        return token

    def expect_sym(self, symbol: str, what: str) -> tuple[str, str, int]:
        kind, text, pos = self.peek()
        if kind != "SYM" or text != symbol:
            raise ParseError(f"expected {what}", pos)
        return self.advance()

    def _note(self, message: str) -> None:
        if message not in self.discarded:
            self.discarded.append(message)

    # -- structural noise: braces, brackets, quotients ----------------------

    def _skip_structural(self) -> None:
        while True:
            kind, text, _ = self.peek()
            if kind == "SYM" and text in "{}[]":
                self._note("grouping braces")
                self.advance()
                continue
            if kind == "SYM" and text == "/":
                self._skip_quotient()
                continue
            return

    def _skip_quotient(self) -> None:
        self._note("discrete quotient")
        self.advance()  # the '/'
        kind, text, pos = self.peek()
        if kind == "SYM" and text in "{[":
            self._skip_group()
            return
        if kind != "NAME" or self._at_separator():
            raise ParseError("expected a discrete group after '/'", pos)
        self.advance()
        kind, text, pos = self.peek()
        if kind == "SYM" and text == "_":
            self.advance()
            kind, text, pos = self.peek()
            if kind == "SYM" and text == "{":
                self._skip_group()
            elif kind == "INT" or (kind == "NAME" and not self._at_separator()):
                self.advance()
            else:
                raise ParseError("expected a subscript after '_'", pos)
        elif kind == "INT":
            self.advance()

    def _skip_group(self) -> None:
        """Skip a bracketed quotient group, from its opening bracket to the
        matching close; an unclosed group, or one holding only brackets, is
        an error at its opening."""
        opening = self.peek()[2]
        depth = 0
        empty = True
        while True:
            kind, text, _ = self.advance()
            if kind == "END":
                raise ParseError("unclosed quotient group", opening)
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
        kind, text, _ = self.peek()
        if kind == "SYM" and text == "*":
            return True
        # An unspaced product like "U(1)xU(1)" lexes the separator into the
        # next name; no atom starts with "x", so such a name is a separator.
        return kind == "NAME" and text.startswith("x")

    def _consume_separator(self) -> None:
        kind, text, pos = self.peek()
        if kind == "NAME" and len(text) > 1 and text.startswith("x"):
            self.tokens[self.index] = ("NAME", text[1:], pos + 1)
            return
        self.advance()

    # -- arithmetic arguments ----------------------------------------------

    def _term(self) -> int:
        kind, text, pos = self.peek()
        if kind == "INT":
            self.advance()
            value = int(text)
            kind, text, pos = self.peek()
            if kind == "NAME" and not text.startswith("x"):
                self.advance()
                return value * self._lookup(text, pos)
            return value
        if kind == "NAME":
            self.advance()
            return self._lookup(text, pos)
        raise ParseError("expected an integer argument", pos)

    def _lookup(self, name: str, pos: int) -> int:
        if name not in self.env:
            raise ParseError(f"unbound parameter {name!r}", pos)
        return self.env[name]

    def _arith(self) -> int:
        sign = 1
        kind, text, _ = self.peek()
        if kind == "SYM" and text in "+-":
            self.advance()
            sign = -1 if text == "-" else 1
        total = sign * self._term()
        while True:
            kind, text, _ = self.peek()
            if kind == "SYM" and text in "+-":
                self.advance()
                sign = -1 if text == "-" else 1
                total += sign * self._term()
            else:
                return total

    def _args(self, name: str, field_names: frozenset[str] = frozenset()):
        """Parse "(" arg ["," (arg | field)] ")"; returns (first, second, field)."""
        open_paren = self.expect_sym("(", f"'(' after {name}")[2]
        first = self._arith()
        second = None
        field = None
        kind, text, _ = self.peek()
        if kind == "SYM" and text == ",":
            self.advance()
            kind, text, _ = self.peek()
            if kind == "NAME" and text in field_names and text not in self.env:
                field = text
                self.advance()
            else:
                second = self._arith()
        self.expect_sym(")", f"')' closing the arguments of {name}")
        if first < 0 or (second is not None and second < 0):
            raise ParseError(f"negative dimension in {name}(...)", open_paren)
        return first, second, field

    # -- factor contributions ----------------------------------------------

    def _add(self, family: str, *params: int) -> None:
        self.factors.append(RealFormSpec(family, tuple(params)))

    def _contrib_su(self, p: int, q: int | None) -> None:
        if q is None or min(p, q) == 0:
            n = p if q is None else p + q
            if n >= 2:
                self._add("compact_A", n - 1)
        else:
            self._add("su_pq", p, q)

    def _contrib_su_star(self, m: int, pos: int) -> None:
        if m % 2 or m == 0:
            raise ParseError(f"su* takes a positive even argument, got {m}", pos)
        self._add("su_star", m)

    def _contrib_sl(self, n: int, field: str | None, pos: int) -> None:
        if field is None:
            raise ParseError("sl requires a field: sl(n,R), sl(n,C) or sl(n,H)", pos)
        if n == 0:
            raise ParseError("sl(0,...) is not an algebra", pos)
        if field == "r":
            if n >= 2:
                self._add("sl_R", n)
        elif field == "c":
            if n >= 2:
                self._add("complex_A", n - 1)
        else:  # quaternionic: sl(n,H) = su*(2n)
            self._contrib_su_star(2 * n, pos)

    def _contrib_so_n(self, kind: str, n: int) -> None:
        """so(n) for kind "compact", so(n,C) for kind "complex"; so(2) = T^1
        and so(2,C) = T^1 x R^1."""
        if n == 2:
            self.compact_center += 1
            if kind == "complex":
                self.split_center += 1
        elif n >= 3:
            self._add(f"{kind}_{'B' if n % 2 else 'D'}", n // 2)

    def _contrib_so(self, p: int, q: int | None, field: str | None) -> None:
        if field == "c":
            self._contrib_so_n("complex", p)
        elif q is None or min(p, q) == 0:
            self._contrib_so_n("compact", p if q is None else p + q)
        elif p == q == 1:  # so(1,1) = R^1
            self.split_center += 1
        else:
            self._add("so_pq", p, q)

    def _contrib_so_star(self, m: int, pos: int) -> None:
        if m % 2:
            raise ParseError(f"so* takes an even argument, got {m}", pos)
        if m == 0:
            return
        if m == 2:
            self.compact_center += 1
        else:
            self._add("so_star", m)

    def _contrib_sp(self, p: int, q: int | None, field: str | None) -> None:
        if field is not None:
            if p >= 1:
                self._add("sp_R" if field == "r" else "complex_C", p)
            return
        if q is None or min(p, q) == 0:
            n = p if q is None else p + q
            if n >= 1:
                self._add("compact_C", n)
            return
        self._add("sp_pq", p, q)

    def _contrib_u(self, p: int, q: int | None) -> None:
        total = p if q is None else p + q
        if total >= 1:
            self.compact_center += 1
        self._contrib_su(p, q)

    def _contrib_exceptional(self, letter: str, rank: int, form: str | None, pos: int) -> None:
        if form is None:
            self._add(f"compact_{letter.upper()}", rank)
        elif form == "c":
            self._add(f"complex_{letter.upper()}", rank)
        elif (family := _EXCEPTIONAL_FAMILY.get(f"{letter}{rank}_{form}")) is not None:
            self._add(family)
        else:
            raise ParseError(f"unknown form {form!r} for {letter}{rank}", pos)

    # -- atoms ---------------------------------------------------------------

    def _atom(self) -> None:
        self._skip_structural()
        kind, name, pos = self.peek()
        if kind != "NAME":
            raise ParseError("expected an algebra name", pos)
        self.advance()
        if name == "sl":
            n, _, field = self._args(name, frozenset(_FIELDS))
            self._contrib_sl(n, field, pos)
        elif name == "su*":
            m, second, _ = self._args(name)
            if second is not None:
                raise ParseError("su* takes a single argument", pos)
            self._contrib_su_star(m, pos)
        elif name == "su":
            p, q, _ = self._args(name)
            self._contrib_su(p, q)
        elif name == "so*":
            m, second, _ = self._args(name)
            if second is not None:
                raise ParseError("so* takes a single argument", pos)
            self._contrib_so_star(m, pos)
        elif name in ("so", "spin"):
            if name == "spin":
                self._note("covering prefix Spin")
            p, q, field = self._args(name, frozenset({"c"}))
            self._contrib_so(p, q, field)
        elif name == "sp":
            p, q, field = self._args(name, frozenset({"r", "c"}))
            self._contrib_sp(p, q, field)
        elif name == "u":
            p, q, _ = self._args(name)
            self._contrib_u(p, q)
        elif name == "s":
            self._s_construction()
        elif name == "t":
            self.expect_sym("^", "'^' after T")
            k = self._arith()
            if k < 0:
                raise ParseError("torus dimension must be nonnegative", pos)
            self.compact_center += k
        elif name == "r":
            self.expect_sym("^", "'^' after R")
            k = self._arith()
            if k < 0:
                raise ParseError("split-abelian dimension must be nonnegative", pos)
            self.split_center += k
        elif name in ("e", "f", "g"):
            self._exceptional_atom(name, pos)
        else:
            raise ParseError(f"unknown atom {name!r}", pos)

    def _exceptional_atom(self, letter: str, pos: int) -> None:
        kind, text, _ = self.peek()
        if kind != "INT":
            raise ParseError(f"unknown atom {letter!r}", pos)
        rank = int(text)
        if (letter, rank) not in _EXCEPTIONAL_TYPES:
            raise ParseError(f"unknown exceptional type {letter}{rank}", pos)
        self.advance()
        form = None
        kind, text, _ = self.peek()
        if kind == "SYM" and text == "(":
            self.advance()
            kind, form, form_pos = self.peek()
            if kind != "NAME" or form not in _FORM_LABELS:
                raise ParseError(f"expected a form label for {letter}{rank}", form_pos)
            self.advance()
            self.expect_sym(")", f"')' closing the form of {letter}{rank}")
        self._contrib_exceptional(letter, rank, form, pos)

    def _s_construction(self) -> None:
        """S(U(...) x U(...) x ...): unitary factors with one overall trace
        condition, so k factors contribute their su parts plus T^(k-1)."""
        self.expect_sym("(", "'(' after S")
        count = 0
        while True:
            self._skip_structural()
            kind, text, pos = self.peek()
            if kind != "NAME" or text != "u":
                raise ParseError("S(...) expects U(...) factors", pos)
            self.advance()
            p, q, _ = self._args("u")
            self._contrib_su(p, q)
            count += 1
            self._skip_structural()
            if self._at_separator():
                self._consume_separator()
                continue
            break
        self.expect_sym(")", "')' closing S(...)")
        self.compact_center += count - 1

    # -- top level -----------------------------------------------------------

    def parse(self) -> ReductiveAlgebra:
        self._atom()
        while True:
            self._skip_structural()
            if self._at_separator():
                self._consume_separator()
                self._atom()
                continue
            kind, _, pos = self.peek()
            if kind == "END":
                break
            raise ParseError("expected 'x' between factors or end of expression", pos)
        if not self.factors and not self.compact_center and not self.split_center:
            raise ParseError("expression denotes the zero algebra", 0)
        return ReductiveAlgebra(
            tuple(self.factors), self.compact_center, self.split_center
        )


def parse_expression(text: str, params: dict[str, int] | None = None) -> AlgebraExpression:
    """Parse an algebra expression, reporting any group-level data stripped.

    ``params`` binds the integer parameters that may appear inside
    arguments (e.g. ``{"k": 2}`` for "so(2k-1,2k-1)").
    """
    parser = _Parser(text, params)
    algebra = parser.parse()
    return AlgebraExpression(text, algebra, tuple(parser.discarded))


def parse(text: str, params: dict[str, int] | None = None) -> ReductiveAlgebra:
    """Parse an algebra expression to its normalized reductive algebra."""
    return parse_expression(text, params).algebra


# ---------------------------------------------------------------------------
# printing

#: Each family's name from its parameters, for all but the exceptional
#: types: the one- and two-parameter families, then the compact and complex
#: classical types by rank.
_NAMES = {
    "sl_R": lambda n: f"sl({n},R)",
    "su_star": lambda m: f"su*({m})",
    "sp_R": lambda n: f"sp({n},R)",
    "so_star": lambda m: f"so*({m})",
    "su_pq": lambda p, q: f"su({p},{q})",
    "so_pq": lambda p, q: f"so({p},{q})",
    "sp_pq": lambda p, q: f"sp({p},{q})",
    "compact_A": lambda r: f"su({r + 1})",
    "compact_B": lambda r: f"so({2 * r + 1})",
    "compact_C": lambda r: f"sp({r})",
    "compact_D": lambda r: f"so({2 * r})",
    "complex_A": lambda r: f"sl({r + 1},C)",
    "complex_B": lambda r: f"so({2 * r + 1},C)",
    "complex_C": lambda r: f"sp({r},C)",
    "complex_D": lambda r: f"so({2 * r},C)",
}


def _render_factor(spec: RealFormSpec) -> str:
    name = _NAMES.get(spec.family)
    if name is not None:
        return name(*spec.params)
    kind, _, label = spec.family.partition("_")
    if kind == "compact":  # compact and complex E, F and G: e6, e6(C)
        return f"{label.lower()}{spec.params[0]}"
    if kind == "complex":
        return f"{label.lower()}{spec.params[0]}(C)"
    return f"{kind}({label})"  # exceptional real forms: e6_IV -> e6(IV)


def render(alg: ReductiveAlgebra) -> str:
    """Canonical form: factors sorted, centers appended as T^k and R^k."""
    parts = [_render_factor(spec) for spec in alg.simple_factors]
    if alg.compact_center_dim:
        parts.append(f"T^{alg.compact_center_dim}")
    if alg.split_center_dim:
        parts.append(f"R^{alg.split_center_dim}")
    return " x ".join(parts)
