"""Satake diagrams for the real forms of the simple complex Lie algebras.

A Satake diagram is a Dynkin diagram with a subset of nodes painted black
and an involutive pairing ("arrows") on some of the white nodes: black
nodes are the simple roots vanishing on a maximal split abelian subspace,
arrows join white nodes exchanged by the conjugation involution.  A real
semisimple Lie algebra is determined up to isomorphism by its diagram, and
its real rank is the number of white-node orbits under the arrows.

The database is generated programmatically per family, following the
Onishchik-Vinberg classification tables: split and signature families for
the classical types, so*, the exceptional forms, all-black compact
diagrams, and doubled diagrams for complex algebras regarded as real.

Families
--------
``FAMILIES`` is the one statement of each family: its label, parameter
count, constructor (with its domain check) and printed name.  The labels
are sl_R (n), su_star (2n), su_pq (p, q), so_pq (p, q), sp_R (n), sp_pq
(p, q) and so_star (2n); compact_X and complex_X (rank) for each series X,
the compact form and X_rank(C) viewed as real; and the exceptional forms
of ``EXCEPTIONAL`` (e6_I .. g2_split), which take no parameters.

Doubled diagrams number the second copy after the first: nodes 1..n and
n+1..2n, with arrows (i, n+i).
"""

from __future__ import annotations

from functools import partial
from typing import NoReturn

from .rootsys import LieType, Record, _edges


class InvalidRealFormError(ValueError):
    """Parameters outside a real-form family's domain."""


class RealFormSpec(Record):
    """Symbolic name of a real form: family label plus integer parameters."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple[int, ...] = ()) -> None:
        set_family, set_params = self._setters
        set_family(self, family)
        set_params(self, params)

    def __hash__(self) -> int:
        return hash((self.family, self.params))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}({','.join(str(p) for p in self.params)})"


class SatakeDiagram(Record):
    """Dynkin diagram with black nodes and a white-node arrow involution.

    ``components`` is 2 for the doubled diagram of a complex algebra viewed
    as real (both components of type ``lie_type``), 1 otherwise.  Arrows
    are stored as sorted node pairs.
    """

    __slots__ = ("lie_type", "black", "arrows", "components")

    def __init__(
        self,
        lie_type: LieType,
        black: frozenset[int] = frozenset(),
        arrows: frozenset[tuple[int, int]] = frozenset(),
        components: int = 1,
    ) -> None:
        set_lie_type, set_black, set_arrows, set_components = self._setters
        set_lie_type(self, lie_type)
        set_black(self, black)
        set_arrows(self, arrows)
        set_components(self, components)

    @property
    def node_count(self) -> int:
        return self.lie_type.rank * self.components

    def nodes(self) -> range:
        return range(1, self.node_count + 1)


# ---------------------------------------------------------------------------
# family constructors

def _sl_R(n: int) -> SatakeDiagram:
    if n < 2:
        raise InvalidRealFormError(f"sl(n,R) requires n >= 2, got n={n}")
    return SatakeDiagram(LieType("A", n - 1))


def _su_star(m: int) -> SatakeDiagram:
    if m < 4 or m % 2:
        raise InvalidRealFormError(f"su*(2n) requires an even argument >= 4, got {m}")
    return SatakeDiagram(LieType("A", m - 1), black=frozenset(range(1, m, 2)))


def _su_pq(p: int, q: int) -> SatakeDiagram:
    if p < 1 or q < 1:
        raise InvalidRealFormError(f"su(p,q) requires p, q >= 1, got ({p},{q})")
    n = p + q
    low = min(p, q)
    arrows = frozenset(zip(range(1, min(low, (n - 1) // 2) + 1), range(n - 1, 0, -1)))
    black = frozenset(range(low + 1, n - low))
    return SatakeDiagram(LieType("A", n - 1), black=black, arrows=arrows)


def _so_pq(p: int, q: int) -> SatakeDiagram:
    if p < 1 or q < 1:
        raise InvalidRealFormError(f"so(p,q) requires p, q >= 1, got ({p},{q})")
    total = p + q
    if total < 3:
        raise InvalidRealFormError(f"so(p,q) requires p + q >= 3, got {total}")
    low = min(p, q)
    m = total // 2
    if total % 2:
        return SatakeDiagram(LieType("B", m), black=frozenset(range(low + 1, m + 1)))
    if low == m:
        return SatakeDiagram(LieType("D", m))
    if low == m - 1:
        return SatakeDiagram(LieType("D", m), arrows=frozenset([(m - 1, m)]))
    return SatakeDiagram(LieType("D", m), black=frozenset(range(low + 1, m + 1)))


def _sp_R(n: int) -> SatakeDiagram:
    if n < 1:
        raise InvalidRealFormError(f"sp(n,R) requires n >= 1, got n={n}")
    return SatakeDiagram(LieType("C", n))


def _sp_pq(p: int, q: int) -> SatakeDiagram:
    if p < 1 or q < 1:
        raise InvalidRealFormError(f"sp(p,q) requires p, q >= 1, got ({p},{q})")
    n = p + q
    low = min(p, q)
    black = frozenset(range(1, 2 * low, 2)) | frozenset(range(2 * low + 1, n + 1))
    return SatakeDiagram(LieType("C", n), black=black)


def _so_star(m: int) -> SatakeDiagram:
    if m < 4 or m % 2:
        raise InvalidRealFormError(f"so*(2n) requires an even argument >= 4, got {m}")
    n = m // 2
    arrows = frozenset([(n - 1, n)] if n % 2 else ())
    return SatakeDiagram(LieType("D", n), black=frozenset(range(1, n, 2)), arrows=arrows)


#: The exceptional real forms, in enumeration order: family label to
#: (series letter, rank, black nodes, ascending arrow pairs) in chain-first
#: numbering (the E-series branch node carries the highest index).  The
#: label after the underscore is the form's name in the input language.
EXCEPTIONAL = {
    "e6_I": ("E", 6, (), ()),
    "e6_II": ("E", 6, (), ((1, 5), (2, 4))),
    "e6_III": ("E", 6, (2, 3, 4), ((1, 5),)),
    "e6_IV": ("E", 6, (2, 3, 4, 6), ()),
    "e7_V": ("E", 7, (), ()),
    "e7_VI": ("E", 7, (4, 6, 7), ()),
    "e7_VII": ("E", 7, (2, 3, 4, 7), ()),
    "e8_VIII": ("E", 8, (), ()),
    "e8_IX": ("E", 8, (2, 3, 4, 8), ()),
    "f4_I": ("F", 4, (), ()),
    "f4_II": ("F", 4, (1, 2, 3), ()),
    "g2_split": ("G", 2, (), ()),
}


def complex_as_real(t: LieType) -> SatakeDiagram:
    """Doubled diagram of a complex simple algebra viewed as real: two white
    copies of t with arrows joining node i of the first copy to node i of
    the second."""
    n = t.rank
    return SatakeDiagram(
        t,
        arrows=frozenset(zip(range(1, n + 1), range(n + 1, 2 * n + 1))),
        components=2,
    )


def _series_type(letter: str, rank: int) -> LieType:
    """``LieType(letter, rank)``, a rank outside the series a domain error."""
    try:
        return LieType(letter, rank)
    except ValueError as exc:
        raise InvalidRealFormError(str(exc)) from exc


def _compact_form(letter: str, rank: int) -> SatakeDiagram:
    return SatakeDiagram(_series_type(letter, rank), black=frozenset(range(1, rank + 1)))


def _complex_form(letter: str, rank: int) -> SatakeDiagram:
    return complex_as_real(_series_type(letter, rank))


#: Every real-form family: label to (parameter count, constructor, printed
#: name).  The constructor takes the parameters, checks their domain and
#: builds the Satake diagram; the name is the form in the input language,
#: a callable of the same parameters.
FAMILIES = {
    "sl_R": (1, _sl_R, "sl({},R)".format),
    "su_star": (1, _su_star, "su*({})".format),
    "su_pq": (2, _su_pq, "su({},{})".format),
    "so_pq": (2, _so_pq, "so({},{})".format),
    "sp_R": (1, _sp_R, "sp({},R)".format),
    "sp_pq": (2, _sp_pq, "sp({},{})".format),
    "so_star": (1, _so_star, "so*({})".format),
    "compact_A": (1, partial(_compact_form, "A"), lambda r: f"su({r + 1})"),
    "compact_B": (1, partial(_compact_form, "B"), lambda r: f"so({2 * r + 1})"),
    "compact_C": (1, partial(_compact_form, "C"), "sp({})".format),
    "compact_D": (1, partial(_compact_form, "D"), lambda r: f"so({2 * r})"),
    "compact_E": (1, partial(_compact_form, "E"), "e{}".format),
    "compact_F": (1, partial(_compact_form, "F"), "f{}".format),
    "compact_G": (1, partial(_compact_form, "G"), "g{}".format),
    "complex_A": (1, partial(_complex_form, "A"), lambda r: f"sl({r + 1},C)"),
    "complex_B": (1, partial(_complex_form, "B"), lambda r: f"so({2 * r + 1},C)"),
    "complex_C": (1, partial(_complex_form, "C"), "sp({},C)".format),
    "complex_D": (1, partial(_complex_form, "D"), lambda r: f"so({2 * r},C)"),
    "complex_E": (1, partial(_complex_form, "E"), "e{}(C)".format),
    "complex_F": (1, partial(_complex_form, "F"), "f{}(C)".format),
    "complex_G": (1, partial(_complex_form, "G"), "g{}(C)".format),
    # the exceptional forms take no parameters: e6_IV prints as e6(IV)
    **{
        family: (
            0,
            partial(SatakeDiagram, LieType(letter, rank), frozenset(black), frozenset(arrows)),
            f"{family.replace('_', '(')})".format,
        )
        for family, (letter, rank, black, arrows) in EXCEPTIONAL.items()
    },
}

_PARAMETER_COUNTS = ("no parameters", "one parameter", "two parameters")

#: The largest family parameter ``satake_of`` accepts, so that every
#: diagram is built in bounded time and memory.
MAX_PARAMETER = 100_000


def _unknown_family(family: str) -> NoReturn:
    """Raise for a label outside ``FAMILIES``, whose rows are never empty:
    ``FAMILIES.get(family) or _unknown_family(family)`` is the row."""
    raise InvalidRealFormError(f"unknown real-form family {family!r}")


def satake_of(spec: RealFormSpec) -> SatakeDiagram:
    """Satake diagram of a real form, built by its family's constructor."""
    family, params = spec.family, spec.params
    if params and max(params) > MAX_PARAMETER:
        raise InvalidRealFormError(f"real-form parameter {max(params)} is above the bound {MAX_PARAMETER}")
    count, build, _ = FAMILIES.get(family) or _unknown_family(family)
    if len(params) != count:
        raise InvalidRealFormError(f"{family} takes {_PARAMETER_COUNTS[count]}, got {params}")
    return build(*params)


def real_rank(d: SatakeDiagram) -> int:
    """Number of white-node orbits under the arrow involution."""
    return d.node_count - len(d.black) - len(d.arrows)


# ---------------------------------------------------------------------------
# isomorphism, enumeration and export

#: Specs (parameters ascending) isomorphic to a product in another form: the
#: forms of the types ``canonical_types`` leaves out (B1, C1 -> A1; C2 -> B2;
#: D2 -> A1 x A1; D3 -> A3), su(1,1), su*(2) and so*(8) (D4 triality).
_COINCIDENCES: dict[RealFormSpec, tuple[RealFormSpec, ...]] = {
    RealFormSpec(family, params): tuple(RealFormSpec(*target) for target in targets)
    for family, params, targets in (
        ("so_pq", (1, 2), [("sl_R", (2,))]),
        ("compact_B", (1,), [("compact_A", (1,))]),
        ("complex_B", (1,), [("complex_A", (1,))]),
        ("sp_R", (1,), [("sl_R", (2,))]),
        ("compact_C", (1,), [("compact_A", (1,))]),
        ("complex_C", (1,), [("complex_A", (1,))]),
        ("sp_R", (2,), [("so_pq", (2, 3))]),
        ("sp_pq", (1, 1), [("so_pq", (1, 4))]),
        ("compact_C", (2,), [("compact_B", (2,))]),
        ("complex_C", (2,), [("complex_B", (2,))]),
        ("so_pq", (1, 3), [("complex_A", (1,))]),
        ("so_pq", (2, 2), [("sl_R", (2,)), ("sl_R", (2,))]),
        ("so_star", (4,), [("compact_A", (1,)), ("sl_R", (2,))]),
        ("compact_D", (2,), [("compact_A", (1,)), ("compact_A", (1,))]),
        ("complex_D", (2,), [("complex_A", (1,)), ("complex_A", (1,))]),
        ("so_pq", (1, 5), [("su_star", (4,))]),
        ("so_pq", (2, 4), [("su_pq", (2, 2))]),
        ("so_pq", (3, 3), [("sl_R", (4,))]),
        ("so_star", (6,), [("su_pq", (1, 3))]),
        ("compact_D", (3,), [("compact_A", (3,))]),
        ("complex_D", (3,), [("complex_A", (3,))]),
        ("su_pq", (1, 1), [("sl_R", (2,))]),
        ("su_star", (2,), [("compact_A", (1,))]),
        ("so_star", (8,), [("so_pq", (2, 6))]),
    )
}


def canonical(spec: RealFormSpec) -> tuple[RealFormSpec, ...]:
    """One product of specs per isomorphism class: two parameters ascending,
    then the ``_COINCIDENCES`` image; every result has a canonical type.
    A label outside ``FAMILIES`` is a domain error."""
    family, params = spec.family, spec.params
    count = (FAMILIES.get(family) or _unknown_family(family))[0]
    if len(params) == 2 and params[0] > params[1] and count == 2:
        spec = RealFormSpec(family, params[::-1])
    return _COINCIDENCES.get(spec, (spec,))


def real_forms(t: LieType) -> tuple[RealFormSpec, ...]:
    """All real forms of a simple complex type, compact form included, each
    its own ``canonical`` image, so each isomorphism class is listed once
    over all types (types outside ``canonical_types`` list none)."""
    n = t.rank
    forms: list[RealFormSpec] = []
    if t.letter == "A":
        total = n + 1
        forms.append(RealFormSpec("sl_R", (total,)))
        if total % 2 == 0 and total >= 4:
            forms.append(RealFormSpec("su_star", (total,)))
        forms.extend(RealFormSpec("su_pq", (p, total - p)) for p in range(1, total // 2 + 1))
    elif t.letter in "BD":
        total = 2 * n + (t.letter == "B")
        forms.extend(RealFormSpec("so_pq", (p, total - p)) for p in range(1, n + 1))
        if t.letter == "D":
            forms.append(RealFormSpec("so_star", (total,)))
    elif t.letter == "C":
        forms.append(RealFormSpec("sp_R", (n,)))
        forms.extend(RealFormSpec("sp_pq", (p, n - p)) for p in range(1, n // 2 + 1))
    else:
        forms.extend(
            RealFormSpec(family)
            for family, (letter, rank, _, _) in EXCEPTIONAL.items()
            if (letter, rank) == (t.letter, n)
        )
    forms.append(RealFormSpec(f"compact_{t.letter}", (n,)))
    return tuple(s for s in forms if s not in _COINCIDENCES)


def export(d: SatakeDiagram) -> dict:
    """Structured-text form of a diagram; deterministic across runs."""
    return {
        "type": d.lie_type.letter,
        "rank": d.lie_type.rank,
        "components": d.components,
        "black": sorted(d.black),
        "arrows": sorted([i, j] for i, j in d.arrows),
        "numbering": "chain-first" if d.lie_type.letter == "E" else "bourbaki",
    }


# ---------------------------------------------------------------------------
# ASCII rendering

def _bond(aij: int, aji: int) -> str:
    if aij == 0:
        return "    "
    if aij == -1 and aji == -1:
        return "----"
    if aij < -1:
        return f"-{-aij}->"
    return f"<-{-aji}-"


def _component_lines(d: SatakeDiagram, offset: int) -> list[str]:
    bonds = {(i, j): (aij, aji) for i, j, aij, aji in _edges(d.lie_type)}
    # the one bond off the chain, D_n's (n-2, n) or E_n's (3, n): node n hangs below
    branch = next((bond for bond in bonds if bond[1] != bond[0] + 1), None)
    chain = range(1, d.lie_type.rank + (branch is None))

    def marker(node: int) -> str:
        return "*" if offset + node in d.black else "o"

    row = marker(chain[0])
    for prev, cur in zip(chain, chain[1:]):
        row += _bond(*bonds.get((prev, cur), (0, 0))) + marker(cur)
    labels = ""
    for pos, node in enumerate(chain):
        # the label's 5-column slot, or one space past a longer label before it
        column = max(5 * pos, len(labels) + 1) if pos else 0
        labels += " " * (column - len(labels)) + str(offset + node)
    lines = [row, labels]
    if branch is not None:
        attach, node = branch
        column = 5 * (attach - 1)
        lines.append(" " * column + "|")
        lines.append(" " * column + marker(node) + " " + str(offset + node))
    return lines


def ascii_diagram(d: SatakeDiagram) -> str:
    """Plain-text picture: white nodes 'o', black nodes '*', bond labels
    '-k->' pointing from long roots to short ones, arrows listed below."""
    lines: list[str] = []
    n = d.lie_type.rank
    for component in range(d.components):
        if d.components > 1:
            lines.append(f"component {component + 1}:")
        lines.extend(_component_lines(d, component * n))
    arrows = sorted(d.arrows)
    lines.append(
        "arrows: " + (", ".join(f"{i}<->{j}" for i, j in arrows) if arrows else "none")
    )
    black = sorted(d.black)
    lines.append("black:  " + (" ".join(str(i) for i in black) if black else "none"))
    return "\n".join(lines)
