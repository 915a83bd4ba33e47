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

Families and parameter conventions
----------------------------------
==============   ==========================   =========================
family           parameters                   algebra
==============   ==========================   =========================
sl_R             (n,), n >= 2                 sl(n, R)
su_star          (2n,), 2n >= 4               su*(2n) = sl(n, H)
su_pq            (p, q), p, q >= 1            su(p, q)
so_pq            (p, q), p, q >= 1, p+q >= 3  so(p, q)
sp_R             (n,), n >= 1                 sp(n, R)
sp_pq            (p, q), p, q >= 1            sp(p, q)
so_star          (2n,), 2n >= 4               so*(2n)
e6_I .. e6_IV    ()                           real forms of E6
e7_V .. e7_VII   ()                           real forms of E7
e8_VIII, e8_IX   ()                           real forms of E8
f4_I, f4_II      ()                           real forms of F4
g2_split         ()                           split G2
compact_X        (rank,)                      compact form of X_rank
complex_X        (rank,)                      X_rank(C) viewed as real
==============   ==========================   =========================

Doubled diagrams number the second copy after the first: nodes 1..n and
n+1..2n, with arrows (i, n+i).
"""

from __future__ import annotations

from .rootsys import LieType, Record, cartan_matrix


class InvalidRealFormError(ValueError):
    """Parameters outside a real-form family's domain."""


class RealFormSpec(Record):
    """Symbolic name of a real form: family label plus integer parameters."""

    __slots__ = ("family", "params")

    def __init__(self, family: str, params: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

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
        object.__setattr__(self, "lie_type", lie_type)
        object.__setattr__(self, "black", black)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "components", components)

    @property
    def node_count(self) -> int:
        return self.lie_type.rank * self.components

    def nodes(self) -> range:
        return range(1, self.node_count + 1)


def _sorted_pairs(pairs) -> frozenset[tuple[int, int]]:
    return frozenset((min(i, j), max(i, j)) for i, j in pairs)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidRealFormError(message)


# ---------------------------------------------------------------------------
# family constructors

def _sl_R(n: int) -> SatakeDiagram:
    _require(n >= 2, f"sl(n,R) requires n >= 2, got n={n}")
    return SatakeDiagram(LieType("A", n - 1))


def _su_star(m: int) -> SatakeDiagram:
    _require(m >= 4 and m % 2 == 0, f"su*(2n) requires an even argument >= 4, got {m}")
    return SatakeDiagram(LieType("A", m - 1), black=frozenset(range(1, m, 2)))


def _su_pq(p: int, q: int) -> SatakeDiagram:
    _require(p >= 1 and q >= 1, f"su(p,q) requires p, q >= 1, got ({p},{q})")
    n = p + q
    low = min(p, q)
    arrows = _sorted_pairs((i, n - i) for i in range(1, low + 1) if i < n - i)
    black = frozenset(range(low + 1, n - low))
    return SatakeDiagram(LieType("A", n - 1), black=black, arrows=arrows)


def _so_pq(p: int, q: int) -> SatakeDiagram:
    _require(p >= 1 and q >= 1, f"so(p,q) requires p, q >= 1, got ({p},{q})")
    total = p + q
    _require(total >= 3, f"so(p,q) requires p + q >= 3, got {total}")
    low = min(p, q)
    if total % 2:
        m = total // 2
        return SatakeDiagram(LieType("B", m), black=frozenset(range(low + 1, m + 1)))
    m = total // 2
    if low == m:
        return SatakeDiagram(LieType("D", m))
    if low == m - 1:
        return SatakeDiagram(LieType("D", m), arrows=_sorted_pairs([(m - 1, m)]))
    return SatakeDiagram(LieType("D", m), black=frozenset(range(low + 1, m + 1)))


def _sp_R(n: int) -> SatakeDiagram:
    _require(n >= 1, f"sp(n,R) requires n >= 1, got n={n}")
    return SatakeDiagram(LieType("C", n))


def _sp_pq(p: int, q: int) -> SatakeDiagram:
    _require(p >= 1 and q >= 1, f"sp(p,q) requires p, q >= 1, got ({p},{q})")
    n = p + q
    low = min(p, q)
    black = frozenset(range(1, 2 * low, 2)) | frozenset(range(2 * low + 1, n + 1))
    return SatakeDiagram(LieType("C", n), black=black)


def _so_star(m: int) -> SatakeDiagram:
    _require(m >= 4 and m % 2 == 0, f"so*(2n) requires an even argument >= 4, got {m}")
    n = m // 2
    if n % 2 == 0:
        return SatakeDiagram(LieType("D", n), black=frozenset(range(1, n + 1, 2)))
    return SatakeDiagram(
        LieType("D", n),
        black=frozenset(range(1, n - 1, 2)),
        arrows=_sorted_pairs([(n - 1, n)]),
    )


_ONE_PARAM = {"sl_R": _sl_R, "su_star": _su_star, "sp_R": _sp_R, "so_star": _so_star}
_TWO_PARAM = {"su_pq": _su_pq, "so_pq": _so_pq, "sp_pq": _sp_pq}

#: The exceptional real forms, in enumeration order: family label to
#: (series letter, rank, black nodes, arrow pairs) in chain-first numbering
#: (the E-series branch node carries the highest index).  The label after
#: the underscore is the form's name in the input language.
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
        arrows=_sorted_pairs((i, n + i) for i in range(1, n + 1)),
        components=2,
    )


def _compact(letter: str, rank: int) -> SatakeDiagram:
    t = LieType(letter, rank)
    return SatakeDiagram(t, black=frozenset(range(1, rank + 1)))


def satake_of(spec: RealFormSpec) -> SatakeDiagram:
    """Satake diagram of a real form, built from its family constructor."""
    family, params = spec.family, spec.params
    if family in EXCEPTIONAL:
        _require(params == (), f"{family} takes no parameters, got {params}")
        letter, rank, black, arrows = EXCEPTIONAL[family]
        return SatakeDiagram(
            LieType(letter, rank), black=frozenset(black), arrows=_sorted_pairs(arrows)
        )
    if family in _ONE_PARAM:
        _require(len(params) == 1, f"{family} takes one parameter, got {params}")
        return _ONE_PARAM[family](params[0])
    if family in _TWO_PARAM:
        _require(len(params) == 2, f"{family} takes two parameters, got {params}")
        return _TWO_PARAM[family](params[0], params[1])
    if family.startswith("compact_") or family.startswith("complex_"):
        kind, _, letter = family.partition("_")
        _require(len(params) == 1, f"{family} takes one parameter (the rank), got {params}")
        try:
            t = LieType(letter, params[0])
        except ValueError as exc:
            raise InvalidRealFormError(str(exc)) from exc
        return _compact(letter, params[0]) if kind == "compact" else complex_as_real(t)
    raise InvalidRealFormError(f"unknown real-form family {family!r}")


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
    then the ``_COINCIDENCES`` image; every result has a canonical type."""
    if spec.family in _TWO_PARAM and spec.params != (ordered := tuple(sorted(spec.params))):
        spec = RealFormSpec(spec.family, ordered)
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
        forms.append(RealFormSpec("compact_A", (n,)))
    elif t.letter == "B":
        total = 2 * n + 1
        forms.extend(RealFormSpec("so_pq", (p, total - p)) for p in range(1, n + 1))
        forms.append(RealFormSpec("compact_B", (n,)))
    elif t.letter == "C":
        forms.append(RealFormSpec("sp_R", (n,)))
        forms.extend(RealFormSpec("sp_pq", (p, n - p)) for p in range(1, n // 2 + 1))
        forms.append(RealFormSpec("compact_C", (n,)))
    elif t.letter == "D":
        total = 2 * n
        forms.extend(RealFormSpec("so_pq", (p, total - p)) for p in range(1, n + 1))
        forms.append(RealFormSpec("so_star", (total,)))
        forms.append(RealFormSpec("compact_D", (n,)))
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
        "numbering": "bourbaki",
    }


# ---------------------------------------------------------------------------
# ASCII rendering

def _chain_layout(t: LieType) -> tuple[list[int], tuple[int, int] | None]:
    """Chain node order plus optional (attach position in chain, branch node)."""
    n = t.rank
    if t.letter == "D" and n >= 3:
        return list(range(1, n)), (n - 2, n)
    if t.letter == "E":
        return list(range(1, n)), (3, n)
    return list(range(1, n + 1)), None


def _bond(cartan, i: int, j: int) -> str:
    aij = cartan[i - 1][j - 1]
    aji = cartan[j - 1][i - 1]
    if aij == 0:
        return "    "
    if aij == -1 and aji == -1:
        return "----"
    if aij < -1:
        return f"-{-aij}->"
    return f"<-{-aji}-"


def _component_lines(d: SatakeDiagram, offset: int) -> list[str]:
    t = d.lie_type
    cartan = cartan_matrix(t)
    chain, branch = _chain_layout(t)

    def marker(node: int) -> str:
        return "*" if offset + node in d.black else "o"

    row = marker(chain[0])
    for prev, cur in zip(chain, chain[1:]):
        row += _bond(cartan, prev, cur) + marker(cur)
    labels = ""
    for pos, node in enumerate(chain):
        column = 5 * pos
        text = str(offset + node)
        labels += " " * (column - len(labels)) + text
    lines = [row, labels]
    if branch is not None:
        attach, node = branch
        column = 5 * (chain.index(attach))
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
