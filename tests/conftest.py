"""Shared fixtures: the full diagram database, and independent oracles for
the engine's combinatorics that the package itself does not need: Cartan
matrices built from the diagram bonds, a diagram validator checking
black nodes and arrows against the diagram automorphisms, an exact
linear-algebra rank oracle with cone membership tests for weight tuples,
a union-find node-class oracle, root enumeration and a Weyl brute force
for -w0 up to rank 5, a Weyl-descent oracle for -w0, both ranks from the
restricted root system, the anomaly scan over every real form of every
type, a permutation search deciding whether two products of Satake
diagrams are isomorphic, a character-by-character reference lexer for
algebra expressions, and the example families of homogeneous spaces with
their recorded verdicts."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from ahrank.catalog import FamilyRow
from ahrank.cones import ReductiveAlgebra, factor_profile, rank_profile
from ahrank.decision import Verdict, decide
from ahrank.notation import _MAX_INT_DIGITS, ParseError, parse
from ahrank.rootsys import LieType, Record, _edges, canonical_types, iota
from ahrank.satake import RealFormSpec, SatakeDiagram, real_forms, satake_of


@lru_cache(maxsize=None)
def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with a_ij = <alpha_i, alpha_j^v>, in the package's node
    order, from the diagram bonds."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in _edges(t):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
    return tuple(tuple(row) for row in a)


def database_specs(rank_bound: int = 9, doubled_rank_bound: int = 4) -> list[RealFormSpec]:
    """Every real form of every canonical simple type up to the rank bound,
    plus complex algebras viewed as real up to the component rank bound."""
    specs: list[RealFormSpec] = []
    for t in canonical_types(rank_bound):
        specs.extend(real_forms(t))
    for t in canonical_types(doubled_rank_bound):
        specs.append(RealFormSpec(f"complex_{t.letter}", (t.rank,)))
    return specs


@pytest.fixture(scope="session")
def database() -> list[tuple[RealFormSpec, SatakeDiagram]]:
    return [(spec, satake_of(spec)) for spec in database_specs()]


# ---------------------------------------------------------------------------
# diagram validator

def _automorphisms(d: SatakeDiagram) -> list[tuple[int, ...]]:
    """Every node permutation preserving the Cartan matrix, as 1-based image
    tuples: -w0 where it is nontrivial (A_n, D_odd, E6), the D_n fork swap
    and D4 triality, applied per copy on doubled diagrams, with or without
    swapping the copies.  A diagram without bonds (rank one, D2 and their
    doubles) is isolated nodes, so every permutation of its nodes counts."""
    t, n = d.lie_type, d.lie_type.rank
    if n == 1 or (t.letter == "D" and n == 2):
        return list(itertools.permutations(d.nodes()))
    identity = tuple(range(1, n + 1))
    own = {identity, iota(t)}
    if t.letter == "D":
        own.add(identity[:-2] + (n, n - 1))
        if n == 4:
            own.update((a, 2, b, c) for a, b, c in itertools.permutations((1, 3, 4)))
    if d.components == 1:
        return sorted(own)
    shifted = {p: tuple(n + i for i in p) for p in own}
    return [a + b for p in own for q in own for a, b in ((p, shifted[q]), (shifted[p], q))]


def validate(d: SatakeDiagram) -> list[str]:
    """Check the diagram invariants; returns a list of violations (empty = ok).

    Black nodes and arrow endpoints must be nodes of the diagram, arrows
    must be ascending pairs joining distinct white nodes in a perfect
    matching of their support, and the arrow involution (the identity on
    unmatched white nodes) must agree with some diagram automorphism on
    the white nodes."""
    problems = []
    nodes = set(d.nodes())
    if not set(d.black) <= nodes:
        problems.append("black node out of range")
    endpoints: set[int] = set()
    structural_ok = True
    for i, j in d.arrows:
        if i == j or i not in nodes or j not in nodes:
            problems.append("arrow endpoints invalid")
            structural_ok = False
            continue
        if i > j:
            problems.append("arrow not stored as an ascending pair")
        if i in endpoints or j in endpoints:
            problems.append("arrow support is not a perfect matching")
            structural_ok = False
        endpoints.update((i, j))
        if i in d.black or j in d.black:
            problems.append("arrow endpoint is black")
            structural_ok = False
    if d.components not in (1, 2):
        problems.append("components must be 1 or 2")
        structural_ok = False
    if structural_ok and not problems:
        target = {i: i for i in d.nodes() if i not in d.black}
        for i, j in d.arrows:
            target[i], target[j] = j, i
        if not any(
            all(perm[i - 1] == image for i, image in target.items())
            for perm in _automorphisms(d)
        ):
            problems.append("arrow not an automorphism")
    return problems


# ---------------------------------------------------------------------------
# exact rational rank oracle

def solution_dimension(n_vars: int, equations: list[list[int]]) -> int:
    """Dimension of the solution space of a homogeneous system over Q,
    by Gaussian elimination with Fractions."""
    rows = [[Fraction(c) for c in eq] for eq in equations]
    rank = 0
    for col in range(n_vars):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [c / lead for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return n_vars - rank


def matching_equations(d: SatakeDiagram) -> list[list[int]]:
    """Linear constraints cutting out the matching subspace: black weights
    vanish, arrow-paired weights agree."""
    n = d.node_count
    equations = []
    for i in sorted(d.black):
        row = [0] * n
        row[i - 1] = 1
        equations.append(row)
    for i, j in sorted(d.arrows):
        row = [0] * n
        row[i - 1] = 1
        row[j - 1] = -1
        equations.append(row)
    return equations


def iota_pairs(d: SatakeDiagram) -> list[tuple[int, int]]:
    """Node pairs exchanged by the longest-element involution, per component."""
    n = d.lie_type.rank
    images = iota(d.lie_type)
    return [
        (offset + i, offset + images[i - 1])
        for offset in range(0, d.node_count, n)
        for i in range(1, n + 1)
        if images[i - 1] > i
    ]


def antipodal_equations(d: SatakeDiagram) -> list[list[int]]:
    """Matching constraints plus invariance under the longest-element
    involution, built from the closed form independently of the orbit walk
    in the engine."""
    total = d.node_count
    equations = matching_equations(d)
    for i, j in iota_pairs(d):
        row = [0] * total
        row[i - 1] = 1
        row[j - 1] = -1
        equations.append(row)
    return equations


def matches(w: tuple[int, ...], d: SatakeDiagram) -> bool:
    """Black nodes weigh 0 and arrow-paired nodes weigh the same."""
    return (
        len(w) == d.node_count
        and all(w[i - 1] == 0 for i in d.black)
        and all(w[i - 1] == w[j - 1] for i, j in d.arrows)
    )


def iota_fixed(w: tuple[int, ...], d: SatakeDiagram) -> bool:
    """Invariance under the longest-element involution, per component."""
    return len(w) == d.node_count and all(w[i - 1] == w[j - 1] for i, j in iota_pairs(d))


# ---------------------------------------------------------------------------
# union-find node-class oracle

def union_find_partition(d: SatakeDiagram, pairs) -> tuple[tuple[int, ...], ...]:
    """Classes of the equivalence generated by ``pairs`` that hold no black
    node, by a plain union-find, each sorted, by least node."""
    parent = list(range(d.node_count + 1))

    def find(node: int) -> int:
        while parent[node] != node:
            node = parent[node]
        return node

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for node in d.nodes():
        groups.setdefault(find(node), []).append(node)
    classes = sorted((tuple(sorted(nodes)) for nodes in groups.values()), key=min)
    return tuple(cls for cls in classes if d.black.isdisjoint(cls))


# ---------------------------------------------------------------------------
# root enumeration and Weyl brute force

#: positive_roots() enumerates root systems up to this rank.
ROOT_ENUMERATION_BOUND = 8

#: longest_element_negation() enumerates Weyl groups up to this rank
#: (largest supported group: W(B5), order 3840).
WEYL_ENUMERATION_BOUND = 5


@dataclass(frozen=True)
class NodePermutation:
    """Permutation of diagram nodes, stored as 1-based images; building one
    checks that the images are a permutation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")


def compose(p: NodePermutation, q: NodePermutation) -> NodePermutation:
    """The permutation applying q first, then p."""
    return NodePermutation(tuple(p.images[j - 1] for j in q.images))


def is_cartan_automorphism(t: LieType, images: tuple[int, ...]) -> bool:
    """Whether the node permutation, given by its 1-based images, preserves
    the Cartan matrix of t, or of the doubled diagram (two copies of t, the
    second numbered after the first) when it moves twice as many nodes."""
    cartan = cartan_matrix(t)
    n = t.rank

    def entry(i: int, j: int) -> int:
        same_copy = (i - 1) // n == (j - 1) // n
        return cartan[(i - 1) % n][(j - 1) % n] if same_copy else 0

    nodes = range(1, len(images) + 1)
    return all(entry(images[i - 1], images[j - 1]) == entry(i, j) for i in nodes for j in nodes)


def _reflect(cartan: tuple[tuple[int, ...], ...], v: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Image of v under the simple reflection s_i, in simple-root coordinates."""
    pairing = sum(c * cartan[j][i - 1] for j, c in enumerate(v))
    out = list(v)
    out[i - 1] -= pairing
    return tuple(out)


def _closure(t: LieType, start, act) -> frozenset:
    """Everything reached from ``start`` by simple reflections, where
    ``act(cartan, x, i)`` applies s_i to x."""
    cartan = cartan_matrix(t)
    found = set(start)
    frontier = list(start)
    while frontier:
        fresh = []
        for x in frontier:
            for i in range(1, t.rank + 1):
                y = act(cartan, x, i)
                if y not in found:
                    found.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(found)


def _simple_roots(t: LieType) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(t.rank)) for i in range(t.rank))


@lru_cache(maxsize=None)
def root_set(t: LieType) -> frozenset[tuple[int, ...]]:
    """All roots, as simple-root coordinate vectors: the reflection closure
    of the simple roots."""
    return _closure(t, _simple_roots(t), _reflect)


def positive_roots(t: LieType) -> frozenset[tuple[int, ...]]:
    """All positive roots (nonnegative coordinates), by reflection closure."""
    if t.rank > ROOT_ENUMERATION_BOUND:
        raise ValueError(f"positive_roots supports rank <= {ROOT_ENUMERATION_BOUND}, got {t}")
    return frozenset(v for v in root_set(t) if all(c >= 0 for c in v))


@lru_cache(maxsize=None)
def _weyl_elements(t: LieType) -> frozenset[tuple[tuple[int, ...], ...]]:
    """The full Weyl group, each element stored by its simple-root images:
    the closure of the identity under left multiplication by s_i."""
    if t.rank > WEYL_ENUMERATION_BOUND:
        raise ValueError(f"Weyl enumeration supports rank <= {WEYL_ENUMERATION_BOUND}, got {t}")
    return _closure(
        t,
        [_simple_roots(t)],
        lambda cartan, w, i: tuple(_reflect(cartan, img, i) for img in w),
    )


def weyl_order(t: LieType) -> int:
    """Order of the Weyl group, by explicit enumeration (rank <= 5)."""
    return len(_weyl_elements(t))


def longest_element_negation(t: LieType) -> NodePermutation:
    """Node permutation induced by X -> -(w0 X), found by brute force.

    Enumerates the Weyl group as the closure of the simple reflections and
    locates the unique element sending every positive root to a negative
    one; negating its action permutes the simple roots.
    """
    longest = [w for w in _weyl_elements(t) if all(all(c <= 0 for c in img) for img in w)]
    assert len(longest) == 1, "the longest element must be unique"
    images = []
    for img in longest[0]:
        negated = tuple(-c for c in img)
        assert sum(negated) == 1 and all(c in (0, 1) for c in negated), (
            "-w0 must permute the simple roots"
        )
        images.append(negated.index(1) + 1)
    return NodePermutation(tuple(images))


# ---------------------------------------------------------------------------
# Weyl-descent oracle for -w0

def weyl_descent(cartan) -> tuple[tuple[int, ...], int]:
    """The 1-based node images of the permutation induced by -w0 on the
    simple roots of the root system with Cartan matrix ``cartan`` (entry
    [i][j] = <alpha_i, alpha_j^v>), and the length of w0, found by
    descending from a regular dominant weight.

    Starting from the Dynkin labels (1, 2, ..., n), apply a simple
    reflection s_i at any coordinate with lambda_i > 0 until the weight is
    antidominant (Bourbaki, Lie Groups VI 1.6; Humphreys, Reflection Groups
    and Coxeter Groups 1.8).  Each step lengthens the Weyl element by one,
    so the walk ends at w0(lambda) = -sigma(lambda) after |Phi+| steps; the
    labels are distinct, so the end point determines sigma.  The labels
    (1, ..., 1) would not do: sigma fixes them.
    """
    n = len(cartan)
    neighbours = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    weight = list(range(1, n + 1))
    pending = list(range(n))
    steps = 0
    while pending:
        i = pending.pop()
        label = weight[i]
        if label <= 0:
            continue
        # s_i(lambda) = lambda - lambda_i alpha_i, and alpha_i has Dynkin
        # labels a_ij (row i of the Cartan matrix)
        weight[i] = -label
        for j in neighbours[i]:
            weight[j] -= label * cartan[i][j]
            if weight[j] > 0:
                pending.append(j)
        steps += 1
    return tuple(-label for label in weight), steps


def descent_negation(t: LieType) -> tuple[NodePermutation, int]:
    """The node permutation induced by -w0 on a simple type, and the length
    of w0, by ``weyl_descent``."""
    images, steps = weyl_descent(cartan_matrix(t))
    return NodePermutation(images), steps


# ---------------------------------------------------------------------------
# restricted root system oracle

def restricted_positive_roots(d: SatakeDiagram) -> frozenset[tuple[int, ...]]:
    """The positive restricted roots of the real form of ``d``, in the
    coordinates of the white arrow classes ordered by least node.  A
    positive root restricts by summing its simple-root coordinates over
    each class; black nodes restrict to 0 (Araki 1962, section 2).  On a
    doubled diagram the roots are those of the two copies."""
    n = d.lie_type.rank
    partner = dict(d.arrows) | {j: i for i, j in d.arrows}
    leaders = {node: min(node, partner.get(node, node)) for node in d.nodes() if node not in d.black}
    order = sorted(set(leaders.values()))
    column = {node: order.index(leader) for node, leader in leaders.items()}
    restricted = set()
    for offset in range(0, d.node_count, n):
        for root in positive_roots(d.lie_type):
            image = [0] * len(order)
            for node, c in enumerate(root, start=offset + 1):
                if node in column:
                    image[column[node]] += c
            if any(image):
                restricted.add(tuple(image))
    return frozenset(restricted)


def restricted_ranks(d: SatakeDiagram) -> tuple[int, int]:
    """(number of restricted simple roots, number of -w0 orbits on them),
    which the paper takes as the real rank and the a-hyperbolic rank, found
    from the restricted root system without ``rootsys.iota``.

    The simple roots are the positive restricted roots that are no sum of
    two others.  The Cartan integer <lambda_i, lambda_j^v> is minus the
    length of the lambda_j-string up from lambda_i, as lambda_i - lambda_j
    is no root; a non-reduced system (type BC) yields the Cartan matrix of
    its indivisible roots, which has the same Weyl group."""
    roots = restricted_positive_roots(d)
    simple = sorted(
        root for root in roots
        if not any(tuple(a - b for a, b in zip(root, other)) in roots for other in roots)
    )

    def up(start: tuple[int, ...], step: tuple[int, ...]) -> int:
        length = 0
        while tuple(a + (length + 1) * b for a, b in zip(start, step)) in roots:
            length += 1
        return length

    cartan = [[2 if i == j else -up(a, b) for j, b in enumerate(simple)] for i, a in enumerate(simple)]
    images, _ = weyl_descent(cartan)
    return len(simple), sum(image >= i for i, image in enumerate(images, start=1))


def full_anomaly_scan(rank_bound: int) -> tuple[RealFormSpec, ...]:
    """``catalog.anomaly_scan`` without its type-level skip: the profile of
    every real form of every canonical type, those where -w0 is the
    identity included."""
    found = []
    for t in canonical_types(rank_bound):
        for spec in real_forms(t):
            profile = factor_profile(spec)
            if profile.a_hyperbolic_rank != profile.real_rank:
                found.append(spec)
    return tuple(sorted(found, key=lambda s: (s.family, s.params)))


# ---------------------------------------------------------------------------
# Satake diagram isomorphism by permutation search

#: isomorphic_diagrams() searches node permutations of products up to this size.
ISOMORPHISM_NODE_BOUND = 8


def _flatten(diagrams: list[SatakeDiagram]):
    """Block Cartan matrix, black flags and arrow partners (each node its own
    partner when it has no arrow) of a product of diagrams, with the nodes
    numbered 0, 1, ... one diagram and one copy after another."""
    cartan: list[list[int]] = []
    black: list[bool] = []
    partner: list[int] = []
    for d in diagrams:
        block = cartan_matrix(d.lie_type)
        n = d.lie_type.rank
        offset = len(black)
        for copy in range(d.components):
            for row in block:
                left = [0] * (offset + copy * n)
                cartan.append(left + list(row) + [0] * ((d.components - copy - 1) * n))
        black.extend(node in d.black for node in d.nodes())
        paired = dict(d.arrows) | {j: i for i, j in d.arrows}
        partner.extend(offset + paired.get(node, node) - 1 for node in d.nodes())
    size = len(black)
    return [row + [0] * (size - len(row)) for row in cartan], black, partner


def isomorphic_diagrams(left: list[SatakeDiagram], right: list[SatakeDiagram]) -> bool:
    """Whether some node permutation carries the block Cartan matrix, the
    black nodes and the arrows of one product of Satake diagrams onto the
    other's.  Tries the permutations image by image, abandoning a partial
    one as soon as a mapped pair of nodes disagrees."""
    cartan_a, black_a, partner_a = _flatten(left)
    cartan_b, black_b, partner_b = _flatten(right)
    size = len(black_a)
    if size > ISOMORPHISM_NODE_BOUND:
        raise ValueError(f"isomorphism search supports <= {ISOMORPHISM_NODE_BOUND} nodes")
    if size != len(black_b):
        return False

    def extend(image: list[int]) -> bool:
        i = len(image)
        if i == size:
            return True
        for x in range(size):
            if x in image or black_b[x] != black_a[i]:
                continue
            image.append(x)
            if (
                all(cartan_b[x][image[k]] == cartan_a[i][k] for k in range(i + 1))
                and all(cartan_b[image[k]][x] == cartan_a[k][i] for k in range(i))
                and (partner_a[i] > i or partner_b[x] == image[partner_a[i]])
                and extend(image)
            ):
                return True
            image.pop()
        return False

    return extend([])


# ---------------------------------------------------------------------------
# reference lexer

_UNICODE_LETTERS = {"ℝ": "r", "ℂ": "c", "ℍ": "h", "ℤ": "z"}


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The expression lexer as one loop over the characters, giving the
    (kind, text, position) tokens ``notation._tokenize`` must give, or
    raising the same ``ParseError``."""
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "×":  # multiplication sign, same role as "x"
            tokens.append(("NAME", "x", i))
            i += 1
            continue
        if ch == "−":  # minus sign
            tokens.append(("SYM", "-", i))
            i += 1
            continue
        if ch.isascii() and ch.isalpha() or ch in _UNICODE_LETTERS:
            start = i
            name = []
            while i < length and (text[i].isascii() and text[i].isalpha() or text[i] in _UNICODE_LETTERS):
                name.append(_UNICODE_LETTERS.get(text[i], text[i].lower()))
                i += 1
            if i < length and text[i] == "*":
                name.append("*")
                i += 1
            tokens.append(("NAME", "".join(name), start))
            continue
        if ch.isdecimal():
            start = i
            while i < length and text[i].isdecimal():
                i += 1
            if i - start > _MAX_INT_DIGITS:
                raise ParseError(f"integer literal longer than {_MAX_INT_DIGITS} digits", start)
            tokens.append(("INT", text[start:i], start))
            continue
        if ch in "(),^/{}[]+-*_":
            tokens.append(("SYM", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", length))
    return tokens


# ---------------------------------------------------------------------------
# homogeneous-space example families, and single Table-2 rows

def _verdict(g: ReductiveAlgebra, h_template: str, params: dict[str, int]) -> Verdict:
    """Run the decision engine on a parsed G and a template for H."""
    return decide(rank_profile(g), rank_profile(parse(h_template, params))).verdict


def row_verdict(row: FamilyRow, params: dict[str, int]) -> Verdict:
    """Instantiate one row and run the decision engine on it."""
    return _verdict(parse(row.g_template, params), row.h_template, params)


class ExampleFamily(Record):
    """A parameterized family of homogeneous spaces with a known verdict,
    plus the smallest parameter choice at which every factor is a genuine
    noncompact algebra."""

    __slots__ = ("label", "g_template", "h_template", "smallest", "expected", "note")

    def __init__(
        self,
        label: str,
        g_template: str,
        h_template: str,
        smallest: dict[str, int],
        expected: str = Verdict.ADMITS_NON_VIRTUALLY_ABELIAN.value,
        note: str | None = None,
    ) -> None:
        Record.__init__(self, label, g_template, h_template, smallest, expected, note)


NO_COMPACT_FORM_FAMILIES: tuple[ExampleFamily, ...] = (
    ExampleFamily(
        "SL(4k+2l,R)/SO(2k,2k)xSp(l,R)",
        "sl(4k+2l,R)",
        "so(2k,2k) x sp(l,R)",
        {"k": 1, "l": 1},
        Verdict.NO_NON_VIRTUALLY_ABELIAN.value,
    ),
    ExampleFamily(
        "SL(2k+2l,R)/Sp(k,R)xSp(l,R)",
        "sl(2k+2l,R)",
        "sp(k,R) x sp(l,R)",
        {"k": 1, "l": 1},
        Verdict.NO_NON_VIRTUALLY_ABELIAN.value,
    ),
    ExampleFamily(
        "SL(4k+4l,R)/SO(2k,2k)xSO(2l,2l)",
        "sl(4k+4l,R)",
        "so(2k,2k) x so(2l,2l)",
        {"k": 1, "l": 1},
        Verdict.NO_NON_VIRTUALLY_ABELIAN.value,
    ),
    ExampleFamily(
        "SL(4k+2l+1,R)/SO(2k,2k)xSO(l,l+1)",
        "sl(4k+2l+1,R)",
        "so(2k,2k) x so(l,l+1)",
        {"k": 1, "l": 1},
        Verdict.NO_NON_VIRTUALLY_ABELIAN.value,
    ),
    ExampleFamily(
        "SU*(4k+2)/U(s,r-s)xSp(t,2k+1-r-t)",
        "su*(4k+2)",
        "u(s,r-s) x sp(t,2k+1-r-t)",
        {"k": 2, "s": 1, "t": 2, "r": 2},
        Verdict.NO_NON_VIRTUALLY_ABELIAN.value,
        note="constraint s+t = k+1, 1 <= r <= 2k+1",
    ),
    ExampleFamily(
        "SU*(4k)/U(s,r-s)xSp(t,2k-r-t)",
        "su*(4k)",
        "u(s,r-s) x sp(t,2k-r-t)",
        {"k": 2, "s": 1, "t": 1, "r": 2},
        Verdict.NO_NON_VIRTUALLY_ABELIAN.value,
        note=(
            "constraint s+t = k, 1 <= r <= 2k; quaternionic dimensions force "
            "the symplectic factor's second argument to be 2k-r-t"
        ),
    ),
)

ADMITTING_FAMILIES: tuple[ExampleFamily, ...] = (
    ExampleFamily(
        "SL(2k+2l+2,R)/SO(k,k+1)xSO(l,l+1)",
        "sl(2k+2l+2,R)",
        "so(k,k+1) x so(l,l+1)",
        {"k": 1, "l": 1},
    ),
    ExampleFamily(
        "SL(2k+2l+2,R)/SO(k,k)xSO(l,l)",
        "sl(2k+2l+2,R)",
        "so(k,k) x so(l,l)",
        {"k": 1, "l": 1},
    ),
    ExampleFamily(
        "E6-I/{SL(3,C)xSU(2,1)}/Z_3",
        "e6(I)",
        "{sl(3,C) x su(2,1)}/Z_3",
        {},
    ),
)


def example_verdict(family: ExampleFamily, params: dict[str, int] | None = None) -> Verdict:
    env = dict(family.smallest)
    env.update(params or {})
    return _verdict(parse(family.g_template, env), family.h_template, env)
