"""Shared fixtures: the full diagram database, and independent oracles
for the engine's combinatorics that the package itself does not need: an
exact linear-algebra rank oracle with cone membership tests for weight
vectors, a union-find node-class oracle, root enumeration and a Weyl
brute force for -w0 up to rank 5, a Weyl-descent oracle for -w0, and a
permutation search deciding whether two products of Satake diagrams are
isomorphic."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from ahrank.cones import NodePartition, WeightedDynkinDiagram
from ahrank.rootsys import LieType, NodePermutation, canonical_types, cartan_matrix, iota
from ahrank.satake import RealFormSpec, SatakeDiagram, real_forms, satake_of


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
    images = iota(d.lie_type).images
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


def matches(w: WeightedDynkinDiagram, d: SatakeDiagram) -> bool:
    """Black nodes weigh 0 and arrow-paired nodes weigh the same."""
    return (
        len(w.weights) == d.node_count
        and all(w.weights[i - 1] == 0 for i in d.black)
        and all(w.weights[i - 1] == w.weights[j - 1] for i, j in d.arrows)
    )


def iota_fixed(w: WeightedDynkinDiagram, d: SatakeDiagram) -> bool:
    """Invariance under the longest-element involution, per component."""
    return len(w.weights) == d.node_count and all(
        w.weights[i - 1] == w.weights[j - 1] for i, j in iota_pairs(d)
    )


# ---------------------------------------------------------------------------
# union-find node-class oracle

def union_find_partition(d: SatakeDiagram, pairs) -> NodePartition:
    """Classes of the equivalence generated by ``pairs``, by a plain
    union-find, sorted by least node; a class is forced when it holds a
    black node."""
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
    forced = tuple(any(node in d.black for node in cls) for cls in classes)
    return NodePartition(tuple(classes), forced)


# ---------------------------------------------------------------------------
# root enumeration and Weyl brute force

#: positive_roots() enumerates root systems up to this rank.
ROOT_ENUMERATION_BOUND = 8

#: longest_element_negation() enumerates Weyl groups up to this rank
#: (largest supported group: W(B5), order 3840).
WEYL_ENUMERATION_BOUND = 5


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

def descent_negation(t: LieType) -> tuple[NodePermutation, int]:
    """The node permutation induced by -w0, and the length of w0, found by
    descending from a regular dominant weight.

    Starting from the Dynkin labels (1, 2, ..., n), apply a simple
    reflection s_i at any coordinate with lambda_i > 0 until the weight is
    antidominant (Bourbaki, Lie Groups VI 1.6; Humphreys, Reflection Groups
    and Coxeter Groups 1.8).  Each step lengthens the Weyl element by one,
    so the walk ends at w0(lambda) = -sigma(lambda) after |Phi+| steps; the
    labels are distinct, so the end point determines sigma.  The labels
    (1, ..., 1) would not do: sigma fixes them.
    """
    cartan = cartan_matrix(t)
    n = t.rank
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
    return NodePermutation(tuple(-label for label in weight)), steps


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
