"""Shared fixtures: the full diagram database, and independent oracles
for the engine's combinatorics: an exact linear-algebra rank oracle, a
union-find node-class oracle and a Weyl-descent oracle for -w0."""

from __future__ import annotations

from fractions import Fraction

import pytest

from ahrank.cones import NodePartition
from ahrank.rootsys import LieType, NodePermutation, cartan_matrix, iota
from ahrank.satake import RealFormSpec, SatakeDiagram, real_forms, satake_of


def canonical_types(rank_bound: int) -> list[LieType]:
    types = [LieType("A", r) for r in range(1, rank_bound + 1)]
    types += [LieType("B", r) for r in range(2, rank_bound + 1)]
    types += [LieType("C", r) for r in range(3, rank_bound + 1)]
    types += [LieType("D", r) for r in range(4, rank_bound + 1)]
    types += [
        LieType(letter, r)
        for letter, r in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
        if r <= rank_bound
    ]
    return types


def database_specs(rank_bound: int = 9, complex_rank_bound: int = 4) -> list[RealFormSpec]:
    """Every real form of every canonical simple type up to the rank bound,
    plus complex algebras viewed as real up to the component rank bound."""
    specs: list[RealFormSpec] = []
    for t in canonical_types(rank_bound):
        specs.extend(real_forms(t))
    for t in canonical_types(complex_rank_bound):
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
    sigma = iota(d.lie_type)
    return [
        (offset + i, offset + sigma(i))
        for offset in range(0, d.node_count, n)
        for i in range(1, n + 1)
        if sigma(i) > i
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
