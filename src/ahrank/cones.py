"""Convex-cone combinatorics on Satake diagrams.

Weighted Dynkin diagrams with nonnegative weights parametrize the closed
Weyl chamber.  A weight vector "matches" a Satake diagram when black nodes
carry weight 0 and arrow-paired nodes carry equal weights; the matching
vectors form a simplicial cone whose dimension is the real rank.  Closing
the node classes further under the longest-element involution cuts out the
subcone fixed by it; the number of surviving free classes is the
a-hyperbolic rank, and the 0/1 indicator vectors of those classes are the
extreme rays of that subcone.

For semisimple and reductive algebras both ranks add over simple factors;
a split abelian center adds to the real rank only.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .rootsys import iota
from .satake import RealFormSpec, SatakeDiagram, canonical, real_rank, satake_of


@dataclass(frozen=True)
class NodePartition:
    """Partition of diagram nodes; a class is forced to weight zero exactly
    when it contains a black node.  Classes are sorted by least node."""

    classes: tuple[tuple[int, ...], ...]
    forced: tuple[bool, ...]

    def free_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c, f in zip(self.classes, self.forced) if not f)

    @property
    def free_count(self) -> int:
        return self.forced.count(False)


def _orbits(d: SatakeDiagram, sigma: Sequence[int]) -> NodePartition:
    """Orbits of the nodes under the arrow involution and ``sigma`` (a
    1-based node image array), found by one walk in increasing node order,
    so each class starts at its least node."""
    arrow = list(range(d.node_count + 1))
    for i, j in d.arrows:
        arrow[i], arrow[j] = j, i
    seen = [False] * len(arrow)
    black = d.black
    classes = []
    forced = []
    for node in d.nodes():
        if seen[node]:
            continue
        seen[node] = True
        cls = [node]
        for member in cls:
            image = arrow[member]
            if not seen[image]:
                seen[image] = True
                cls.append(image)
            image = sigma[member]
            if not seen[image]:
                seen[image] = True
                cls.append(image)
        cls.sort()
        classes.append(tuple(cls))
        forced.append(not black.isdisjoint(cls))
    return NodePartition(tuple(classes), tuple(forced))


def matching_classes(d: SatakeDiagram) -> NodePartition:
    """Arrow-orbit classes; the free ones index a basis of the matching cone,
    so the free count equals the real rank."""
    return _orbits(d, range(d.node_count + 1))


def _iota_image(d: SatakeDiagram) -> list[int]:
    """1-based image array of the longest-element involution on the whole
    diagram, applied per component on doubled diagrams (index 0 unused)."""
    images = iota(d.lie_type).images
    n = d.lie_type.rank
    return [0] + [offset + j for offset in range(0, d.node_count, n) for j in images]


def antipodal_classes(d: SatakeDiagram) -> NodePartition:
    """Classes generated jointly by the arrows and the longest-element
    involution (applied per component on doubled diagrams)."""
    return _orbits(d, _iota_image(d))


def a_hyperbolic_rank(d: SatakeDiagram) -> int:
    """Dimension of the involution-fixed subcone: free antipodal classes."""
    return antipodal_classes(d).free_count


@dataclass(frozen=True)
class WeightedDynkinDiagram:
    """Nonnegative weights on diagram nodes, in node order."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights):
            raise ValueError(f"weights must be nonnegative: {self.weights}")


def b_plus_generators(d: SatakeDiagram) -> tuple[WeightedDynkinDiagram, ...]:
    """Extreme rays of the involution-fixed cone, one 0/1 indicator diagram
    per free antipodal class, ordered by least node index."""
    generators = []
    for cls in antipodal_classes(d).free_classes():
        members = set(cls)
        weights = tuple(1 if node in members else 0 for node in d.nodes())
        generators.append(WeightedDynkinDiagram(weights))
    return tuple(generators)


@dataclass(frozen=True)
class RankProfile:
    """The pair (real rank, a-hyperbolic rank) of a reductive algebra."""

    real_rank: int
    a_hyperbolic_rank: int

    def __post_init__(self) -> None:
        if not 0 <= self.a_hyperbolic_rank <= self.real_rank:
            raise ValueError(
                f"need 0 <= a-hyperbolic rank <= real rank, got {self!r}"
            )

    def __add__(self, other: "RankProfile") -> "RankProfile":
        return RankProfile(
            self.real_rank + other.real_rank,
            self.a_hyperbolic_rank + other.a_hyperbolic_rank,
        )


@dataclass(frozen=True)
class ReductiveAlgebra:
    """A reductive real Lie algebra: simple factors plus abelian center,
    the center split into compact and split dimensions.  Each factor is
    replaced by its ``satake.canonical`` image and the factors are kept
    sorted, so isomorphic algebras compare equal, hash equal and render
    equal, however they were built."""

    simple_factors: tuple[RealFormSpec, ...] = ()
    compact_center_dim: int = 0
    split_center_dim: int = 0

    def __post_init__(self) -> None:
        factors = (image for spec in self.simple_factors for image in canonical(spec))
        ordered = tuple(sorted(factors, key=lambda s: (s.family, s.params)))
        object.__setattr__(self, "simple_factors", ordered)
        if self.compact_center_dim < 0 or self.split_center_dim < 0:
            raise ValueError("center dimensions must be nonnegative")
        if not self.simple_factors and not (self.compact_center_dim or self.split_center_dim):
            raise ValueError("empty factor list requires a positive center dimension")


def factor_profile(spec: RealFormSpec) -> RankProfile:
    d = satake_of(spec)
    return RankProfile(real_rank(d), a_hyperbolic_rank(d))


def rank_profile(alg: ReductiveAlgebra) -> RankProfile:
    """Both ranks add over simple factors; a split center adds to the real
    rank, a compact center to neither."""
    real = alg.split_center_dim
    ahyp = 0
    for spec in alg.simple_factors:
        profile = factor_profile(spec)
        real += profile.real_rank
        ahyp += profile.a_hyperbolic_rank
    return RankProfile(real, ahyp)
