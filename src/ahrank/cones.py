"""Convex-cone combinatorics on Satake diagrams.

Tuples of nonnegative node weights, in node order, parametrize the closed
Weyl chamber.  A weight tuple "matches" a Satake diagram when black nodes
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

from collections.abc import Iterator, Sequence

from .rootsys import Record, iota
from .satake import RealFormSpec, SatakeDiagram, canonical, real_rank, satake_of


class NodePartition(Record):
    """Partition of diagram nodes; a class is forced to weight zero exactly
    when it contains a black node.  Classes are sorted by least node."""

    __slots__ = ("classes", "forced")

    def free_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c, f in zip(self.classes, self.forced) if not f)

    @property
    def free_count(self) -> int:
        return self.forced.count(False)


def _orbits(d: SatakeDiagram, sigma: Sequence[int]) -> Iterator[list[int]]:
    """Orbits of the nodes under the arrow involution and ``sigma`` (a
    1-based node image array), found by one walk in increasing node order,
    so each class starts at its least node.  Each class is yielded as an
    unsorted list: counting needs no more."""
    arrow = list(range(d.node_count + 1))
    for i, j in d.arrows:
        arrow[i], arrow[j] = j, i
    seen = [False] * len(arrow)
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
        yield cls


def _partition(d: SatakeDiagram, sigma: Sequence[int]) -> NodePartition:
    classes = tuple(tuple(sorted(cls)) for cls in _orbits(d, sigma))
    black = d.black
    return NodePartition(classes, tuple(not black.isdisjoint(cls) for cls in classes))


def matching_classes(d: SatakeDiagram) -> NodePartition:
    """Arrow-orbit classes; the free ones index a basis of the matching cone,
    so the free count equals the real rank."""
    return _partition(d, range(d.node_count + 1))


def _iota_image(d: SatakeDiagram, images: tuple[int, ...]) -> list[int]:
    """1-based image array of the longest-element involution ``images`` on
    the whole diagram, applied per component on doubled diagrams (index 0
    unused)."""
    if d.components == 1:
        return [0, *images]
    n = d.lie_type.rank
    return [0] + [offset + j for offset in range(0, d.node_count, n) for j in images]


def antipodal_classes(d: SatakeDiagram) -> NodePartition:
    """Classes generated jointly by the arrows and the longest-element
    involution (applied per component on doubled diagrams)."""
    return _partition(d, _iota_image(d, iota(d.lie_type)))


def a_hyperbolic_rank(d: SatakeDiagram) -> int:
    """Dimension of the involution-fixed subcone: free antipodal classes,
    counted without listing them.  Where the involution is the identity the
    antipodal classes are the matching classes, so this is the real rank."""
    images = iota(d.lie_type)
    if images == tuple(range(1, len(images) + 1)):
        return real_rank(d)
    return sum(map(d.black.isdisjoint, _orbits(d, _iota_image(d, images))))


def b_plus_generators(d: SatakeDiagram) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of the involution-fixed cone: one 0/1 node-weight tuple
    per free antipodal class, ordered by least node index."""
    return tuple(
        tuple(int(node in cls) for node in d.nodes())
        for cls in antipodal_classes(d).free_classes()
    )


class RankProfile(Record):
    """The pair (real rank, a-hyperbolic rank) of a reductive algebra."""

    __slots__ = ("real_rank", "a_hyperbolic_rank")

    def __init__(self, real_rank: int, a_hyperbolic_rank: int) -> None:
        object.__setattr__(self, "real_rank", real_rank)
        object.__setattr__(self, "a_hyperbolic_rank", a_hyperbolic_rank)
        if not 0 <= a_hyperbolic_rank <= real_rank:
            raise ValueError(
                f"need 0 <= a-hyperbolic rank <= real rank, got {self!r}"
            )


class ReductiveAlgebra(Record):
    """A reductive real Lie algebra: simple factors plus abelian center,
    the center split into compact and split dimensions.  Each factor is
    replaced by its ``satake.canonical`` image and the factors are kept
    sorted, so isomorphic algebras compare equal, hash equal and render
    equal, however they were built."""

    __slots__ = ("simple_factors", "compact_center_dim", "split_center_dim")

    def __init__(
        self,
        simple_factors: tuple[RealFormSpec, ...] = (),
        compact_center_dim: int = 0,
        split_center_dim: int = 0,
    ) -> None:
        factors = (image for spec in simple_factors for image in canonical(spec))
        ordered = tuple(sorted(factors, key=lambda s: (s.family, s.params)))
        object.__setattr__(self, "simple_factors", ordered)
        object.__setattr__(self, "compact_center_dim", compact_center_dim)
        object.__setattr__(self, "split_center_dim", split_center_dim)
        if compact_center_dim < 0 or split_center_dim < 0:
            raise ValueError("center dimensions must be nonnegative")
        if not ordered and not (compact_center_dim or split_center_dim):
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
