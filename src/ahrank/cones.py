"""Convex-cone combinatorics on Satake diagrams.

Tuples of nonnegative node weights, in node order, parametrize the closed
Weyl chamber.  A weight tuple "matches" a Satake diagram when black nodes
carry weight 0 and arrow-paired nodes carry equal weights; the matching
vectors form a simplicial cone whose dimension is the real rank.  Closing
the node classes further under the longest-element involution cuts out the
subcone fixed by it; the number of surviving free classes is the
a-hyperbolic rank, and the 0/1 indicator vectors of those classes are the
extreme rays of that subcone.

The a-hyperbolic rank is counted without walking the classes.  The
involution reverses one run of nodes (``rootsys.iota_run``); where that run
is empty it is the identity and the a-hyperbolic rank is the real rank.
Otherwise, on a Satake diagram, it maps the black nodes onto themselves and
every arrow onto an arrow, so it permutes the real-rank many white arrow
classes, and by Burnside's lemma its orbits number (real rank + F) / 2,
where F counts the classes it fixes.  A diagram built by hand that breaks
either condition is counted by the walk that lists the classes.

For semisimple and reductive algebras both ranks add over simple factors;
a split abelian center adds to the real rank only.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import eq

from .rootsys import Record, iota, iota_run
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


def _iota_image(d: SatakeDiagram) -> list[int]:
    """1-based image array of the longest-element involution on the whole
    diagram, applied per component on doubled diagrams (index 0 unused)."""
    images = iota(d.lie_type)
    if d.components == 1:
        return [0, *images]
    n = d.lie_type.rank
    return [0] + [offset + j for offset in range(0, d.node_count, n) for j in images]


def antipodal_classes(d: SatakeDiagram) -> NodePartition:
    """Classes generated jointly by the arrows and the longest-element
    involution (applied per component on doubled diagrams)."""
    return _partition(d, _iota_image(d))


def a_hyperbolic_rank(d: SatakeDiagram) -> int:
    """Dimension of the involution-fixed subcone: the number of free
    antipodal classes.  Where the involution's reversed run is empty it is
    the identity, these are the matching classes, and this is the real rank.
    Otherwise, when the involution maps ``d.black`` onto itself and every
    arrow onto an arrow, it permutes the white arrow classes, and the count
    is (real rank + F) / 2 with F the classes it fixes: the unpaired white
    nodes it fixes, and the arrows (i, j) whose i it sends to i or j.  Like
    ``real_rank``, this takes arrows to join white nodes.  Any other
    diagram is counted by walking its classes."""
    run = iota_run(d.lie_type)
    if not run:
        return real_rank(d)
    image = _iota_image(d)
    black, arrows = d.black, d.arrows
    lefts, rights = zip(*arrows) if arrows else ((), ())
    left_images = list(map(image.__getitem__, lefts))
    arrow_images = zip(left_images, map(image.__getitem__, rights))
    if not (
        black.issuperset(map(image.__getitem__, black))
        and arrows.union(zip(rights, lefts)).issuperset(arrow_images)
    ):
        return sum(map(black.isdisjoint, _orbits(d, image)))
    # the fixed white nodes, less one per arrow fixed pointwise (one fixed
    # class for its two fixed nodes), plus one per arrow reversed
    fixed = d.components * (d.lie_type.rank - len(run) + len(run) % 2)
    fixed -= sum(map(eq, map(image.__getitem__, black), black))
    fixed += sum(map(eq, left_images, rights)) - sum(map(eq, left_images, lefts))
    return (real_rank(d) + fixed) // 2


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


@lru_cache(maxsize=2048)
def _memo_profile(family: str, params: tuple[int, ...]) -> RankProfile:
    """``factor_profile`` remembered per process for the algebra queries,
    where most factors repeat.  The key is the plain ``(family, params)``
    tuple, which hashes and compares far faster than a ``RealFormSpec``.
    Only the key and the immutable profile are kept, and a spec that fails
    to build is not.  The catalog sweeps call ``factor_profile`` directly:
    their forms never repeat, so a memo would only cost them time and
    memory."""
    return factor_profile(RealFormSpec(family, params))


def rank_profile(alg: ReductiveAlgebra) -> RankProfile:
    """Both ranks add over simple factors; a split center adds to the real
    rank, a compact center to neither."""
    real = alg.split_center_dim
    ahyp = 0
    for spec in alg.simple_factors:
        profile = _memo_profile(spec.family, spec.params)
        real += profile.real_rank
        ahyp += profile.a_hyperbolic_rank
    return RankProfile(real, ahyp)
