"""Convex-cone combinatorics on Satake diagrams.

Tuples of nonnegative node weights, in node order, parametrize the closed
Weyl chamber.  A weight tuple "matches" a Satake diagram when black nodes
carry weight 0 and arrow-paired nodes carry equal weights; the matching
vectors form a simplicial cone whose dimension is the real rank.  Closing
the node classes further under the longest-element involution cuts out the
subcone fixed by it; the number of surviving free classes is the
a-hyperbolic rank, and the 0/1 indicator vectors of those classes are the
extreme rays of that subcone.

``a_hyperbolic_rank`` walks the classes, so it is exact on any diagram.
``factor_profile`` counts instead, on the diagrams ``satake_of`` builds.
The involution reverses one run of nodes (``rootsys.iota_run``), sending a
node x of it to ``run.start + run.stop - 1 - x``, and fixes every other
node.  On every Satake diagram it maps the black nodes onto themselves and
every arrow onto an arrow (Araki 1962), so it permutes the real-rank many
white arrow classes, and by Burnside's lemma its orbits number
(real rank + F) / 2, where F counts the classes it fixes.  F is read off
the run: the fixed nodes, less the fixed black ones, plus one per arrow
reversed in place, less one per arrow fixed pointwise (one class for its
two fixed nodes).  On a doubled diagram, which has no black node and the
arrows (i, n + i), F is the number of nodes fixed on one component.

For semisimple and reductive algebras both ranks add over simple factors;
a split abelian center adds to the real rank only.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .rootsys import Record, iota, iota_run
from .satake import RealFormSpec, SatakeDiagram, canonical, real_rank, satake_of


def _free_classes(d: SatakeDiagram, sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The node classes under the arrow involution and ``sigma`` (a 1-based
    node image array) that hold no black node, each sorted, by least node.
    One walk in increasing node order finds them, so each class starts at
    its least node."""
    arrow = list(range(d.node_count + 1))
    for i, j in d.arrows:
        arrow[i], arrow[j] = j, i
    seen = [False] * len(arrow)
    black, free = d.black, []
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
        if black.isdisjoint(cls):
            free.append(tuple(sorted(cls)))
    return tuple(free)


def matching_classes(d: SatakeDiagram) -> tuple[tuple[int, ...], ...]:
    """Free arrow-orbit classes; they index a basis of the matching cone,
    so they number the real rank."""
    return _free_classes(d, range(d.node_count + 1))


def antipodal_classes(d: SatakeDiagram) -> tuple[tuple[int, ...], ...]:
    """Free classes generated jointly by the arrows and the longest-element
    involution, ``rootsys.iota`` lifted to each component (index 0 of the
    image array unused)."""
    image = iota(d.lie_type)
    offsets = range(0, d.node_count, d.lie_type.rank)
    return _free_classes(d, [0, *(offset + j for offset in offsets for j in image)])


def a_hyperbolic_rank(d: SatakeDiagram) -> int:
    """Dimension of the involution-fixed subcone: the number of free
    antipodal classes, found by walking them, so any diagram, one built by
    hand included, gets its exact count.  Like ``real_rank``, this takes
    arrows to join white nodes."""
    return len(antipodal_classes(d))


def _a_hyperbolic_count(d: SatakeDiagram, real: int) -> int:
    """``a_hyperbolic_rank(d)`` for a diagram ``satake_of`` builds, given
    ``real``, its real rank, by the Burnside count of the module docstring."""
    run = iota_run(d.lie_type)
    if not (run and real):
        return real
    n = d.lie_type.rank
    fixed = n - len(run) + len(run) % 2  # the nodes -w0 fixes on one component
    if d.components == 2:
        return (real + fixed) // 2
    mirror = run.start + run.stop - 1  # -w0 sends x in the run to mirror - x
    black = d.black
    if len(run) < n:  # the black nodes off the run (none on A_n) are fixed
        fixed -= len(black) - len(black.intersection(run))
    fixed -= len(run) % 2 == 1 and mirror // 2 in black  # so is a black middle
    for i, j in d.arrows:
        if i + j == mirror:  # reversed in place: one fixed class
            fixed += 1
        elif i not in run or 2 * i == mirror:  # fixed pointwise: one class, two fixed nodes
            fixed -= 1
    return (real + fixed) // 2


def b_plus_generators(d: SatakeDiagram) -> tuple[tuple[int, ...], ...]:
    """Extreme rays of the involution-fixed cone: one 0/1 node-weight tuple
    per free antipodal class, ordered by least node index."""
    return tuple(
        tuple(int(node in cls) for node in d.nodes())
        for cls in antipodal_classes(d)
    )


class RankProfile(Record):
    """The pair (real rank, a-hyperbolic rank) of a reductive algebra."""

    __slots__ = ("real_rank", "a_hyperbolic_rank")

    def __init__(self, real_rank: int, a_hyperbolic_rank: int) -> None:
        set_real_rank, set_a_hyperbolic_rank = self._setters
        set_real_rank(self, real_rank)
        set_a_hyperbolic_rank(self, a_hyperbolic_rank)
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
        ordered = tuple(sorted(factors, key=RealFormSpec._values))
        set_simple_factors, set_compact_center_dim, set_split_center_dim = self._setters
        set_simple_factors(self, ordered)
        set_compact_center_dim(self, compact_center_dim)
        set_split_center_dim(self, split_center_dim)
        if compact_center_dim < 0 or split_center_dim < 0:
            raise ValueError("center dimensions must be nonnegative")
        if not ordered and not (compact_center_dim or split_center_dim):
            raise ValueError("empty factor list requires a positive center dimension")

    @property
    def sole_factor(self) -> RealFormSpec | None:
        """The one simple factor of a simple algebra (one factor, no
        center), else ``None``."""
        if len(self.simple_factors) != 1 or self.compact_center_dim or self.split_center_dim:
            return None
        return self.simple_factors[0]


def factor_profile(spec: RealFormSpec) -> RankProfile:
    d = satake_of(spec)
    real = real_rank(d)
    return RankProfile(real, _a_hyperbolic_count(d, real))


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
