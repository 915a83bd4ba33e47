"""Simple complex Lie algebra types, in exact integer arithmetic.

Cartan matrices, the list of types up to a rank bound with each isomorphism
class once, and the one closed form of the diagram involution induced by -w0
(the negated longest Weyl element): the run of nodes it reverses in place.
The root enumeration and Weyl group searches that check ``iota`` are test
oracles in ``tests/conftest.py``.
``Record``, the base of the package's value records, lives here, at the
bottom of the package's imports.

Node numbering
--------------
Classical types and F4/G2 follow the Bourbaki convention::

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) -2-> n        (node n short)
    C_n   1 - 2 - ... - (n-1) <-2- n        (node n long)
    D_n   1 - 2 - ... - (n-2) < {n-1, n}    (fork)
    F_4   1 - 2 -2-> 3 - 4                  (1, 2 long; 3, 4 short)
    G_2   1 <-3- 2                          (1 short, 2 long)

The E series is numbered chain-first: nodes 1..n-1 form the long chain and
the branch node n hangs off node 3::

    E_n   1 - 2 - 3 - 4 - ... - (n-1)
                  |
                  n

Weight vectors are serialized in this node order throughout the package.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

SERIES = "ABCDEFG"


class Record:
    """Immutable value record: a subclass names its fields in ``__slots__``.
    This ``__init__`` takes them by position; a class with defaults, checks
    or a hot constructor sets them itself with ``object.__setattr__``.
    Records of one class compare and hash by their field values."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class LieType(Record):
    """A simple complex type: series letter A-G plus rank.

    D2 and D3 are accepted (they coincide with A1 x A1 and A3) so that the
    so(p, q) family can be built uniformly; ``canonical_types`` leaves them
    out, with B1, C1 and C2.
    """

    __slots__ = ("letter", "rank")

    def __init__(self, letter: str, rank: int) -> None:
        if letter not in SERIES:
            raise ValueError(f"unknown series {letter!r}; expected one of {SERIES}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if letter == "D" and rank < 2:
            raise ValueError("type D requires rank >= 2")
        if letter == "E" and rank not in (6, 7, 8):
            raise ValueError("type E requires rank in {6, 7, 8}")
        if letter == "F" and rank != 4:
            raise ValueError("type F requires rank 4")
        if letter == "G" and rank != 2:
            raise ValueError("type G requires rank 2")
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "rank", rank)

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def _edges(t: LieType) -> tuple[tuple[int, int, int, int], ...]:
    """Diagram bonds as (i, j, a_ij, a_ji) with a_ij = <alpha_i, alpha_j^v>."""
    n = t.rank

    def chain(i: int) -> tuple[int, int, int, int]:
        return (i, i + 1, -1, -1)

    if t.letter == "A":
        return tuple(chain(i) for i in range(1, n))
    if t.letter == "B":
        if n == 1:
            return ()
        return tuple(chain(i) for i in range(1, n - 1)) + ((n - 1, n, -2, -1),)
    if t.letter == "C":
        if n == 1:
            return ()
        return tuple(chain(i) for i in range(1, n - 1)) + ((n - 1, n, -1, -2),)
    if t.letter == "D":
        if n == 2:
            return ()
        return tuple(chain(i) for i in range(1, n - 2)) + (
            (n - 2, n - 1, -1, -1),
            (n - 2, n, -1, -1),
        )
    if t.letter == "E":
        return tuple(chain(i) for i in range(1, n - 1)) + ((3, n, -1, -1),)
    if t.letter == "F":
        return ((1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1))
    return ((1, 2, -1, -3),)  # G2


@lru_cache(maxsize=None)
def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with a_ij = <alpha_i, alpha_j^v>, in the node order above."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, aij, aji in _edges(t):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji
    return tuple(tuple(row) for row in a)


def canonical_types(rank_bound: int) -> list[LieType]:
    """Every simple type up to the rank bound, once per isomorphism class:
    A >= 1, B >= 2, C >= 3, D >= 4 (lower ranks duplicate earlier series),
    then E6, E7, E8, F4 and G2."""
    types = [
        LieType(letter, rank)
        for letter, least in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
        for rank in range(least, rank_bound + 1)
    ]
    types += [
        LieType(letter, rank)
        for letter, rank in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))
        if rank <= rank_bound
    ]
    return types


def iota_run(t: LieType) -> range:
    """The run of nodes that the involution induced by negating the longest
    Weyl element reverses in place, fixing every other node: the chain of
    A_n with n >= 2, the fork pair of D_n with n odd, and the long chain of
    E6.  It is empty, and the involution the identity, for every other type.
    So the involution fixes n - len(run) + len(run) % 2 nodes."""
    n = t.rank
    if t.letter == "A" and n > 1:
        return range(1, n + 1)
    if t.letter == "D" and n % 2 == 1:
        return range(n - 1, n + 1)
    if t.letter == "E" and n == 6:
        return range(1, 6)
    return range(1, 1)


def iota(t: LieType) -> tuple[int, ...]:
    """The involution induced by negating the longest Weyl element, as the
    1-based images of the nodes: ``iota_run`` reversed in place."""
    run = iota_run(t)
    return (*range(1, run.start), *reversed(run), *range(run.stop, t.rank + 1))
