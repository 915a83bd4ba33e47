"""Simple complex Lie algebra types, in exact integer arithmetic.

Diagram bonds (the nonzero off-diagonal Cartan matrix entries), the five
exceptional types (``EXCEPTIONAL_TYPES``), the list of types up to a rank
bound with each isomorphism class once, and the one closed form of the
diagram involution induced by -w0 (the negated longest Weyl element): the
run of nodes it reverses in place.
The root enumeration and Weyl group searches that check ``iota`` are test
oracles in ``tests/conftest.py``.
``Record``, the base of the package's value records and of their JSON
form, lives here, at the bottom of the package's imports.

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

import enum
from operator import attrgetter

SERIES = "ABCDEFG"
#: The exceptional types as (series letter, rank).
EXCEPTIONAL_TYPES = (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


class Record:
    """Immutable value record: a subclass names its fields in ``__slots__``.
    Fields are filled through ``_setters``, each slot descriptor's ``__set__``,
    which bypass only the assignment guard.  This ``__init__`` takes them by
    position; a class calls the setters itself only for defaults, checks, or a
    constructor every query runs (``TraceStep``, ``Decision``,
    ``AlgebraExpression``), where this one costs about 0.5 us more: 1.0
    against 0.5 us for five fields (timeit, Python 3.11.7, 2-core host).
    Records of one class compare and hash by their field values."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values) -> None:
        for setter, value in zip(self._setters, values, strict=True):
            setter(self, value)

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

    def to_dict(self) -> dict:
        """The fields by name, records converted recursively, enums as their
        ``.value`` and tuples as lists: the JSON form of the result records."""
        return {name: _plain(getattr(self, name)) for name in self.__slots__}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(map(_plain, value))
    return value.value if isinstance(value, enum.Enum) else value


class LieType(Record):
    """A simple complex type: series letter A-G plus rank.

    D2 and D3 are accepted (they coincide with A1 x A1 and A3) so that the
    so(p, q) family can be built uniformly; ``canonical_types`` leaves them
    out, with B1, C1 and C2.
    """

    __slots__ = ("letter", "rank")

    def __init__(self, letter: str, rank: int) -> None:
        if len(letter) != 1 or letter not in SERIES:
            raise ValueError(f"unknown series {letter!r}; expected one of {SERIES}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if letter == "D" and rank < 2:
            raise ValueError("type D requires rank >= 2")
        if letter in "EFG" and (letter, rank) not in EXCEPTIONAL_TYPES:
            names = ", ".join(f"{e}{r}" for e, r in EXCEPTIONAL_TYPES)
            raise ValueError(f"no exceptional type {letter}{rank}; expected one of {names}")
        set_letter, set_rank = self._setters
        set_letter(self, letter)
        set_rank(self, rank)

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


def _edges(t: LieType) -> tuple[tuple[int, int, int, int], ...]:
    """Diagram bonds as (i, j, a_ij, a_ji) with a_ij = <alpha_i, alpha_j^v>."""
    n = t.rank

    def chain(i: int) -> tuple[int, int, int, int]:
        return (i, i + 1, -1, -1)

    if t.letter == "A":
        return tuple(chain(i) for i in range(1, n))
    if t.letter in "BC":
        last = (n - 1, n, -2, -1) if t.letter == "B" else (n - 1, n, -1, -2)
        return tuple(chain(i) for i in range(1, n - 1)) + (last,) if n > 1 else ()
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


def canonical_types(rank_bound: int) -> list[LieType]:
    """Every simple type up to the rank bound, once per isomorphism class:
    A >= 1, B >= 2, C >= 3, D >= 4 (lower ranks duplicate earlier series),
    then the ``EXCEPTIONAL_TYPES``."""
    types = [
        LieType(letter, rank)
        for letter, least in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
        for rank in range(least, rank_bound + 1)
    ]
    types += [LieType(letter, rank) for letter, rank in EXCEPTIONAL_TYPES if rank <= rank_bound]
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
