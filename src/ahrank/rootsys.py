"""Simple complex Lie algebra types, in exact integer arithmetic.

Cartan matrices, the list of types up to a rank bound with each isomorphism
class once, and the closed form of the diagram involution induced by -w0
(the negated longest Weyl element).  The root enumeration and Weyl group
searches that check ``iota`` are test oracles in ``tests/conftest.py``.

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

from dataclasses import dataclass
from functools import lru_cache

SERIES = "ABCDEFG"


@dataclass(frozen=True, order=True)
class LieType:
    """A simple complex type: series letter A-G plus rank.

    D2 and D3 are accepted (they coincide with A1 x A1 and A3) so that the
    so(p, q) family can be built uniformly; ``canonical_types`` leaves them
    out, with B1, C1 and C2.
    """

    letter: str
    rank: int

    def __post_init__(self) -> None:
        if self.letter not in SERIES:
            raise ValueError(f"unknown series {self.letter!r}; expected one of {SERIES}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.letter == "D" and self.rank < 2:
            raise ValueError("type D requires rank >= 2")
        if self.letter == "E" and self.rank not in (6, 7, 8):
            raise ValueError("type E requires rank in {6, 7, 8}")
        if self.letter == "F" and self.rank != 4:
            raise ValueError("type F requires rank 4")
        if self.letter == "G" and self.rank != 2:
            raise ValueError("type G requires rank 2")

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


@dataclass(frozen=True)
class NodePermutation:
    """Permutation of diagram nodes, stored as 1-based images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")


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


def iota(t: LieType) -> NodePermutation:
    """Closed form of the involution induced by negating the longest Weyl
    element.

    Nontrivial exactly for A_n (chain reversal), D_n with n odd (fork
    swap), and E6 (chain reversal fixing the branch node); the identity for
    every other type.
    """
    n = t.rank
    if t.letter == "A":
        return NodePermutation(tuple(n + 1 - i for i in range(1, n + 1)))
    if t.letter == "D" and n % 2 == 1:
        images = list(range(1, n + 1))
        images[n - 2], images[n - 1] = n, n - 1
        return NodePermutation(tuple(images))
    if t.letter == "E" and n == 6:
        return NodePermutation((5, 4, 3, 2, 1, 6))
    return NodePermutation(tuple(range(1, n + 1)))
