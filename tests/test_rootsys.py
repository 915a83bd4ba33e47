"""Root systems: Cartan matrices and iota, with the root enumeration and
Weyl brute force oracles of conftest checked alongside."""

from __future__ import annotations

import pytest
from conftest import (
    ROOT_ENUMERATION_BOUND,
    NodePermutation,
    compose,
    descent_negation,
    is_cartan_automorphism,
    longest_element_negation,
    positive_roots,
    root_set,
    weyl_order,
)

from ahrank.rootsys import LieType, canonical_types, cartan_matrix, iota, iota_run

ALL_SMALL_TYPES = (
    [LieType("A", r) for r in range(1, 9)]
    + [LieType("B", r) for r in range(2, 9)]
    + [LieType("C", r) for r in range(2, 9)]
    + [LieType("D", r) for r in range(2, 9)]
    + [LieType("E", 6), LieType("E", 7), LieType("E", 8), LieType("F", 4), LieType("G", 2)]
)


def test_cartan_matrix_examples():
    assert cartan_matrix(LieType("A", 1)) == ((2,),)
    assert cartan_matrix(LieType("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(LieType("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(LieType("B", 2)) == ((2, -2), (-1, 2))
    assert cartan_matrix(LieType("C", 2)) == ((2, -1), (-2, 2))


@pytest.mark.parametrize("t", ALL_SMALL_TYPES, ids=str)
def test_cartan_matrix_shape(t):
    a = cartan_matrix(t)
    n = t.rank
    for i in range(n):
        assert a[i][i] == 2
        for j in range(n):
            if i != j:
                assert a[i][j] in (0, -1, -2, -3)
                assert (a[i][j] == 0) == (a[j][i] == 0)


def test_g2_root_closure_oracle():
    # reflection closure of the two simple roots produces the full
    # 12-element root system, hence 6 positive roots
    assert len(root_set(LieType("G", 2))) == 12
    assert len(positive_roots(LieType("G", 2))) == 6


ROOT_COUNTS = [
    ("A", lambda n: n * (n + 1) // 2, range(1, 9)),
    ("B", lambda n: n * n, range(2, 9)),
    ("C", lambda n: n * n, range(2, 9)),
    ("D", lambda n: n * (n - 1), range(2, 9)),
]


@pytest.mark.parametrize(
    "letter,count,ranks", ROOT_COUNTS, ids=[r[0] for r in ROOT_COUNTS]
)
def test_positive_root_counts_classical(letter, count, ranks):
    for n in ranks:
        assert len(positive_roots(LieType(letter, n))) == count(n)


@pytest.mark.parametrize(
    "t,count",
    [
        (LieType("G", 2), 6),
        (LieType("F", 4), 24),
        (LieType("E", 6), 36),
        (LieType("E", 7), 63),
        (LieType("E", 8), 120),
        (LieType("A", 2), 3),
        (LieType("D", 4), 12),
    ],
    ids=str,
)
def test_positive_root_counts_named(t, count):
    assert len(positive_roots(t)) == count


@pytest.mark.parametrize("t", ALL_SMALL_TYPES, ids=str)
def test_positive_roots_nonnegative(t):
    for root in positive_roots(t):
        assert all(c >= 0 for c in root)


def test_positive_roots_rank_bound():
    with pytest.raises(ValueError):
        positive_roots(LieType("A", 9))


def test_weyl_orders():
    assert weyl_order(LieType("A", 2)) == 6
    assert weyl_order(LieType("B", 2)) == 8
    assert weyl_order(LieType("D", 3)) == 24
    assert weyl_order(LieType("B", 5)) == 3840


def test_longest_element_negation_examples():
    assert longest_element_negation(LieType("A", 2)).images == (2, 1)
    assert longest_element_negation(LieType("B", 2)).images == (1, 2)
    # fork nodes of D3 are exchanged
    assert longest_element_negation(LieType("D", 3)).images == (1, 3, 2)


def test_weyl_enumeration_rank_bound():
    with pytest.raises(ValueError):
        longest_element_negation(LieType("E", 6))


BRUTE_FORCE_TYPES = (
    [LieType("A", r) for r in range(1, 6)]
    + [LieType("B", r) for r in range(2, 6)]
    + [LieType("C", r) for r in range(3, 6)]
    + [LieType("D", r) for r in range(2, 6)]
    + [LieType("G", 2), LieType("F", 4)]
)


@pytest.mark.parametrize("t", BRUTE_FORCE_TYPES, ids=str)
def test_iota_matches_brute_force(t):
    assert iota(t) == longest_element_negation(t).images


def test_iota_matches_weyl_descent():
    # A1-A40, B2-B40, C3-C40, D4-D40 and every exceptional type, E6 included
    for t in canonical_types(40):
        negation, steps = descent_negation(t)
        assert iota(t) == negation.images, t
        if t.rank <= ROOT_ENUMERATION_BOUND:
            assert steps == len(positive_roots(t)), t


@pytest.mark.parametrize("t", ALL_SMALL_TYPES, ids=str)
def test_iota_involution_and_automorphism(t):
    sigma = NodePermutation(iota(t))
    assert compose(sigma, sigma).images == tuple(range(1, t.rank + 1))
    assert is_cartan_automorphism(t, sigma.images)


def test_iota_closed_forms():
    assert iota(LieType("A", 5)) == (5, 4, 3, 2, 1)
    assert iota(LieType("E", 6)) == (5, 4, 3, 2, 1, 6)
    assert iota(LieType("F", 4)) == (1, 2, 3, 4)
    assert iota(LieType("D", 4)) == (1, 2, 3, 4)
    assert iota(LieType("D", 5)) == (1, 2, 3, 5, 4)


def test_iota_fixed_points_rule():
    # iota fixes every node outside its reversed run, and the middle node of
    # an odd run
    for t in [*canonical_types(60), LieType("A", 801), LieType("D", 401), LieType("D", 3)]:
        n, run, images = t.rank, iota_run(t), iota(t)
        fixed = tuple(i for i in range(1, n + 1) if images[i - 1] == i)
        middle = (run[len(run) // 2],) if len(run) % 2 else ()
        assert tuple(sorted((*range(1, run.start), *middle, *range(run.stop, n + 1)))) == fixed, t
        assert n - len(run) + len(run) % 2 == len(fixed), t
    # odd D reverses only the fork pair
    assert iota_run(LieType("D", 401)) == range(400, 402)


@pytest.mark.parametrize(
    "t", [LieType("A", 801), LieType("D", 400), LieType("D", 401), LieType("B", 400), LieType("C", 400)],
    ids=str,
)
def test_iota_permutation_involution_at_high_rank(t):
    # past the ranks the descent oracle covers: the closed form must still be
    # a permutation of the nodes (NodePermutation checks it) and an involution
    sigma = NodePermutation(iota(t))
    assert compose(sigma, sigma).images == tuple(range(1, t.rank + 1))


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 0), ("E", 5), ("F", 3), ("G", 4), ("D", 1), ("X", 2)],
)
def test_lie_type_validation(letter, rank):
    with pytest.raises(ValueError):
        LieType(letter, rank)


def test_lie_type_canonical_flag():
    types = canonical_types(8)
    assert LieType("D", 3) not in types
    assert LieType("D", 4) in types
    assert LieType("C", 2) not in types
    assert LieType("E", 6) in types
