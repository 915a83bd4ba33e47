"""Cone combinatorics: node classes, both ranks, generators, profiles."""

from __future__ import annotations

import itertools

import pytest
from conftest import (
    antipodal_equations,
    database_specs,
    iota_fixed,
    iota_pairs,
    matches,
    matching_equations,
    restricted_ranks,
    solution_dimension,
    union_find_partition,
)

from ahrank import cones
from ahrank.catalog import anomaly_scan, verify_table1
from ahrank.cones import (
    RankProfile,
    ReductiveAlgebra,
    _memo_profile,
    a_hyperbolic_rank,
    antipodal_classes,
    b_plus_generators,
    matching_classes,
    rank_profile,
)
from ahrank.rootsys import LieType, canonical_types, iota, iota_run
from ahrank.satake import (
    InvalidRealFormError,
    RealFormSpec,
    SatakeDiagram,
    complex_as_real,
    real_forms,
    real_rank,
    satake_of,
)


def test_matching_classes_split():
    d = satake_of(RealFormSpec("sl_R", (6,)))  # split A5
    part = matching_classes(d)
    assert part.free_classes() == ((1,), (2,), (3,), (4,), (5,))
    assert part.forced == (False,) * 5


def test_matching_classes_e6_iv():
    part = matching_classes(satake_of(RealFormSpec("e6_IV")))
    assert part.free_classes() == ((1,), (5,))
    forced = [node for cls, f in zip(part.classes, part.forced) if f for node in cls]
    assert sorted(forced) == [2, 3, 4, 6]


def test_matching_classes_su12():
    part = matching_classes(satake_of(RealFormSpec("su_pq", (1, 2))))
    assert part.free_classes() == ((1, 2),)


def test_matching_free_count_is_real_rank(database):
    for spec, diagram in database:
        assert matching_classes(diagram).free_count == real_rank(diagram), spec


def test_antipodal_classes_e6_iv():
    part = antipodal_classes(satake_of(RealFormSpec("e6_IV")))
    assert part.free_classes() == ((1, 5),)


def test_antipodal_classes_split_d5():
    part = antipodal_classes(satake_of(RealFormSpec("so_pq", (5, 5))))
    assert part.free_classes() == ((1,), (2,), (3,), (4, 5))


def test_antipodal_classes_compact():
    part = antipodal_classes(satake_of(RealFormSpec("compact_E", (6,))))
    assert part.free_count == 0
    assert all(part.forced)


def test_a_hyperbolic_rank_examples():
    assert a_hyperbolic_rank(satake_of(RealFormSpec("sl_R", (10,)))) == 5
    assert a_hyperbolic_rank(satake_of(RealFormSpec("su_star", (14,)))) == 3
    assert a_hyperbolic_rank(satake_of(RealFormSpec("e6_I"))) == 4


def test_b_plus_generators_e6_iv():
    gens = b_plus_generators(satake_of(RealFormSpec("e6_IV")))
    assert list(gens) == [(1, 0, 0, 0, 1, 0)]


def test_b_plus_generators_compact_empty():
    assert b_plus_generators(satake_of(RealFormSpec("compact_C", (3,)))) == ()


def test_b_plus_generators_split_a3():
    gens = b_plus_generators(satake_of(RealFormSpec("sl_R", (4,))))
    assert list(gens) == [(1, 0, 1), (0, 1, 0)]


def test_generator_properties(database):
    for spec, diagram in database:
        gens = b_plus_generators(diagram)
        assert len(gens) == a_hyperbolic_rank(diagram), spec
        for g in gens:
            assert matches(g, diagram), spec
            assert iota_fixed(g, diagram), spec
            assert set(g) <= {0, 1}


def test_ahyp_at_most_real(database):
    for spec, diagram in database:
        assert a_hyperbolic_rank(diagram) <= real_rank(diagram), spec


def test_trivial_involution_gives_equality(database):
    for spec, diagram in database:
        images = iota(diagram.lie_type)
        if images == tuple(range(1, len(images) + 1)):
            assert a_hyperbolic_rank(diagram) == real_rank(diagram), spec


def test_identity_test_reads_only_the_ends():
    # a_hyperbolic_rank takes iota as the identity exactly when its reversed
    # run is empty
    extra = [LieType("A", 1), LieType("D", 3), LieType("D", 401), LieType("A", 801)]
    for t in [*canonical_types(60), *extra]:
        images = iota(t)
        assert (not iota_run(t)) == (images == tuple(range(1, t.rank + 1))), t


def test_rank_linear_algebra_oracle(database):
    # the free class counts of the orbit walk must agree with the dimension
    # of the exact rational solution space of the defining linear constraints
    for spec, diagram in database:
        n = diagram.node_count
        assert solution_dimension(n, matching_equations(diagram)) == real_rank(diagram), spec
        assert solution_dimension(n, antipodal_equations(diagram)) == a_hyperbolic_rank(
            diagram
        ), spec


def test_classes_match_union_find_oracle():
    diagrams = [satake_of(spec) for t in canonical_types(30) for spec in real_forms(t)]
    diagrams += [complex_as_real(t) for t in canonical_types(12)]
    for d in diagrams:
        arrows = sorted(d.arrows)
        assert matching_classes(d) == union_find_partition(d, arrows), d
        assert antipodal_classes(d) == union_find_partition(d, arrows + iota_pairs(d)), d


def test_count_only_rank_equals_listed_free_classes():
    # a_hyperbolic_rank counts the classes that antipodal_classes lists; the
    # types include every one where -w0 is the identity and no walk is made
    # (B, C, even D, E7, E8, F4, G2), on their own and doubled
    diagrams = [satake_of(spec) for t in canonical_types(40) for spec in real_forms(t)]
    diagrams += [complex_as_real(t) for t in canonical_types(12)]
    # black sets that -w0 does not preserve, so classes mix black and white
    diagrams += [
        SatakeDiagram(LieType("A", 5), black=frozenset(black))
        for size in range(6)
        for black in itertools.combinations(range(1, 6), size)
    ]
    for d in diagrams:
        assert a_hyperbolic_rank(d) == antipodal_classes(d).free_count, d


def _preconditions(d: SatakeDiagram) -> tuple[bool, bool]:
    """Whether -w0, applied per component, maps the black nodes onto
    themselves, and whether it commutes with the arrow involution."""
    n = d.lie_type.rank
    images = iota(d.lie_type)
    iota_of = {
        offset + i: offset + images[i - 1]
        for offset in range(0, d.node_count, n)
        for i in range(1, n + 1)
    }
    arrow_of = {node: node for node in d.nodes()} | dict(d.arrows)
    arrow_of |= {j: i for i, j in d.arrows}
    return (
        {iota_of[node] for node in d.black} == d.black,
        all(arrow_of[iota_of[node]] == iota_of[arrow_of[node]] for node in d.nodes()),
    )


def _walk_calls(monkeypatch) -> list[SatakeDiagram]:
    """Record each diagram that the class walk is started on."""
    calls = []
    walk = cones._orbits

    def recorded(d, sigma):
        calls.append(d)
        return walk(d, sigma)

    monkeypatch.setattr(cones, "_orbits", recorded)
    return calls


def test_count_preconditions_hold_on_database(monkeypatch):
    # the Burnside count needs -w0 to map the black nodes onto themselves
    # and to commute with the arrows; every diagram of the database has
    # both, so its a-hyperbolic rank is counted with no walk
    diagrams = [satake_of(spec) for t in canonical_types(40) for spec in real_forms(t)]
    diagrams += [complex_as_real(t) for t in canonical_types(12)]
    walked = _walk_calls(monkeypatch)
    for d in diagrams:
        assert _preconditions(d) == (True, True), d
        a_hyperbolic_rank(d)
    assert walked == []


def test_rank_falls_back_to_the_walk_outside_the_preconditions(monkeypatch):
    # every single arrow on A5, D5 and E6, most of which -w0 does not map
    # to an arrow, and doubled A3 with a kept arrow under every black set,
    # most of which -w0 does not keep
    diagrams = [
        SatakeDiagram(t, arrows=frozenset([pair]))
        for t in (LieType("A", 5), LieType("D", 5), LieType("E", 6))
        for pair in itertools.combinations(range(1, t.rank + 1), 2)
    ]
    diagrams += [
        SatakeDiagram(LieType("A", 3), frozenset(black), frozenset([(2, 5)]), components=2)
        for size in range(5)
        for black in itertools.combinations((1, 3, 4, 6), size)
    ]
    kept = {d: _preconditions(d) for d in diagrams}
    assert kept[SatakeDiagram(LieType("A", 5), arrows=frozenset([(1, 2)]))] == (True, False)
    assert sum(k == (False, True) for k in kept.values()) == 12
    assert (False, False) not in kept.values()
    walked = _walk_calls(monkeypatch)
    for d in diagrams:
        assert a_hyperbolic_rank(d) == antipodal_classes(d).free_count, d
    # one walk per listing, and one per rank outside the preconditions
    assert len(walked) == len(diagrams) + sum(k != (True, True) for k in kept.values())


def test_ranks_match_restricted_root_oracle():
    # the paper's ranks are counts on the restricted root system: simple
    # roots for the real rank, -w0 orbits on them for the a-hyperbolic rank;
    # every real form up to rank 8 (E6-E8 included) and complex doubles
    for spec in database_specs(rank_bound=8, doubled_rank_bound=4):
        d = satake_of(spec)
        assert restricted_ranks(d) == (real_rank(d), a_hyperbolic_rank(d)), spec


def test_complex_as_real_ranks():
    d = complex_as_real(LieType("A", 2))
    assert real_rank(d) == 2
    assert a_hyperbolic_rank(d) == 1
    d = complex_as_real(LieType("E", 6))
    assert (real_rank(d), a_hyperbolic_rank(d)) == (6, 4)
    d = complex_as_real(LieType("B", 3))
    assert (real_rank(d), a_hyperbolic_rank(d)) == (3, 3)


def test_rank_profile_examples():
    alg = ReductiveAlgebra((RealFormSpec("sl_R", (3,)), RealFormSpec("sl_R", (7,))))
    assert rank_profile(alg) == RankProfile(8, 4)
    alg = ReductiveAlgebra((RealFormSpec("su_pq", (2, 1)),), compact_center_dim=1)
    assert rank_profile(alg) == RankProfile(1, 1)
    alg = ReductiveAlgebra((), split_center_dim=2)
    assert rank_profile(alg) == RankProfile(2, 0)


def test_rank_profile_additive():
    left = (RealFormSpec("su_pq", (2, 3)), RealFormSpec("sp_R", (4,)))
    right = (RealFormSpec("e6_IV"), RealFormSpec("so_star", (10,)))
    combined = rank_profile(ReductiveAlgebra(left + right, 1, 2))
    a = rank_profile(ReductiveAlgebra(left, 1, 0))
    b = rank_profile(ReductiveAlgebra(right, 0, 2))
    assert combined == RankProfile(
        a.real_rank + b.real_rank, a.a_hyperbolic_rank + b.a_hyperbolic_rank
    )
    before = _memo_profile.cache_info()
    again = rank_profile(ReductiveAlgebra(left + right, 1, 2))
    after = _memo_profile.cache_info()
    assert again == combined
    assert (after.hits - before.hits, after.misses - before.misses) == (4, 0)


def test_catalog_sweeps_bypass_the_profile_memo():
    before = _memo_profile.cache_info()
    anomaly_scan(12)
    verify_table1(20)
    assert _memo_profile.cache_info() == before


def test_profile_memo_keeps_no_failed_factor():
    alg = ReductiveAlgebra((RealFormSpec("sl_R", (1,)),))
    before = _memo_profile.cache_info()
    for _ in range(2):
        with pytest.raises(InvalidRealFormError):
            rank_profile(alg)
    after = _memo_profile.cache_info()
    assert after.currsize == before.currsize
    assert after.misses - before.misses == 2


def test_rank_profile_invariant():
    with pytest.raises(ValueError):
        RankProfile(1, 2)
    with pytest.raises(ValueError):
        RankProfile(-1, -1)


def test_reductive_algebra_invariants():
    with pytest.raises(ValueError):
        ReductiveAlgebra(())
    a = ReductiveAlgebra((RealFormSpec("sl_R", (7,)), RealFormSpec("sl_R", (3,))))
    b = ReductiveAlgebra((RealFormSpec("sl_R", (3,)), RealFormSpec("sl_R", (7,))))
    assert a == b  # factor order is normalized
