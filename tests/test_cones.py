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
from hypothesis import given, settings
from hypothesis import strategies as st

from ahrank import cones
from ahrank.catalog import anomaly_scan, verify_table1
from ahrank.cones import (
    RankProfile,
    ReductiveAlgebra,
    _memo_profile,
    a_hyperbolic_rank,
    antipodal_classes,
    b_plus_generators,
    factor_profile,
    matching_classes,
    rank_profile,
)
from ahrank.rootsys import EXCEPTIONAL_TYPES, LieType, canonical_types, iota, iota_run
from ahrank.satake import (
    FAMILIES,
    MAX_PARAMETER,
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
    assert matching_classes(d) == ((1,), (2,), (3,), (4,), (5,))


def test_matching_classes_e6_iv():
    assert matching_classes(satake_of(RealFormSpec("e6_IV"))) == ((1,), (5,))


def test_matching_classes_su12():
    assert matching_classes(satake_of(RealFormSpec("su_pq", (1, 2)))) == ((1, 2),)


def test_matching_free_count_is_real_rank(database):
    for spec, diagram in database:
        assert len(matching_classes(diagram)) == real_rank(diagram), spec


def test_antipodal_classes_e6_iv():
    assert antipodal_classes(satake_of(RealFormSpec("e6_IV"))) == ((1, 5),)


def test_antipodal_classes_split_d5():
    assert antipodal_classes(satake_of(RealFormSpec("so_pq", (5, 5)))) == ((1,), (2,), (3,), (4, 5))


def test_antipodal_classes_compact():
    assert antipodal_classes(satake_of(RealFormSpec("compact_E", (6,)))) == ()


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
        assert len(gens) == factor_profile(spec).a_hyperbolic_rank, spec
        for g in gens:
            assert matches(g, diagram), spec
            assert iota_fixed(g, diagram), spec
            assert set(g) <= {0, 1}


def test_ahyp_at_most_real(database):
    for spec, diagram in database:
        profile = factor_profile(spec)
        assert profile.a_hyperbolic_rank <= profile.real_rank == real_rank(diagram), spec


def test_trivial_involution_gives_equality(database):
    for spec, diagram in database:
        images = iota(diagram.lie_type)
        if images == tuple(range(1, len(images) + 1)):
            assert a_hyperbolic_rank(diagram) == real_rank(diagram), spec


def test_identity_test_reads_only_the_ends():
    # the count takes iota as the identity exactly when its reversed run
    # is empty
    extra = [LieType("A", 1), LieType("D", 3), LieType("D", 401), LieType("A", 801)]
    for t in [*canonical_types(60), *extra]:
        images = iota(t)
        assert (not iota_run(t)) == (images == tuple(range(1, t.rank + 1))), t


def test_rank_linear_algebra_oracle(database):
    # both ranks of the profile must agree with the dimension of the exact
    # rational solution space of the defining linear constraints
    for spec, diagram in database:
        n = diagram.node_count
        profile = factor_profile(spec)
        assert solution_dimension(n, matching_equations(diagram)) == profile.real_rank, spec
        assert solution_dimension(n, antipodal_equations(diagram)) == profile.a_hyperbolic_rank, spec


def test_classes_match_union_find_oracle():
    diagrams = [satake_of(spec) for t in canonical_types(30) for spec in real_forms(t)]
    diagrams += [complex_as_real(t) for t in canonical_types(12)]
    for d in diagrams:
        arrows = sorted(d.arrows)
        assert matching_classes(d) == union_find_partition(d, arrows), d
        assert antipodal_classes(d) == union_find_partition(d, arrows + iota_pairs(d)), d


def test_count_only_rank_equals_listed_free_classes():
    # a_hyperbolic_rank counts the classes that the union-find oracle
    # lists; the types include every one where -w0 is the identity (B, C,
    # even D, E7, E8, F4, G2), on their own and doubled
    diagrams = [satake_of(spec) for t in canonical_types(40) for spec in real_forms(t)]
    diagrams += [complex_as_real(t) for t in canonical_types(12)]
    # black sets that -w0 does not preserve, so classes mix black and white
    diagrams += [
        SatakeDiagram(LieType("A", 5), black=frozenset(black))
        for size in range(6)
        for black in itertools.combinations(range(1, 6), size)
    ]
    for d in diagrams:
        pairs = sorted(d.arrows) + iota_pairs(d)
        assert a_hyperbolic_rank(d) == len(union_find_partition(d, pairs)), d


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
    walk = cones._free_classes

    def recorded(d, sigma):
        calls.append(d)
        return walk(d, sigma)

    monkeypatch.setattr(cones, "_free_classes", recorded)
    return calls


def _image_calls(monkeypatch) -> list[LieType]:
    """Record each type whose -w0 image ``cones`` reads."""
    calls = []
    build = cones.iota

    def recorded(t):
        calls.append(t)
        return build(t)

    monkeypatch.setattr(cones, "iota", recorded)
    return calls


def test_factor_profile_counts_both_ranks_as_the_diagram_functions():
    # the profile counts the a-hyperbolic rank from the run; the public
    # function walks the classes
    for spec in database_specs(rank_bound=40, doubled_rank_bound=12):
        d = satake_of(spec)
        assert factor_profile(spec) == RankProfile(real_rank(d), a_hyperbolic_rank(d)), spec


def test_count_preconditions_hold_on_database(monkeypatch):
    # the Burnside count needs -w0 to map the black nodes onto themselves
    # and to commute with the arrows, and it takes every doubled diagram
    # for complex_as_real's; every diagram of the database has all three,
    # and its profile is counted with no walk and no image array
    walked = _walk_calls(monkeypatch)
    built = _image_calls(monkeypatch)
    for spec in database_specs(rank_bound=40, doubled_rank_bound=12):
        d = satake_of(spec)
        assert _preconditions(d) == (True, True), d
        assert d.components == 1 or d == complex_as_real(d.lie_type), d
        factor_profile(spec)
    assert (walked, built) == ([], [])


def test_real_rank_zero_reads_no_node():
    # a compact form's real rank 0 forces an a-hyperbolic rank of 0, which
    # the count returns before it reads the black nodes or the arrows
    for t in (LieType("A", 5), LieType("A", 6), LieType("D", 7), LieType("E", 6)):
        for components in (1, 2):
            assert cones._a_hyperbolic_count(SatakeDiagram(t, None, None, components), 0) == 0, t


def test_ranks_match_restricted_root_oracle():
    # the paper's ranks are counts on the restricted root system: simple
    # roots for the real rank, -w0 orbits on them for the a-hyperbolic rank;
    # every real form up to rank 8 (E6-E8 included) and complex doubles
    for spec in database_specs(rank_bound=8, doubled_rank_bound=4):
        assert factor_profile(spec) == RankProfile(*restricted_ranks(satake_of(spec))), spec


#: The restricted root system of each exceptional form, as (series, rank)
#: (Helgason 1978, Ch. X, Table VI).
EXCEPTIONAL_SIGMA = {
    "e6_I": ("E", 6),
    "e6_II": ("F", 4),
    "e6_III": ("BC", 2),
    "e6_IV": ("A", 2),
    "e7_V": ("E", 7),
    "e7_VI": ("F", 4),
    "e7_VII": ("C", 3),
    "e8_VIII": ("E", 8),
    "e8_IX": ("F", 4),
    "f4_I": ("F", 4),
    "f4_II": ("BC", 1),
    "g2_split": ("G", 2),
}


def _restricted_root_system(spec: RealFormSpec) -> tuple[str, int]:
    """The series and rank of the restricted root system of a real form,
    from its family and parameters alone (Helgason 1978, Ch. X, Table VI);
    a compact form has the empty system."""
    family, params = spec.family, spec.params
    if family in EXCEPTIONAL_SIGMA:
        return EXCEPTIONAL_SIGMA[family]
    kind, _, letter = family.partition("_")
    if kind == "compact":
        return ("", 0)
    if kind == "complex":
        return (letter, params[0])
    if family == "sl_R":
        return ("A", params[0] - 1)
    if family == "su_star":
        return ("A", params[0] // 2 - 1)
    if family == "sp_R":
        return ("C", params[0])
    if family == "so_star":
        n = params[0] // 2
        return ("BC", (n - 1) // 2) if n % 2 else ("C", n // 2)
    p, q = sorted(params)
    if family == "so_pq":
        return ("D" if p == q else "B", p)
    return ("C" if p == q else "BC", p)  # su(p,q) and sp(p,q)


def _swapped_pairs(series: str, rank: int) -> int:
    """The pairs of simple roots that -w0 swaps on a root system."""
    if series == "A":
        return rank // 2
    if series == "D" and rank % 2:
        return 1
    return 2 if (series, rank) == ("E", 6) else 0


def _admitted_params(family: str) -> st.SearchStrategy[tuple[int, ...]]:
    """The parameters ``satake_of`` admits for a family, from [1, MAX_PARAMETER]."""
    count = FAMILIES[family][0]
    if count == 0:
        return st.just(())
    kind, _, letter = family.partition("_")
    if kind in ("compact", "complex"):
        if letter in "EFG":
            return st.sampled_from([(rank,) for series, rank in EXCEPTIONAL_TYPES if series == letter])
        return st.tuples(st.integers(2 if letter == "D" else 1, MAX_PARAMETER))
    if family in ("su_star", "so_star"):
        return st.tuples(st.integers(2, MAX_PARAMETER // 2).map(lambda n: 2 * n))
    if family == "sl_R":
        return st.tuples(st.integers(2, MAX_PARAMETER))
    if count == 1:
        return st.tuples(st.integers(1, MAX_PARAMETER))
    # q anywhere, or within 2 of p, where so(p, q) has its fork arrow
    pairs = st.integers(1, MAX_PARAMETER).flatmap(lambda p: st.tuples(st.just(p), st.one_of(
        st.integers(1, MAX_PARAMETER), st.integers(max(p - 2, 1), min(p + 2, MAX_PARAMETER))
    )))
    return pairs.filter(lambda pq: sum(pq) >= 3) if family == "so_pq" else pairs


@settings(derandomize=True, deadline=None, max_examples=20)
@given(data=st.data())
def test_ranks_match_restricted_root_system_closed_forms(data):
    # the real rank is the rank of the restricted root system and the
    # a-hyperbolic rank the number of -w0 orbits on its simple roots; read
    # off the family and parameters alone, with no Satake diagram.  Each
    # example draws one spec of every family, so each family gets its own
    # parameters
    for family in FAMILIES:
        spec = RealFormSpec(family, data.draw(_admitted_params(family), label=family))
        series, rank = _restricted_root_system(spec)
        assert factor_profile(spec) == RankProfile(rank, rank - _swapped_pairs(series, rank)), spec


def test_complex_as_real_ranks():
    assert factor_profile(RealFormSpec("complex_A", (2,))) == RankProfile(2, 1)
    assert factor_profile(RealFormSpec("complex_E", (6,))) == RankProfile(6, 4)
    assert factor_profile(RealFormSpec("complex_B", (3,))) == RankProfile(3, 3)


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



@st.composite
def hand_built_diagrams(draw) -> SatakeDiagram:
    """A type where -w0 moves nodes (A, odd D, E6, rank <= 9) on one or two
    components, a random black set, and a random matching of the white
    nodes as ascending arrows; -w0 preserves few of them."""
    t = draw(st.sampled_from(
        [LieType("A", n) for n in range(2, 10)] + [LieType("D", n) for n in (3, 5, 7, 9)] + [LieType("E", 6)]
    ))
    components = draw(st.sampled_from((1, 2)))
    nodes = range(1, t.rank * components + 1)
    black = draw(st.frozensets(st.sampled_from(nodes)))
    white = draw(st.permutations([node for node in nodes if node not in black]))
    pairs = draw(st.integers(0, len(white) // 2))
    arrows = frozenset(tuple(sorted(white[2 * k:2 * k + 2])) for k in range(pairs))
    return SatakeDiagram(t, black, arrows, components)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(hand_built_diagrams())
def test_count_equals_listed_free_classes_on_hand_built_diagrams(d):
    arrows = sorted(d.arrows)
    assert antipodal_classes(d) == union_find_partition(d, arrows + iota_pairs(d))
    assert a_hyperbolic_rank(d) == len(antipodal_classes(d))
    assert matching_classes(d) == union_find_partition(d, arrows)


@st.composite
def symmetric_diagrams(draw) -> SatakeDiagram:
    """One component of a type where -w0 moves nodes (A2-A11, odd D3-D9,
    E6), a union of -w0 orbits as black nodes, and arrows that -w0 maps
    onto arrows: each white orbit is left alone, reversed in place if it is
    a pair, or joined to another white orbit of its size, a pair to a pair
    either way round."""
    t = draw(st.sampled_from(
        [LieType("A", n) for n in range(2, 12)] + [LieType("D", n) for n in range(3, 10, 2)] + [LieType("E", 6)]
    ))
    images = iota(t)
    orbits = sorted({tuple(sorted({node, images[node - 1]})) for node in range(1, t.rank + 1)})
    black_orbits = draw(st.sets(st.sampled_from(orbits)))
    white = draw(st.permutations([orbit for orbit in orbits if orbit not in black_orbits]))
    arrows = set()
    while white:
        orbit = white.pop()
        partner = next((other for other in white if len(other) == len(orbit)), None)
        choice = draw(st.integers(0, 2))
        if choice == 1 and len(orbit) == 2:
            arrows.add(orbit)
        elif choice == 2 and partner is not None:
            white.remove(partner)
            if draw(st.booleans()):
                partner = partner[::-1]
            arrows.update(tuple(sorted(pair)) for pair in zip(orbit, partner))
    black = frozenset(node for orbit in black_orbits for node in orbit)
    return SatakeDiagram(t, black, frozenset(arrows))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(symmetric_diagrams())
def test_count_equals_walk_on_symmetric_diagrams(d):
    assert _preconditions(d) == (True, True)
    assert cones._a_hyperbolic_count(d, real_rank(d)) == a_hyperbolic_rank(d)


def test_reversed_arrows_are_counted_with_no_walk(monkeypatch):
    # -w0 on A5 sends i to 6 - i, so it reverses (1, 5) and (2, 4) in place;
    # the classes are {1, 5}, {2, 4} and {3}, all three fixed
    d = SatakeDiagram(LieType("A", 5), arrows=frozenset([(1, 5), (2, 4)]))
    walked = _walk_calls(monkeypatch)
    built = _image_calls(monkeypatch)
    assert cones._a_hyperbolic_count(d, real_rank(d)) == 3
    assert (walked, built) == ([], [])
    assert a_hyperbolic_rank(d) == 3


def test_an_arrow_not_reversed_is_walked(monkeypatch):
    # -w0 sends the arrow (2, 3) to (4, 3), which is no arrow, so no Satake
    # diagram has these arrows; the public rank walks it: classes {1, 5}
    # and {2, 3, 4}
    d = SatakeDiagram(LieType("A", 5), arrows=frozenset([(1, 5), (2, 3)]))
    walked = _walk_calls(monkeypatch)
    assert a_hyperbolic_rank(d) == 2
    assert walked == [d]


def test_no_black_node_and_no_arrow_builds_no_image(monkeypatch):
    # F is then the number of nodes -w0 fixes: the middle of an odd run
    # and every node off it
    diagrams = {
        SatakeDiagram(LieType("A", 5)): 3,
        SatakeDiagram(LieType("A", 6)): 3,
        SatakeDiagram(LieType("D", 7)): 6,
        SatakeDiagram(LieType("E", 6)): 4,
    }
    walked = _walk_calls(monkeypatch)
    built = _image_calls(monkeypatch)
    for d, rank in diagrams.items():
        assert cones._a_hyperbolic_count(d, real_rank(d)) == rank, d
    assert (walked, built) == ([], [])
    for d, rank in diagrams.items():
        assert a_hyperbolic_rank(d) == rank, d
    # two components with no arrow are no complex_as_real diagram; walked
    assert a_hyperbolic_rank(SatakeDiagram(LieType("A", 5), components=2)) == 6


@pytest.mark.parametrize(
    ("d", "rank"),
    [
        # black nodes off the run {6, 7}, which -w0 fixes
        (SatakeDiagram(LieType("D", 7), black=frozenset([1, 2])), 4),
        # an arrow off the run, which -w0 fixes pointwise: one fixed class
        (SatakeDiagram(LieType("D", 7), arrows=frozenset([(1, 2)])), 5),
        # the branch node of E6, off the run 1..5
        (SatakeDiagram(LieType("E", 6), black=frozenset([6])), 3),
        # the middle of the odd run of A5, the one black node -w0 fixes
        (SatakeDiagram(LieType("A", 5), black=frozenset([3])), 2),
        # the middle pair of the even run of A6, exchanged by -w0
        (SatakeDiagram(LieType("A", 6), black=frozenset([3, 4])), 2),
    ],
    ids=["D7-black-1-2", "D7-arrow-1-2", "E6-black-6", "A5-black-3", "A6-black-3-4"],
)
def test_off_run_terms_on_hand_built_diagrams(monkeypatch, d, rank):
    walked = _walk_calls(monkeypatch)
    built = _image_calls(monkeypatch)
    assert _preconditions(d) == (True, True)
    assert cones._a_hyperbolic_count(d, real_rank(d)) == rank
    assert (walked, built) == ([], [])
    arrows = sorted(d.arrows)
    assert antipodal_classes(d) == union_find_partition(d, arrows + iota_pairs(d))
    assert len(antipodal_classes(d)) == rank
