"""Satake diagram database: construction, validation, real rank."""

from __future__ import annotations

import itertools
import json
import re
import time

import pytest
from conftest import _automorphisms, cartan_matrix, is_cartan_automorphism, isomorphic_diagrams, validate

from ahrank.cones import ReductiveAlgebra
from ahrank.rootsys import SERIES, LieType, _edges, canonical_types
from ahrank.satake import (
    _COINCIDENCE_RANK,
    _COINCIDENCES,
    EXCEPTIONAL,
    FAMILIES,
    MAX_PARAMETER,
    InvalidRealFormError,
    RealFormSpec,
    SatakeDiagram,
    ascii_diagram,
    canonical,
    complex_as_real,
    export,
    real_forms,
    real_rank,
    satake_of,
    _series_type,
)


def test_e6_iv_diagram():
    d = satake_of(RealFormSpec("e6_IV"))
    assert d.lie_type == LieType("E", 6)
    assert d.black == frozenset({2, 3, 4, 6})
    assert frozenset(d.nodes()) - d.black == frozenset({1, 5})
    assert d.arrows == frozenset()


def test_split_form_all_white():
    d = satake_of(RealFormSpec("sl_R", (6,)))
    assert d.lie_type == LieType("A", 5)
    assert d.black == frozenset()
    assert d.arrows == frozenset()


def test_su_star_black_pattern():
    d = satake_of(RealFormSpec("su_star", (10,)))
    assert d.lie_type == LieType("A", 9)
    assert d.black == frozenset({1, 3, 5, 7, 9})
    assert d.arrows == frozenset()
    assert real_rank(d) == 4  # = n - 1 for sl(n, H)


def test_su_pq_arrow_ladder():
    d = satake_of(RealFormSpec("su_pq", (1, 2)))
    assert d.arrows == frozenset({(1, 2)})
    assert d.black == frozenset()
    d = satake_of(RealFormSpec("su_pq", (2, 5)))
    assert d.arrows == frozenset({(1, 6), (2, 5)})
    assert d.black == frozenset({3, 4})


def test_su_pq_arrows_are_ascending_mirror_pairs():
    # the arrows join node i to node n - i for i up to min(p, q), short of
    # the middle node of A_(n-1), each stored as an ascending pair
    for p, q in itertools.product(range(1, 41), repeat=2):
        n = p + q
        arrows = satake_of(RealFormSpec("su_pq", (p, q))).arrows
        assert arrows == {(i, n - i) for i in range(1, min(p, q) + 1) if i < n - i}, (p, q)
        assert all(i < j and i + j == n for i, j in arrows), (p, q)


@pytest.mark.parametrize(
    "spec",
    [
        RealFormSpec("sl_R", (MAX_PARAMETER + 1,)),
        RealFormSpec("su_star", (MAX_PARAMETER + 2,)),
        RealFormSpec("su_pq", (1, MAX_PARAMETER + 1)),
        RealFormSpec("so_pq", (MAX_PARAMETER + 1, 2)),
        RealFormSpec("sp_R", (MAX_PARAMETER + 1,)),
        RealFormSpec("sp_pq", (MAX_PARAMETER + 1, MAX_PARAMETER + 1)),
        RealFormSpec("so_star", (MAX_PARAMETER + 2,)),
        RealFormSpec("compact_A", (MAX_PARAMETER + 1,)),
        RealFormSpec("complex_D", (MAX_PARAMETER + 1,)),
    ],
    ids=str,
)
def test_parameters_above_the_bound_raise(spec):
    with pytest.raises(InvalidRealFormError, match=f"above the bound {MAX_PARAMETER}$"):
        satake_of(spec)


def test_parameters_at_the_bound_build():
    assert real_rank(satake_of(RealFormSpec("sl_R", (MAX_PARAMETER,)))) == MAX_PARAMETER - 1
    d = satake_of(RealFormSpec("su_pq", (1, MAX_PARAMETER)))
    assert (real_rank(d), d.arrows) == (1, {(1, MAX_PARAMETER)})


def test_so_fork_arrow():
    # signature difference two: all white with the fork nodes arrow-joined
    d = satake_of(RealFormSpec("so_pq", (4, 6)))
    assert d.lie_type == LieType("D", 5)
    assert d.black == frozenset()
    assert d.arrows == frozenset({(4, 5)})


def test_complex_as_real_doubled():
    d = complex_as_real(LieType("A", 2))
    assert d.components == 2
    assert d.node_count == 4
    assert d.arrows == frozenset({(1, 3), (2, 4)})
    assert d.black == frozenset()
    assert real_rank(d) == 2
    for t in canonical_types(12):
        n = t.rank
        assert complex_as_real(t).arrows == {(i, n + i) for i in range(1, n + 1)}, t


def test_database_validates(database):
    for spec, diagram in database:
        assert validate(diagram) == [], f"{spec} failed validation"


def test_validate_black_arrow_endpoint():
    bad = SatakeDiagram(LieType("A", 3), black=frozenset({1}), arrows=frozenset({(1, 3)}))
    assert "arrow endpoint is black" in validate(bad)


def test_validate_arrow_not_automorphism():
    bad = SatakeDiagram(LieType("A", 3), arrows=frozenset({(1, 2)}))
    assert "arrow not an automorphism" in validate(bad)


def test_validate_matching_violation():
    bad = SatakeDiagram(LieType("A", 5), arrows=frozenset({(1, 5), (1, 3)}))
    assert "arrow support is not a perfect matching" in validate(bad)


def test_validate_out_of_range():
    bad = SatakeDiagram(LieType("A", 3), black=frozenset({7}))
    assert "black node out of range" in validate(bad)
    bad = SatakeDiagram(LieType("A", 3), arrows=frozenset({(2, 9)}))
    assert "arrow endpoints invalid" in validate(bad)


def _types_up_to(rank_bound):
    """Every accepted type of rank <= rank_bound, low-rank duplicates such as
    D2, D3, B1, C1, B2 and C2 included."""
    types = []
    for letter, rank in itertools.product(SERIES, range(1, rank_bound + 1)):
        try:
            types.append(LieType(letter, rank))
        except ValueError:
            continue
    return types


@pytest.mark.parametrize(
    "t,components",
    [(t, 1) for t in _types_up_to(6) + [LieType("E", 7)]]
    + [(t, 2) for t in _types_up_to(3)],
    ids=lambda value: str(value),
)
def test_automorphisms_match_brute_force(t, components):
    # the closed-form list must be exactly the Cartan-preserving node
    # permutations found by trying every permutation
    d = SatakeDiagram(t, components=components)
    found = _automorphisms(d)
    brute = {
        images
        for images in itertools.permutations(d.nodes())
        if is_cartan_automorphism(t, images)
    }
    assert len(found) == len(set(found))
    assert set(found) == brute


def test_validate_cost_bounded_by_automorphisms():
    # ten black nodes: a search over permutations of the black nodes would
    # try up to 10! candidates; the automorphism list has two
    su_1_12 = SatakeDiagram(
        LieType("A", 12), black=frozenset(range(2, 12)), arrows=frozenset({(1, 12)})
    )
    assert su_1_12 == satake_of(RealFormSpec("su_pq", (1, 12)))
    swapped_end = SatakeDiagram(
        LieType("A", 12), black=frozenset(range(3, 13)), arrows=frozenset({(1, 2)})
    )
    start = time.perf_counter()
    assert validate(su_1_12) == []
    assert validate(swapped_end) == ["arrow not an automorphism"]
    assert time.perf_counter() - start < 1.0


def test_real_rank_examples():
    assert real_rank(satake_of(RealFormSpec("e6_IV"))) == 2
    assert real_rank(satake_of(RealFormSpec("so_pq", (3, 3)))) == 3
    assert real_rank(satake_of(RealFormSpec("su_pq", (2, 5)))) == 2


def test_real_rank_closed_forms():
    for p in range(1, 5):
        for q in range(p, 10 - p):
            if p + q < 2:
                continue
            assert real_rank(satake_of(RealFormSpec("su_pq", (p, q)))) == p
            assert real_rank(satake_of(RealFormSpec("sp_pq", (p, q)))) == p
            if p + q >= 3:
                assert real_rank(satake_of(RealFormSpec("so_pq", (p, q)))) == p
                assert real_rank(satake_of(RealFormSpec("so_pq", (q, p)))) == p
    for n in range(2, 10):
        assert real_rank(satake_of(RealFormSpec("so_star", (2 * n,)))) == n // 2
        assert real_rank(satake_of(RealFormSpec("sl_R", (n,)))) == n - 1
    for letter, rank in (("A", 4), ("B", 4), ("C", 4), ("D", 4), ("E", 7), ("F", 4), ("G", 2)):
        assert real_rank(satake_of(RealFormSpec(f"compact_{letter}", (rank,)))) == 0
        assert real_rank(satake_of(RealFormSpec(f"complex_{letter}", (rank,)))) == rank


def test_split_forms_have_full_rank(database):
    for spec, diagram in database:
        if not diagram.black and not diagram.arrows:
            assert real_rank(diagram) == diagram.node_count


def test_export_schema_and_determinism():
    d = satake_of(RealFormSpec("su_pq", (2, 5)))
    payload = export(d)
    assert payload == {
        "type": "A",
        "rank": 6,
        "components": 1,
        "black": [3, 4],
        "arrows": [[1, 6], [2, 5]],
        "numbering": "bourbaki",
    }
    again = export(satake_of(RealFormSpec("su_pq", (2, 5))))
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)


#: Failing inputs, at least one per domain check of satake_of and of each
#: family constructor, with the whole text of the message each raises.
_DOMAIN_ERRORS = {
    RealFormSpec("su_star", (7,)): "su*(2n) requires an even argument >= 4, got 7",
    RealFormSpec("su_star", (2,)): "su*(2n) requires an even argument >= 4, got 2",
    RealFormSpec("so_star", (2,)): "so*(2n) requires an even argument >= 4, got 2",
    RealFormSpec("so_star", (9,)): "so*(2n) requires an even argument >= 4, got 9",
    RealFormSpec("so_pq", (0, 3)): "so(p,q) requires p, q >= 1, got (0,3)",
    RealFormSpec("so_pq", (1, 1)): "so(p,q) requires p + q >= 3, got 2",
    RealFormSpec("sl_R", (1,)): "sl(n,R) requires n >= 2, got n=1",
    RealFormSpec("sp_pq", (0, 2)): "sp(p,q) requires p, q >= 1, got (0,2)",
    RealFormSpec("su_pq", (0, 3)): "su(p,q) requires p, q >= 1, got (0,3)",
    RealFormSpec("sp_R", (0,)): "sp(n,R) requires n >= 1, got n=0",
    RealFormSpec("e6_IV", (3,)): "e6_IV takes no parameters, got (3,)",
    RealFormSpec("sl_R", (2, 3)): "sl_R takes one parameter, got (2, 3)",
    RealFormSpec("su_pq", (4,)): "su_pq takes two parameters, got (4,)",
    RealFormSpec("sl_R", (MAX_PARAMETER + 1,)): "real-form parameter 100001 is above the bound 100000",
    RealFormSpec("nonsense"): "unknown real-form family 'nonsense'",
    RealFormSpec("compact_E", (5,)): "no exceptional type E5; expected one of E6, E7, E8, F4, G2",
    RealFormSpec("compact_", (3,)): "unknown real-form family 'compact_'",
    RealFormSpec("compact_AB", (3,)): "unknown real-form family 'compact_AB'",
    RealFormSpec("complex_DE", (3,)): "unknown real-form family 'complex_DE'",
}


@pytest.mark.parametrize("spec", list(_DOMAIN_ERRORS), ids=str)
def test_domain_errors(spec):
    with pytest.raises(InvalidRealFormError, match=f"^{re.escape(_DOMAIN_ERRORS[spec])}$"):
        satake_of(spec)


@pytest.mark.parametrize("family", ["nonsense", "compact_", "compact_AB", "complex_DE"])
def test_unknown_family_is_rejected_when_the_algebra_is_built(family):
    # canonical looks the label up, so no algebra exists for render to name
    message = f"unknown real-form family '{family}'"
    with pytest.raises(InvalidRealFormError, match=message):
        canonical(RealFormSpec(family, (3, 2)))
    with pytest.raises(InvalidRealFormError, match=message):
        ReductiveAlgebra((RealFormSpec(family, (3,)),))


def test_family_table_has_no_dead_row():
    # every row is a form that real_forms lists, a complex algebra viewed
    # as real, or an exceptional form, and each of these has a row
    listed = {spec.family for t in canonical_types(8) for spec in real_forms(t)}
    complex_forms = {f"complex_{letter}" for letter in SERIES}
    assert set(FAMILIES) == listed | complex_forms | set(EXCEPTIONAL)
    assert len(complex_forms) == 7 and len(EXCEPTIONAL) == 12


def test_forms_of_one_type_share_one_type():
    t = satake_of(RealFormSpec("sl_R", (8,))).lie_type
    assert all(satake_of(spec).lie_type is t for spec in real_forms(t))


def test_type_cache_keeps_no_refused_type():
    before = _series_type.cache_info()
    for _ in range(2):
        with pytest.raises(InvalidRealFormError, match="^type D requires rank >= 2$"):
            satake_of(RealFormSpec("compact_D", (1,)))
    after = _series_type.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (0, 2)
    assert satake_of(RealFormSpec("compact_D", (2,))).lie_type == LieType("D", 2)


def test_type_cache_is_bounded():
    _series_type.cache_clear()
    for rank in range(1, 131):
        satake_of(RealFormSpec("compact_A", (rank,)))
    info = _series_type.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (130, 128, 128)


def test_real_forms_enumeration():
    forms = real_forms(LieType("A", 3))
    assert set(forms) == {
        RealFormSpec("sl_R", (4,)),
        RealFormSpec("su_star", (4,)),
        RealFormSpec("su_pq", (1, 3)),
        RealFormSpec("su_pq", (2, 2)),
        RealFormSpec("compact_A", (3,)),
    }
    # the exceptional forms, in the order of satake.EXCEPTIONAL
    expected = {
        LieType("E", 6): ["e6_I", "e6_II", "e6_III", "e6_IV", "compact_E(6)"],
        LieType("E", 7): ["e7_V", "e7_VI", "e7_VII", "compact_E(7)"],
        LieType("E", 8): ["e8_VIII", "e8_IX", "compact_E(8)"],
        LieType("F", 4): ["f4_I", "f4_II", "compact_F(4)"],
        LieType("G", 2): ["g2_split", "compact_G(2)"],
    }
    for t, names in expected.items():
        assert [str(spec) for spec in real_forms(t)] == names, t
    # the classical forms in closed form, in order: the split or quaternionic
    # forms first, the signatures by ascending p, so*(2n) last; the
    # coincidences su(1,1) (A1) and so*(8) (D4 triality) are left out
    for t in canonical_types(40):
        n, letter = t.rank, t.letter
        if letter == "A":
            forms = [("sl_R", (n + 1,))] + [("su_star", (n + 1,))] * (n % 2 == 1 and n >= 3)
            forms += [("su_pq", (p, n + 1 - p)) for p in range(1 + (n == 1), (n + 1) // 2 + 1)]
        elif letter == "C":
            forms = [("sp_R", (n,))] + [("sp_pq", (p, n - p)) for p in range(1, n // 2 + 1)]
        elif letter in "BD":
            total = 2 * n + (letter == "B")
            forms = [("so_pq", (p, total - p)) for p in range(1, n + 1)]
            forms += [("so_star", (total,))] * (letter == "D" and n > 4)
        else:
            continue
        forms.append((f"compact_{letter}", (n,)))
        assert real_forms(t) == tuple(RealFormSpec(*form) for form in forms), t


def test_exceptional_real_ranks():
    expected = {
        "e6_I": 6, "e6_II": 4, "e6_III": 2, "e6_IV": 2,
        "e7_V": 7, "e7_VI": 4, "e7_VII": 3,
        "e8_VIII": 8, "e8_IX": 4,
        "f4_I": 4, "f4_II": 1,
        "g2_split": 2,
    }
    for family, rank in expected.items():
        assert real_rank(satake_of(RealFormSpec(family))) == rank, family


def _black_component_shapes(d):
    """Connected components of the black subdiagram, each reduced to
    (size, sorted degree sequence, has a multiple bond); one pass over the
    bonds of ``rootsys._edges``, so linear in the rank."""
    black = d.black
    neighbours: dict[int, list[int]] = {x: [] for x in black}
    multiple: set[int] = set()
    for i, j, aij, aji in _edges(d.lie_type):
        if i in black and j in black:
            neighbours[i].append(j)
            neighbours[j].append(i)
            if min(aij, aji) <= -2:
                multiple.add(i)
    seen: set[int] = set()
    shapes = []
    for start in sorted(black):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        for x in component:  # the list grows while it is walked
            for y in neighbours[x]:
                if y not in seen:
                    seen.add(y)
                    component.append(y)
        degrees = sorted(len(neighbours[x]) for x in component)
        shapes.append((len(component), tuple(degrees), not multiple.isdisjoint(component)))
    return sorted(shapes)


A1 = (1, (0,), False)
A3 = (3, (1, 1, 2), False)
B3 = (3, (1, 1, 2), True)
D4 = (4, (1, 1, 1, 3), False)


def test_exceptional_anisotropic_kernels():
    # the black subdiagram is the compact anisotropic kernel: A3 for
    # e6(III), D4 for e6(IV)/e7(VII)/e8(IX), three A1 for e7(VI), B3 for
    # f4(II) -- this pins black-node placement, not just the counts
    expected = {
        "e6_III": [A3],
        "e6_IV": [D4],
        "e7_VI": [A1, A1, A1],
        "e7_VII": [D4],
        "e8_IX": [D4],
        "f4_II": [B3],
    }
    for family, shapes in expected.items():
        assert _black_component_shapes(satake_of(RealFormSpec(family))) == shapes, family


def test_classical_anisotropic_kernels():
    # su*(2n): n isolated black nodes; sp(p,q): p isolated plus a C-tail;
    # so(p,q) with q-p >= 3: a B/D-type tail of black nodes
    assert _black_component_shapes(satake_of(RealFormSpec("su_star", (8,)))) == [A1] * 4
    assert _black_component_shapes(satake_of(RealFormSpec("sp_pq", (1, 2)))) == [A1, A1]
    assert _black_component_shapes(satake_of(RealFormSpec("sp_pq", (2, 5)))) == [
        A1,
        A1,
        B3,  # the C3 tail has the same shape signature as B3
    ]
    assert _black_component_shapes(satake_of(RealFormSpec("so_pq", (2, 7)))) == [
        (2, (1, 1), True)  # B2 tail
    ]


def _chain(size, multiple=False):
    """Shapes of a black chain of ``size`` nodes, with a double bond at one
    end when ``multiple`` (a B or C tail); none for a size below 1."""
    if size < 2:
        return [A1] * max(size, 0)
    return [(size, (1, 1) + (2,) * (size - 2), multiple)]


def _fork(size):
    """Shapes of the last ``size`` >= 2 nodes of a D diagram (a D tail):
    D2 is two isolated nodes and D3 an A3 chain."""
    if size < 4:
        return [A1, A1] if size == 2 else _chain(3)
    return [(size, (1, 1, 1) + (2,) * (size - 4) + (3,), False)]


def _closed_form_kernel(family, params):
    """(black component shapes, arrow count) of a classical form (Araki
    1962; Onishchik-Vinberg), read off the parameters alone."""
    p, q = sorted(params) if len(params) == 2 else (params[0], None)
    if family == "su_star":
        return [A1] * (p // 2), 0
    if family == "su_pq":
        return _chain(q - p - 1), p - (p == q)
    if family == "sp_pq":
        return sorted([A1] * p + _chain(q - p, multiple=True)), 0
    if family == "so_star":
        return [A1] * (p // 4), p // 2 % 2
    if family == "so_pq":
        tail = (p + q) // 2 - p
        if (p + q) % 2:
            return _chain(tail, multiple=True), 0
        return ([], tail) if tail < 2 else (_fork(tail), 0)
    if family.startswith("complex_"):
        return [], p
    return [], 0  # sl(n,R), sp(n,R)


def _classical_specs(rank_bound):
    """Every sl/su/so/sp form, compact form and complex double of a
    classical type of rank at most ``rank_bound``, two parameters ascending."""
    for n in range(1, rank_bound + 1):
        for letter in "ABCD" if n >= 2 else "ABC":
            yield RealFormSpec(f"complex_{letter}", (n,))
            yield RealFormSpec(f"compact_{letter}", (n,))
        yield RealFormSpec("sl_R", (n + 1,))
        if n % 2 and n >= 3:
            yield RealFormSpec("su_star", (n + 1,))
        yield from (RealFormSpec("su_pq", (p, n + 1 - p)) for p in range(1, (n + 1) // 2 + 1))
        yield from (RealFormSpec("so_pq", (p, 2 * n + 1 - p)) for p in range(1, n + 1))
        yield RealFormSpec("sp_R", (n,))
        yield from (RealFormSpec("sp_pq", (p, n - p)) for p in range(1, n // 2 + 1))
        if n >= 2:
            yield from (RealFormSpec("so_pq", (p, 2 * n - p)) for p in range(1, n + 1))
            yield RealFormSpec("so_star", (2 * n,))


#: Large sides, far above the sweep's rank bound: su(250,250) has 249
#: arrows, so*(1000) (n = 500) none and so*(998) one.
_LARGE_SIDES = (250, 1_000, 10_000)


def _large_specs():
    for low, high in itertools.combinations_with_replacement(_LARGE_SIDES, 2):
        for family in ("su_pq", "sp_pq", "so_pq"):
            yield RealFormSpec(family, (low, high))
    for side in _LARGE_SIDES:
        for family in ("sl_R", "sp_R", "su_star", "complex_A"):
            yield RealFormSpec(family, (side,))
        yield RealFormSpec("so_star", (side,))
        yield RealFormSpec("so_star", (side - 2,))
    # the arrow ladder and so* at the parameter bound, about 0.15 s
    yield RealFormSpec("su_pq", (MAX_PARAMETER, MAX_PARAMETER))
    yield RealFormSpec("so_star", (MAX_PARAMETER,))
    yield RealFormSpec("so_star", (MAX_PARAMETER - 2,))


def test_classical_kernels_and_arrows_in_closed_form():
    # su*(2n): n isolated black nodes; su(p,q): an A_{q-p-1} chain and p
    # arrows (p - 1 when p = q); sp(p,q): p isolated plus a C_{q-p} tail;
    # so(p,q): a B/D tail, split, or the fork arrow; so*(2n): n/2 isolated
    # plus the fork arrow for odd n; compact forms all black
    for spec in itertools.chain(_classical_specs(40), _large_specs()):
        d = satake_of(spec)
        if spec.family.startswith("compact_"):
            assert (len(d.black), d.arrows) == (d.node_count, frozenset()), spec
            continue
        shapes, arrow_count = _closed_form_kernel(spec.family, spec.params)
        assert (_black_component_shapes(d), len(d.arrows)) == (shapes, arrow_count), spec


def test_ascii_diagram_smoke():
    art = ascii_diagram(satake_of(RealFormSpec("e6_IV")))
    assert "o----*----*----*----o" in art
    assert "black:  2 3 4 6" in art
    art = ascii_diagram(satake_of(RealFormSpec("g2_split")))
    assert "<-3-" in art
    art = ascii_diagram(satake_of(RealFormSpec("so_pq", (2, 5))))
    assert "-2->" in art
    art = ascii_diagram(complex_as_real(LieType("A", 2)))
    assert "component 2:" in art and "1<->3" in art


def reference_ascii_diagram(d: SatakeDiagram) -> str:
    """The picture ``ascii_diagram`` draws, with every bond read off the full
    Cartan matrix.  Per component: the chain of nodes with a bond label
    between neighbours (blank, '----', or '-m->' from the long root to the
    short one, m the bond's multiplicity), the node numbers under it in
    five-column steps, and the last node hung below its one neighbour when
    it is not bonded to the node before it.  Then the arrows and the black
    nodes."""
    t, n = d.lie_type, d.lie_type.rank
    a = cartan_matrix(t)
    chain, attach = list(range(1, n + 1)), None
    if n >= 3 and a[n - 1][n - 2] == 0:
        chain.pop()
        (attach,) = [j for j in chain if a[n - 1][j - 1]]

    def bond(i: int, j: int) -> str:
        multiplicity = a[i - 1][j - 1] * a[j - 1][i - 1]
        if multiplicity < 2:
            return "-" * 4 if multiplicity else " " * 4
        return f"-{multiplicity}->" if a[i - 1][j - 1] < -1 else f"<-{multiplicity}-"

    lines = []
    for component in range(d.components):
        offset = component * n

        def marker(node: int) -> str:
            return "*" if offset + node in d.black else "o"

        if d.components > 1:
            lines.append(f"component {component + 1}:")
        lines.append(marker(chain[0]) + "".join(bond(i, j) + marker(j) for i, j in zip(chain, chain[1:])))
        lines.append("".join(str(offset + node).ljust(5) for node in chain).rstrip())
        if attach is not None:
            indent = " " * 5 * chain.index(attach)
            lines += [indent + "|", f"{indent}{marker(n)} {offset + n}"]
    arrows = ", ".join(f"{i}<->{j}" for i, j in sorted(d.arrows))
    lines.append("arrows: " + (arrows or "none"))
    lines.append("black:  " + (" ".join(map(str, sorted(d.black))) or "none"))
    return "\n".join(lines)


def _rendered_diagrams():
    for t in canonical_types(12):
        for spec in real_forms(t):
            yield str(spec), satake_of(spec)
        yield f"complex_{t}", complex_as_real(t)
    for t in (LieType("D", 2), LieType("D", 3)):
        yield f"{t} white", SatakeDiagram(t)
        yield f"{t} black 1", SatakeDiagram(t, black=frozenset({1}))
        yield f"{t} arrows", SatakeDiagram(t, arrows=frozenset({(t.rank - 1, t.rank)}))
        yield f"complex_{t}", complex_as_real(t)


def test_ascii_diagram_matches_cartan_reference():
    # the renderer reads bonds from the edge list; the reference reads the
    # whole matrix, so a bond dropped, misplaced or reversed shows here
    for name, d in _rendered_diagrams():
        assert ascii_diagram(d) == reference_ascii_diagram(d), name


def _diagram(spec):
    """satake_of, and for su*(2), which its domain leaves out, the su*(2n)
    pattern (odd nodes black) at n = 1."""
    if spec == RealFormSpec("su_star", (2,)):
        return SatakeDiagram(LieType("A", 1), black=frozenset({1}))
    return satake_of(spec)


@pytest.mark.parametrize("source,targets", list(_COINCIDENCES.items()), ids=str)
def test_coincidence_is_an_isomorphism(source, targets):
    assert list(source.params) == sorted(source.params)
    assert all(canonical(target) == (target,) for target in targets)
    assert isomorphic_diagrams([_diagram(source)], [satake_of(t) for t in targets])


def test_coincidence_keys_lie_within_the_stated_rank():
    # real_forms looks a type up in _COINCIDENCES only up to this rank
    ranks, unbuilt = [], []
    for spec in _COINCIDENCES:
        try:
            ranks.append(satake_of(spec).lie_type.rank)
        except InvalidRealFormError:
            unbuilt.append(spec)
    assert max(ranks) == _COINCIDENCE_RANK
    assert unbuilt == [RealFormSpec("su_star", (2,))]


def _presentations(rank_bound):
    """Every spec in a family's domain whose type has rank <= rank_bound, in
    both parameter orders, plus su*(2), which the parser builds outside the
    su* domain."""
    candidates = [RealFormSpec("su_star", (2,))] + [RealFormSpec(f) for f in EXCEPTIONAL]
    for t in _types_up_to(rank_bound):
        candidates += [RealFormSpec(f"{k}_{t.letter}", (t.rank,)) for k in ("compact", "complex")]
    for family in ("sl_R", "su_star", "sp_R", "so_star"):
        candidates += [RealFormSpec(family, (a,)) for a in range(10)]
    for family in ("su_pq", "so_pq", "sp_pq"):
        candidates += [RealFormSpec(family, pq) for pq in itertools.product(range(10), repeat=2)]
    specs = []
    for spec in candidates:
        try:
            if _diagram(spec).lie_type.rank <= rank_bound:
                specs.append(spec)
        except InvalidRealFormError:
            continue
    return specs


def test_canonical_is_complete_up_to_rank_4():
    # every presentation of every real form of every type of rank <= 4 (B1,
    # C1, C2, D2, D3 and D4 included) goes to an isomorphic product of forms
    # of canonical types, and no two distinct images are isomorphic: a
    # missing _COINCIDENCES entry leaves a duplicate or a non-canonical type
    images = {}
    for spec in _presentations(4):
        image = canonical(spec)
        diagrams = [satake_of(s) for s in image]
        assert all(d.lie_type in canonical_types(4) for d in diagrams), spec
        assert isomorphic_diagrams([_diagram(spec)], diagrams), spec
        images[image] = diagrams
    for (a, da), (b, db) in itertools.combinations(images.items(), 2):
        assert not isomorphic_diagrams(da, db), (a, b)


def test_five_digit_labels_stay_apart():
    # from rank 10,000 a label outgrows its 5-column slot and starts one
    # space past the label before it
    labels = ascii_diagram(satake_of(RealFormSpec("sl_R", (10003,)))).splitlines()[1]
    assert labels.split() == [str(node) for node in range(1, 10003)]
    assert labels.endswith(" 9999 10000 10001 10002")
