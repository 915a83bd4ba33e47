"""Satake diagram database: construction, validation, real rank."""

from __future__ import annotations

import itertools
import json
import time

import pytest
from conftest import is_cartan_automorphism, isomorphic_diagrams

from ahrank.rootsys import SERIES, LieType, canonical_types
from ahrank.satake import (
    _COINCIDENCES,
    EXCEPTIONAL,
    InvalidRealFormError,
    RealFormSpec,
    SatakeDiagram,
    _automorphisms,
    ascii_diagram,
    canonical,
    complex_as_real,
    export,
    real_forms,
    real_rank,
    satake_of,
    validate,
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


@pytest.mark.parametrize(
    "spec",
    [
        RealFormSpec("su_star", (7,)),
        RealFormSpec("su_star", (2,)),
        RealFormSpec("so_star", (2,)),
        RealFormSpec("so_star", (9,)),
        RealFormSpec("so_pq", (0, 3)),
        RealFormSpec("so_pq", (1, 1)),
        RealFormSpec("sl_R", (1,)),
        RealFormSpec("sp_pq", (0, 2)),
        RealFormSpec("e6_IV", (3,)),
        RealFormSpec("nonsense"),
        RealFormSpec("compact_E", (5,)),
    ],
    ids=str,
)
def test_domain_errors(spec):
    with pytest.raises(InvalidRealFormError):
        satake_of(spec)


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
    (size, sorted degree sequence, has a multiple bond)."""
    from ahrank.rootsys import cartan_matrix

    cartan = cartan_matrix(d.lie_type)
    black = sorted(d.black)
    seen: set[int] = set()
    shapes = []
    for start in black:
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        queue = [start]
        while queue:
            x = queue.pop()
            for y in black:
                if y not in seen and cartan[x - 1][y - 1] != 0:
                    seen.add(y)
                    component.append(y)
                    queue.append(y)
        degrees = sorted(
            sum(1 for y in component if y != x and cartan[x - 1][y - 1] != 0)
            for x in component
        )
        multiple = any(
            cartan[x - 1][y - 1] <= -2 for x in component for y in component if x != y
        )
        shapes.append((len(component), tuple(degrees), multiple))
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
