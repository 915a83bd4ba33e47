"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion marks the criterion failed).
"""

from __future__ import annotations

from conftest import (
    antipodal_equations,
    database_specs,
    longest_element_negation,
    matching_equations,
    solution_dimension,
)

from ahrank.catalog import (
    ADMITTING_FAMILIES,
    NO_COMPACT_FORM_FAMILIES,
    OPEN_CASE,
    anomaly_scan,
    example_verdict,
    row_verdict,
    verify_table2,
)
from ahrank.cones import (
    a_hyperbolic_rank,
    b_plus_generators,
    factor_profile,
    rank_profile,
)
from ahrank.decision import Verdict, decide, embed_obstruction
from ahrank.notation import parse, render
from ahrank.rootsys import LieType, iota
from ahrank.satake import RealFormSpec, real_rank, satake_of


def _ranks(spec: RealFormSpec) -> tuple[int, int]:
    d = satake_of(spec)
    return a_hyperbolic_rank(d), real_rank(d)


def test_acceptance_1_rank_table_reproduction():
    for k in range(1, 7):
        assert _ranks(RealFormSpec("sl_R", (2 * k,))) == (k, 2 * k - 1)
        assert _ranks(RealFormSpec("sl_R", (2 * k + 1,))) == (k, 2 * k)
        assert _ranks(RealFormSpec("su_star", (4 * k,))) == (k, 2 * k - 1)
        assert _ranks(RealFormSpec("su_star", (4 * k + 2,))) == (k, 2 * k)
        if k >= 2:
            assert _ranks(RealFormSpec("so_pq", (2 * k + 1, 2 * k + 1))) == (2 * k, 2 * k + 1)
    assert _ranks(RealFormSpec("e6_I")) == (4, 6)
    assert _ranks(RealFormSpec("e6_IV")) == (1, 2)
    print("ACCEPTANCE 1 PASS: rank table reproduced exactly for k = 1..6")


def test_acceptance_2_anomaly_completeness():
    expected = (
        {RealFormSpec("sl_R", (n,)) for n in range(3, 11)}
        | {RealFormSpec("su_star", (m,)) for m in (6, 8, 10)}
        | {RealFormSpec("so_pq", (n, n)) for n in (5, 7, 9)}
        | {RealFormSpec("e6_I"), RealFormSpec("e6_IV")}
    )
    assert set(anomaly_scan(9)) == expected
    print("ACCEPTANCE 2 PASS: anomaly scan over rank <= 9 matches the table exactly")


def test_acceptance_3_worked_example_generators():
    gens = b_plus_generators(satake_of(RealFormSpec("e6_IV")))
    assert list(gens) == [(1, 0, 0, 0, 1, 0)]
    print("ACCEPTANCE 3 PASS: antipodal-cone generator of e6(IV) is (1,0,0,0,1,0)")


def test_acceptance_4_involution_oracle_equivalence():
    types = (
        [LieType("A", r) for r in range(1, 6)]
        + [LieType("B", r) for r in range(2, 6)]
        + [LieType("C", r) for r in range(3, 6)]
        + [LieType("D", r) for r in range(3, 6)]
        + [LieType("G", 2), LieType("F", 4)]
    )
    for t in types:
        assert iota(t) == longest_element_negation(t).images, t
    print("ACCEPTANCE 4 PASS: closed-form involution equals the Weyl brute force, rank <= 5")


def test_acceptance_5_decision_engine_on_worked_examples():
    undetermined = [("sl(10,R)", "so(5,5)"), ("sl(10,R)", "sl(3,R) x sl(7,R)")]
    for g_expr, h_expr in undetermined:
        verdict = decide(rank_profile(parse(g_expr)), rank_profile(parse(h_expr))).verdict
        assert verdict is Verdict.UNDETERMINED, (g_expr, h_expr)
    for family in NO_COMPACT_FORM_FAMILIES:
        assert example_verdict(family) is Verdict.NO_NON_VIRTUALLY_ABELIAN, family.label
    for family in ADMITTING_FAMILIES:
        assert example_verdict(family) is Verdict.ADMITS_NON_VIRTUALLY_ABELIAN, family.label
    print("ACCEPTANCE 5 PASS: worked decision examples all reproduce")


def test_acceptance_6_embedding_obstructions():
    g = rank_profile(parse("e6(IV)"))
    for h_expr in ("g2(split)", "so(2,3)", "so(2,5)", "so(2,7)", "sp(2,R)"):
        assert embed_obstruction(g, rank_profile(parse(h_expr))).obstructed, h_expr
    print("ACCEPTANCE 6 PASS: all five subalgebras are rank-obstructed in e6(IV)")


def test_acceptance_7_three_symmetric_table():
    report = verify_table2(4)
    assert report.passed, report.failures
    for k in (2, 3):
        assert row_verdict(OPEN_CASE, {"k": k}) is Verdict.UNDETERMINED, k
    print(
        "ACCEPTANCE 7 PASS: 3-symmetric table admits everywhere "
        f"({report.instances_checked} instances); excluded case stays Undetermined"
    )


def test_acceptance_8_rank_one_nonexistence():
    checked = 0
    for g_expr in ("e6(IV)", "so*(6)", "sl(3,R)"):
        g = rank_profile(parse(g_expr))
        assert g.a_hyperbolic_rank == 1
        for spec in database_specs(rank_bound=9, doubled_rank_bound=4):
            h = factor_profile(spec)
            if h.real_rank == 0:  # compact h is outside this criterion
                continue
            if h.a_hyperbolic_rank != 1 or h.real_rank > g.real_rank:
                continue
            verdict = decide(g, h).verdict
            assert verdict in (
                Verdict.NO_INFINITE_DISCONTINUOUS,
                Verdict.NO_NON_VIRTUALLY_ABELIAN,
            ), (g_expr, spec)
            checked += 1
    assert checked > 50
    print(f"ACCEPTANCE 8 PASS: non-existence verdicts for all {checked} rank-one pairs")


def test_acceptance_9_dual_path_rank_equality():
    count = 0
    for spec in database_specs(rank_bound=9, doubled_rank_bound=4):
        d = satake_of(spec)
        n = d.node_count
        assert solution_dimension(n, matching_equations(d)) == real_rank(d), spec
        assert solution_dimension(n, antipodal_equations(d)) == a_hyperbolic_rank(d), spec
        count += 1
    print(f"ACCEPTANCE 9 PASS: class counting equals rational linear algebra on {count} diagrams")


def test_acceptance_10_parser_round_trip():
    from ahrank.catalog import DISPUTED_ENTRIES, TABLE2, _instances

    algebras = []
    for row in TABLE2 + DISPUTED_ENTRIES + (OPEN_CASE,):
        for params in _instances(row, 4):
            algebras.append(parse(row.g_template, params))
            algebras.append(parse(row.h_template, params))
    for family in NO_COMPACT_FORM_FAMILIES + ADMITTING_FAMILIES:
        algebras.append(parse(family.g_template, family.smallest))
        algebras.append(parse(family.h_template, family.smallest))
    assert len(algebras) > 200
    for algebra in algebras:
        assert parse(render(algebra)) == algebra
    # quotient and brace stripping never moves the rank profile
    plain = parse("SL(3,C) x SU(2,1)")
    wrapped = parse("{SL(3,C) x SU(2,1)}/Z3")
    assert rank_profile(plain) == rank_profile(wrapped)
    assert rank_profile(parse("Spin(5,3)")) == rank_profile(parse("so(5,3)"))
    print(
        f"ACCEPTANCE 10 PASS: parse-render round trip on {len(algebras)} catalog algebras;"
        " stripping preserves rank profiles"
    )
