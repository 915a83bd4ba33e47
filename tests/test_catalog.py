"""Datasets and verification harnesses."""

from __future__ import annotations

import json

import pytest
from conftest import (
    ADMITTING_FAMILIES,
    NO_COMPACT_FORM_FAMILIES,
    example_verdict,
    full_anomaly_scan,
    restricted_ranks,
    row_verdict,
)

from ahrank import catalog, cones
from ahrank.catalog import (
    DISPUTED_ENTRIES,
    OPEN_CASE,
    TABLE2,
    anomaly_scan,
    table1_predicted_anomalies,
    verify_table1,
    verify_table2,
)
from ahrank.cones import RankProfile
from ahrank.decision import Verdict
from ahrank.notation import parse
from ahrank.rootsys import canonical_types, iota_run
from ahrank.satake import RealFormSpec, real_forms, satake_of


def test_verify_table1_passes():
    report = verify_table1(6)
    assert report.passed
    assert report.failures == ()
    # four families with k = 1..6, one with k = 2..6, two exceptional rows
    assert report.instances_checked == 4 * 6 + 5 + 2
    assert report.rows_checked == 7


def test_table1_spot_values():
    # k = 1 instance of su*(4k+2), k = 2 of so(2k+1,2k+1), k = 2 of su*(4k)
    assert cones.factor_profile(RealFormSpec("su_star", (6,))) == RankProfile(2, 1)
    assert cones.factor_profile(RealFormSpec("so_pq", (5, 5))) == RankProfile(5, 4)
    assert cones.factor_profile(RealFormSpec("su_star", (8,))) == RankProfile(3, 2)


def test_verify_table2_passes():
    report = verify_table2(4)
    assert report.passed, report.failures
    assert report.instances_checked > 100
    # the one degenerate instantiation is skipped and logged
    assert any("not simple" in skip[-1] for skip in report.skips)


def test_verify_table2_bound_3():
    report = verify_table2(3)
    assert report.passed, report.failures


@pytest.mark.parametrize("bound,instances", [(2, 72), (3, 83), (4, 107)])
def test_verify_table2_report_pinned(bound, instances):
    # the disputed entries and the open case never hit the skip, so the
    # degenerate row-4 instance is the only one at every bound
    skip = (
        "3-symmetric table, row 4",
        (("a", 2), ("n", 2), ("s", 1), ("t", 0)),
        "G not simple noncompact",
    )
    report = verify_table2(bound)
    assert (report.rows_checked, report.instances_checked) == (74, instances)
    assert (report.failures, report.skips) == ((), (skip,))


def test_verify_table2_profiles_each_form_once(monkeypatch):
    # every profile comes through the memo: G's profile serves both the
    # skip test and the verdict, so no form is profiled outside it
    calls = []
    factor_profile = cones.factor_profile

    def counted(spec):
        calls.append(spec)
        return factor_profile(spec)

    monkeypatch.setattr(cones, "factor_profile", counted)
    monkeypatch.setattr(catalog, "factor_profile", counted)
    cones._memo_profile.cache_clear()
    try:
        verify_table2(4)
        info = cones._memo_profile.cache_info()
    finally:
        cones._memo_profile.cache_clear()
    assert info.misses > 0
    assert len(calls) == info.misses


def test_open_case_undetermined():
    for k in (2, 3):
        assert row_verdict(OPEN_CASE, {"k": k}) is Verdict.UNDETERMINED


def test_disputed_entries_fail_calabi_markus():
    for row in DISPUTED_ENTRIES:
        assert row_verdict(row, {}) is Verdict.NO_INFINITE_DISCONTINUOUS
        assert row.note is not None


def test_annotated_rows_carry_notes():
    noted = [row for row in TABLE2 if row.note]
    assert noted, "constraint reinterpretations must be flagged"
    for row in noted:
        assert row.printed_constraints or "g2" in row.h_template


def test_anomaly_scan_rank6_exact():
    expected = {
        RealFormSpec("sl_R", (n,)) for n in range(3, 8)
    } | {
        RealFormSpec("su_star", (6,)),
        RealFormSpec("so_pq", (5, 5)),
        RealFormSpec("e6_I"),
        RealFormSpec("e6_IV"),
    }
    assert set(anomaly_scan(6)) == expected


def test_anomaly_scan_matches_prediction():
    for bound in (2, 5, 9, 30, 45):
        assert anomaly_scan(bound) == table1_predicted_anomalies(bound)


def test_anomaly_scan_families_only_a_d_e6():
    for spec in anomaly_scan(9):
        assert spec.family in ("sl_R", "su_star", "so_pq", "e6_I", "e6_IV")
    families = {spec.family for spec in anomaly_scan(9)}
    assert "e6_I" in families and "e6_IV" in families
    # quasi-split and rank-two E6 forms are not anomalous
    scanned = set(anomaly_scan(9))
    assert RealFormSpec("e6_II") not in scanned
    assert RealFormSpec("e6_III") not in scanned


@pytest.mark.parametrize("bound", [2, 9, 30])
def test_anomaly_scan_equals_the_walk_over_every_type(bound):
    # skipping the types where -w0 is the identity drops no anomaly
    assert anomaly_scan(bound) == full_anomaly_scan(bound)


def test_anomaly_scan_matches_restricted_root_oracle():
    # the forms whose ranks differ on the restricted root system, which
    # never reads iota, over every type up to rank 8, skipped ones included
    expected = {
        spec
        for t in canonical_types(8)
        for spec in real_forms(t)
        if len(set(restricted_ranks(satake_of(spec)))) == 2
    }
    assert set(anomaly_scan(8)) == expected


def test_anomaly_scan_profiles_only_types_where_w0_moves_nodes(monkeypatch):
    calls = []
    factor_profile = cones.factor_profile

    def counted(spec):
        calls.append(spec)
        return factor_profile(spec)

    monkeypatch.setattr(catalog, "factor_profile", counted)
    anomaly_scan(12)
    assert calls == [spec for t in canonical_types(12) if iota_run(t) for spec in real_forms(t)]
    assert {satake_of(spec).lie_type.letter for spec in calls} == {"A", "D", "E"}


def test_no_compact_form_families():
    for family in NO_COMPACT_FORM_FAMILIES:
        assert example_verdict(family) is Verdict.NO_NON_VIRTUALLY_ABELIAN, family.label


def test_no_compact_form_family_sweep():
    # the first four families stay rank-balanced across parameters
    for family in NO_COMPACT_FORM_FAMILIES[:4]:
        for k in (1, 2, 3):
            for l in (1, 2):
                verdict = example_verdict(family, {"k": k, "l": l})
                assert verdict is Verdict.NO_NON_VIRTUALLY_ABELIAN, (family.label, k, l)


def test_admitting_families():
    for family in ADMITTING_FAMILIES:
        assert example_verdict(family) is Verdict.ADMITS_NON_VIRTUALLY_ABELIAN, family.label


def test_admitting_family_sweep():
    for family in ADMITTING_FAMILIES[:2]:
        for k in (1, 2, 3):
            for l in (1, 2):
                verdict = example_verdict(family, {"k": k, "l": l})
                assert verdict is Verdict.ADMITS_NON_VIRTUALLY_ABELIAN, (family.label, k, l)


def test_instantiate_row_example():
    # one worked instance of the odd orthogonal row, parsed from its templates
    g = parse("so(2n+1-2s-2t, 2s+2t)", {"n": 3, "a": 2, "s": 1, "t": 0})
    h = parse("u(a-s,s) x so(2n-2a+1-2t, 2t)", {"n": 3, "a": 2, "s": 1, "t": 0})
    from ahrank.cones import rank_profile
    from ahrank.decision import decide

    decision = decide(rank_profile(g), rank_profile(h))
    assert decision.verdict is Verdict.ADMITS_NON_VIRTUALLY_ABELIAN
    assert decision.trace[-1].condition == "C"
    assert (decision.trace[-1].lhs, decision.trace[-1].rhs) == (2, 1)


def test_reports_serialize():
    report = verify_table2(2)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(payload)["passed"] is True
    report = verify_table1(3)
    assert json.loads(json.dumps(report.to_dict()))["passed"] is True


def test_bounds_validated():
    with pytest.raises(ValueError):
        verify_table1(0)
    with pytest.raises(ValueError):
        verify_table2(1)
    with pytest.raises(ValueError):
        anomaly_scan(1)


def test_round_trip_over_catalog_templates():
    from ahrank.catalog import _instances
    from ahrank.notation import render

    algebras = []
    for row in TABLE2 + DISPUTED_ENTRIES + (OPEN_CASE,):
        for params in _instances(row, 4):
            algebras.append(parse(row.g_template, params))
            algebras.append(parse(row.h_template, params))
    for family in NO_COMPACT_FORM_FAMILIES + ADMITTING_FAMILIES:
        algebras.append(parse(family.g_template, family.smallest))
        algebras.append(parse(family.h_template, family.smallest))
    assert algebras
    for algebra in algebras:
        assert parse(render(algebra)) == algebra
