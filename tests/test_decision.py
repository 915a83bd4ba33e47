"""Decision engine: conditions (A), (B), (C), traces, and the obstruction."""

from __future__ import annotations

import itertools

import pytest

from ahrank.cones import RankProfile, factor_profile, rank_profile
from ahrank.decision import (
    NotASubgroupPairError,
    Verdict,
    decide,
    embed_obstruction,
)
from ahrank.notation import parse


def profile(expr: str, params=None) -> RankProfile:
    return rank_profile(parse(expr, params))


def test_sl10_so55_undetermined():
    decision = decide(profile("sl(10,R)"), profile("so(5,5)"))
    assert decision.verdict is Verdict.UNDETERMINED
    assert [(s.condition, s.lhs, s.rhs, s.holds) for s in decision.trace] == [
        ("A", 9, 5, False),
        ("B", 5, 4, False),
        ("C", 5, 5, False),
    ]


def test_sl10_sl3xsl7_undetermined():
    decision = decide(profile("sl(10,R)"), profile("sl(3,R) x sl(7,R)"))
    assert decision.verdict is Verdict.UNDETERMINED
    assert decision.trace[-1].rhs == 8  # condition (C) fails against real rank 8


def test_admits_via_c():
    decision = decide(profile("sl(6,R)"), profile("so(1,2) x so(1,2)"))
    assert decision.verdict is Verdict.ADMITS_NON_VIRTUALLY_ABELIAN
    assert decision.trace[-1].condition == "C"
    assert decision.trace[-1].holds


def test_condition_a_short_circuits():
    decision = decide(RankProfile(2, 2), RankProfile(2, 1))
    assert decision.verdict is Verdict.NO_INFINITE_DISCONTINUOUS
    assert len(decision.trace) == 1
    assert decision.trace[0].condition == "A"


def test_condition_b():
    decision = decide(RankProfile(3, 2), RankProfile(2, 2))
    assert decision.verdict is Verdict.NO_NON_VIRTUALLY_ABELIAN
    assert [s.condition for s in decision.trace] == ["A", "B"]


REAL_RANK_MESSAGE = (
    "real rank of h ({h}) exceeds real rank of g ({g}); closed reductive "
    "subgroups never exceed the ambient real rank"
)
AHYP_RANK_MESSAGE = (
    "a-hyperbolic rank of h ({h}) exceeds a-hyperbolic rank of g ({g}); closed "
    "reductive subgroups never exceed the ambient a-hyperbolic rank"
)


def test_subgroup_pair_preconditions():
    cases = [
        # only the real rank dominates
        (RankProfile(2, 2), RankProfile(3, 2), REAL_RANK_MESSAGE.format(h=3, g=2)),
        # only the a-hyperbolic rank dominates
        (RankProfile(5, 1), RankProfile(4, 2), AHYP_RANK_MESSAGE.format(h=2, g=1)),
        # both dominate: the real rank is named
        (RankProfile(3, 3), RankProfile(8, 8), REAL_RANK_MESSAGE.format(h=8, g=3)),
    ]
    for g, h, message in cases:
        with pytest.raises(NotASubgroupPairError) as err:
            decide(g, h)
        assert str(err.value) == message


def test_decision_serialization():
    payload = decide(RankProfile(5, 3), RankProfile(2, 2)).to_dict()
    assert payload["verdict"] == "AdmitsNonVirtuallyAbelian"
    assert payload["trace"][0] == {"condition": "A", "lhs": 5, "op": "==", "rhs": 2, "holds": False}


ALL_PROFILES = [
    RankProfile(real, ahyp) for real in range(0, 6) for ahyp in range(0, real + 1)
]


def test_verdict_properties_exhaustive():
    for g, h in itertools.product(ALL_PROFILES, repeat=2):
        if h.real_rank > g.real_rank or h.a_hyperbolic_rank > g.a_hyperbolic_rank:
            with pytest.raises(NotASubgroupPairError):
                decide(g, h)
            continue
        decision = decide(g, h)
        conditions = [s.condition for s in decision.trace]
        # short-circuit: (A) holding hides (B) and (C)
        if decision.verdict is Verdict.NO_INFINITE_DISCONTINUOUS:
            assert conditions == ["A"]
        # never admits when the a-hyperbolic ranks agree
        if h.a_hyperbolic_rank == g.a_hyperbolic_rank:
            assert decision.verdict is not Verdict.ADMITS_NON_VIRTUALLY_ABELIAN
        # compact h: admits exactly when g has positive a-hyperbolic rank
        if h == RankProfile(0, 0) and g.real_rank > 0 and g.a_hyperbolic_rank > 0:
            assert decision.verdict is Verdict.ADMITS_NON_VIRTUALLY_ABELIAN


@pytest.mark.parametrize(
    "h_expr", ["g2(split)", "so(2,3)", "so(2,5)", "so(2,7)", "sp(2,R)"]
)
def test_embedding_obstructions_into_e6_iv(h_expr):
    obstruction = embed_obstruction(profile("e6(IV)"), profile(h_expr))
    assert obstruction.obstructed
    assert "a_hyperbolic_rank" in obstruction.witnesses


def test_obstruction_negative():
    assert not embed_obstruction(RankProfile(5, 3), RankProfile(2, 2)).obstructed


def test_obstruction_witness_real_rank():
    obstruction = embed_obstruction(RankProfile(2, 2), RankProfile(3, 2))
    assert obstruction.obstructed
    assert obstruction.witnesses == ("real_rank",)
    assert embed_obstruction(RankProfile(3, 2), RankProfile(2, 2)).witnesses == ()


def test_rank_one_groups_never_admit(database):
    # a group with a-hyperbolic rank 1 never admits a non-virtually-abelian
    # action on G/H for reductive H of a-hyperbolic rank 1
    for g_expr in ("e6(IV)", "so*(6)", "sl(3,R)"):
        g = profile(g_expr)
        assert g.a_hyperbolic_rank == 1
        for spec, _diagram in database:
            h = factor_profile(spec)
            if h.a_hyperbolic_rank != 1 or h.real_rank > g.real_rank:
                continue
            verdict = decide(g, h).verdict
            assert verdict in (
                Verdict.NO_INFINITE_DISCONTINUOUS,
                Verdict.NO_NON_VIRTUALLY_ABELIAN,
            ), (g_expr, spec)
