"""Expression parser and canonical printer."""

from __future__ import annotations

import pytest
from conftest import database_specs

from ahrank.catalog import anomaly_scan, verify_table1
from ahrank.cones import RankProfile, ReductiveAlgebra, rank_profile
from ahrank.notation import ParseError, _memo_parse, parse, parse_expression, render
from ahrank.satake import FAMILIES, RealFormSpec


def spec(family: str, *params: int) -> RealFormSpec:
    return RealFormSpec(family, tuple(params))


@pytest.mark.parametrize(
    "text,factors,compact,split",
    [
        ("SU*(14)", (spec("su_star", 14),), 0, 0),
        ("sl(6,R)", (spec("sl_R", 6),), 0, 0),
        ("sl(3,C)", (spec("complex_A", 2),), 0, 0),
        ("sl(3,H)", (spec("su_star", 6),), 0, 0),
        ("su(2,5)", (spec("su_pq", 2, 5),), 0, 0),
        ("su(4)", (spec("compact_A", 3),), 0, 0),
        ("so(3,4)", (spec("so_pq", 3, 4),), 0, 0),
        ("so(2,1)", (spec("so_pq", 2, 1),), 0, 0),
        ("so(7)", (spec("compact_B", 3),), 0, 0),
        ("so(8)", (spec("compact_D", 4),), 0, 0),
        ("so*(10)", (spec("so_star", 10),), 0, 0),
        ("sp(3,R)", (spec("sp_R", 3),), 0, 0),
        ("sp(2,1)", (spec("sp_pq", 2, 1),), 0, 0),
        ("sp(3)", (spec("compact_C", 3),), 0, 0),
        ("sp(2,C)", (spec("complex_C", 2),), 0, 0),
        ("so(7,C)", (spec("complex_B", 3),), 0, 0),
        ("so(8,C)", (spec("complex_D", 4),), 0, 0),
        ("e6(I)", (spec("e6_I"),), 0, 0),
        ("e7(vii)", (spec("e7_VII"),), 0, 0),
        ("e8(VIII)", (spec("e8_VIII"),), 0, 0),
        ("f4(II)", (spec("f4_II"),), 0, 0),
        ("g2(split)", (spec("g2_split"),), 0, 0),
        ("g2", (spec("compact_G", 2),), 0, 0),
        ("e6", (spec("compact_E", 6),), 0, 0),
        ("e6(C)", (spec("complex_E", 6),), 0, 0),
        ("T^3", (), 3, 0),
        ("R^2", (), 0, 2),
        ("u(3)", (spec("compact_A", 2),), 1, 0),
        ("u(1)", (), 1, 0),
        ("u(2,2)", (spec("su_pq", 2, 2),), 1, 0),
        ("S(U(4,3)xU(1))", (spec("su_pq", 4, 3),), 1, 0),
        ("Spin(5,2)", (spec("so_pq", 5, 2),), 0, 0),
        # low-rank normalizations
        ("so(2)", (), 1, 0),
        ("so(1,1)", (), 0, 1),
        ("so(2,2)", (spec("sl_R", 2), spec("sl_R", 2)), 0, 0),
        ("so(3,1)", (spec("complex_A", 1),), 0, 0),
        ("so(4)", (spec("compact_A", 1), spec("compact_A", 1)), 0, 0),
        ("sp(1,R)", (spec("sl_R", 2),), 0, 0),
        ("su*(2)", (spec("compact_A", 1),), 0, 0),
        ("so*(2)", (), 1, 0),
        ("so(3,C)", (spec("complex_A", 1),), 0, 0),
        ("so(2,C)", (), 1, 1),
        ("sp(1,C)", (spec("complex_A", 1),), 0, 0),
        ("sl(2,H)", (spec("su_star", 4),), 0, 0),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_atoms(text, factors, compact, split):
    algebra = parse(text)
    assert algebra == ReductiveAlgebra(factors, compact, split)


def test_products_and_separators():
    expected = ReductiveAlgebra((spec("sl_R", 2), spec("su_pq", 2, 1)), 1, 0)
    for text in (
        "sl(2,R) x su(2,1) x T^1",
        "sl(2,R)*su(2,1)*T^1",
        "sl(2,R) × su(2,1) × T^1",
        "su(2,1)xT^1xsl(2,R)",
    ):
        assert parse(text) == expected, text


def test_quotients_and_braces_stripped():
    record = parse_expression("{SL(3,C) x SU(2,1)}/Z3")
    assert record.algebra == ReductiveAlgebra((spec("complex_A", 2), spec("su_pq", 2, 1)))
    assert "discrete quotient" in record.discarded
    assert "grouping braces" in record.discarded
    # stripping never changes the rank profile
    assert rank_profile(record.algebra) == rank_profile(parse("SL(3,C) x SU(2,1)"))


def test_unbalanced_braces_tolerated():
    # some source tables carry unbalanced brace groups
    algebra = parse("{SU(3)×[SU(5,1)/Z_2]/Z_3")
    assert algebra == ReductiveAlgebra((spec("compact_A", 2), spec("su_pq", 5, 1)))


def test_nested_quotient_group():
    algebra = parse("{ SU(2,1) x SU(2,1) x SU(2,1) } / { Z_2 x Z_3 }")
    assert algebra == ReductiveAlgebra((spec("su_pq", 2, 1),) * 3)


def test_spin_prefix_flagged():
    record = parse_expression("Spin(4,4)")
    assert record.algebra == ReductiveAlgebra((spec("so_pq", 4, 4),))
    assert "covering prefix Spin" in record.discarded


def test_parameter_substitution():
    algebra = parse("U(1,1) x SO(2k-1,2k-1)", {"k": 2})
    assert algebra == ReductiveAlgebra(
        (spec("so_pq", 3, 3), spec("su_pq", 1, 1)), compact_center_dim=1
    )
    assert parse("sl(4k+2l,R)", {"k": 1, "l": 1}) == parse("sl(6,R)")
    assert parse("T^k", {"k": 4}) == ReductiveAlgebra((), 4, 0)


def test_degenerate_arguments_vanish():
    assert parse("su(1,1) x sp(0,R)") == ReductiveAlgebra((spec("su_pq", 1, 1),))
    assert parse("so(1) x so(3)") == ReductiveAlgebra((spec("compact_B", 1),))
    assert parse("su(5,0)") == parse("su(5)")


def test_normalization_preserves_profiles():
    assert rank_profile(parse("so(2,2)")) == RankProfile(2, 2)
    assert rank_profile(parse("sl(2,R) x sl(2,R)")) == RankProfile(2, 2)
    assert rank_profile(parse("so(3,1)")) == rank_profile(parse("sl(2,C)")) == RankProfile(1, 1)


def test_render_sorted_canonical():
    assert render(parse("sl(7,R) x sl(3,R)")) == "sl(3,R) x sl(7,R)"
    assert render(parse("u(2,1)")) == "su(1,2) x T^1"
    assert render(parse("so(1,1) x T^2")) == "T^2 x R^1"
    assert render(parse("e6(IV) x f4")) == "f4 x e6(IV)"  # sorted by family label


#: One spec per naming branch of the printer, each its own canonical image.
RENDERED_NAMES = [
    (("sl_R", (3,)), "sl(3,R)"),
    (("su_star", (6,)), "su*(6)"),
    (("sp_R", (3,)), "sp(3,R)"),
    (("so_star", (10,)), "so*(10)"),
    (("su_pq", (2, 3)), "su(2,3)"),
    (("so_pq", (2, 5)), "so(2,5)"),
    (("sp_pq", (1, 2)), "sp(1,2)"),
    (("compact_A", (3,)), "su(4)"),
    (("compact_B", (3,)), "so(7)"),
    (("compact_C", (3,)), "sp(3)"),
    (("compact_D", (4,)), "so(8)"),
    (("compact_E", (6,)), "e6"),
    (("compact_F", (4,)), "f4"),
    (("compact_G", (2,)), "g2"),
    (("complex_A", (3,)), "sl(4,C)"),
    (("complex_B", (3,)), "so(7,C)"),
    (("complex_C", (3,)), "sp(3,C)"),
    (("complex_D", (4,)), "so(8,C)"),
    (("complex_E", (7,)), "e7(C)"),
    (("complex_F", (4,)), "f4(C)"),
    (("complex_G", (2,)), "g2(C)"),
    (("e6_IV", ()), "e6(IV)"),
]


@pytest.mark.parametrize(("spec", "name"), RENDERED_NAMES)
def test_render_names_each_family(spec, name):
    alg = ReductiveAlgebra((RealFormSpec(*spec),))
    assert alg.simple_factors == (RealFormSpec(*spec),)
    assert render(alg) == name


ISOMORPHIC_PAIRS = [
    ("su(1,2)", "su(2,1)"), ("so(1,4)", "so(4,1)"), ("so(4)", "so(3) x so(3)"),
    ("su(1,1)", "sl(2,R)"), ("so(2,3)", "sp(2,R)"), ("so(3,3)", "sl(4,R)"),
    ("so(2,4)", "su(2,2)"), ("so*(6)", "su(3,1)"), ("so*(8)", "so(6,2)"),
    ("su*(4)", "so(5,1)"), ("sp(1,1)", "so(4,1)"), ("so(5)", "sp(2)"), ("so(6)", "su(4)"),
    ("so(5,C)", "sp(2,C)"), ("so(6,C)", "sl(4,C)"), ("so*(4)", "su(2) x sl(2,R)"),
    ("so(3)", "su(2)"), ("sp(1)", "su(2)"), ("so(1,2)", "sl(2,R)"),
]


@pytest.mark.parametrize("left,right", ISOMORPHIC_PAIRS)
def test_isomorphic_inputs_equal(left, right):
    assert parse(left) == parse(right)
    assert hash(parse(left)) == hash(parse(right))
    assert render(parse(left)) == render(parse(right))


def test_library_built_algebra_canonical():
    assert ReductiveAlgebra((spec("su_pq", 2, 1),)) == parse("su(1,2)")


ROUND_TRIP_CORPUS = [
    "sl(5,R)", "su*(8)", "su(3,2)", "su(6)", "so(4,7)", "so(9)", "so(12)",
    "so*(12)", "so*(4)", "sp(4,R)", "sp(2,2)", "sp(5)", "sl(4,C)", "so(11,C)",
    "so(10,C)", "sp(3,C)", "e6(I)", "e6(II)", "e6(III)", "e6(IV)", "e7(V)",
    "e7(VI)", "e7(VII)", "e8(VIII)", "e8(IX)", "f4(I)", "f4(II)", "g2(split)",
    "e6", "e7", "e8", "f4", "g2", "e7(C)", "g2(C)", "T^2", "R^3",
    "su(2,1) x su(2,1) x su(2,1)", "u(4,3)", "{sl(3,C) x T^1}/Z_3",
    "so(3,3) x su(1,1) x T^1", "so(2,1) x so(1,2)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_parse_render_round_trip(text):
    algebra = parse(text)
    assert parse(render(algebra)) == algebra
    # canonicalization is idempotent through the printer
    assert render(parse(render(algebra))) == render(algebra)


def test_every_family_row_round_trips():
    # the first instance of each family in the database, printed from its
    # row's name and parsed back
    first = {spec.family: spec for spec in reversed(database_specs(8, 8))}
    assert set(first) == set(FAMILIES)
    for spec in first.values():
        algebra = ReductiveAlgebra((spec,))
        assert parse(render(algebra)) == algebra


@pytest.mark.parametrize(
    "text,reason_part,position",
    [
        ("gl(3,R)", "unknown atom", 0),
        ("sl(2k,R)", "unbound parameter", 4),
        ("su*(7)", "even", 0),
        ("sl(4)", "field", 0),
        ("sl(3)", "sl requires a field", 0),
        ("sl(3,2)", "sl requires a field", 0),
        ("su*(4,2)", "su* takes a single argument", 0),
        ("so*(4,2)", "so* takes a single argument", 0),
        ("so(3,4) y", "between factors", 8),
        ("so(3,", "integer argument", 5),
        ("su(1)", "zero algebra", 0),
        ("sp(-2,R)", "negative dimension", 2),
        ("e6(V)", "unknown form", 0),
        ("e5", "unknown exceptional type", 0),
        ("g2(I)", "unknown form 'i' for g2", 0),
        ("e6(split)", "unknown form 'split' for e6", 0),
        ("f4(III)", "unknown form 'iii' for f4", 0),
        ("e6(4)", "expected a form label for e6", 3),
        ("e9(I)", "unknown exceptional type e9", 0),
        ("T^²", "unexpected character '²'", 2),
        ("sl(²,R)", "unexpected character '²'", 3),
        ("sl(2,R)/Z_", "expected a subscript after '_'", 10),
        ("sl(2,R)/Z_ x su(1,1)", "expected a subscript after '_'", 11),
        ("sl(2,R)/ x su(2)", "expected a discrete group after '/'", 9),
        ("sl(2,R)/xsu(2)", "expected a discrete group after '/'", 8),
        ("sl(2,R)/Z_{}", "empty quotient group", 10),
        ("sl(2,R)/{}", "empty quotient group", 8),
        ("sl(3,R)\u200b", "unexpected character '\\u200b'", 7),
        ("su(2) x", "expected an algebra name", 7),
        ("T(3)", "expected '^' after T", 1),
        ("S(su(2))", "S(...) expects U(...) factors", 2),
        ("e(I)", "unknown atom 'e'", 0),
        ("x su(2)", "unknown atom 'x'", 0),
        ("so(3,C", "expected ')' closing the arguments of so", 6),
        ("sl 3,R)", "expected '(' after sl", 3),
        ("g2(I", "expected ')' closing the form of g2", 4),
        ("S(U(2)", "expected ')' closing S(...)", 6),
        ("T^-1", "torus dimension must be nonnegative", 0),
        ("R^-2", "split-abelian dimension must be nonnegative", 0),
        ("sl(0,R)", "sl(0,...) is not an algebra", 0),
        ("so*(3)", "so* takes an even argument, got 3", 0),
        ("sl(3,Q)", "'q' is neither a field of sl (R, C or H) nor a bound parameter", 5),
        ("so(3,Q)", "'q' is neither a field of so (C) nor a bound parameter", 5),
        ("sp(3,Q)", "'q' is neither a field of sp (R or C) nor a bound parameter", 5),
    ],
)
def test_parse_errors_with_position(text, reason_part, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert reason_part in err.value.reason
    assert err.value.position == position


def test_unicode_field_letters():
    assert parse("sl(3,ℝ)") == parse("sl(3,R)")
    assert parse("sl(2,ℂ) × su(2,1)") == parse("sl(2,C) x su(2,1)")


def test_unicode_digits_and_trailing_whitespace():
    expected = parse_expression("sl(3,R)")
    assert parse_expression("sl(٣,R)").algebra == expected.algebra
    trailing = parse_expression("sl(3,R) ")
    assert (trailing.algebra, trailing.discarded) == (expected.algebra, expected.discarded)


def test_parse_memo_returns_the_identical_record():
    record = parse_expression("{sl(3,C) x su(2,1)}/Z_3")
    assert parse_expression("{sl(3,C) x su(2,1)}/Z_3") is record


def test_parse_memo_keys_on_the_param_values():
    assert parse("sl(k,R)", {"k": 3}) == parse("sl(3,R)")
    assert parse("sl(k,R)", {"k": 4}) == parse("sl(4,R)")


def test_parse_memo_keys_on_integer_values():
    """A value that is not an integer is refused whether or not its integer
    was parsed before, and a bool shares its integer's record."""
    with pytest.raises(TypeError):
        parse("sl(k,R)", {"k": 3.0})
    assert parse("sl(k,R)", {"k": 3}) == parse("sl(3,R)")
    with pytest.raises(TypeError):
        parse("sl(k,R)", {"k": 3.0})
    assert parse("T^k", {"k": True}) is parse("T^k", {"k": 1})


def test_parse_memo_key_ignores_param_order():
    _memo_parse.cache_clear()
    record = parse_expression("sl(4k+2l,R)", {"k": 1, "l": 2})
    assert parse_expression("sl(4k+2l,R)", {"l": 2, "k": 1}) is record
    info = _memo_parse.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_parse_memo_keeps_no_failed_parse():
    before = _memo_parse.cache_info()
    for _ in range(2):
        with pytest.raises(ParseError):
            parse("sl(3,Q)")
    after = _memo_parse.cache_info()
    assert after.currsize == before.currsize
    assert after.misses - before.misses == 2


def test_parse_memo_is_bounded():
    _memo_parse.cache_clear()
    for k in range(2050):
        parse("T^k", {"k": k + 1})
    info = _memo_parse.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (2050, 2048, 2048)


def test_catalog_sweeps_bypass_the_parse_memo():
    before = _memo_parse.cache_info()
    anomaly_scan(12)
    verify_table1(20)
    assert _memo_parse.cache_info() == before
