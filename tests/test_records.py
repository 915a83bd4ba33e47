"""The value semantics of the engine's records: equality and hash by field
values within one class, repr, immutability, and the constructor checks."""

from __future__ import annotations

import itertools

import pytest

from ahrank.catalog import VerificationReport
from ahrank.cones import RankProfile, ReductiveAlgebra
from ahrank.decision import Decision, Obstruction, TraceStep, Verdict
from ahrank.notation import AlgebraExpression
from ahrank.rootsys import LieType
from ahrank.satake import RealFormSpec, SatakeDiagram

_SL3 = RealFormSpec("sl_R", (3,))
_ALGEBRA = ReductiveAlgebra((_SL3,), 1, 2)

#: Each engine record class with its field names and one valid set of
#: field values, already in canonical form.
SAMPLES = [
    (LieType, ("letter", "rank"), ("A", 3)),
    (RealFormSpec, ("family", "params"), ("sl_R", (3,))),
    (
        SatakeDiagram,
        ("lie_type", "black", "arrows", "components"),
        (LieType("A", 3), frozenset({2}), frozenset({(1, 3)}), 1),
    ),
    (RankProfile, ("real_rank", "a_hyperbolic_rank"), (3, 1)),
    (ReductiveAlgebra, ("simple_factors", "compact_center_dim", "split_center_dim"), ((_SL3,), 1, 2)),
    (TraceStep, ("condition", "lhs", "op", "rhs", "holds"), ("A", 2, "==", 2, True)),
    (Decision, ("verdict", "trace"), (Verdict.UNDETERMINED, ())),
    (Obstruction, ("obstructed", "witnesses"), (True, ("real_rank",))),
    (AlgebraExpression, ("source", "algebra", "discarded"), ("sl(3,R) x T^1 x R^2", _ALGEBRA, ())),
    (
        VerificationReport,
        ("rows_checked", "instances_checked", "failures", "skips"),
        (2, 5, (), (("row 3", (("n", 2),), "G not simple noncompact"),)),
    ),
]

_IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _bare(cls, names, values):
    """A record of ``cls`` holding ``values``, built without its
    constructor's checks."""
    record = object.__new__(cls)
    for name, value in zip(names, values):
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize("cls,names,values", SAMPLES, ids=_IDS)
def test_equal_fields_equal_records(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(values))
    assert tuple(getattr(a, name) for name in names) == values
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls,names,values", SAMPLES, ids=_IDS)
def test_records_never_equal_plain_tuples(cls, names, values):
    record = cls(*values)
    assert record != tuple(values)
    assert tuple(values) != record
    # another class decides for itself whether it equals a record
    assert record.__eq__(tuple(values)) is NotImplemented


def test_records_of_two_classes_with_equal_fields_differ():
    pairs = 0
    for (a_cls, _, values), (b_cls, b_names, _) in itertools.permutations(SAMPLES, 2):
        if len(b_names) == len(values):
            assert a_cls(*values) != _bare(b_cls, b_names, values), (a_cls, b_cls)
            pairs += 1
    assert pairs


@pytest.mark.parametrize("cls,names,values", SAMPLES, ids=_IDS)
def test_records_are_immutable(cls, names, values):
    record = cls(*values)
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values", SAMPLES, ids=_IDS)
def test_repr_names_every_field(cls, names, values):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize(
    "build",
    [
        lambda: LieType("X", 2),
        lambda: LieType("E", 5),
        lambda: RankProfile(1, 2),
        lambda: RankProfile(1, -1),
        lambda: ReductiveAlgebra(),
        lambda: ReductiveAlgebra((_SL3,), -1, 0),
        lambda: ReductiveAlgebra((), 0, -1),
    ],
)
def test_constructor_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("values", [(True,), (True, (), 1)], ids=["short", "long"])
def test_generic_constructor_rejects_a_wrong_field_count(values):
    with pytest.raises(ValueError):
        Obstruction(*values)


def test_rank_profile_error_names_the_record():
    with pytest.raises(ValueError, match=r"RankProfile\(real_rank=1, a_hyperbolic_rank=2\)"):
        RankProfile(1, 2)


def test_reductive_algebra_canonicalises_its_factors():
    swapped = ReductiveAlgebra((RealFormSpec("su_pq", (2, 1)), _SL3))
    assert swapped.simple_factors == (_SL3, RealFormSpec("su_pq", (1, 2)))
    assert swapped == ReductiveAlgebra((_SL3, RealFormSpec("su_pq", (1, 2))))
