"""Decision engine for discontinuous actions on reductive homogeneous spaces.

Given only the rank profiles of g and h (no embedding data), three
conditions are tested in order:

  (A) equal real ranks            -> no infinite discontinuous subgroup
                                     acts properly (Calabi-Markus);
  (B) equal a-hyperbolic ranks    -> no non-virtually-abelian discrete
                                     subgroup acts properly;
  (C) a-hyp rank of g exceeds the
      real rank of h              -> a non-virtually-abelian discrete
                                     subgroup acting properly exists.

If none fires the answer is genuinely undetermined at this level: both
outcomes occur among such pairs.  The engine never verifies that h embeds
into g; it only rejects pairs whose ranks already contradict h being a
closed reductive subgroup.
"""

from __future__ import annotations

import enum

from .cones import RankProfile
from .rootsys import Record


class Verdict(enum.Enum):
    NO_INFINITE_DISCONTINUOUS = "NoInfiniteDiscontinuous"
    NO_NON_VIRTUALLY_ABELIAN = "NoNonVirtuallyAbelian"
    ADMITS_NON_VIRTUALLY_ABELIAN = "AdmitsNonVirtuallyAbelian"
    UNDETERMINED = "Undetermined"


class TraceStep(Record):
    """One comparison evaluated by the engine."""

    __slots__ = ("condition", "lhs", "op", "rhs", "holds")

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "lhs": self.lhs,
            "op": self.op,
            "rhs": self.rhs,
            "holds": self.holds,
        }


class Decision(Record):
    __slots__ = ("verdict", "trace")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "trace": [step.to_dict() for step in self.trace],
        }


class NotASubgroupPairError(ValueError):
    """h dominates g in some rank, so h cannot be a closed reductive
    subgroup of g."""


#: The conditions in evaluation order: (condition, lhs, op, rhs, verdict),
#: with lhs and rhs naming a rank of g and of h.
_CONDITIONS = (
    ("A", "real_rank", "==", "real_rank", Verdict.NO_INFINITE_DISCONTINUOUS),
    ("B", "a_hyperbolic_rank", "==", "a_hyperbolic_rank", Verdict.NO_NON_VIRTUALLY_ABELIAN),
    ("C", "a_hyperbolic_rank", ">", "real_rank", Verdict.ADMITS_NON_VIRTUALLY_ABELIAN),
)

#: The ranks an obstruction can name, in the order ``decide`` reports them.
_RANK_NAMES = {"real_rank": "real rank", "a_hyperbolic_rank": "a-hyperbolic rank"}


def decide(g: RankProfile, h: RankProfile) -> Decision:
    """Evaluate conditions (A), (B), (C) in order; the first that holds
    fixes the verdict, and every evaluated comparison is recorded.  A pair
    that ``embed_obstruction`` rejects raises ``NotASubgroupPairError``,
    naming the real rank before the a-hyperbolic rank."""
    witnesses = embed_obstruction(g, h).witnesses
    for field, rank in _RANK_NAMES.items():
        if field in witnesses:
            raise NotASubgroupPairError(
                f"{rank} of h ({getattr(h, field)}) exceeds {rank} of g "
                f"({getattr(g, field)}); closed reductive subgroups never exceed "
                f"the ambient {rank}"
            )
    trace = []
    for condition, lhs_field, op, rhs_field, verdict in _CONDITIONS:
        lhs, rhs = getattr(g, lhs_field), getattr(h, rhs_field)
        holds = lhs == rhs if op == "==" else lhs > rhs
        trace.append(TraceStep(condition, lhs, op, rhs, holds))
        if holds:
            return Decision(verdict, tuple(trace))
    return Decision(Verdict.UNDETERMINED, tuple(trace))


class Obstruction(Record):
    """Result of the embedding filter: which rank dominations fail."""

    __slots__ = ("obstructed", "witnesses")

    def to_dict(self) -> dict:
        return {"obstructed": self.obstructed, "witnesses": list(self.witnesses)}


def embed_obstruction(g: RankProfile, h: RankProfile) -> Obstruction:
    """h can sit inside g as a closed reductive subgroup only if neither of
    its ranks exceeds the corresponding rank of g; returns the failing
    inequalities."""
    witnesses = []
    if h.a_hyperbolic_rank > g.a_hyperbolic_rank:
        witnesses.append("a_hyperbolic_rank")
    if h.real_rank > g.real_rank:
        witnesses.append("real_rank")
    return Obstruction(bool(witnesses), tuple(witnesses))
