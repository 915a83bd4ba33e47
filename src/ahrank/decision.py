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

    def __init__(self, condition: str, lhs: int, op: str, rhs: int, holds: bool) -> None:
        set_condition, set_lhs, set_op, set_rhs, set_holds = self._setters
        set_condition(self, condition)
        set_lhs(self, lhs)
        set_op(self, op)
        set_rhs(self, rhs)
        set_holds(self, holds)


class Decision(Record):
    __slots__ = ("verdict", "trace")

    def __init__(self, verdict: Verdict, trace: tuple[TraceStep, ...]) -> None:
        set_verdict, set_trace = self._setters
        set_verdict(self, verdict)
        set_trace(self, trace)


class NotASubgroupPairError(ValueError):
    """h dominates g in some rank, so h cannot be a closed reductive
    subgroup of g."""


def decide(g: RankProfile, h: RankProfile) -> Decision:
    """Evaluate conditions (A), (B), (C) in order; the first that holds
    fixes the verdict, and every evaluated comparison is recorded.  A pair
    in which a rank of h exceeds the same rank of g raises
    ``NotASubgroupPairError``, naming the real rank before the a-hyperbolic
    rank."""
    g_real, g_ahyp = g.real_rank, g.a_hyperbolic_rank
    h_real, h_ahyp = h.real_rank, h.a_hyperbolic_rank
    if h_real > g_real:
        raise NotASubgroupPairError(
            f"real rank of h ({h_real}) exceeds real rank of g ({g_real}); closed "
            "reductive subgroups never exceed the ambient real rank"
        )
    if h_ahyp > g_ahyp:
        raise NotASubgroupPairError(
            f"a-hyperbolic rank of h ({h_ahyp}) exceeds a-hyperbolic rank of g ({g_ahyp}); "
            "closed reductive subgroups never exceed the ambient a-hyperbolic rank"
        )
    trace = []
    for condition, lhs, op, rhs, holds, verdict in (
        ("A", g_real, "==", h_real, g_real == h_real, Verdict.NO_INFINITE_DISCONTINUOUS),
        ("B", g_ahyp, "==", h_ahyp, g_ahyp == h_ahyp, Verdict.NO_NON_VIRTUALLY_ABELIAN),
        ("C", g_ahyp, ">", h_real, g_ahyp > h_real, Verdict.ADMITS_NON_VIRTUALLY_ABELIAN),
    ):
        trace.append(TraceStep(condition, lhs, op, rhs, holds))
        if holds:
            return Decision(verdict, tuple(trace))
    return Decision(Verdict.UNDETERMINED, tuple(trace))


class Obstruction(Record):
    """Result of the embedding filter: which rank dominations fail."""

    __slots__ = ("obstructed", "witnesses")


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
