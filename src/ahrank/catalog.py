"""Versioned datasets and verification harnesses.

Two datasets ship with the package:

* Table 1 ("rank table"): the families of real forms of simple Lie
  algebras whose a-hyperbolic rank differs from their real rank, with
  closed-form values for both ranks.

* Table 2 ("3-symmetric table"): the noncompact simple 3-symmetric spaces
  G/H admitting a properly discontinuous action of a non-virtually-abelian
  discrete subgroup, stored as parameterized rows of algebra templates.
  The one space whose status the rank conditions leave open,
  SO(2k+1,2k+1)/(U(1,1) x SO(2k-1,2k-1)), is stored separately and is
  expected to come out Undetermined.

Rows are data, one record per source row, so that questionable entries can
be annotated without touching code.  A few constraint footnotes in the
source tabulation are provably inconsistent with the table's own defining
property (they admit instances with equal real ranks, where the
Calabi-Markus condition rules out any infinite discontinuous group); the
encoded domains tighten those footnotes and carry a ``note`` explaining
the change, with the footnote as printed kept in ``printed_constraints``.
Two fixed sub-entries that fail the same sanity check are kept in
``DISPUTED_ENTRIES`` with their computed verdicts instead of being
silently dropped.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

from .cones import RankProfile, ReductiveAlgebra, factor_profile, rank_profile
from .decision import Verdict, decide
from .notation import parse
from .rootsys import Record, canonical_types
from .satake import RealFormSpec, real_forms, satake_of


# ---------------------------------------------------------------------------
# Table 1: real forms with a-hyperbolic rank below the real rank

class RankTableRow(Record):
    __slots__ = ("source", "label", "spec_of", "expected", "k_min")

    def __init__(
        self,
        source: str,
        label: str,
        spec_of: Callable[[int], RealFormSpec],
        expected: Callable[[int], tuple[int, int]],  # (a-hyperbolic, real)
        k_min: int = 1,
    ) -> None:
        Record.__init__(self, source, label, spec_of, expected, k_min)


TABLE1_FAMILIES: tuple[RankTableRow, ...] = (
    RankTableRow(
        "rank table, row 1",
        "sl(2k,R)",
        lambda k: RealFormSpec("sl_R", (2 * k,)),
        lambda k: (k, 2 * k - 1),
    ),
    RankTableRow(
        "rank table, row 2",
        "sl(2k+1,R)",
        lambda k: RealFormSpec("sl_R", (2 * k + 1,)),
        lambda k: (k, 2 * k),
    ),
    RankTableRow(
        "rank table, row 3",
        "su*(4k)",
        lambda k: RealFormSpec("su_star", (4 * k,)),
        lambda k: (k, 2 * k - 1),
    ),
    RankTableRow(
        "rank table, row 4",
        "su*(4k+2)",
        lambda k: RealFormSpec("su_star", (4 * k + 2,)),
        lambda k: (k, 2 * k),
    ),
    RankTableRow(
        "rank table, row 5",
        "so(2k+1,2k+1)",
        lambda k: RealFormSpec("so_pq", (2 * k + 1, 2 * k + 1)),
        lambda k: (2 * k, 2 * k + 1),
        k_min=2,
    ),
)

#: The exceptional rows: (label, spec, (a-hyperbolic rank, real rank)).
TABLE1_EXCEPTIONAL: tuple[tuple[str, RealFormSpec, tuple[int, int]], ...] = (
    ("e6(I)", RealFormSpec("e6_I"), (4, 6)),
    ("e6(IV)", RealFormSpec("e6_IV"), (1, 2)),
)


class VerificationReport(Record):
    __slots__ = ("rows_checked", "instances_checked", "failures", "skips")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "rows_checked": self.rows_checked,
            "instances_checked": self.instances_checked,
            "passed": self.passed,
            "failures": [list(f) for f in self.failures],
            "skips": [list(s) for s in self.skips],
        }


def verify_table1(k_max: int) -> VerificationReport:
    """Check both rank columns of every Table 1 family for k up to k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cases = itertools.chain(
        (
            (row.source, (k,), row.spec_of(k), row.expected(k))
            for row in TABLE1_FAMILIES
            for k in range(row.k_min, k_max + 1)
        ),
        ((f"rank table, {label}", (), spec, want) for label, spec, want in TABLE1_EXCEPTIONAL),
    )
    failures = []
    instances = 0
    for source, params, spec, want in cases:
        instances += 1
        profile = factor_profile(spec)
        got = (profile.a_hyperbolic_rank, profile.real_rank)
        if got != want:
            failures.append((source, params, got, want))
    rows = len(TABLE1_FAMILIES) + len(TABLE1_EXCEPTIONAL)
    return VerificationReport(rows, instances, tuple(failures), ())


# ---------------------------------------------------------------------------
# anomaly scan

def anomaly_scan(rank_bound: int) -> tuple[RealFormSpec, ...]:
    """Every real form of every simple type up to the rank bound whose
    a-hyperbolic rank differs from its real rank.  Types come from
    ``canonical_types``, so isomorphic low-rank duplicates are not double
    counted."""
    if rank_bound < 2:
        raise ValueError("rank_bound must be >= 2")
    found = []
    for t in canonical_types(rank_bound):
        for spec in real_forms(t):
            profile = factor_profile(spec)
            if profile.a_hyperbolic_rank != profile.real_rank:
                found.append(spec)
    return tuple(sorted(found, key=lambda s: (s.family, s.params)))


def table1_predicted_anomalies(rank_bound: int) -> tuple[RealFormSpec, ...]:
    """The rank-table prediction of the anomaly scan: all family instances
    within the rank bound whose tabulated ranks actually differ."""
    predicted = []
    for row in TABLE1_FAMILIES:
        k = row.k_min
        while satake_of(row.spec_of(k)).lie_type.rank <= rank_bound:
            ahyp, real = row.expected(k)
            if ahyp != real:
                predicted.append(row.spec_of(k))
            k += 1
    predicted.extend(
        spec
        for _, spec, _ in TABLE1_EXCEPTIONAL
        if satake_of(spec).lie_type.rank <= rank_bound
    )
    return tuple(sorted(predicted, key=lambda s: (s.family, s.params)))


# ---------------------------------------------------------------------------
# Table 2: noncompact simple 3-symmetric spaces

class FamilyRow(Record):
    """One row of the 3-symmetric table: algebra templates for G and H,
    parameter names with their encoded domain, and the expected verdict."""

    __slots__ = (
        "source", "g_template", "h_template", "param_names", "domain", "expected",
        "printed_constraints", "note",
    )

    def __init__(
        self,
        source: str,
        g_template: str,
        h_template: str,
        param_names: tuple[str, ...] = (),
        domain: Callable[..., bool] | None = None,
        expected: str = Verdict.ADMITS_NON_VIRTUALLY_ABELIAN.value,
        printed_constraints: str | None = None,
        note: str | None = None,
    ) -> None:
        Record.__init__(
            self, source, g_template, h_template, param_names, domain, expected, printed_constraints, note
        )


def _row2_domain(n: int, a: int, s: int, t: int) -> bool:
    return 1 <= a <= n and 1 <= s and 2 * s <= a and 0 <= t <= n - a


def _row3_domain(n: int, a: int, s: int) -> bool:
    return 1 <= a <= n and 1 <= s and 2 * s <= a


def _row4_domain(n: int, a: int, s: int, t: int) -> bool:
    return 1 <= a <= n and 1 <= s and 2 * s <= a and 0 <= 2 * t <= n - a


def _row5_domain(n: int, a: int, s: int) -> bool:
    if not (3 <= n and 1 <= a <= n and 0 <= 2 * s <= a):
        return False
    return s < n // 2 - (n - a) // 2


TABLE2_PARAMETRIC: tuple[FamilyRow, ...] = (
    FamilyRow(
        source="3-symmetric table, row 1",
        g_template="sl(2n,R)",
        h_template="{sl(n,C) x T^1}/Z_n",
        param_names=("n",),
        domain=lambda n: n >= 2,
        printed_constraints="none printed",
        note="n >= 2 so that the complex factor of H is nontrivial",
    ),
    FamilyRow(
        source="3-symmetric table, row 2",
        g_template="so(2n+1-2s-2t, 2s+2t)",
        h_template="u(a-s,s) x so(2n-2a+1-2t, 2t)",
        param_names=("n", "a", "s", "t"),
        domain=_row2_domain,
        printed_constraints="1 <= a <= n, 2 <= 2s <= a",
        note="t bounded by n-a so the orthogonal factor of H is defined",
    ),
    FamilyRow(
        source="3-symmetric table, row 3",
        g_template="sp(n,R)",
        h_template="{u(a-s,s) x sp(n-a,R)}/Z_2",
        param_names=("n", "a", "s"),
        domain=_row3_domain,
        printed_constraints="1 <= a <= n, 2 <= 2s <= a",
    ),
    FamilyRow(
        source="3-symmetric table, row 4",
        g_template="so(2n-2s-2t, 2s+2t)",
        h_template="{u(a-s,s) x so(2n-2a-2t, 2t)}/Z_2",
        param_names=("n", "a", "s", "t"),
        domain=_row4_domain,
        printed_constraints="1 <= a <= n, 0 <= 2s <= a, 0 <= 2t <= n-a, (s,t) != (0,0)",
        note=(
            "encoded with 2 <= 2s <= a, matching the odd-dimensional row: "
            "every printed s = 0 instance has rank_R G = rank_R H (or equal "
            "a-hyperbolic ranks), contradicting the table's defining property"
        ),
    ),
    FamilyRow(
        source="3-symmetric table, row 5",
        g_template="so*(2n)",
        h_template="{u(a-s,s) x so*(2n-2a)}/Z_2",
        param_names=("n", "a", "s"),
        domain=_row5_domain,
        printed_constraints="1 <= a <= n, 0 <= 2s <= a",
        note=(
            "encoded domain adds s < floor(n/2) - floor((n-a)/2): the printed "
            "footnote admits equal-rank instances such as SO*(8)/U(1,1)xSO*(4) "
            "and SO*(10)/U(1)xSO*(8), which the Calabi-Markus condition rules out"
        ),
    ),
)

_SPIN_TRIALITY_NOTE = (
    "H encoded as split g2: the compact form cannot embed, since the "
    "maximal compact subalgebra so(5)+so(3) has dimension 13 < dim g2 = 14"
)

TABLE2_FIXED: tuple[FamilyRow, ...] = (
    FamilyRow("3-symmetric table, G2 block, entry 1", "g2(split)", "u(1,1)"),
    FamilyRow("3-symmetric table, G2 block, entry 2", "g2(split)", "su(2,1)"),
    FamilyRow("3-symmetric table, F4 block, entry 1", "f4(I)", "{spin(5,2) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, F4 block, entry 2", "f4(I)", "{spin(4,3) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, F4 block, entry 3", "f4(I)", "{sp(3,R) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, F4 block, entry 4", "f4(I)", "{sp(2,1) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, F4 block, entry 5", "f4(I)", "{su(3) x su(2,1)}/Z_3"),
    FamilyRow("3-symmetric table, F4 block, entry 6", "f4(I)", "{su(2,1) x su(2,1)}/Z_3"),
    FamilyRow("3-symmetric table, E6-I block, entry 1", "e6(I)", "{sl(3,C) x su(2,1)}/Z_3"),
    FamilyRow("3-symmetric table, E6-II block, entry 1", "e6(II)", "{so*(10) x so(2)}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 2", "e6(II)", "{S(U(4,1)xU(1)) x su(2)}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 3", "e6(II)", "{S(U(3,2)xU(1)) x su(2)}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 4", "e6(II)", "{S(U(3,2)xU(1)) x su(1,1)}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 5", "e6(II)", "{[su(6)/Z_3] x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 6", "e6(II)", "{[su(4,2)/Z_3] x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 7", "e6(II)", "{[su(3,3)/Z_3] x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 8", "e6(II)", "{[so*(8) x so(2)] x so(2)}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 9", "e6(II)", "{[so(6,2) x so(2)] x so(2)}/Z_2"),
    FamilyRow("3-symmetric table, E6-II block, entry 10", "e6(II)", "{su(2,1) x su(3) x su(3)}/{Z_2 x Z_3}"),
    FamilyRow("3-symmetric table, E6-II block, entry 11", "e6(II)", "{su(2,1) x su(2,1) x su(2,1)}/{Z_2 x Z_3}"),
    FamilyRow("3-symmetric table, E6-III block, entry 1", "e6(III)", "{S(U(5)xU(1)) x su(1,1)}/Z_2"),
    FamilyRow("3-symmetric table, E6-III block, entry 2", "e6(III)", "{S(U(4,1)xU(1)) x su(2)}/Z_2"),
    FamilyRow("3-symmetric table, E6-III block, entry 3", "e6(III)", "{[su(5,1)/Z_3] x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E7-V block, entry 1", "e7(V)", "{e6(II) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E7-V block, entry 2", "e7(V)", "{su(2) x [so*(10) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-V block, entry 3", "e7(V)", "{su(1,1) x [so(6,4) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-V block, entry 4", "e7(V)", "{so(2) x so*(12)}/Z_2"),
    FamilyRow("3-symmetric table, E7-V block, entry 5", "e7(V)", "{so(2) x so(6,6)}/Z_2"),
    FamilyRow("3-symmetric table, E7-V block, entry 6", "e7(V)", "S(U(4,3)xU(1))/Z_4"),
    FamilyRow("3-symmetric table, E7-V block, entry 7", "e7(V)", "{su(3) x [su(5,1)/Z_2]}/Z_3"),
    FamilyRow("3-symmetric table, E7-V block, entry 8", "e7(V)", "{su(2,1) x [su(3,3)/Z_2]}/Z_3"),
    FamilyRow("3-symmetric table, E7-VI block, entry 1", "e7(VI)", "{e6(III) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E7-VI block, entry 2", "e7(VI)", "{su(2) x [so(8,2) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-VI block, entry 3", "e7(VI)", "{su(1,1) x [so(8,2) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-VI block, entry 4", "e7(VI)", "{su(1,1) x [so*(10) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-VI block, entry 5", "e7(VI)", "S(U(6,1)xU(1))/Z_4"),
    FamilyRow("3-symmetric table, E7-VI block, entry 6", "e7(VI)", "S(U(5,2)xU(1))/Z_4"),
    FamilyRow("3-symmetric table, E7-VI block, entry 7", "e7(VI)", "S(U(4,3)xU(1))/Z_4"),
    FamilyRow("3-symmetric table, E7-VI block, entry 8", "e7(VI)", "{su(2,1) x [su(6)/Z_2]}/Z_3"),
    FamilyRow("3-symmetric table, E7-VI block, entry 9", "e7(VI)", "{su(3) x [su(4,2)/Z_2]}/Z_3"),
    FamilyRow("3-symmetric table, E7-VI block, entry 10", "e7(VI)", "{su(2,1) x [su(4,2)/Z_2]}/Z_3"),
    FamilyRow("3-symmetric table, E7-VII block, entry 1", "e7(VII)", "{e6(III) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E7-VII block, entry 2", "e7(VII)", "{su(1,1) x [so(10) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-VII block, entry 3", "e7(VII)", "{su(2) x [so*(10) x so(2)]}/Z_2"),
    FamilyRow("3-symmetric table, E7-VII block, entry 4", "e7(VII)", "{so(2) x so(10,2)}/Z_2"),
    FamilyRow("3-symmetric table, E7-VII block, entry 5", "e7(VII)", "S(U(6,1)xU(1))/Z_4"),
    FamilyRow("3-symmetric table, E7-VII block, entry 6", "e7(VII)", "S(U(5,2)xU(1))/Z_4"),
    FamilyRow("3-symmetric table, E7-VII block, entry 7", "e7(VII)", "{su(2,1) x [su(5,1)/Z_2]}/Z_3"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 1", "e8(VIII)", "so(8,6) x so(2)"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 2", "e8(VIII)", "so*(14) x so(2)"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 3", "e8(VIII)", "{e7(VI) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 4", "e8(VIII)", "{e7(V) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 5", "e8(VIII)", "{su(3) x e6(III)}/Z_3"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 6", "e8(VIII)", "{su(2,1) x e6(II)}/Z_3"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 7", "e8(VIII)", "{su(8,1)}/Z_3"),
    FamilyRow("3-symmetric table, E8-VIII block, entry 8", "e8(VIII)", "{su(5,4)}/Z_3"),
    FamilyRow("3-symmetric table, E8-IX block, entry 1", "e8(IX)", "so(12,2) x so(2)"),
    FamilyRow("3-symmetric table, E8-IX block, entry 2", "e8(IX)", "so*(14) x so(2)"),
    FamilyRow("3-symmetric table, E8-IX block, entry 3", "e8(IX)", "{e7(VII) x T^1}/Z_2"),
    FamilyRow("3-symmetric table, E8-IX block, entry 4", "e8(IX)", "{su(2,1) x e6}/Z_3"),
    FamilyRow("3-symmetric table, E8-IX block, entry 5", "e8(IX)", "{su(2,1) x e6(III)}/Z_3"),
    FamilyRow("3-symmetric table, E8-IX block, entry 6", "e8(IX)", "{su(7,2)}/Z_3"),
    FamilyRow("3-symmetric table, E8-IX block, entry 7", "e8(IX)", "{su(6,3)}/Z_3"),
    FamilyRow("3-symmetric table, D4 block, entry 1", "so(4,4)", "{su(2,1)}/Z_3"),
    FamilyRow("3-symmetric table, D4 block, entry 2", "spin(5,3)", "g2(split)", note=_SPIN_TRIALITY_NOTE),
    FamilyRow("3-symmetric table, D4 block, entry 3", "spin(4,4)", "g2(split)", note=_SPIN_TRIALITY_NOTE),
)

#: Source entries that contradict the table's own defining property: each
#: has rank_R H = rank_R G, so the Calabi-Markus condition forbids every
#: infinite discontinuous group.  They are retained here with the verdict
#: the engine derives, instead of being silently dropped.
DISPUTED_ENTRIES: tuple[FamilyRow, ...] = (
    FamilyRow(
        source="3-symmetric table, E6-III block, printed entry (s,p)=(1,1)",
        g_template="e6(III)",
        h_template="{S(U(4,1)xU(1)) x su(1,1)}/Z_2",
        expected=Verdict.NO_INFINITE_DISCONTINUOUS.value,
        note="rank_R H = 2 = rank_R E6-III; suspected misprint in the source table",
    ),
    FamilyRow(
        source="3-symmetric table, E8-IX block, printed entry {SU(3) x E6-II}/Z_3",
        g_template="e8(IX)",
        h_template="{su(3) x e6(II)}/Z_3",
        expected=Verdict.NO_INFINITE_DISCONTINUOUS.value,
        note="rank_R H = 4 = rank_R E8-IX; suspected misprint in the source table",
    ),
)

#: The single space the rank conditions cannot settle.
OPEN_CASE = FamilyRow(
    source="3-symmetric table, excluded case",
    g_template="so(2k+1,2k+1)",
    h_template="u(1,1) x so(2k-1,2k-1)",
    param_names=("k",),
    domain=lambda k: k >= 2,
    expected=Verdict.UNDETERMINED.value,
    note="no condition applies; its status is an open problem",
)

TABLE2: tuple[FamilyRow, ...] = TABLE2_PARAMETRIC + TABLE2_FIXED


def _instances(row: FamilyRow, bound: int) -> Iterator[dict[str, int]]:
    if not row.param_names:
        yield {}
        return
    for values in itertools.product(range(bound + 1), repeat=len(row.param_names)):
        if row.domain is None or row.domain(*values):
            yield dict(zip(row.param_names, values))


def _simple_noncompact(alg: ReductiveAlgebra, profile: RankProfile) -> bool:
    """Whether ``alg``, with rank profile ``profile``, is one simple
    noncompact factor: with no center, its real rank is the factor's."""
    if len(alg.simple_factors) != 1 or alg.compact_center_dim or alg.split_center_dim:
        return False
    return profile.real_rank >= 1


def verify_table2(param_bound: int) -> VerificationReport:
    """Instantiate every 3-symmetric row at all parameter tuples within the
    bound; every instance must admit, the disputed entries must reproduce
    their recorded verdicts, and the excluded case must stay Undetermined.
    Instantiations whose G degenerates to a non-simple algebra are skipped
    and logged."""
    if param_bound < 2:
        raise ValueError("param_bound must be >= 2")
    failures = []
    skips = []
    instances = 0
    rows = TABLE2 + DISPUTED_ENTRIES + (OPEN_CASE,)
    for row in rows:
        for params in _instances(row, param_bound):
            g = parse(row.g_template, params)
            g_profile = rank_profile(g)
            if not _simple_noncompact(g, g_profile):
                skips.append((row.source, tuple(sorted(params.items())), "G not simple noncompact"))
                continue
            instances += 1
            h = parse(row.h_template, params)
            verdict = decide(g_profile, rank_profile(h)).verdict
            if verdict.value != row.expected:
                failures.append(
                    (row.source, tuple(sorted(params.items())), verdict.value, row.expected)
                )
    return VerificationReport(len(rows), instances, tuple(failures), tuple(skips))
