"""Golden library output that the command-line corpus of
``test_cli_golden.py`` does not reach: ASCII diagrams past rank 6 (E7, E8
and the long chains) and the JSON form of the records built by ``decide``,
``embed_obstruction`` and the two table verifiers.  Each is hashed to one
SHA-256 pinned below; an intended change records the new digest and says
why."""

from __future__ import annotations

import hashlib
import itertools
import json

from ahrank.cones import RankProfile
from ahrank.catalog import verify_table1, verify_table2
from ahrank.decision import NotASubgroupPairError, decide, embed_obstruction
from ahrank.rootsys import LieType, canonical_types
from ahrank.satake import RealFormSpec, ascii_diagram, complex_as_real, real_forms, satake_of

#: Every real form of every canonical type up to rank 12, then, for those
#: types and the four low-rank coincidences, the compact form (again) and
#: the complex algebra viewed as real.
TYPES = [*canonical_types(12), LieType("D", 2), LieType("D", 3), LieType("B", 1), LieType("C", 2)]
DIAGRAMS = [
    diagram
    for t in TYPES
    for diagram in (
        *(satake_of(spec) for spec in real_forms(t)),
        satake_of(RealFormSpec(f"compact_{t.letter}", (t.rank,))),
        complex_as_real(t),
    )
]

PROFILES = [RankProfile(real, ahyp) for real in range(6) for ahyp in range(real + 1)]


def _digest(texts) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def _json(record) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


def _decision(g: RankProfile, h: RankProfile) -> str:
    try:
        return _json(decide(g, h))
    except NotASubgroupPairError as exc:
        return f"error: {exc}"


def test_ascii_diagrams_pinned():
    assert len(DIAGRAMS) == 421
    assert _digest(map(ascii_diagram, DIAGRAMS)) == (
        "f85cc1b3c07dfb3be1c2694e2f4320dce9ca95058f09c4cb094da9b0bd144649"
    )


def test_decision_json_pinned():
    pairs = list(itertools.product(PROFILES, repeat=2))
    assert _digest(_decision(g, h) for g, h in pairs) == (
        "041bcf6f300022fc2644543825542136e56aebad02971d510551eb22120a54d8"
    )
    assert _digest(_json(embed_obstruction(g, h)) for g, h in pairs) == (
        "f8248373b6392c7b0a1c62020d72cf29767b1662b4554b9d80a97bf53fc3c274"
    )


def test_verification_report_json_pinned():
    assert _digest([_json(verify_table1(5)), _json(verify_table2(3))]) == (
        "b25df7e5d090dffa854201e5fabfeaab19da5d322d5bd4edea2110250a3ba859"
    )
