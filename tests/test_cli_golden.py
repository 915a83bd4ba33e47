"""Golden command-line output: a fixed argv corpus runs through ``cli.main``
in process, and each subcommand's (argv, exit code, stdout, stderr) records
hash to one SHA-256 pinned below.  A change that alters any byte of the
output, an exit code or the corpus itself fails here; an intended change
records the new digests and says why.

Corpus: text and ``--json`` for ``rank``, ``satake-show`` and ``orbits`` on
every real form of ``canonical_types(6)`` and every complex algebra viewed
as real up to rank 6; every pair of a fixed grid for ``decide`` and
``embed-check``; the parse and domain errors of the other tests; and
the three sweeps at small bounds.  The argument parser is built once for
the whole corpus; argparse parsers may be reused."""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from unittest import mock

import pytest

from ahrank import cli
from ahrank.cones import ReductiveAlgebra
from ahrank.notation import render
from ahrank.rootsys import canonical_types
from ahrank.satake import RealFormSpec, real_forms

FORMS = [
    render(ReductiveAlgebra((spec,)))
    for t in canonical_types(6)
    for spec in (*real_forms(t), RealFormSpec(f"complex_{t.letter}", (t.rank,)))
]

#: Algebras for the decide and embed-check grid: simple, split, complex,
#: exceptional, products and centres, so every verdict and both domain
#: errors (not a subgroup pair) occur.
GRID = [
    "sl(3,R)", "sl(4,R)", "su(2,1)", "so(4,3)", "sp(2,R)", "so(2,2) x T^1",
    "sl(3,C)", "e6(IV)", "su*(6)", "so*(10)", "u(2,2)", "R^2", "so(5)",
]

PARSE_ERRORS = [
    "gl(3,R)", "sl(2k,R)", "su*(7)", "sl(4)", "sl(3,2)", "su*(4,2)", "so*(4,2)",
    "so(3,4) y", "so(3,", "su(1)", "sp(-2,R)", "e6(V)", "e5", "g2(I)", "e6(split)",
    "f4(III)", "e6(4)", "e9(I)", "T^²", "sl(²,R)", "sl(2,R)/Z_", "sl(2,R)/Z_ x su(1,1)",
    "sl(2,R)/ x su(2)", "sl(2,R)/xsu(2)", "sl(2,R)/Z_{}", "sl(2,R)/{}", "sl(3,R)\u200b",
    "su(2) x", "T(3)", "S(su(2))", "e(I)", "x su(2)", "so(3,C", "sl 3,R)", "g2(I",
    "S(U(2)", "sl(3,R)/{Z_2", "sl(3,R)/[Z_2", "sl(3,R)/Z_{2", "sl(" + "9" * 5000 + ",R)",
]

DOMAIN_ERRORS = [
    ["rank", "sl(100001,R)"],
    ["rank", "su(2,100001)"],
    ["decide", "sl(100001,R)", "sl(3,R)"],
    ["decide", "sl(3,R)", "sl(100002,C)"],
    ["decide", "so(3,4)", "e8(VIII)"],
    ["satake-show", "sl(3,R) x T^1"],
    ["satake-show", "so(4)"],
    ["orbits", "su(2) x su(2)"],
    ["orbits", "R^1"],
    ["table1", "--kmax", "0"],
    ["table2", "--bound", "1"],
    ["anomaly-scan", "--rank", "1"],
]


def _corpus() -> list[list[str]]:
    argvs = [[command, form] for command in ("rank", "satake-show", "orbits") for form in FORMS]
    argvs += [["rank", "so(2k-1,2k-1) x T^k", "--params", "k=3"], ["rank", "su(2,1) x e6/Z_3"]]
    argvs += [[command, g, h] for command in ("decide", "embed-check") for g in GRID for h in GRID]
    argvs += [["rank", text] for text in PARSE_ERRORS]
    argvs += DOMAIN_ERRORS
    argvs += [["table1", "--kmax", "3"], ["table2", "--bound", "2"], ["anomaly-scan", "--rank", "5"]]
    return [argv + flag for argv in argvs for flag in ([], ["--json"])]


def _digests() -> dict[str, str]:
    hashes = {}
    with mock.patch.object(cli, "build_parser", cache(cli.build_parser)):
        for argv in _corpus():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            record = json.dumps([argv, code, out.getvalue(), err.getvalue()], ensure_ascii=False)
            hashes.setdefault(argv[0], hashlib.sha256()).update(record.encode() + b"\n")
    return {command: h.hexdigest() for command, h in hashes.items()}


#: The corpus's digests; an intended output change records new ones.
GOLDEN = {
    "anomaly-scan": "7ce48ae9b6543fd2d447161f1a40e202983b15455c286db13d08958021c47075",
    "decide": "cac9c25cfa1c4b204d2e61d2f79747935dac00112af88acf4b29c8449b6c1ba1",
    "embed-check": "256a2813dd7fd0a8e40ce5ddb0b8aaecfeecc7c87b357cbcc247f21936db6bca",
    "orbits": "91d56d4b4059ae3e46353d7d0a03dae0393aa6e7f2e8561f2734223b2fcda0d7",
    "rank": "328ef07ea2637f0c1221ccd8f7cf2cef652e990ff2c980f6250cb491a812a50c",
    "satake-show": "b5042e5f37695ad27d1d904676d2f3795cac297f2bc450fd4d7cbadea3a9fe26",
    "table1": "1f5510dbbeafdcc18597d9689d1bf2848fc2c54010cda2799eeaed2c5ff2dc38",
    "table2": "a6057c882b6f95558015779b1bad54f42ef5818a5272df996837e4d7ba88a3ab",
}


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return _digests()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_matches_golden(command, digests):
    assert digests[command] == GOLDEN[command]
