"""Mutation harness: check that the test suite kills each listed mutant.

    python tests/mutants.py WORKDIR

Copies this checkout, less its dot files and caches, to ``WORKDIR`` (which
must not exist yet and must lie outside the checkout).  For each mutant of
``MUTANTS`` it then replaces the old text by the new text in the copy, runs
``python -m pytest -q -x -p no:cacheprovider tests`` there, restores the
file and prints ``killed`` or ``survived`` with the time taken.  Every old
text must occur exactly once in its file, checked before any run, so the
list fails loudly when the source moves.  A mutant whose reason starts
with ``equivalent:`` cannot change any result, and its survival is
expected.  The exit status is 1 when any other mutant survives.

Standard library only; pytest does not collect this file (its name does
not start with test_), and it is no part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file under the checkout, old text, new text, why the tests must fail or,
#: for an equivalent mutant, why they cannot)
MUTANTS = [
    (
        "src/ahrank/cones.py",
        "            fixed += 1\n",
        "            pass\n",
        "the reversed-arrow term dropped: an arrow reversed in place is a fixed class",
    ),
    (
        "src/ahrank/cones.py",
        "            fixed -= 1\n",
        "            pass\n",
        "the pointwise-arrow term dropped: an arrow fixed pointwise is one class for"
        " two fixed nodes",
    ),
    (
        "src/ahrank/cones.py",
        "elif i not in run or 2 * i == mirror:",
        "elif i not in run:",
        "equivalent: only E6's arrow (3, 6) ends at the middle of an odd run and is fixed"
        " pointwise, and missing that one arrow raises F by one, which the floor of"
        " (real + F) / 2 absorbs",
    ),
    (
        "src/ahrank/cones.py",
        "fixed -= len(black) - len(black.intersection(run))",
        "fixed -= 0",
        "black nodes off the run of D and E are fixed black nodes",
    ),
    (
        "src/ahrank/cones.py",
        "mirror = run.start + run.stop - 1",
        "mirror = run.start + run.stop",
        "the reflection constant off by one",
    ),
    (
        "src/ahrank/cones.py",
        "if d.components == 2:\n        return (real + fixed) // 2",
        "if d.components == 2:\n        return (real + 2 * fixed) // 2",
        "a doubled diagram fixes one class per node fixed on one component, not two",
    ),
    (
        "src/ahrank/cones.py",
        "if not (run and real):",
        "if not run:",
        "a real rank of 0 is returned before any node is read",
    ),
    (
        "src/ahrank/cones.py",
        "fixed -= length % 2 == 1 and mirror // 2 in black  #",
        "pass  #",
        "equivalent: dropping the black middle node of an odd run raises the"
        " fixed-class count F by one, which the floor of (real + F) / 2 absorbs",
    ),
    (
        "src/ahrank/cones.py",
        "fixed -= length % 2 == 1 and mirror // 2 in black",
        "fixed -= 2 * (length % 2 == 1 and mirror // 2 in black)",
        "the black middle node of an odd run is one fixed black node",
    ),
    (
        "src/ahrank/cones.py",
        "            fixed -= 1\n    return (real + fixed) // 2",
        "            fixed -= 1\n    return (real + fixed + 1) // 2",
        "equivalent: by Burnside's lemma real + fixed is even",
    ),
    (
        "src/ahrank/rootsys.py",
        "        return range(1, n + 1)\n",
        "        return range(1, min(n, 24) + 1)\n",
        "iota_run capped for A: -w0 reverses the whole chain at every rank",
    ),
    (
        "src/ahrank/rootsys.py",
        'if t.letter == "D" and n % 2 == 1:',
        'if t.letter == "D" and n % 2 == 1 and n < 24:',
        "iota_run capped for odd D: -w0 swaps the fork pair at every odd rank",
    ),
    (
        "src/ahrank/decision.py",
        "g_ahyp > h_real, Verdict",
        "g_ahyp >= h_real, Verdict",
        "condition (C) is strict",
    ),
    (
        "src/ahrank/satake.py",
        "if params and max(params) > MAX_PARAMETER:",
        "if params and max(params) >= MAX_PARAMETER:",
        "the parameter bound itself is admitted",
    ),
    (
        "src/ahrank/cones.py",
        "    real = alg.split_center_dim\n",
        "    real = alg.split_center_dim + alg.compact_center_dim\n",
        "a compact center adds nothing to the real rank",
    ),
    (
        "src/ahrank/satake.py",
        "zip(range(1, min(low, (n - 1) // 2) + 1)",
        "zip(range(1, min(low, (n - 1) // 2, 200) + 1)",
        "su(p,q) has min(p, q) arrows at every size, su(250,250) included",
    ),
    (
        "src/ahrank/satake.py",
        "arrows = frozenset([(n - 1, n)] if n % 2 else ())",
        "arrows = frozenset([(n - 1, n)] if n % 2 or n >= 50 else ())",
        "so*(2n) has the fork arrow only for odd n, so*(100) included",
    ),
    (
        "src/ahrank/notation.py",
        "    return _memo_parse(text, tuple(sorted((k, operator.index(v)) for k, v in"
        " params.items())))\n",
        "    return parse_expression.__dict__.setdefault(\n"
        "        text, _memo_parse(text, tuple(sorted((k, operator.index(v)) for k, v in"
        " params.items())))\n"
        "    )\n",
        "the parse memo's key drops the params: sl(k,R) parsed with k=3 comes back for k=4",
    ),
    (
        "src/ahrank/notation.py",
        "(k, operator.index(v)) for k, v in params.items()",
        "(k, v) for k, v in params.items()",
        "the parse memo's key keeps only integers: k=3.0 must not share k=3's record",
    ),
    (
        "src/ahrank/notation.py",
        "@lru_cache(maxsize=2048)\ndef _memo_parse(",
        "@lru_cache(maxsize=None)\ndef _memo_parse(",
        "the parse memo is bounded: a long-lived caller must not keep every text it parsed",
    ),
    (
        "src/ahrank/cones.py",
        "offset + j for offset in offsets",
        "j for offset in offsets",
        "the -w0 image lifted without the component offset: on a doubled diagram the"
        " second copy's nodes map into the first",
    ),
    (
        "src/ahrank/notation.py",
        "        if self.compact_center > center:\n            self.compact_center -= 1\n",
        "        self.compact_center -= 1\n",
        "the trace condition taken back when no factor added a T^1: S(U(0)xU(0)) is the"
        " zero algebra, not a negative centre",
    ),
    (
        "src/ahrank/notation.py",
        "        if self.compact_center > center:\n            self.compact_center -= 1\n",
        "",
        "the trace condition never taken back: S(U(4,3)xU(1)) has one T^1, not two",
    ),
    (
        "src/ahrank/cones.py",
        "set_real_rank, set_a_hyperbolic_rank = self._setters",
        "set_a_hyperbolic_rank, set_real_rank = self._setters",
        "RankProfile's setters swapped: each rank is stored in the other's field",
    ),
    (
        "src/ahrank/rootsys.py",
        "zip(self._setters, values, strict=True)",
        "zip(self._setters, values)",
        "the generic constructor must reject a wrong field count, not leave a field unset"
        " or drop a value",
    ),
    (
        "src/ahrank/notation.py",
        "            if k < 0:\n"
        '                raise ParseError("split-abelian dimension must be nonnegative", pos)',
        "            if k <= 0:\n"
        '                raise ParseError("split-abelian dimension must be nonnegative", pos)',
        "R^0 is the zero split centre, not an error: su(2) x R^0 is su(2)",
    ),
    (
        "src/ahrank/notation.py",
        'if kind == "SYM" and text == "_":',
        'if kind == "SYM" or text == "_":',
        "a symbol after a bare quotient name is no subscript: {su(2)/Z} and su(2)/Z * su(2)"
        " parse",
    ),
    (
        "src/ahrank/cli.py",
        "if not name or not value:",
        "if not name and not value:",
        "a --params entry with an empty name or an empty value is one usage error, named"
        " as such: '=5' and 'k='",
    ),
    (
        "src/ahrank/satake.py",
        "_COINCIDENCE_RANK = 4",
        "_COINCIDENCE_RANK = 3",
        "the coincidence bound lowered by one: real_forms(D4) would list so*(8), the"
        " triality image of so(2,6)",
    ),
    (
        "src/ahrank/satake.py",
        "    return tuple(s for s in forms if s not in _COINCIDENCES)",
        "    return tuple(forms)",
        "the coincidence filter dropped: real_forms(A1) would list su(1,1) beside sl(2,R)",
    ),
    (
        "src/ahrank/satake.py",
        "@lru_cache(maxsize=128)\ndef _series_type(",
        "@lru_cache(maxsize=None)\ndef _series_type(",
        "the type cache is bounded: a long-lived caller must not keep every type it built",
    ),
]


def check_list(root: Path) -> None:
    """Fail unless every old text occurs exactly once in its file."""
    for file, old, _, why in MUTANTS:
        count = (root / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            sys.exit(f"{file}: old text of {why!r} occurs {count} times, not once")


def run_suite(copy: Path) -> bool:
    """Whether the test suite passes in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    result = subprocess.run(command, cwd=copy, env=env, capture_output=True)
    return result.returncode == 0


def main(workdir: str) -> int:
    check_list(ROOT)
    copy = Path(workdir)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".*", "__pycache__", "BENCH_*.json"))
    if not run_suite(copy):
        sys.exit("the suite fails on the unmutated copy")
    unexpected = 0
    for file, old, new, why in MUTANTS:
        path = copy / file
        source = path.read_text(encoding="utf-8")
        path.write_text(source.replace(old, new), encoding="utf-8")
        start = time.perf_counter()
        passed = run_suite(copy)
        elapsed = time.perf_counter() - start
        path.write_text(source, encoding="utf-8")
        equivalent = why.startswith("equivalent:")
        unexpected += passed and not equivalent
        print(f"{'survived' if passed else 'killed':8} {elapsed:6.1f} s  {file}: {why}", flush=True)
    print(f"{len(MUTANTS)} mutants, {unexpected} unexpected survivors")
    return 1 if unexpected else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
