"""Dump the golden command-line corpus argv by argv.

Runs every argv of ``test_cli_golden._corpus()`` through ``cli.main`` in
process, with the argument parser built once as the digest test builds it,
and writes one JSON line per argv: ``[argv, exit code, stdout, stderr]``,
the records that ``test_cli_golden`` hashes.  Dumping two checkouts and
diffing the files lists exactly the argv whose output moved::

    PYTHONPATH=src python tests/golden_dump.py before.jsonl
    diff before.jsonl after.jsonl

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from unittest import mock

from test_cli_golden import _corpus

from ahrank import cli


def main(path: str) -> None:
    with open(path, "w", encoding="utf-8") as dump, mock.patch.object(
        cli, "build_parser", cache(cli.build_parser)
    ):
        for argv in _corpus():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            record = [argv, code, out.getvalue(), err.getvalue()]
            dump.write(json.dumps(record, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_dump.py OUT.jsonl")
    main(sys.argv[1])
