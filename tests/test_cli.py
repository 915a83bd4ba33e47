"""Command line: outputs, JSON/text agreement, exit codes; README's
command examples and its Library block."""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import ModuleType

import pytest

import ahrank
from ahrank import catalog, cli, cones
from ahrank.cli import _params_arg, build_parser, main
from ahrank.satake import RealFormSpec, satake_of

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_rank_text(capsys):
    code, out, _ = run(capsys, "rank", "su*(14) x T^1")
    assert code == 0
    assert "real rank:         6" in out
    assert "a-hyperbolic rank: 3" in out


def test_rank_json_matches_text(capsys):
    code, payload = run_json(capsys, "rank", "su*(14) x T^1")
    assert code == 0
    assert payload["real_rank"] == 6
    assert payload["a_hyperbolic_rank"] == 3
    assert payload["canonical"] == "su*(14) x T^1"


def test_decide_undetermined_trace(capsys):
    code, out, _ = run(capsys, "decide", "sl(10,R)", "so(5,5)")
    assert code == 0
    assert "verdict: Undetermined" in out
    assert "9 == 5 -> no" in out
    assert "5 == 4 -> no" in out
    assert "5 > 5 -> no" in out


def test_decide_json(capsys):
    code, payload = run_json(capsys, "decide", "sl(10,R)", "sl(3,R) x sl(7,R)")
    assert code == 0
    assert payload["verdict"] == "Undetermined"
    assert payload["g"]["real_rank"] == 9
    assert payload["h"]["real_rank"] == 8
    assert [step["condition"] for step in payload["trace"]] == ["A", "B", "C"]


def test_orbits_e6_iv(capsys):
    code, out, _ = run(capsys, "orbits", "e6(IV)")
    assert code == 0
    assert out.strip() == "(1,0,0,0,1,0)"


def test_orbits_compact_empty(capsys):
    code, out, _ = run(capsys, "orbits", "f4")
    assert code == 0
    assert out.strip() == "(none)"


def test_orbits_json(capsys):
    code, payload = run_json(capsys, "orbits", "sl(4,R)")
    assert code == 0
    assert payload["generators"] == [[1, 0, 1], [0, 1, 0]]


def test_satake_show_doubled_json(capsys):
    code, payload = run_json(capsys, "satake-show", "sl(3,C)")
    assert code == 0
    assert payload["components"] == 2
    assert payload["arrows"] == [[1, 3], [2, 4]]


def test_satake_show(capsys):
    code, out, _ = run(capsys, "satake-show", "su(2,5)")
    assert code == 0
    assert "1<->6" in out and "2<->5" in out
    assert "black:  3 4" in out


def test_satake_show_json_schema(capsys):
    code, payload = run_json(capsys, "satake-show", "e6(IV)")
    assert code == 0
    assert payload["black"] == [2, 3, 4, 6]
    assert payload["numbering"] == "chain-first"
    assert payload["real_rank"] == 2
    assert payload["a_hyperbolic_rank"] == 1


def test_embed_check(capsys):
    code, payload = run_json(capsys, "embed-check", "e6(IV)", "sp(2,R)")
    assert code == 0
    assert payload["obstructed"] is True
    assert "a_hyperbolic_rank" in payload["witnesses"]


def test_params_substitution(capsys):
    code, payload = run_json(capsys, "rank", "so(2k-1,2k-1)", "--params", "k=3")
    assert code == 0
    assert payload["real_rank"] == 5
    assert payload["a_hyperbolic_rank"] == 4


@pytest.mark.parametrize("params", ["k=1,k=2", "k=1,K=2"])
def test_repeated_params_name_is_a_usage_error(capsys, params):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "sl(3,R)", "--params", params])
    assert exc.value.code == 2
    assert "repeated --params name 'k'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params,message",
    [
        ("k=5_0", "bad integer in --params: '5_0'"),  # sl(5_0,R) is a parse error
        ("k k=5", "bad --params name 'k k'; expected ASCII letters"),
        ("k1=5", "bad --params name 'k1'; expected ASCII letters"),
        ("=5", "bad --params entry '=5'; expected name=value"),
        ("k=", "bad --params entry 'k='; expected name=value"),
    ],
)
def test_params_outside_the_expression_language_are_usage_errors(capsys, params, message):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "sl(k,R)", "--params", params])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "params,text,literal",
    [
        ("k=+5", "sl(k,R)", "sl(+5,R)"),
        ("k=-1", "sl(k+6,R)", "sl(-1+6,R)"),
        ("k=٥", "sl(k,R)", "sl(٥,R)"),
        ("k=2,,l=1", "sl(k+l+2,R)", "sl(2+1+2,R)"),
    ],
)
def test_params_value_reads_as_the_literal(capsys, params, text, literal):
    code, out, err = run(capsys, "rank", text, "--params", params)
    assert (code, out, err) == run(capsys, "rank", literal)
    assert code == 0 and "algebra:           sl(5,R)" in out


def test_parse_error_exit_2(capsys):
    code, _out, err = run(capsys, "rank", "gl(3,R)")
    assert code == 2
    assert "position 0" in err


@pytest.mark.parametrize(
    "text,position",
    [("sl(3,R)/{Z_2", 8), ("sl(3,R)/[Z_2", 8), ("sl(3,R)/Z_{2", 10)],
)
def test_unclosed_quotient_group_exit_2(capsys, text, position):
    code, _out, err = run(capsys, "rank", text)
    assert code == 2
    assert f"unclosed quotient group (position {position})" in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("T^²", "unexpected character '²' (position 2)"),
        ("sl(2,R)/Z_", "expected a subscript after '_' (position 10)"),
        ("sl(2,R)/Z_ x su(1,1)", "expected a subscript after '_' (position 11)"),
        ("sl(2,R)/ x su(2)", "expected a discrete group after '/' (position 9)"),
        ("sl(2,R)/xsu(2)", "expected a discrete group after '/' (position 8)"),
        ("sl(2,R)/Z_{}", "empty quotient group (position 10)"),
        ("sl(2,R)/{}", "empty quotient group (position 8)"),
    ],
)
def test_malformed_literal_or_subscript_exit_2(capsys, text, message):
    code, _out, err = run(capsys, "rank", text)
    assert code == 2
    assert message in err


def test_overlong_integer_literal_exit_2(capsys):
    code, _out, err = run(capsys, "rank", "sl(" + "9" * 5000 + ",R)")
    assert code == 2
    assert "integer literal longer than 4300 digits (position 3)" in err


@pytest.mark.parametrize("text,position", [("T^{}k", 2), ("sl({}k,R)", 3), ("su(1, 1 + {}k)", 6)])
def test_argument_value_past_the_int_string_limit_exit_2(capsys, text, position):
    # each literal and the bound value are within the limit, their product is not
    nines = "9" * 4299
    code, out, err = run(capsys, "rank", text.format(nines), "--params", f"k={nines}")
    assert (code, out) == (2, "")
    assert err == f"parse error: argument value longer than 4300 digits (position {position})\n"
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "text,message",
    [
        ("T^{0} x T^{0}", "center dimension"),
        ("T^{0} x u(1)", "center dimension"),
        ("R^{0} x so(1,1)", "center dimension"),
        ("sl({0},H)", "argument value"),
    ],
)
def test_sum_past_the_int_string_limit_exit_2(capsys, text, message):
    # each argument is within the limit; the center sum, or sl(n,H)'s 2n, is not
    code, out, err = run(capsys, "rank", text.format("9" * 4300))
    assert (code, out) == (2, "")
    assert err == f"parse error: {message} longer than 4300 digits (position 0)\n"


def test_argument_value_of_4300_digits_is_accepted(capsys):
    nines = "9" * 4300
    code, out, _err = run(capsys, "rank", f"T^{nines}")
    assert (code, out.splitlines()[0]) == (0, f"algebra:           T^{nines}")
    code, _out, err = run(capsys, "rank", f"T^{nines}+1")
    assert (code, err) == (2, "parse error: argument value longer than 4300 digits (position 2)\n")


def test_not_a_subgroup_exit_1(capsys):
    code, _out, err = run(capsys, "decide", "so(3,4)", "e8(VIII)")
    assert code == 1
    assert "exceeds" in err


def test_orbits_requires_single_factor(capsys):
    code, _out, err = run(capsys, "orbits", "sl(2,R) x sl(3,R)")
    assert code == 1
    assert "single simple factor" in err


@pytest.mark.parametrize("command", ["satake-show", "orbits"])
def test_a_center_is_not_a_single_factor(capsys, command):
    for form in ("sl(3,R) x R^1", "sl(3,R) x T^1"):
        code, out, err = run(capsys, command, form)
        assert (code, out) == (1, "")
        assert err == f"error: expected a single simple factor, got '{form}'\n"


def test_satake_show_rejects_split_so_star_4(capsys):
    code, _out, err = run(capsys, "satake-show", "so*(4)")
    assert code == 1
    assert "expected a single simple factor, got 'su(2) x sl(2,R)'" in err


def test_table1_passes(capsys):
    code, out, _ = run(capsys, "table1", "--kmax", "4")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_table2_passes(capsys):
    code, payload = run_json(capsys, "table2", "--bound", "2")
    assert code == 0
    assert payload["passed"] is True


def test_anomaly_scan_matches(capsys):
    code, payload = run_json(capsys, "anomaly-scan", "--rank", "5")
    assert code == 0
    assert payload["matches_rank_table"] is True
    assert "sl_R(4)" in payload["anomalies"]


# The failure half of the verifiers: each test plants one wrong expectation
# in the catalog, and the command must report it and exit 1.


def test_table1_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "TABLE1_EXCEPTIONAL", (("e6(I)", RealFormSpec("e6_I"), (3, 6)),))
    code, out, _ = run(capsys, "table1", "--kmax", "2")
    assert code == 1
    assert out.splitlines()[-2:] == ["FAIL ('rank table, e6(I)', (), (4, 6), (3, 6))", "FAIL"]
    code, payload = run_json(capsys, "table1", "--kmax", "2")
    assert code == 1
    assert payload["passed"] is False
    assert payload["failures"] == [["rank table, e6(I)", [], [4, 6], [3, 6]]]


def test_table2_failure_exits_1(capsys, monkeypatch):
    probe = catalog.FamilyRow("probe row", "sl(3,R)", "so(2,1)", expected="Undetermined")
    monkeypatch.setattr(catalog, "TABLE2", (probe,))
    code, out, _ = run(capsys, "table2", "--bound", "2")
    assert code == 1
    assert out.splitlines()[-2:] == ["FAIL ('probe row', (), 'NoNonVirtuallyAbelian', 'Undetermined')", "FAIL"]
    code, payload = run_json(capsys, "table2", "--bound", "2")
    assert code == 1
    assert payload["passed"] is False


def test_anomaly_scan_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "table1_predicted_anomalies", lambda rank_bound: ())
    code, out, _ = run(capsys, "anomaly-scan", "--rank", "5")
    assert code == 1
    assert out.splitlines()[-1] == "MISMATCH with the rank table"
    code, payload = run_json(capsys, "anomaly-scan", "--rank", "5")
    assert code == 1
    assert payload["matches_rank_table"] is False


def test_stripped_warning_shown(capsys):
    code, out, _ = run(capsys, "rank", "{SL(3,C) x SU(2,1)}/Z3")
    assert code == 0
    assert "stripped" in out


def _readme_examples() -> list[tuple[str, str]]:
    """Each "$ ahrank ..." line in README's text blocks with the lines that
    follow it, up to a blank line, the next prompt or the block's end."""
    examples = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        command = None
        for line in block.splitlines() + [""]:
            if line.startswith("$ ahrank "):
                command, output = line[len("$ ahrank "):], []
            elif command is not None and line and not line.startswith("$"):
                output.append(line)
            elif command is not None:
                examples.append((command, "\n".join(output) + "\n"))
                command = None
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_has_examples():
    assert len(README_EXAMPLES) == 4


@pytest.mark.parametrize("command,expected", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_output(capsys, command, expected):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 0
    assert err == ""
    assert out == expected


LIBRARY_BLOCK = re.search(
    r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S
).group(1)


def test_readme_library_block_runs_as_commented():
    # the block runs, and each expression's value is what its comment says
    namespace: dict = {}
    values = []
    for node in ast.parse(LIBRARY_BLOCK).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    comments = [line.split("# ", 1)[1] for line in LIBRARY_BLOCK.splitlines() if "# " in line]
    verdict, ranks, generators = values
    assert comments == ["'AdmitsNonVirtuallyAbelian'", "(6, 3)", "three 0/1 tuples"]
    assert verdict == "AdmitsNonVirtuallyAbelian"
    assert ranks == (6, 3)
    assert len(generators) == 3
    assert all(type(g) is tuple and set(g) <= {0, 1} for g in generators)


def test_package_exports_exactly_readme_library_names():
    imported = {
        alias.name
        for node in ast.parse(LIBRARY_BLOCK).body
        if isinstance(node, ast.ImportFrom) and node.module == "ahrank"
        for alias in node.names
    }
    exported = {
        name
        for name, value in vars(ahrank).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == imported


def _engine_env() -> dict[str, str]:
    src = str(Path(ahrank.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _newly_loaded(module: str, names: set[str]) -> set[str]:
    """Which of ``names`` a fresh interpreter holds after importing
    ``module`` and not after a bare ``pass``, so that modules a site hook
    loads at start-up do not count."""

    def held(statement: str) -> set[str]:
        probe = f"{statement}; import sys; print(*sorted({names!r} & sys.modules.keys()))"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_engine_env(), check=True
        )
        return set(result.stdout.split())

    return held(f"import {module}") - held("pass")


def test_import_ahrank_leaves_catalog_unloaded():
    assert _newly_loaded("ahrank", {"ahrank.catalog"}) == set()


def test_import_cli_leaves_catalog_unloaded():
    # only the table commands load the catalog, when they run
    assert _newly_loaded("ahrank.cli", {"ahrank.catalog"}) == set()


@pytest.mark.parametrize("module", ["ahrank", "ahrank.cli", "ahrank.catalog"])
def test_import_leaves_dataclasses_and_inspect_unloaded(module):
    # records derive from rootsys.Record, so start-up pays for neither
    assert _newly_loaded(module, {"dataclasses", "inspect"}) == set()


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [["rank", "sl(3,R)"], ["anomaly-scan", "--rank", "5", "--json"]])
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(_engine_env(), PYTHONUNBUFFERED=unbuffered)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ahrank", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "sl(100001,R)"],
        ["rank", "su(2,100001)", "--json"],
        ["decide", "sl(100001,R)", "sl(3,R)"],
        ["decide", "sl(3,R)", "sl(100002,C)", "--json"],
    ],
)
def test_parameter_above_the_bound_exits_1(argv):
    # a domain error raised before any node set is built, so the run ends
    # at once with one error line instead of growing with the rank
    result = subprocess.run(
        [sys.executable, "-m", "ahrank", *argv], capture_output=True, text=True, env=_engine_env()
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: real-form parameter 100001 is above the bound 100000\n"


def test_parameter_at_the_bound_is_accepted(capsys):
    code, payload = run_json(capsys, "rank", "sl(100000,R)")
    assert (code, payload["real_rank"], payload["a_hyperbolic_rank"]) == (0, 99999, 50000)
    code, out, err = run(capsys, "decide", "sl(100000,R)", "sl(3,R)")
    assert (code, err) == (0, "")
    assert out.endswith("verdict: AdmitsNonVirtuallyAbelian\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv,message",
    [
        (["table1", "--kmax", "0"], "k_max must be >= 1"),
        (["table2", "--bound", "1"], "param_bound must be >= 2"),
        (["anomaly-scan", "--rank", "1"], "rank_bound must be >= 2"),
    ],
)
def test_sweep_bound_exits_1(argv, message, json_flag):
    # the sweeps' own bounds raise a plain ValueError, which main reports
    # as a domain error like any other, in text and JSON alike
    result = subprocess.run(
        [sys.executable, "-m", "ahrank", *argv, *json_flag], capture_output=True, text=True, env=_engine_env()
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


HELP = (("-h", "--help"), "help", argparse.SUPPRESS, "show this help message and exit", None)
JSON = (("--json",), "json", False, "emit JSON", None)
PARAMS = (("--params",), "params", None, "k=2,l=1 substitutions", _params_arg)

#: Every parser's actions as (option strings, dest, default, help, type).
PARSER_ACTIONS = {
    "ahrank": [HELP],
    "ahrank rank": [HELP, JSON, ((), "expr", None, None, None), PARAMS],
    "ahrank decide": [HELP, JSON, ((), "g", None, None, None), ((), "h", None, None, None), PARAMS],
    "ahrank embed-check": [HELP, JSON, ((), "g", None, None, None), ((), "h", None, None, None), PARAMS],
    "ahrank satake-show": [HELP, JSON, ((), "form", None, None, None), PARAMS],
    "ahrank orbits": [HELP, JSON, ((), "form", None, None, None), PARAMS],
    "ahrank table1": [HELP, JSON, (("--kmax",), "kmax", 6, None, int)],
    "ahrank table2": [HELP, JSON, (("--bound",), "bound", 4, None, int)],
    "ahrank anomaly-scan": [HELP, JSON, (("--rank",), "rank", 9, None, int)],
}

SUBCOMMAND_HELP = [
    ("rank", "rank profile of a reductive algebra"),
    ("decide", "existence of non-virtually-abelian discontinuous actions on G/H"),
    ("embed-check", "rank obstruction to H < G"),
    ("satake-show", "ASCII Satake diagram of a real form"),
    ("orbits", "antipodal-cone generators of a real form"),
    ("table1", "verify the rank table"),
    ("table2", "verify the 3-symmetric table"),
    ("anomaly-scan", "scan all real forms for rank anomalies"),
]


def test_parser_actions_pinned():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (subparsers.dest, subparsers.required) == ("command", True)
    assert [(a.dest, a.help) for a in subparsers._choices_actions] == SUBCOMMAND_HELP
    parsers = [parser, *subparsers.choices.values()]
    actions = {
        p.prog: [
            (tuple(a.option_strings), a.dest, a.default, a.help, a.type)
            for a in p._actions
            if a is not subparsers
        ]
        for p in parsers
    }
    assert actions == PARSER_ACTIONS
    handlers = {name: p.get_default("handler").__name__ for name, p in subparsers.choices.items()}
    assert handlers == {name: "_cmd_" + name.replace("-", "_") for name, _ in SUBCOMMAND_HELP}


def test_satake_show_memory_stays_linear_in_the_rank(capsys):
    # the bonds are read from the edge list: an n x n Cartan matrix at
    # rank 1999 would alone hold tens of MB
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "satake-show", "sl(2000,R)")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.count("o----") == 1998
    assert peak < 4 * 2**20


def test_satake_show_builds_its_diagram_once(capsys, monkeypatch):
    # the picture and both ranks are read off one diagram
    calls = []

    def counted(spec):
        calls.append(spec)
        return satake_of(spec)

    monkeypatch.setattr(cli, "satake_of", counted)
    monkeypatch.setattr(cones, "satake_of", counted)
    code, payload = run_json(capsys, "satake-show", "su(3,5)")
    assert code == 0
    assert (payload["real_rank"], payload["a_hyperbolic_rank"]) == (3, 3)
    assert len(calls) == 1
