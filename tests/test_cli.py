"""Command line: outputs, JSON/text agreement, exit codes."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from ahrank.cli import main

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
    assert payload["numbering"] == "bourbaki"
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


def test_overlong_integer_literal_exit_2(capsys):
    code, _out, err = run(capsys, "rank", "sl(" + "9" * 5000 + ",R)")
    assert code == 2
    assert "integer literal longer than 4300 digits (position 3)" in err


def test_not_a_subgroup_exit_1(capsys):
    code, _out, err = run(capsys, "decide", "so(3,4)", "e8(VIII)")
    assert code == 1
    assert "exceeds" in err


def test_orbits_requires_single_factor(capsys):
    code, _out, err = run(capsys, "orbits", "sl(2,R) x sl(3,R)")
    assert code == 1
    assert "single simple factor" in err


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
