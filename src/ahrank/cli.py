"""Command-line interface.

Subcommands::

    rank EXPR            real and a-hyperbolic rank of an algebra
    decide G H           decision for G/H with the comparison trace
    embed-check G H      rank obstruction to H embedding in G
    satake-show FORM     ASCII Satake diagram of one simple factor
    orbits FORM          generators of the antipodal cone
    table1 --kmax N      verify the rank table
    table2 --bound N     verify the 3-symmetric table
    anomaly-scan --rank N   scan all real forms for rank anomalies

Exit status: 0 success, 1 verification failure or domain error, 2 parse
error (the message carries the offending position).  ``--json`` switches
every command to a machine-readable report with the same numbers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import (
    anomaly_scan,
    table1_predicted_anomalies,
    verify_table1,
    verify_table2,
)
from .cones import ReductiveAlgebra, b_plus_generators, factor_profile, rank_profile
from .decision import NotASubgroupPairError, decide, embed_obstruction
from .notation import ParseError, parse_expression, render
from .satake import InvalidRealFormError, RealFormSpec, ascii_diagram, export, satake_of


def _params_arg(text: str) -> dict[str, int]:
    env = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, value = piece.partition("=")
        if not name or not value:
            raise argparse.ArgumentTypeError(
                f"bad --params entry {piece!r}; expected name=value"
            )
        try:
            env[name.strip().lower()] = int(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer in --params: {value!r}") from exc
    return env


def _rank_payload(expression: str, record) -> dict:
    profile = rank_profile(record.algebra)
    return {
        "expression": expression,
        "canonical": render(record.algebra),
        "real_rank": profile.real_rank,
        "a_hyperbolic_rank": profile.a_hyperbolic_rank,
        "discarded": list(record.discarded),
    }


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _warn_discarded(record) -> str:
    if not record.discarded:
        return ""
    return f"  [stripped: {', '.join(record.discarded)}]"


def _cmd_rank(args) -> int:
    record = parse_expression(args.expr, args.params)
    payload = _rank_payload(args.expr, record)
    text = (
        f"algebra:           {payload['canonical']}{_warn_discarded(record)}\n"
        f"real rank:         {payload['real_rank']}\n"
        f"a-hyperbolic rank: {payload['a_hyperbolic_rank']}"
    )
    _emit(args, payload, text)
    return 0


_CONDITION_TEXT = {
    "A": "(A) real ranks equal?        ",
    "B": "(B) a-hyperbolic ranks equal?",
    "C": "(C) a-hyp(G) > real rank(H)? ",
}


def _cmd_decide(args) -> int:
    g_record = parse_expression(args.g, args.params)
    h_record = parse_expression(args.h, args.params)
    g_profile = rank_profile(g_record.algebra)
    h_profile = rank_profile(h_record.algebra)
    decision = decide(g_profile, h_profile)
    payload = {
        "g": _rank_payload(args.g, g_record),
        "h": _rank_payload(args.h, h_record),
        **decision.to_dict(),
    }
    lines = [
        f"G = {render(g_record.algebra)}: real rank {g_profile.real_rank}, "
        f"a-hyperbolic rank {g_profile.a_hyperbolic_rank}{_warn_discarded(g_record)}",
        f"H = {render(h_record.algebra)}: real rank {h_profile.real_rank}, "
        f"a-hyperbolic rank {h_profile.a_hyperbolic_rank}{_warn_discarded(h_record)}",
    ]
    for step in decision.trace:
        outcome = "yes" if step.holds else "no"
        lines.append(
            f"  {_CONDITION_TEXT[step.condition]} {step.lhs} {step.op} {step.rhs} -> {outcome}"
        )
    lines.append(f"verdict: {decision.verdict.value}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_embed_check(args) -> int:
    g_record = parse_expression(args.g, args.params)
    h_record = parse_expression(args.h, args.params)
    obstruction = embed_obstruction(
        rank_profile(g_record.algebra), rank_profile(h_record.algebra)
    )
    payload = {
        "g": _rank_payload(args.g, g_record),
        "h": _rank_payload(args.h, h_record),
        **obstruction.to_dict(),
    }
    if obstruction.obstructed:
        text = "obstructed: H cannot be a closed reductive subgroup of G\n" + "\n".join(
            f"  failing inequality: {w}(H) <= {w}(G)" for w in obstruction.witnesses
        )
    else:
        text = "not obstructed: both rank inequalities hold"
    _emit(args, payload, text)
    return 0


def _single_factor(record) -> RealFormSpec:
    alg: ReductiveAlgebra = record.algebra
    if len(alg.simple_factors) != 1 or alg.compact_center_dim or alg.split_center_dim:
        raise InvalidRealFormError(
            f"expected a single simple factor, got {render(alg)!r}"
        )
    return alg.simple_factors[0]


def _cmd_satake_show(args) -> int:
    record = parse_expression(args.form, args.params)
    spec = _single_factor(record)
    diagram = satake_of(spec)
    profile = factor_profile(spec)
    payload = export(diagram)
    payload["form"] = render(record.algebra)
    payload["real_rank"] = profile.real_rank
    payload["a_hyperbolic_rank"] = profile.a_hyperbolic_rank
    text = f"{render(record.algebra)}\n{ascii_diagram(diagram)}"
    _emit(args, payload, text)
    return 0


def _cmd_orbits(args) -> int:
    record = parse_expression(args.form, args.params)
    generators = b_plus_generators(satake_of(_single_factor(record)))
    payload = {
        "form": render(record.algebra),
        "generators": [list(g.weights) for g in generators],
    }
    if generators:
        text = "\n".join("(" + ",".join(str(w) for w in g.weights) + ")" for g in generators)
    else:
        text = "(none)"
    _emit(args, payload, text)
    return 0


def _report_exit(args, payload: dict, lines: list[str], passed: bool) -> int:
    _emit(args, payload, "\n".join(lines))
    return 0 if passed else 1


def _cmd_table1(args) -> int:
    report = verify_table1(args.kmax)
    lines = [
        f"rank table: {report.instances_checked} instances over "
        f"{report.rows_checked} rows, k <= {args.kmax}"
    ]
    lines.extend(f"FAIL {f}" for f in report.failures)
    lines.append("PASS" if report.passed else "FAIL")
    return _report_exit(args, report.to_dict(), lines, report.passed)


def _cmd_table2(args) -> int:
    report = verify_table2(args.bound)
    lines = [
        f"3-symmetric table: {report.instances_checked} instances over "
        f"{report.rows_checked} rows, parameters <= {args.bound}"
    ]
    lines.extend(f"skip {s}" for s in report.skips)
    lines.extend(f"FAIL {f}" for f in report.failures)
    lines.append("PASS" if report.passed else "FAIL")
    return _report_exit(args, report.to_dict(), lines, report.passed)


def _cmd_anomaly_scan(args) -> int:
    found = anomaly_scan(args.rank)
    predicted = table1_predicted_anomalies(args.rank)
    passed = set(found) == set(predicted)
    payload = {
        "rank_bound": args.rank,
        "anomalies": [str(spec) for spec in found],
        "matches_rank_table": passed,
    }
    lines = [f"forms with a-hyperbolic rank < real rank, complex rank <= {args.rank}:"]
    lines.extend(f"  {spec}" for spec in found)
    lines.append(
        "matches the rank table exactly" if passed else "MISMATCH with the rank table"
    )
    return _report_exit(args, payload, lines, passed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahrank",
        description=(
            "Exact real and a-hyperbolic ranks of reductive Lie algebras, "
            "and decisions about discontinuous group actions on G/H."
        ),
        epilog=(
            "Algebra expressions: products of atoms joined by 'x' or '*', "
            "e.g. \"sl(10,R)\", \"su*(14) x T^1\", \"{SL(3,C) x SU(2,1)}/Z_3\", "
            "\"so(2k-1,2k-1)\" with --params k=2. Braces and /Z_n quotients "
            "are stripped; Spin(...) means so(...)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--json", action="store_true", help="emit JSON")
        return cmd

    cmd = add("rank", _cmd_rank, "rank profile of a reductive algebra")
    cmd.add_argument("expr")
    cmd.add_argument("--params", type=_params_arg, default=None, help="k=2,l=1 substitutions")

    cmd = add("decide", _cmd_decide, "existence of non-virtually-abelian discontinuous actions on G/H")
    cmd.add_argument("g")
    cmd.add_argument("h")
    cmd.add_argument("--params", type=_params_arg, default=None)

    cmd = add("embed-check", _cmd_embed_check, "rank obstruction to H < G")
    cmd.add_argument("g")
    cmd.add_argument("h")
    cmd.add_argument("--params", type=_params_arg, default=None)

    cmd = add("satake-show", _cmd_satake_show, "ASCII Satake diagram of a real form")
    cmd.add_argument("form")
    cmd.add_argument("--params", type=_params_arg, default=None)

    cmd = add("orbits", _cmd_orbits, "antipodal-cone generators of a real form")
    cmd.add_argument("form")
    cmd.add_argument("--params", type=_params_arg, default=None)

    cmd = add("table1", _cmd_table1, "verify the rank table")
    cmd.add_argument("--kmax", type=int, default=6)

    cmd = add("table2", _cmd_table2, "verify the 3-symmetric table")
    cmd.add_argument("--bound", type=int, default=4)

    cmd = add("anomaly-scan", _cmd_anomaly_scan, "scan all real forms for rank anomalies")
    cmd.add_argument("--rank", type=int, default=9)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (InvalidRealFormError, NotASubgroupPairError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
