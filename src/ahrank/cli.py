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
import os
import re
import sys

from .cones import RankProfile, a_hyperbolic_rank, b_plus_generators, rank_profile
from .decision import decide, embed_obstruction
from .notation import ParseError, parse_expression, render
from .satake import InvalidRealFormError, ascii_diagram, export, real_rank, satake_of


def _params_arg(text: str) -> dict[str, int]:
    """Comma-separated name=value entries, read as an expression reads them:
    a name is ASCII letters (any case), a value an optional sign and digits."""
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
        name = name.strip()
        if not re.fullmatch("[A-Za-z]+", name):
            raise argparse.ArgumentTypeError(f"bad --params name {name!r}; expected ASCII letters")
        name = name.lower()
        if name in env:
            raise argparse.ArgumentTypeError(f"repeated --params name {name!r}")
        if not re.fullmatch(r"[+-]?\d+", value.strip()):
            raise argparse.ArgumentTypeError(f"bad integer in --params: {value!r}")
        try:
            env[name] = int(value)
        except ValueError as exc:  # more digits than int() converts
            raise argparse.ArgumentTypeError(f"bad integer in --params: {value!r}") from exc
    return env


def _rank_payload(record, profile) -> dict:
    return {
        "expression": record.source,
        "canonical": render(record.algebra),
        **profile.to_dict(),
        "discarded": list(record.discarded),
    }


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), flush=True)
    else:
        print(text, flush=True)


def _warn_discarded(discarded: list[str]) -> str:
    return f"  [stripped: {', '.join(discarded)}]" if discarded else ""


def _cmd_rank(args) -> int:
    record = parse_expression(args.expr, args.params)
    payload = _rank_payload(record, rank_profile(record.algebra))
    text = (
        f"algebra:           {payload['canonical']}{_warn_discarded(payload['discarded'])}\n"
        f"real rank:         {payload['real_rank']}\n"
        f"a-hyperbolic rank: {payload['a_hyperbolic_rank']}"
    )
    _emit(args, payload, text)
    return 0


def _profile_pair(args) -> tuple:
    """Parse G and H, then profile both, so that a parse error in H comes
    before a domain error in G; returns the two rank profiles and the
    ``g``/``h`` payload."""
    records = parse_expression(args.g, args.params), parse_expression(args.h, args.params)
    profiles = [rank_profile(record.algebra) for record in records]
    payload = {
        key: _rank_payload(record, profile)
        for key, record, profile in zip("gh", records, profiles)
    }
    return *profiles, payload


_CONDITION_TEXT = {
    "A": "(A) real ranks equal?        ",
    "B": "(B) a-hyperbolic ranks equal?",
    "C": "(C) a-hyp(G) > real rank(H)? ",
}


def _cmd_decide(args) -> int:
    g_profile, h_profile, payload = _profile_pair(args)
    decision = decide(g_profile, h_profile)
    payload.update(decision.to_dict())
    lines = [
        f"{name} = {factor['canonical']}: real rank {factor['real_rank']}, "
        f"a-hyperbolic rank {factor['a_hyperbolic_rank']}{_warn_discarded(factor['discarded'])}"
        for name, factor in (("G", payload["g"]), ("H", payload["h"]))
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
    g_profile, h_profile, payload = _profile_pair(args)
    obstruction = embed_obstruction(g_profile, h_profile)
    payload.update(obstruction.to_dict())
    if obstruction.obstructed:
        text = "obstructed: H cannot be a closed reductive subgroup of G\n" + "\n".join(
            f"  failing inequality: {w}(H) <= {w}(G)" for w in obstruction.witnesses
        )
    else:
        text = "not obstructed: both rank inequalities hold"
    _emit(args, payload, text)
    return 0


def _single_factor(args) -> tuple:
    """Parse FORM; returns its rendered name and its one simple factor."""
    alg = parse_expression(args.form, args.params).algebra
    if alg.sole_factor is None:
        raise InvalidRealFormError(f"expected a single simple factor, got {render(alg)!r}")
    return render(alg), alg.sole_factor


def _cmd_satake_show(args) -> int:
    form, spec = _single_factor(args)
    diagram = satake_of(spec)
    profile = RankProfile(real_rank(diagram), a_hyperbolic_rank(diagram))
    payload = {**export(diagram), "form": form, **profile.to_dict()}
    _emit(args, payload, f"{form}\n{ascii_diagram(diagram)}")
    return 0


def _cmd_orbits(args) -> int:
    form, spec = _single_factor(args)
    generators = b_plus_generators(satake_of(spec))
    payload = {"form": form, "generators": [list(g) for g in generators]}
    text = "\n".join("(" + ",".join(map(str, g)) + ")" for g in generators)
    _emit(args, payload, text or "(none)")
    return 0


def _verification(args, report, table: str, limit: str) -> int:
    lines = [f"{table}: {report.instances_checked} instances over {report.rows_checked} rows, {limit}"]
    lines.extend(f"skip {s}" for s in report.skips)
    lines.extend(f"FAIL {f}" for f in report.failures)
    lines.append("PASS" if report.passed else "FAIL")
    _emit(args, report.to_dict(), "\n".join(lines))
    return 0 if report.passed else 1


def _cmd_table1(args) -> int:
    from .catalog import verify_table1

    return _verification(args, verify_table1(args.kmax), "rank table", f"k <= {args.kmax}")


def _cmd_table2(args) -> int:
    from .catalog import verify_table2

    return _verification(
        args, verify_table2(args.bound), "3-symmetric table", f"parameters <= {args.bound}"
    )


def _cmd_anomaly_scan(args) -> int:
    from .catalog import anomaly_scan, table1_predicted_anomalies

    found = anomaly_scan(args.rank)
    passed = found == table1_predicted_anomalies(args.rank)
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
    _emit(args, payload, "\n".join(lines))
    return 0 if passed else 1


#: Subcommands as (name, handler, help, arguments).  The arguments are the
#: positional names, which take ``--params``, or one integer option and its
#: default.
_COMMANDS = (
    ("rank", _cmd_rank, "rank profile of a reductive algebra", ("expr",)),
    ("decide", _cmd_decide, "existence of non-virtually-abelian discontinuous actions on G/H", ("g", "h")),
    ("embed-check", _cmd_embed_check, "rank obstruction to H < G", ("g", "h")),
    ("satake-show", _cmd_satake_show, "ASCII Satake diagram of a real form", ("form",)),
    ("orbits", _cmd_orbits, "antipodal-cone generators of a real form", ("form",)),
    ("table1", _cmd_table1, "verify the rank table", ("--kmax", 6)),
    ("table2", _cmd_table2, "verify the 3-symmetric table", ("--bound", 4)),
    ("anomaly-scan", _cmd_anomaly_scan, "scan all real forms for rank anomalies", ("--rank", 9)),
)


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
    for name, handler, help_text, arguments in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--json", action="store_true", help="emit JSON")
        if arguments[0].startswith("--"):
            option, default = arguments
            cmd.add_argument(option, type=int, default=default)
            continue
        for positional in arguments:
            cmd.add_argument(positional)
        cmd.add_argument("--params", type=_params_arg, default=None, help="k=2,l=1 substitutions")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # also InvalidRealFormError and NotASubgroupPairError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout closed early; the exit flush then goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
