"""Seeded operation streams for the three workloads, and their checks.

Each stream is an endless generator of ``Op`` records built from
``random.Random`` streams keyed by the seed, so a seed fixes the inputs.
Category shares are exact: every cycle of slots holds a fixed mix, and
only the order and the parameters inside a slot are drawn.  Warm-up ops
come from a stream with another key, never from the timed one.

A check returns None for a correct outcome and a one-line reason
otherwise.  Expected values come from ``oracle``, never from the engine.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass

import oracle
from oracle import Algebra, product

SEPARATORS = (" x ", " x ", " * ", " × ")


@dataclass(frozen=True)
class Op:
    """One operation: its arguments, the expected outcome and the input
    properties the report shows."""

    args: tuple
    expect: tuple
    keys: frozenset = frozenset()
    nodes: int = 0
    error: bool = False


def rng_for(seed: int, workload: str, stream: str) -> random.Random:
    return random.Random(f"{seed}/{workload}/{stream}")


# ---------------------------------------------------------------------------
# algebras

def _spell(rng: random.Random, alg: Algebra) -> Algebra:
    return oracle.decorate(alg, alg.text.upper()) if rng.random() < 0.3 else alg


def random_atom(rng: random.Random, top: int) -> Algebra:
    """One factor with parameters up to ``top``; never the zero algebra."""
    kind = rng.randrange(18)
    n = rng.randint(2, top)
    p = rng.randint(1, top)
    q = rng.randint(1, top)
    if kind == 0:
        alg = oracle.sl(n, "R")
    elif kind == 1:
        alg = oracle.sl(n, "C")
    elif kind == 2:
        alg = oracle.sl(n, "H")
    elif kind == 3:
        alg = oracle.su_star(2 * n)
    elif kind == 4:
        alg = oracle.su(p, q)
    elif kind == 5:
        alg = oracle.su(n)
    elif kind == 6:
        alg = oracle.so(p, q)
    elif kind == 7:
        alg = oracle.so(n + 1)
    elif kind == 8:
        alg = oracle.so_star(2 * n)
    elif kind == 9:
        alg = oracle.sp(p, "R")
    elif kind == 10:
        alg = oracle.sp(p, q)
    elif kind == 11:
        alg = oracle.sp(p, rng.choice((None, "C")))
    elif kind == 12:
        alg = oracle.so_c(n + 1)
    elif kind == 13:
        alg = oracle.exceptional(rng.choice(sorted(oracle.EXCEPTIONAL)))
    elif kind == 14:
        alg = oracle.u(p, q)
    elif kind == 15:
        alg = oracle.so(p, q, "spin")
    elif kind == 16:
        alg = rng.choice((oracle.torus, oracle.split))(rng.randint(1, 3))
    else:
        base = product([oracle.su(p, q), oracle.su(n), oracle.torus(1)])
        alg = oracle.decorate(base, f"S(U({p},{q})xU({n}))")
    return _spell(rng, alg)


def join(rng: random.Random, parts) -> Algebra:
    alg = product(parts, rng.choice(SEPARATORS))
    if rng.random() < 0.2:
        alg = oracle.decorate(alg, "{" + alg.text + "}/Z_2")
    return alg


def random_pair(rng: random.Random, draw) -> tuple[Algebra, Algebra, str]:
    """G from one to three factors, H from one or two, with neither rank of
    H above that of G; ``draw()`` supplies the factors."""
    g = join(rng, [draw() for _ in range(rng.randint(1, 3))])
    for _ in range(30):
        h = join(rng, [draw() for _ in range(rng.randint(1, 2))])
        if h.real <= g.real and h.ahyp <= g.ahyp:
            break
    else:
        h = oracle.su(2)
    return g, h, oracle.verdict(g, h)


def table_pair(rng: random.Random) -> tuple[Algebra, Algebra, str]:
    """A 3-symmetric table or example-family instance at seeded parameters,
    with its recorded verdict."""
    while True:
        choice = rng.randrange(10)
        if choice < 5:
            found = oracle.table2_row(choice + 1, *(rng.randint(0, 8) for _ in range(4)))
        elif choice < 7:
            found = rng.choice(oracle.FIXED_PAIRS)
        elif choice == 7:
            found = oracle.open_case(rng.randint(2, 8))
        else:
            found = oracle.example_family(
                rng.randrange(oracle.EXAMPLE_FAMILIES), rng.randint(1, 5), rng.randint(1, 5)
            )
        if found is None:
            continue
        g, h, recorded = found
        if oracle.verdict(g, h) != recorded:
            raise AssertionError(f"oracle disagrees with the recorded verdict: {g.text} / {h.text}")
        return g, h, recorded


def large_pair(rng: random.Random) -> tuple[Algebra, Algebra, str]:
    """G = sl(n,R) x su(p,q) with complex ranks in the hundreds."""
    n, m = rng.randint(200, 500), rng.randint(200, 500)
    p = rng.randint(1, m - 1)
    g = product([oracle.sl(n, "R"), oracle.su(p, m - p)])
    for _ in range(30):
        a, b = rng.randint(100, 250), rng.randint(100, 250)
        x, y = rng.randint(1, a - 1), rng.randint(1, b - 1)
        h = product([oracle.su(x, a - x), oracle.so(y, b - y)])
        if h.real <= g.real and h.ahyp <= g.ahyp:
            break
    else:
        h = oracle.sl(n // 2, "R")
    return g, h, oracle.verdict(g, h)


def impossible_pair(rng: random.Random, draw) -> tuple[Algebra, Algebra]:
    """H = G x sl(k,R): its real rank exceeds that of G."""
    g = join(rng, [draw() for _ in range(rng.randint(1, 2))])
    return g, product([g, oracle.sl(rng.randint(2, 6), "R")])


def malformed(rng: random.Random, text: str) -> str:
    """A text the parser must reject with a ParseError."""
    kind = rng.randrange(6)
    if kind == 0:
        return text + ")"
    if kind == 1:
        cut = rng.randint(0, len(text))
        return text[:cut] + "#" + text[cut:]
    if kind == 2:
        return "sl(3) x " + text
    if kind == 3:
        return text + " x so*(5)"
    if kind == 4:
        return text + " x e6(V)"
    return text + " x"


def simple_form(rng: random.Random) -> Algebra:
    """One simple factor the parser keeps whole (for satake-show, orbits)."""
    kind = rng.randrange(12)
    n = rng.randint(2, 12)
    if kind == 0:
        alg = oracle.sl(n, "R")
    elif kind == 1:
        alg = oracle.sl(n, "C")
    elif kind == 2:
        alg = oracle.su_star(2 * n)
    elif kind == 3:
        total = rng.randint(2, 16)
        p = rng.randint(1, total - 1)
        alg = oracle.su(p, total - p)
    elif kind == 4:
        total = rng.randint(5, 20)
        p = rng.randint(1, total - 1)
        alg = oracle.so(p, total - p)
    elif kind == 5:
        alg = oracle.so_star(2 * (n + 1))
    elif kind == 6:
        alg = oracle.sp(n, "R")
    elif kind == 7:
        alg = oracle.sp(rng.randint(1, 6), rng.randint(1, 6))
    elif kind == 8:
        real_forms = sorted(k for k, v in oracle.EXCEPTIONAL.items() if v[0] and "(C)" not in k)
        alg = oracle.exceptional(rng.choice(real_forms))
    elif kind == 9:
        alg = oracle.su(n)
    elif kind == 10:
        alg = rng.choice((oracle.exceptional("e6(C)"), oracle.sp(n, "C"), oracle.so_c(n + 4)))
    else:
        alg = oracle.so(n + 4)
    return _spell(rng, alg)


def _keys(*algs: Algebra) -> frozenset:
    return frozenset(k for a in algs for k in a.factors)


def _max_nodes(*algs: Algebra) -> int:
    return max(a.nodes for a in algs)


# ---------------------------------------------------------------------------
# library-pairs

#: Slots per cycle of 100: 3-symmetric and example-family instances,
#: random products, pairs with complex ranks in the hundreds, malformed
#: expressions (ParseError) and impossible pairs (NotASubgroupPairError).
#: No record of real library traffic exists, so this mix is an assumption.
PAIR_MIX = {"table": 28, "random": 64, "large": 2, "malformed": 3, "impossible": 3}

#: Random products draw their factors from a seeded pool of POOL_SIZE
#: factors with parameters up to POOL_TOP.  The two are set so that over
#: the traced prefix of 5000 pairs about 9% of the satake_of calls build a
#: diagram not built before, as in verify_table2(8), where 137 of 1469
#: calls are distinct: the one measured repeat rate of the package.
POOL_SIZE, POOL_TOP = 2000, 40


def _pair_op(g: Algebra, h: Algebra, expected: str | None) -> Op:
    ranks = (g.real, g.ahyp, h.real, h.ahyp)
    expect = ("ok", *ranks, expected) if expected else ("domain", *ranks)
    return Op((g.text, h.text), expect, _keys(g, h), _max_nodes(g, h), expected is None)


def pair_stream(seed: int, stream: str = "timed"):
    """Endless stream of library-pairs ops; factors of random products come
    from a seeded pool shared by every stream of this seed, so they repeat."""
    pool_rng = rng_for(seed, "library-pairs", "pool")
    pool = [random_atom(pool_rng, POOL_TOP) for _ in range(POOL_SIZE)]
    rng = rng_for(seed, "library-pairs", stream)
    slots = [kind for kind, count in PAIR_MIX.items() for _ in range(count)]

    def draw() -> Algebra:
        return rng.choice(pool)

    while True:
        rng.shuffle(slots)
        for kind in slots:
            if kind == "table":
                yield _pair_op(*table_pair(rng))
            elif kind == "random":
                yield _pair_op(*random_pair(rng, draw))
            elif kind == "large":
                yield _pair_op(*large_pair(rng))
            elif kind == "impossible":
                yield _pair_op(*impossible_pair(rng, draw), None)
            else:
                g, h, _ = random_pair(rng, draw)
                bad = malformed(rng, g.text)
                args = (bad, h.text) if rng.random() < 0.5 else (h.text, bad)
                yield Op(args, ("parse",), _keys(g, h), _max_nodes(g, h), True)


def check_pair(op: Op, outcome: tuple) -> str | None:
    """Outcome of one pair op: ("ok", ranks..., verdict, rendered G, rendered
    H), ("domain", ranks...), ("parse",) or ("unexpected", traceback)."""
    expect = op.expect
    if outcome[0] != expect[0]:
        return f"{op.args}: got {outcome[:6]}, expected {expect}"
    if expect[0] == "ok":
        if outcome[1:6] != expect[1:6]:
            return f"{op.args}: got {outcome[1:6]}, expected {expect[1:6]}"
        if not all(isinstance(t, str) and t for t in outcome[6:8]):
            return f"{op.args}: empty rendering {outcome[6:8]}"
    elif expect[0] == "domain" and outcome[1:5] != expect[1:5]:
        return f"{op.args}: got ranks {outcome[1:5]}, expected {expect[1:5]}"
    return None


# ---------------------------------------------------------------------------
# cli-oneshot

#: Slots per cycle of 25.  One "rank" slot is a malformed expression (exit
#: 2) and one "decide" slot an impossible pair (exit 1).
CLI_MIX = {
    "rank": 6, "rank-malformed": 1, "decide": 7, "decide-impossible": 1,
    "embed-check": 4, "satake-show": 3, "orbits": 3,
}


def cli_stream(seed: int, stream: str = "timed"):
    """Endless stream of ``ahrank`` argument vectors with expected results."""
    rng = rng_for(seed, "cli-oneshot", stream)
    slots = [kind for kind, count in CLI_MIX.items() for _ in range(count)]

    def draw() -> Algebra:
        return random_atom(rng, 12)

    while True:
        rng.shuffle(slots)
        for kind in slots:
            flags = ("--json",) if rng.random() < 0.5 else ()
            if kind == "rank":
                alg = join(rng, [draw() for _ in range(rng.randint(1, 3))])
                yield Op(("rank", alg.text, *flags), (0, "rank", alg), _keys(alg), alg.nodes)
            elif kind == "rank-malformed":
                alg = join(rng, [draw() for _ in range(rng.randint(1, 2))])
                bad = malformed(rng, alg.text)
                yield Op(("rank", bad, *flags), (2, "rank", None), _keys(alg), alg.nodes, True)
            elif kind in ("decide", "embed-check"):
                if kind == "embed-check" and rng.random() < 0.25:
                    g, h = impossible_pair(rng, draw)
                else:
                    g, h, _ = table_pair(rng) if rng.random() < 0.3 else random_pair(rng, draw)
                yield Op((kind, g.text, h.text, *flags), (0, kind, (g, h)), _keys(g, h), _max_nodes(g, h))
            elif kind == "decide-impossible":
                g, h = impossible_pair(rng, draw)
                args = ("decide", g.text, h.text, *flags)
                yield Op(args, (1, "decide", (g, h)), _keys(g, h), _max_nodes(g, h), True)
            else:
                alg = simple_form(rng)
                yield Op((kind, alg.text, *flags), (0, kind, alg), _keys(alg), alg.nodes)


def _int(pattern: str, text: str) -> int | None:
    match = re.search(pattern, text, re.M)
    return int(match.group(1)) if match else None


def _check_cli_output(kind: str, data, out: str, as_json: bool) -> str | None:
    payload = json.loads(out) if as_json else None
    if kind == "rank":
        if as_json:
            got = (payload["real_rank"], payload["a_hyperbolic_rank"])
        else:
            got = (_int(r"^real rank:\s+(\d+)", out), _int(r"^a-hyperbolic rank:\s+(\d+)", out))
        want = (data.real, data.ahyp)
    elif kind == "decide":
        g, h = data
        want = (g.real, g.ahyp, h.real, h.ahyp, oracle.verdict(g, h))
        if as_json:
            got = (payload["g"]["real_rank"], payload["g"]["a_hyperbolic_rank"],
                   payload["h"]["real_rank"], payload["h"]["a_hyperbolic_rank"], payload["verdict"])
        else:
            ranks = [re.search(rf"^{x} = .*: real rank (\d+), a-hyperbolic rank (\d+)", out, re.M)
                     for x in "GH"]
            verdict = re.search(r"^verdict: (\w+)$", out, re.M)
            if not all(ranks) or not verdict:
                return "unreadable decide output"
            got = (*map(int, ranks[0].groups()), *map(int, ranks[1].groups()), verdict.group(1))
    elif kind == "embed-check":
        want = oracle.obstruction_witnesses(*data)
        if as_json:
            got = payload["witnesses"] if payload["obstructed"] else []
        else:
            got = re.findall(r"failing inequality: (\w+)\(H\)", out)
            if out.startswith("not obstructed") == bool(got):
                return "obstruction line disagrees with its witnesses"
    elif kind == "satake-show":
        if as_json:
            nodes = payload["rank"] * payload["components"]
            whites = nodes - len(payload["black"]) - len(payload["arrows"])
            got = (nodes, whites, payload["real_rank"], payload["a_hyperbolic_rank"])
            want = (data.nodes, data.real, data.real, data.ahyp)
        else:
            lines = out.splitlines()[1:]
            picture = [ln for ln in lines if not ln.startswith(("arrows:", "black:", "component"))]
            nodes = sum(ln.count("o") + ln.count("*") for ln in picture)
            black = sum(ln.count("*") for ln in picture)
            got = (nodes, nodes - black - out.count("<->"))
            want = (data.nodes, data.real)
    elif kind == "orbits":
        if as_json:
            vectors = payload["generators"]
        else:
            vectors = [] if out.strip() == "(none)" else [ln.strip("()").split(",") for ln in out.split()]
        got = (len(vectors), sorted({len(v) for v in vectors}))
        want = (data.ahyp, [data.nodes] if data.ahyp else [])
    else:
        return f"unknown command {kind}"
    return None if got == want else f"got {got}, expected {want}"


def check_cli(op: Op, code: int, out: str, err: str) -> str | None:
    """Exit code, stderr and stdout of one CLI invocation."""
    want_code, kind, data = op.expect
    if "Traceback" in err:
        return f"{op.args}: traceback"
    if code != want_code:
        return f"{op.args}: exit {code}, expected {want_code}"
    if want_code:
        prefix = "parse error:" if want_code == 2 else "error:"
        return None if err.startswith(prefix) else f"{op.args}: stderr {err[:60]!r}"
    try:
        reason = _check_cli_output(kind, data, out, "--json" in op.args)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        reason = f"unreadable output ({exc!r})"
    return None if reason is None else f"{op.args}: {reason}"


# ---------------------------------------------------------------------------
# sweep-scan

#: Rank bounds of anomaly scans span [30, 60] and k of rank-table checks
#: [100, 200]; every fourth op is a rank-table check.  Both follow a
#: golden-ratio sequence from a seeded start, so any prefix of a run
#: covers its range evenly and the median does not hinge on the few
#: values a seed happened to draw.
SWEEP_RANKS, SWEEP_KS = (30, 60), (100, 200)
GOLDEN = (5 ** 0.5 - 1) / 2


def sweep_stream(seed: int, stream: str = "timed"):
    rng = rng_for(seed, "sweep-scan", stream)
    phase = {"anomaly_scan": rng.random(), "verify_table1": rng.random()}
    for index in itertools.count():
        call = "verify_table1" if index % 4 == 3 else "anomaly_scan"
        phase[call] = (phase[call] + GOLDEN) % 1
        low, high = SWEEP_KS if call == "verify_table1" else SWEEP_RANKS
        arg = low + int(phase[call] * (high - low + 1))
        yield Op((call, arg), (call, arg), nodes=4 * arg + 1 if call == "verify_table1" else arg)


def check_sweep(op: Op, result) -> str | None:
    call, arg = op.expect
    if call == "anomaly_scan":
        want = oracle.anomalies(arg)
        return None if result == want else f"anomaly_scan({arg}): {len(result)} forms, expected {len(want)}"
    want = {"passed": True, "failures": [], "instances_checked": oracle.table1_instances(arg)}
    got = {key: result.get(key) for key in want}
    return None if got == want else f"verify_table1({arg}): got {got}, expected {want}"
