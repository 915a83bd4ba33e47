"""Host pacing: time measurements corrected for the speed of a shared host.

The benchmark runs on a few cores of a shared host whose speed drifts by
about 30% over seconds to minutes, for every program on it at once.  In
one five-minute run on 2 cores, twenty-second medians of a block of 200
in-process pairs ranged from 47 to 84 ms, while their ratio to ``job``
stayed within 4.4 to 5.1, and that of ``anomaly_scan(35)`` within 9.7 to
11.4.

So a timed run probes the host between its operations.  A probe is the
median time of ``ROUNDS`` runs of ``job``: fixed pure-Python work (regex
tokenizing, small objects, sorting, sets and dicts) that uses neither the
engine nor anything a change to it could alter.  A time ``t`` measured
between two probes ``a`` and ``b`` is reported as
``t * REFERENCE_MS / ((a + b) / 2)``: its length on a host where a probe
takes ``REFERENCE_MS``, a typical probe of the reference host (Python
3.11.7 on 2 cores of a shared x86-64 host).  Set-up times are corrected
with the median probe of the run that follows them.  The report prints
the uncorrected times as well.
"""

from __future__ import annotations

import gc
import re
import time

#: A typical probe on the reference host, in ms.
REFERENCE_MS = 4.0
#: Runs of ``job`` per probe; the median is taken.
ROUNDS = 3
#: Tokenizing, sorting and hashing rounds per run of ``job``.
JOB_ROUNDS = 2

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_*]+)|(.))")


class _Node:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value) -> None:
        self.kind, self.value = kind, value


def _tokens(text: str) -> list[tuple[str, object]]:
    out = []
    for match in _TOKEN.finditer(text):
        number, name, symbol = match.groups()
        if number:
            out.append(("n", int(number)))
        elif name:
            out.append(("w", name.lower()))
        elif symbol and not symbol.isspace():
            out.append(("s", symbol))
    return out


def job(rounds: int = JOB_ROUNDS) -> int:
    """Fixed work of the kind the engine does, without the engine."""
    total = 0
    for r in range(rounds):
        seen: dict[tuple, int] = {}
        for n in range(2, 40):
            text = f"su({n},{r % 7 + 1}) x so*({2 * n}) x e6(IV) x sp({n % 5 + 1},R)"
            nodes = [_Node(kind, value) for kind, value in _tokens(text)]
            key = tuple(sorted((node.kind, str(node.value)) for node in nodes))
            seen[key] = seen.get(key, 0) + len(nodes)
            edges = {(i, (i * 7 + n) % 31) for i in range(31)}
            orbit = sorted(edges, key=lambda e: (e[1], -e[0]))
            total += sum(a * b for a, b in orbit[:8]) + len(seen)
    return total


def probe_ms() -> float:
    """Median time of ``ROUNDS`` runs of ``job``, with the collector off so
    that the heap of the process around it does not count."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            start = time.perf_counter_ns()
            job()
            times.append((time.perf_counter_ns() - start) / 1e6)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


class Pacer:
    """Probes at most every ``every_s`` seconds; ``factor`` gives the
    correction for the stretch since the previous probe."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.probes = [probe_ms()]
        self.next_at = time.perf_counter() + every_s

    def due(self) -> bool:
        return time.perf_counter() >= self.next_at

    def factor(self) -> float:
        """Probe now; return ``REFERENCE_MS`` over the mean of this probe
        and the one before it."""
        self.probes.append(probe_ms())
        self.next_at = time.perf_counter() + self.every_s
        return REFERENCE_MS / ((self.probes[-2] + self.probes[-1]) / 2)

    def median_ms(self) -> float:
        ordered = sorted(self.probes)
        return ordered[len(ordered) // 2]
