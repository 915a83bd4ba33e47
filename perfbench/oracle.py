"""Expected answers for the benchmark, written without the ahrank engine.

Every number here comes from closed forms or from recorded table data:

* real ranks: the classical closed forms (sl(n,R) -> n-1, su(p,q) ->
  min(p,q), so*(2n) -> floor(n/2), ...) and the exceptional table;
* a-hyperbolic ranks: the rank-table rows (sl(n,R) and sl(n,H) drop to
  floor(n/2), so(2k+1,2k+1) to 2k, e6(I) to 4, e6(IV) to 1) and the
  complexified forms of the same involution counts;
* verdicts: conditions (A), (B), (C) of Kobayashi and Okuda, and the
  verdicts recorded for the 3-symmetric table and the example families.

An ``Algebra`` carries the text the engine will parse together with the
ranks this module expects for it.  Texts vary case, separators, covering
prefixes, braces and discrete quotients, which the parser must ignore.
"""

from __future__ import annotations

from dataclasses import dataclass

NO_INFINITE = "NoInfiniteDiscontinuous"
NO_NVA = "NoNonVirtuallyAbelian"
ADMITS = "AdmitsNonVirtuallyAbelian"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Algebra:
    """Expression text plus its expected rank data.

    ``factors`` names the simple factors as this benchmark generated them;
    ``nodes`` is the node count of the complexified Dynkin diagram.
    """

    text: str
    real: int
    ahyp: int
    nodes: int
    factors: tuple[tuple, ...]


def _atom(text, real, ahyp, nodes, key) -> Algebra:
    return Algebra(text, real, ahyp, nodes, (key,) if nodes else ())


def product(parts, sep: str = " x ") -> Algebra:
    return Algebra(
        sep.join(p.text for p in parts),
        sum(p.real for p in parts),
        sum(p.ahyp for p in parts),
        sum(p.nodes for p in parts),
        tuple(k for p in parts for k in p.factors),
    )


def decorate(alg: Algebra, text: str) -> Algebra:
    """Same algebra, other spelling (braces, quotients, prefixes)."""
    return Algebra(text, alg.real, alg.ahyp, alg.nodes, alg.factors)


# ---------------------------------------------------------------------------
# atoms

def sl(n: int, field: str) -> Algebra:
    text = f"sl({n},{field})"
    if field == "H":  # sl(n,H) = su*(2n)
        return su_star(2 * n, text)
    if n < 2:
        return _atom(text, 0, 0, 0, None)
    if field == "C":
        return _atom(text, n - 1, n // 2, 2 * (n - 1), ("slC", n))
    return _atom(text, n - 1, n // 2, n - 1, ("slR", n))


def su_star(m: int, text: str | None = None) -> Algebra:
    """su*(2h): real rank h-1, a-hyperbolic rank floor(h/2); su*(2) = su(2)."""
    text = text or f"su*({m})"
    half = m // 2
    if half < 2:
        return _atom(text, 0, 0, m - 1, ("su", m))
    return _atom(text, half - 1, half // 2, m - 1, ("su*", m))


def so_star(m: int) -> Algebra:
    """so*(2h): both ranks floor(h/2); so*(2) = T^1."""
    text = f"so*({m})"
    half = m // 2
    if half < 2:
        return _atom(text, 0, 0, 0, None)
    return _atom(text, half // 2, half // 2, half, ("so*", m))


def su(p: int, q: int | None = None) -> Algebra:
    if q is None:
        return _atom(f"su({p})", 0, 0, max(p - 1, 0), ("su", p))
    low = min(p, q)
    return _atom(f"su({p},{q})", low, low, max(p + q - 1, 0), ("su", p, q))


def _so_nodes(n: int) -> int:
    return {0: 0, 1: 0, 2: 0, 3: 1, 4: 2}.get(n, n // 2)


def so(p: int, q: int | None = None, prefix: str = "so") -> Algebra:
    if q is None:
        return _atom(f"{prefix}({p})", 0, 0, _so_nodes(p), ("so", p))
    text = f"{prefix}({p},{q})"
    low, n = min(p, q), p + q
    if low == 0:
        return _atom(text, 0, 0, _so_nodes(n), ("so", n))
    if n == 2:  # so(1,1) = R^1: split, but never antipodal
        return _atom(text, 1, 0, 0, None)
    ahyp = low - 1 if p == q and p % 2 == 1 and p >= 3 else low
    return _atom(text, low, ahyp, _so_nodes(n), ("so", p, q))


def so_c(n: int) -> Algebra:
    text = f"so({n},C)"
    if n < 2:
        return _atom(text, 0, 0, 0, None)
    m = n // 2
    nodes = 0 if n == 2 else 2 * m  # so(2,C) = T^1 x R^1
    if n % 2:
        return _atom(text, m, m, nodes, ("soC", n))
    return _atom(text, m, m if m % 2 == 0 else m - 1, nodes, ("soC", n))


def sp(p: int, q: int | str | None = None) -> Algebra:
    if q is None:
        return _atom(f"sp({p})", 0, 0, p, ("sp", p))
    if q == "R":
        return _atom(f"sp({p},R)", p, p, p, ("spR", p))
    if q == "C":
        return _atom(f"sp({p},C)", p, p, 2 * p, ("spC", p))
    low = min(p, q)
    return _atom(f"sp({p},{q})", low, low, p + q, ("sp", p, q))


def u(p: int, q: int) -> Algebra:
    """u(p,q) = su(p,q) x T^1."""
    return decorate(su(p, q), f"u({p},{q})")


def torus(k: int) -> Algebra:
    return Algebra(f"T^{k}", 0, 0, 0, ())


def split(k: int) -> Algebra:
    return Algebra(f"R^{k}", k, 0, 0, ())


#: (real rank, a-hyperbolic rank, complex rank) of the exceptional real forms.
EXCEPTIONAL = {
    "e6(I)": (6, 4, 6), "e6(II)": (4, 4, 6), "e6(III)": (2, 2, 6), "e6(IV)": (2, 1, 6),
    "e7(V)": (7, 7, 7), "e7(VI)": (4, 4, 7), "e7(VII)": (3, 3, 7),
    "e8(VIII)": (8, 8, 8), "e8(IX)": (4, 4, 8),
    "f4(I)": (4, 4, 4), "f4(II)": (1, 1, 4), "g2(split)": (2, 2, 2),
    # complex algebras viewed as real: -w0 is nontrivial only on E6
    "e6(C)": (6, 4, 12), "e7(C)": (7, 7, 14), "e8(C)": (8, 8, 16),
    "f4(C)": (4, 4, 8), "g2(C)": (2, 2, 4),
    # compact forms
    "e6": (0, 0, 6), "e7": (0, 0, 7), "e8": (0, 0, 8), "f4": (0, 0, 4), "g2": (0, 0, 2),
}


def exceptional(name: str) -> Algebra:
    real, ahyp, nodes = EXCEPTIONAL[name]
    return _atom(name, real, ahyp, nodes, (name,))


# ---------------------------------------------------------------------------
# verdicts and sweeps

def verdict(g: Algebra, h: Algebra) -> str | None:
    """Conditions (A), (B), (C) in order; None when h cannot be a closed
    reductive subgroup of g because one of its ranks is larger."""
    if h.real > g.real or h.ahyp > g.ahyp:
        return None
    if g.real == h.real:
        return NO_INFINITE
    if g.ahyp == h.ahyp:
        return NO_NVA
    if g.ahyp > h.real:
        return ADMITS
    return UNDETERMINED


def obstruction_witnesses(g: Algebra, h: Algebra) -> list[str]:
    witnesses = []
    if h.ahyp > g.ahyp:
        witnesses.append("a_hyperbolic_rank")
    if h.real > g.real:
        witnesses.append("real_rank")
    return witnesses


def anomalies(rank_bound: int) -> list[str]:
    """Real forms of simple types of rank <= rank_bound (canonical ranges)
    whose a-hyperbolic rank is below the real rank, in the engine's
    (family, params) order and spelling."""
    found = [("sl_R", (m + 1,)) for m in range(2, rank_bound + 1)]
    found += [("su_star", (2 * j,)) for j in range(3, rank_bound // 2 + 2) if 2 * j - 1 <= rank_bound]
    found += [("so_pq", (m, m)) for m in range(5, rank_bound + 1, 2)]
    if rank_bound >= 6:
        found += [("e6_I", ()), ("e6_IV", ())]
    found.sort()
    return [f"{f}({','.join(map(str, p))})" if p else f for f, p in found]


def table1_instances(k_max: int) -> int:
    """Instances the rank-table check visits: four rows from k = 1, the
    so(2k+1,2k+1) row from k = 2, and the two exceptional rows."""
    return 4 * k_max + (k_max - 1) + 2


# ---------------------------------------------------------------------------
# recorded verdicts: the 3-symmetric table and the example families

def _braced(alg: Algebra, quotient: str) -> Algebra:
    return decorate(alg, "{" + alg.text + "}/" + quotient)


def _simple_noncompact_so(p: int, q: int) -> bool:
    """so(2,2) splits into two factors and so(1,3) = sl(2,C) is complex."""
    return min(p, q) >= 1 and p + q >= 3 and {p, q} not in ({2}, {1, 3})


def table2_row(row: int, n: int, a: int, s: int, t: int):
    """One instance of a parametric 3-symmetric row as (G, H, verdict), or
    None outside the encoded domain or when G is not simple noncompact."""
    if row == 1:
        if n < 2:
            return None
        return sl(2 * n, "R"), _braced(product([sl(n, "C"), torus(1)]), f"Z_{n}"), ADMITS
    if row == 5:
        if not (3 <= n and 1 <= a <= n and 0 <= 2 * s <= a and s < n // 2 - (n - a) // 2):
            return None
        return so_star(2 * n), _braced(product([u(a - s, s), so_star(2 * n - 2 * a)]), "Z_2"), ADMITS
    if not (1 <= a <= n and 1 <= s and 2 * s <= a):
        return None
    if row == 2:
        if t > n - a or not _simple_noncompact_so(2 * n + 1 - 2 * s - 2 * t, 2 * s + 2 * t):
            return None
        g = so(2 * n + 1 - 2 * s - 2 * t, 2 * s + 2 * t)
        return g, product([u(a - s, s), so(2 * n - 2 * a + 1 - 2 * t, 2 * t)]), ADMITS
    if row == 3:
        return sp(n, "R"), _braced(product([u(a - s, s), sp(n - a, "R")]), "Z_2"), ADMITS
    if row == 4:
        if 2 * t > n - a or not _simple_noncompact_so(2 * n - 2 * s - 2 * t, 2 * s + 2 * t):
            return None
        g = so(2 * n - 2 * s - 2 * t, 2 * s + 2 * t)
        return g, _braced(product([u(a - s, s), so(2 * n - 2 * a - 2 * t, 2 * t)]), "Z_2"), ADMITS
    raise ValueError(f"no parametric row {row}")


def _s_u(p: int, q: int, r: int) -> Algebra:
    """S(U(p,q) x U(r)) = su(p,q) x su(r) x T^1."""
    alg = product([su(p, q), su(r), torus(1)])
    return decorate(alg, f"S(U({p},{q})xU({r}))")


def _fixed_pairs() -> list[tuple[Algebra, Algebra, str]]:
    e = exceptional
    return [
        (e("g2(split)"), u(1, 1), ADMITS),
        (e("g2(split)"), su(2, 1), ADMITS),
        (e("f4(I)"), _braced(product([so(5, 2, "spin"), torus(1)]), "Z_2"), ADMITS),
        (e("f4(I)"), _braced(product([sp(2, 1), torus(1)]), "Z_2"), ADMITS),
        (e("f4(I)"), _braced(product([su(2, 1), su(2, 1)]), "Z_3"), ADMITS),
        (e("e6(I)"), _braced(product([sl(3, "C"), su(2, 1)]), "Z_3"), ADMITS),
        (e("e6(II)"), _braced(product([_s_u(4, 1, 1), su(2)]), "Z_2"), ADMITS),
        (e("e6(II)"), _braced(product([su(2, 1), su(2, 1), su(2, 1)]), "{Z_2 x Z_3}"), ADMITS),
        (e("e6(III)"), _braced(product([decorate(su(5, 1), "[su(5,1)/Z_3]"), torus(1)]), "Z_2"), ADMITS),
        (e("e7(V)"), _braced(product([e("e6(II)"), torus(1)]), "Z_2"), ADMITS),
        (e("e7(V)"), _braced(product([so(2), so(6, 6)]), "Z_2"), ADMITS),
        (e("e7(VI)"), decorate(_s_u(6, 1, 1), "S(U(6,1)xU(1))/Z_4"), ADMITS),
        (e("e7(VII)"), _braced(product([so(2), so(10, 2)]), "Z_2"), ADMITS),
        (e("e8(VIII)"), product([so(8, 6), so(2)]), ADMITS),
        (e("e8(VIII)"), _braced(product([su(3), e("e6(III)")]), "Z_3"), ADMITS),
        (e("e8(IX)"), _braced(product([su(2, 1), e("e6")]), "Z_3"), ADMITS),
        (e("e8(IX)"), _braced(su(7, 2), "Z_3"), ADMITS),
        (so(4, 4), _braced(su(2, 1), "Z_3"), ADMITS),
        (so(5, 3, "spin"), e("g2(split)"), ADMITS),
        # disputed entries: rank_R H = rank_R G
        (e("e6(III)"), _braced(product([_s_u(4, 1, 1), su(1, 1)]), "Z_2"), NO_INFINITE),
        (e("e8(IX)"), _braced(product([su(3), e("e6(II)")]), "Z_3"), NO_INFINITE),
    ]


#: Fixed 3-symmetric entries and the two disputed entries, each with its
#: recorded verdict.
FIXED_PAIRS = _fixed_pairs()


def open_case(k: int) -> tuple[Algebra, Algebra, str]:
    """SO(2k+1,2k+1)/(U(1,1) x SO(2k-1,2k-1)), k >= 2: no condition applies."""
    return so(2 * k + 1, 2 * k + 1), product([u(1, 1), so(2 * k - 1, 2 * k - 1)]), UNDETERMINED


def example_family(index: int, k: int, l: int) -> tuple[Algebra, Algebra, str]:
    """The example families of homogeneous spaces, k, l >= 1."""
    if index == 0:
        return sl(4 * k + 2 * l, "R"), product([so(2 * k, 2 * k), sp(l, "R")]), NO_NVA
    if index == 1:
        return sl(2 * k + 2 * l, "R"), product([sp(k, "R"), sp(l, "R")]), NO_NVA
    if index == 2:
        return sl(4 * k + 4 * l, "R"), product([so(2 * k, 2 * k), so(2 * l, 2 * l)]), NO_NVA
    if index == 3:
        return sl(4 * k + 2 * l + 1, "R"), product([so(2 * k, 2 * k), so(l, l + 1)]), NO_NVA
    if index == 4:
        return sl(2 * k + 2 * l + 2, "R"), product([so(k, k + 1), so(l, l + 1)]), ADMITS
    if index == 5:
        return sl(2 * k + 2 * l + 2, "R"), product([so(k, k), so(l, l)]), ADMITS
    raise ValueError(f"no example family {index}")


EXAMPLE_FAMILIES = 6
